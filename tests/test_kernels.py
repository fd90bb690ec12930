import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amcmc import kernels
from amcmc.cli import build_family
from amcmc.errors import (
    DimensionMismatch,
    NotIrreducible,
    NotSimultaneouslyErgodic,
)
from amcmc.families import (
    cyclic_pair,
    iid_family,
    mixture_family,
    random_metropolis_family,
    random_metropolis_kernel,
    random_positive_kernel,
    smoothed_family,
)
from amcmc.kernels import (
    Distribution,
    ErgodicityConstants,
    StochasticMatrix,
    dobrushin_coefficient,
    fit_ergodicity_constants,
    kernel_json_text,
    max_tv_between_kernels,
    read_kernel_json,
    stationary_distribution,
    sup_tv_to_pi_curve,
)
from amcmc.rwm import RwmParameter, build_discrete_rwm, truncated_gaussian_target
from conftest import traced_peak


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def power_iteration_stationary(P, tol=1e-15, max_iter=200_000):
    """Independent oracle: iterate d <- d P to convergence."""
    d = np.full(P.n, 1.0 / P.n)
    for _ in range(max_iter):
        nxt = d @ P.rows
        if np.abs(nxt - d).max() < tol:
            return nxt
        d = nxt
    return d


def stationary_lstsq_reference(P):
    """Least squares on ``(P^T - I) d = 0`` with the row ``1^T d = 1``
    appended, clipped at zero and renormalised."""
    n = P.n
    A = np.vstack([P.rows.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    assert rank == n
    w = np.clip(sol, 0.0, None)
    return w / w.sum()


def ergodic_family(kind: str, n: int, size: int, seed: int):
    """Kernels sharing a stationary ``pi``, and ``pi``.

    ``positive`` is one kernel with Dirichlet rows; ``metropolis`` is ``size``
    Metropolis kernels for a Dirichlet ``pi``; ``banded`` is ``size`` such
    kernels with Gaussian-band proposals; ``lazy-iid`` is ``size``
    kernels ``lam I + (1 - lam) 1 pi^T`` with ``lam`` in [0.3, 0.95], whose
    coefficients ``beta(P^m) = lam^m`` make the rates of all powers tie.
    """
    rng = np.random.default_rng(seed)
    if kind == "positive":
        P = random_positive_kernel(n, rng)
        return [P], stationary_distribution(P)
    pi = Distribution(rng.dirichlet(np.ones(n)))
    if kind == "metropolis":
        return list(random_metropolis_family(pi, size, seed=seed).kernels), pi
    if kind == "banded":
        # Metropolis kernels with Gaussian-band proposals of random widths
        bands = [gaussian_band(n, w) for w in rng.uniform(0.03, 0.3, size=size) * n + 0.5]
        return [kernels._metropolis_kernel(q / q.sum(axis=1).max(), pi.weights)
                for q in bands], pi
    lams = rng.uniform(0.3, 0.95, size=size)
    return [StochasticMatrix(lam * np.eye(n) + (1.0 - lam) * pi.weights) for lam in lams], pi


class TestStochasticMatrix:
    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            StochasticMatrix([[0.5, 0.4], [0.5, 0.5]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            StochasticMatrix([[1.1, -0.1], [0.5, 0.5]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            StochasticMatrix([[0.5, 0.5]])

    def test_immutable(self):
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            P.rows[0, 0] = 0.9

    def test_a_caller_array_is_copied(self):
        rows = np.full((3, 3), 1.0 / 3.0)
        P = StochasticMatrix(rows)
        assert not np.shares_memory(P.rows, rows) and rows.flags.writeable
        assert not P.rows.flags.writeable

    def test_an_adopted_array_is_checked_like_a_copied_one(self):
        for rows, match in (([[0.5, 0.4], [0.5, 0.5]], "sum to 1"),
                            ([[1.1, -0.1], [0.5, 0.5]], r"lie in \[0, 1\]"),
                            ([[np.nan, 1.0], [0.5, 0.5]], "finite"),
                            ([[0.5, 0.5]], "square")):
            with pytest.raises((ValueError, DimensionMismatch), match=match):
                StochasticMatrix._adopt(np.array(rows))

    @pytest.mark.parametrize("build, arrays", [
        (lambda pi: iid_family(pi), 1),
        (lambda pi: random_positive_kernel(pi.n, np.random.default_rng(1)), 1),
        # a Metropolis draw also holds its raw draws while it symmetrises them
        (lambda pi: random_metropolis_family(pi, 1, seed=2), 2),
    ])
    def test_builders_hand_over_their_arrays(self, build, arrays):
        # a builder's kernel keeps the array it filled, where a stored copy
        # took one more n x n array at the peak
        n = 800
        pi = Distribution(np.full(n, 1.0 / n))
        assert traced_peak(lambda: build(pi)) < (arrays + 0.2) * 8 * n**2

    def test_families_keep_read_only_members(self):
        pi = Distribution(np.full(5, 0.2))
        pair = random_metropolis_family(pi, 2, seed=3)
        for family in (iid_family(pi), pair, mixture_family(*pair.kernels, pi, 3),
                       smoothed_family(pair, 0.3)):
            assert not any(P.rows.flags.writeable for P in family.kernels)

    @pytest.mark.parametrize(
        "rows",
        [
            [[np.nan, np.nan], [0.5, 0.5]],  # once accepted, with a coefficient of 0
            [[np.nan, 1.0], [0.5, 0.5]],
            [[np.inf, 0.5], [0.5, 0.5]],
            [[-np.inf, 0.5], [0.5, 0.5]],
        ],
    )
    def test_rejects_non_finite_entries(self, rows):
        with pytest.raises(ValueError, match="finite"):
            StochasticMatrix(rows)


class TestDistribution:
    @pytest.mark.parametrize(
        "weights", [[np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.5, 0.5], [-np.inf, 1.0]]
    )
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="finite"):
            Distribution(weights)


class TestStationaryDistribution:
    def test_cyclic_forward_kernel(self):
        # hand-checkable closed form
        fam = cyclic_pair()
        d = stationary_distribution(fam.kernels[0])
        assert np.allclose(d.weights, [0.5, 0.25, 0.25], atol=1e-14)

    def test_single_state(self):
        d = stationary_distribution(StochasticMatrix([[1.0]]))
        assert d.weights.tolist() == [1.0]

    def test_random_positive_kernel_matches_power_iteration(self):
        rng = np.random.Generator(np.random.Philox(7))
        P = random_positive_kernel(10, rng)
        d = stationary_distribution(P)
        oracle = power_iteration_stationary(P)
        assert np.abs(d.weights - oracle).max() <= 1e-12
        assert np.abs(d.weights @ P.rows - d.weights).max() <= 1e-12

    def test_not_irreducible(self):
        P = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotIrreducible):
            stationary_distribution(P)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["positive", "metropolis"]),
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_lu_matches_lstsq_reference(self, kind, n, seed):
        P = ergodic_family(kind, n, 1, seed)[0][0]
        d = stationary_distribution(P)
        assert np.abs(d.weights - stationary_lstsq_reference(P)).max() <= 1e-12


class TestMaxTvBetweenKernels:
    def test_identical_kernels(self):
        P = cyclic_pair().kernels[0]
        assert max_tv_between_kernels(P, P) == 0.0

    def test_cyclic_pair_rows_disjoint(self):
        fam = cyclic_pair()
        # brute-force row oracle
        P, Q = fam.kernels[0].rows, fam.kernels[1].rows
        expected = max(0.5 * np.abs(P[x] - Q[x]).sum() for x in range(3))
        assert expected == 1.0
        assert max_tv_between_kernels(fam.kernels[0], fam.kernels[1]) == 1.0

    def test_convex_mixture_bound(self):
        rng = np.random.Generator(np.random.Philox(5))
        P = random_positive_kernel(4, rng)
        Q = random_positive_kernel(4, rng)
        for eps in (0.01, 0.1, 0.5):
            M = StochasticMatrix((1 - eps) * P.rows + eps * Q.rows)
            assert max_tv_between_kernels(P, M) <= eps + 1e-12


def dobrushin_oracle(rows: np.ndarray) -> float:
    """All-pairs contraction coefficient: every ``(x, y)`` pair, no pruning."""
    n = rows.shape[0]
    if n == 1:
        return 0.0
    best = 0.0
    chunk = max(1, int(2e6) // (n * n))
    for start in range(0, n, chunk):
        block = rows[start : start + chunk]
        diffs = 0.5 * np.abs(block[:, None, :] - rows[None, :, :]).sum(axis=2)
        best = max(best, float(diffs.max()))
    return min(best, 1.0)


KERNEL_KINDS = (
    "dense", "sparse", "lazy-cycle", "permutation", "equal-row", "near-equal-row", "banded"
)


def gaussian_band(n: int, width: float) -> np.ndarray:
    """Unnormalised rows ``exp(-(x - y)**2 / (2 width**2))``, like an RWM proposal."""
    offsets = np.arange(n)[:, None] - np.arange(n)[None, :]
    return np.exp(-0.5 * (offsets / width) ** 2)


def circulant_band(n: int, width: float) -> np.ndarray:
    """:func:`gaussian_band` around a cycle: every column holds a near-zero
    entry, so the rows share almost no mass and Doeblin's bound stays near 1."""
    offsets = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return np.exp(-0.5 * (np.minimum(offsets, n - offsets) / width) ** 2)


def make_kernel(kind: str, n: int, seed: int) -> StochasticMatrix:
    rng = np.random.default_rng(seed)
    if kind == "dense":
        rows = rng.dirichlet(np.full(n, rng.uniform(0.05, 5.0)), size=n)
    elif kind == "sparse":
        rows = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.5))
        rows[np.arange(n), rng.integers(0, n, size=n)] += 1.0
        rows /= rows.sum(axis=1, keepdims=True)
    elif kind == "lazy-cycle":
        lazy = rng.uniform(0.0, 1.0)
        rows = lazy * np.eye(n) + (1.0 - lazy) * np.roll(np.eye(n), 1, axis=1)
    elif kind == "permutation":
        rows = np.eye(n)[rng.permutation(n)]
    elif kind == "equal-row":
        rows = np.tile(rng.dirichlet(np.ones(n)), (n, 1))
    elif kind == "banded":
        # every row far from the mean row: the mean-row bound prunes little
        rows = gaussian_band(n, rng.uniform(0.03, 0.3) * n + 0.5)
        rows /= rows.sum(axis=1, keepdims=True)
    else:
        # rows a few ulps apart: every pair sits inside the pruning slack
        rows = np.tile(rng.dirichlet(np.ones(n)), (n, 1))
        rows *= 1.0 + 1e-15 * rng.standard_normal((n, n))
        rows /= rows.sum(axis=1, keepdims=True)
    return StochasticMatrix(rows)


class TestDobrushinCoefficient:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(KERNEL_KINDS),
        n=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        power=st.integers(min_value=1, max_value=4),
    )
    def test_matches_all_pairs_oracle_exactly(self, kind, n, seed, power):
        P = make_kernel(kind, n, seed)
        rows = np.linalg.matrix_power(P.rows, power)
        assert dobrushin_coefficient(StochasticMatrix(rows)) == dobrushin_oracle(rows)

    # from (150, 2.0, 12) on, the mean-row bound leaves few pairs after the seed
    # row (the certificate's high powers); (60, 2.0, 30) stops at the seed row
    @pytest.mark.parametrize("m, variance, power", [(60, 0.5, 1), (150, 0.5, 1), (150, 2.0, 1),
                                                   (150, 0.5, 2), (150, 2.0, 12), (150, 0.5, 7),
                                                   (200, 0.5, 7), (200, 0.5, 12), (200, 2.0, 4),
                                                   (100, 0.05, 64), (60, 2.0, 30)])
    def test_rwm_kernel_matches_all_pairs_oracle_exactly(self, m, variance, power):
        target = truncated_gaussian_target([[-3.0, 3.0]], m=m)
        P = build_discrete_rwm(target, RwmParameter.from_scalar(variance, 0.01, 10.0))
        rows = np.linalg.matrix_power(P.rows, power)
        assert kernels._dobrushin_raw(rows) == dobrushin_oracle(rows)

    def test_pair_after_the_seed_row_sets_the_coefficient(self):
        # by distance to the mean row the rows run 1, 3, 0, 2: row 1 seeds
        # 0.46, and the one pair the mean-row bound leaves, (3, 0), sets 0.48
        rows = np.array([[0.13, 0.54, 0.20, 0.13], [0.54, 0.28, 0.05, 0.13],
                         [0.18, 0.34, 0.32, 0.16], [0.30, 0.06, 0.31, 0.33]])
        seed = max(0.5 * np.abs(rows[1] - rows[x]).sum() for x in (0, 2, 3))
        assert seed < dobrushin_oracle(rows)
        assert dobrushin_coefficient(StochasticMatrix(rows)) == dobrushin_oracle(rows)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(KERNEL_KINDS),
        n=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        power=st.integers(min_value=1, max_value=4),
        where=st.sampled_from(["zero", "below", "ulp-below", "slack-below", "at", "ulp-above",
                               "slack-above", "above", "one"]),
    )
    def test_floor_returns_the_larger_of_floor_and_coefficient(self, kind, n, seed, power, where):
        rows = np.linalg.matrix_power(make_kernel(kind, n, seed).rows, power)
        beta = dobrushin_oracle(rows)
        slack = 64 * n * np.finfo(np.float64).eps
        floor = {
            "zero": 0.0, "below": 0.5 * beta, "ulp-below": np.nextafter(beta, 0.0),
            "slack-below": beta - 0.5 * slack, "at": beta, "ulp-above": np.nextafter(beta, 2.0),
            "slack-above": beta + 0.5 * slack, "above": 0.5 * (beta + 1.0), "one": 1.0,
        }[where]
        floor = float(min(max(floor, 0.0), 1.0))
        work = np.empty((2, n, n))
        assert kernels._dobrushin_raw(rows, work, floor=floor) == max(floor, beta)

    # the certificate's high powers, where the mean-row and Doeblin bounds
    # prune most, with floors straddling the coefficient
    @pytest.mark.parametrize("m, variance, power", [(150, 0.5, 1), (150, 2.0, 12), (200, 0.5, 7),
                                                   (100, 0.05, 64), (60, 2.0, 30)])
    def test_floor_on_rwm_powers_straddling_the_coefficient(self, m, variance, power):
        target = truncated_gaussian_target([[-3.0, 3.0]], m=m)
        P = build_discrete_rwm(target, RwmParameter.from_scalar(variance, 0.01, 10.0))
        rows = np.linalg.matrix_power(P.rows, power)
        beta = dobrushin_oracle(rows)
        slack = 64 * m * np.finfo(np.float64).eps
        for floor in (0.0, 0.9 * beta, beta - slack, np.nextafter(beta, 0.0), beta,
                      np.nextafter(beta, 2.0), beta + slack, 0.5 * (beta + 1.0), 1.0):
            floor = float(min(floor, 1.0))
            assert kernels._dobrushin_raw(rows, floor=floor) == max(floor, beta)

    @pytest.mark.parametrize("variance", [0.5, 2.0])
    def test_doeblin_bound_settles_rwm_powers_after_the_seed_row(self, monkeypatch, variance):
        # the far rows of a truncated-Gaussian walk overlap where the walk
        # lingers, so the column minima of rows 1.. already rule out every
        # pair: no distance is worked out after the seed row
        distances = []
        real_tv = kernels._row_tv

        def tv_spy(a, b, out=None):
            distances.append(b.shape)
            return real_tv(a, b, out)

        target = truncated_gaussian_target([[-3.0, 3.0]], m=200)
        P = build_discrete_rwm(target, RwmParameter.from_scalar(variance, 0.01, 10.0))
        powers = [np.linalg.matrix_power(P.rows, power) for power in range(1, 13)]
        monkeypatch.setattr(kernels, "_row_tv", tv_spy)
        for rows in powers:
            distances.clear()
            assert kernels._dobrushin_raw(rows) == dobrushin_oracle(rows)
            # the distances to the mean row, then the seed row's to every other row
            assert distances == [(200,), (199, 200)]

    @staticmethod
    def circulant_kernel(n: int = 300, width: float = 20.0) -> np.ndarray:
        rows = circulant_band(n, width)
        return rows / rows.sum(axis=1, keepdims=True)

    def test_row_loop_over_a_wide_circulant_band_matches_the_oracle(self, monkeypatch):
        # every row is as far from the mean row as every other and every column
        # holds a near-zero entry, so neither bound prunes: the row loop works
        # out the distances of nearly every row to the rows after it
        rows = self.circulant_kernel()
        searched = []
        real_tv = kernels._row_tv

        def tv_spy(a, b, out=None):
            searched.append(b.shape)
            return real_tv(a, b, out)

        monkeypatch.setattr(kernels, "_row_tv", tv_spy)
        beta = kernels._dobrushin_raw(rows)
        assert len(searched) > 250
        monkeypatch.undo()
        assert beta == dobrushin_oracle(rows)
        assert kernels._dobrushin_raw(rows, np.empty((2, 300, 300))) == beta

    def test_search_with_lent_work_allocates_well_under_one_block(self):
        # the sorted rows, the suffix column minima and every row's distances
        # are written into the lent blocks; what is left is O(n) vectors and
        # the reductions' buffers
        rows = self.circulant_kernel()
        work = np.empty((2, 300, 300))
        assert traced_peak(lambda: kernels._dobrushin_raw(rows, work)) < 0.25 * 8 * 300**2

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["positive", "metropolis", "banded", "circulant"]),
        n=st.integers(min_value=2, max_value=50),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        power=st.integers(min_value=1, max_value=3),
        negative=st.floats(min_value=0.0, max_value=0.2),
        where=st.sampled_from(["zero", "below", "ulp-below", "at", "ulp-above", "slack-above",
                               "doeblin", "ulp-below-doeblin", "between", "one"]),
    )
    def test_floor_and_doeblin_stop_keep_the_all_pairs_maximum(self, kind, n, seed, power,
                                                                negative, where):
        # entries down to -ROW_SUM_TOL and row sums off 1 by up to ROW_SUM_TOL,
        # as StochasticMatrix admits, with floors around the coefficient and
        # around Doeblin's bound (largest row sum less the column minima)
        rng = np.random.default_rng(seed)
        if kind == "positive":
            rows = random_positive_kernel(n, rng).rows
        elif kind == "metropolis":
            rows = random_metropolis_family(Distribution(rng.dirichlet(np.ones(n))), 1,
                                            seed=seed).kernels[0].rows
        else:
            band = gaussian_band if kind == "banded" else circulant_band
            rows = band(n, rng.uniform(0.03, 0.3) * n + 0.5)
            rows /= rows.sum(axis=1, keepdims=True)
        rows = np.linalg.matrix_power(rows, power).copy()
        hit = rng.random((n, n)) < negative
        lost = np.where(hit, rows, 0.0).sum(axis=1)
        rows[hit] = -kernels.ROW_SUM_TOL * rng.random(int(hit.sum()))
        rows[np.arange(n), rows.argmax(axis=1)] += lost + np.where(hit, -rows, 0.0).sum(axis=1)
        rows *= 1.0 + kernels.ROW_SUM_TOL * rng.uniform(-1.0, 1.0, size=(n, 1))
        rows = np.maximum(rows, -kernels.ROW_SUM_TOL)
        beta = dobrushin_oracle(rows)
        doeblin = float(rows.sum(axis=1).max() - rows.min(axis=0).sum())
        slack = 64 * n * np.finfo(np.float64).eps
        floor = {
            "zero": 0.0, "below": 0.5 * beta, "ulp-below": np.nextafter(beta, 0.0), "at": beta,
            "ulp-above": np.nextafter(beta, 2.0), "slack-above": beta + 0.5 * slack,
            "doeblin": doeblin, "ulp-below-doeblin": np.nextafter(doeblin, 0.0),
            "between": 0.5 * (beta + doeblin), "one": 1.0,
        }[where]
        floor = float(min(max(floor, 0.0), 1.0))
        assert kernels._dobrushin_raw(rows, floor=floor) == max(floor, beta)

    def test_equal_rows(self):
        pi = Distribution([0.5, 0.3, 0.2])
        assert dobrushin_coefficient(iid_family(pi).kernels[0]) == 0.0

    def test_identity_kernel(self):
        assert dobrushin_coefficient(StochasticMatrix(np.eye(3))) == 1.0

    def test_cyclic_forward_brute_force(self):
        P = cyclic_pair().kernels[0]
        pairs = [
            0.5 * np.abs(P.rows[x] - P.rows[y]).sum() for x in range(3) for y in range(x + 1, 3)
        ]
        assert max(pairs) == 1.0
        assert dobrushin_coefficient(P) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        kinds=st.tuples(st.sampled_from(KERNEL_KINDS), st.sampled_from(KERNEL_KINDS)),
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_submultiplicative_on_random_pairs(self, kinds, n, seed):
        P, Q = (make_kernel(kind, n, seed + i) for i, kind in enumerate(kinds))
        prod = StochasticMatrix(P.rows @ Q.rows)
        slack = 64 * n * np.finfo(np.float64).eps
        assert (
            dobrushin_coefficient(prod)
            <= dobrushin_coefficient(P) * dobrushin_coefficient(Q) + slack
        )

    def test_products_stay_row_stochastic(self):
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(20):
            P = random_positive_kernel(6, rng)
            Q = random_positive_kernel(6, rng)
            sums = (P.rows @ Q.rows).sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-10


class TestOneTvForm:
    @settings(max_examples=200, deadline=None)
    @given(
        kinds=st.tuples(st.sampled_from(KERNEL_KINDS), st.sampled_from(KERNEL_KINDS)),
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        horizon=st.integers(min_value=1, max_value=6),
    )
    def test_distances_are_the_explicit_form_bit_for_bit(self, kinds, n, seed, horizon):
        P, Q = (make_kernel(kind, n, seed + i) for i, kind in enumerate(kinds))
        pi = Distribution(Q.rows[0])
        gap = 0.5 * float(np.abs(P.rows - Q.rows).sum(axis=1).max())
        assert max_tv_between_kernels(P, Q) == gap
        Pk, curve = P.rows, []
        for _ in range(horizon):
            curve.append(0.5 * np.abs(Pk - pi.weights).sum(axis=1).max())
            Pk = Pk @ P.rows
        assert np.array_equal(sup_tv_to_pi_curve(P, pi, horizon), curve)


class TestRandomMetropolisKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 181, 200, 500])
    def test_kernel_is_the_summed_transpose_construction_bit_for_bit(self, n):
        # up to 181 states one block of 2**15 entries holds every row; 200
        # and 500 states take blocks of 163 and 65 rows, the last one partial
        pi = Distribution(np.random.default_rng(n).dirichlet(np.ones(n)))
        raw = np.random.default_rng(11).uniform(0.1, 1.0, size=(n, n))
        q = raw + raw.T
        q /= q.sum(axis=1, keepdims=True).max()
        expected = kernels._metropolis_kernel(q, pi.weights)
        P = random_metropolis_kernel(pi, np.random.default_rng(11))
        assert np.array_equal(P.rows, expected.rows)

    def test_build_peaks_near_one_kernel_size(self):
        # the uniforms are symmetrised in place, where raw + raw.T held two
        pi = Distribution(np.full(500, 1.0 / 500))
        peak = traced_peak(lambda: random_metropolis_kernel(pi, np.random.default_rng(3)))
        assert peak < 1.5 * 8 * 500**2


class TestFitErgodicityConstants:
    def test_iid_kernel_rho_zero(self):
        pi = Distribution([0.5, 0.25, 0.25])
        P = iid_family(pi).kernels[0]
        consts = fit_ergodicity_constants([P], pi, horizon=8)
        assert consts.C >= 1.0
        assert consts.rho == 0.0
        assert np.all(sup_tv_to_pi_curve(P, pi, 8) <= 1e-15)

    def test_cyclic_pair_family(self):
        fam = cyclic_pair()
        consts = fit_ergodicity_constants(list(fam.kernels), fam.pi, horizon=32)
        assert consts.beta == 1.0  # one-step coefficient does not contract
        assert consts.rho < 1.0
        assert np.isfinite(consts.C)
        assert consts.horizon == 32
        # the certificate's curves are the ones a separate pass gives, and it
        # holds on them
        for s, P in enumerate(fam.kernels):
            assert np.array_equal(consts.curves[s], sup_tv_to_pi_curve(P, fam.pi, 32))
        ks = np.arange(1, 33)
        assert np.max(consts.curves - consts.C * consts.rho**ks) <= 1e-10

    def test_random_family_validated_against_power_oracle(self):
        rng = np.random.Generator(np.random.Philox(23))
        pi = Distribution(rng.dirichlet(np.ones(5)))
        from amcmc.families import random_metropolis_family

        fam = random_metropolis_family(pi, 3, seed=3)
        horizon = 12
        consts = fit_ergodicity_constants(list(fam.kernels), fam.pi, horizon)
        # direct matrix-power oracle for every member and power
        for P in fam.kernels:
            Pk = np.eye(P.n)
            for k in range(1, horizon + 1):
                Pk = Pk @ P.rows
                e_k = 0.5 * np.abs(Pk - fam.pi.weights[None, :]).sum(axis=1).max()
                assert e_k <= consts.C * consts.rho**k + 1e-10

    def test_not_simultaneously_ergodic(self):
        pi = Distribution([0.5, 0.5])
        with pytest.raises(NotSimultaneouslyErgodic):
            fit_ergodicity_constants([StochasticMatrix(np.eye(2))], pi, horizon=6)

    def test_one_step_contraction_implies_geometric_with_unit_constant(self):
        # beta < 1 certifies the curve e(k) <= beta**k directly
        rng = np.random.Generator(np.random.Philox(29))
        for _ in range(10):
            P = random_positive_kernel(5, rng)
            pi = stationary_distribution(P)
            beta = dobrushin_coefficient(P)
            assert beta < 1.0
            e = sup_tv_to_pi_curve(P, pi, 12)
            ks = np.arange(1, 13)
            assert np.all(e <= beta**ks + 1e-10)


def fit_ergodicity_constants_oracle(P_list, pi, horizon):
    """The certificate fit with an all-pairs coefficient for every power
    ``m <= horizon`` and a separate pass over the powers for the curves
    ``e_s(k)``; returns ``(C, rho, beta)``, the curves and the worst
    coefficient of each power (``beta_m[m]``, ``m = 1..horizon``)."""
    beta = max(dobrushin_oracle(P.rows) for P in P_list)
    beta_m = np.ones(horizon + 1)
    powers = [P.rows.copy() for P in P_list]
    for m in range(1, horizon + 1):
        if m > 1:
            powers = [Pk @ P.rows for Pk, P in zip(powers, P_list)]
        beta_m[m] = max(dobrushin_oracle(Pk) for Pk in powers)
    curves = np.empty((len(P_list), horizon))
    for s, P in enumerate(P_list):
        Pk = P.rows.copy()
        for k in range(1, horizon + 1):
            if k > 1:
                Pk = Pk @ P.rows
            curves[s, k - 1] = 0.5 * np.abs(Pk - pi.weights[None, :]).sum(axis=1).max()
    m = oracle_power(beta_m, curves)
    rho = beta_m[m] ** (1.0 / m)
    C = 1.0
    if rho > 0.0:
        ks = np.arange(1, horizon + 1)
        for e in curves:
            # a curve value of 0 constrains nothing, even where rho**k underflows
            ratios = np.divide(e, rho**ks, out=np.zeros(horizon), where=e > 0.0)
            C = max(C, float(np.max(ratios)))
    return (C, float(rho), float(beta)), curves, beta_m


def oracle_power(beta_m, curves) -> int:
    """The power whose rate ``beta_m[m] ** (1/m)`` is least, ties to the
    smallest ``m``; a rate of 0 counts only where every curve value is 0."""
    powers = [m for m in range(1, len(beta_m)) if beta_m[m] < 1.0]
    if curves.any() and any(beta_m[m] > 0.0 for m in powers):
        powers = [m for m in powers if beta_m[m] > 0.0]
    return min(powers, key=lambda m: (beta_m[m] ** (1.0 / m), m))


class TestFitMatchesOracle:
    @pytest.mark.parametrize(
        "name, target_m, sigmas",
        [
            ("bounds_rwm_grid.json", None, None),
            ("bounds_rwm_grid.json", 12, [0.3, 0.9]),
            ("bounds_rwm_grid.json", 90, [0.4, 0.8, 1.6, 2.4, 3.2]),
            ("bounds_mixture.json", None, None),
        ],
    )
    def test_same_certificate_as_oracle(self, name, target_m, sigmas):
        cfg = json.loads((CONFIG_DIR / name).read_text())
        if target_m is not None:
            cfg["family"]["target"]["m"] = target_m
            cfg["family"]["sigmas"] = sigmas
        fam = build_family(cfg["family"])
        consts = fit_ergodicity_constants(list(fam.kernels), fam.pi, cfg["horizon"])
        expected, curves, _ = fit_ergodicity_constants_oracle(
            list(fam.kernels), fam.pi, cfg["horizon"]
        )
        assert (consts.C, consts.rho, consts.beta) == expected
        assert np.array_equal(consts.curves, curves)

    @settings(max_examples=300, deadline=None)
    # beta_6 = 1.67e-15 sets the oracle's rate; beta_12, its doubling, rounds to 0
    @example(kind="positive", n=2, size=1, horizon=12, seed=14206040)
    @given(
        kind=st.sampled_from(["positive", "metropolis", "lazy-iid", "banded"]),
        n=st.integers(min_value=2, max_value=30),
        size=st.integers(min_value=1, max_value=3),
        horizon=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_certificate_as_all_powers_oracle(self, kind, n, size, horizon, seed):
        assert_fit_matches_all_powers_oracle(*ergodic_family(kind, n, size, seed), horizon)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["metropolis", "banded"]),
        n=st.integers(min_value=2, max_value=30),
        size=st.integers(min_value=2, max_value=4),
        horizon=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_lazy_family_in_any_order_matches_all_powers_oracle(
        self, kind, n, size, horizon, seed, data
    ):
        order = data.draw(st.permutations(range(size)))
        assert_fit_matches_all_powers_oracle(*lazy_family(kind, n, seed, order), horizon)

    def test_rates_tied_up_to_the_roots_rounding_match_all_powers_oracle(self):
        # beta_4 == beta_2**2, yet beta_4**(1/4) rounds one ulp above beta_2**(1/2)
        assert_fit_matches_all_powers_oracle(*lazy_family("banded", 2, 162, [0, 1]), 4)

    @staticmethod
    def slow_last_rwm_family():
        """A 40-state ``rwm-grid`` family listed fastest first: the last member,
        variance 0.05, sets the family's coefficient at every power."""
        target = truncated_gaussian_target([[-3.0, 3.0]], m=40)
        P_list = [build_discrete_rwm(target, RwmParameter.from_scalar(v, 0.01, 10.0))
                  for v in (2.0, 1.0, 0.05)]
        return P_list, target.grid_distribution()

    def test_last_listed_member_sets_every_family_maximum(self, monkeypatch):
        P_list, pi = self.slow_last_rwm_family()
        horizon = 8
        (C, rho, beta), curves, beta_m = fit_ergodicity_constants_oracle(P_list, pi, horizon)
        # each member's powers as the fit takes them, one product at a time
        powers = [[Pk.copy() for Pk in kernels._powers(P, horizon)] for P in P_list]
        kept = [1, *range(horizon // 2 + 1, horizon + 1)]
        for m in kept:
            assert dobrushin_oracle(powers[-1][m - 1]) == beta_m[m]
            assert all(dobrushin_oracle(Pk[m - 1]) < beta_m[m] for Pk in powers[:-1])
        floors = []
        real = kernels._dobrushin_raw

        def spy(rows, work=None, floor=0.0):
            floors.append((rows.copy(), floor))
            return real(rows, work, floor)

        monkeypatch.setattr(kernels, "_dobrushin_raw", spy)
        consts = fit_ergodicity_constants(P_list, pi, horizon)
        assert (consts.C, consts.rho, consts.beta) == (C, rho, beta)
        assert np.array_equal(consts.curves, curves)
        # the slowest member is walked first, from a floor of 0, and every
        # later search starts from its coefficient at the same power
        first = floors[: len(kept)]
        assert all(np.array_equal(rows, powers[-1][m - 1]) and floor == 0.0
                   for (rows, floor), m in zip(first, kept))
        assert [floor for _, floor in floors[len(kept):]] == [beta_m[m] for m in kept] * 2

    def test_floored_members_at_high_powers_work_out_no_pair(self, monkeypatch):
        P_list, pi = self.slow_last_rwm_family()
        horizon = 8
        distances, searches = [], []
        real_tv, real_raw = kernels._row_tv, kernels._dobrushin_raw

        def tv_spy(a, b, out=None):
            distances.append(b.shape)
            return real_tv(a, b, out)

        def raw_spy(rows, work=None, floor=0.0):
            before = len(distances)
            beta = real_raw(rows, work, floor)
            searches.append((floor, distances[before:]))
            return beta

        monkeypatch.setattr(kernels, "_row_tv", tv_spy)
        monkeypatch.setattr(kernels, "_dobrushin_raw", raw_spy)
        consts = fit_ergodicity_constants(P_list, pi, horizon)
        expected, curves, _ = fit_ergodicity_constants_oracle(P_list, pi, horizon)
        assert (consts.C, consts.rho, consts.beta) == expected
        assert np.array_equal(consts.curves, curves)
        # each later member's searches at m = 5..8 (after its m = 1) start from
        # the slow member's coefficient and take only the distances to the mean
        # row: no seed row and no pair
        kept = 1 + horizon - horizon // 2
        later = searches[kept:]
        assert len(later) == 2 * kept
        for floor, work_done in later[1:kept] + later[kept + 1:]:
            assert 0.0 < floor < 1.0 and work_done == [(40,)]

    @pytest.mark.parametrize("horizon", [2, 3, 12, 13])
    def test_coefficients_only_of_powers_that_can_set_rho(self, monkeypatch, horizon):
        calls = []
        real = kernels._dobrushin_raw

        def spy(rows, work=None, floor=0.0):
            calls.append(rows.shape)
            return real(rows, work, floor)

        monkeypatch.setattr(kernels, "_dobrushin_raw", spy)
        P_list, pi = ergodic_family("metropolis", 6, 3, seed=5)
        fit_ergodicity_constants(P_list, pi, horizon)
        assert len(calls) == len(P_list) * (1 + horizon - horizon // 2)


def lazy_family(kind: str, n: int, seed: int, order):
    """Members ``(1 - lam) I + lam P`` of one ``ergodic_family`` kernel ``P``,
    which mix at speeds set by ``lam``, listed in ``order``, and ``pi``."""
    (P,), pi = ergodic_family(kind, n, 1, seed)
    lams = np.sort(np.random.default_rng(seed).uniform(0.05, 1.0, size=len(order)))
    return [StochasticMatrix((1.0 - lams[s]) * np.eye(n) + lams[s] * P.rows) for s in order], pi


def assert_fit_matches_all_powers_oracle(P_list, pi, horizon):
    """The fit's certificate is the all-powers oracle's, up to the rounding a
    skipped power's rate can carry; its curves and ``beta`` are the oracle's."""
    n = pi.n
    (C, rho, beta), curves, beta_m = fit_ergodicity_constants_oracle(P_list, pi, horizon)
    try:
        consts = fit_ergodicity_constants(P_list, pi, horizon)
    except NotSimultaneouslyErgodic:
        # every coefficient rounded to zero gives rho = 0 and C = 1, which
        # the curves refute; the oracle's certificate fails them too
        with pytest.raises(NotSimultaneouslyErgodic):
            ErgodicityConstants(C=C, rho=rho, beta=beta, curves=curves)
        return
    assert np.array_equal(consts.curves, curves)
    assert consts.beta == beta
    if (consts.C, consts.rho) == (C, rho):
        return
    # The oracle's minimum sits at a skipped power m.  The fit takes the
    # smallest positive kept rate, which exceeds it only by rounding.
    m = oracle_power(beta_m, curves)
    assert 1 < m <= horizon // 2
    kept = [1, *range(horizon // 2 + 1, horizon + 1)]
    assert consts.rho == min(beta_m[k] ** (1.0 / k) for k in kept if 0.0 < beta_m[k] < 1.0)
    assert consts.rho > rho
    # Either the doubling M of m that the fit keeps rounds to 0, a rate it
    # leaves out while a curve value is positive; or beta_M is within a few
    # n*eps of beta_m^(M/m), each power and coefficient off by rounding
    # (two-state and lazy-iid kernels, whose rates tie exactly, or
    # coefficients near the rounding floor), and where beta_M is at most
    # beta_m^(M/m) the two roots round apart.
    M = m
    while M <= horizon // 2:
        M *= 2
    slack = 64 * n * M * np.finfo(np.float64).eps
    assert curves.any() and beta_m[M] == 0.0 or beta_m[M] <= beta_m[m] ** (M // m) + slack


class TestErgodicityConstantsType:
    def test_rejects_rho_one(self):
        with pytest.raises(ValueError):
            ErgodicityConstants(C=1.0, rho=1.0, beta=1.0, curves=np.zeros((1, 4)))

    def test_rejects_small_C(self):
        with pytest.raises(ValueError):
            ErgodicityConstants(C=0.5, rho=0.5, beta=0.5, curves=np.zeros((1, 4)))

    def test_rejects_infinite_C(self):
        with pytest.raises(ValueError):
            ErgodicityConstants(C=np.inf, rho=0.5, beta=0.5, curves=np.zeros((1, 4)))

    def test_curves_give_horizon_and_are_read_only(self):
        consts = ErgodicityConstants(C=1.0, rho=0.5, beta=0.5, curves=0.5 ** np.arange(1, 5)[None])
        assert consts.horizon == 4
        with pytest.raises(ValueError):
            consts.curves[0, 0] = 0.0

    @pytest.mark.parametrize("shape", [(4,), (1, 0), (0, 4)])
    def test_rejects_curves_that_are_not_a_table(self, shape):
        with pytest.raises(DimensionMismatch):
            ErgodicityConstants(C=1.0, rho=0.5, beta=0.5, curves=np.zeros(shape))

    @pytest.mark.parametrize("k", [1, 4])
    def test_curve_above_bound_is_rejected(self, k):
        ks = np.arange(1, 5)
        curves = np.vstack([np.zeros(4), 2.0 * 0.5**ks])
        curves[1, k - 1] += 2 * kernels.BOUND_TOL
        # within BOUND_TOL of the bound is accepted; above it is not
        ok = curves.copy()
        ok[1, k - 1] -= 1.5 * kernels.BOUND_TOL
        assert ErgodicityConstants(C=2.0, rho=0.5, beta=0.5, curves=ok).horizon == 4
        with pytest.raises(NotSimultaneouslyErgodic, match="certificate violated by"):
            ErgodicityConstants(C=2.0, rho=0.5, beta=0.5, curves=curves)

    def test_nan_curve_is_rejected(self):
        with pytest.raises(NotSimultaneouslyErgodic):
            ErgodicityConstants(C=1.0, rho=0.5, beta=0.5, curves=[[0.1, np.nan]])


class TestFileFormats:
    def test_kernel_json_round_trip(self, tmp_path):
        fam = cyclic_pair()
        path = tmp_path / "kernel.json"
        path.write_text(kernel_json_text(fam.kernels[0], fam.pi))
        P, pi = read_kernel_json(path)
        assert np.array_equal(P.rows, fam.kernels[0].rows)
        assert np.array_equal(pi.weights, fam.pi.weights)
        payload = json.loads(path.read_text())
        assert set(payload) == {"n", "rows", "pi"}
