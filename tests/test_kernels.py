import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    random_metropolis_family,
    random_positive_kernel,
)
from amcmc.kernels import (
    Distribution,
    ErgodicityConstants,
    StochasticMatrix,
    dobrushin_coefficient,
    fit_ergodicity_constants,
    kernel_apply,
    max_tv_between_kernels,
    read_kernel_json,
    stationary_distribution,
    sup_tv_to_pi_curve,
    tv_distance,
    write_kernel_json,
)


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
    Metropolis kernels for a Dirichlet ``pi``; ``lazy-iid`` is ``size``
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


class TestTvDistance:
    def test_identical_measures(self):
        mu = Distribution([0.5, 0.25, 0.25])
        assert tv_distance(mu, mu) == 0.0

    def test_disjoint_supports(self):
        assert tv_distance(Distribution([1, 0, 0]), Distribution([0, 1, 0])) == 1.0

    def test_hand_checked_value(self):
        # half the L1 gap: 0.5 * (0.25 + 0.25 + 0) = 0.25
        mu = Distribution([0.5, 0.25, 0.25])
        nu = Distribution([0.25, 0.5, 0.25])
        assert tv_distance(mu, nu) == pytest.approx(0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tv_distance(Distribution([1.0]), Distribution([0.5, 0.5]))

    def test_metric_properties_on_random_triples(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(50):
            a, b, c = (rng.dirichlet(np.ones(6)) for _ in range(3))
            assert tv_distance(a, b) == tv_distance(b, a)
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12
            assert 0.0 <= tv_distance(a, b) <= 1.0


class TestMaxTvBetweenKernels:
    def test_identical_kernels(self):
        P = cyclic_pair().kernels[0]
        assert max_tv_between_kernels(P, P) == 0.0

    def test_cyclic_pair_rows_disjoint(self):
        fam = cyclic_pair()
        # brute-force row oracle
        expected = max(
            tv_distance(fam.kernels[0].rows[x], fam.kernels[1].rows[x]) for x in range(3)
        )
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


KERNEL_KINDS = ("dense", "sparse", "lazy-cycle", "permutation", "equal-row", "near-equal-row")


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

    def test_equal_rows(self):
        pi = Distribution([0.5, 0.3, 0.2])
        assert dobrushin_coefficient(iid_family(pi).kernels[0]) == 0.0

    def test_identity_kernel(self):
        assert dobrushin_coefficient(StochasticMatrix(np.eye(3))) == 1.0

    def test_cyclic_forward_brute_force(self):
        P = cyclic_pair().kernels[0]
        pairs = [
            tv_distance(P.rows[x], P.rows[y]) for x in range(3) for y in range(x + 1, 3)
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


class TestKernelApply:
    def test_constant_function(self):
        P = cyclic_pair().kernels[0]
        assert np.allclose(kernel_apply(P, [3.0, 3.0, 3.0]), 3.0, atol=1e-15)

    def test_identity_kernel(self):
        P = StochasticMatrix(np.eye(3))
        f = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(kernel_apply(P, f), f)

    def test_cyclic_forward_indicator(self):
        # (P f)(x) reads the transition probability into state 0
        P = cyclic_pair().kernels[0]
        assert kernel_apply(P, [1.0, 0.0, 0.0]).tolist() == [0.5, 0.0, 1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_apply(cyclic_pair().kernels[0], [1.0, 2.0])


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
    rho, _ = min((beta_m[m] ** (1.0 / m), m) for m in range(1, horizon + 1) if beta_m[m] < 1.0)
    curves = np.empty((len(P_list), horizon))
    for s, P in enumerate(P_list):
        Pk = P.rows.copy()
        for k in range(1, horizon + 1):
            if k > 1:
                Pk = Pk @ P.rows
            curves[s, k - 1] = 0.5 * np.abs(Pk - pi.weights[None, :]).sum(axis=1).max()
    C = 1.0
    if rho > 0.0:
        ks = np.arange(1, horizon + 1)
        for e in curves:
            C = max(C, float(np.max(e / rho**ks)))
    return (C, float(rho), float(beta)), curves, beta_m


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
    @given(
        kind=st.sampled_from(["positive", "metropolis", "lazy-iid"]),
        n=st.integers(min_value=2, max_value=30),
        size=st.integers(min_value=1, max_value=3),
        horizon=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_certificate_as_all_powers_oracle(self, kind, n, size, horizon, seed):
        P_list, pi = ergodic_family(kind, n, size, seed)
        (C, rho, beta), curves, beta_m = fit_ergodicity_constants_oracle(P_list, pi, horizon)
        try:
            consts = fit_ergodicity_constants(P_list, pi, horizon)
        except NotSimultaneouslyErgodic:
            # a coefficient rounded to zero gives rho = 0 and C = 1, which the
            # curves refute; the oracle's certificate fails them too
            with pytest.raises(NotSimultaneouslyErgodic):
                ErgodicityConstants(C=C, rho=rho, beta=beta, curves=curves)
            return
        assert np.array_equal(consts.curves, curves)
        assert consts.beta == beta
        if (consts.C, consts.rho) == (C, rho):
            return
        # The oracle's minimum sits at a skipped power m, and the doubling M of
        # m that the fit keeps has a larger rate: the computed coefficients
        # break beta_M <= beta_m^(M/m).  That may only be rounding, each power
        # and coefficient off by a few n*eps: two-state and lazy-iid kernels,
        # whose rates tie exactly, or coefficients near the rounding floor.
        m = min(range(1, horizon + 1), key=lambda k: (beta_m[k] ** (1.0 / k), k))
        assert 1 < m <= horizon // 2
        M = m
        while M <= horizon // 2:
            M *= 2
        slack = 64 * n * M * np.finfo(np.float64).eps
        assert beta_m[m] ** (M // m) < beta_m[M] <= beta_m[m] ** (M // m) + slack
        assert consts.rho > rho

    @pytest.mark.parametrize("horizon", [2, 3, 12, 13])
    def test_coefficients_only_of_powers_that_can_set_rho(self, monkeypatch, horizon):
        calls = []
        real = kernels._dobrushin_raw

        def spy(rows, work=None):
            calls.append(rows.shape)
            return real(rows, work)

        monkeypatch.setattr(kernels, "_dobrushin_raw", spy)
        P_list, pi = ergodic_family("metropolis", 6, 3, seed=5)
        fit_ergodicity_constants(P_list, pi, horizon)
        assert len(calls) == len(P_list) * (1 + horizon - horizon // 2)


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
        write_kernel_json(path, fam.kernels[0], fam.pi)
        P, pi = read_kernel_json(path)
        assert np.array_equal(P.rows, fam.kernels[0].rows)
        assert np.array_equal(pi.weights, fam.pi.weights)
        payload = json.loads(path.read_text())
        assert set(payload) == {"n", "rows", "pi"}
