import csv
import dataclasses
import hashlib
import io
import itertools
import math
import warnings
from bisect import bisect_right
from functools import partial
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amcmc.adaptation import (
    ConstantScheme,
    MeanTrackingScheme,
    RareCycleScheme,
    RateTargetScheme,
    ScheduleScheme,
    bernoulli_log_schedule,
    converging_index_schedule,
    log_increment_schedule,
)
from amcmc import ledger
from amcmc.cli import build_family
from amcmc.errors import DobrushinViolation, NotInvariant, SchemeEscape
from amcmc.families import (
    KernelFamily,
    cyclic_pair,
    iid_family,
    mixture_family,
    random_metropolis_family,
    smoothed_family,
)
from amcmc.kernels import (
    STATIONARY_TOL,
    Distribution,
    StochasticMatrix,
    _strongly_connected,
    fit_ergodicity_constants,
    invariance_residual,
    max_tv_between_kernels,
    stationary_distribution,
)
from amcmc.ledger import (
    _CSV_BLOCK,
    _KS_TAIL_FROM,
    _STREAM_BLOCK,
    _SUB_BLOCK,
    DecompositionLedger,
    Trajectory,
    _kolmogorov_cdf,
    _smirnov_tail,
    _uses_table,
    an_bound_check,
    chain_generator,
    clt_study,
    decompose,
    ensemble_schedule_run,
    ks_normal,
    lln_study,
    martingale_check,
    poisson_table,
    run_adaptive_chain,
    write_ledger_csv,
)
from amcmc.poisson import TestFunction, clt_variance, solve_poisson_exact
from conftest import traced_peak

PI3 = Distribution([0.5, 0.25, 0.25])


def grid_family(states=5, members=8, seed=19):
    """Well-mixing parameter-grid family used across the scheme tests."""
    pi = Distribution(np.arange(1, states + 1, dtype=float) / (states * (states + 1) / 2))
    pair = random_metropolis_family(pi, 2, seed=seed)
    return mixture_family(pair.kernels[0], pair.kernels[1], pi, members)


def scheme_zoo(family):
    stat = np.zeros(family.n_states)
    stat[0] = 1.0
    return {
        "constant": ConstantScheme(),
        "mean-tracking": MeanTrackingScheme(family, stat),
        "rate-target": RateTargetScheme(family, target=0.234, c=1.0),
        "rare-cycle": RareCycleScheme(family, lambda: log_increment_schedule(2.0, 0.1)),
    }


class TestRunAdaptiveChain:
    def test_zero_steps(self):
        fam = cyclic_pair()
        traj = run_adaptive_chain(fam, ConstantScheme(), x0=2, s0=1, n=0, seed=5)
        assert traj.X.tolist() == [2]
        assert traj.S.tolist() == [1]

    def test_bit_reproducible(self):
        fam = grid_family()
        schemes = scheme_zoo(fam)
        a = run_adaptive_chain(fam, scheme_zoo(fam)["rate-target"], 0, 0, 500, seed=11)
        b = run_adaptive_chain(fam, schemes["rate-target"], 0, 0, 500, seed=11)
        c = run_adaptive_chain(fam, scheme_zoo(fam)["rate-target"], 0, 0, 500, seed=12)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.S, b.S)
        assert not np.array_equal(a.X, c.X)

    def test_constant_scheme_occupation_converges(self):
        fam = cyclic_pair()
        phi = TestFunction.indicator(0, fam.pi)
        sigma2 = clt_variance(fam.kernels[0], fam.pi, phi)
        n = 100_000
        traj = run_adaptive_chain(fam, ConstantScheme(), x0=0, s0=0, n=n, seed=23)
        avg = phi.values[traj.X[1:]].mean()
        assert abs(avg - 0.5) <= 3.0 * np.sqrt(sigma2 / n)

    def test_alternation_pins_the_orbit(self):
        fam = cyclic_pair()
        traj = run_adaptive_chain(
            fam, ScheduleScheme(np.arange(21) % 2), x0=1, s0=0, n=20, seed=0
        )
        assert traj.X[:5].tolist() == [1, 2, 1, 2, 1]

    @pytest.mark.parametrize("indices, where", [([0, 0, 99], "index 99 outside family at step 2"),
                                                ([-1], "start index -1 outside family")])
    def test_scheme_escape(self, indices, where):
        with pytest.raises(SchemeEscape, match=where):
            run_adaptive_chain(cyclic_pair(), ScheduleScheme(indices), x0=0, s0=0, n=3, seed=1)

    @pytest.mark.parametrize("u", [0.0, 0.5, 0.95, 1.0 - 2.0**-53])
    def test_cumsum_past_one_before_the_last_entry(self, monkeypatch, u):
        # row x puts 0.33, 0.56, 0.11 on x, x + 1, x + 2 mod 4: row 0's cumsum
        # is 1.0000000000000002 from column 2 on, until the pinned 1.0
        P = circulant_kernel(4, ROUNDOFF_WEIGHTS, (0, 1, 2))
        cums = np.cumsum(P.rows, axis=1)
        assert cums[0, 2] > 1.0
        fam = KernelFamily(kernels=(P,), pi=Distribution(np.full(4, 0.25)))

        class FixedStream:
            def __init__(self, seed):
                self.random = lambda: u

        monkeypatch.setattr(ledger, "ChainStream", FixedStream)
        traj = run_adaptive_chain(fam, ConstantScheme(), x0=0, s0=0, n=12, seed=1)
        # each step lands on the first column whose pinned cumsum exceeds u
        cums[:, -1] = 1.0
        expected = [0]
        for _ in range(12):
            expected.append(int(np.argmax(cums[expected[-1]] > u)))
        assert traj.X.tolist() == expected
        if u >= cums[0, 1]:
            assert expected[1] == 2  # never column 3, which row 0 cannot reach

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="n=-5"):
            run_adaptive_chain(cyclic_pair(), ConstantScheme(), x0=0, s0=0, n=-5, seed=1)

    @pytest.mark.parametrize(
        "name, x_digest, s_digest",
        [
            ("constant", "6ba2921af1e18b79bef8a0840f29bdb65d38754d4d14b1fd30b3c9d039b59ed6",
             "97a23d3ef44f44ccdf42194a492964c61cbb6fc3b942727e67123fcc3e3b9a58"),
            ("rate", "7c9d5df041475a096752d9fd0280daf05ab641a70df868bfe99dc3649786e594",
             "e7d05d7d87e0e0caf5a6df2d3ed64c967275963b1d27b726929c1dfddfd02f47"),
            ("mean", "1b6eeab2327838c78040b5e1b20ff0278eeba65764e39b5fb5650a6c0a82501a",
             "789065a0b6a42020273db0ad77bdb4f92437b13a505a26348ad2c57f971cf1d9"),
            ("rare-bernoulli", "57671981d03f8cfabaef31852090666f968d40f008416003d6681f74333ee5a7",
             "5c2c086d6cfd29d5f4665156fbc11a588ed179629e2897fce8179ef0e1e7755e"),
            ("rare-deterministic",
             "1d6f4060738f9fa992df837033c41725f93a7348eb564f73385d95749c339f4c",
             "2846f5c927947707b377aaec1d9a9a7a35cc8315bf85755f55a71cf9156edb8d"),
        ],
    )
    def test_trajectories_keep_their_bits(self, name, x_digest, s_digest):
        """sha256 of ``X`` and ``S`` on a 30-state rwm-grid family of 8
        members, pinned so that any change to a scheme's arithmetic, its
        draws or the chain driver shows up bit for bit."""
        fam = build_family({
            "kind": "rwm-grid", "a": 0.01, "b": 10.0,
            "sigmas": [0.1, 0.17, 0.3, 0.5, 0.8, 1.3, 2.0, 3.0],
            "target": {"d": 1, "bounds": [[-3.0, 3.0]], "m": 30,
                       "density": {"kind": "truncated-gaussian"}},
        })
        scheme = {
            "constant": ConstantScheme,
            "rate": lambda: RateTargetScheme(fam),
            "mean": lambda: MeanTrackingScheme(fam, np.linspace(-3, 3, 30) ** 2),
            "rare-bernoulli": lambda: RareCycleScheme(fam, lambda: bernoulli_log_schedule(1.0, 0.1)),
            "rare-deterministic":
                lambda: RareCycleScheme(fam, lambda: log_increment_schedule(2.0, 0.1)),
        }[name]()
        traj = run_adaptive_chain(fam, scheme, x0=15, s0=3, n=4000, seed=2026)
        assert hashlib.sha256(traj.X.tobytes()).hexdigest() == x_digest
        assert hashlib.sha256(traj.S.tobytes()).hexdigest() == s_digest


class TestDecompose:
    def test_constant_scheme_has_zero_adaptation_term(self):
        fam = grid_family()
        phi = TestFunction.indicator(0, fam.pi)
        traj = run_adaptive_chain(fam, ConstantScheme(), 0, 3, 2000, seed=29)
        ledger = decompose(traj, fam, phi)
        assert np.abs(ledger.A).max() == 0.0
        assert np.all(ledger.D == 0.0)
        assert ledger.identity_residuals().max() <= 1e-9 * traj.n

    def test_single_step_identity_exact(self):
        fam = grid_family()
        phi = TestFunction.from_values(np.linspace(-1, 2, fam.n_states), fam.pi)
        for scheme in scheme_zoo(fam).values():
            traj = run_adaptive_chain(fam, scheme, 0, 0, 1, seed=31)
            ledger = decompose(traj, fam, phi)
            lhs = ledger.M[0] + ledger.A[0] + ledger.R[0]
            rhs = phi.values[traj.X[1]] - phi.mean_under_pi
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_identity_and_telescoping_for_all_schemes(self):
        fam = grid_family()
        phi = TestFunction.indicator(0, fam.pi)
        n = 10_000
        for name, scheme in scheme_zoo(fam).items():
            traj = run_adaptive_chain(fam, scheme, 0, 0, n, seed=37)
            ledger = decompose(traj, fam, phi)
            prefixes = np.arange(1, n + 1)
            assert np.all(ledger.identity_residuals() <= 1e-9 * prefixes), name
            assert ledger.telescope_residuals(traj).max() <= 1e-10, name

    def test_change_magnitudes_match_exact_tv(self):
        fam = grid_family()
        phi = TestFunction.indicator(0, fam.pi)
        traj = run_adaptive_chain(fam, scheme_zoo(fam)["rare-cycle"], 0, 0, 500, seed=41)
        ledger = decompose(traj, fam, phi)
        for k in range(traj.n):
            s_prev, s_next = int(traj.S[k]), int(traj.S[k + 1])
            if s_prev == s_next:
                assert ledger.D[k] == 0.0
            else:
                expected = max_tv_between_kernels(fam.kernel(s_next), fam.kernel(s_prev))
                assert ledger.D[k] == expected


class TestMartingaleCheck:
    def test_conditional_means_vanish(self):
        fam = grid_family()
        phi = TestFunction.indicator(1, fam.pi)
        for scheme in scheme_zoo(fam).values():
            traj = run_adaptive_chain(fam, scheme, 0, 0, 2000, seed=43)
            ledger = decompose(traj, fam, phi)
            report = martingale_check(traj, ledger, fam)
            assert report["max_abs_cond_mean"] <= 1e-10
            assert report["max_abs_cond_var_gap"] <= 1e-10

    def test_iid_kernel_conditional_variance_is_static_variance(self):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        traj = run_adaptive_chain(fam, ConstantScheme(), 0, 0, 200, seed=47)
        ledger = decompose(traj, fam, phi)
        assert np.abs(ledger.cond_var - 0.25).max() <= 1e-12

    def test_differences_bounded_by_certificate(self):
        fam = grid_family()
        consts = fit_ergodicity_constants(list(fam.kernels), fam.pi, horizon=24)
        phi = TestFunction.indicator(0, fam.pi)
        traj = run_adaptive_chain(fam, scheme_zoo(fam)["mean-tracking"], 0, 0, 5000, seed=53)
        ledger = decompose(traj, fam, phi)
        bound = 2.0 * consts.C / (1.0 - consts.rho) * phi.osc
        assert np.abs(ledger.Delta).max() <= bound + 1e-9


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, the order the lockstep ensemble adds in."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


FAMILY_KINDS = ("dense", "sparse", "lazy-cycle", "metropolis")
SCHEDULE_KINDS = ("constant", "cycle", "blocks", "random")


def random_family(kind: str, n_states: int, size: int, seed: int):
    """Random family; the first three kinds are doubly stochastic (uniform pi).

    ``sparse`` rows mix one to three permutations, so most entries are zero
    and the row cumsums have flat stretches; ``lazy-cycle`` is
    ``lazy * I + (1 - lazy) * shift``.
    """
    rng = np.random.default_rng(seed)
    if kind == "metropolis":
        pi = Distribution(rng.dirichlet(np.ones(n_states)))
        return random_metropolis_family(pi, size, seed=seed)
    pi = Distribution(np.full(n_states, 1.0 / n_states))
    eye = np.eye(n_states)
    mats = []
    for _ in range(size):
        if kind == "lazy-cycle":
            lazy = rng.uniform(0.0, 1.0)
            rows = lazy * eye + (1.0 - lazy) * np.roll(eye, 1, axis=1)
        else:
            count = n_states if kind == "dense" else int(rng.integers(1, 4))
            weights = rng.dirichlet(np.ones(count))
            rows = sum(w * eye[rng.permutation(n_states)] for w in weights)
        mats.append(StochasticMatrix(rows))
    return KernelFamily(kernels=tuple(mats), pi=pi)


def index_schedule(kind: str, size: int, n: int, rng) -> np.ndarray:
    k = np.arange(n + 1)
    if kind == "constant":
        return np.full(n + 1, int(rng.integers(size)), dtype=np.int64)
    if kind == "cycle":
        return k % size
    if kind == "blocks":
        return (k // int(rng.integers(1, 20))) % size
    return rng.integers(0, size, size=n + 1)


def reference_ledger(traj, fam, phi) -> dict:
    """The ledger step by step: one exact solve per index, a plain loop over
    ``k``, and the exact kernel change at every step whose index moves."""
    sols = {}
    for s in set(traj.S.tolist()):
        P = fam.kernel(s)
        g = solve_poisson_exact(P, fam.pi, phi).g
        sols[s] = (g, P.rows @ g, P.rows @ (g**2))
    out = {name: [] for name in ("Delta", "A", "R", "cond_var", "D")}
    a_sum = r_sum = 0.0
    for k in range(traj.n):
        s, s_next = int(traj.S[k]), int(traj.S[k + 1])
        x, x_next = int(traj.X[k]), int(traj.X[k + 1])
        g, Pg, Pg2 = sols[s]
        g_next, Pg_next, _ = sols[s_next]
        out["Delta"].append(g[x_next] - Pg[x])
        a_sum += g_next[x_next] - g[x_next]
        r_sum += Pg[x] - Pg_next[x_next]
        out["A"].append(a_sum)
        out["R"].append(r_sum)
        out["cond_var"].append(Pg2[x] - Pg[x] * Pg[x])
        moved = s != s_next
        out["D"].append(max_tv_between_kernels(fam.kernel(s_next), fam.kernel(s)) if moved else 0.0)
    return out


class TestDecomposeProperty:
    """Every ledger column equals the step-by-step reference bit for bit,
    on random irreducible families, observables and index sequences."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(("dense", "metropolis")),
        driver=st.sampled_from(SCHEDULE_KINDS + ("rare-cycle",)),
        n_states=st.integers(min_value=1, max_value=40),
        size=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_step_by_step_reference(self, kind, driver, n_states, size, n, seed):
        fam = random_family(kind, n_states, size, seed)
        assume(all(_strongly_connected(P.rows) for P in fam.kernels))
        rng = np.random.default_rng(seed)
        phi = TestFunction.from_values(rng.normal(size=n_states), fam.pi)
        x0 = int(rng.integers(n_states))
        if driver == "rare-cycle":
            scheme = RareCycleScheme(fam, lambda: bernoulli_log_schedule(1.0, 0.1))
        else:
            scheme = ScheduleScheme(index_schedule(driver, size, n, rng))
        traj = run_adaptive_chain(fam, scheme, x0, 0, n, seed)
        ledger = decompose(traj, fam, phi)
        ref = reference_ledger(traj, fam, phi)
        for name, values in ref.items():
            assert getattr(ledger, name).tolist() == values, name
        centered = math.fsum(phi.values[traj.X[1:]] - phi.mean_under_pi)
        assert abs(math.fsum([ledger.M[-1], ledger.A[-1], ledger.R[-1]]) - centered) <= 1e-9 * n
        assert martingale_check(traj, ledger, fam)["max_abs_cond_mean"] <= 1e-10


class TestEnsembleContract:
    def test_lockstep_matches_single_chain_bitwise(self):
        fam = grid_family()
        phi = TestFunction.indicator(0, fam.pi)
        n = 300
        indices = (np.arange(n + 1) // 7) % fam.size
        seeds = [101, 202, 303]
        seed_seqs = [np.random.SeedSequence(s) for s in seeds]
        sums, _, last = ensemble_schedule_run(fam, indices, phi, n, seed_seqs, x0=2)
        for i, s in enumerate(seeds):
            traj = run_adaptive_chain(fam, ScheduleScheme(indices), 2, int(indices[0]), n, s)
            assert phi.values[traj.X[1:]].sum() == sums[i]
            assert traj.X[-1] == last[i]

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(FAMILY_KINDS),
        schedule=st.sampled_from(SCHEDULE_KINDS),
        n_states=st.integers(min_value=1, max_value=90),
        size=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=0, max_value=300),
        # up to 40 replications puts 13 to 16 states on both sides of the
        # table path's compare budget, and more states always bisect
        reps=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_lockstep_matches_chain_on_random_families(
        self, kind, schedule, n_states, size, n, reps, seed
    ):
        fam = random_family(kind, n_states, size, seed)
        rng = np.random.default_rng(seed)
        indices = index_schedule(schedule, size, n, rng)
        phi = TestFunction.from_values(rng.normal(size=n_states), fam.pi)
        x0 = int(rng.integers(n_states))
        seed_seqs = [np.random.SeedSequence(entropy=seed, spawn_key=(r,)) for r in range(reps)]
        sums, _, last = ensemble_schedule_run(fam, indices, phi, n, seed_seqs, x0)
        for r, ss in enumerate(seed_seqs):
            traj = run_adaptive_chain(fam, ScheduleScheme(indices), x0, int(indices[0]), n, ss)
            assert sequential_sum(phi.values[traj.X[1:]]) == sums[r]
            assert traj.X[-1] == last[r]
        prefixes = sorted(set(rng.integers(1, n + 1, size=3).tolist())) if n else []
        check_against_reference_ensemble(fam, indices, phi, n, seed_seqs, x0, prefixes)


def circulant_kernel(n_states: int, weights, shifts) -> StochasticMatrix:
    """Doubly stochastic kernel whose row x puts ``weights[i]`` on ``x + shifts[i]`` mod n."""
    eye = np.eye(n_states)
    return StochasticMatrix(sum(w * np.roll(eye, d, axis=1) for w, d in zip(weights, shifts)))


# 0.33 + 0.56 + 0.11 rounds to 1.0000000000000002, so every row x <= n - 4 of
# this kernel has cumsums above 1.0 from column x + 2 up to the pinned 1.0
ROUNDOFF_WEIGHTS = (0.33, 0.56, 0.11)


class TestLockstepBisect:
    """Rows off the next-state table go through the lockstep binary search;
    the sizes straddle the table's state limit (16) and the halving
    boundaries.  Seven replications take the next-state table up to 16
    states, forty take it only up to 12."""

    @staticmethod
    def search_tables(n_states):
        """Flat cumsum tables of rows with runs of zero entries, of dyadic
        rows with exact ties and of rows roundoff lifts above 1.0."""
        rng = np.random.default_rng(n_states)
        weights = rng.dirichlet(np.ones(n_states)) * (rng.random(n_states) < 0.5)
        weights[0] += weights.sum() == 0.0
        sparse = circulant_kernel(n_states, weights / weights.sum(), range(n_states))
        lazy = circulant_kernel(n_states, (0.25, 0.75), (0, 1))
        roundoff = circulant_kernel(n_states, ROUNDOFF_WEIGHTS, (0, 1, 2))
        return [ledger._cum_table(P) for P in (sparse, lazy, roundoff)]

    @pytest.mark.parametrize("reps", [1, 7, 1000])
    def test_search_lands_where_bisect_right_does(self, reps):
        # every halving sequence up to 70 states, and 257 = 2**8 + 1; the
        # uniforms are 0, each entry of the row below 1.0 (ties) and the
        # largest double below 1.0
        for n_states in [*range(1, 71), 257]:
            flats = self.search_tables(n_states)
            advance = partial(ledger._bisection_steps, n_states,
                              *ledger._halving_probes(flats, n_states), np.zeros(n_states))
            for s, flat in enumerate(flats):
                cases = [
                    (x, u, bisect_right(row, u))
                    for x, row in enumerate(flat.reshape(n_states, n_states).tolist())
                    for u in {0.0, np.nextafter(1.0, 0.0), *(c for c in row if c < 1.0)}
                ]
                for i in range(0, len(cases), reps):
                    x, u, expected = (np.array(column) for column in zip(*cases[i : i + reps]))
                    states = advance(np.array([s]), u[None, :], x, np.zeros(len(x)))
                    assert states.tolist() == expected.tolist()

    @pytest.mark.parametrize("reps", [7, 40])
    @pytest.mark.parametrize("n_states", [1, 2, 15, 16, 17, 31, 32, 33, 64, 65, 257])
    def test_matches_single_chains_bitwise(self, n_states, reps):
        rng = np.random.default_rng(n_states)
        roundoff = circulant_kernel(n_states, ROUNDOFF_WEIGHTS, (0, 1, 2))
        lazy = circulant_kernel(n_states, (0.25, 0.75), (0, 1))
        dense = circulant_kernel(n_states, rng.dirichlet(np.ones(n_states)), range(n_states))
        if n_states >= 4:
            assert np.cumsum(roundoff.rows, axis=1)[:, -2].max() > 1.0
        fam = KernelFamily(
            kernels=(roundoff, lazy, dense), pi=Distribution(np.full(n_states, 1.0 / n_states))
        )
        phi = TestFunction.from_values(rng.normal(size=n_states), fam.pi)
        n = 200
        indices = (np.arange(n + 1) // 5) % fam.size
        prefixes = [1, 37, n]
        x0 = n_states - 1
        seed_seqs = [np.random.SeedSequence(entropy=n_states, spawn_key=(r,)) for r in range(reps)]
        sums, recorded, last = ensemble_schedule_run(
            fam, indices, phi, n, seed_seqs, x0, record_prefixes=prefixes
        )
        for r, ss in enumerate(seed_seqs):
            X = run_adaptive_chain(fam, ScheduleScheme(indices), x0, int(indices[0]), n, ss).X
            assert sequential_sum(phi.values[X[1:]]) == sums[r]
            for i, k in enumerate(prefixes):
                assert sequential_sum(phi.values[X[1 : k + 1]]) == recorded[i, r]
            assert X[-1] == last[r]

    def test_samplers_agree_on_a_row_with_a_negative_entry(self, monkeypatch):
        # StochasticMatrix admits entries down to -1e-12, so row 0's cumsum
        # dips below 0.5 at column 1; the table's running maximum lifts it
        P = StochasticMatrix([[0.5, -1e-13, 0.5 + 1e-13], [1 / 3] * 3, [1 / 3] * 3])
        fam = KernelFamily(kernels=(P,), pi=stationary_distribution(P))
        flat = ledger._cum_table(P)
        assert flat[:3].tolist() == [0.5, 0.5, 1.0]
        u = 0.49999999999995
        assert np.cumsum(P.rows[0])[1] < u < 0.5

        class FixedStream:
            def __init__(self, seed):
                self.random = lambda: u

        monkeypatch.setattr(ledger, "ChainStream", FixedStream)
        chain = run_adaptive_chain(fam, ConstantScheme(), x0=0, s0=0, n=1, seed=1).X[1]
        halving = ledger._bisection_steps(3, *ledger._halving_probes([flat], 3), np.zeros(3),
                                          np.array([0]), np.array([[u]]), np.array([0]),
                                          np.zeros(1))
        by_column = flat.reshape(1, 3, 3).transpose(2, 0, 1)
        table = ledger._table_steps(by_column, np.empty((1, 3, 1), dtype=np.int64),
                                    np.empty((1, 1), dtype=np.int64), np.zeros(3),
                                    np.array([0]), np.array([[u]]), np.array([0]), np.zeros(1))
        assert chain == halving[0] == table[0] == 0

    @pytest.mark.parametrize("n_states,reps,table", [(3, 32, True), (400, 1000, False)])
    def test_benchmark_shapes_take_their_paths(self, n_states, reps, table):
        # lln's 32 chains on 3 states gather from a table; the clt ensemble
        # of 1000 replications on 400 states bisects
        assert _uses_table(n_states, reps) is table

    def test_start_outside_state_space_rejected(self):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        with pytest.raises(ValueError, match="x0"):
            ensemble_schedule_run(fam, np.zeros(3, dtype=np.int64), phi, 2,
                                  [np.random.SeedSequence(1)], x0=3)

    @pytest.mark.parametrize("length", [5, 9])
    def test_schedule_shorter_than_the_run_rejected(self, length):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        with pytest.raises(ValueError, match="indices must cover steps 0.."):
            ensemble_schedule_run(fam, np.zeros(length, dtype=np.int64), phi, 10,
                                  [np.random.SeedSequence(1)], x0=0)

    @pytest.mark.parametrize("prefixes", [[0, 5], [2, 2], [3, 2], [11], [-1]])
    def test_record_prefixes_must_increase_within_1_to_n(self, prefixes):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        with pytest.raises(ValueError, match="record_prefixes"):
            ensemble_schedule_run(fam, np.zeros(11, dtype=np.int64), phi, 10,
                                  [np.random.SeedSequence(1)], x0=0, record_prefixes=prefixes)


def reference_steps(family, scheme, x0, s0, seed):
    """Reference chain driver: every table copied into nested lists, one
    scalar ``rng.random()`` per draw.  Yields ``(X_k, S_k)`` for k = 0, 1, ..."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    cums = []
    for P in family.kernels:
        cum = np.cumsum(P.rows, axis=1)
        cum[:, -1] = 1.0
        cums.append(cum.tolist())
    indices = scheme.run(s0, x0, rng)
    x, s = x0, int(next(indices))
    while True:
        yield x, s
        u = rng.random()
        x = min(bisect_right(cums[s][x], u), family.n_states - 1)
        s = int(indices.send(x))


def reference_chain(family, scheme, x0, s0, n, seed):
    """The first ``n`` steps of :func:`reference_steps` as ``(X, S)`` arrays."""
    X, S = zip(*itertools.islice(reference_steps(family, scheme, x0, s0, seed), n + 1))
    return np.array(X, dtype=np.int64), np.array(S, dtype=np.int64)


ORACLE_SCHEMES = ("constant", "schedule", "mean", "rate", "rare-bernoulli", "rare-log")


def oracle_scheme(name: str, family, n: int, rng):
    """A fresh scheme of kind ``name``; ``family`` must carry a parameter grid."""
    if name == "constant":
        return ConstantScheme()
    if name == "schedule":
        return ScheduleScheme(index_schedule("random", family.size, n, rng))
    if name == "mean":
        return MeanTrackingScheme(family, rng.uniform(size=family.n_states))
    if name == "rate":
        return RateTargetScheme(family, target=0.234, c=1.0)
    # a Bernoulli schedule draws after each transition uniform; log-increment draws nothing
    make = bernoulli_log_schedule if name == "rare-bernoulli" else log_increment_schedule
    return RareCycleScheme(family, lambda: make(1.0, 0.1))


def gridded(family):
    return dataclasses.replace(family, params=tuple(np.linspace(0.0, 1.0, family.size)))


# every block edge of the drivers' stream reads
BLOCK_EDGES = (_STREAM_BLOCK - 1, _STREAM_BLOCK, _STREAM_BLOCK + 1, 2 * _STREAM_BLOCK + 1)


class TestChainOracle:
    """The driver against the reference driver, bit for bit."""

    @staticmethod
    def check(family, name, x0, s0, n, seed):
        scheme_rng = np.random.default_rng(seed)
        expected = reference_chain(family, oracle_scheme(name, family, n, scheme_rng), x0, s0, n, seed)
        scheme_rng = np.random.default_rng(seed)
        traj = run_adaptive_chain(family, oracle_scheme(name, family, n, scheme_rng), x0, s0, n, seed)
        assert traj.X.dtype == traj.S.dtype == np.int64
        assert traj.X.tolist() == expected[0].tolist()
        assert traj.S.tolist() == expected[1].tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(FAMILY_KINDS),
        name=st.sampled_from(ORACLE_SCHEMES),
        n_states=st.integers(min_value=1, max_value=90),
        size=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_reference_chain(self, kind, name, n_states, size, n, seed):
        fam = gridded(random_family(kind, n_states, size, seed))
        rng = np.random.default_rng(seed + 1)
        self.check(fam, name, int(rng.integers(n_states)), int(rng.integers(size)), n, seed)

    @pytest.mark.parametrize("name", ["rare-bernoulli", "mean"])
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_block_edges(self, name, n):
        fam = gridded(random_family("sparse", 7, 3, seed=n))
        self.check(fam, name, 6, 1, n, np.random.SeedSequence(entropy=n, spawn_key=(2,)))

    @pytest.mark.parametrize("name", ORACLE_SCHEMES)
    def test_one_scheme_drives_two_chains_at_once(self, name):
        """Each chain's state lives in the generator its scheme starts, so
        two chains of one scheme object, stepped alternately, each keep the
        trajectory they have alone."""
        fam = gridded(random_family("metropolis", 9, 4, seed=31))
        n = 400
        scheme = oracle_scheme(name, fam, n, np.random.default_rng(31))
        starts = [(0, 1, 41), (8, 3, 42)]
        steps = zip(*(reference_steps(fam, scheme, *start) for start in starts))
        both = list(itertools.islice(steps, n + 1))
        for i, (x0, s0, seed) in enumerate(starts):
            solo = run_adaptive_chain(fam, scheme, x0, s0, n, seed)
            assert [step[i] for step in both] == list(zip(solo.X.tolist(), solo.S.tolist()))
            # every kind but constant changes its index on this family
            assert len(set(solo.S.tolist())) > (name != "constant")


def reference_ensemble(family, indices, phi, n, seed_seqs, x0, prefixes):
    """Per replication, the reference chain summed left to right: ``phi``
    sums, the sums at ``prefixes``, and the last state."""
    sums, recorded, last = [], [], []
    for ss in seed_seqs:
        X, _ = reference_chain(family, ScheduleScheme(indices), x0, int(indices[0]), n, ss)
        total = 0.0
        at = []
        for k in range(1, n + 1):
            total += phi.values[X[k]]
            if k in prefixes:
                at.append(total)
        sums.append(total)
        recorded.append(at)
        last.append(int(X[-1]))
    return sums, np.array(recorded).T.tolist(), last


def check_against_reference_ensemble(family, indices, phi, n, seed_seqs, x0, prefixes):
    sums, recorded, last = ensemble_schedule_run(
        family, indices, phi, n, seed_seqs, x0, record_prefixes=prefixes
    )
    expected = reference_ensemble(family, indices, phi, n, seed_seqs, x0, prefixes)
    assert sums.tolist() == expected[0]
    assert (recorded.tolist() if prefixes else []) == expected[1]
    assert last.tolist() == expected[2]


class TestEnsembleOracle:
    """The lockstep ensemble against the reference chain across the stream's
    block edges; the random-family property is in TestEnsembleContract."""

    @staticmethod
    def check(n):
        fam = grid_family(states=6, members=3)
        phi = TestFunction.from_values(np.random.default_rng(n).normal(size=6), fam.pi)
        indices = (np.arange(n + 1) // 3) % fam.size
        edges = {1, _SUB_BLOCK - 1, _SUB_BLOCK, _SUB_BLOCK + 1, 2 * _SUB_BLOCK, 2 * _SUB_BLOCK + 1,
                 _STREAM_BLOCK - 1, _STREAM_BLOCK, _STREAM_BLOCK + 1, 2 * _STREAM_BLOCK, n}
        prefixes = sorted(k for k in edges if k <= n)
        seed_seqs = [np.random.SeedSequence(entropy=n, spawn_key=(r,)) for r in range(3)]
        check_against_reference_ensemble(fam, indices, phi, n, seed_seqs, 5, prefixes)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_block_edges(self, n):
        self.check(n)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_block_edges_with_one_sub_block_per_refill(self, n, monkeypatch):
        # a budget of 3 * _SUB_BLOCK doubles gives the 3 replications
        # _SUB_BLOCK-row blocks, refilled at steps 1, _SUB_BLOCK + 1, ...
        monkeypatch.setattr(ledger, "_U_BUDGET", 3 * _SUB_BLOCK)
        self.check(n)


class TestDriverMemory:
    """The drivers read the cumsum tables in place and hold one block of
    uniforms, not a copy of the family or the whole stream."""

    def test_chain_peak_below_twice_the_tables(self):
        # a constant chain builds the one member table it reads
        fam = random_family("sparse", 200, 8, seed=3)
        peak = traced_peak(lambda: run_adaptive_chain(fam, ConstantScheme(), 0, 0, 100, 1))
        assert peak < 2 * 200**2 * 8

    def test_ensemble_peak_below_the_whole_stream(self):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        n, reps = 20000, 8
        indices = np.zeros(n + 1, dtype=np.int64)
        seed_seqs = [np.random.SeedSequence(r) for r in range(reps)]
        peak = traced_peak(lambda: ensemble_schedule_run(fam, indices, phi, n, seed_seqs, 0))
        assert peak < n * reps * 8

    def test_ensemble_block_sized_from_the_replications(self):
        # 4096 rows of uniforms would take 64 MB at R = 2048
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        n, reps = 4096, 2048
        indices = np.zeros(n + 1, dtype=np.int64)
        seed_seqs = [np.random.SeedSequence(r) for r in range(reps)]
        peak = traced_peak(lambda: ensemble_schedule_run(fam, indices, phi, n, seed_seqs, 0))
        assert peak < 4 * ledger._U_BUDGET * 8

    def test_next_state_table_fits_the_uniform_budget(self):
        # 2 states take the table path up to 3000 replications; its table,
        # visited states and compares fit _U_BUDGET doubles beside the block
        # of uniforms, where 256 steps of them took 22 MB
        fam = iid_family(Distribution([0.5, 0.5]))
        phi = TestFunction.indicator(0, fam.pi)
        n, reps = 1000, 3000
        assert _uses_table(2, reps)
        indices = np.zeros(n + 1, dtype=np.int64)
        seed_seqs = [np.random.SeedSequence(r) for r in range(reps)]
        peak = traced_peak(lambda: ensemble_schedule_run(fam, indices, phi, n, seed_seqs, 0))
        uniforms = _SUB_BLOCK * reps * 8
        assert peak < uniforms + 3 * ledger._U_BUDGET * 8

    # lln's 32 chains on 3 states keep whole sub-blocks
    @pytest.mark.parametrize("n_states, reps, sub", [(2, 3000, 16), (4, 500, 64), (16, 25, 256),
                                                      (3, 32, _SUB_BLOCK)])
    def test_table_sub_blocks_keep_the_bits(self, monkeypatch, n_states, reps, sub):
        # a power of two of steps divides the uniform block's rows, and the
        # states and sums do not depend on how the steps are grouped
        assert _uses_table(n_states, reps)
        assert ledger._table_sub_block(n_states, reps) == sub
        fam = grid_family(states=n_states, members=3)
        phi = TestFunction.from_values(np.random.default_rng(n_states).normal(size=n_states),
                                       fam.pi)
        n = 2 * _SUB_BLOCK + 5
        indices = (np.arange(n + 1) // 5) % fam.size
        seed_seqs = [np.random.SeedSequence(entropy=7, spawn_key=(r,)) for r in range(reps)]
        prefixes = [1, sub - 1, sub, sub + 1, _SUB_BLOCK + 3, n]
        run = ensemble_schedule_run(fam, indices, phi, n, seed_seqs, 0, prefixes)
        monkeypatch.setattr(ledger, "_table_sub_block", lambda n_states, R: _SUB_BLOCK)
        whole = ensemble_schedule_run(fam, indices, phi, n, seed_seqs, 0, prefixes)
        for a, b in zip(run, whole):
            assert np.array_equal(a, b)


class TestIndexOutsideFamily:
    """A NumPy gather wraps an index of -1 to the last member, so every entry
    point checks the indices before it solves or steps."""

    @staticmethod
    def setup(bad):
        fam = smoothed_family(cyclic_pair(), 0.2)
        indices = np.zeros(21, dtype=np.int64)
        indices[7] = fam.size if bad == "size" else -1
        return fam, TestFunction.indicator(0, fam.pi), indices

    @pytest.mark.parametrize("bad", ["minus-one", "size"])
    def test_decompose_of_hand_built_trajectory(self, bad):
        fam, phi, indices = self.setup(bad)
        traj = Trajectory(X=np.zeros(21, dtype=np.int64), S=indices, n=20)
        with pytest.raises(SchemeEscape, match="outside family"):
            decompose(traj, fam, phi)

    @pytest.mark.parametrize("bad", ["minus-one", "size"])
    def test_clt_study(self, bad):
        fam, phi, indices = self.setup(bad)
        with pytest.raises(SchemeEscape, match="outside family"):
            clt_study(fam, ScheduleScheme(indices), phi, 20, 4, seed=1)
        with pytest.raises(SchemeEscape, match="outside family"):
            clt_study(fam, ScheduleScheme(indices[::-1]), phi, 20, 4, seed=1)

    @pytest.mark.parametrize("bad", ["minus-one", "size"])
    def test_lln_study(self, bad):
        fam, phi, indices = self.setup(bad)
        with pytest.raises(SchemeEscape, match="outside family"):
            lln_study(fam, ScheduleScheme(indices), phi, n_grid=[10, 20], seeds=[1, 2])

    @pytest.mark.parametrize("bad", ["minus-one", "size"])
    def test_an_bound_check(self, bad):
        fam, phi, indices = self.setup(bad)
        with pytest.raises(SchemeEscape, match="outside family"):
            an_bound_check(indices, fam, phi, 20)

    def test_table_solves_only_the_given_indices(self):
        fam = grid_family()
        phi = TestFunction.indicator(0, fam.pi)
        table = poisson_table(fam, phi, [3, 1, 3])
        for arr in (table.g, table.Pg, table.Pg2):
            assert arr.shape == (fam.size, fam.n_states)
            assert np.isnan(np.delete(arr, [1, 3], axis=0)).all()
            assert np.isfinite(arr[[1, 3]]).all()


class TestLlnStudy:
    def test_iid_kernel_root_n_decay(self):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        study = lln_study(
            fam,
            ScheduleScheme(np.zeros(100_001, dtype=np.int64)),
            phi,
            n_grid=[1_000, 10_000, 100_000],
            seeds=list(range(32)),
        )
        assert -0.6 <= study["slope"] <= -0.4
        assert study["medians"][-1] < study["medians"][0]

    def test_counterexample_error_pinned(self):
        fam = cyclic_pair()
        phi = TestFunction.indicator(0, fam.pi)
        study = lln_study(
            fam,
            ScheduleScheme(np.arange(10_001) % 2),
            phi,
            n_grid=[100, 1_000, 10_000],
            seeds=[1, 2, 3, 4],
            x0=1,
        )
        assert all(m == 0.5 for m in study["medians"])

    def test_rare_adaptation_error_decreases(self):
        fam = grid_family()
        phi = TestFunction.indicator(0, fam.pi)
        sched = log_increment_schedule(2.0, 0.1)
        taus = np.flatnonzero(np.fromiter(itertools.islice(sched.run(), 100_000), bool)) + 1
        indices = np.zeros(100_001, dtype=np.int64)
        hits = np.zeros(100_001, dtype=np.int64)
        hits[taus] = 1
        indices = np.cumsum(hits) % fam.size
        study = lln_study(
            fam,
            ScheduleScheme(indices),
            phi,
            n_grid=[1_000, 10_000, 100_000],
            seeds=list(range(8)),
        )
        assert study["medians"][-1] < study["medians"][0]


    def test_grid_below_one_rejected(self):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        scheme = ScheduleScheme(np.zeros(1_001, dtype=np.int64))
        with pytest.raises(ValueError, match="record_prefixes"):
            lln_study(fam, scheme, phi, n_grid=[0, 1_000], seeds=[1, 2])

    def test_no_seeds_rejected(self):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        scheme = ScheduleScheme(np.zeros(11, dtype=np.int64))
        with pytest.raises(ValueError, match="seed"):
            lln_study(fam, scheme, phi, n_grid=[10], seeds=[])

    def test_empty_grid_rejected_before_any_work(self):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        # no scheme: the grid is checked before the scheme is asked for indices
        with pytest.raises(ValueError, match="non-empty n_grid"):
            lln_study(fam, None, phi, n_grid=[], seeds=[1, 2])


class TestCltStudy:
    def test_constant_phi_degenerates_cleanly(self):
        fam = iid_family(PI3)
        phi = TestFunction.from_values([2.0, 2.0, 2.0], fam.pi)
        study = clt_study(
            fam, ScheduleScheme(np.zeros(501, dtype=np.int64)), phi, 500, 50, seed=3
        )
        assert study["sigma2_oracle"] == 0.0
        assert study["empirical_var"] == 0.0

    def test_iid_kernel_variance_ratio(self):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        study = clt_study(
            fam, ScheduleScheme(np.zeros(2_001, dtype=np.int64)), phi, 2_000, 400, seed=5
        )
        assert study["sigma2_oracle"] == pytest.approx(0.25, abs=1e-12)
        assert 0.85 <= study["ratio"] <= 1.15
        assert study["ks_pvalue"] > 0.01

    def test_converging_scheme_matches_limit_variance(self):
        fam = grid_family()
        phi = TestFunction.indicator(0, fam.pi)
        scheme, limit = converging_index_schedule(fam, s0=0, n=4_000)
        assert limit == fam.size - 1  # drift pushes to the top of the grid
        study = clt_study(fam, scheme, phi, 4_000, 400, seed=7)
        assert study["limit_index"] == limit
        assert study["sigma2_oracle"] == pytest.approx(
            clt_variance(fam.kernel(limit), fam.pi, phi), abs=1e-12
        )
        assert 0.85 <= study["ratio"] <= 1.15

    def test_fewer_replications_are_a_prefix_of_more(self):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        scheme = ScheduleScheme(np.zeros(101, dtype=np.int64))
        two = clt_study(fam, scheme, phi, 100, 2, seed=5)["replicates"]
        three = clt_study(fam, scheme, phi, 100, 3, seed=5)["replicates"]
        assert two.tobytes() == three[:2].tobytes()

    def test_one_replication_rejected(self):
        fam = iid_family(PI3)
        phi = TestFunction.indicator(0, fam.pi)
        scheme = ScheduleScheme(np.zeros(101, dtype=np.int64))
        with pytest.raises(ValueError, match="replications=1 must be >= 2"):
            clt_study(fam, scheme, phi, 100, 1, seed=5)


class TestKsNormal:
    @pytest.mark.parametrize("n", [400, 600, 800, 1000])
    def test_matches_scipy_kstest(self, n):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(n)
        # one point per stratum of Phi: scaled by 1.04 its p-value lies in (0.999, 1)
        inv_cdf = NormalDist().inv_cdf
        strata = np.array([inv_cdf((i + u) / n) for i, u in enumerate(rng.random(n))])
        samples = [rng.standard_normal(n) for _ in range(16)]
        samples += [rng.standard_normal(n) + shift for shift in (0.05, 0.1, 0.3, 0.5)]
        samples += [strata, strata * 1.04]
        tails = 0
        for z in samples:
            stat, pvalue = ks_normal(z)
            ref = stats.kstest(z, "norm")
            assert abs(stat - ref.statistic) <= 1e-15
            assert pvalue == pytest.approx(ref.pvalue, rel=1e-4)
            if ref.pvalue < 1e-6 or ref.pvalue > 0.999:
                assert pvalue == pytest.approx(ref.pvalue, rel=1e-9)
                tails += 1
        assert tails >= 4

    @pytest.mark.parametrize("n", [5, 50, 400, 1000])
    def test_closed_forms_and_switch(self, n):
        # P(D_n < d) = n!/n^n (2nd - 1)^n for 1/(2n) < d <= 1/n (Ruben & Gambino 1982)
        for nd in (0.6, 0.8, 1.0):
            exact = math.exp(math.lgamma(n + 1) - n * math.log(n)) * (2 * nd - 1) ** n
            assert _kolmogorov_cdf(n, nd / n) == pytest.approx(exact, rel=1e-12)
        # P(D_n^+ >= d) = (1 - d)^n for d >= 1 - 1/n
        for d in (1 - 1 / n, 1 - 0.5 / n):
            assert _smirnov_tail(n, d) == pytest.approx((1 - d) ** n, rel=1e-12)
        # the two p-value forms agree where the test switches between them
        d = math.sqrt(_KS_TAIL_FROM / n)
        if d < 0.5:
            doubled_tail = 2.0 * _smirnov_tail(n, d)
            assert 1.0 - _kolmogorov_cdf(n, d) == pytest.approx(doubled_tail, rel=1e-10)

    def test_extremes(self):
        assert ks_normal(np.full(10, 50.0)) == (1.0, 0.0)
        stat, pvalue = ks_normal([0.0])
        assert (stat, pvalue) == (0.5, 1.0)


def enumerated_an_moments(family, phi, schedule, x0) -> tuple:
    """``E[A_n]`` and ``E[A_n^2]`` under a fixed schedule, summed over every
    path ``x_1..x_n`` of the chain started at ``x0``."""
    n = len(schedule) - 1
    rows = [P.rows.tolist() for P in family.kernels]
    g = [solve_poisson_exact(P, family.pi, phi).g.tolist() for P in family.kernels]
    first, second = [], []
    for path in itertools.product(range(family.n_states), repeat=n):
        prob, a, x = 1.0, 0.0, x0
        for k, y in enumerate(path, start=1):
            prev, s = schedule[k - 1], schedule[k]
            prob *= rows[prev][x][y]
            if s != prev:
                a += g[s][y] - g[prev][y]
            x = y
        first.append(prob * a)
        second.append(prob * a * a)
    return math.fsum(first), math.fsum(second)


class TestAnBoundCheck:
    def test_constant_schedule_zero_term(self):
        fam = smoothed_family(cyclic_pair(), 0.2)
        phi = TestFunction.indicator(0, fam.pi)
        report = an_bound_check(np.zeros(501, dtype=int), fam, phi, 500)
        assert report["second_moment"] == 0.0
        assert report["mean"] == 0.0
        assert report["margin"] == report["bound"]
        assert report["passed"]

    def test_alternating_positive_kernels(self):
        pi = Distribution([0.4, 0.3, 0.2, 0.1])
        fam = random_metropolis_family(pi, 2, seed=13)
        phi = TestFunction.indicator(0, fam.pi)
        schedule = np.arange(1_001) % 2
        report = an_bound_check(schedule, fam, phi, 1_000)
        assert report["beta"] < 1.0
        assert report["second_moment"] <= report["bound"]
        assert report["margin"] == report["bound"] - report["second_moment"]
        assert report["passed"]

    def test_smoothed_cyclic_restores_contraction(self):
        fam = smoothed_family(cyclic_pair(), 0.2)
        phi = TestFunction.indicator(0, fam.pi)
        schedule = np.arange(1_001) % 2
        report = an_bound_check(schedule, fam, phi, 1_000)
        assert report["beta"] < 1.0
        assert report["second_moment"] <= report["bound"]
        assert report["passed"]

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["positive", "metropolis"]),
        n_states=st.integers(min_value=2, max_value=4),
        size=st.integers(min_value=2, max_value=3),
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_enumeration_of_every_path(self, kind, n_states, size, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "metropolis":
            pi = Distribution(rng.dirichlet(np.ones(n_states)))
            fam = random_metropolis_family(pi, size, seed=seed)
        else:
            # circulants with weight on every shift: positive, uniform pi
            kernels = tuple(circulant_kernel(n_states, rng.dirichlet(np.ones(n_states)),
                                             range(n_states)) for _ in range(size))
            fam = KernelFamily(kernels=kernels, pi=Distribution(np.full(n_states, 1 / n_states)))
        phi = TestFunction.from_values(rng.normal(size=n_states), fam.pi)
        schedule = rng.integers(0, size, size=n + 1).tolist()
        x0 = int(rng.integers(n_states))
        report = an_bound_check(schedule, fam, phi, n, x0)
        first, second = enumerated_an_moments(fam, phi, schedule, x0)
        assert abs(report["mean"] * n - first) <= 1e-12 * (1.0 + abs(first))
        assert abs(report["second_moment"] * n - second) <= 1e-12 * (1.0 + abs(second))

    def test_agrees_with_decomposed_chains(self):
        # criterion 6's smoothed pair.  A_n^2 is the square of a sum with a
        # roughly normal law, so its sample mean has a right-skewed tail;
        # the allowance of 4 standard errors is set for that skew before
        # any comparison
        fam = smoothed_family(cyclic_pair(), 0.2)
        phi = TestFunction.indicator(0, fam.pi)
        n, chains = 1_000, 400
        schedule = np.arange(n + 1) % 2
        exact = an_bound_check(schedule, fam, phi, n)["second_moment"]
        scheme = ScheduleScheme(schedule)
        sq = np.array([
            decompose(run_adaptive_chain(fam, scheme, 0, 0, n, ss), fam, phi).A[-1] ** 2 / n
            for ss in np.random.SeedSequence(61).spawn(chains)
        ])
        se = sq.std(ddof=1) / math.sqrt(chains)
        assert abs(sq.mean() - exact) <= 4.0 * se

    def test_raw_cyclic_pair_rejected(self):
        fam = cyclic_pair()
        phi = TestFunction.indicator(0, fam.pi)
        with pytest.raises(DobrushinViolation):
            an_bound_check(np.arange(101) % 2, fam, phi, 100)

    @pytest.mark.parametrize("length", [100, 102])
    def test_schedule_of_other_than_n_plus_one_entries_rejected(self, length):
        fam = smoothed_family(cyclic_pair(), 0.2)
        phi = TestFunction.indicator(0, fam.pi)
        with pytest.raises(ValueError, match="steps 0..n"):
            an_bound_check(np.zeros(length, dtype=int), fam, phi, 100)

    def test_empty_run_rejected(self):
        fam = smoothed_family(cyclic_pair(), 0.2)
        phi = TestFunction.indicator(0, fam.pi)
        with pytest.raises(ValueError, match="n=0 must be >= 1"):
            an_bound_check(np.zeros(1, dtype=int), fam, phi, 0)

    @pytest.mark.parametrize("x0", [-1, 3])
    def test_start_outside_state_space_rejected(self, x0):
        fam = smoothed_family(cyclic_pair(), 0.2)
        phi = TestFunction.indicator(0, fam.pi)
        with pytest.raises(ValueError, match="x0"):
            an_bound_check(np.zeros(101, dtype=int), fam, phi, 100, x0)


def oracle_ledger_csv(traj, ledger) -> bytes:
    """The ledger file as ``csv.writer`` writes the columns' ``tolist()``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["k", "x", "s_index", "delta", "M", "A", "R", "D", "cond_var"])
    columns = (traj.X[1:], traj.S[1:], ledger.Delta, ledger.M, ledger.A, ledger.R, ledger.D,
               ledger.cond_var)
    writer.writerows(zip(range(1, traj.n + 1), *(c.tolist() for c in columns)))
    return buf.getvalue().encode("ascii")


# -0.0 beside 0.0, subnormals, repr's switches to exponent form below 1e-4
# and from 1e16, and NaNs with other payloads and signs
CSV_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e-4, 9.999999999999999e-05, 1e-5, 1e16, 9999999999999998.0, -1e16, 0.1, 1.0,
    math.nan, math.inf, -math.inf,
    *np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
              dtype=np.uint64).view(np.float64).tolist(),
]


def runs_of(pool, n: int, seed: int, dtype) -> np.ndarray:
    """``n`` entries drawn from ``pool`` in runs of 1 to 300 repeats."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 301, size=n + 1)
    picks = rng.integers(0, len(pool), size=n + 1)
    return np.repeat(np.asarray(pool, dtype=dtype)[picks], lengths)[:n]


class TestLedgerCsv:
    def test_header_and_rows(self, tmp_path):
        fam = grid_family()
        phi = TestFunction.indicator(0, fam.pi)
        traj = run_adaptive_chain(fam, scheme_zoo(fam)["mean-tracking"], 0, 0, 50, seed=59)
        ledger = decompose(traj, fam, phi)
        path = tmp_path / "ledger.csv"
        write_ledger_csv(path, traj, ledger)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,x,s_index,delta,M,A,R,D,cond_var"
        assert len(lines) == 51
        assert path.read_bytes() == oracle_ledger_csv(traj, ledger)

    def test_peak_is_one_block_not_the_file(self, tmp_path):
        """The writer holds one block of rows as text, so its peak memory
        does not grow with the ledger."""

        def peak(blocks):
            n = blocks * _CSV_BLOCK
            rng = np.random.default_rng(5)
            traj = Trajectory(X=rng.integers(0, 300, n + 1), S=rng.integers(0, 12, n + 1), n=n)
            ledger = DecompositionLedger(*rng.standard_normal((6, n)), centered_sums=np.zeros(n),
                                         solutions=None)
            return traced_peak(lambda: write_ledger_csv(tmp_path / "ledger.csv", traj, ledger))

        assert peak(16) < 1.25 * peak(2)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1]),
        pools=st.lists(
            st.lists(st.one_of(st.sampled_from(CSV_FLOATS), st.floats()), min_size=1, max_size=6),
            min_size=6, max_size=6,
        ),
        ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_csv_writer(self, tmp_path_factory, n, pools, ints, seed):
        X, S = (np.concatenate([[0], runs_of(ints, n, seed + i, np.int64)]) for i in (0, 1))
        # every example has one column that draws from all of CSV_FLOATS
        pools[seed % 6] = pools[seed % 6] + CSV_FLOATS
        floats = [runs_of(pool, n, seed + i, np.float64) for i, pool in enumerate(pools, 2)]
        traj = Trajectory(X=X, S=S, n=n)
        ledger = DecompositionLedger(*floats, centered_sums=np.zeros(n), solutions=None)
        path = tmp_path_factory.mktemp("csv") / "ledger.csv"
        write_ledger_csv(path, traj, ledger)
        assert path.read_bytes() == oracle_ledger_csv(traj, ledger)


def test_chain_generator_accepts_int_and_seedsequence():
    a = chain_generator(99).random(4)
    b = chain_generator(np.random.SeedSequence(99)).random(4)
    assert np.array_equal(a, b)


def test_ledger_summary_reports_both_scalings():
    fam = grid_family()
    phi = TestFunction.indicator(0, fam.pi)
    traj = run_adaptive_chain(fam, scheme_zoo(fam)["mean-tracking"], 0, 0, 400, seed=67)
    ledger = decompose(traj, fam, phi)
    out = ledger.summary()
    assert out["n"] == 400
    assert out["A_over_n"] == pytest.approx(out["A"] / 400)
    assert out["A_over_sqrt_n"] == pytest.approx(out["A"] / 20.0)
    assert out["max_identity_residual"] <= 1e-9 * 400


def test_rate_target_indices_replay_from_the_states():
    """The rate signal of step k is ``X[k] != X[k-1]``, so the trajectory
    alone determines every index the scheme chose."""
    fam = grid_family()
    scheme = RateTargetScheme(fam)
    traj = run_adaptive_chain(fam, scheme, 0, 0, 500, seed=61)
    lo, hi = min(fam.params), max(fam.params)
    t = fam.params[0]
    for k in range(1, traj.n + 1):
        gamma = scheme.c * float(k) ** (-scheme.exponent)
        moved = 1.0 if traj.X[k] != traj.X[k - 1] else 0.0
        t = min(max(t + gamma * (moved - scheme.target), lo), hi)
        assert fam.nearest_index(t) == traj.S[k]
    assert len(set(traj.S.tolist())) > 1


def test_random_metropolis_family_with_a_zero_weight_warns_nothing():
    pi = Distribution([0.5, 0.5, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = random_metropolis_family(pi, 2, seed=7)
    for P in fam.kernels:
        assert np.all(P.rows[:, 2][:2] == 0.0)  # the zero-weight state is never entered
        assert np.all(P.rows[2] > 0.0)  # and every proposal from it is accepted
        assert invariance_residual(pi, P) <= STATIONARY_TOL


def test_family_checks_pi_at_the_fit_tolerance():
    """A family refuses, as the certificate fit does, a pi moved by 1e-11."""
    P = StochasticMatrix([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    pi = Distribution([0.25 + 3e-11, 0.5 - 3e-11, 0.25])
    assert STATIONARY_TOL < invariance_residual(pi, P) < 1e-10
    with pytest.raises(NotInvariant, match="kernel 0 does not leave pi invariant within 1e-12"):
        KernelFamily(kernels=(P,), pi=pi)
    with pytest.raises(NotInvariant, match="kernel 0 does not leave pi invariant within 1e-12"):
        fit_ergodicity_constants([P], pi, 4)


@settings(max_examples=200, deadline=None)
@given(
    params=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False).map(lambda v: round(v, 1)),
        min_size=1, max_size=32,
    ),
    value=st.floats(allow_nan=True, allow_infinity=True),
)
def test_nearest_index_is_first_closest(params, value):
    """Ties go to the first member, as ``np.argmin`` over the distances."""
    pi = Distribution([0.5, 0.5])
    fam = KernelFamily(kernels=(StochasticMatrix(np.full((2, 2), 0.5)),) * len(params),
                       pi=pi, params=tuple(params))
    expected = int(np.argmin(np.abs(np.asarray(params, dtype=np.float64) - value)))
    assert fam.nearest_index(value) == expected


@pytest.mark.parametrize(
    "params, value, expected",
    [
        # rounding makes every member equally near: the first one wins
        ([0.0, 1e-17, 1.0], 0.5, 0),
        ([1.0, 1e-17, 0.0], 0.5, 0),
        ([0.5, 2.5, 1.0], 1e17, 0),
        ([0.5, 2.5, 1.0], -1e17, 0),
        ([0.5, 2.5, 1.0], math.inf, 0),
        ([0.5, 2.5, 1.0], -math.inf, 0),
        ([0.5, 2.5, 1.0], math.nan, 0),
        # a tie between the neighbours of the bisection point
        ([1.0, 0.0], 0.5, 0),
        ([0.0, 1.0], 0.5, 0),
        ([2.0, 1.0, 2.0, 1.0], 1.5, 0),
        # duplicates and unsorted grids
        ([2.0, 1.0, 2.0, 1.0], 1.1, 1),
        ([2.0, 1.0, 2.0, 1.0], 9.0, 0),
        ([3.0, -1.0, 0.5, 2.0], 0.4, 2),
        ([3.0, -1.0, 0.5, 2.0], 2.6, 0),
        ([3.0, -1.0, 0.5, 2.0], -5.0, 1),
        # -0.0 and 0.0 are one parameter value
        ([-0.0, 0.0, 1.0], 0.0, 0),
        ([1.0, 0.0, -0.0], -0.0, 1),
        ([1.0, -0.0, 0.0], -1e-300, 1),
        ([1.0, -0.0, 0.0], 0.25, 1),
    ],
)
def test_nearest_index_explicit_rows(params, value, expected):
    pi = Distribution([0.5, 0.5])
    fam = KernelFamily(kernels=(StochasticMatrix(np.full((2, 2), 0.5)),) * len(params),
                       pi=pi, params=tuple(params))
    assert fam.nearest_index(value) == expected
    assert expected == int(np.argmin(np.abs(np.asarray(params, dtype=np.float64) - value)))


def grid_of(params) -> KernelFamily:
    return KernelFamily(kernels=(StochasticMatrix(np.full((2, 2), 0.5)),) * len(params),
                        pi=Distribution([0.5, 0.5]), params=tuple(params))


# grid values on a coarse lattice, values within rounding of 0 or of 1 (so
# distances tie by rounding), and any finite double
GRID_VALUES = st.one_of(
    st.floats(min_value=-10, max_value=10).map(lambda v: round(v, 1)),
    st.floats(min_value=-1e-15, max_value=1e-15),
    st.floats(min_value=-1e-15, max_value=1e-15).map(lambda v: 1.0 + v),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(params=st.lists(GRID_VALUES, min_size=1, max_size=24))
def test_nearest_index_matches_argmin_around_every_table_bound(params):
    """The interval table's bounds, their float neighbours, the infinities
    and NaN are where a lookup by table can go wrong."""
    fam = grid_of(params)
    bounds, members = fam._nearest_table
    assert len(bounds) in (0, 2 * len(set(params)))
    assert bounds == sorted(bounds)
    values = [math.inf, -math.inf, math.nan]
    values += [v for b in bounds for v in (b, math.nextafter(b, -math.inf),
                                          math.nextafter(b, math.inf))]
    grid = np.asarray(params, dtype=np.float64)
    with np.errstate(over="ignore"):
        for v in values:
            assert fam.nearest_index(v) == int(np.argmin(np.abs(grid - v)))


@pytest.mark.parametrize(
    "params, enabled",
    [
        ([0.0, 1e-17, 1.0], False),  # 0.5 - 1e-17 rounds to 0.5
        ([-1e308, 1e308], False),  # the span overflows
        ([0.1, 0.17, 0.3, 0.5, 0.8, 1.3, 2.0, 3.0], True),
        ([3.0, -1.0, 0.5, 2.0, -1.0], True),
    ],
)
def test_nearest_table_is_disabled_where_rounding_can_tie(params, enabled):
    fam = grid_of(params)
    bounds, members = fam._nearest_table
    assert bool(bounds) is enabled
    grid = np.asarray(params)
    values = [a / 2 + b / 2 for a in params for b in params] + [v + d for v in params
                                                                for d in (-1.0, 0.25, 1.0)]
    with np.errstate(over="ignore"):
        for v in values:
            assert fam.nearest_index(v) == int(np.argmin(np.abs(grid - v)))
    if enabled:
        # every grid value answers from its own range
        for i, g in enumerate(sorted(set(params))):
            assert bounds[2 * i] <= g < bounds[2 * i + 1]
            assert members[i] == params.index(g)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_family_rejects_non_finite_params(bad):
    P = StochasticMatrix(np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="finite"):
        KernelFamily(kernels=(P, P), pi=Distribution([0.5, 0.5]), params=(0.5, bad))
