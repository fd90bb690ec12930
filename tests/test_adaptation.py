import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from amcmc.adaptation import (
    BernoulliSchedule,
    MeanTrackingScheme,
    RareCycleScheme,
    RateTargetScheme,
    ScheduleScheme,
    bernoulli_log_schedule,
    converging_index_schedule,
    log_increment_schedule,
    _CHUNK,
    default_checkpoints,
    waning_diagnostic,
)
from amcmc.errors import OutOfRangeD
from amcmc.families import cyclic_pair, mixture_family, random_metropolis_family
from amcmc.kernels import Distribution
from amcmc.ledger import chain_generator, run_adaptive_chain
from conftest import traced_peak

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def grid_family(members=8):
    """Mixtures of two random reversible kernels over the grid ``linspace(0, 1, members)``."""
    pi = Distribution([0.1, 0.2, 0.3, 0.4])
    pair = random_metropolis_family(pi, 2, seed=19)
    return mixture_family(pair.kernels[0], pair.kernels[1], pi, members)


def decisions(schedule, n, rng=None):
    """Steps ``1..n`` of ``schedule.run(rng)``, as booleans."""
    return np.fromiter(islice(schedule.run(rng), n), bool, n)


class ListStream:
    """Stand-in stream whose uniforms are ``us``, in order."""

    def __init__(self, us):
        self.random = iter(us).__next__


class TestRareSchedules:
    def test_deterministic_times_strictly_increasing_and_slow(self):
        sched = log_increment_schedule(c=2.0, epsilon=0.1)
        arr = np.flatnonzero(decisions(sched, 200_000)) + 1
        assert np.all(np.diff(arr) >= 1)
        # the inter-adaptation gaps grow, so tau_j / (j log^{1.1} j) stays
        # bounded below and the weighted counting series converges
        js = np.arange(1, arr.size + 1)
        ratio = arr[50:] / (js[50:] * np.log(js[50:]) ** 1.1)
        assert ratio.min() > 0.3
        inv_sums = np.cumsum(1.0 / arr.astype(float))
        assert inv_sums[-1] - inv_sums[arr.size // 2] < 0.05

    def test_deterministic_decision_matches_times(self):
        sched = log_increment_schedule(c=2.0, epsilon=0.1)
        n = 100_000
        # tau_j = sum_{i<=j} max(1, ceil(2 log(i)**1.1)), from the definition
        gaps = [max(1, math.ceil(2.0 * math.log(j) ** 1.1)) for j in range(1, n + 1)]
        taus = [int(t) for t in np.cumsum(gaps) if t <= n]
        assert (np.flatnonzero(decisions(sched, n)) + 1).tolist() == taus

    def test_bernoulli_activation_decays_with_shrinking_decade_tails(self):
        sched = bernoulli_log_schedule(c=1.0, epsilon=0.1)
        etas = np.array([sched.eta(k) for k in range(1, 100_001)])
        assert np.all(np.diff(etas[1:]) <= 0.0)
        weighted = np.cumsum(etas / np.arange(1, 100_001))
        # integral-test decay: each decade contributes less than the previous
        decade_tails = [
            weighted[10_000 - 1] - weighted[1_000 - 1],
            weighted[100_000 - 1] - weighted[10_000 - 1],
        ]
        assert decade_tails[1] < decade_tails[0]

    def test_bernoulli_decision_is_the_uniform_at_most_eta(self):
        sched = bernoulli_log_schedule(c=1.0, epsilon=0.1)
        n = 30
        # step k's uniform is below, at or just above eta_k, in turn
        scale = [(0.5, 1.0, 1.0 + 1e-9)[k % 3] for k in range(1, n + 1)]
        us = [sched.eta(k) * f for k, f in zip(range(1, n + 1), scale)]
        assert decisions(sched, n, ListStream(us)).tolist() == [f <= 1.0 for f in scale]

    def test_unit_activation_adapts_every_step(self):
        sched = BernoulliSchedule(lambda k: 1.0)
        assert decisions(sched, 100, ListStream([0.999] * 100)).all()

    @pytest.mark.parametrize("eta", [0.0, 1.5, float("nan")])
    def test_activation_outside_unit_interval_rejected(self, eta):
        with pytest.raises(ValueError, match="outside"):
            decisions(BernoulliSchedule(lambda k: eta), 3, ListStream([0.5] * 3))


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("build", [log_increment_schedule, bernoulli_log_schedule])
@pytest.mark.parametrize("bad", NON_FINITE + [0.0, -1.0])
def test_rare_schedules_reject_c_or_epsilon_not_finite_and_positive(build, bad):
    for c, epsilon in ((bad, 0.1), (1.0, bad)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            build(c, epsilon)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_converging_schedule_rejects_non_finite_c_or_exponent(bad):
    pair = cyclic_pair()
    family = mixture_family(*pair.kernels, pair.pi, 3)
    with pytest.raises(ValueError, match="c=.* must be finite"):
        converging_index_schedule(family, s0=0, n=10, c=bad)
    with pytest.raises(ValueError, match="exponent=.* must be finite"):
        converging_index_schedule(family, s0=0, n=10, exponent=bad)


def reference_converging(family, s0, n, c, exponent):
    """The indices of ``t_k = clip(t_{k-1} + c k**-exponent)``, clipped and
    matched to the grid after every step."""
    lo, hi = min(family.params), max(family.params)
    t = float(family.params[s0])
    indices = [s0]
    for k in range(1, n + 1):
        t = min(max(t + c * float(k) ** (-exponent), lo), hi)
        indices.append(family.nearest_index(t))
    return indices


class TestConvergingSchedule:
    @pytest.mark.parametrize("seed", range(16))
    def test_matches_the_stepwise_loop(self, seed):
        rng = np.random.default_rng(seed)
        members = int(rng.integers(1, 9))
        # unsorted grids, half of them with repeated values and midpoint ties
        values = [-1.0, -0.25, 0.0, 1e-17, 0.5, 1.0, 2.0]
        params = rng.choice(values, members) if seed % 2 else rng.normal(size=members)
        family = dataclasses.replace(grid_family(members), params=tuple(params.tolist()))
        s0 = int(rng.integers(members))
        # the long runs span the chunks the grid search takes
        n = {0: 10_000, 1: _CHUNK - 1, 2: _CHUNK + 1}.get(seed, int(rng.integers(0, 3000)))
        c = float(rng.normal(scale=2.0))  # negative for about half the seeds
        exponent = 1.0 + float(rng.exponential())
        scheme, limit = converging_index_schedule(family, s0, n, c, exponent)
        expected = reference_converging(family, s0, n, c, exponent)
        assert scheme.index_array(n).tolist() == expected
        assert limit == expected[-1]

    @pytest.mark.parametrize(
        "params,s0,c",
        [
            ((0.0, 1e-17, 1.0), 0, 0.5),  # t_1 = 0.5 ties all three values
            ((1.0, 0.0, 1e-17, 0.0), 1, 0.5),
            ((0.0, 1.0, 2.0), 0, 1e308),  # the partial sums overflow to inf
            ((0.0, 1.0, 2.0), 2, -1e308),
        ],
    )
    def test_ties_and_overflow_match_the_loop(self, params, s0, c):
        family = dataclasses.replace(grid_family(len(params)), params=params)
        for n in (0, 1, 2, 100):
            scheme, _ = converging_index_schedule(family, s0, n, c)
            assert scheme.index_array(n).tolist() == reference_converging(family, s0, n, c, 1.5)


def whole_series_waning(D, p, checkpoints):
    """The statistic, weighted sums and tail increment from whole-series
    cumulative sums."""
    n = D.size
    ks = np.arange(1, n + 1, dtype=np.float64)
    partial, weighted = np.cumsum(D), np.cumsum(D / ks**p)
    cps = np.asarray(sorted(checkpoints))
    start = n - max(1, n // 10)
    tail = (weighted[-1] - (weighted[start - 1] if start >= 1 else 0.0)) / max(1, n // 10)
    return partial[cps - 1] / cps.astype(np.float64) ** p, weighted[cps - 1], tail


class TestWaningDiagnostic:
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize(
        "n", [1, 2, 11, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 9]
    )
    def test_chunks_match_the_whole_series(self, n, p):
        rng = np.random.default_rng(n)
        D = rng.uniform(size=n) * (rng.uniform(size=n) < 0.3)
        edges = {1, max(1, n // 2), n, *default_checkpoints(n).tolist()}
        edges |= {k for k in (_CHUNK - 1, _CHUNK, _CHUNK + 1) if k <= n}
        report = waning_diagnostic(D, p, sorted(edges))
        statistic, weighted, tail = whole_series_waning(D, p, sorted(edges))
        assert report.statistic.tobytes() == statistic.tobytes()
        assert report.weighted_sums.tobytes() == weighted.tobytes()
        assert report.tail_increment == tail

    def test_peak_memory_below_the_series(self):
        D = np.full(10**6, 0.05)
        assert traced_peak(lambda: waning_diagnostic(D, p=1.0)) < D.nbytes // 2

    def test_zero_series_statistic_zero_everywhere(self):
        report = waning_diagnostic(np.zeros(10_000), p=1.0)
        assert np.all(report.statistic == 0.0)
        assert report.waning

    def test_rare_schedule_series_converges(self):
        sched = log_increment_schedule(c=2.0, epsilon=0.1)
        n = 100_000
        D = decisions(sched, n).astype(np.float64)
        report = waning_diagnostic(D, p=1.0, checkpoints=[1_000, 10_000, 100_000])
        assert report.decreasing
        assert report.waning
        assert report.tail_increment < 1e-6

    # the cumulative sum's rounding makes the statistic of the shorter
    # series drift down by about 1e-15, which is not waning
    @pytest.mark.parametrize(
        "eps,n", [(0.05, 100_000), (0.05, 1000), (0.05, 2000), (0.1, 1000), (0.1, 2000)]
    )
    def test_constant_series_flagged_non_waning(self, eps, n):
        report = waning_diagnostic(np.full(n, eps), p=1.0)
        assert not report.waning
        assert report.statistic[-1] == pytest.approx(eps, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeD):
            waning_diagnostic([0.5, 1.5], p=1.0)

    @pytest.mark.parametrize("D", [[float("nan")] * 3, [0.5, float("nan")]])
    def test_nan_change_magnitude_is_out_of_range(self, D):
        with pytest.raises(OutOfRangeD):
            waning_diagnostic(D, p=1.0)

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.0])
    def test_p_must_be_positive_and_finite(self, p):
        with pytest.raises(ValueError, match="p must be positive and finite"):
            waning_diagnostic([0.5, 0.25], p=p)

    def test_partial_sums_nondecreasing(self):
        rng = np.random.Generator(np.random.Philox(9))
        report = waning_diagnostic(rng.uniform(size=1000), p=0.5)
        assert np.all(np.diff(report.weighted_sums) >= 0.0)


class TestGridSchemes:
    def test_schedule_scheme_needs_an_index_per_step(self):
        scheme = ScheduleScheme([1, 0, 1])
        assert scheme.index_array(2).tolist() == [1, 0, 1]
        with pytest.raises(ValueError, match="need 4"):
            scheme.index_array(3)
        for bad in ([], [[0, 1]]):
            with pytest.raises(ValueError):
                ScheduleScheme(bad)

    def test_chain_past_the_schedule_is_refused_as_index_array_refuses(self):
        fam = grid_family()
        with pytest.raises(ValueError, match=r"schedule has 3 indices, steps 0\.\.3 need 4"):
            run_adaptive_chain(fam, ScheduleScheme([1, 0, 1]), 0, 0, 5, seed=1)
        assert run_adaptive_chain(fam, ScheduleScheme([1, 0, 1]), 0, 0, 2, seed=1).S.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("bad", [dict(target=float("nan")), dict(target=-0.1),
                                     dict(target=1.5), dict(c=float("inf")), dict(c=float("nan")),
                                     dict(c=0.0), dict(c=-1.0), dict(exponent=float("inf")),
                                     dict(exponent=float("nan")), dict(exponent=0.0),
                                     dict(exponent=-0.5)])
    def test_rate_target_refuses_a_bad_target_c_or_exponent(self, bad):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"{name}="):
            RateTargetScheme(grid_family(), **bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", [slice(None), slice(2, 3)])
    def test_mean_tracking_refuses_a_non_finite_statistic(self, bad, where):
        stat = np.array([0.9, 0.05, 0.6, 0.3])
        stat[where] = bad
        with pytest.raises(ValueError, match="statistic must be finite"):
            MeanTrackingScheme(grid_family(), stat)

    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_rate_target_accepts_the_ends_of_the_unit_interval(self, target):
        fam = grid_family()
        assert run_adaptive_chain(fam, RateTargetScheme(fam, target=target), 0, 0, 50, seed=2).n == 50

    def test_mean_tracking_follows_the_batch_mean(self):
        fam = grid_family()
        stat = np.array([0.9, 0.05, 0.6, 0.3])
        traj = run_adaptive_chain(fam, MeanTrackingScheme(fam, stat), 0, 3, 5_000, seed=3)
        batch = np.cumsum(stat[traj.X[1:]]) / np.arange(1, traj.n + 1)
        grid = np.asarray(fam.params)
        midpoints = (grid[:-1] + grid[1:]) / 2.0
        # the running mean and the batch mean may round to different sides of a midpoint
        clear = np.abs(batch[:, None] - midpoints[None, :]).min(axis=1) > 1e-9
        assert clear.sum() > 0.9 * traj.n
        for k in np.nonzero(clear)[0] + 1:
            assert traj.S[k] == fam.nearest_index(batch[k - 1])

    @pytest.mark.parametrize("target", [0.234, 0.8])
    def test_rate_target_moves_are_bounded_and_stay_in_range(self, target):
        fam = grid_family()
        c = 0.5
        traj = run_adaptive_chain(fam, RateTargetScheme(fam, target=target, c=c), 0, 0, 2_000, seed=5)
        # the latent, recomputed from the states: step k moved when X_k != X_{k-1}
        lo, hi = min(fam.params), max(fam.params)
        t = [float(fam.params[0])]
        for k in range(1, traj.n + 1):
            moved = 1.0 if traj.X[k] != traj.X[k - 1] else 0.0
            t.append(min(max(t[-1] + c * float(k) ** (-2.0 / 3.0) * (moved - target), lo), hi))
        t = np.asarray(t)
        assert t.min() >= lo and t.max() <= hi
        ks = np.arange(1, traj.n + 1, dtype=np.float64)
        bound = c * ks ** (-2.0 / 3.0) * max(target, 1.0 - target)
        assert np.all(np.abs(np.diff(t)) <= bound + 1e-12)
        assert [fam.nearest_index(v) for v in t[1:]] == traj.S[1:].tolist()

    def test_rare_cycle_changes_exactly_at_adaptation_times(self):
        fam = grid_family()
        n = 3_000
        scheme = RareCycleScheme(fam, lambda: log_increment_schedule(2.0, 0.1))
        traj = run_adaptive_chain(fam, scheme, 0, 0, n, seed=7)
        changed = (np.nonzero(traj.S[1:] != traj.S[:-1])[0] + 1).tolist()
        sched = log_increment_schedule(2.0, 0.1)
        assert changed == (np.flatnonzero(decisions(sched, n)) + 1).tolist()
        assert np.all((traj.S[changed] - traj.S[np.asarray(changed) - 1]) % fam.size == 1)

    def test_bernoulli_rare_cycle_changes_where_second_uniform_is_below_eta(self):
        fam = grid_family()
        n, seed = 3_000, 29
        scheme = RareCycleScheme(fam, lambda: bernoulli_log_schedule(1.0, 0.1))
        traj = run_adaptive_chain(fam, scheme, 0, 0, n, seed=seed)
        # per step the transition uniform comes first, then the schedule's
        draws = chain_generator(seed).random(2 * n).reshape(n, 2)
        eta = bernoulli_log_schedule(1.0, 0.1).eta
        expected = [k for k in range(1, n + 1) if draws[k - 1, 1] <= eta(k)]
        changed = (np.nonzero(traj.S[1:] != traj.S[:-1])[0] + 1).tolist()
        assert changed == expected
        assert 0 < len(expected) < n
        assert np.all((traj.S[changed] - traj.S[np.asarray(changed) - 1]) % fam.size == 1)


MODULES = ("kernels", "families", "poisson", "adaptation", "ledger", "rwm", "cli")


def test_every_module_imports_first():
    # The package __init__ imports the modules in one fixed order, which can
    # hide an import cycle; a bare package object stands in for it here, so
    # each module runs its own imports first.
    script = textwrap.dedent(
        f"""
        import importlib, sys, types
        import amcmc
        path = list(amcmc.__path__)
        for name in {MODULES!r}:
            for key in [k for k in sys.modules if k == "amcmc" or k.startswith("amcmc.")]:
                del sys.modules[key]
            package = types.ModuleType("amcmc")
            package.__path__ = path
            sys.modules["amcmc"] = package
            importlib.import_module("amcmc." + name)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
    )
    assert proc.returncode == 0, proc.stderr
