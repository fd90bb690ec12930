"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from amcmc.adaptation import (
    ConstantScheme,
    MeanTrackingScheme,
    RareCycleScheme,
    RateTargetScheme,
    ScheduleScheme,
    converging_index_schedule,
    log_increment_schedule,
    waning_diagnostic,
)
from amcmc.cli import main as cli_main
from amcmc.families import (
    cyclic_pair,
    iid_family,
    mixture_family,
    random_metropolis_family,
    random_positive_kernel,
    smoothed_family,
)
from amcmc.kernels import (
    BOUND_TOL,
    Distribution,
    fit_ergodicity_constants,
    kernel_apply,
    max_tv_between_kernels,
    stationary_distribution,
    sup_tv_to_pi_curve,
)
from amcmc.ledger import (
    an_bound_check,
    clt_study,
    decompose,
    martingale_check,
    run_adaptive_chain,
)
from amcmc.poisson import (
    TestFunction,
    check_lipschitz_bound,
    check_poisson_bound,
    clt_variance,
    solve_poisson_exact,
    solve_poisson_neumann,
)
from amcmc.rwm import (
    RwmParameter,
    build_discrete_rwm,
    discrete_acceptance_expectation,
    run_rwm_chain,
    truncated_gaussian_target,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s < {budget_s:.0f}s)")


def test_criterion_1_counterexample_reproduction(tmp_path):
    with criterion(1, "counterexample reproduction", 5.0):
        code = cli_main(["counterexample", "--out", str(tmp_path), "--seed", "1"])
        assert code == 2  # expected failure demonstrated
        run_dir = next(p for p in tmp_path.iterdir() if p.name.startswith("counterexample"))
        summary = json.loads((run_dir / "summary.json").read_text())
        orbit_lines = (run_dir / "orbit.csv").read_text().strip().splitlines()[1:]
        labels = [int(line.split(",")[1]) for line in orbit_lines]
        assert labels[:6] == [2, 3, 2, 3, 2, 3]
        assert all(lab == (2 if k % 2 == 0 else 3) for k, lab in enumerate(labels))
        assert summary["pinned_average"] == 0.0
        assert summary["pi_phi"] == 0.5
        assert max(summary["invariance_residuals"]) <= 1e-12
        assert summary["single_kernel_lln"]["forward"]["within_band"]
        assert summary["single_kernel_lln"]["backward"]["within_band"]


def test_criterion_2_poisson_identity_suite():
    with criterion(2, "Poisson identity suite (50 kernels x 5 functions)", 10.0):
        rng = np.random.Generator(np.random.Philox(2024))
        tol = 1e-9
        for _ in range(50):
            n = int(rng.integers(2, 51))
            P = random_positive_kernel(n, rng)
            pi = stationary_distribution(P)
            consts = fit_ergodicity_constants([P], pi, horizon=10)
            for _ in range(5):
                phi = TestFunction.from_values(rng.normal(size=n), pi)
                sol = solve_poisson_exact(P, pi, phi)
                assert sol.residual_inf_norm <= 1e-10
                assert abs(sol.pi_mean) <= 1e-10
                series = solve_poisson_neumann(P, pi, phi, tol=tol, consts=consts)
                assert np.abs(series.g - sol.g).max() <= 2 * tol


def _grid_family():
    pi = Distribution(np.arange(1, 6, dtype=float) / 15.0)
    pair = random_metropolis_family(pi, 2, seed=19)
    return mixture_family(pair.kernels[0], pair.kernels[1], pi, 10)


def test_criterion_3_decomposition_identity():
    with criterion(3, "decomposition identity (4 schemes x 8 seeds, n=1e4)", 30.0):
        fam = _grid_family()
        phi = TestFunction.indicator(0, fam.pi)
        stat = np.zeros(fam.n_states)
        stat[0] = 1.0
        n = 10_000
        factories = {
            "constant": lambda: ConstantScheme(),
            "mean-tracking": lambda: MeanTrackingScheme(fam, stat),
            "rate-target": lambda: RateTargetScheme(fam, target=0.234),
            "rare-cycle": lambda: RareCycleScheme(fam, lambda: log_increment_schedule(2.0, 0.1)),
        }
        prefixes = np.arange(1, n + 1)
        for name, make in factories.items():
            for seed in range(8):
                traj = run_adaptive_chain(fam, make(), x0=0, s0=0, n=n, seed=seed)
                ledger = decompose(traj, fam, phi)
                assert np.all(ledger.identity_residuals() <= 1e-9 * prefixes), (name, seed)
                assert ledger.telescope_residuals(traj).max() <= 1e-10, (name, seed)
                report = martingale_check(traj, ledger, fam)
                assert report["max_abs_cond_mean"] <= 1e-10, (name, seed)


def test_criterion_4_bound_suite():
    with criterion(4, "sup-norm and solution-gap bound suite", 10.0):
        base = cyclic_pair()
        test_families = {
            "cyclic-pair": base,
            "mixture-10": mixture_family(base.kernels[0], base.kernels[1], base.pi, 10),
            "smoothed-cyclic": smoothed_family(base, 0.2),
            "random-metropolis": random_metropolis_family(
                Distribution([0.4, 0.3, 0.2, 0.1]), 4, seed=5
            ),
        }
        for name, fam in test_families.items():
            consts = fit_ergodicity_constants(list(fam.kernels), fam.pi, horizon=32)
            # the certificate holds on its curves, which a separate pass recomputes
            assert np.max(consts.curves - consts.C * consts.rho ** np.arange(1, 33)) <= BOUND_TOL
            for s, P in enumerate(fam.kernels):
                assert np.array_equal(consts.curves[s], sup_tv_to_pi_curve(P, fam.pi, 32)), name
            phi = TestFunction.indicator(0, fam.pi)
            sols = [solve_poisson_exact(P, fam.pi, phi) for P in fam.kernels]
            for sol in sols:
                assert check_poisson_bound(sol, consts, phi).passed, name
            for i in range(fam.size):
                for j in range(i + 1, fam.size):
                    D = max_tv_between_kernels(fam.kernel(i), fam.kernel(j))
                    report = check_lipschitz_bound(sols[i], sols[j], D, consts, phi)
                    assert report.passed, (name, i, j)
                    # the same bound covers the one-step expectations
                    gap = np.abs(
                        kernel_apply(fam.kernel(i), sols[i].g)
                        - kernel_apply(fam.kernel(j), sols[j].g)
                    ).max()
                    assert gap <= report.bound + 1e-10, (name, i, j)


def test_criterion_5_clt_study():
    with criterion(5, "CLT variance study (iid and converging adaptation)", 60.0):
        pi = Distribution([0.5, 0.25, 0.25])
        fam = iid_family(pi)
        phi = TestFunction.indicator(0, pi)
        study = clt_study(
            fam, ScheduleScheme(np.zeros(10_001, dtype=np.int64)), phi, 10_000, 1_000, seed=42
        )
        assert study["sigma2_oracle"] == pytest.approx(0.25, abs=1e-12)
        assert abs(study["empirical_var"] - 0.25) <= 0.15 * 0.25

        grid = _grid_family()
        phi_g = TestFunction.indicator(0, grid.pi)
        scheme, limit = converging_index_schedule(grid, s0=0, n=10_000)
        sigma2_limit = clt_variance(grid.kernel(limit), grid.pi, phi_g)
        study2 = clt_study(grid, scheme, phi_g, 10_000, 600, seed=43)
        assert study2["sigma2_oracle"] == pytest.approx(sigma2_limit, abs=1e-12)
        assert abs(study2["empirical_var"] - sigma2_limit) <= 0.15 * sigma2_limit


def test_criterion_6_adaptation_term_bound():
    with criterion(6, "adaptation-term second-moment bound (n=1e3, R=200)", 30.0):
        pi = Distribution([0.4, 0.3, 0.2, 0.1])
        fam = random_metropolis_family(pi, 2, seed=13)
        phi = TestFunction.indicator(0, pi)
        schedule = np.arange(1_001) % 2
        report = an_bound_check(schedule, fam, phi, 1_000, 200, seed=6)
        assert report["beta"] < 1.0
        assert report["estimate"] <= report["bound"] + report["se"]

        smoothed = smoothed_family(cyclic_pair(), 0.2)
        phi_s = TestFunction.indicator(0, smoothed.pi)
        report2 = an_bound_check(schedule, smoothed, phi_s, 1_000, 200, seed=7)
        assert report2["beta"] < 1.0
        assert report2["estimate"] <= report2["bound"] + report2["se"]


def test_criterion_7_waning_diagnostics():
    with criterion(7, "waning diagnostics (rare schedule and constant control)", 10.0):
        n = 100_000
        sched = log_increment_schedule(c=2.0, epsilon=0.1)
        D = np.zeros(n)
        D[np.asarray(sched.adaptation_times(n)) - 1] = 1.0
        report = waning_diagnostic(D, p=1.0, checkpoints=[1_000, 10_000, 100_000])
        assert np.all(np.diff(report.statistic) < 0.0)  # decreasing across checkpoints
        assert report.tail_increment < 1e-4
        assert report.waning

        control = waning_diagnostic(
            np.full(n, 0.05), p=1.0, checkpoints=[1_000, 10_000, 100_000]
        )
        assert not control.waning


def test_criterion_8_rwm_lane_consistency():
    with criterion(8, "RWM discrete/continuous lane consistency", 30.0):
        target = truncated_gaussian_target([[-3.0, 3.0]], m=200)
        param = RwmParameter.from_scalar(1.0, 0.1, 10.0)
        P = build_discrete_rwm(target, param)
        w = target.grid_distribution().weights
        balance = np.abs(w[:, None] * P.rows - w[None, :] * P.rows.T).max()
        assert balance <= 1e-10

        exact = discrete_acceptance_expectation(target, param)
        run = run_rwm_chain(target, param, x0=[0.0], n=100_000, seed=8)
        assert abs(run["mean_alpha"] - exact) <= 0.02 * exact
