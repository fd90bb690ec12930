import numpy as np
import pytest

from amcmc.adaptation import (
    ParameterSpace,
    RareSchedule,
    SAState,
    am_field,
    bernoulli_log_schedule,
    constant_gamma,
    log_increment_schedule,
    next_adaptation_decision,
    power_gamma,
    ram_field,
    sa_step,
    waning_diagnostic,
)
from amcmc.errors import NonFiniteIncrement, OutOfRangeD, ShapeMismatch, ZeroNoiseVector

SCALAR_SPACE = ParameterSpace(kind="eigenbox", a=0.5, b=3.0, d=1)


class TestSaStep:
    def test_in_bounds_update_accepted(self):
        state = SAState(S=1.0, k=0, gamma_schedule=constant_gamma(0.5))
        out = sa_step(state, 2.0, SCALAR_SPACE, mode="reject")
        assert out.S == 2.0
        assert out.k == 1

    def test_reject_keeps_previous(self):
        state = SAState(S=2.9, k=0, gamma_schedule=constant_gamma(0.5))
        out = sa_step(state, 2.0, SCALAR_SPACE, mode="reject")
        assert out.S == 2.9

    def test_project_clamps_to_boundary(self):
        state = SAState(S=2.9, k=0, gamma_schedule=constant_gamma(0.5))
        out = sa_step(state, 2.0, SCALAR_SPACE, mode="project")
        assert out.S == 3.0

    def test_non_finite_increment(self):
        state = SAState(S=1.0, k=0, gamma_schedule=constant_gamma(0.5))
        with pytest.raises(NonFiniteIncrement):
            sa_step(state, float("nan"), SCALAR_SPACE)

    def test_shape_mismatch(self):
        state = SAState(S=np.eye(2), k=0, gamma_schedule=constant_gamma(0.5))
        space = ParameterSpace(kind="eigenbox", a=0.1, b=5.0, d=2)
        with pytest.raises(ShapeMismatch):
            sa_step(state, np.ones(3), space)

    def test_move_never_exceeds_step_size_bound(self):
        rng = np.random.Generator(np.random.Philox(3))
        space = ParameterSpace(kind="eigenbox", a=0.2, b=2.0, d=3)
        S = np.eye(3)
        state = SAState(S=S, k=0, gamma_schedule=power_gamma(0.5, 0.7))
        for mode in ("reject", "project"):
            st = state
            for _ in range(200):
                H = rng.normal(size=(3, 3))
                H = 0.5 * (H + H.T)
                gamma = st.gamma_schedule(st.k + 1)
                nxt = sa_step(st, H, space, mode=mode)
                move = np.linalg.norm(np.asarray(nxt.S) - np.asarray(st.S))
                assert move <= gamma * np.linalg.norm(H) + 1e-10
                assert space.contains(nxt.S)
                st = nxt

    def test_project_preserves_symmetry(self):
        space = ParameterSpace(kind="eigenbox", a=0.5, b=1.5, d=2)
        state = SAState(S=np.eye(2), k=0, gamma_schedule=constant_gamma(1.0))
        out = sa_step(state, np.array([[3.0, 0.2], [0.2, -2.0]]), space, mode="project")
        S = np.asarray(out.S)
        assert np.abs(S - S.T).max() <= 1e-12
        assert space.contains(S)


class TestAmField:
    def test_fixed_point_zero_increment(self):
        X = np.array([1.0, -2.0])
        d_mu, d_sigma = am_field(X, X, np.outer(X, X))
        assert np.abs(d_mu).max() == 0.0
        assert np.abs(d_sigma).max() == 0.0

    def test_scalar_evaluation(self):
        assert am_field(2.0, 0.0, 1.0) == (2.0, 3.0)

    def test_recursive_mean_matches_batch_average(self):
        rng = np.random.Generator(np.random.Philox(5))
        xs = rng.uniform(size=(10_000, 2))
        mu = np.zeros(2)
        second = np.zeros((2, 2))
        for k, x in enumerate(xs, start=1):
            d_mu, d_sigma = am_field(x, mu, second)
            mu = mu + d_mu / k
            second = second + d_sigma / k
        assert np.abs(mu - xs.mean(axis=0)).max() <= 1e-12
        batch_second = (xs[:, :, None] * xs[:, None, :]).mean(axis=0)
        assert np.abs(second - batch_second).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            am_field(np.ones(2), np.ones(3), np.eye(2))


class TestRamField:
    def test_zero_at_target_rate(self):
        out = ram_field(np.array([1.0, 2.0]), 0.234, 0.234, np.eye(2))
        assert np.abs(out).max() == 0.0

    def test_scalar_evaluation(self):
        assert ram_field(1.0, 1.0, 0.234, 2.0) == pytest.approx(3.064, abs=1e-12)

    def test_symmetric_rank_one_matches_outer_oracle(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(20):
            Z = rng.normal(size=3)
            S = rng.normal(size=(3, 3))
            S = 0.5 * (S + S.T) + 3.0 * np.eye(3)
            alpha = float(rng.uniform())
            out = ram_field(Z, alpha, 0.234, S)
            # direct dense oracle
            oracle = (alpha - 0.234) * S @ np.outer(Z, Z) @ S.T / (Z @ Z)
            assert np.abs(out - oracle).max() <= 1e-12
            assert np.abs(out - out.T).max() <= 1e-12
            assert np.linalg.matrix_rank(out, tol=1e-10) <= 1

    def test_zero_noise_vector(self):
        with pytest.raises(ZeroNoiseVector):
            ram_field(np.zeros(2), 0.5, 0.234, np.eye(2))

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            ram_field(np.ones(2), 1.5, 0.234, np.eye(2))


class TestRareSchedules:
    def test_deterministic_times_strictly_increasing_and_slow(self):
        sched = log_increment_schedule(c=2.0, epsilon=0.1)
        taus = sched.adaptation_times(200_000)
        arr = np.asarray(taus)
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
        taus = set(sched.adaptation_times(500))
        hits = {k for k in range(1, 501) if next_adaptation_decision(sched, k)}
        assert hits == taus

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

    def test_bernoulli_decision_uses_uniform(self):
        sched = bernoulli_log_schedule(c=1.0, epsilon=0.1)
        eta_10 = sched.eta(10)
        assert next_adaptation_decision(sched, 10, u=eta_10 * 0.5)
        assert not next_adaptation_decision(sched, 10, u=eta_10 + 1e-9)
        with pytest.raises(ValueError):
            next_adaptation_decision(sched, 10)

    def test_unit_activation_adapts_every_step(self):
        sched = RareSchedule(kind="bernoulli", activation=lambda k: 1.0)
        for k in (1, 7, 100):
            assert next_adaptation_decision(sched, k, u=0.999) is True


class TestWaningDiagnostic:
    def test_zero_series_statistic_zero_everywhere(self):
        report = waning_diagnostic(np.zeros(10_000), p=1.0)
        assert np.all(report.statistic == 0.0)
        assert report.waning

    def test_rare_schedule_series_converges(self):
        sched = log_increment_schedule(c=2.0, epsilon=0.1)
        n = 100_000
        D = np.zeros(n)
        D[np.asarray(sched.adaptation_times(n)) - 1] = 1.0
        report = waning_diagnostic(D, p=1.0, checkpoints=[1_000, 10_000, 100_000])
        assert report.decreasing
        assert report.waning
        assert report.tail_increment < 1e-6

    def test_constant_series_flagged_non_waning(self):
        eps = 0.05
        report = waning_diagnostic(np.full(100_000, eps), p=1.0)
        assert not report.waning
        assert report.statistic[-1] == pytest.approx(eps, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeD):
            waning_diagnostic([0.5, 1.5], p=1.0)

    def test_partial_sums_nondecreasing(self):
        rng = np.random.Generator(np.random.Philox(9))
        report = waning_diagnostic(rng.uniform(size=1000), p=0.5)
        assert np.all(np.diff(report.partial_sums) >= 0.0)


class TestParameterSpace:
    def test_finite_membership(self):
        space = ParameterSpace(kind="finite", size=4)
        assert space.contains(0) and space.contains(3)
        assert not space.contains(4) and not space.contains(-1)

    def test_eigenbox_membership_checks_symmetry(self):
        space = ParameterSpace(kind="eigenbox", a=0.5, b=2.0, d=2)
        assert space.contains(np.eye(2))
        assert not space.contains(np.array([[1.0, 0.5], [0.0, 1.0]]))
        assert not space.contains(3.0 * np.eye(2))

    def test_eigenbox_requires_valid_interval(self):
        with pytest.raises(ValueError):
            ParameterSpace(kind="eigenbox", a=2.0, b=1.0, d=2)

    def test_projection_is_idempotent_on_members(self):
        space = ParameterSpace(kind="eigenbox", a=0.5, b=2.0, d=2)
        S = np.array([[1.0, 0.1], [0.1, 1.2]])
        assert np.abs(space.project(S) - S).max() <= 1e-12


def test_gamma_schedules_positive_and_nonincreasing():
    for gamma in (power_gamma(1.0, 1.0), power_gamma(0.7, 2.0 / 3.0), constant_gamma(0.2)):
        values = [gamma(k) for k in range(1, 50)]
        assert all(v > 0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_sa_waning_surrogate_dominates_kernel_moves():
    # with a Lipschitz surrogate the change magnitude is at most
    # L * gamma_k * ||H_k|| for every accepted or rejected update
    rng = np.random.Generator(np.random.Philox(11))
    space = ParameterSpace(kind="eigenbox", a=0.5, b=3.0, d=1)
    state = SAState(S=1.0, k=0, gamma_schedule=power_gamma(1.0, 1.0))
    L = 2.0
    for _ in range(100):
        H = float(rng.normal())
        gamma = state.gamma_schedule(state.k + 1)
        nxt = sa_step(state, H, space, mode="reject")
        D_k = L * abs(float(nxt.S) - float(state.S))
        assert D_k <= L * gamma * abs(H) + 1e-12
        state = nxt
