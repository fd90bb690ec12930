import numpy as np
import pytest

from amcmc.errors import GridTooLarge, NonPositiveDensity
from amcmc.kernels import stationary_distribution
from amcmc.rwm import (
    CompactTarget,
    RwmParameter,
    bimodal_mixture_target,
    build_discrete_rwm,
    discrete_acceptance_expectation,
    load_target,
    run_rwm_chain,
    rwm_propose_accept,
    truncated_gaussian_target,
    uniform_target,
)


class FixedNoise:
    """Stub stream returning a preset noise vector."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=np.float64)

    def standard_normal(self, d):
        return self.z[:d]


class TestRwmParameter:
    def test_eigenvalue_range_enforced(self):
        with pytest.raises(ValueError):
            RwmParameter(Sigma=np.eye(2) * 100.0, a=0.1, b=10.0)
        with pytest.raises(ValueError):
            RwmParameter(Sigma=np.array([[1.0, 0.5], [0.0, 1.0]]), a=0.1, b=10.0)

    @pytest.mark.parametrize(
        "variance,a,b,message",
        [
            (float("nan"), 0.1, 10.0, "covariance must be finite"),
            (float("inf"), 0.1, 10.0, "covariance must be finite"),
            (1.0, 0.1, float("inf"), "need 0 < a < b < inf"),
            (1.0, float("nan"), 10.0, "need 0 < a < b < inf"),
        ],
    )
    def test_non_finite_input_rejected(self, variance, a, b, message):
        with pytest.raises(ValueError, match=message):
            RwmParameter.from_scalar(variance, a, b)

    def test_scalar_constructor(self):
        p = RwmParameter.from_scalar(1.0, 0.1, 10.0)
        assert p.d == 1
        assert p.Sigma[0, 0] == 1.0


class TestDiscreteLane:
    def test_two_point_uniform_is_symmetric(self):
        target = uniform_target([[-1.0, 1.0]], m=2)
        P = build_discrete_rwm(target, RwmParameter.from_scalar(1.0, 0.1, 10.0))
        assert P.rows[0, 1] == pytest.approx(P.rows[1, 0], abs=1e-15)
        d = stationary_distribution(P)
        assert np.allclose(d.weights, [0.5, 0.5], atol=1e-12)

    def test_detailed_balance_gaussian(self):
        target = truncated_gaussian_target([[-3.0, 3.0]], m=50)
        P = build_discrete_rwm(target, RwmParameter.from_scalar(1.0, 0.1, 10.0))
        w = target.grid_distribution().weights
        flux_gap = np.abs(w[:, None] * P.rows - w[None, :] * P.rows.T).max()
        assert flux_gap <= 1e-10

    def test_identity_parameter_change_gives_identical_matrix(self):
        target = truncated_gaussian_target([[-2.0, 2.0]], m=20)
        p = RwmParameter.from_scalar(0.7, 0.1, 10.0)
        q = RwmParameter.from_scalar(0.7, 0.1, 10.0)
        A = build_discrete_rwm(target, p)
        B = build_discrete_rwm(target, q)
        assert np.array_equal(A.rows, B.rows)

    def test_grid_distribution_is_stationary(self):
        target = bimodal_mixture_target([[-2.0, 2.0]], m=30, centers=[[-1.0], [1.0]], sd=0.4)
        P = build_discrete_rwm(target, RwmParameter.from_scalar(0.5, 0.05, 5.0))
        w = target.grid_distribution().weights
        assert np.abs(w @ P.rows - w).max() <= 1e-12

    def test_two_dimensional_grid(self):
        target = truncated_gaussian_target([[-2.0, 2.0], [-2.0, 2.0]], m=8)
        P = build_discrete_rwm(target, RwmParameter(Sigma=np.eye(2) * 0.5, a=0.1, b=4.0))
        assert P.n == 64
        w = target.grid_distribution().weights
        assert np.abs(w[:, None] * P.rows - w[None, :] * P.rows.T).max() <= 1e-10

    def test_grid_cap(self):
        target = truncated_gaussian_target([[-1.0, 1.0]], m=200)
        with pytest.raises(GridTooLarge):
            build_discrete_rwm(target, RwmParameter.from_scalar(1.0, 0.1, 10.0), cap=100)

    def test_non_positive_density(self):
        target = CompactTarget(
            d=1,
            bounds=[[-1.0, 1.0]],
            log_density=lambda x: -np.inf if x[0] > 0 else 0.0,
            m=10,
        )
        with pytest.raises(NonPositiveDensity):
            build_discrete_rwm(target, RwmParameter.from_scalar(1.0, 0.1, 10.0))


class TestContinuousLane:
    def test_null_move_accepted(self):
        target = truncated_gaussian_target([[-3.0, 3.0]], m=10)
        out = rwm_propose_accept(
            [0.5], RwmParameter.from_scalar(1.0, 0.1, 10.0), target, FixedNoise([0.0])
        )
        assert out.y.tolist() == [0.5]
        assert out.alpha == 1.0

    def test_uphill_move_accepted(self):
        target = truncated_gaussian_target([[-3.0, 3.0]], m=10)
        out = rwm_propose_accept(
            [1.0], RwmParameter.from_scalar(0.25, 0.1, 10.0), target, FixedNoise([-1.0])
        )
        assert out.alpha == 1.0

    def test_out_of_box_rejected(self):
        target = truncated_gaussian_target([[-3.0, 3.0]], m=10)
        out = rwm_propose_accept(
            [2.9], RwmParameter.from_scalar(1.0, 0.1, 10.0), target, FixedNoise([5.0])
        )
        assert out.alpha == 0.0

    def test_acceptance_rate_matches_discrete_expectation(self):
        target = truncated_gaussian_target([[-3.0, 3.0]], m=100)
        param = RwmParameter.from_scalar(1.0, 0.1, 10.0)
        exact = discrete_acceptance_expectation(target, param)
        run = run_rwm_chain(target, param, x0=[0.0], n=30_000, seed=71)
        assert run["mean_alpha"] == pytest.approx(exact, rel=0.03)

    def test_chain_reproducible(self):
        target = truncated_gaussian_target([[-3.0, 3.0]], m=10)
        param = RwmParameter.from_scalar(1.0, 0.1, 10.0)
        a = run_rwm_chain(target, param, [0.0], 200, seed=5)
        b = run_rwm_chain(target, param, [0.0], 200, seed=5)
        assert np.array_equal(a["points"], b["points"])


class TestTargetSpecFile:
    def test_builtin_kinds(self):
        for spec in (
            {"d": 1, "bounds": [[-1, 1]], "m": 8, "density": {"kind": "uniform"}},
            {"d": 1, "bounds": [[-2, 2]], "m": 8, "density": {"kind": "truncated-gaussian"}},
            {
                "d": 1,
                "bounds": [[-2, 2]],
                "m": 8,
                "density": {"kind": "bimodal-mixture", "centers": [[-1.0], [1.0]]},
            },
        ):
            target = load_target(spec)
            assert target.n_states == 8
            build_discrete_rwm(target, RwmParameter.from_scalar(0.5, 0.05, 5.0))

    def test_table_density(self):
        values = np.linspace(1.0, 2.0, 8)
        spec = {
            "d": 1,
            "bounds": [[0, 1]],
            "m": 8,
            "density": {"kind": "table", "values": values.tolist()},
        }
        target = load_target(spec)
        w = target.grid_distribution().weights
        assert np.allclose(w, values / values.sum(), atol=1e-12)

    def test_table_rejects_non_positive(self):
        spec = {
            "d": 1,
            "bounds": [[0, 1]],
            "m": 4,
            "density": {"kind": "table", "values": [1.0, 0.0, 1.0, 1.0]},
        }
        with pytest.raises(NonPositiveDensity):
            load_target(spec)
