import math

import numpy as np
import pytest

from amcmc import rwm
from amcmc.errors import GridTooLarge, NonPositiveDensity
from amcmc.kernels import stationary_distribution
from amcmc.ledger import chain_generator
from amcmc.rwm import (
    DEFAULT_STATE_CAP,
    CompactTarget,
    RwmParameter,
    bimodal_mixture_target,
    build_discrete_rwm,
    discrete_acceptance_expectation,
    run_rwm_chain,
    truncated_gaussian_target,
    uniform_target,
)


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

    def test_grid_cap(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the grid was laid out before the cap was checked")

        monkeypatch.setattr(rwm, "_proposal_weights", unreachable)
        target = truncated_gaussian_target([[-1.0, 1.0]], m=DEFAULT_STATE_CAP + 1)
        with pytest.raises(GridTooLarge, match=f"exceed the cap of {DEFAULT_STATE_CAP}"):
            build_discrete_rwm(target, RwmParameter.from_scalar(1.0, 0.1, 10.0))

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
    def test_every_step_replays_from_the_stream(self):
        """Each step draws ``standard_normal(d)`` then ``random()``; alpha is 0
        out of the box and ``exp(min(0, log pi(y) - log pi(x)))`` inside it."""
        target = truncated_gaussian_target([[-3.0, 3.0], [-1.0, 1.0]], m=10)
        param = RwmParameter(Sigma=[[2.0, 0.3], [0.3, 0.5]], a=0.1, b=4.0)
        run = run_rwm_chain(target, param, x0=[2.5, 0.0], n=400, seed=17)
        rng = chain_generator(17)
        L = param.chol()
        x = np.array([2.5, 0.0])
        out_of_box = uphill = 0
        for k in range(400):
            Z = rng.standard_normal(2)
            u = rng.random()
            y = x + L @ Z
            if target.contains(y):
                alpha = math.exp(min(0.0, target.log_pdf(y) - target.log_pdf(x)))
            else:
                alpha = 0.0
                out_of_box += 1
            uphill += alpha == 1.0
            assert run["alphas"][k] == alpha
            assert run["accepts"][k] == (u < alpha)
            if u < alpha:
                x = y
            assert np.array_equal(run["points"][k + 1], x)
        assert out_of_box > 0 and uphill > 0

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


class TestBimodalTarget:
    @pytest.mark.parametrize(
        "bounds,centers",
        [
            ([[-2.0, 2.0]], [[-1.0, 1.0]]),  # one 2-entry center for d = 1
            ([[-2.0, 2.0], [-2.0, 2.0]], [[-1.0, 0.0, 1.0, 0.0]]),  # one 4-entry center, d = 2
            ([[-2.0, 2.0], [-2.0, 2.0]], [[-1.0, 0.0], [1.0]]),
            ([[-2.0, 2.0]], [-1.0, 1.0]),  # bare numbers are not points
            ([[-2.0, 2.0]], []),
        ],
    )
    def test_each_center_has_d_coordinates(self, bounds, centers):
        with pytest.raises(ValueError, match="each center must be a list of d="):
            bimodal_mixture_target(bounds, m=8, centers=centers)

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_one_weight_per_center(self, weights):
        with pytest.raises(ValueError, match=r"weights must give one value per center \(2\)"):
            bimodal_mixture_target([[-2.0, 2.0]], m=8, centers=[[-1.0], [1.0]], weights=weights)

    @pytest.mark.parametrize(
        "weights", [[1.0, -1.0], [0.0, 0.0], [1.0, 0.0], [float("nan"), 1.0], [float("inf"), 1.0]]
    )
    def test_weights_positive_and_finite(self, weights):
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            bimodal_mixture_target([[-2.0, 2.0]], m=8, centers=[[-1.0], [1.0]], weights=weights)

    @pytest.mark.parametrize("sd", [0.0, -0.5, float("nan"), float("inf")])
    def test_sd_positive_and_finite(self, sd):
        with pytest.raises(ValueError, match="sd must be positive and finite"):
            bimodal_mixture_target([[-2.0, 2.0]], m=8, centers=[[-1.0], [1.0]], sd=sd)

    def test_weights_set_the_mode_masses(self):
        target = bimodal_mixture_target(
            [[-3.0, 3.0]], m=60, centers=[[-1.5], [1.5]], sd=0.3, weights=[1.0, 3.0]
        )
        w = target.grid_distribution().weights
        assert w[30:].sum() / w[:30].sum() == pytest.approx(3.0, rel=1e-6)
