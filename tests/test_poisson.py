import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcmc.errors import CertificateOverflow, NegativeBeyondTolerance, SingularBeyondCentering
from amcmc.families import (
    cyclic_pair,
    iid_family,
    random_metropolis_kernel,
    random_positive_kernel,
)
from amcmc.kernels import (
    Distribution,
    ErgodicityConstants,
    StochasticMatrix,
    dobrushin_coefficient,
    fit_ergodicity_constants,
    max_tv_between_kernels,
    stationary_distribution,
    sup_tv_to_pi_curve,
)
from amcmc.poisson import (
    TestFunction,
    check_lipschitz_bound,
    check_poisson_bound,
    clt_variance,
    neumann_truncation_index,
    solve_poisson_exact,
    solve_poisson_neumann,
)

PI3 = Distribution([0.5, 0.25, 0.25])


def neumann_oracle(P, pi, phi, terms):
    """Independent series oracle: explicit partial sums of P^k (phi - mean)."""
    phibar = phi.centered
    term = phibar.copy()
    total = phibar.copy()
    for _ in range(terms):
        term = P.rows @ term
        total = total + term
    return total


def poisson_lstsq_reference(P, pi, phi):
    """Least squares on the singular system with the centering row appended:
    ``[I - P; pi^T] g = [phi - pi(phi); 0]``."""
    n = P.n
    A = np.vstack([np.eye(n) - P.rows, pi.weights[None, :]])
    b = np.concatenate([phi.centered, [0.0]])
    g, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    assert rank == n
    return g


def random_ergodic_kernel(kind: str, n: int, seed: int):
    """A strictly positive kernel with its stationary distribution: Dirichlet
    rows (``positive``) or a Metropolis kernel for a Dirichlet ``pi``."""
    rng = np.random.default_rng(seed)
    if kind == "positive":
        P = random_positive_kernel(n, rng)
        return P, stationary_distribution(P)
    pi = Distribution(rng.dirichlet(np.ones(n)))
    return random_metropolis_kernel(pi, rng), pi


def spectral_variance_oracle(P, pi, phi):
    """Independent eigendecomposition oracle for reversible kernels."""
    w = pi.weights
    root = np.sqrt(w)
    sym = (root[:, None] * P.rows) / root[None, :]
    eig, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    total = 0.0
    phibar = phi.centered
    for lam, v in zip(eig, vecs.T):
        if lam > 1.0 - 1e-12:
            continue  # the stationary eigenfunction carries no variance
        u = v / root
        coef = float(np.sum(w * phibar * u))
        total += coef**2 * (1.0 + lam) / (1.0 - lam)
    return total


class TestTestFunction:
    def test_centering_and_osc(self):
        phi = TestFunction.indicator(0, PI3)
        assert phi.mean_under_pi == 0.5
        assert phi.osc == 1.0
        assert abs(float(PI3.weights @ phi.centered)) <= 1e-12

    def test_from_values(self):
        phi = TestFunction.from_values([2.0, -1.0, 4.0], PI3)
        assert phi.osc == 5.0
        assert phi.mean_under_pi == pytest.approx(2.0 * 0.5 - 0.25 + 1.0)

    @pytest.mark.parametrize(
        "values", [[np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0], [0.0, 0.0, np.nan]]
    )
    def test_from_values_rejects_non_finite(self, values):
        with pytest.raises(ValueError, match="finite"):
            TestFunction.from_values(values, PI3)

    @pytest.mark.parametrize("state", [-1, 3, 10])
    def test_indicator_rejects_state_outside_space(self, state):
        with pytest.raises(ValueError, match="outside"):
            TestFunction.indicator(state, PI3)


class TestSolvePoissonExact:
    def test_constant_function_gives_zero(self):
        P = cyclic_pair().kernels[0]
        phi = TestFunction.from_values([2.0, 2.0, 2.0], PI3)
        sol = solve_poisson_exact(P, PI3, phi)
        assert np.abs(sol.g).max() <= 1e-12

    def test_iid_kernel_gives_centered_function(self):
        # P g = pi(g) = 0 forces g = centered phi
        P = iid_family(PI3).kernels[0]
        phi = TestFunction.indicator(0, PI3)
        sol = solve_poisson_exact(P, PI3, phi)
        assert np.abs(sol.g - phi.centered).max() <= 1e-12

    def test_cyclic_forward_matches_truncated_series(self):
        fam = cyclic_pair()
        P = fam.kernels[0]
        phi = TestFunction.indicator(0, PI3)
        sol = solve_poisson_exact(P, PI3, phi)
        oracle = neumann_oracle(P, PI3, phi, terms=200)
        assert np.abs(sol.g - oracle).max() <= 1e-8

    def test_residual_and_centering_on_random_ergodic_kernels(self):
        rng = np.random.Generator(np.random.Philox(31))
        for _ in range(10):
            n = int(rng.integers(2, 51))
            P = random_positive_kernel(n, rng)
            pi = stationary_distribution(P)
            phi = TestFunction.from_values(rng.normal(size=n), pi)
            sol = solve_poisson_exact(P, pi, phi)
            assert sol.residual_inf_norm <= 1e-10
            assert abs(sol.pi_mean) <= 1e-10

    def test_reducible_kernel_raises(self):
        P = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
        pi = Distribution([0.5, 0.5])
        phi = TestFunction.from_values([1.0, 0.0], pi)
        with pytest.raises(SingularBeyondCentering):
            solve_poisson_exact(P, pi, phi)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["positive", "metropolis"]),
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_lu_matches_lstsq_reference_and_series_oracle(self, kind, n, seed):
        P, pi = random_ergodic_kernel(kind, n, seed)
        phi = TestFunction.from_values(np.random.default_rng(seed).normal(size=n), pi)
        sol = solve_poisson_exact(P, pi, phi)
        reference = poisson_lstsq_reference(P, pi, phi)
        assert np.abs(sol.g - reference).max() <= 1e-12 * (1.0 + sol.sup_norm)
        # a positive kernel contracts in one step: e(k) <= beta**k
        beta = dobrushin_coefficient(P)
        consts = ErgodicityConstants(
            C=1.0, rho=beta, beta=beta, curves=sup_tv_to_pi_curve(P, pi, 8)[None]
        )
        tol = 1e-9
        series = solve_poisson_neumann(P, pi, phi, tol, consts)
        assert np.abs(sol.g - series.g).max() <= 2 * tol

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("consistent", [True, False])
    def test_two_closed_classes_raise(self, seed, consistent):
        # block-diagonal kernel with classes of 1..4 states in shuffled order,
        # pi a proper mixture of the two class distributions
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, size=2)
        n = int(sizes.sum())
        rows = np.zeros((n, n))
        pi = np.zeros(n)
        start = 0
        for size, share in zip(sizes, (0.3, 0.7)):
            block = random_positive_kernel(int(size), rng)
            stop = start + int(size)
            rows[start:stop, start:stop] = block.rows
            pi[start:stop] = share * stationary_distribution(block).weights
            start = stop
        order = rng.permutation(n)
        P = StochasticMatrix(rows[np.ix_(order, order)])
        pi = Distribution(pi[order])
        if consistent:
            # phi = (I - P) h lies in the range of I - P, so solutions exist
            # but are not unique: h plus any class-wise constant with pi-mean 0
            h = rng.normal(size=n)
            phi = TestFunction.from_values(h - P.rows @ h, pi)
        else:
            # the first class's own stationary mean of phi - pi(phi) is 0.7
            phi = TestFunction.from_values((order < sizes[0]).astype(float), pi)
        with pytest.raises(SingularBeyondCentering):
            solve_poisson_exact(P, pi, phi)

    @pytest.mark.parametrize("seed", range(4))
    def test_transient_state_still_solves(self, seed):
        # states 0-2 form the closed class; state 3 stays with probability 1/2
        rng = np.random.default_rng(seed)
        block = random_positive_kernel(3, rng)
        rows = np.zeros((4, 4))
        rows[:3, :3] = block.rows
        rows[3] = np.append(0.5 * rng.dirichlet(np.ones(3)), 0.5)
        P = StochasticMatrix(rows)
        pi = Distribution(np.append(stationary_distribution(block).weights, 0.0))
        phi = TestFunction.from_values(rng.normal(size=4), pi)
        sol = solve_poisson_exact(P, pi, phi)
        assert sol.residual_inf_norm <= 1e-10 and abs(sol.pi_mean) <= 1e-10
        reference = poisson_lstsq_reference(P, pi, phi)
        assert np.abs(sol.g - reference).max() <= 1e-12 * (1.0 + sol.sup_norm)


class TestSolvePoissonNeumann:
    def test_constant_function_terminates_at_zero(self):
        fam = cyclic_pair()
        P = fam.kernels[0]
        consts = fit_ergodicity_constants([P], PI3, horizon=16)
        phi = TestFunction.from_values([1.0, 1.0, 1.0], PI3)
        sol = solve_poisson_neumann(P, PI3, phi, tol=1e-6, consts=consts)
        assert np.abs(sol.g).max() == 0.0

    def test_iid_kernel_single_term(self):
        P = iid_family(PI3).kernels[0]
        consts = fit_ergodicity_constants([P], PI3, horizon=4)
        phi = TestFunction.indicator(0, PI3)
        sol = solve_poisson_neumann(P, PI3, phi, tol=1e-12, consts=consts)
        assert np.abs(sol.g - phi.centered).max() == 0.0

    def test_agreement_with_exact_on_random_kernel(self):
        rng = np.random.Generator(np.random.Philox(37))
        P = random_positive_kernel(8, rng)
        pi = stationary_distribution(P)
        consts = fit_ergodicity_constants([P], pi, horizon=10)
        phi = TestFunction.from_values(rng.normal(size=8), pi)
        tol = 1e-9
        series = solve_poisson_neumann(P, pi, phi, tol=tol, consts=consts)
        exact = solve_poisson_exact(P, pi, phi)
        assert np.abs(series.g - exact.g).max() <= 2 * tol

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_truncation_index_rejects_bad_tol(self, tol):
        consts = fit_ergodicity_constants([cyclic_pair().kernels[0]], PI3, horizon=16)
        with pytest.raises(ValueError, match="tol"):
            neumann_truncation_index(tol, consts, osc=1.0)


class TestBoundChecks:
    def test_zero_solution_trivial_margin(self):
        fam = cyclic_pair()
        P = fam.kernels[0]
        consts = fit_ergodicity_constants([P], PI3, horizon=16)
        phi = TestFunction.from_values([3.0, 3.0, 3.0], PI3)
        sol = solve_poisson_exact(P, PI3, phi)
        report = check_poisson_bound(sol, consts, phi)
        assert report.passed
        assert report.margin == pytest.approx(report.bound)

    def test_iid_kernel_centering_inequality(self):
        P = iid_family(PI3).kernels[0]
        consts = fit_ergodicity_constants([P], PI3, horizon=4)
        assert consts.rho == 0.0
        phi = TestFunction.indicator(0, PI3)
        report = check_poisson_bound(solve_poisson_exact(P, PI3, phi), consts, phi)
        assert report.passed  # ||centered phi|| <= osc(phi)

    def test_cyclic_pair_bounds_hold(self):
        fam = cyclic_pair()
        consts = fit_ergodicity_constants(list(fam.kernels), fam.pi, horizon=32)
        phi = TestFunction.indicator(0, fam.pi)
        sols = [solve_poisson_exact(P, fam.pi, phi) for P in fam.kernels]
        for sol in sols:
            assert check_poisson_bound(sol, consts, phi).passed
        D = max_tv_between_kernels(fam.kernels[0], fam.kernels[1])
        assert D == 1.0
        report = check_lipschitz_bound(sols[0], sols[1], D, consts, phi)
        assert report.passed

    def test_same_parameter_zero_gap(self):
        fam = cyclic_pair()
        consts = fit_ergodicity_constants(list(fam.kernels), fam.pi, horizon=32)
        phi = TestFunction.indicator(0, fam.pi)
        sol = solve_poisson_exact(fam.kernels[0], fam.pi, phi)
        report = check_lipschitz_bound(sol, sol, 0.0, consts, phi)
        assert report.passed
        assert report.value == 0.0
        assert report.bound == 0.0

    @pytest.mark.parametrize("C, scale, check", [
        (1e200, 1.0, "lipschitz"),  # C**2 overflows
        (1e300, 1e10, "poisson"),  # C osc / (1 - rho) overflows
        (1e150, 1e10, "lipschitz"),  # C**2 is finite, the whole bound is not
    ])
    def test_bound_past_the_float_range_is_refused(self, C, scale, check):
        fam = cyclic_pair()
        consts = ErgodicityConstants(C=C, rho=0.5, beta=1.0, curves=np.zeros((1, 12)))
        phi = TestFunction.from_values([scale, 0.0, 0.0], fam.pi)
        sol = solve_poisson_exact(fam.kernels[0], fam.pi, phi)
        with pytest.raises(CertificateOverflow, match="rho=0.5 at horizon=12"):
            if check == "poisson":
                check_poisson_bound(sol, consts, phi)
            else:
                check_lipschitz_bound(sol, sol, 1.0, consts, phi)

    def test_mixture_family_wide_margin(self):
        from amcmc.families import mixture_family

        base = cyclic_pair()
        fam = mixture_family(base.kernels[0], base.kernels[1], base.pi, 6)
        consts = fit_ergodicity_constants(list(fam.kernels), fam.pi, horizon=32)
        phi = TestFunction.indicator(0, fam.pi)
        sols = [solve_poisson_exact(P, fam.pi, phi) for P in fam.kernels]
        for i in range(fam.size):
            for j in range(i + 1, fam.size):
                D = max_tv_between_kernels(fam.kernel(i), fam.kernel(j))
                report = check_lipschitz_bound(sols[i], sols[j], D, consts, phi)
                assert report.passed
                assert report.value <= 0.25 * report.bound
                # the same bound also covers the one-step expectations
                gap = np.abs(
                    fam.kernel(i).rows @ sols[i].g
                    - fam.kernel(j).rows @ sols[j].g
                ).max()
                assert gap <= report.bound + 1e-10


class TestCltVariance:
    def test_constant_function(self):
        P = cyclic_pair().kernels[0]
        phi = TestFunction.from_values([1.0, 1.0, 1.0], PI3)
        assert clt_variance(P, PI3, phi) == 0.0

    def test_iid_kernel_equals_static_variance(self):
        # g = centered phi and P g = 0, so the value is pi(phi_bar^2) = 1/4
        P = iid_family(PI3).kernels[0]
        phi = TestFunction.indicator(0, PI3)
        assert clt_variance(P, PI3, phi) == pytest.approx(0.25, abs=1e-12)

    def test_cyclic_forward_matches_batch_means_simulation(self):
        from amcmc.families import cyclic_pair as _pair
        from amcmc.adaptation import ConstantScheme
        from amcmc.ledger import run_adaptive_chain

        fam = _pair()
        phi = TestFunction.indicator(0, fam.pi)
        sigma2 = clt_variance(fam.kernels[0], fam.pi, phi)
        # 1000 batches put the estimator's own spread near 4.5%
        n, batch = 500_000, 500
        X = run_adaptive_chain(fam, ConstantScheme(), x0=0, s0=0, n=n, seed=101).X
        vals = phi.values[X[1:]]
        means = vals.reshape(n // batch, batch).mean(axis=1)
        batch_means_var = batch * means.var(ddof=1)
        assert batch_means_var == pytest.approx(sigma2, rel=0.10)

    def test_reversible_matches_spectral_oracle(self):
        rng = np.random.Generator(np.random.Philox(41))
        from amcmc.families import random_metropolis_kernel

        pi = Distribution(rng.dirichlet(np.ones(6)))
        P = random_metropolis_kernel(pi, rng)
        # detailed balance makes the kernel reversible
        balance = np.abs(pi.weights[:, None] * P.rows - pi.weights[None, :] * P.rows.T).max()
        assert balance <= 1e-12
        phi = TestFunction.from_values(rng.normal(size=6), pi)
        assert clt_variance(P, pi, phi) == pytest.approx(
            spectral_variance_oracle(P, pi, phi), abs=1e-8
        )

    def test_nonnegative_on_random_kernels(self):
        rng = np.random.Generator(np.random.Philox(43))
        for _ in range(20):
            P = random_positive_kernel(5, rng)
            pi = stationary_distribution(P)
            phi = TestFunction.from_values(rng.normal(size=5), pi)
            assert clt_variance(P, pi, phi) >= 0.0


def test_negative_variance_guard_not_triggered_by_valid_solves():
    # the clamp exists for float safety; valid solves stay clear of the error
    rng = np.random.Generator(np.random.Philox(47))
    P = random_positive_kernel(4, rng)
    pi = stationary_distribution(P)
    phi = TestFunction.from_values(rng.normal(size=4), pi)
    try:
        value = clt_variance(P, pi, phi)
    except NegativeBeyondTolerance:  # pragma: no cover
        pytest.fail("valid solve should not trip the negativity guard")
    assert value >= 0.0
