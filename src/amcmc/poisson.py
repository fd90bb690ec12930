"""Poisson-equation solutions, norm bounds, and the asymptotic variance.

For a kernel ``P`` with stationary ``pi`` and a test function ``phi``, the
solution ``g`` of ``g - P g = phi - pi(phi)`` with ``pi(g) = 0`` converts
ergodic-average error into a martingale plus boundary terms.  The exact
linear solve is the workhorse; the geometric-series summation with a
certified truncation index serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateOverflow,
    DimensionMismatch,
    NegativeBeyondTolerance,
    SingularBeyondCentering,
)
from .kernels import (
    Distribution,
    ErgodicityConstants,
    StochasticMatrix,
    _reaches,
)

RESIDUAL_TOL = 1e-10
CENTERING_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Bounded observable with its mean under ``pi`` and oscillation.

    ``osc`` is ``max(values) - min(values)``; the centered copy
    ``values - mean_under_pi`` integrates to zero under ``pi``.
    """

    values: np.ndarray
    mean_under_pi: float
    osc: float

    @classmethod
    def from_values(cls, values, pi: Distribution) -> "TestFunction":
        v = np.asarray(values, dtype=np.float64).reshape(-1)
        if v.shape[0] != pi.n:
            raise DimensionMismatch(f"function length {v.shape[0]} != state count {pi.n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        v = v.copy()
        v.setflags(write=False)
        mean = float(pi.weights @ v)
        return cls(values=v, mean_under_pi=mean, osc=float(v.max() - v.min()))

    @classmethod
    def indicator(cls, state: int, pi: Distribution) -> "TestFunction":
        """Indicator of a single state."""
        if not 0 <= state < pi.n:
            raise ValueError(f"state {state} outside [0, {pi.n})")
        v = np.zeros(pi.n)
        v[state] = 1.0
        return cls.from_values(v, pi)

    @property
    def centered(self) -> np.ndarray:
        return self.values - self.mean_under_pi


@dataclass(frozen=True, eq=False)
class PoissonSolution:
    """Solution ``g`` with its residual and centering metadata.

    Satisfies ``g - P g = phi - pi(phi)`` within ``residual_inf_norm`` and
    ``pi(g) = pi_mean`` (close to zero).
    """

    g: np.ndarray
    residual_inf_norm: float
    pi_mean: float

    @classmethod
    def from_g(cls, g, P: StochasticMatrix, pi: Distribution, phibar: np.ndarray):
        residual = float(np.abs(g - P.rows @ g - phibar).max())
        g.setflags(write=False)
        return cls(g=g, residual_inf_norm=residual, pi_mean=float(pi.weights @ g))

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.g).max())


def solve_poisson_exact(
    P: StochasticMatrix, pi: Distribution, phi: TestFunction
) -> PoissonSolution:
    """Solve ``(I - P) g = phi - pi(phi)`` subject to ``pi(g) = 0``.

    One LU solve of the fundamental-matrix system ``(I - P + 1 pi^T) g =
    phi - pi(phi)`` (Kemeny & Snell, *Finite Markov Chains*).  Multiplying
    it by ``pi^T`` and using ``pi P = pi`` gives ``pi(g) = 0``, so its
    solution is the centered Poisson solution.  The matrix is nonsingular
    exactly when ``P`` has a single closed class; a kernel with a transient
    state solves as well.

    Raises
    ------
    SingularBeyondCentering
        If some state cannot reach the state of largest ``pi`` weight (two or
        more closed classes), the LU factorisation meets an exactly singular
        pivot, or the residual or centering exceeds ``1e-10``.
    """
    n = P.n
    if pi.n != n or phi.values.shape[0] != n:
        raise DimensionMismatch("kernel, distribution and function sizes must agree")
    # with a second closed class the system is singular, and rounding can hand
    # LU a tiny pivot instead of a zero one
    if not _reaches(P.rows, int(np.argmax(pi.weights))):
        raise SingularBeyondCentering("kernel has more than one closed class")
    phibar = phi.centered
    A = np.eye(n) - P.rows
    A += pi.weights  # 1 pi^T: pi added to every row
    try:
        g = np.linalg.solve(A, phibar)
    except np.linalg.LinAlgError as exc:
        raise SingularBeyondCentering(f"centered system is singular: {exc}") from None
    sol = PoissonSolution.from_g(g, P, pi, phibar)
    if sol.residual_inf_norm > RESIDUAL_TOL or abs(sol.pi_mean) > CENTERING_TOL:
        raise SingularBeyondCentering(f"solve left residual {sol.residual_inf_norm:.3e}, "
                                      f"centering {sol.pi_mean:.3e}")
    return sol


def neumann_truncation_index(
    tol: float, consts: ErgodicityConstants, osc: float
) -> int:
    """Smallest ``K`` with certified series tail below ``tol``.

    The tail after ``K`` terms is at most
    ``C * rho**(K+1) * osc / (1 - rho)``; ``rho < 1`` holds for every
    :class:`ErgodicityConstants`.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if osc == 0.0 or consts.rho == 0.0:
        return 0
    target = tol * (1.0 - consts.rho) / (consts.C * osc)
    if target >= consts.rho:
        return 0
    return max(0, math.ceil(math.log(target) / math.log(consts.rho)) - 1)


def solve_poisson_neumann(
    P: StochasticMatrix,
    pi: Distribution,
    phi: TestFunction,
    tol: float,
    consts: ErgodicityConstants,
) -> PoissonSolution:
    """Sum the series ``g = sum_k P^k (phi - pi(phi))`` to certified error.

    Truncates at the smallest ``K`` whose geometric tail bound is below
    ``tol``; agrees with :func:`solve_poisson_exact` within ``2 * tol``.
    """
    K = neumann_truncation_index(tol, consts, phi.osc)
    term = phibar = phi.centered
    g = phibar.copy()
    for _ in range(K):
        term = P.rows @ term
        g += term
    return PoissonSolution.from_g(g, P, pi, phibar)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a single inequality check."""

    quantity: str
    value: float
    bound: float
    passed: bool
    margin: float


def _make_report(quantity: str, value: float, bound: float, tol: float = 1e-10) -> BoundReport:
    return BoundReport(
        quantity=quantity,
        value=float(value),
        bound=float(bound),
        passed=bool(value <= bound + tol),
        margin=float(bound - value),
    )


def _require_finite(bound: float, formula: str, consts: ErgodicityConstants) -> None:
    """Raise :class:`CertificateOverflow` for a bound past the float range."""
    if not math.isfinite(bound):
        raise CertificateOverflow(
            f"bound {formula} overflows: C={consts.C:.3e}, rho={consts.rho:.6g} "
            f"at horizon={consts.horizon}"
        )


def check_poisson_bound(
    sol: PoissonSolution, consts: ErgodicityConstants, phi: TestFunction
) -> BoundReport:
    """Check ``||g||_inf <= C * osc(phi) / (1 - rho)``; raise
    :class:`CertificateOverflow` if the bound exceeds the float range."""
    bound = consts.C * phi.osc / (1.0 - consts.rho)
    _require_finite(bound, "C osc / (1 - rho)", consts)
    return _make_report("poisson_sup_norm", sol.sup_norm, bound)


def check_lipschitz_bound(
    sol_s: PoissonSolution,
    sol_sp: PoissonSolution,
    D: float,
    consts: ErgodicityConstants,
    phi: TestFunction,
) -> BoundReport:
    """Check ``||g_s - g_s'||_inf <= 4 C^2 (1-rho)^-2 osc(phi) * D``.

    ``D`` must be the worst-case row total variation between the two
    kernels that produced the solutions.  Raises :class:`CertificateOverflow`
    if the bound exceeds the float range.
    """
    value = float(np.abs(sol_s.g - sol_sp.g).max())
    try:
        bound = 4.0 * consts.C**2 / (1.0 - consts.rho) ** 2 * phi.osc * D
    except OverflowError:
        bound = math.inf
    _require_finite(bound, "4 C**2 osc D / (1 - rho)**2", consts)
    return _make_report("poisson_solution_gap", value, bound)


def clt_variance(P: StochasticMatrix, pi: Distribution, phi: TestFunction) -> float:
    """Asymptotic variance ``pi(g^2 - (P g)^2)`` of the ergodic average.

    Nonnegative by construction; tiny negative values from floating point
    are clamped at zero.

    Raises
    ------
    NegativeBeyondTolerance
        If the computed value is below ``-1e-8`` (inconsistent solution).
    """
    sol = solve_poisson_exact(P, pi, phi)
    Pg = P.rows @ sol.g
    value = float(pi.weights @ (sol.g**2 - Pg**2))
    if value < -1e-8:
        raise NegativeBeyondTolerance(f"variance {value:.3e} below -1e-8")
    return max(value, 0.0)
