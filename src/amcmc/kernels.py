"""Finite-state Markov kernels and their contraction properties.

Kernels are row-stochastic matrices over a finite state space.  This module
provides total-variation geometry (distances between measures, between
kernels, and the one-step contraction coefficient), stationary-distribution
solving, and a geometric-ergodicity certificate ``(C, rho)`` fitted from
powers of the contraction coefficient and checked against its own curves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NonUnique,
    NotInvariant,
    NotIrreducible,
    NotSimultaneouslyErgodic,
)

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
BOUND_TOL = 1e-10


def _as_readonly(a, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic transition matrix over ``n`` states.

    Parameters
    ----------
    rows : array_like, shape (n, n)
        ``rows[x, y]`` is the probability of moving from state ``x`` to
        state ``y``.  Every entry must be finite and lie in [0, 1], and every
        row must sum to 1 within ``1e-12``.  The stored array is read-only;
        instances are immutable and safe to share across threads.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1] or rows.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("transition probabilities must be finite")
        if np.any(rows < -ROW_SUM_TOL) or np.any(rows > 1.0 + ROW_SUM_TOL):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_sums = rows.sum(axis=1)
        worst = np.max(np.abs(row_sums - 1.0))
        if worst > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, worst error {worst:.3e}")
        object.__setattr__(self, "rows", _as_readonly(rows))

    @property
    def n(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over a finite state space.

    Entries must be finite, nonnegative and sum to 1 within ``1e-12``.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if w.size < 1:
            raise DimensionMismatch("distribution must have at least one state")
        if not np.all(np.isfinite(w)):
            raise ValueError("distribution weights must be finite")
        if np.any(w < -ROW_SUM_TOL):
            raise ValueError("distribution weights must be nonnegative")
        if abs(w.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"distribution must sum to 1 within {ROW_SUM_TOL}")
        object.__setattr__(self, "weights", _as_readonly(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class ErgodicityConstants:
    """Geometric-ergodicity certificate for a kernel family, with its curves.

    ``curves`` (read-only, members x horizon) holds ``e_s(k) = sup_x
    d_tv(P_s^k(x, .), pi)`` for ``k = 1..horizon``.  Construction raises
    :class:`NotSimultaneouslyErgodic` unless every ``e_s(k) <= C * rho**k +
    BOUND_TOL``.  ``beta`` is the largest one-step contraction coefficient.
    """

    C: float
    rho: float
    beta: float
    curves: np.ndarray

    def __post_init__(self):
        if not 1.0 <= self.C < np.inf:
            raise ValueError("C must be finite and >= 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        curves = _as_readonly(self.curves)
        if curves.ndim != 2 or curves.size < 1:
            raise DimensionMismatch(f"curves must be (members, horizon), got {curves.shape}")
        ks = np.arange(1, curves.shape[1] + 1)
        worst = float(np.max(curves - self.C * self.rho**ks))
        if not worst <= BOUND_TOL:  # a NaN curve fails too
            raise NotSimultaneouslyErgodic(f"certificate violated by {worst:.3e}")
        object.__setattr__(self, "curves", curves)

    @property
    def horizon(self) -> int:
        return self.curves.shape[1]


def _dists(x) -> np.ndarray:
    if isinstance(x, Distribution):
        return x.weights
    return np.asarray(x, dtype=np.float64).reshape(-1)


def tv_distance(mu, nu) -> float:
    """Total variation distance between two probability vectors.

    Equals ``sup_A |mu(A) - nu(A)| = 0.5 * sum_i |mu_i - nu_i|`` and lies
    in [0, 1].
    """
    a, b = _dists(mu), _dists(nu)
    if a.shape != b.shape:
        raise DimensionMismatch(f"length mismatch: {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(a - b).sum())


def max_tv_between_kernels(P: StochasticMatrix, Q: StochasticMatrix) -> float:
    """Worst-case row total variation ``max_x d_tv(P(x,.), Q(x,.))``.

    For finite kernel families this is the exact per-step kernel-change
    magnitude used by the waning diagnostics.
    """
    if P.n != Q.n:
        raise DimensionMismatch(f"state counts differ: {P.n} vs {Q.n}")
    return 0.5 * float(np.abs(P.rows - Q.rows).sum(axis=1).max())


def dobrushin_coefficient(P: StochasticMatrix) -> float:
    """One-step contraction coefficient ``max_{x,y} d_tv(P(x,.), P(y,.))``.

    Contracts total variation: ``d_tv(mu P, nu P) <= beta * d_tv(mu, nu)``.

    The maximum is exact.  A search over row pairs skips every pair that the
    triangle inequality through the mean row ``c`` rules out:
    ``d_tv(P(x,.), P(y,.)) <= e_x + e_y`` with ``e_x = d_tv(P(x,.), c)``.  A
    pair is skipped only when ``e_x + e_y`` falls below the best value found
    so far by more than ``64 * n * eps``, which exceeds the rounding of both
    sides, so the result equals the all-pairs maximum bit for bit.  The
    search stops as soon as a pair at distance 1 is found.  Memory is
    ``O(n^2)``; time is ``O(n^2)`` when pruning works and ``O(n^3)`` when no
    pair can be ruled out (e.g. every row at the same distance from the
    others).
    """
    return _dobrushin_raw(P.rows)


def _dobrushin_raw(rows: np.ndarray, work: np.ndarray | None = None) -> float:
    """The coefficient of ``rows``, worked out in ``work`` (two ``n x n`` blocks).
    A caller taking many lends the same blocks to each call: the allocator hands
    a freed block back to the OS and faults it in again on the next call."""
    n = rows.shape[0]
    if n == 1:
        return 0.0
    block, ordered = np.empty((2, n, n)) if work is None else work
    diff = np.subtract(rows, rows.mean(axis=0), out=block)
    e = 0.5 * np.abs(diff, out=diff).sum(axis=1)
    # rows by decreasing distance to the pivot: the pairs most likely to be
    # far apart come first, and each row's partners are a leading slice
    order = np.argsort(-e, kind="stable")
    e = e[order]
    rows = np.take(rows, order, axis=0, out=ordered)
    neg_e = -e  # ascending, for searchsorted
    slack = 64 * n * np.finfo(np.float64).eps
    best = 0.0
    for i in range(n - 1):
        # partners j > i with e[i] + e[j] > best - slack are rows i+1 .. stop-1
        stop = int(np.searchsorted(neg_e, e[i] - (best - slack), side="left"))
        if stop <= i + 1:
            break  # later rows have smaller e and even fewer partners
        # same subtract, abs, contiguous sum and halving as the all-pairs form
        diff = np.subtract(rows[i], rows[i + 1 : stop], out=block[: stop - i - 1])
        d = 0.5 * np.abs(diff, out=diff).sum(axis=1)
        best = max(best, float(d.max()))
        if best >= 1.0:
            return 1.0
    return best


def kernel_apply(P: StochasticMatrix, f) -> np.ndarray:
    """Apply the kernel to a function: ``(P f)(x) = sum_y P(x, y) f(y)``."""
    vec = np.asarray(f, dtype=np.float64).reshape(-1)
    if vec.shape[0] != P.n:
        raise DimensionMismatch(f"function length {vec.shape[0]} != state count {P.n}")
    return P.rows @ vec


def _reaches(rows: np.ndarray, target: int) -> bool:
    """Whether every state has a path of positive transitions to ``target``."""
    n = rows.shape[0]
    back = (rows > 0.0).T  # back[y, x]: a step x -> y
    seen = np.zeros(n, dtype=bool)
    seen[target] = True
    frontier = [target]
    while frontier:
        nxt = back[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = list(np.nonzero(nxt)[0])
    return bool(seen.all())


def _strongly_connected(rows: np.ndarray) -> bool:
    # every state reaches state 0, and state 0 reaches every state
    return _reaches(rows, 0) and _reaches(rows.T, 0)


def stationary_distribution(P: StochasticMatrix) -> Distribution:
    """Solve ``d P = d`` for the unique stationary distribution.

    One LU solve of ``(P^T - I) d = 0`` with its last equation replaced by
    the normalisation ``1^T d = 1``.  For an irreducible kernel the
    equations of ``P^T - I`` have rank ``n - 1`` and any one of them is
    implied by the others, so the replaced system is nonsingular and its
    solution exact to machine precision.  Rounding below zero is clipped
    and the weights renormalised; the result must satisfy ``d P = d``
    within ``1e-12``.

    Raises
    ------
    NotIrreducible
        If the transition graph is not strongly connected.
    NonUnique
        If the LU factorisation meets an exactly singular pivot or the
        stationarity residual exceeds tolerance.
    """
    if not _strongly_connected(P.rows):
        raise NotIrreducible("transition graph is not strongly connected")
    n = P.n
    A = P.rows.T - np.eye(n)
    A[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NonUnique(f"stationary system is singular: {exc}") from None
    w = np.clip(sol, 0.0, None)
    w = w / w.sum()
    d = Distribution(w)
    residual = invariance_residual(d, P)
    if residual > STATIONARY_TOL:
        raise NonUnique(f"stationary residual {residual:.3e} exceeds {STATIONARY_TOL}")
    return d


def invariance_residual(pi: Distribution, P: StochasticMatrix) -> float:
    """How far ``P`` moves ``pi``: ``max_y |(pi P)(y) - pi(y)|``."""
    if pi.n != P.n:
        raise DimensionMismatch(f"length mismatch: {pi.n} vs {P.n}")
    return float(np.abs(pi.weights @ P.rows - pi.weights).max())


def _require_invariant(pi: Distribution, P_list: Sequence[StochasticMatrix]) -> None:
    """The invariance rule of families and certificate fits: raise
    :class:`NotInvariant` for a kernel that moves ``pi`` by over ``STATIONARY_TOL``."""
    for idx, P in enumerate(P_list):
        if invariance_residual(pi, P) > STATIONARY_TOL:
            raise NotInvariant(f"kernel {idx} does not leave pi invariant within {STATIONARY_TOL}")


def _metropolis_flux(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The accepted flux ``q(x, y) min(1, w_y / w_x)`` of a symmetric proposal
    ``q`` under target weights ``w``; a zero-weight state accepts every move."""
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-weight rows are reset
        accept = w[None, :] / w[:, None]
    accept[w <= 0.0] = 1.0
    np.minimum(accept, 1.0, out=accept)
    return np.multiply(accept, q, out=accept)


def _metropolis_kernel(q: np.ndarray, w: np.ndarray) -> StochasticMatrix:
    """The flux of :func:`_metropolis_flux` off the diagonal, the rejected mass on it."""
    P = _metropolis_flux(q, w)
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return StochasticMatrix(P)


def _powers(P: StochasticMatrix, horizon: int):
    """Yield ``P^1 .. P^horizon`` from two buffers used in turn: a yielded
    power is overwritten two steps later, so read it before advancing."""
    prev = P.rows.copy()
    nxt = np.empty_like(prev)
    for k in range(horizon):
        if k:
            np.matmul(prev, P.rows, out=nxt)
            prev, nxt = nxt, prev
        yield prev


def _sup_tv_to_pi(Pk: np.ndarray, pi: Distribution, scratch: np.ndarray) -> float:
    diff = np.subtract(Pk, pi.weights, out=scratch)
    return 0.5 * np.abs(diff, out=diff).sum(axis=1).max()


def sup_tv_to_pi_curve(P: StochasticMatrix, pi: Distribution, horizon: int) -> np.ndarray:
    """Worst-start convergence curve ``e(k) = max_x d_tv(P^k(x,.), pi)``.

    Returns the values for ``k = 1..horizon``.  Unlike a certificate it
    needs no power to contract.
    """
    if pi.n != P.n:
        raise DimensionMismatch(f"length mismatch: {pi.n} vs {P.n}")
    scratch = np.empty((P.n, P.n))
    return np.array([_sup_tv_to_pi(Pk, pi, scratch) for Pk in _powers(P, horizon)])


def fit_ergodicity_constants(
    P_list: Sequence[StochasticMatrix], pi: Distribution, horizon: int
) -> ErgodicityConstants:
    """Fit a uniform geometric-ergodicity certificate for a kernel family.

    The rate is ``rho = min_m (max_s beta(P_s^m))**(1/m)`` over powers
    ``m <= horizon`` whose worst contraction coefficient is below one; the
    constant is ``C = max(1, max_{s,k<=horizon} e_s(k) / rho**k)`` where
    ``e_s(k)`` is the worst-start total variation to ``pi`` after ``k``
    steps.  One walk over each member's powers gives both; the certificate
    keeps the curves and is checked against them when built.  Beyond the
    horizon the contraction of the ``m``-th power keeps the decay geometric
    at the same rate.  This is one valid certificate, not the tightest.

    The walk takes the curve value of every power but the contraction
    coefficient only of ``m = 1`` (for ``beta``) and of ``m > horizon // 2``.
    The coefficient is submultiplicative, ``beta(PQ) <= beta(P) beta(Q)``
    (Seneta, *Non-negative Matrices and Markov Chains*), so
    ``beta_{2m} <= beta_m**2`` and the rate of any ``m <= horizon // 2`` is
    never below the rate of ``2m``; doubling reaches a power above
    ``horizon // 2``.  In exact arithmetic the minimum over the kept powers
    is the minimum over all of them.  In floating point a skipped power's
    rate can come out smaller where the coefficients reach the rounding
    floor or all rates tie (two-state kernels); the kept rate is then used.

    Parameters
    ----------
    P_list : sequence of StochasticMatrix
        Kernel family; each member must leave ``pi`` invariant.
    pi : Distribution
        Common stationary distribution (validated).
    horizon : int
        Largest power probed, at least 2.

    Raises
    ------
    NotInvariant
        If a member moves ``pi`` by more than ``STATIONARY_TOL``.
    NotSimultaneouslyErgodic
        If no power up to ``horizon`` contracts for every family member, or
        the fitted certificate fails its own curves.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if not P_list:
        raise ValueError("kernel family is empty")
    _require_invariant(pi, P_list)

    # one walk over each member's powers gives the curve value e_s(k) of every
    # power and the contraction coefficient of the powers that can set rho
    kept = [1, *range(horizon // 2 + 1, horizon + 1)]
    betas = np.empty((len(P_list), len(kept)))
    curves = np.empty((len(P_list), horizon))
    work = np.empty((2, pi.n, pi.n))
    for s, P in enumerate(P_list):
        for m, Pk in enumerate(_powers(P, horizon), start=1):
            if m in kept:
                betas[s, kept.index(m)] = _dobrushin_raw(Pk, work)
            curves[s, m - 1] = _sup_tv_to_pi(Pk, pi, work[0])
    beta_m = betas.max(axis=0)  # worst coefficient of P^m across the family

    rates = [b ** (1.0 / m) for m, b in zip(kept, beta_m) if b < 1.0]
    if not rates:
        raise NotSimultaneouslyErgodic(
            f"no power m <= {horizon} has contraction coefficient < 1 for the whole family"
        )
    rho = min(rates)

    C = 1.0
    if rho > 0.0:
        C = max(C, float(np.max(curves / rho ** np.arange(1, horizon + 1))))
    return ErgodicityConstants(C=C, rho=float(rho), beta=float(beta_m[0]), curves=curves)


# ---------------------------------------------------------------------------
# file formats


def kernel_json_text(P: StochasticMatrix, pi: Distribution | None = None) -> str:
    """A kernel file: JSON with fields ``n``, ``rows`` and optional ``pi``."""
    d = {"n": P.n, "rows": [list(map(float, row)) for row in P.rows]}
    if pi is not None:
        d["pi"] = list(map(float, pi.weights))
    return json.dumps(d, indent=2) + "\n"


def write_kernel_json(path, P: StochasticMatrix, pi: Distribution | None = None) -> None:
    """Write the kernel file :func:`kernel_json_text` makes."""
    Path(path).write_text(kernel_json_text(P, pi))


def read_kernel_json(path) -> tuple[StochasticMatrix, Distribution | None]:
    """Read a kernel file written by :func:`write_kernel_json`."""
    d = json.loads(Path(path).read_text())
    rows = np.asarray(d["rows"], dtype=np.float64)
    if rows.shape != (d["n"], d["n"]):
        raise DimensionMismatch(f"rows shape {rows.shape} does not match n={d['n']}")
    P = StochasticMatrix(rows)
    pi = Distribution(d["pi"]) if "pi" in d else None
    return P, pi
