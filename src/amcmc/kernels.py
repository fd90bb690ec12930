"""Finite-state Markov kernels and their contraction properties.

Kernels are row-stochastic matrices over a finite state space.  This module
provides total-variation geometry (distances between measures, between
kernels, and the one-step contraction coefficient), stationary-distribution
solving, and a geometric-ergodicity certificate ``(C, rho)`` fitted from
powers of the contraction coefficient and checked against its own curves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    CertificateOverflow,
    DimensionMismatch,
    NonUnique,
    NotInvariant,
    NotIrreducible,
    NotSimultaneouslyErgodic,
)

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
BOUND_TOL = 1e-10
# entries in each chunk of a kernel build's elementwise temporaries
_CHUNK_ENTRIES = 1 << 15


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
        object.__setattr__(self, "rows", _as_readonly(_checked_rows(self.rows)))

    @classmethod
    def _adopt(cls, rows: np.ndarray) -> StochasticMatrix:
        """The matrix over ``rows``, a fresh float64 array that a builder hands
        over: checked as the constructor checks, then set read-only and kept
        rather than copied."""
        rows = _checked_rows(rows)
        rows.setflags(write=False)
        P = object.__new__(cls)
        object.__setattr__(P, "rows", rows)
        return P

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def _checked_rows(a) -> np.ndarray:
    """``a`` as float64, refused unless it is a square, finite, row-stochastic
    matrix as :class:`StochasticMatrix` defines one; the checks take no
    ``n x n`` temporary."""
    rows = np.asarray(a, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1] or rows.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {rows.shape}")
    lo, hi = float(rows.min()), float(rows.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):  # a NaN is neither
        raise ValueError("transition probabilities must be finite")
    if lo < -ROW_SUM_TOL or hi > 1.0 + ROW_SUM_TOL:
        raise ValueError("transition probabilities must lie in [0, 1]")
    worst = np.max(np.abs(rows.sum(axis=1) - 1.0))
    if worst > ROW_SUM_TOL:
        raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, worst error {worst:.3e}")
    return rows


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


def _row_tv(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """``d_tv`` between matching rows of ``a`` and ``b`` (last axis), worked
    out in ``out``: the one subtract, abs, contiguous sum and halving that
    every distance in this module takes, so equal rows give equal bits."""
    diff = np.subtract(a, b, out=out)
    return 0.5 * np.abs(diff, out=diff).sum(axis=-1)


def max_tv_between_kernels(P: StochasticMatrix, Q: StochasticMatrix) -> float:
    """Worst-case row total variation ``max_x d_tv(P(x,.), Q(x,.))``.

    For finite kernel families this is the exact per-step kernel-change
    magnitude used by the waning diagnostics.
    """
    if P.n != Q.n:
        raise DimensionMismatch(f"state counts differ: {P.n} vs {Q.n}")
    return float(_row_tv(P.rows, Q.rows).max())


def dobrushin_coefficient(P: StochasticMatrix) -> float:
    """One-step contraction coefficient ``max_{x,y} d_tv(P(x,.), P(y,.))``.

    Contracts total variation: ``d_tv(mu P, nu P) <= beta * d_tv(mu, nu)``.

    The maximum is exact: a search over row pairs skips only the pairs that
    one of two upper bounds rules out, and every other pair's distance is
    the all-pairs form's subtract, abs, contiguous sum and halving, so the
    result equals the all-pairs maximum bit for bit.

    - *Mean row.*  The triangle inequality through the mean row ``c`` gives
      ``d_tv(P(x,.), P(y,.)) <= e_x + e_y`` with ``e_x = d_tv(P(x,.), c)``.
      Rows are searched by decreasing ``e_x``, row 0 against every other
      row first, which seeds the best value; every later pair then lies
      among the rows that can still pair with row 1, and each row's
      partners are a leading slice of the rows after it.
    - *Doeblin (column minima).*  ``d_tv(p, q) = (A_p + A_q) / 2 -
      sum_z min(p_z, q_z)`` for rows with sums ``A_p``, ``A_q``, so any two
      rows of a set are at most the largest row sum less the sum of the
      set's column minima apart (Seneta, *Non-negative Matrices and Markov
      Chains*, 3.1).  With a floor, the bound over all rows can settle the
      search before the seed row; after it, the bound over the rows that
      can still pair settles most searches at once.

    Otherwise a row loop takes each row ``i`` from 1 on: it stops once
    Doeblin's bound over rows ``i..`` or row ``i``'s mean-row bound rules
    out every pair left, and else works out row ``i``'s distances to its
    partners in one pass.  A pair is skipped only when its bound falls below
    the best value by more than a rounding slack: ``64 * n * eps`` covers
    the rounding of the computed distances and of ``e_x``, and the Doeblin
    bound's two sums, each of ``n`` terms whose magnitudes add to at most 2,
    add ``4 n eps``.  The search stops as soon as a pair at distance 1 is
    found.

    Memory is two ``n x n`` blocks (the rows in search order and the
    distances), which a caller taking many searches lends, plus ``O(n)``.
    Time is ``O(n**2)`` for the seed row and both bounds, plus ``O(n)`` for
    each pair the bounds leave.  The far rows of a truncated-Gaussian random
    walk share the mass where the walk lingers, so on such kernels and
    their powers up to 12 (OpenBLAS, one thread) Doeblin's bound settles most
    searches after the seed row: ``beta`` takes about 0.25 ms at 200 states
    and 6 ms at 1000.  The rest take the row loop: a narrow proposal's
    (variance 0.05) third power 2 and 220 ms, and kernels whose rows share
    almost no mass, such as cyclic bands, 5 ms and 0.7-0.8 s, and
    Dirichlet(0.05) rows 6 ms and 0.8 s.
    """
    return _dobrushin_raw(P.rows)


_EPS = float(np.finfo(np.float64).eps)


def _dobrushin_raw(rows: np.ndarray, work: np.ndarray | None = None, floor: float = 0.0) -> float:
    """``max(floor, beta)`` for the coefficient ``beta`` of ``rows``, worked out
    in ``work`` (two ``n x n`` blocks, lent by a caller taking many: a freed
    block goes back to the OS and is faulted in again on the next call).

    ``floor`` seeds the best value.  While ``beta`` exceeds it the best value
    stays at most ``beta``, so the pair attaining ``beta`` is never pruned; a
    floor of 1, or one that ``e[0] + e[1]`` or Doeblin's bound over all rows
    misses by more than the slack, is returned before any pair is worked out."""
    n = rows.shape[0]
    if n == 1 or floor >= 1.0:
        return max(floor, 0.0)
    block, ordered = np.empty((2, n, n)) if work is None else work
    e = _row_tv(rows, rows.mean(axis=0), out=block)
    # rows by decreasing distance to the pivot: the pairs most likely to be
    # far apart come first, and each row's partners are a leading slice
    order = np.argsort(-e, kind="stable")
    e = e[order]
    slack = 64 * n * _EPS
    if e[0] + e[1] < floor - slack:
        return floor
    # Doeblin: two rows of a set share at least its column minima, and
    # d_tv(p, q) = (A_p + A_q) / 2 - sum_z min(p_z, q_z), so no pair of the
    # set is farther apart than the largest row sum less the minima's sum;
    # `top` is raised past the rounding of both sums (n terms adding to at most 2)
    top = float(rows.sum(axis=1).max()) + 4 * n * _EPS
    if floor > 0.0 and top - float(rows.min(axis=0).sum()) < floor - slack:
        return floor
    # mode="clip" writes straight into `ordered` (the default buffers a copy);
    # `order` is a permutation, so nothing is clipped
    rows = np.take(rows, order, axis=0, out=ordered, mode="clip")
    neg_e = -e  # ascending, for searchsorted
    best = max(floor, float(_row_tv(rows[0], rows[1:], out=block[: n - 1]).max()))
    if best >= 1.0:
        return 1.0
    # partners j > i >= 1 with e[i] + e[j] > best - slack all lie below row 1's stop
    hi = int(np.searchsorted(neg_e, e[1] - (best - slack), side="left"))
    if hi <= 2 or top - float(rows[1:hi].min(axis=0).sum()) < best - slack:
        return best
    # shared[i - 1]: the column minima's sum over rows i..hi - 1, which hold
    # every pair row i and the rows after it can still work out
    low = np.minimum.accumulate(rows[hi - 1 : 0 : -1], axis=0, out=block[: hi - 1])
    shared = low.sum(axis=1)[::-1]
    for i in range(1, hi - 1):
        stop = int(np.searchsorted(neg_e, e[i] - (best - slack), side="left"))
        if stop <= i + 1 or top - shared[i - 1] < best - slack:
            break  # every pair left computes below best
        far = _row_tv(rows[i], rows[i + 1 : stop], out=block[: stop - i - 1])
        best = max(best, float(far.max()))
        if best >= 1.0:
            return 1.0
    return best


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
    ``q`` under target weights ``w``, written over ``q`` in row chunks of
    ``_CHUNK_ENTRIES``; a zero-weight state accepts every move."""
    n = q.shape[0]
    step = max(1, _CHUNK_ENTRIES // max(n, 1))
    buffer = np.empty((min(step, n), n))
    for a in range(0, n, step):
        accept = buffer[: min(step, n - a)]
        with np.errstate(divide="ignore", invalid="ignore"):  # zero-weight rows are reset
            np.divide(w[None, :], w[a : a + step, None], out=accept)
        accept[w[a : a + step] <= 0.0] = 1.0
        np.minimum(accept, 1.0, out=accept)
        np.multiply(accept, q[a : a + step], out=q[a : a + step])
    return q


def _metropolis_kernel(q: np.ndarray, w: np.ndarray) -> StochasticMatrix:
    """The flux of :func:`_metropolis_flux` off the diagonal, the rejected mass on
    it, written over ``q``, which the kernel keeps."""
    P = _metropolis_flux(q, w)
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return StochasticMatrix._adopt(P)


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


def sup_tv_to_pi_curve(P: StochasticMatrix, pi: Distribution, horizon: int) -> np.ndarray:
    """Worst-start convergence curve ``e(k) = max_x d_tv(P^k(x,.), pi)``.

    Returns the values for ``k = 1..horizon``.  Unlike a certificate it
    needs no power to contract.
    """
    if pi.n != P.n:
        raise DimensionMismatch(f"length mismatch: {pi.n} vs {P.n}")
    scratch = np.empty((P.n, P.n))
    return np.array([_row_tv(Pk, pi.weights, out=scratch).max() for Pk in _powers(P, horizon)])


def fit_ergodicity_constants(
    P_list: Sequence[StochasticMatrix], pi: Distribution, horizon: int
) -> ErgodicityConstants:
    """Fit a uniform geometric-ergodicity certificate for a kernel family.

    The rate is ``rho = min_m (max_s beta(P_s^m))**(1/m)`` over powers
    ``m <= horizon`` whose worst contraction coefficient is below one,
    leaving out a rate that rounds to 0 unless every curve value is 0 (such
    a rate admits no ``C``); the constant is
    ``C = max(1, max_{s,k<=horizon} e_s(k) / rho**k)`` where ``e_s(k)`` is
    the worst-start total variation to ``pi`` after ``k`` steps.  One walk
    over each member's powers gives both; the certificate keeps the curves
    and is checked against them when built.  Beyond the
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

    Only ``max_s beta(P_s^m)`` matters, so the members are walked slowest
    first (decreasing ``e_s(1)``, a stable sort) and each search starts from
    the largest coefficient found so far at its power.  A search returns
    ``max(floor, beta(P_s^m))`` bit for bit, so the result keeps its bits in
    any order; the order changes only the cost.

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
    CertificateOverflow
        If ``C`` exceeds the float range: a curve stays at its rounding
        floor while ``rho**k`` underflows.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if not P_list:
        raise ValueError("kernel family is empty")
    _require_invariant(pi, P_list)

    # one walk over each member's powers gives the curve value e_s(k) of every
    # power and the contraction coefficient of the powers that can set rho
    kept = [1, *range(horizon // 2 + 1, horizon + 1)]
    beta_m = np.zeros(len(kept))  # worst coefficient of P^m across the family
    curves = np.empty((len(P_list), horizon))
    work = np.empty((2, pi.n, pi.n))
    for s, P in enumerate(P_list):
        curves[s, 0] = _row_tv(P.rows, pi.weights, out=work[0]).max()
    for s in np.argsort(-curves[:, 0], kind="stable"):
        for m, Pk in enumerate(_powers(P_list[s], horizon), start=1):
            if m in kept:
                i = kept.index(m)
                beta_m[i] = _dobrushin_raw(Pk, work, floor=beta_m[i])
            if m > 1:
                curves[s, m - 1] = _row_tv(Pk, pi.weights, out=work[0]).max()

    rates = [b ** (1.0 / m) for m, b in zip(kept, beta_m) if b < 1.0]
    if not rates:
        raise NotSimultaneouslyErgodic(
            f"no power m <= {horizon} has contraction coefficient < 1 for the whole family"
        )
    positive = [r for r in rates if r > 0.0]
    rho = min(positive) if positive and curves.any() else min(rates)

    C = 1.0
    if rho > 0.0:
        # rho**k underflows at a fast rate and a long horizon; a curve of 0
        # constrains nothing, and any other ratio past the float range
        # leaves no certificate
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratios = curves / rho ** np.arange(1, horizon + 1)
        C = max(C, float(np.max(ratios, where=curves > 0.0, initial=0.0)))
        if C == np.inf:
            raise CertificateOverflow(
                f"C = max e(k) / rho**k overflows: rho={rho:.6g} at horizon={horizon}"
            )
    return ErgodicityConstants(C=C, rho=float(rho), beta=float(beta_m[0]), curves=curves)


# ---------------------------------------------------------------------------
# file formats


def kernel_json_text(P: StochasticMatrix, pi: Distribution | None = None) -> str:
    """A kernel file: JSON with fields ``n``, ``rows`` and optional ``pi``."""
    d = {"n": P.n, "rows": [list(map(float, row)) for row in P.rows]}
    if pi is not None:
        d["pi"] = list(map(float, pi.weights))
    return json.dumps(d, indent=2) + "\n"


def read_kernel_json(path, check_n=None) -> tuple[StochasticMatrix, Distribution | None]:
    """Read a kernel file in the format :func:`kernel_json_text` makes.

    ``check_n``, given, sees the file's ``n`` before any array is built and
    may refuse it by raising."""
    d = json.loads(Path(path).read_text())
    if check_n is not None:
        check_n(d["n"])
    rows = np.asarray(d["rows"], dtype=np.float64)
    if rows.shape != (d["n"], d["n"]):
        raise DimensionMismatch(f"rows shape {rows.shape} does not match n={d['n']}")
    P = StochasticMatrix._adopt(rows)
    pi = Distribution(d["pi"]) if "pi" in d else None
    return P, pi
