"""Indexed kernel families sharing one stationary distribution.

A :class:`KernelFamily` is the finite, exactly-solvable representation used
by the chain driver and the decomposition diagnostics: an explicit list of
kernels over the same state space, all leaving the same ``pi`` invariant,
optionally tagged with scalar parameter values (a parameter grid).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .kernels import (
    _CHUNK_ENTRIES,
    Distribution,
    StochasticMatrix,
    _metropolis_kernel,
    _require_invariant,
)


@dataclass(frozen=True, eq=False)
class KernelFamily:
    """Finite list of kernels over one state space with common ``pi``.

    Parameters
    ----------
    kernels : tuple of StochasticMatrix
        Family members, indexed 0..size-1.
    pi : Distribution
        Common stationary distribution: a member that moves it by more than
        ``kernels.STATIONARY_TOL`` raises :class:`NotInvariant`.
    params : tuple of float, optional
        Scalar parameter value attached to each member (a parameter grid),
        used by grid-based adaptation schemes.
    """

    kernels: tuple
    pi: Distribution
    params: tuple | None = None

    def __post_init__(self):
        kernels = tuple(self.kernels)
        if not kernels:
            raise ValueError("family must contain at least one kernel")
        n = kernels[0].n
        for idx, P in enumerate(kernels):
            if P.n != n:
                raise DimensionMismatch(f"kernel {idx} has {P.n} states, expected {n}")
        _require_invariant(self.pi, kernels)
        object.__setattr__(self, "kernels", kernels)
        if self.params is not None:
            params = tuple(float(v) for v in self.params)
            if len(params) != len(kernels):
                raise DimensionMismatch("params length must match kernel count")
            if not all(math.isfinite(v) for v in params):
                raise ValueError(f"params must be finite, got {params}")
            object.__setattr__(self, "params", params)
            # the distinct values in ascending order, each with the first
            # member that carries it (-0.0 and 0.0 are one value)
            first = {}
            for idx, v in enumerate(params):
                first.setdefault(v, idx)
            grid = sorted(first)
            object.__setattr__(self, "_grid", grid)
            object.__setattr__(self, "_grid_first", [first[v] for v in grid])

    @property
    def size(self) -> int:
        return len(self.kernels)

    @property
    def n_states(self) -> int:
        return self.kernels[0].n

    def kernel(self, s: int) -> StochasticMatrix:
        return self.kernels[s]

    def nearest_index(self, value: float) -> int:
        """Index of the first member whose parameter is closest to ``value``
        (``0`` for a NaN ``value``), as ``argmin`` over ``|p - value|``.

        One ``bisect_right`` over :attr:`_nearest_table`'s bounds answers
        most values: an odd result falls in a grid value's range.  A NaN, a
        value in a rounding tie or outside the table, and every value on a
        grid without a table take the scan below.  The rounded distance
        ``|p - value|`` falls towards ``value`` and rises past it, so the
        members at the least distance are one run of the sorted grid around
        the bisection point.  Rounding can make that run longer than one
        value (``[0.0, 1e-17, 1.0]`` at 0.5, any grid at ``inf``), so it is
        widened over every equal distance.
        """
        bounds, members = self._nearest_table
        i = bisect_right(bounds, value)
        if i & 1:
            return members[i >> 1]
        if value != value:
            return 0
        grid = self._grid
        i = bisect_left(grid, value)
        if i == len(grid) or i > 0 and value - grid[i - 1] <= grid[i] - value:
            i -= 1
        gap = abs(grid[i] - value)
        lo = hi = i
        while lo > 0 and abs(grid[lo - 1] - value) == gap:
            lo -= 1
        while hi + 1 < len(grid) and abs(grid[hi + 1] - value) == gap:
            hi += 1
        first = self._grid_first
        return first[i] if lo == hi else min(first[lo : hi + 1])

    @cached_property
    def _nearest_table(self) -> tuple[list, list]:
        """``(bounds, members)``: on ``[bounds[2i], bounds[2i+1])`` grid value
        ``i`` is strictly the nearest, and ``members[i]`` is its first member.

        Between neighbours ``a < b`` the rounded distances to ``v`` are
        monotone, so ``a`` wins on a prefix of ``[a, b]`` and ``b`` on a
        suffix; bisection finds both ends, and the floats between them tie.
        Every other grid value lies beyond a neighbour, farther by at least
        the least gap, which keeps the rounded distances apart when it exceeds
        twice their rounding unit at twice the span: the ranges reach one
        span beyond the grid's ends.  Otherwise the table is empty.
        """
        if self.params is None:
            raise ValueError("family has no parameter grid")
        grid = self._grid
        span = grid[-1] - grid[0]
        ends = grid[0] - span, grid[-1] + span
        least_gap = min((b - a for a, b in zip(grid, grid[1:])), default=math.inf)
        if not (all(map(math.isfinite, ends)) and least_gap > 2.0 * math.ulp(2.0 * span)):
            return [], []
        bounds = [ends[0]]
        for a, b in zip(grid, grid[1:]):
            bounds.append(_first_float(a, b, lambda v: not v - a < b - v))
            bounds.append(_first_float(a, b, lambda v: b - v < v - a))
        bounds.append(ends[1])
        return bounds, self._grid_first


def _first_float(a: float, b: float, holds) -> float:
    """The first float in ``(a, b]`` where ``holds``, a predicate false at
    ``a`` and true from some float up to ``b``, is true."""
    while math.nextafter(a, b) < b:
        mid = a + (b - a) / 2
        if not a < mid < b:
            mid = math.nextafter(a, b)
        a, b = (a, mid) if holds(mid) else (mid, b)
    return b


def cyclic_pair() -> KernelFamily:
    """Three-state pair of individually ergodic kernels that cycle in
    opposite directions.

    Both leave ``pi = (1/2, 1/4, 1/4)`` invariant and are irreducible and
    aperiodic, yet alternating between them from state 1 (0-based) locks the
    chain into the deterministic orbit 1, 2, 1, 2, ... so ergodic averages
    need not converge under alternation.
    """
    P_fwd = StochasticMatrix(
        [
            [0.5, 0.5, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
        ]
    )
    P_bwd = StochasticMatrix(
        [
            [0.5, 0.0, 0.5],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )
    pi = Distribution([0.5, 0.25, 0.25])
    return KernelFamily(kernels=(P_fwd, P_bwd), pi=pi, params=(0.0, 1.0))


def iid_family(pi: Distribution) -> KernelFamily:
    """Single kernel drawing each state independently from ``pi``."""
    rows = np.tile(pi.weights, (pi.n, 1))
    return KernelFamily(kernels=(StochasticMatrix._adopt(rows),), pi=pi)


def mixture_family(
    P: StochasticMatrix, Q: StochasticMatrix, pi: Distribution, count: int
) -> KernelFamily:
    """Convex mixtures ``(1-t) P + t Q`` over an evenly spaced ``t`` grid."""
    if count < 2:
        raise ValueError("count must be >= 2")
    ts = np.linspace(0.0, 1.0, count)
    kernels = tuple(StochasticMatrix._adopt((1.0 - t) * P.rows + t * Q.rows) for t in ts)
    return KernelFamily(kernels=kernels, pi=pi, params=tuple(ts))


def smoothed_family(family: KernelFamily, epsilon: float) -> KernelFamily:
    """Mix every member with the iid kernel: ``(1-eps) P + eps * 1 pi^T``.

    Restores a strictly positive one-step overlap (contraction coefficient
    below one) while preserving ``pi``-invariance.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    iid_rows = np.tile(family.pi.weights, (family.n_states, 1))
    kernels = tuple(
        StochasticMatrix._adopt((1.0 - epsilon) * P.rows + epsilon * iid_rows)
        for P in family.kernels
    )
    return KernelFamily(kernels=kernels, pi=family.pi, params=family.params)


def _symmetrise(q: np.ndarray) -> np.ndarray:
    """``q + q.T`` written over ``q``: each ``q[i, j] + q[j, i]`` is formed in
    row blocks of ``_CHUNK_ENTRIES`` and written to both entries, so no
    ``n x n`` temporary is taken."""
    n = q.shape[0]
    step = max(1, _CHUNK_ENTRIES // n)
    buffer = np.empty((min(step, n), n))
    for a in range(0, n, step):
        b = min(a + step, n)
        # rows a..b-1 from column a on; the columns left of a are done
        pair_sums = np.add(q[a:b, a:], q[a:, a:b].T, out=buffer[: b - a, : n - a])
        q[a:b, a:] = pair_sums
        q[a:, a:b] = pair_sums.T
    return q


def random_metropolis_kernel(pi: Distribution, rng: np.random.Generator) -> StochasticMatrix:
    """Random kernel in detailed balance with ``pi``: the Metropolis kernel of
    a random symmetric positive proposal.  Every move into a state of
    positive weight has positive probability; one of zero weight, none.
    The build peaks near one ``n x n`` array."""
    q = _symmetrise(rng.uniform(0.1, 1.0, size=(pi.n, pi.n)))
    q /= q.sum(axis=1, keepdims=True).max()
    return _metropolis_kernel(q, pi.weights)


def random_metropolis_family(pi: Distribution, count: int, seed: int) -> KernelFamily:
    """Family of :func:`random_metropolis_kernel` draws sharing ``pi``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    kernels = tuple(random_metropolis_kernel(pi, rng) for _ in range(count))
    return KernelFamily(kernels=kernels, pi=pi)


def random_positive_kernel(n: int, rng: np.random.Generator) -> StochasticMatrix:
    """Random strictly positive kernel (rows drawn from a Dirichlet)."""
    rows = rng.dirichlet(np.ones(n), size=n) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    return StochasticMatrix._adopt(rows)
