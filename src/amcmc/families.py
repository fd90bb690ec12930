"""Indexed kernel families sharing one stationary distribution.

A :class:`KernelFamily` is the finite, exactly-solvable representation used
by the chain driver and the decomposition diagnostics: an explicit list of
kernels over the same state space, all leaving the same ``pi`` invariant,
optionally tagged with scalar parameter values (a parameter grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .kernels import Distribution, StochasticMatrix, is_stationary_for

# stationary validation after float mixing/products
FAMILY_PI_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class KernelFamily:
    """Finite list of kernels over one state space with common ``pi``.

    Parameters
    ----------
    kernels : tuple of StochasticMatrix
        Family members, indexed 0..size-1.
    pi : Distribution
        Common stationary distribution; validated for every member.
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
            if not is_stationary_for(self.pi, P, tol=FAMILY_PI_TOL):
                raise ValueError(f"kernel {idx} does not leave pi invariant")
        object.__setattr__(self, "kernels", kernels)
        if self.params is not None:
            params = tuple(float(v) for v in self.params)
            if len(params) != len(kernels):
                raise DimensionMismatch("params length must match kernel count")
            if not all(math.isfinite(v) for v in params):
                raise ValueError(f"params must be finite, got {params}")
            object.__setattr__(self, "params", params)

    @property
    def size(self) -> int:
        return len(self.kernels)

    @property
    def n_states(self) -> int:
        return self.kernels[0].n

    def kernel(self, s: int) -> StochasticMatrix:
        return self.kernels[s]

    def nearest_index(self, value: float) -> int:
        """Index of the grid parameter closest to ``value``."""
        if self.params is None:
            raise ValueError("family has no parameter grid")
        gaps = [abs(p - value) for p in self.params]
        return gaps.index(min(gaps))

    @classmethod
    def from_builder(cls, builder, params, pi: Distribution | None = None) -> "KernelFamily":
        """Materialize a parametric generator over a grid of parameter values.

        ``builder`` maps a parameter value to a :class:`StochasticMatrix`;
        ``pi`` defaults to the stationary distribution of the first member.
        """
        from .kernels import stationary_distribution

        params = tuple(params)
        if not params:
            raise ValueError("parameter grid is empty")
        kernels = tuple(builder(v) for v in params)
        if pi is None:
            pi = stationary_distribution(kernels[0])
        return cls(kernels=kernels, pi=pi, params=tuple(float(v) for v in params))


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
    return KernelFamily(kernels=(StochasticMatrix(rows),), pi=pi)


def mixture_family(
    P: StochasticMatrix, Q: StochasticMatrix, pi: Distribution, count: int
) -> KernelFamily:
    """Convex mixtures ``(1-t) P + t Q`` over an evenly spaced ``t`` grid."""
    if count < 2:
        raise ValueError("count must be >= 2")
    ts = np.linspace(0.0, 1.0, count)
    kernels = tuple(StochasticMatrix((1.0 - t) * P.rows + t * Q.rows) for t in ts)
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
        StochasticMatrix((1.0 - epsilon) * P.rows + epsilon * iid_rows)
        for P in family.kernels
    )
    return KernelFamily(kernels=kernels, pi=family.pi, params=family.params)


def random_metropolis_kernel(pi: Distribution, rng: np.random.Generator) -> StochasticMatrix:
    """Random strictly positive kernel leaving ``pi`` invariant.

    Draws a random symmetric positive proposal matrix and applies the usual
    acceptance ratio, which gives detailed balance with respect to ``pi``
    and strictly positive off-diagonal entries.
    """
    n = pi.n
    raw = rng.uniform(0.1, 1.0, size=(n, n))
    q = raw + raw.T
    q = q / q.sum(axis=1, keepdims=True).max()
    w = pi.weights
    accept = np.minimum(1.0, np.where(w[:, None] > 0, w[None, :] / w[:, None], 1.0))
    P = q * accept
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return StochasticMatrix(P)


def random_metropolis_family(pi: Distribution, count: int, seed: int) -> KernelFamily:
    """Family of :func:`random_metropolis_kernel` draws sharing ``pi``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    kernels = tuple(random_metropolis_kernel(pi, rng) for _ in range(count))
    return KernelFamily(kernels=kernels, pi=pi)


def random_positive_kernel(n: int, rng: np.random.Generator) -> StochasticMatrix:
    """Random strictly positive kernel (rows drawn from a Dirichlet)."""
    rows = rng.dirichlet(np.ones(n), size=n) + 1e-3
    rows = rows / rows.sum(axis=1, keepdims=True)
    return StochasticMatrix(rows)
