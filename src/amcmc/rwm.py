"""Random-walk Metropolis kernels on a compact box.

Two lanes share one target and one eigenvalue-constrained proposal
covariance.  The discrete lane lays a regular grid over the box and builds
an exactly reversible transition matrix that feeds the finite-state
diagnostics; the continuous lane samples the box directly and reports the
realized acceptance probabilities, to compare with the discrete lane's
exact stationary expectation.
Proposals falling outside the box are rejected (the density is extended by
zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, GridTooLarge, NonPositiveDensity
from .kernels import (
    _CHUNK_ENTRIES,
    Distribution,
    StochasticMatrix,
    _metropolis_flux,
    _metropolis_kernel,
)
from .ledger import chain_generator

SYMMETRY_TOL = 1e-10
EIG_TOL = 1e-12
# The largest grid and the budget it keeps, measured on one 2.0 GHz Xeon core:
# ``bounds`` on two members at horizon 8 took 42 s and 0.53 GB RSS at 3000 states.
DEFAULT_STATE_CAP = 3000
STATE_CAP_BUDGET = "about 50 s and 0.6 GB of a two-member, horizon-8 bounds"


@dataclass(frozen=True, eq=False)
class CompactTarget:
    """Target density on a compact box, with its discrete-lane resolution.

    Parameters
    ----------
    d : int
        Dimension of the state space.
    bounds : array_like, shape (d, 2)
        Box bounds per coordinate.
    log_density : callable
        Map from a point of shape ``(d,)`` to the (unnormalized) log
        density; must be finite everywhere on the box.
    m : int
        Grid resolution per axis for the discrete lane (``m**d`` states,
        cell centers).
    """

    d: int
    bounds: np.ndarray
    log_density: Callable
    m: int

    def __post_init__(self):
        bounds = np.asarray(self.bounds, dtype=np.float64).reshape(self.d, 2)
        if np.any(bounds[:, 1] <= bounds[:, 0]):
            raise ValueError("box bounds must satisfy lo < hi per coordinate")
        if self.m < 2:
            raise ValueError("grid resolution must be >= 2")
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        return bool(np.all(x >= self.bounds[:, 0]) and np.all(x <= self.bounds[:, 1]))

    def log_pdf(self, x) -> float:
        """Log density extended by zero outside the box."""
        if not self.contains(x):
            return -math.inf
        return float(self.log_density(np.asarray(x, dtype=np.float64).reshape(-1)))

    @property
    def n_states(self) -> int:
        return self.m**self.d

    def grid_points(self) -> np.ndarray:
        """Cell centers of the discrete lane, shape ``(m**d, d)``."""
        axes = [
            lo + (np.arange(self.m) + 0.5) * (hi - lo) / self.m
            for lo, hi in self.bounds
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in mesh], axis=1)

    def grid_distribution(self) -> Distribution:
        """Normalized density weights on the grid (strictly positive), kept
        after the first call that succeeds.

        Raises
        ------
        NonPositiveDensity
            If the density is zero or non-finite at some grid point.
        """
        kept = self.__dict__.get("_distribution")
        if kept is not None:
            return kept
        logs = np.array([self.log_density(p) for p in self.grid_points()])
        if not np.all(np.isfinite(logs)):
            raise NonPositiveDensity("log density must be finite on the whole box")
        w = np.exp(logs - logs.max())
        dist = Distribution(w / w.sum())
        object.__setattr__(self, "_distribution", dist)
        return dist


def uniform_target(bounds, m: int) -> CompactTarget:
    bounds = np.asarray(bounds, dtype=np.float64)
    d = bounds.reshape(-1, 2).shape[0]
    return CompactTarget(d=d, bounds=bounds, log_density=lambda x: 0.0, m=m)


def truncated_gaussian_target(bounds, m: int, mean=0.0, sd=1.0) -> CompactTarget:
    bounds = np.asarray(bounds, dtype=np.float64).reshape(-1, 2)
    d = bounds.shape[0]
    mu = np.broadcast_to(np.asarray(mean, dtype=np.float64), (d,))
    s = np.broadcast_to(np.asarray(sd, dtype=np.float64), (d,))
    if np.any(s <= 0):
        raise ValueError("sd must be positive")

    def logp(x, mu=mu.copy(), s=s.copy()):
        z = (x - mu) / s
        return -0.5 * float(z @ z)

    return CompactTarget(d=d, bounds=bounds, log_density=logp, m=m)


def bimodal_mixture_target(bounds, m: int, centers, sd=0.5, weights=None) -> CompactTarget:
    """Gaussian mixture with a common ``sd``: ``centers`` lists points of ``d``
    coordinates, and ``weights`` (equal by default) one entry per center."""
    bounds = np.asarray(bounds, dtype=np.float64).reshape(-1, 2)
    d = bounds.shape[0]
    cs = [np.asarray(c, dtype=np.float64) for c in centers]
    if not cs or any(c.shape != (d,) for c in cs):
        raise ValueError(f"each center must be a list of d={d} coordinates, got {centers!r}")
    cs = np.stack(cs)
    ws = np.full(len(cs), 1.0 / len(cs)) if weights is None else np.asarray(weights, float)
    if ws.shape != (len(cs),):
        raise ValueError(f"weights must give one value per center ({len(cs)}), got {weights!r}")
    if not np.all(np.isfinite(ws) & (ws > 0)):
        raise ValueError(f"weights must be positive and finite, got {weights!r}")
    ws = ws / ws.sum()
    s = float(sd)
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"sd must be positive and finite, got {sd!r}")

    def logp(x, cs=cs.copy(), ws=ws.copy(), s=s):
        sq = ((x[None, :] - cs) ** 2).sum(axis=1)
        return float(np.log(np.sum(ws * np.exp(-0.5 * sq / s**2)) + 1e-300))

    return CompactTarget(d=d, bounds=bounds, log_density=logp, m=m)


def table_target(bounds, m: int, values) -> CompactTarget:
    """Piecewise-constant density with one strictly positive, finite value
    per grid cell, in row-major order.

    Raises
    ------
    NonPositiveDensity
        If a value is zero, negative or not finite.
    """
    bounds = np.asarray(bounds, dtype=np.float64).reshape(-1, 2)
    d = bounds.shape[0]
    values = np.asarray(values, dtype=np.float64)
    if values.size != m**d:
        raise ValueError(f"table needs {m**d} values, got {values.size}")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise NonPositiveDensity("table values must be strictly positive and finite")
    logs = np.log(values)
    lo = bounds[:, 0]
    h = (bounds[:, 1] - bounds[:, 0]) / m

    def logp(x, logs=logs, lo=lo, h=h, m=m, d=d):
        idx = np.clip(((x - lo) / h - 0.5).round().astype(int), 0, m - 1)
        return float(logs[np.ravel_multi_index(tuple(idx), (m,) * d)])

    return CompactTarget(d=d, bounds=bounds, log_density=logp, m=m)


@dataclass(frozen=True, eq=False)
class RwmParameter:
    """Proposal covariance with a certified eigenvalue range.

    Finite, symmetric within ``1e-10`` and all eigenvalues within the finite
    ``[a, b]`` (closed interval, with a small roundoff guard).
    """

    Sigma: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.Sigma, dtype=np.float64))
        if S.shape[0] != S.shape[1]:
            raise DimensionMismatch(f"covariance must be square, got {S.shape}")
        if not np.all(np.isfinite(S)):
            raise ValueError("covariance must be finite")
        if float(np.abs(S - S.T).max()) > SYMMETRY_TOL:
            raise ValueError("covariance must be symmetric within 1e-10")
        if not 0.0 < self.a < self.b < np.inf:
            raise ValueError("need 0 < a < b < inf")
        eig = np.linalg.eigvalsh(0.5 * (S + S.T))
        if eig.min() < self.a - EIG_TOL or eig.max() > self.b + EIG_TOL:
            raise ValueError(
                f"eigenvalues [{eig.min():.6g}, {eig.max():.6g}] outside [{self.a}, {self.b}]"
            )
        S = 0.5 * (S + S.T)
        S.setflags(write=False)
        object.__setattr__(self, "Sigma", S)

    @property
    def d(self) -> int:
        return self.Sigma.shape[0]

    def chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.Sigma)

    @classmethod
    def from_scalar(cls, variance: float, a: float, b: float) -> "RwmParameter":
        return cls(Sigma=np.array([[variance]]), a=a, b=b)


def _proposal_weights(target: CompactTarget, param: RwmParameter) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric proposal matrix on the grid plus the grid density weights.

    The Gaussian proposal density is evaluated at grid-point differences and
    divided by its sum over the full (translation-invariant) difference
    lattice.  The constant normalizer keeps the proposal symmetric, so the
    plain acceptance ratio ``min(1, pi(y)/pi(x))`` yields exact detailed
    balance; per-row normalization would break it at the box boundary.
    """
    if param.d != target.d:
        raise DimensionMismatch(f"covariance dimension {param.d} != target dimension {target.d}")
    points = target.grid_points()
    n = points.shape[0]
    Sinv = np.linalg.inv(param.Sigma)

    # normalizer over every difference vector of the (2m-1)^d lattice
    h = (target.bounds[:, 1] - target.bounds[:, 0]) / target.m
    axes = [np.arange(-(target.m - 1), target.m) * h[i] for i in range(target.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    diffs = np.stack([g.reshape(-1) for g in mesh], axis=1)
    lattice_norm = float(np.exp(-0.5 * np.einsum("ij,jk,ik->i", diffs, Sinv, diffs)).sum())

    q = np.empty((n, n))
    chunk = max(1, _CHUNK_ENTRIES // max(n, 1))
    buffer = np.empty((min(chunk, n), n, target.d))
    for start in range(0, n, chunk):
        block = q[start : start + chunk]
        delta = np.subtract(points[start : start + chunk, None, :], points[None, :, :],
                            out=buffer[: block.shape[0]])
        np.einsum("abj,jk,abk->ab", delta, Sinv, delta, out=block)
        block *= -0.5
        np.exp(block, out=block)
    q /= lattice_norm
    return q, target.grid_distribution().weights


def build_discrete_rwm(target: CompactTarget, param: RwmParameter) -> StochasticMatrix:
    """Exactly reversible discretization of the Metropolis kernel.

    Off-diagonal entries are ``q(x, y) * min(1, pi(y)/pi(x))`` with a
    symmetric Gaussian proposal on the grid; rejected and out-of-box mass
    sits on the diagonal.  Detailed balance with respect to the grid
    density holds to machine precision.

    Raises
    ------
    GridTooLarge
        If ``m**d`` exceeds ``DEFAULT_STATE_CAP``; the message names the
        budget the cap keeps, ``STATE_CAP_BUDGET``.
    NonPositiveDensity
        If the density is not strictly positive on the grid.
    """
    n = target.n_states
    if n > DEFAULT_STATE_CAP:
        raise GridTooLarge(
            f"{n} states exceed the cap of {DEFAULT_STATE_CAP} ({STATE_CAP_BUDGET})"
        )
    return _metropolis_kernel(*_proposal_weights(target, param))


def discrete_acceptance_expectation(target: CompactTarget, param: RwmParameter) -> float:
    """Stationary expected acceptance probability in the discrete lane.

    Out-of-box proposal mass counts as zero acceptance, matching the
    continuous lane's zero-extended density.
    """
    q, w = _proposal_weights(target, param)
    return float(w @ _metropolis_flux(q, w).sum(axis=1))


def run_rwm_chain(
    target: CompactTarget, param: RwmParameter, x0, n: int, seed
) -> dict:
    """Sample the continuous lane for ``n`` steps.

    Per step the proposal noise is drawn first, then the accept/reject
    uniform, from the chain's counter-based stream.  Returns the visited
    points, the per-step realized acceptance probabilities, and their mean.
    """
    rng = chain_generator(seed)
    x = np.asarray(x0, dtype=np.float64).reshape(-1)
    if not target.contains(x):
        raise ValueError("x0 must lie in the box")
    L = param.chol()
    logp = target.log_pdf
    lp_x = logp(x)
    points = np.empty((n + 1, target.d))
    alphas = np.empty(n)
    accepts = np.zeros(n, dtype=bool)
    points[0] = x
    for k in range(n):
        Z = rng.standard_normal(target.d)
        u = rng.random()
        y = x + L @ Z
        lp_y = logp(y)
        ratio = lp_y - lp_x
        alpha = math.exp(min(0.0, ratio)) if math.isfinite(ratio) else 0.0
        if u < alpha:
            x, lp_x = y, lp_y
            accepts[k] = True
        alphas[k] = alpha
        points[k + 1] = x
    return {
        "points": points,
        "alphas": alphas,
        "accepts": accepts,
        "mean_alpha": float(alphas.mean()) if n else 0.0,
    }
