"""Adaptation dynamics: constrained stochastic-approximation updates,
mean-field increments for covariance and acceptance-rate tuning, rare
update schedules, and waning diagnostics.

The update rule is ``S_k = S_{k-1} + gamma_k H_k`` with the candidate either
rejected (increment zeroed) or projected back when it leaves the feasible
set, so the move size never exceeds ``gamma_k * ||H_k||``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NonFiniteIncrement,
    OutOfRangeD,
    ShapeMismatch,
    ZeroNoiseVector,
)

SYMMETRY_TOL = 1e-10
# absorbs eigendecomposition roundoff in feasibility checks
EIG_TOL = 1e-12


def power_gamma(c: float = 1.0, exponent: float = 1.0) -> Callable[[int], float]:
    """Step-size rule ``gamma_k = c * k**-exponent`` (nonincreasing for
    ``exponent >= 0``)."""
    if c <= 0:
        raise ValueError("c must be positive")
    return lambda k: c * float(k) ** (-exponent)


def constant_gamma(c: float) -> Callable[[int], float]:
    """Constant step-size rule."""
    if c <= 0:
        raise ValueError("c must be positive")
    return lambda k: c


@dataclass(frozen=True)
class ParameterSpace:
    """Feasible set for the adapted parameter.

    ``kind="finite"`` is an index set ``{0, ..., size-1}``.
    ``kind="eigenbox"`` is the set of symmetric ``d x d`` matrices (scalars
    for ``d=1``) with all eigenvalues in ``[a, b]``, ``0 < a < b``.
    Membership uses the closed interval; symmetry is checked to ``1e-10``
    and eigenvalue bounds carry a ``1e-12`` roundoff guard.
    """

    kind: str
    size: int = 0
    a: float = 0.0
    b: float = 0.0
    d: int = 1

    def __post_init__(self):
        if self.kind not in ("finite", "eigenbox"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "finite" and self.size < 1:
            raise ValueError("finite space needs size >= 1")
        if self.kind == "eigenbox" and not 0.0 < self.a < self.b < math.inf:
            raise ValueError("eigenbox needs 0 < a < b < inf")

    def contains(self, S) -> bool:
        if self.kind == "finite":
            return isinstance(S, (int, np.integer)) and 0 <= int(S) < self.size
        S = np.asarray(S, dtype=np.float64)
        if S.ndim == 0:
            return bool(self.a - EIG_TOL <= float(S) <= self.b + EIG_TOL)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            return False
        if float(np.abs(S - S.T).max()) > SYMMETRY_TOL:
            return False
        eig = np.linalg.eigvalsh(0.5 * (S + S.T))
        return bool(eig.min() >= self.a - EIG_TOL and eig.max() <= self.b + EIG_TOL)

    def project(self, S):
        """Clamp into the feasible set (eigenvalue clamp in the eigenbasis).

        This is the Euclidean projection onto the eigenbox, so the distance
        moved never exceeds the distance to any feasible point.
        """
        if self.kind == "finite":
            return int(np.clip(int(S), 0, self.size - 1))
        S = np.asarray(S, dtype=np.float64)
        if S.ndim == 0:
            return float(np.clip(float(S), self.a, self.b))
        sym = 0.5 * (S + S.T)
        eig, vecs = np.linalg.eigh(sym)
        clamped = np.clip(eig, self.a, self.b)
        return (vecs * clamped) @ vecs.T


@dataclass(frozen=True)
class SAState:
    """Stochastic-approximation state: parameter, step count, step rule."""

    S: object
    k: int
    gamma_schedule: Callable[[int], float]


def sa_step(state: SAState, H, space: ParameterSpace, mode: str = "reject") -> SAState:
    """One constrained update ``S <- S + gamma_k H``.

    ``mode="reject"`` keeps the previous parameter when the candidate
    leaves the feasible set (the increment is zeroed); ``mode="project"``
    clamps the candidate's eigenvalues into the box.  Either way
    ``||S_k - S_{k-1}|| <= gamma_k * ||H||``.
    """
    if mode not in ("reject", "project"):
        raise ValueError(f"unknown mode {mode!r}")
    H_arr = np.asarray(H, dtype=np.float64)
    if not np.all(np.isfinite(H_arr)):
        raise NonFiniteIncrement("increment contains NaN or infinity")
    S_arr = np.asarray(state.S, dtype=np.float64)
    if H_arr.shape != S_arr.shape:
        raise ShapeMismatch(f"increment shape {H_arr.shape} != parameter shape {S_arr.shape}")
    k_next = state.k + 1
    gamma = float(state.gamma_schedule(k_next))
    if gamma <= 0:
        raise ValueError("step sizes must be positive")
    candidate = S_arr + gamma * H_arr
    if space.contains(candidate):
        new_S = candidate
    elif mode == "reject":
        new_S = S_arr
    else:
        new_S = space.project(candidate)
    if S_arr.ndim == 0:
        new_S = float(new_S)
    return SAState(S=new_S, k=k_next, gamma_schedule=state.gamma_schedule)


def am_field(X, mu, Sigma) -> tuple:
    """Mean/second-moment tracking increment ``(X - mu, X X^T - Sigma)``.

    With step sizes ``1/k`` this reproduces the running sample mean and
    second moment exactly.
    """
    X_arr = np.asarray(X, dtype=np.float64)
    mu_arr = np.asarray(mu, dtype=np.float64)
    Sigma_arr = np.asarray(Sigma, dtype=np.float64)
    if X_arr.shape != mu_arr.shape:
        raise ShapeMismatch(f"state shape {X_arr.shape} != mean shape {mu_arr.shape}")
    if X_arr.ndim == 0:
        if Sigma_arr.ndim != 0:
            raise ShapeMismatch("scalar state needs scalar second moment")
        return float(X_arr - mu_arr), float(X_arr * X_arr - Sigma_arr)
    outer = np.outer(X_arr, X_arr)
    if outer.shape != Sigma_arr.shape:
        raise ShapeMismatch(f"outer product shape {outer.shape} != {Sigma_arr.shape}")
    return X_arr - mu_arr, outer - Sigma_arr


def ram_field(Z, alpha: float, alpha_star: float, S):
    """Acceptance-rate-driven rank-one increment.

    Returns ``(alpha - alpha_star) * S (Z Z^T / ||Z||^2) S^T``; symmetric,
    rank at most one, and zero exactly when the realized acceptance
    probability hits the target.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    Z_arr = np.asarray(Z, dtype=np.float64)
    nsq = float(np.sum(Z_arr * Z_arr))
    if nsq == 0.0:
        raise ZeroNoiseVector("noise vector must be nonzero")
    S_arr = np.asarray(S, dtype=np.float64)
    if Z_arr.ndim == 0 or Z_arr.size == 1:
        return float((alpha - alpha_star) * float(S_arr) ** 2)
    if S_arr.shape != (Z_arr.size, Z_arr.size):
        raise ShapeMismatch(f"factor shape {S_arr.shape} incompatible with noise size {Z_arr.size}")
    direction = np.outer(Z_arr, Z_arr) / nsq
    return (alpha - alpha_star) * (S_arr @ direction @ S_arr.T)


# ---------------------------------------------------------------------------
# rare adaptation schedules


class RareSchedule:
    """Schedule deciding when the parameter may change.

    ``kind="deterministic"`` adapts exactly at times ``tau_j = sum_{i<=j}
    n_i`` with increments ``n_j = increment(j)`` clamped to at least 1 so
    the times are strictly increasing.  ``kind="bernoulli"`` adapts at step
    ``k`` when an independent uniform falls below the activation
    probability ``eta_k``.

    Single-owner: the cached adaptation times mutate as they are extended,
    so one instance should drive one chain.
    """

    def __init__(
        self,
        kind: str,
        increment: Callable[[int], float] | None = None,
        activation: Callable[[int], float] | None = None,
    ):
        if kind not in ("deterministic", "bernoulli"):
            raise ValueError(f"unknown schedule kind {kind!r}")
        if kind == "deterministic" and increment is None:
            raise ValueError("deterministic schedule needs an increment rule")
        if kind == "bernoulli" and activation is None:
            raise ValueError("bernoulli schedule needs activation probabilities")
        self.kind = kind
        self.increment = increment
        self.activation = activation
        self._taus: list[int] = []
        self._tau_set: set[int] = set()

    def _extend_taus(self, k: int) -> None:
        while not self._taus or self._taus[-1] < k:
            j = len(self._taus) + 1
            step = max(1, math.ceil(self.increment(j)))
            tau = (self._taus[-1] if self._taus else 0) + step
            self._taus.append(tau)
            self._tau_set.add(tau)

    def adaptation_times(self, up_to: int) -> list[int]:
        """Adaptation times ``tau_j <= up_to`` (deterministic kind only)."""
        if self.kind != "deterministic":
            raise ValueError("adaptation times are only predetermined for deterministic schedules")
        self._extend_taus(up_to)
        return [t for t in self._taus if t <= up_to]

    def eta(self, k: int) -> float:
        value = float(self.activation(k))
        if not 0.0 < value <= 1.0:
            raise ValueError(f"activation probability eta_{k}={value} outside (0, 1]")
        return value


def next_adaptation_decision(sched: RareSchedule, k: int, u: float | None = None) -> bool:
    """Decide whether step ``k`` adapts.

    Deterministic schedules adapt exactly at their precomputed times;
    Bernoulli schedules adapt when ``u <= eta_k``.  ``u`` is required only
    for the Bernoulli kind.
    """
    if k < 1:
        raise ValueError("step index must be >= 1")
    if sched.kind == "deterministic":
        sched._extend_taus(k)
        return k in sched._tau_set
    if u is None:
        raise ValueError("bernoulli schedule needs a uniform draw")
    return u <= sched.eta(k)


def log_increment_schedule(c: float = 2.0, epsilon: float = 0.1) -> RareSchedule:
    """Deterministic schedule with slowly growing gaps
    ``n_j = max(1, ceil(c * log(j)**(1+epsilon)))``."""
    if c <= 0 or epsilon <= 0:
        raise ValueError("c and epsilon must be positive")
    return RareSchedule(
        kind="deterministic",
        increment=lambda j: c * math.log(j) ** (1.0 + epsilon),
    )


def bernoulli_log_schedule(c: float = 1.0, epsilon: float = 0.1) -> RareSchedule:
    """Bernoulli schedule with activation ``eta_k = min(1, c / log(k)**(1+epsilon))``.

    ``log(max(k, 2))`` guards the first step.
    """
    if c <= 0 or epsilon <= 0:
        raise ValueError("c and epsilon must be positive")
    return RareSchedule(
        kind="bernoulli",
        activation=lambda k: min(1.0, c / math.log(max(k, 2)) ** (1.0 + epsilon)),
    )


# ---------------------------------------------------------------------------
# waning diagnostics


@dataclass(frozen=True, eq=False)
class WaningReport:
    """Diagnostics for cumulative kernel-change magnitudes.

    ``statistic[i] = n_i**-p * sum_{k<=n_i} D_k`` at the checkpoints;
    ``weighted_sums[i] = sum_{k<=n_i} D_k / k**p``.  ``tail_increment`` is
    the mean per-step increment of the weighted sum over the trailing 10%
    of the series, a numerical convergence measure for the weighted series.
    """

    D_series: np.ndarray
    partial_sums: np.ndarray
    p: float
    checkpoints: np.ndarray
    statistic: np.ndarray
    weighted_sums: np.ndarray
    tail_increment: float
    decreasing: bool
    waning: bool


def default_checkpoints(n: int) -> np.ndarray:
    """Logarithmic checkpoints: powers of 10 up to ``n``, plus ``n``."""
    cps = [10**j for j in range(1, 1 + int(math.log10(n)))] if n >= 10 else []
    if not cps or cps[-1] != n:
        cps.append(n)
    return np.asarray(cps, dtype=np.int64)


def waning_diagnostic(
    D_series, p: float, checkpoints: Sequence[int] | None = None
) -> WaningReport:
    """Summarize whether cumulative kernel changes die out at rate ``p``.

    Flags the series as waning when the checkpoint statistic
    ``n**-p sum D_k`` is identically zero or strictly decreasing; a
    statistic that stays flat and positive (constant change magnitudes) is
    flagged as non-waning.
    """
    D = np.asarray(D_series, dtype=np.float64).reshape(-1)
    if D.size == 0:
        raise ValueError("empty series")
    if np.any(D < 0.0) or np.any(D > 1.0):
        raise OutOfRangeD("change magnitudes must lie in [0, 1]")
    if p <= 0:
        raise ValueError("p must be positive")
    n = D.size
    partial = np.cumsum(D)
    ks = np.arange(1, n + 1, dtype=np.float64)
    weighted = np.cumsum(D / ks**p)
    cps = default_checkpoints(n) if checkpoints is None else np.asarray(sorted(checkpoints))
    if cps[0] < 1 or cps[-1] > n:
        raise ValueError("checkpoints must lie in [1, len(D)]")
    stat = partial[cps - 1] / cps.astype(np.float64) ** p
    w_at = weighted[cps - 1]
    window = max(1, n // 10)
    start = n - window
    tail = (weighted[-1] - (weighted[start - 1] if start >= 1 else 0.0)) / window
    decreasing = bool(np.all(np.diff(stat) < 0.0)) if stat.size > 1 else False
    waning = bool(stat[-1] == 0.0 or (decreasing and stat[-1] < stat[0]))
    return WaningReport(
        D_series=D,
        partial_sums=partial,
        p=float(p),
        checkpoints=cps,
        statistic=stat,
        weighted_sums=w_at,
        tail_increment=float(tail),
        decreasing=decreasing,
        waning=waning,
    )
