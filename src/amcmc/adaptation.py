"""Adaptation over a finite kernel family: the scheme protocol, the grid
schemes, rare adaptation schedules and waning diagnostics.

A scheme chooses the family index ``S_k`` the chain uses next.  It exposes
``start(s0, rng)``, returning ``S_0``, and ``step(k, x_prev, x_new, s_prev,
rng)``, returning ``S_k`` after the chain moved from ``x_prev`` to
``x_new``.  Exogenous schemes (:class:`ScheduleScheme`) also give their
whole index sequence through ``index_array(n)``, which lets the lockstep
studies run many replications at once.  The grid schemes follow the
adaptation rules of the supporting theory: running-mean tracking (Haario,
Saksman & Tamminen 2001), acceptance-rate targeting (Vihola 2012) and
cyclic moves at increasingly rare times, where a rare schedule answers
``adapts(k, rng)``.  :func:`waning_diagnostic` checks that the resulting
kernel-change magnitudes die out.

The ``rng`` a scheme receives is the chain's stream, and a scheme draws
from it only with ``rng.random()``, as every scheme here does.  Both chain
drivers read each chain's stream in blocks; the doubles and their order are
those of one scalar draw each, so a trajectory does not depend on the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OutOfRangeD
from .families import KernelFamily

# ---------------------------------------------------------------------------
# rare adaptation schedules
#
# A rare schedule answers one question, ``adapts(k, rng)``: may the
# parameter change at step ``k``?  It draws what it needs with
# ``rng.random()`` from the chain's stream, after the transition uniform of
# that step.


class DeterministicSchedule:
    """Adapts exactly at times ``tau_j = sum_{i<=j} n_i``, with increments
    ``n_j = increment(j)`` clamped to at least 1 so the times strictly
    increase.  Draws nothing from the stream.

    Single-owner: the cached adaptation times mutate as they are extended,
    so one instance should drive one chain.
    """

    def __init__(self, increment: Callable[[int], float]):
        self.increment = increment
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
        """Adaptation times ``tau_j <= up_to``."""
        self._extend_taus(up_to)
        return [t for t in self._taus if t <= up_to]

    def adapts(self, k: int, rng) -> bool:
        self._extend_taus(k)
        return k in self._tau_set


class BernoulliSchedule:
    """Adapts at step ``k`` when one uniform drawn from the stream is at
    most the activation probability ``eta_k = activation(k)``."""

    def __init__(self, activation: Callable[[int], float]):
        self.activation = activation

    def eta(self, k: int) -> float:
        value = float(self.activation(k))
        if not 0.0 < value <= 1.0:
            raise ValueError(f"activation probability eta_{k}={value} outside (0, 1]")
        return value

    def adapts(self, k: int, rng) -> bool:
        return rng.random() <= self.eta(k)


def log_increment_schedule(c: float = 2.0, epsilon: float = 0.1) -> DeterministicSchedule:
    """Deterministic schedule with slowly growing gaps
    ``n_j = max(1, ceil(c * log(j)**(1+epsilon)))``."""
    if not (0 < c < math.inf and 0 < epsilon < math.inf):
        raise ValueError("c and epsilon must be positive and finite")
    return DeterministicSchedule(lambda j: c * math.log(j) ** (1.0 + epsilon))


def bernoulli_log_schedule(c: float = 1.0, epsilon: float = 0.1) -> BernoulliSchedule:
    """Bernoulli schedule with activation ``eta_k = min(1, c / log(k)**(1+epsilon))``.

    ``log(max(k, 2))`` guards the first step.
    """
    if not (0 < c < math.inf and 0 < epsilon < math.inf):
        raise ValueError("c and epsilon must be positive and finite")
    return BernoulliSchedule(lambda k: min(1.0, c / math.log(max(k, 2)) ** (1.0 + epsilon)))


# ---------------------------------------------------------------------------
# adaptation schemes over finite families


class ConstantScheme:
    """Non-adaptive scheme: the parameter index never changes."""

    def start(self, s0: int, rng) -> int:
        return s0

    def step(self, k: int, x_prev: int, x_new: int, s_prev: int, rng) -> int:
        return s_prev


class ScheduleScheme:
    """Exogenous scheme following a fixed index sequence ``s_0, s_1, ...``."""

    def __init__(self, indices: Sequence[int]):
        self._arr = np.asarray(indices, dtype=np.int64)
        if self._arr.ndim != 1 or self._arr.size == 0:
            raise ValueError("schedule indices must be a non-empty sequence")

    def index_array(self, n: int) -> np.ndarray:
        """The indices ``s_0, ..., s_n``."""
        if self._arr.size < n + 1:
            raise ValueError(f"schedule has {self._arr.size} indices, steps 0..{n} need {n + 1}")
        return self._arr[: n + 1]

    def start(self, s0: int, rng) -> int:
        return int(self._arr[0])

    def step(self, k: int, x_prev: int, x_new: int, s_prev: int, rng) -> int:
        return int(self._arr[k])


class MeanTrackingScheme:
    """Covariance-estimation-style scheme on a parameter grid.

    Tracks the running mean of a per-state statistic with step sizes
    ``1/k`` (so the estimate equals the exact sample mean) and selects the
    grid member nearest the estimate.  Adaptation moves shrink at rate
    ``1/k``, so kernel changes die out.
    """

    def __init__(self, family: KernelFamily, statistic):
        if family.params is None:
            raise ValueError("scheme needs a parameter grid")
        self.family = family
        self.statistic = np.asarray(statistic, dtype=np.float64)
        if self.statistic.shape[0] != family.n_states:
            raise ValueError("statistic must assign a value per state")
        self._mean = 0.0

    def start(self, s0: int, rng) -> int:
        self._mean = 0.0
        return s0

    def step(self, k: int, x_prev: int, x_new: int, s_prev: int, rng) -> int:
        self._mean += (float(self.statistic[x_new]) - self._mean) / k
        return self.family.nearest_index(self._mean)


class RateTargetScheme:
    """Acceptance-rate-style scheme on a parameter grid.

    Runs a projected scalar update ``t <- clip(t + gamma_k (moved - target))``
    with ``gamma_k = c * k**(-2/3)`` by default, where ``moved`` indicates
    that the chain left its previous state, and selects the nearest grid
    member.
    """

    def __init__(
        self,
        family: KernelFamily,
        target: float = 0.234,
        c: float = 1.0,
        exponent: float = 2.0 / 3.0,
    ):
        if family.params is None:
            raise ValueError("scheme needs a parameter grid")
        self.family = family
        self.target = target
        self.c = c
        self.exponent = exponent
        self._lo = min(family.params)
        self._hi = max(family.params)
        self._t = self._lo

    def start(self, s0: int, rng) -> int:
        self._t = float(self.family.params[s0])
        return s0

    def step(self, k: int, x_prev: int, x_new: int, s_prev: int, rng) -> int:
        gamma = self.c * float(k) ** (-self.exponent)
        moved = 1.0 if x_new != x_prev else 0.0
        self._t = min(max(self._t + gamma * (moved - self.target), self._lo), self._hi)
        return self.family.nearest_index(self._t)


class RareCycleScheme:
    """Scheme changing the index only when its rare schedule adapts.

    At each adaptation the index advances cyclically through the family;
    between them it is frozen, so the per-step kernel change is exactly
    zero off the schedule.  ``schedule_factory`` makes a fresh schedule
    for every chain the scheme starts.
    """

    def __init__(
        self,
        family: KernelFamily,
        schedule_factory: Callable[[], DeterministicSchedule | BernoulliSchedule],
    ):
        self.family = family
        self.schedule_factory = schedule_factory
        self._sched = None

    def start(self, s0: int, rng) -> int:
        self._sched = self.schedule_factory()
        return s0

    def step(self, k: int, x_prev: int, x_new: int, s_prev: int, rng) -> int:
        return (s_prev + 1) % self.family.size if self._sched.adapts(k, rng) else s_prev


# steps of a schedule or a change series taken in one vectorized pass
_CHUNK = 2**16


def _nearest_members(family: KernelFamily, values: np.ndarray) -> np.ndarray:
    """``family.nearest_index`` of each of ``values`` (no NaN): one bisection
    for all, and the scalar method where a neighbour lies as near."""
    grid, first = np.unique(family.params, return_index=True)  # first member of each value
    top = grid.size - 1
    i = np.searchsorted(grid, values)
    below, above = np.maximum(i - 1, 0), np.minimum(i, top)
    i = np.where((i > top) | (i > 0) & (values - grid[below] <= grid[above] - values), below, i)
    gap = np.abs(grid[i] - values)
    tied = (i > 0) & (np.abs(grid[np.maximum(i - 1, 0)] - values) == gap)
    tied |= (i < top) & (np.abs(grid[np.minimum(i + 1, top)] - values) == gap)
    out = first[i]
    out[tied] = [family.nearest_index(v) for v in values[tied].tolist()]
    return out


def converging_index_schedule(
    family: KernelFamily,
    s0: int,
    n: int,
    c: float = 0.5,
    exponent: float = 1.5,
) -> tuple[ScheduleScheme, int]:
    """Deterministic schedule with summable step sizes, hence a settled limit.

    The latent parameter follows ``t_k = clip(t_{k-1} + c k**-exponent)``
    over the grid range; because ``sum_k c k**-exponent`` is finite the
    index stops changing after finitely many steps.  Returns the scheme and
    the limit index.
    """
    if family.params is None:
        raise ValueError("schedule needs a parameter grid")
    if not 1.0 < exponent < math.inf:
        raise ValueError(f"exponent={exponent} must be finite and exceed 1 to be summable")
    if not math.isfinite(c):
        raise ValueError(f"c={c} must be finite")
    # The increments share a sign, so clipping the monotone partial sums
    # once is clipping after each step.  numpy's power can round otherwise.
    t0, lo, hi = float(family.params[s0]), min(family.params), max(family.params)
    idx = np.empty(n + 1, dtype=np.int64)
    for a in range(0, n + 1, _CHUNK):
        ks = range(a, min(a + _CHUNK, n + 1))
        t = np.fromiter((c * float(k) ** -exponent if k else t0 for k in ks), float, len(ks))
        if a:  # seeded with the running sum: a whole-schedule cumsum's additions
            t[0] += total
        with np.errstate(over="ignore"):
            total = np.cumsum(t, out=t)[-1]
        idx[a : a + _CHUNK] = _nearest_members(family, t.clip(lo, hi, out=t))
    idx[0] = s0
    return ScheduleScheme(idx), int(idx[-1])


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
    if not (D.min() >= 0 and D.max() <= 1):  # a NaN fails both
        raise OutOfRangeD("change magnitudes must lie in [0, 1]")
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    n = D.size
    cps = default_checkpoints(n) if checkpoints is None else np.asarray(sorted(checkpoints))
    if cps[0] < 1 or cps[-1] > n:
        raise ValueError("checkpoints must lie in [1, len(D)]")
    window = max(1, n // 10)
    # running sums of D_k and D_k / k**p, kept only at the checkpoints and the tail's ends
    ends = np.append(cps, [n - window, n])
    sums = np.zeros((2, ends.size))
    for a in range(0, n, _CHUNK):
        d = D[a : a + _CHUNK]
        chunk = np.stack([d, d / np.arange(a + 1, a + 1 + d.size, dtype=np.float64) ** p])
        if a:  # seeded with the running sums: a whole-series cumsum's additions
            chunk[:, 0] += chunk_end
        np.cumsum(chunk, axis=1, out=chunk)
        chunk_end = chunk[:, -1].copy()
        inside = (ends > a) & (ends <= a + d.size)
        sums[:, inside] = chunk[:, ends[inside] - a - 1]
    stat = sums[0, :-2] / cps.astype(np.float64) ** p
    w_at = sums[1, :-2]
    tail = (sums[1, -1] - sums[1, -2]) / window
    # a cumulative sum of k nonnegative terms is off by at most about
    # k * eps of itself, so a smaller drop of the statistic is roundoff
    slack = np.finfo(np.float64).eps * cps * stat
    drops = np.diff(stat) < -(slack[:-1] + slack[1:])
    decreasing = bool(np.all(drops)) if stat.size > 1 else False
    waning = bool(stat[-1] == 0.0 or (decreasing and stat[-1] < stat[0]))
    return WaningReport(
        p=float(p),
        checkpoints=cps,
        statistic=stat,
        weighted_sums=w_at,
        tail_increment=float(tail),
        decreasing=decreasing,
        waning=waning,
    )
