"""Adaptation over a finite kernel family: the scheme protocol, the grid
schemes, rare adaptation schedules and waning diagnostics.

A scheme chooses the family index ``S_k`` the chain uses next.  Its one
method ``run(s0, x0, rng)`` starts a chain's index sequence as a generator:
``next()`` gives ``S_0``, and ``send(x_k)``, after the chain moved to
``x_k``, gives ``S_k``.  Everything a chain carries (a running mean, a
latent parameter, the step count, the previous state, a rare schedule)
lives in that generator, so one scheme object can drive any number of
chains, each from its own start.  Exogenous schemes
(:class:`ScheduleScheme`) also give their whole index sequence through
``index_array(n)``, which lets the lockstep studies run many replications
at once.  The grid schemes follow the adaptation rules of the supporting
theory: running-mean tracking (Haario, Saksman & Tamminen 2001),
acceptance-rate targeting (Vihola 2012) and cyclic moves at increasingly
rare times, where a rare schedule's ``run(rng)`` yields whether each step
``k = 1, 2, ...`` adapts.  :func:`waning_diagnostic` checks that the
resulting kernel-change magnitudes die out.

The ``rng`` a scheme receives is the chain's stream, and a scheme draws
from it only with ``rng.random()``, as every scheme here does, and only
while it answers a ``send``: after the step's transition uniform.  Both
chain drivers read each chain's stream in blocks; the doubles and their
order are those of one scalar draw each, so a trajectory does not depend
on the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import OutOfRangeD
from .families import KernelFamily

# ---------------------------------------------------------------------------
# rare adaptation schedules
#
# A rare schedule's ``run(rng)`` yields, for step k = 1, 2, ..., whether the
# parameter may change at that step.  It draws what it needs with
# ``rng.random()`` from the chain's stream when step k's answer is asked for,
# which is after the transition uniform of that step.


class DeterministicSchedule:
    """Adapts exactly at times ``tau_j = sum_{i<=j} n_i``, with increments
    ``n_j = increment(j)`` clamped to at least 1 so the times strictly
    increase.  Draws nothing from the stream."""

    def __init__(self, increment: Callable[[int], float]):
        self.increment = increment

    def run(self, rng=None) -> Iterator[bool]:
        for j in count(1):
            yield from repeat(False, max(1, math.ceil(self.increment(j))) - 1)
            yield True


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

    def run(self, rng) -> Iterator[bool]:
        draw, eta = rng.random, self.eta
        for k in count(1):
            yield draw() <= eta(k)


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
    power, log = 1.0 + epsilon, math.log

    def activation(k: int) -> float:
        eta = c / log(k if k > 2 else 2) ** power
        return eta if eta < 1.0 else 1.0

    return BernoulliSchedule(activation)


# ---------------------------------------------------------------------------
# adaptation schemes over finite families


class ConstantScheme:
    """Non-adaptive scheme: the parameter index never changes."""

    def run(self, s0: int, x0: int, rng) -> Iterator[int]:
        while True:
            yield s0


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

    def run(self, s0: int, x0: int, rng) -> Iterator[int]:
        for s in self._arr.tolist():
            yield s
        self.index_array(self._arr.size)  # a step past the last index: refused


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
        if not np.isfinite(self.statistic).all():
            raise ValueError("statistic must be finite")

    def run(self, s0: int, x0: int, rng) -> Iterator[int]:
        values, nearest = self.statistic.tolist(), self.family.nearest_index
        mean = 0.0
        x = yield s0
        for k in count(1):
            mean = mean + (values[x] - mean) / k
            x = yield nearest(mean)


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
        if not 0.0 <= target <= 1.0:  # a NaN fails too
            raise ValueError(f"target={target} must lie in [0, 1]")
        for name, value in (("c", c), ("exponent", exponent)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name}={value} must be positive and finite")
        self.family = family
        self.target = target
        self.c = c
        self.exponent = exponent

    def run(self, s0: int, x0: int, rng) -> Iterator[int]:
        params, c, power = self.family.params, self.c, -self.exponent
        lo, hi, nearest = min(params), max(params), self.family.nearest_index
        # moved - target for moved = 0.0 and 1.0, indexed by x != x_prev
        pull = (0.0 - self.target, 1.0 - self.target)
        t, x_prev = float(params[s0]), x0
        x = yield s0
        for k in count(1):
            t = t + c * float(k) ** power * pull[x != x_prev]
            # min(max(t, lo), hi)
            if lo > t:
                t = lo
            elif hi < t:
                t = hi
            x_prev = x
            x = yield nearest(t)


class RareCycleScheme:
    """Scheme changing the index only when its rare schedule adapts.

    At each adaptation the index advances cyclically through the family;
    between them it is frozen, so the per-step kernel change is exactly
    zero off the schedule.  ``schedule_factory`` makes a fresh schedule
    for every chain the scheme runs.
    """

    def __init__(
        self,
        family: KernelFamily,
        schedule_factory: Callable[[], DeterministicSchedule | BernoulliSchedule],
    ):
        self.family = family
        self.schedule_factory = schedule_factory

    def run(self, s0: int, x0: int, rng) -> Iterator[int]:
        size, s = self.family.size, s0
        decisions = self.schedule_factory().run(rng)
        yield s
        for adapts in decisions:
            if adapts:
                s = (s + 1) % size
            yield s


# steps of a schedule or a change series taken in one vectorized pass
_CHUNK = 2**16


def _nearest_members(family: KernelFamily, values: np.ndarray) -> np.ndarray:
    """``family.nearest_index`` of each of ``values``: one search of the
    family's interval table for all, and the scalar method off its ranges."""
    bounds, members = family._nearest_table
    i = np.searchsorted(bounds, values, side="right")
    inside = (i & 1).astype(bool)
    out = np.empty(values.shape, dtype=np.int64)
    out[inside] = np.take(members, i[inside] >> 1)
    out[~inside] = [family.nearest_index(v) for v in values[~inside].tolist()]
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
        checkpoints=cps,
        statistic=stat,
        weighted_sums=w_at,
        tail_increment=float(tail),
        decreasing=decreasing,
        waning=waning,
    )
