"""Adaptive chain driver and the exact three-term decomposition of
ergodic-average error.

For a trajectory ``(S_k, X_k)`` and a test function ``phi``, the centered
partial sums split exactly into a martingale term ``M_n`` built from the
Poisson solutions, an adaptation term ``A_n`` collecting the perturbation
from kernel changes, and a telescoping remainder ``R_n``:

``sum_{k<=n} [phi(X_k) - pi(phi)] = M_n + A_n + R_n``.

On a finite state space every ingredient is computable exactly, so the
identities here are assertable to floating-point accuracy rather than
estimated.  The Poisson solutions are one table per trajectory or schedule
(:func:`poisson_table`): dense ``(members, states)`` arrays read by
``[S, X]``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Sequence

import numpy as np

from .adaptation import ScheduleScheme
from .errors import DegenerateVariance, DobrushinViolation, SchemeEscape
from .families import KernelFamily
from .kernels import dobrushin_coefficient, max_tv_between_kernels
from .poisson import TestFunction, clt_variance, solve_poisson_exact

# ---------------------------------------------------------------------------
# random streams
#
# Reproducibility contract: the chain with seed material ``s`` draws from
# Generator(Philox(SeedSequence(s))), one counter-based stream per chain.
# Per step the transition uniform is drawn first, then any draws the
# adaptation scheme requires, in that order.  Replication r of a CLT study
# with root seed ``s`` uses SeedSequence(entropy=s, spawn_key=(r,)); an LLN
# study runs one chain per seed it is given.
#
# The chain driver reads a stream ``_STREAM_BLOCK`` doubles at a time, the
# lockstep ensemble in blocks sized from its replication count.  Philox's
# bulk fill yields the doubles of that many scalar ``random()`` calls in the
# same order, so a trajectory does not depend on the block length.

_STREAM_BLOCK = 4096


def chain_generator(seed) -> np.random.Generator:
    """Counter-based stream for one chain (int seed or SeedSequence)."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


class ChainStream:
    """The stream of the chain with seed material ``seed``, read in blocks:
    ``random()`` returns the next double of ``chain_generator(seed)``.
    Schemes and rare schedules draw only through it."""

    def __init__(self, seed):
        rng = chain_generator(seed)
        blocks = iter(lambda: rng.random(_STREAM_BLOCK).tolist(), None)
        self.random = itertools.chain.from_iterable(blocks).__next__


# ---------------------------------------------------------------------------
# chain driver


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Realized adaptive chain: states and parameter indices.

    ``X`` and ``S`` both have ``n + 1`` entries including the initial pair;
    the transition producing ``X_k`` used kernel index ``S[k-1]``.
    """

    X: np.ndarray
    S: np.ndarray
    n: int

    def __post_init__(self):
        if self.X.shape[0] != self.n + 1 or self.S.shape[0] != self.n + 1:
            raise ValueError("X and S must have n + 1 entries")


def _cum_table(P) -> np.ndarray:
    """Inverse-CDF table of kernel ``P``, flat: entry ``x * n_states + j`` is
    the cumsum of row ``x`` up to column ``j``, the last pinned to 1.  A
    kernel with a negative entry, which ``StochasticMatrix`` admits down to
    -1e-12, takes the cumsum's running maximum, so that no row decreases
    before its pinned end; on any other kernel the maximum changes nothing
    and its buffered pass is skipped."""
    cum = np.cumsum(P.rows, axis=1)
    if P.rows.min() < 0.0:
        np.maximum.accumulate(cum, axis=1, out=cum)
    cum[:, -1] = 1.0  # pin against roundoff so inverse CDF always lands
    return cum.reshape(-1)


def run_adaptive_chain(
    family: KernelFamily, scheme, x0: int, s0: int, n: int, seed
) -> Trajectory:
    """Simulate ``X_{k+1} ~ P_{S_k}(X_k, .)`` with the scheme updating ``S``.

    Transitions use inverse-CDF sampling over the kernel row.  The chain's
    indices come from the generator ``scheme.run(s0, x0, stream)``: its
    first value is ``S_0``, and each step sends it the new state ``X_k``
    and takes ``S_k``.  Per step the transition uniform is drawn first,
    then the scheme's own draws, from the chain's single counter-based
    stream, so runs are bit-reproducible given the seed.  The scheme
    receives the stream as an object whose ``random()`` returns the next
    uniform.

    Raises
    ------
    SchemeEscape
        If the scheme produces an index outside the family.
    """
    if not 0 <= x0 < family.n_states:
        raise ValueError(f"x0={x0} outside state space")
    size = family.size
    if not 0 <= s0 < size:
        raise ValueError(f"s0={s0} outside family")
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    stream = ChainStream(seed)
    draw = stream.random
    x = int(x0)
    indices = scheme.run(s0, x, stream)
    s = int(next(indices))
    if not 0 <= s < size:
        raise SchemeEscape(f"scheme start index {s} outside family")
    # bisect reads a row of the flat table in place: its probes over
    # [lo, lo + n_states) are those over the row alone, shifted by lo.
    # ``entry <= u`` holds on a prefix of the row, and the pinned last
    # entry 1.0 exceeds every uniform, so the index stays below n_states.
    # A member's table is built when the chain first enters it.
    member_table = cache(lambda i: memoryview(_cum_table(family.kernel(i))))
    cum = member_table(s)
    n_states = family.n_states
    X = [x]
    S = [s]
    append_x, append_s, send = X.append, S.append, indices.send
    for k in range(1, n + 1):
        lo = x * n_states
        x_new = bisect_right(cum, draw(), lo, lo + n_states) - lo
        s_new = send(x_new)
        if s_new != s:
            s = int(s_new)
            if not 0 <= s < size:
                raise SchemeEscape(f"scheme produced index {s} outside family at step {k}")
            cum = member_table(s)
        append_x(x_new)
        append_s(s)
        x = x_new
    return Trajectory(X=np.array(X, dtype=np.int64), S=np.array(S, dtype=np.int64), n=n)


# ---------------------------------------------------------------------------
# exact decomposition


def _check_in_family(indices, family: KernelFamily) -> None:
    """Raise SchemeEscape unless every index lies in ``[0, family.size)``;
    a NumPy gather would wrap a negative index silently."""
    indices = np.asarray(indices)
    outside = indices[(indices < 0) | (indices >= family.size)]
    if outside.size:
        raise SchemeEscape(f"index {outside[0]} outside family [0, {family.size})")


@dataclass(frozen=True, eq=False)
class PoissonTable:
    """Poisson solutions ``g[s]`` of member ``s``, with ``Pg[s] = P_s g_s``
    and ``Pg2[s] = P_s g_s**2``: ``(family.size, n_states)`` arrays whose
    rows of unsolved members are NaN."""

    g: np.ndarray
    Pg: np.ndarray
    Pg2: np.ndarray


def poisson_table(family: KernelFamily, phi: TestFunction, indices) -> PoissonTable:
    """One exact solve per distinct index of ``indices``; SchemeEscape if
    one lies outside the family."""
    _check_in_family(indices, family)
    g, Pg, Pg2 = np.full((3, family.size, family.n_states), np.nan)
    for s in np.unique(indices).tolist():
        P = family.kernel(s)
        sol = solve_poisson_exact(P, family.pi, phi)
        g[s] = sol.g
        Pg[s] = sol.Pg
        Pg2[s] = P.rows @ (sol.g**2)
    return PoissonTable(g=g, Pg=Pg, Pg2=Pg2)


@dataclass(frozen=True, eq=False)
class DecompositionLedger:
    """Per-step terms of the exact decomposition along one trajectory.

    ``M + A + R`` equals ``centered_sums`` (the centered partial sums of
    the observable) up to floating-point accumulation; ``R`` telescopes to
    the two boundary terms; ``D`` holds the exact worst-case row total
    variation between consecutive kernels; ``cond_var`` the exact one-step
    conditional variance of the martingale difference.
    """

    Delta: np.ndarray
    M: np.ndarray
    A: np.ndarray
    R: np.ndarray
    D: np.ndarray
    cond_var: np.ndarray
    centered_sums: np.ndarray
    solutions: PoissonTable = field(repr=False)

    def identity_residuals(self) -> np.ndarray:
        """Per-prefix gap ``|M_k + A_k + R_k - centered_sums_k|``."""
        return np.abs(self.M + self.A + self.R - self.centered_sums)

    def telescope_residuals(self, traj: Trajectory) -> np.ndarray:
        """Per-prefix gap between ``R_k`` and its closed two-term form."""
        Pg = self.solutions.Pg
        closed = Pg[traj.S[0], traj.X[0]] - Pg[traj.S[1:], traj.X[1:]]
        return np.abs(self.R - closed)

    def table(self, traj: Trajectory) -> tuple:
        """``(header, columns)``: per step ``k = 1..n`` of ``traj``, ``X_k``,
        ``S_k`` and the step's terms."""
        return (["k", "x", "s_index", "delta", "M", "A", "R", "D", "cond_var"],
                [np.arange(1, traj.n + 1), traj.X[1:], traj.S[1:], self.Delta, self.M, self.A,
                 self.R, self.D, self.cond_var])

    def summary(self) -> dict:
        """Endpoint diagnostics at both normalizations.

        The ``/n`` scalings matter for laws of large numbers, the
        ``/sqrt(n)`` scalings for the distributional limit, so both are
        reported."""
        n = self.M.shape[0]
        root = float(np.sqrt(n))
        out = {"n": n, "max_identity_residual": float(self.identity_residuals().max())}
        for name, series in (("M", self.M), ("A", self.A), ("R", self.R)):
            out[name] = float(series[-1])
            out[f"{name}_over_n"] = float(series[-1] / n)
            out[f"{name}_over_sqrt_n"] = float(series[-1] / root)
        return out


def decompose(traj: Trajectory, family: KernelFamily, phi: TestFunction) -> DecompositionLedger:
    """Compute every term of the decomposition exactly along a trajectory.

    The Poisson solutions are one exact solve per distinct index; an index
    outside the family raises SchemeEscape.
    """
    table = poisson_table(family, phi, traj.S)
    S_prev, S_next = traj.S[:-1], traj.S[1:]
    X_prev, X_next = traj.X[:-1], traj.X[1:]

    Pg_prev = table.Pg[S_prev, X_prev]
    g_moved = table.g[S_prev, X_next]
    delta = g_moved - Pg_prev
    a_terms = table.g[S_next, X_next] - g_moved
    r_terms = Pg_prev - table.Pg[S_next, X_next]
    cond_var = table.Pg2[S_prev, X_prev] - Pg_prev**2

    # exact kernel-change magnitudes, one per distinct (from, to) pair;
    # zero whenever the index is unchanged
    D = np.zeros(traj.n)
    changed = np.nonzero(S_next != S_prev)[0]
    pairs, at = np.unique(S_prev[changed] * family.size + S_next[changed], return_inverse=True)
    tv = [max_tv_between_kernels(family.kernel(to), family.kernel(frm))
          for frm, to in (divmod(key, family.size) for key in pairs.tolist())]
    D[changed] = np.asarray(tv)[at]

    centered = np.cumsum(phi.values[X_next] - phi.mean_under_pi)
    return DecompositionLedger(
        Delta=delta,
        M=np.cumsum(delta),
        A=np.cumsum(a_terms),
        R=np.cumsum(r_terms),
        D=D,
        cond_var=cond_var,
        centered_sums=centered,
        solutions=table,
    )


def martingale_check(
    traj: Trajectory, ledger: DecompositionLedger, family: KernelFamily
) -> dict:
    """Verify the martingale structure of the differences exactly.

    Recomputes the conditional mean and conditional second moment of each
    difference by direct row sums over the driving kernel and compares the
    second moment against the ledger's conditional-variance column.
    Returns the worst absolute deviations.
    """
    table = ledger.solutions
    S_prev = traj.S[:-1]
    X_prev, X_next = traj.X[:-1], traj.X[1:]
    cond_mean = np.empty(traj.n)
    cond_var_direct = np.empty(traj.n)
    for s in np.unique(S_prev):
        s = int(s)
        mask = S_prev == s
        x = X_prev[mask]
        # one row sum per distinct visited state, not per step
        visited, at_step = np.unique(x, return_inverse=True)
        rows = family.kernel(s).rows[visited]
        g = table.g[s]
        row_g = (rows @ g)[at_step]
        row_g2 = (rows @ (g**2))[at_step]
        Pg_x = table.Pg[s, x]
        cond_mean[mask] = row_g - Pg_x
        cond_var_direct[mask] = row_g2 - 2.0 * Pg_x * row_g + Pg_x**2
    return {
        "max_abs_cond_mean": float(np.abs(cond_mean).max()),
        "max_abs_cond_var_gap": float(np.abs(cond_var_direct - ledger.cond_var).max()),
        "max_abs_delta": float(np.abs(ledger.Delta).max()),
    }


# ---------------------------------------------------------------------------
# vectorized ensemble over deterministic index schedules
#
# Column r of the uniform block holds the next draws of the stream for
# seed material r, so a single chain run with the same seed and schedule
# visits exactly the same states.  Its rows are as many whole sub-blocks as
# fit ``_U_BUDGET`` doubles, at least one and at most ``_STREAM_BLOCK``:
# at most 2 MB up to R = 1024, and 20 MB at R = 10**4.
#
# Each step finds, for every replication, the first entry of its row's
# cumsum that exceeds its uniform: ``bisect_right``'s index.  A row of
# ``_cum_table`` never decreases before its pinned last entry 1.0, which
# exceeds every uniform in [0, 1), so ``entry <= u`` holds on a prefix of the
# row and fails on the rest, even where roundoff lifts earlier cumsums above
# 1.0.  Any search for that boundary returns the same index, and so does a
# count of the entries ``<= u``.  The steps run in sub-blocks of at most
# ``_SUB_BLOCK``, by one of two paths chosen once per run from ``n_states``
# and the replication count R:
#
# - Next-state table, when ``n_states <= _TABLE_MAX_STATES`` and ``R *
#   n_states * (n_states - 1) <= _TABLE_MAX_COMPARES``.  A sub-block first
#   counts, for each of its steps, replications and states, the row entries
#   ``<= u``: that many compares per step, in ``n_states - 1`` passes over
#   the whole sub-block.  Each step is then one gather of R entries.  Its
#   sub-blocks are the largest power of two of steps, at most ``_SUB_BLOCK``,
#   whose int64 table and visited states and int8 counts and compares fit
#   ``_U_BUDGET`` doubles, so they divide the uniform block's rows.
# - Lockstep bisection otherwise, ``O(R log n_states)`` per step.  All
#   replications share one window length, halved each round until one
#   entry is left (``ceil(log2(n_states))`` rounds), while each moves its
#   own window start.  A round is three NumPy calls on buffers made once
#   per sub-block: gather each start's probe entry, compare it with ``u``,
#   add ``below * half`` (an add through a boolean mask was about 3x slower
#   at R = 1000).
#
# The table's build grows with ``n_states**2`` per replication, while
# bisection's cost is mostly per step.  On the compare budget, in the sweep
# kept in BENCH_lockstep_halving.json, the table ran 12-28% faster than
# bisection on 8 to 16 states and 13-19% slower on 2 to 4 (R >= 500).
#
# Each path leaves a sub-block's running phi sums in the rows of its spent
# uniforms, where the recorded prefixes are read.  Bisection adds each
# step's phi values as it goes, as a per-step ``+=`` would.  The table
# path, whose steps are single gathers, writes the sub-block's states to
# one ``(steps, R)`` buffer and sums them with one cumsum down the rows,
# seeded with the running sums: the same additions in the same order, so
# the sums are bit-identical.

_TABLE_MAX_STATES = 16
_SUB_BLOCK = 256
_U_BUDGET = 2**18
_TABLE_MAX_COMPARES = 6000


def _uses_table(n_states: int, R: int) -> bool:
    """Whether an ensemble of ``R`` replications on ``n_states`` states
    advances by next-state table rather than lockstep bisection."""
    return n_states <= _TABLE_MAX_STATES and R * n_states * (n_states - 1) <= _TABLE_MAX_COMPARES


def _table_sub_block(n_states: int, R: int) -> int:
    """Steps per advance of the next-state table: a power of two, at most
    ``_SUB_BLOCK``, whose scratch fits ``_U_BUDGET`` doubles (or one step)."""
    per_step = R * (n_states + 1) + -(-R * n_states // 4)
    fit = max(_U_BUDGET // per_step, 1)
    return min(1 << (fit.bit_length() - 1), _SUB_BLOCK)


def _halving_probes(flats, n_states):
    """``(probes, halves)`` of a lockstep bisection over the flat cumsum
    tables ``flats``: round ``i`` halves a window of ``ceil(n_states / 2**i)``
    entries by ``halves[i]``, and ``probes[s][i]`` is ``flats[s][halves[i] - 1:]``."""
    halves = [-(-n_states >> i) // 2 for i in range((n_states - 1).bit_length())]
    return [[flat[half - 1 :] for half in halves] for flat in flats], halves


def _bisection_steps(n_states, probes, halves, phi_vals, steps, U, states, sums):
    """Advance ``states`` through a sub-block whose step ``j`` draws ``U[j]``
    from kernel ``steps[j]``, by lockstep bisection over
    :func:`_halving_probes`.  The running phi sums, seeded with ``sums``,
    overwrite the spent uniforms.  Returns the last states."""
    R = U.shape[1]
    pos, vals, below = np.empty(R, dtype=np.int64), np.empty(R), np.empty(R, dtype=bool)
    for s, u in zip(steps.tolist(), U):
        row = states * n_states
        pos[:] = row
        # probes stay inside the table: clip never acts, and spares take a copy
        for probe, half in zip(probes[s], halves):
            probe.take(pos, out=vals, mode="clip")
            np.less_equal(vals, u, out=below)
            pos += below * half
        states = pos - row
        sums = np.add(sums, phi_vals[states], out=u)
    return states


def _table_steps(by_column, table, visited, phi_vals, steps, U, states, sums):
    """Advance ``states`` through a sub-block whose step ``j`` draws ``U[j]``
    from kernel ``steps[j]``, by next-state table; ``by_column[c][s]`` is
    column ``c`` of member ``s``'s cumsum table, and ``table`` and
    ``visited`` are scratch of ``(steps, n_states, R)`` and ``(steps, R)``
    for at least the sub-block's steps.  The sums are those of
    :func:`_bisection_steps`.
    Returns the last states."""
    m, R = U.shape
    n_states = by_column.shape[0]
    # counts[j, x, r] = #{c < n_states - 1 : cum_j[x, c] <= U[j, r]}; with
    # R innermost every compare runs over a contiguous row of uniforms
    counts = np.zeros((m, n_states, R), dtype=np.int8)
    below = np.empty((m, n_states, R), dtype=bool)
    u = U[:, None, :]
    for column in by_column[:-1]:
        np.less_equal(column[steps][:, :, None], u, out=below)
        counts += below.view(np.int8)
    # table[j] maps position x * R + r to the next one, count * R + r
    table = table[:m]
    np.multiply(counts, R, out=table, dtype=np.int64)
    table += np.arange(R)
    table = table.reshape(m, n_states * R)
    # positions and states are always in range, so clip never acts; it
    # spares take a buffered copy of out
    visited = visited[:m]
    pos = states * R + np.arange(R)
    for j in range(m):
        pos = table[j].take(pos, out=visited[j], mode="clip")
    visited //= R
    # seeded with the running sums, one cumsum down the rows makes the
    # additions of a per-step += in the same order
    phi_vals.take(visited, out=U, mode="clip")
    U[0] += sums
    np.cumsum(U, axis=0, out=U)
    return visited[-1].copy()


def ensemble_schedule_run(
    family: KernelFamily,
    indices: np.ndarray,
    phi: TestFunction,
    n: int,
    seed_seqs: Sequence,
    x0: int,
    record_prefixes: Sequence[int] | None = None,
):
    """Advance many replications in lockstep under one index schedule.

    Returns per-replication sums ``sum_{k<=n} phi(X_k)``, optionally the
    running sums recorded at ``record_prefixes`` (an array of shape
    ``(len(prefixes), R)``), and the final states.  Small state spaces with
    few replications advance one gather per step through a next-state
    table, the rest by lockstep bisection at ``O(R log n_states)`` per
    step; both give the same states and sums.  A scheduled index outside
    the family raises SchemeEscape; an ``x0`` outside the state space,
    ``indices`` without an entry per step, or ``record_prefixes`` not
    strictly increasing within ``[1, n]`` raises ValueError.
    """
    if not 0 <= x0 < family.n_states:
        raise ValueError(f"x0={x0} outside state space")
    _check_in_family(indices, family)
    prefixes = [] if record_prefixes is None else [int(k) for k in record_prefixes]
    if not all(a < b for a, b in zip([0, *prefixes], [*prefixes, n + 1])):
        raise ValueError(f"record_prefixes must increase strictly within [1, {n}]")
    schedule = np.asarray(indices, dtype=np.int64)
    if schedule.shape[0] < n:
        raise ValueError(f"indices must cover steps 0..{n - 1}, got {schedule.shape[0]} entries")
    R = len(seed_seqs)
    streams = [chain_generator(ss) for ss in seed_seqs]
    rows = min(max(_U_BUDGET // max(R, 1) // _SUB_BLOCK * _SUB_BLOCK, _SUB_BLOCK), _STREAM_BLOCK)
    U = np.empty((min(n, rows), R))
    n_states = family.n_states
    flats = [_cum_table(P) for P in family.kernels]
    if _uses_table(n_states, R):
        sub = _table_sub_block(n_states, R)
        by_column = np.stack(flats).reshape(-1, n_states, n_states).transpose(2, 0, 1)
        table = np.empty((min(n, sub), n_states, R), dtype=np.int64)
        visited = np.empty((min(n, sub), R), dtype=np.int64)
        advance = partial(_table_steps, by_column, table, visited, phi.values)
    else:
        sub = _SUB_BLOCK
        advance = partial(_bisection_steps, n_states, *_halving_probes(flats, n_states), phi.values)
    states = np.full(R, x0, dtype=np.int64)
    phi_sums = np.zeros(R)
    recorded = np.empty((len(prefixes), R)) if prefixes else None
    next_record = 0
    for k in range(1, n + 1, sub):
        j = (k - 1) % rows
        if j == 0:
            block = min(rows, n - k + 1)
            for i, rng in enumerate(streams):
                U[:block, i] = rng.random(block)
        m = min(sub, n - k + 1)
        # row i of the spent uniforms comes back as the sums after step k + i
        spent = U[j : j + m]
        states = advance(schedule[k - 1 : k - 1 + m], spent, states, phi_sums)
        phi_sums = spent[-1].copy()
        while next_record < len(prefixes) and prefixes[next_record] < k + m:
            recorded[next_record] = spent[prefixes[next_record] - k]
            next_record += 1
    return phi_sums, recorded, states


# ---------------------------------------------------------------------------
# studies


def lln_study(
    family: KernelFamily,
    scheme: ScheduleScheme,
    phi: TestFunction,
    n_grid: Sequence[int],
    seeds: Sequence[int],
    x0: int = 0,
) -> dict:
    """Ergodic-average error over a grid of run lengths.

    For every ``n`` in the grid and every seed, records
    ``|n^-1 sum phi(X_k) - pi(phi)|`` (``errors``, one row per ``n`` of the
    sorted grid and one column per seed); reports the per-``n`` median over
    seeds and the log-log slope of the medians (None for a one-entry grid,
    which has no slope).  Restricted to exogenous (fixed-index-sequence)
    schemes so replications can run in lockstep.
    """
    if len(seeds) == 0:
        raise ValueError("lln_study needs at least one seed")
    if len(n_grid) == 0:
        raise ValueError("lln_study needs a non-empty n_grid")
    n_grid = sorted({int(n) for n in n_grid})
    n_max = n_grid[-1]
    indices = scheme.index_array(n_max)
    seed_seqs = [np.random.SeedSequence(s) for s in seeds]
    _, recorded, _ = ensemble_schedule_run(
        family, indices, phi, n_max, seed_seqs, x0, record_prefixes=n_grid
    )
    errors = np.abs(recorded / np.asarray(n_grid)[:, None] - phi.mean_under_pi)
    medians = [float(np.median(e)) for e in errors]
    logs_n = np.log10(np.asarray(n_grid, dtype=np.float64))
    safe = np.asarray([max(m, 1e-300) for m in medians])
    slope = float(np.polyfit(logs_n, np.log10(safe), 1)[0]) if len(n_grid) > 1 else None
    return {"errors": errors, "n_grid": n_grid, "medians": medians, "slope": slope}


# Kolmogorov-Smirnov normality test of the CLT replicates.  The p-value is
# ``P(D_n >= d)`` under the exact Kolmogorov distribution, computed one of
# two ways chosen by ``n d^2``.  Below ``_KS_TAIL_FROM`` it is
# ``1 - P(D_n < d)`` from the Durbin matrix; from there on it is twice the
# one-sided tail.  Doubling counts the event that both one-sided statistics
# reach ``d``, of relative size about ``exp(-6 n d^2)`` (4e-11 at the switch);
# for ``d >= 1/2`` that event is empty.  The cancellation in ``1 - P(D_n < d)``
# costs about as much at the switch and more beyond it.

_KS_TAIL_FROM = 4.0


def _kolmogorov_cdf(n: int, d: float) -> float:
    """``P(D_n < d)`` for ``1/(2n) < d < 1`` by the Durbin matrix method of
    Marsaglia, Tsang & Wang (2003, J. Stat. Softw. 8(18)): with
    ``n d = k - h``, it is ``n!/n^n`` times entry ``(k, k)`` of ``H^n``.

    ``H^n`` comes from repeated squaring; each product is scaled by a power
    of two carried in a separate exponent, so nothing overflows.
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.array([1 / math.factorial(j) for j in range(m + 1)])
    i = np.arange(m)
    lag = i[:, None] - i[None, :] + 1
    H = np.where(lag >= 0, inv_fact[np.maximum(lag, 0)], 0.0)
    h_terms = h ** np.arange(1, m + 1) * inv_fact[1:]  # h^j / j!
    H[:, 0] -= h_terms
    H[-1, :] -= h_terms[::-1]
    if h > 0.5:
        H[-1, 0] += (2 * h - 1) ** m * inv_fact[m]

    def scaled(A: np.ndarray, exponent: int) -> tuple:
        shift = math.frexp(A[k - 1, k - 1])[1]
        return np.ldexp(A, -shift), exponent + shift

    power, e_power, e_H = np.eye(m), 0, 0
    steps = n
    while steps:
        if steps & 1:
            power, e_power = scaled(power @ H, e_power + e_H)
        steps >>= 1
        if steps:
            H, e_H = scaled(H @ H, 2 * e_H)
    p = float(power[k - 1, k - 1])
    for j in range(1, n + 1):  # times n!/n^n, one factor at a time
        p, shift = math.frexp(p * j / n)
        e_power += shift
    return math.ldexp(p, e_power)


def _smirnov_tail(n: int, d: float) -> float:
    """``P(D_n^+ >= d)``, the one-sided tail, by the Birnbaum-Tingey (1951)
    sum ``d sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1)`` in logs."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    log_fact = np.array([math.lgamma(v + 1) for v in range(n + 1)])
    with np.errstate(divide="ignore"):
        logs = (
            log_fact[n] - log_fact[j] - log_fact[n - j]
            + (n - j) * np.log(np.maximum(1.0 - d - j / n, 0.0))
            + (j - 1) * np.log(d + j / n)
        )
    top = logs.max()
    return d * math.exp(top) * math.fsum(np.exp(logs - top))


def ks_normal(z) -> tuple[float, float]:
    """Two-sided one-sample Kolmogorov-Smirnov test of ``z`` against N(0, 1).

    Returns the statistic ``D_n = sup_x |F_n(x) - Phi(x)|``, with
    ``Phi(x) = erfc(-x / sqrt 2) / 2``, and its exact p-value
    ``P(D_n >= D_n(z))``.
    """
    z = np.sort(np.asarray(z, dtype=np.float64))
    n = z.shape[0]
    root2 = math.sqrt(2.0)
    cdf = np.array([0.5 * math.erfc(-v / root2) for v in z.tolist()])
    d = float(max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))
    if d >= 1.0:
        return d, 0.0
    if n * d <= 0.5:  # D_n >= 1/(2n) always
        return d, 1.0
    if d < 0.5 and n * d * d < _KS_TAIL_FROM:
        return d, 1.0 - _kolmogorov_cdf(n, d)
    return d, 2.0 * _smirnov_tail(n, d)


def clt_study(
    family: KernelFamily,
    scheme: ScheduleScheme,
    phi: TestFunction,
    n: int,
    replications: int,
    seed: int,
    x0: int = 0,
) -> dict:
    """Distributional check of ``sqrt(n) (avg - pi(phi))`` against the
    asymptotic variance at the scheme's limiting kernel.

    Requires a scheme that settles on a fixed index (an exogenous schedule
    whose index stops changing); the limit is the schedule's index at step
    ``n``.  Replication ``r`` draws from ``SeedSequence(entropy=seed,
    spawn_key=(r,))`` at every replication count.  Reports the empirical
    variance across replications, the oracle variance, their ratio (None
    when the oracle variance is 0), and a Kolmogorov-Smirnov normality
    summary (``ks_normal``).

    Raises
    ------
    ValueError
        If ``replications < 2``: one replicate has no variance.
    SchemeEscape
        If a scheduled index lies outside the family.
    DegenerateVariance
        If the oracle variance is zero but the replicates fluctuate.
    """
    if replications < 2:
        raise ValueError(f"replications={replications} must be >= 2")
    indices = scheme.index_array(n)
    _check_in_family(indices, family)
    limit_index = int(indices[-1])
    sigma2 = clt_variance(family.kernel(limit_index), family.pi, phi)
    seed_seqs = [np.random.SeedSequence(entropy=seed, spawn_key=(r,)) for r in range(replications)]
    phi_sums, _, _ = ensemble_schedule_run(family, indices, phi, n, seed_seqs, x0)
    scaled = np.sqrt(n) * (phi_sums / n - phi.mean_under_pi)
    empirical = float(scaled.var(ddof=1))
    if sigma2 == 0.0:
        if empirical > 1e-12:
            raise DegenerateVariance(
                f"oracle variance 0 but empirical variance {empirical:.3e}"
            )
        ks_stat, ks_p = 0.0, 1.0
    else:
        ks_stat, ks_p = ks_normal(scaled / np.sqrt(sigma2))
    return {
        "replicates": scaled,
        "empirical_var": empirical,
        "sigma2_oracle": float(sigma2),
        "ratio": float(empirical / sigma2) if sigma2 > 0 else None,
        "ks_stat": float(ks_stat),
        "ks_pvalue": float(ks_p),
        "n": int(n),
        "replications": int(replications),
        "limit_index": int(limit_index),
    }


def an_bound_check(
    schedule: Sequence[int],
    family: KernelFamily,
    phi: TestFunction,
    n: int,
    x0: int = 0,
) -> dict:
    """Exact check of the adaptation-term bound under one-step contraction.

    For a fixed index sequence over kernels whose contraction coefficient
    ``beta`` is below one, the scaled second moment ``E[A_n^2] / n`` is at
    most ``(C')^2 [1 + 2 beta / (1 - beta)]`` with
    ``C' = 2 (1-beta)^{-1} osc(phi)``.

    Under a fixed schedule ``(X_k)`` is a time-inhomogeneous chain, so the
    moments are exact: rows ``mu_k(x) = P(X_k = x)``, ``E[A_k; X_k = x]``
    and ``E[A_k^2; X_k = x]`` advance by one product with ``P_{s_{k-1}}``
    per step, and where ``s_k != s_{k-1}`` take the term
    ``f = g_{s_k} - g_{s_{k-1}}``: ``A_k = A_{k-1} + f(X_k)``.

    Raises
    ------
    ValueError
        If ``n < 1``, ``schedule`` has other than ``n + 1`` entries or
        ``x0`` lies outside the state space.
    SchemeEscape
        If a scheduled index lies outside the family.
    DobrushinViolation
        If any kernel in the schedule has contraction coefficient 1.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    indices = np.asarray(schedule, dtype=np.int64)
    if indices.shape[0] != n + 1:
        raise ValueError("schedule must provide indices for steps 0..n")
    if not 0 <= x0 < family.n_states:
        raise ValueError(f"x0={x0} outside state space")
    _check_in_family(indices, family)
    used = np.unique(indices)
    beta = max(dobrushin_coefficient(family.kernel(int(s))) for s in used)
    if beta >= 1.0:
        raise DobrushinViolation("a scheduled kernel has contraction coefficient 1")
    c_prime = 2.0 / (1.0 - beta) * phi.osc
    bound = c_prime**2 * (1.0 + 2.0 * beta / (1.0 - beta))

    g = poisson_table(family, phi, used).g
    moments = np.zeros((3, family.n_states))
    moments[0, x0] = 1.0
    steps = indices.tolist()
    for prev, s in zip(steps, steps[1:]):
        moments = moments @ family.kernel(prev).rows
        if s != prev:
            f = g[s] - g[prev]
            mu, v, w = moments
            w += 2.0 * f * v + f * f * mu
            v += f * mu
    mean, second = moments[1:].sum(axis=1).tolist()
    second_moment = second / n
    return {
        "second_moment": second_moment,
        "mean": mean / n,
        "bound": float(bound),
        "margin": float(bound - second_moment),
        "beta": float(beta),
        "c_prime": float(c_prime),
        "n": int(n),
        "passed": bool(second_moment <= bound),
    }


# ---------------------------------------------------------------------------
# file formats


# A CSV table is written ``_CSV_BLOCK`` rows at a time.  Within a block each
# numeric column's distinct bit patterns (so -0.0 apart from 0.0, and each NaN
# payload apart) are ``repr``-ed once and the texts gathered back by row; most
# columns repeat a few values.  A block holds its rows as text, so its size
# sets the writer's peak memory: on a 50k-row ledger, 0.3 MB traced at 512
# rows and 0.55 MB at 1024, at about the same speed.
_CSV_BLOCK = 512


def _column_texts(col: np.ndarray) -> list:
    """Each entry of ``col`` as text: a bool, int or float by ``repr`` (an
    int's is its ``str``), taken once per distinct bit pattern, and a str as is."""
    if col.dtype.kind not in "biuf":
        return list(map(str, col.tolist()))
    keys, at = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    texts = np.array(list(map(repr, keys.view(col.dtype).tolist())), dtype=object)
    return texts[at].tolist()


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write the table of equal-length ``columns`` under ``header`` as CSV.

    Every line ends in CRLF and nothing is quoted.  An int, bool or str
    cell is written by ``str`` and a float as its shortest round-trip
    ``repr`` (``nan``, ``inf`` and ``-inf`` included): the bytes of
    ``csv.writer`` over the columns' ``tolist()``, given str cells with no
    comma, quote or line break.  Columns of unequal length raise ValueError.
    """
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            texts = [_column_texts(c[start : start + _CSV_BLOCK]) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*texts, strict=True))) + "\r\n")


def write_ledger_csv(path, traj: Trajectory, ledger: DecompositionLedger) -> None:
    """Export the per-step ledger, :meth:`DecompositionLedger.table`, by
    :func:`write_csv`: header ``k,x,s_index,delta,M,A,R,D,cond_var`` and
    one row per step ``k = 1..n``."""
    write_csv(path, *ledger.table(traj))
