"""Adaptive chain driver and the exact three-term decomposition of
ergodic-average error.

For a trajectory ``(S_k, X_k)`` and a test function ``phi``, the centered
partial sums split exactly into a martingale term ``M_n`` built from the
Poisson solutions, an adaptation term ``A_n`` collecting the perturbation
from kernel changes, and a telescoping remainder ``R_n``:

``sum_{k<=n} [phi(X_k) - pi(phi)] = M_n + A_n + R_n``.

On a finite state space every ingredient is computable exactly, so the
identities here are assertable to floating-point accuracy rather than
estimated.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats as sp_stats

from .adaptation import ScheduleScheme
from .errors import DegenerateVariance, DobrushinViolation, MissingSolution, SchemeEscape
from .families import KernelFamily
from .kernels import dobrushin_coefficient, max_tv_between_kernels
from .poisson import TestFunction, clt_variance, solve_poisson_exact

# ---------------------------------------------------------------------------
# random streams
#
# Reproducibility contract: the chain with seed material ``s`` draws from
# Generator(Philox(SeedSequence(s))), one counter-based stream per chain.
# Per step the transition uniform is drawn first, then any draws the
# adaptation scheme requires, in that order.  Replication r of a study with
# root seed ``s`` uses SeedSequence(entropy=s, spawn_key=(r,)).


def chain_generator(seed) -> np.random.Generator:
    """Counter-based stream for one chain (int seed or SeedSequence)."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def replication_seed_sequences(seeds: Sequence[int], count: int) -> list:
    """Per-replication seed material.

    With one root seed, replication ``r`` uses
    ``SeedSequence(entropy=root, spawn_key=(r,))``; with an explicit list of
    ``count`` seeds, each is used directly.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if len(seeds) == count:
        return [np.random.SeedSequence(s) for s in seeds]
    if len(seeds) == 1:
        return [np.random.SeedSequence(entropy=seeds[0], spawn_key=(r,)) for r in range(count)]
    raise ValueError(f"need 1 or {count} seeds, got {len(seeds)}")


# ---------------------------------------------------------------------------
# chain driver


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Realized adaptive chain: states, parameter indices, seed material.

    ``X`` and ``S`` both have ``n + 1`` entries including the initial pair;
    the transition producing ``X_k`` used kernel index ``S[k-1]``.
    """

    X: np.ndarray
    S: np.ndarray
    n: int
    seed: object
    aux: dict | None = None

    def __post_init__(self):
        if self.X.shape[0] != self.n + 1 or self.S.shape[0] != self.n + 1:
            raise ValueError("X and S must have n + 1 entries")


def _cum_tables(family: KernelFamily) -> list:
    """Inverse-CDF table per kernel: its row cumsums, last column pinned to 1."""
    tables = []
    for P in family.kernels:
        cum = np.cumsum(P.rows, axis=1)
        cum[:, -1] = 1.0  # pin against roundoff so inverse CDF always lands
        tables.append(cum)
    return tables


def run_adaptive_chain(
    family: KernelFamily, scheme, x0: int, s0: int, n: int, seed
) -> Trajectory:
    """Simulate ``X_{k+1} ~ P_{S_k}(X_k, .)`` with the scheme updating ``S``.

    Transitions use inverse-CDF sampling over the kernel row.  Per step the
    transition uniform is drawn first, then the scheme's own draws, from
    the chain's single counter-based stream, so runs are bit-reproducible
    given the seed.  Schemes exposing ``aux_record()`` contribute per-step
    auxiliary series (activation uniforms, realized rate signals) to the
    trajectory.

    Raises
    ------
    SchemeEscape
        If the scheme produces an index outside the family.
    """
    if not 0 <= x0 < family.n_states:
        raise ValueError(f"x0={x0} outside state space")
    if not 0 <= s0 < family.size:
        raise ValueError(f"s0={s0} outside family")
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    rng = chain_generator(seed)
    X = np.empty(n + 1, dtype=np.int64)
    S = np.empty(n + 1, dtype=np.int64)
    X[0] = x0
    S[0] = scheme.start(s0, rng)
    if not 0 <= S[0] < family.size:
        raise SchemeEscape(f"scheme start index {S[0]} outside family")
    # bisect compares Python floats faster than numpy scalars, with equal outcomes
    cums = [table.tolist() for table in _cum_tables(family)]
    n_states = family.n_states
    x = int(X[0])
    s = int(S[0])
    for k in range(1, n + 1):
        u = rng.random()
        x_new = min(bisect_right(cums[s][x], u), n_states - 1)
        s_new = int(scheme.step(k, x, x_new, s, rng))
        if not 0 <= s_new < family.size:
            raise SchemeEscape(f"scheme produced index {s_new} outside family at step {k}")
        X[k] = x_new
        S[k] = s_new
        x, s = x_new, s_new
    aux = None
    if hasattr(scheme, "aux_record"):
        aux = {key: np.asarray(val) for key, val in scheme.aux_record().items()}
    return Trajectory(X=X, S=S, n=n, seed=seed, aux=aux)


# ---------------------------------------------------------------------------
# exact decomposition


class SolutionTable:
    """Poisson solutions and their one-step expectations per family index."""

    def __init__(self, family: KernelFamily, phi: TestFunction):
        self.family = family
        self.phi = phi
        self._g: dict[int, np.ndarray] = {}
        self._Pg: dict[int, np.ndarray] = {}
        self._Pg2: dict[int, np.ndarray] = {}

    def ensure(self, indices) -> None:
        for s in np.unique(np.asarray(indices)):
            s = int(s)
            if s in self._g:
                continue
            if not 0 <= s < self.family.size:
                raise MissingSolution(f"index {s} outside family")
            P = self.family.kernel(s)
            sol = solve_poisson_exact(P, self.family.pi, self.phi)
            self._g[s] = sol.g
            self._Pg[s] = P.rows @ sol.g
            self._Pg2[s] = P.rows @ (sol.g**2)

    def _gather(self, table: dict, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        out = np.empty(S.shape[0])
        for s in np.unique(S):
            mask = S == s
            out[mask] = table[int(s)][X[mask]]
        return out

    def g_at(self, S, X) -> np.ndarray:
        return self._gather(self._g, np.asarray(S), np.asarray(X))

    def Pg_at(self, S, X) -> np.ndarray:
        return self._gather(self._Pg, np.asarray(S), np.asarray(X))

    def Pg2_at(self, S, X) -> np.ndarray:
        return self._gather(self._Pg2, np.asarray(S), np.asarray(X))

    def g(self, s: int) -> np.ndarray:
        self.ensure([s])
        return self._g[int(s)]

    def Pg(self, s: int) -> np.ndarray:
        self.ensure([s])
        return self._Pg[int(s)]


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
    solutions: SolutionTable = field(repr=False)

    def identity_residuals(self) -> np.ndarray:
        """Per-prefix gap ``|M_k + A_k + R_k - centered_sums_k|``."""
        return np.abs(self.M + self.A + self.R - self.centered_sums)

    def telescope_residuals(self, traj: Trajectory) -> np.ndarray:
        """Per-prefix gap between ``R_k`` and its closed two-term form."""
        tab = self.solutions
        first = tab.Pg_at(traj.S[:1], traj.X[:1])[0]
        closed = first - tab.Pg_at(traj.S[1:], traj.X[1:])
        return np.abs(self.R - closed)

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

    The per-index Poisson solutions are exact solves, cached per distinct
    index.
    """
    table = SolutionTable(family, phi)
    table.ensure(traj.S)
    S_prev, S_next = traj.S[:-1], traj.S[1:]
    X_prev, X_next = traj.X[:-1], traj.X[1:]

    Pg_prev = table.Pg_at(S_prev, X_prev)
    g_moved = table.g_at(S_prev, X_next)
    delta = g_moved - Pg_prev
    a_terms = table.g_at(S_next, X_next) - g_moved
    r_terms = Pg_prev - table.Pg_at(S_next, X_next)
    cond_var = table.Pg2_at(S_prev, X_prev) - Pg_prev**2

    # exact kernel-change magnitudes; zero whenever the index is unchanged
    D = np.zeros(traj.n)
    changed = S_next != S_prev
    if np.any(changed):
        pair_cache: dict[tuple[int, int], float] = {}
        for k in np.nonzero(changed)[0]:
            key = (int(S_prev[k]), int(S_next[k]))
            if key not in pair_cache:
                pair_cache[key] = max_tv_between_kernels(
                    family.kernel(key[1]), family.kernel(key[0])
                )
            D[k] = pair_cache[key]

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
        g = table.g(s)
        row_g = (rows @ g)[at_step]
        row_g2 = (rows @ (g**2))[at_step]
        Pg_x = table.Pg(s)[x]
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
# Column r of the uniform matrix is the first n draws of the stream for
# seed material r, so a single chain run with the same seed and schedule
# visits exactly the same states.
#
# Each step finds, for every replication, the first entry of its row's
# cumsum that exceeds its uniform: ``bisect_right``'s index.  Cumsums never
# decrease and the pinned last entry 1.0 exceeds every uniform in [0, 1), so
# ``entry <= u`` holds on a prefix of the row and fails on the rest, even
# where roundoff lifts earlier cumsums above 1.0.  Any search for that
# boundary returns the same index.  Rows longer than ``_BISECT_WINDOW`` are
# first narrowed by a lockstep binary search: all replications share one
# window length, halved each round, while each moves its own window start.
# The last window, and any row of at most ``_BISECT_WINDOW`` entries, is
# scanned by a single compare-argmax.

_BISECT_WINDOW = 16


def ensemble_schedule_run(
    family: KernelFamily,
    indices: np.ndarray,
    phi: TestFunction,
    n: int,
    seed_seqs: Sequence,
    x0: int,
    record_prefixes: Sequence[int] | None = None,
    a_terms: bool = False,
    solutions: SolutionTable | None = None,
):
    """Advance many replications in lockstep under one index schedule.

    Returns per-replication sums ``sum_{k<=n} phi(X_k)``, optionally the
    running sums recorded at ``record_prefixes`` (an array of shape
    ``(len(prefixes), R)``), and optionally the per-replication adaptation
    sums ``A_n`` (needs ``solutions``).  Each step costs
    ``O(R log n_states)``.
    """
    if not 0 <= x0 < family.n_states:
        raise ValueError(f"x0={x0} outside state space")
    R = len(seed_seqs)
    U = np.empty((n, R))
    for i, ss in enumerate(seed_seqs):
        U[:, i] = chain_generator(ss).random(n)
    n_states = family.n_states
    halves = []
    width = n_states
    while width > _BISECT_WINDOW:
        halves.append(width // 2)
        width -= width // 2
    # flats[s][x * n_states + j] is entry [x, j] of table s; windows[s][i] is flats[s][i : i + width]
    flats = [cum.reshape(-1) for cum in _cum_tables(family)]
    windows = [sliding_window_view(flat, width) for flat in flats]
    schedule = np.asarray(indices).tolist()
    states = np.full(R, x0, dtype=np.int64)
    phi_vals = phi.values
    phi_sums = np.zeros(R)
    a_sums = np.zeros(R) if a_terms else None
    prefixes = list(record_prefixes) if record_prefixes is not None else []
    recorded = np.empty((len(prefixes), R)) if prefixes else None
    next_record = 0
    for k in range(1, n + 1):
        s_prev = schedule[k - 1]
        u = U[k - 1]
        flat = flats[s_prev]
        row = states * n_states
        start = row
        for half in halves:
            start = start + half * (flat[start + (half - 1)] <= u)
        states = start - row + (u[:, None] < windows[s_prev][start]).argmax(axis=1)
        phi_sums += phi_vals[states]
        if a_terms:
            s_new = schedule[k]
            if s_new != s_prev:
                a_sums += (solutions.g(s_new) - solutions.g(s_prev))[states]
        if prefixes and next_record < len(prefixes) and k == prefixes[next_record]:
            recorded[next_record] = phi_sums
            next_record += 1
    return phi_sums, recorded, a_sums, states


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
    ``|n^-1 sum phi(X_k) - pi(phi)|``; reports the per-``n`` median over
    seeds and the log-log slope of the medians.  Restricted to exogenous
    (fixed-index-sequence) schemes so replications can run in lockstep.
    """
    n_grid = sorted({int(n) for n in n_grid})
    n_max = n_grid[-1]
    indices = scheme.index_array(n_max)
    pi_phi = phi.mean_under_pi
    seed_seqs = [np.random.SeedSequence(s) for s in seeds]
    _, recorded, _, _ = ensemble_schedule_run(
        family, indices, phi, n_max, seed_seqs, x0, record_prefixes=n_grid
    )
    rows = []
    medians = []
    for i, n in enumerate(n_grid):
        errors = np.abs(recorded[i] / n - pi_phi)
        for seed, err in zip(seeds, errors):
            rows.append({"n": n, "seed": int(seed), "error": float(err)})
        medians.append(float(np.median(errors)))
    logs_n = np.log10(np.asarray(n_grid, dtype=np.float64))
    safe = np.asarray([max(m, 1e-300) for m in medians])
    slope = float(np.polyfit(logs_n, np.log10(safe), 1)[0]) if len(n_grid) > 1 else float("nan")
    return {"rows": rows, "n_grid": n_grid, "medians": medians, "slope": slope}


def clt_study(
    family: KernelFamily,
    scheme: ScheduleScheme,
    phi: TestFunction,
    n: int,
    replications: int,
    seeds: Sequence[int],
    x0: int = 0,
    limit_index: int | None = None,
) -> dict:
    """Distributional check of ``sqrt(n) (avg - pi(phi))`` against the
    asymptotic variance at the scheme's limiting kernel.

    Requires a scheme that settles on a fixed index (an exogenous schedule
    whose index stops changing); ``limit_index`` defaults to the schedule's
    final index.  Reports the empirical variance across replications, the
    oracle variance, their ratio, and a Kolmogorov-Smirnov normality
    summary.

    Raises
    ------
    DegenerateVariance
        If the oracle variance is zero but the replicates fluctuate.
    """
    indices = scheme.index_array(n)
    if limit_index is None:
        limit_index = int(indices[-1])
    sigma2 = clt_variance(family.kernel(limit_index), family.pi, phi)
    seed_seqs = replication_seed_sequences(seeds, replications)
    phi_sums, _, _, _ = ensemble_schedule_run(family, indices, phi, n, seed_seqs, x0)
    scaled = np.sqrt(n) * (phi_sums / n - phi.mean_under_pi)
    empirical = float(scaled.var(ddof=1)) if replications > 1 else 0.0
    if sigma2 == 0.0:
        if empirical > 1e-12:
            raise DegenerateVariance(
                f"oracle variance 0 but empirical variance {empirical:.3e}"
            )
        ks_stat, ks_p = 0.0, 1.0
    else:
        ks_stat, ks_p = sp_stats.kstest(scaled / np.sqrt(sigma2), "norm")
    return {
        "replicates": scaled,
        "empirical_var": empirical,
        "sigma2_oracle": float(sigma2),
        "ratio": float(empirical / sigma2) if sigma2 > 0 else float("nan"),
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
    replications: int,
    seeds: Sequence[int],
    x0: int = 0,
) -> dict:
    """Monte Carlo check of the adaptation-term bound under one-step
    contraction.

    For a fixed index sequence over kernels whose contraction coefficient
    ``beta`` is below one, the scaled second moment ``E[A_n^2] / n`` is at
    most ``(C')^2 [1 + 2 beta / (1 - beta)]`` with
    ``C' = 2 (1-beta)^{-1} osc(phi)``.  The estimate must not exceed the
    bound by more than one standard error.

    Raises
    ------
    DobrushinViolation
        If any kernel in the schedule has contraction coefficient 1.
    """
    indices = np.asarray(schedule, dtype=np.int64)
    if indices.shape[0] != n + 1:
        raise ValueError("schedule must provide indices for steps 0..n")
    used = np.unique(indices)
    beta = max(dobrushin_coefficient(family.kernel(int(s))) for s in used)
    if beta >= 1.0:
        raise DobrushinViolation("a scheduled kernel has contraction coefficient 1")
    c_prime = 2.0 / (1.0 - beta) * phi.osc
    bound = c_prime**2 * (1.0 + 2.0 * beta / (1.0 - beta))

    table = SolutionTable(family, phi)
    table.ensure(used)
    seed_seqs = replication_seed_sequences(seeds, replications)
    _, _, a_sums, _ = ensemble_schedule_run(
        family, indices, phi, n, seed_seqs, x0, a_terms=True, solutions=table
    )
    sq = a_sums**2 / n
    estimate = float(sq.mean())
    se = float(sq.std(ddof=1) / np.sqrt(replications)) if replications > 1 else 0.0
    return {
        "estimate": estimate,
        "se": se,
        "bound": float(bound),
        "beta": float(beta),
        "c_prime": float(c_prime),
        "passed": bool(estimate <= bound + se),
        "n": int(n),
        "replications": int(replications),
    }


# ---------------------------------------------------------------------------
# file formats


def write_ledger_csv(path, traj: Trajectory, ledger: DecompositionLedger) -> None:
    """Export the per-step ledger as CSV with header
    ``k,x,s_index,delta,M,A,R,D,cond_var``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "x", "s_index", "delta", "M", "A", "R", "D", "cond_var"])
        for k in range(1, traj.n + 1):
            i = k - 1
            writer.writerow(
                [
                    k,
                    int(traj.X[k]),
                    int(traj.S[k]),
                    repr(float(ledger.Delta[i])),
                    repr(float(ledger.M[i])),
                    repr(float(ledger.A[i])),
                    repr(float(ledger.R[i])),
                    repr(float(ledger.D[i])),
                    repr(float(ledger.cond_var[i])),
                ]
            )
