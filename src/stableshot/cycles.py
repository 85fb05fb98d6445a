"""Regenerative cycle decomposition and tail diagnostics.

A cycle is one busy period plus the following idle period.  Busy/idle is
detected from the integer occupancy count, not the float level: with
zero-rate sessions the level can vanish while sessions are active, which
would break the regeneration; the count-based definition is regenerative
unconditionally and coincides with the level-based one whenever all rates
are positive.

``decompose_cycles`` reads the cycles of a built path.  The i.i.d. cycle
lengths of ``collect_cycle_lengths`` come straight from fresh-start
sessions instead (``fresh_start_cycle_lengths``): sorted arrivals start a
busy period exactly when every earlier session has departed, so the busy
onsets need one running max of the departures, and no event sort or path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._backend import kernels
from .heavy_rand import TailDist, tail_quantile_a
from .rng import RngStream
# build_path is unused here; it stays importable as the benchmark traces it
from .traffic import JointLaw, Sessions, TrafficConfig, build_path, simulate_sessions

__all__ = [
    "CycleDecomposition",
    "decompose_cycles",
    "fresh_start_cycle_lengths",
    "collect_cycle_lengths",
    "cycle_tail_table",
    "hill_alpha",
]

# expected sessions of one fresh-start chunk of collect_cycle_lengths:
# bounds its memory at heavy load, where a cycle spans many sessions: a
# chunk holds its three session columns and one running max of the
# departures, about 32 bytes a session (64 MB at the cap)
_CHUNK_SESSIONS = 2_000_000


class CycleDecomposition:
    """Complete cycles of a path before horizon T, as contiguous arrays."""

    def __init__(self, s_start, busy_end, s_end, never_idle=False):
        self.s_start = np.asarray(s_start, dtype=float)
        self.busy_end = np.asarray(busy_end, dtype=float)
        self.s_end = np.asarray(s_end, dtype=float)
        self.never_idle = bool(never_idle)
        if len(self.s_start) and np.any(self.s_end[:-1] != self.s_start[1:]):
            raise ValueError("cycles must be contiguous")

    @property
    def m_T(self) -> int:
        return len(self.s_start)

    @property
    def s0(self) -> float:
        if not self.m_T:
            raise ValueError("no complete cycles")
        return float(self.s_start[0])

    @property
    def lengths(self) -> np.ndarray:
        return self.s_end - self.s_start


def decompose_cycles(path, T, use_level=False) -> CycleDecomposition:
    """Complete cycles [S_{j-1}, S_j) with S_j <= T.

    Cycle boundaries are the instants where the occupancy steps from idle
    to busy; the possibly-partial structure before the first boundary and
    the partial cycle at the end are excluded.  ``use_level`` switches to
    level-based busy detection (diagnostic only).
    """
    if T > path.t1 or T <= path.t0:
        raise ValueError("path does not cover [t0, T]")
    if use_level:
        occ = (path.levels > path.eps_num).astype(np.int64)
        init = int(path.init_level > path.eps_num)
    else:
        occ = path.counts
        init = path.init_count
    starts_idx, ends_idx = kernels.busy_bounds(occ, init)
    starts = path.times[starts_idx]
    ends = path.times[ends_idx]
    if len(starts) == 0:
        return CycleDecomposition([], [], [], never_idle=init > 0 and len(ends) == 0)
    # every event lies in (t0, t1], so each start is a busy onset after an
    # idle stretch inside the path.  Ends alternate with starts; a path
    # that begins busy has an end before its first start, which closes no
    # cycle and is dropped.
    ends = ends[ends > starts[0]]
    n_complete = int(np.searchsorted(starts, T, side="right")) - 1
    if n_complete < 1:
        return CycleDecomposition([], [], [])
    s_start = starts[:n_complete]
    s_end = starts[1 : n_complete + 1]
    busy_end = ends[:n_complete]
    return CycleDecomposition(s_start, busy_end, s_end)


def fresh_start_cycle_lengths(sessions: Sessions, T: float) -> np.ndarray:
    """Lengths of the complete cycles on [0, T] of sorted sessions.

    Equal to ``decompose_cycles(build_path(sessions, 0, T), T).lengths``
    for sessions sorted by arrival time, without building the path.  An
    arrival at ``gamma[i]`` in (0, T] starts a busy period exactly when
    every earlier session has departed strictly before it: a departure
    tying an arrival merges into one net event, so the count never reads
    0 there.  Arrivals at or before 0 belong to the initial state, and
    arrivals past T lie outside the path.  Sessions, not levels, keep a
    cycle busy, so zero-rate sessions count.  Raises ValueError on
    unsorted arrivals.
    """
    if T <= 0:
        raise ValueError("need T > 0")
    gamma = sessions.gamma
    if np.any(gamma[1:] < gamma[:-1]):
        raise ValueError("session arrivals must be sorted")
    lo = int(np.searchsorted(gamma, 0.0, side="right"))
    hi = int(np.searchsorted(gamma, T, side="right"))
    gamma = gamma[:hi]
    # reach[i]: the latest departure of sessions 0..i, as build_path
    # computes departures
    reach = gamma + sessions.y[:hi]
    np.maximum.accumulate(reach, out=reach)
    onset = np.empty(hi, dtype=bool)
    np.greater(gamma[1:], reach[:-1], out=onset[1:])
    onset[:1] = True
    onset[:lo] = False
    return np.diff(gamma[onset])


def collect_cycle_lengths(
    lam: float,
    law: JointLaw,
    n_target: int,
    rng: RngStream,
    chunk_horizon: float | None = None,
) -> np.ndarray:
    """Lengths of at least ``n_target`` i.i.d. complete cycles.

    Simulates fresh-start chunks (X(0) = 0, so cycles are i.i.d. from the
    first arrival on) with independent substreams until enough cycles are
    banked.  Each chunk's arrivals come sorted from ``simulate_sessions``,
    so its cycles are read from the sessions with
    ``fresh_start_cycle_lengths``; no path is built.
    """
    if chunk_horizon is None:
        chunk_horizon = _chunk_horizon(lam, law, n_target)
    out = []
    have = 0
    chunk = 0
    while have < n_target:
        cfg = TrafficConfig(
            lam=lam,
            law=law,
            horizon=chunk_horizon,
            stationary_init=False,
            rng=rng.substream(chunk),
        )
        lengths = fresh_start_cycle_lengths(simulate_sessions(cfg), chunk_horizon)
        out.append(lengths)
        have += lengths.size
        chunk += 1
        if chunk > 10_000:
            raise RuntimeError("cycle collection is not converging")
    return np.concatenate(out)[:n_target]


def _chunk_horizon(lam: float, law: JointLaw, n_target: int) -> float:
    """Horizon of one chunk: min(n_target, 5e4) mean cycles, cut to
    _CHUNK_SESSIONS expected sessions, but never under 200 mean cycles."""
    mean_cycle = math.exp(lam * law.mean_y) / lam
    wanted = min(min(n_target, 50_000) * mean_cycle, _CHUNK_SESSIONS / lam)
    return max(200.0 * mean_cycle, wanted)


@dataclass(frozen=True)
class TailCell:
    t: float
    x: float
    empirical: float
    theoretical: float
    n_exceed: int
    reliable: bool


def cycle_tail_table(cycle_lengths, dist: TailDist, lam, ey, x_grid, t_grid):
    """Empirical t * P(C > a(t) x) against the limit exp(lam*E[Y]) x^(-alpha).

    Cells backed by fewer than 20 exceedances are flagged unreliable.
    """
    lengths = np.asarray(cycle_lengths, dtype=float)
    if lengths.size == 0:
        raise ValueError("need a nonempty cycle-length sample")
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid <= 0):
        raise ValueError("x grid must be positive")
    alpha = dist.declared_alpha
    const = math.exp(lam * ey)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        a_t = float(tail_quantile_a(dist, t))
        for x in x_grid:
            n_exc = int((lengths > a_t * x).sum())
            rows.append(
                TailCell(
                    t=float(t),
                    x=float(x),
                    empirical=t * n_exc / lengths.size,
                    theoretical=const * x ** (-alpha),
                    n_exceed=n_exc,
                    reliable=n_exc >= 20,
                )
            )
    return rows


def hill_alpha(samples, k: int):
    """Hill tail-index estimate over the k largest order statistics.

    Returns (alpha_hat, asymptotic standard error alpha_hat / sqrt(k)).
    """
    x = np.asarray(samples, dtype=float)
    if k < 1 or k >= x.size:
        raise ValueError("need 1 <= k < sample size")
    top = np.partition(x, x.size - k - 1)[x.size - k - 1 :]
    if np.any(top <= 0):
        raise ValueError("Hill estimator needs positive order statistics")
    top = np.sort(top)
    denom = np.log(top[1:] / top[0]).sum()
    if denom <= 0:
        raise ValueError("degenerate sample: top order statistics are equal")
    est = k / denom
    return est, est / math.sqrt(k)

