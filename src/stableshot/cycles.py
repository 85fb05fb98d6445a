"""Regenerative cycle decomposition and tail diagnostics.

A cycle is one busy period plus the following idle period.  Busy/idle is
detected from the integer occupancy count, not the float level: with
zero-rate sessions the level can vanish while sessions are active, which
would break the regeneration; the count-based definition is regenerative
unconditionally.  When all rates are positive, the level is nonzero exactly
where the count is.

``decompose_cycles`` reads the cycles of a built path.  The i.i.d. cycle
lengths of ``collect_cycle_lengths`` come straight from fresh-start
arrivals and durations instead (``fresh_start_cycle_lengths``): sorted
arrivals start a busy period exactly when every earlier session has
departed, so the busy onsets need one running max of the departures, and
no event sort or path; the durations are drawn a block at a time as the
scan reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._backend import kernels
from .heavy_rand import TailDist, tail_quantile_a
from .rng import RngStream
# build_path and simulate_sessions are unused here; they stay importable
# as the benchmark traces them
from .traffic import (
    JointLaw, build_path, checked_arrivals, checked_durations, fresh_arrivals, simulate_sessions,
)

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
# chunk holds its arrival column, 8 bytes a session (16 MB at the cap),
# whatever the rate law, plus one scan block
_CHUNK_SESSIONS = 2_000_000
# sessions of one block of fresh_start_cycle_lengths' durations and
# running max of the departures (512 KiB of float64 each)
_SCAN_SESSIONS = 1 << 16
# fewest mean cycles a chunk spans, 200 e^(lam E[Y]) expected sessions:
# above MAX_CYCLE_LOAD = lam E[Y] that floor alone exceeds _CHUNK_SESSIONS
_MIN_CHUNK_CYCLES = 200
MAX_CYCLE_LOAD = math.log(_CHUNK_SESSIONS / _MIN_CHUNK_CYCLES)
# the most chunks collect_cycle_lengths simulates: it raises when they bank
# fewer cycles than its target
MAX_CHUNKS = 10_000
# cycles collect_cycle_lengths may bank: their float64 lengths, and the
# copy that joins the chunks, take about 240 MB at the cap
MAX_CYCLES = 15_000_000


class CycleDecomposition:
    """Complete cycles of a path before horizon T, as contiguous arrays."""

    def __init__(self, s_start, busy_end, s_end):
        self.s_start = np.asarray(s_start, dtype=float)
        self.busy_end = np.asarray(busy_end, dtype=float)
        self.s_end = np.asarray(s_end, dtype=float)
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


def decompose_cycles(path, T) -> CycleDecomposition:
    """Complete cycles [S_{j-1}, S_j) with S_j <= T.

    Cycle boundaries are the instants where the occupancy steps from idle
    to busy; the possibly-partial structure before the first boundary and
    the partial cycle at the end are excluded.
    """
    if T > path.t1 or T <= path.t0:
        raise ValueError("path does not cover [t0, T]")
    starts_idx, ends_idx = kernels.busy_bounds(path.count_steps[1:], int(path.count_steps[0]))
    starts = path.times[starts_idx]
    n_complete = int(np.searchsorted(starts, T, side="right")) - 1
    if n_complete < 1:
        return CycleDecomposition([], [], [])
    # every event lies in (t0, t1], so each start is a busy onset after an
    # idle stretch inside the path.  Ends alternate with starts; a path
    # that begins busy has an end before its first start, which closes no
    # cycle and is dropped.
    ends = path.times[ends_idx]
    ends = ends[ends > starts[0]]
    s_start = starts[:n_complete]
    s_end = starts[1 : n_complete + 1]
    busy_end = ends[:n_complete]
    return CycleDecomposition(s_start, busy_end, s_end)


def fresh_start_cycle_lengths(gamma, durations, T: float) -> np.ndarray:
    """Lengths of the complete cycles on [0, T] of sessions sorted by arrival.

    ``gamma`` holds the arrival times.  ``durations(a, b)`` returns the
    durations of sessions a..b-1; the scan asks for consecutive blocks
    from session 0 on, and for none past the last arrival by T, so a
    reader may draw them as it goes.  Equal to
    ``decompose_cycles(build_path(sessions, 0, T), T).lengths`` for
    sessions with these arrivals and durations, without building the path.  An arrival at ``gamma[i]`` in (0, T] starts a busy
    period exactly when every earlier session has departed strictly before
    it: a departure tying an arrival merges into one net event, so the
    count never reads 0 there.  Arrivals at or before 0 belong to the
    initial state, and arrivals past T lie outside the path.  Sessions,
    not levels, keep a cycle busy, so rates do not enter.  Raises
    ValueError on unsorted or non-finite arrivals and on durations that
    are not positive and finite.
    """
    if T <= 0:
        raise ValueError("need T > 0")
    gamma = checked_arrivals(np.asarray(gamma, dtype=float))
    if np.any(gamma[1:] < gamma[:-1]):
        raise ValueError("session arrivals must be sorted")
    lo = int(np.searchsorted(gamma, 0.0, side="right"))
    hi = int(np.searchsorted(gamma, T, side="right"))
    return np.diff(np.concatenate([gamma[:0], *_busy_onsets(gamma, durations, lo, hi)]))


def _busy_onsets(gamma, durations, lo: int, hi: int):
    """The busy onsets among sessions lo..hi-1, one array per block of
    sessions 0..hi-1: the scan of fresh_start_cycle_lengths, a generator
    so that its block buffers are freed before the onsets are joined."""
    dep = np.empty(min(hi, _SCAN_SESSIONS))
    onset = np.empty(dep.size, dtype=bool)
    # the latest departure of the sessions before block [a, b), as
    # build_path computes departures; max is exact, so the running max
    # carried from block to block equals a one-shot one
    reach = -np.inf
    for a in range(0, hi, _SCAN_SESSIONS):
        b = min(a + _SCAN_SESSIONS, hi)
        g, d, is_onset = gamma[a:b], dep[: b - a], onset[: b - a]
        np.add(g, checked_durations(durations(a, b)), out=d)
        d[0] = max(d[0], reach)
        np.maximum.accumulate(d, out=d)
        is_onset[0] = g[0] > reach
        np.greater(g[1:], d[:-1], out=is_onset[1:])
        is_onset[: max(0, lo - a)] = False
        reach = d[-1]
        yield g[is_onset]


def collect_cycle_lengths(
    lam: float,
    law: JointLaw,
    n_target: int,
    rng: RngStream,
) -> np.ndarray:
    """Lengths of at least ``n_target`` i.i.d. complete cycles.

    Simulates fresh-start chunks (X(0) = 0, so cycles are i.i.d. from the
    first arrival on) with independent substreams until enough cycles are
    banked.  A chunk draws its Poisson count and then its sorted arrivals
    as ``simulate_sessions`` does (``fresh_arrivals``), then each block of
    durations from the same generator as ``fresh_start_cycle_lengths``
    reads it, so the durations equal the sessions' and are never all held;
    rates, drawn after the durations, are never drawn.  No path is built.
    """
    if not lam > 0:
        raise ValueError("arrival intensity must be positive")
    chunk_horizon = _chunk_horizon(lam, law, n_target)
    out = []
    have = 0
    chunk = 0
    while have < n_target:
        if chunk == MAX_CHUNKS:
            raise RuntimeError("cycle collection is not converging")
        gen = rng.substream(chunk).generator()
        lengths = fresh_start_cycle_lengths(
            fresh_arrivals(gen.poisson(lam * chunk_horizon), chunk_horizon, gen),
            lambda a, b: law.y_dist.sample(b - a, gen),
            chunk_horizon,
        )
        out.append(lengths)
        have += lengths.size
        chunk += 1
    return np.concatenate(out)[:n_target]


def expected_chunks(lam: float, law: JointLaw, n_target: int) -> float:
    """Chunks collect_cycle_lengths expects to simulate for n_target cycles,
    each banking about _chunk_horizon / E[C] of them."""
    return n_target * math.exp(lam * law.mean_y) / lam / _chunk_horizon(lam, law, n_target)


def _chunk_horizon(lam: float, law: JointLaw, n_target: int) -> float:
    """Horizon of one chunk: min(n_target, 5e4) mean cycles, cut to
    _CHUNK_SESSIONS expected sessions, but never under _MIN_CHUNK_CYCLES
    mean cycles."""
    mean_cycle = math.exp(lam * law.mean_y) / lam
    wanted = min(min(n_target, 50_000) * mean_cycle, _CHUNK_SESSIONS / lam)
    return max(_MIN_CHUNK_CYCLES * mean_cycle, wanted)


@dataclass(frozen=True)
class TailCell:
    t: float
    x: float
    empirical: float
    theoretical: float
    n_exceed: int
    reliable: bool


def cycle_tail_table(cycle_lengths, dist: TailDist, lam, x_grid, t_grid):
    """Empirical t * P(C > a(t) x) against the limit exp(lam*E[Y]) x^(-alpha).

    Cells backed by fewer than 20 exceedances are flagged unreliable.
    """
    lengths = np.asarray(cycle_lengths, dtype=float)
    if lengths.size == 0:
        raise ValueError("need a nonempty cycle-length sample")
    x_grid = np.asarray(x_grid, dtype=float)
    if not np.all(x_grid > 0):
        raise ValueError("x grid must be positive")
    alpha = dist.declared_alpha
    const = math.exp(lam * dist.mean_y)
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

