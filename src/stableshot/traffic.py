"""Stationary infinite-source Poisson (shot noise) traffic simulation.

Sessions arrive as a Poisson process with intensity lambda; session ``l``
contributes rate ``w_l`` on ``[gamma_l, gamma_l + y_l)``.  The aggregate
level is piecewise constant and cadlag: arrivals take effect at their
timestamp, departures drop the level exactly at ``gamma + y``.

Stationary initialization is exact (no burn-in): the number of sessions
alive at time 0 is Poisson(lambda * E[Y]); each such session has a
duration-size-biased (Y, W) pair and arrival time ``-U * Y`` with U
uniform.  Heavy tails make burn-in truncation badly biased, so this
construction is used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._backend import kernels
from .heavy_rand import TailDist
from .rng import RngStream

__all__ = [
    "Sessions",
    "RATE_PARAMS",
    "JointLaw",
    "TrafficConfig",
    "ShotNoisePath",
    "Workspace",
    "simulate_sessions",
    "build_path",
    "stationary_window_draws",
]

# the budget of one block of stationary_window_draws' draws (1 MiB of
# float64): a block holds at most a quarter as many sessions and half as
# many cells of padded event matrix (see _sups_by_block), so its memory is
# bounded whatever the draw count
_BLOCK_CELLS = 1 << 17


class Sessions:
    """Column store of session triples (arrival time, duration, rate).

    ``common_rate`` is the rate every session shares, or None when the
    rates differ or there are no sessions.  The columns may be read-only:
    simulated constant rates are one broadcast of the rate.
    """

    def __init__(self, gamma, y, w):
        self.gamma = np.asarray(gamma, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.w = np.asarray(w, dtype=float)
        if not (len(self.gamma) == len(self.y) == len(self.w)):
            raise ValueError("column lengths differ")
        checked_arrivals(self.gamma)
        checked_durations(self.y)
        w_lo, w_hi = self.w.min(initial=np.inf), self.w.max(initial=-np.inf)
        if not (w_lo >= 0 and w_hi < np.inf):
            raise ValueError("session rates must be nonnegative and finite")
        self.common_rate = float(w_lo) if w_lo == w_hi else None

    def __len__(self):
        return len(self.gamma)


def checked_arrivals(gamma: np.ndarray) -> np.ndarray:
    """``gamma``, after checking that every arrival time is finite
    (ValueError otherwise)."""
    # min and max propagate NaN, and NaN fails every comparison, so these
    # reductions (and checked_durations') reject NaN without a temporary
    if not (-np.inf < gamma.min(initial=0.0) and gamma.max(initial=0.0) < np.inf):
        raise ValueError("session arrival times must be finite")
    return gamma


def checked_durations(y: np.ndarray) -> np.ndarray:
    """``y``, after checking that every duration is positive and finite
    (ValueError otherwise)."""
    if not (y.min(initial=1.0) > 0 and y.max(initial=1.0) < np.inf):
        raise ValueError("session durations must be positive and finite")
    return y


# --- transmission-rate laws ---------------------------------------------

# the parameter names of each rate kind; W is independent of Y for all
# three, so the limit rate law G of long sessions is W's own law
RATE_PARAMS = {"constant": ("w0",), "uniform": ("a", "b"), "exponential": ("mean",)}


@dataclass(frozen=True)
class JointLaw:
    """Joint law of (duration, rate): Pareto-type durations ``y_dist`` and
    rates of kind ``w_kind`` (a key of RATE_PARAMS) with ``w_params``.

    ``common_rate`` is w0 for a constant law, otherwise None.
    """

    y_dist: TailDist
    w_kind: str
    w_params: tuple

    def __post_init__(self):
        names = RATE_PARAMS.get(self.w_kind)
        if names is None:
            raise ValueError(f"unknown w_kind {self.w_kind!r}, expected one of {list(RATE_PARAMS)}")
        if len(self.w_params) != len(names):
            raise ValueError(
                f"w_params of w_kind {self.w_kind!r} must have length {len(names)}, "
                f"got {list(self.w_params)!r}"
            )
        params = tuple(float(p) for p in self.w_params)
        object.__setattr__(self, "w_params", params)
        # NaN fails every comparison, so these also reject it
        if self.w_kind == "uniform":
            ok, rule = 0 <= params[0] < params[1] < np.inf, "0 <= a < b < inf"
        else:
            ok, rule = 0 < params[0] < np.inf, f"0 < {names[0]} < inf"
        if not ok:
            raise ValueError(
                f"w_params of w_kind {self.w_kind!r} must satisfy {rule}, got {list(params)!r}"
            )

    @property
    def common_rate(self):
        return self.w_params[0] if self.w_kind == "constant" else None

    def sample_rates(self, n: int, gen: np.random.Generator, out=None) -> np.ndarray:
        """n draws of W, which are also draws of G, written into ``out`` when
        given; a constant law's are one read-only broadcast of w0, with no
        array of its own, and it ignores ``out``."""
        if self.w_kind == "constant":
            return np.broadcast_to(self.w_params[0], n)
        w = np.empty(n) if out is None else out
        if self.w_kind == "uniform":
            a, b = self.w_params
            gen.random(out=w)
            w *= b - a
            w += a  # the bits of gen.uniform(a, b, n)
        else:
            gen.standard_exponential(out=w)
            w *= self.w_params[0]  # the bits of gen.exponential(mean, n)
        return w

    def sample_pairs(self, n: int, gen: np.random.Generator):
        return self.y_dist.sample(n, gen), self.sample_rates(n, gen)

    def sample_size_biased_pairs(self, n: int, gen: np.random.Generator):
        """(Y, W) weighted by duration; governs sessions alive at a fixed time."""
        return self.y_dist.sample_size_biased(n, gen), self.sample_rates(n, gen)

    @property
    def mean_y(self) -> float:
        return self.y_dist.mean_y


@dataclass(frozen=True)
class TrafficConfig:
    lam: float
    law: JointLaw
    horizon: float
    rng: RngStream = field(default_factory=lambda: RngStream(0))

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError("arrival intensity must be positive and finite")
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
        self.law.mean_y  # raises if E[Y] is not finite


class ShotNoisePath:
    """Piecewise-constant cadlag level and occupancy on [t0, t1].

    A path is its two step arrays over ``times``, the merged event
    timestamps strictly inside (t0, t1].  ``level_steps`` (float) and
    ``count_steps`` (int64) each hold the value before the first event,
    then the value after each event, so a lookup at t reads index
    ``searchsorted(times, t, 'right')``.  Counts are exact integers;
    build_path makes every level exactly 0 wherever the count is 0, so
    level-based functionals such as ``idle`` see the same idle time as the
    count-based cycles whatever the rates.

    ``level_steps`` may be given as a number w0, the common rate of every
    session: ``common_rate`` is then w0 (otherwise None), and the level
    ``count_steps * w0`` is formed when first read.
    """

    def __init__(self, t0, t1, times, level_steps, count_steps):
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.times = np.asarray(times, dtype=float)
        self.count_steps = np.asarray(count_steps, dtype=np.int64)
        self.common_rate = float(level_steps) if np.ndim(level_steps) == 0 else None
        self._level = None if self.common_rate is not None else np.asarray(level_steps, float)
        if self.t0 >= self.t1:
            raise ValueError("need t0 < t1")
        if len(self.times) and (
            self.times[0] <= self.t0 or self.times[-1] > self.t1
        ):
            raise ValueError("event times must lie in (t0, t1]")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise ValueError("event times must be strictly increasing (merged)")
        n = len(self.times) + 1
        if len(self.count_steps) != n or self._level is not None and len(self._level) != n:
            raise ValueError(f"each step array needs len(times) + 1 = {n} entries")
        if self.count_steps.min() < 0:
            raise ValueError("occupancy count went negative")

    @property
    def level_steps(self) -> np.ndarray:
        if self._level is None:
            self._level = self.count_steps * self.common_rate
        return self._level

    def __len__(self):
        return len(self.times)

    def occupation(self, T: float, ws: Workspace | None = None):
        """(levels, lengths), read-only: the path's occupation measure on
        [t0, T], the time ``lengths[i]`` it spends at level ``levels[i]``.

        On a common-rate path levels is w0 * k for k = 0..K, the largest
        count on [t0, T], and lengths one bincount of the segment lengths
        by count, so it adds in count order.  Otherwise each entry is one
        segment of [t0, T], in time order, its level a view of
        ``level_steps``.  The segment lengths are the workspace's buffer
        ``dt`` when ``ws`` is given.
        """
        if not self.t0 < T <= self.t1:
            raise ValueError(
                f"occupation needs t0 < T <= t1, got T = {T!r} on [{self.t0}, {self.t1}]"
            )
        # the segments are [t0, times[0]), ..., [times[k - 1], T]
        k = int(np.searchsorted(self.times, T, side="left"))
        lengths = _column(ws, "dt", k + 1)
        if k:
            lengths[0] = self.times[0] - self.t0
            np.subtract(self.times[1:k], self.times[: k - 1], out=lengths[1:k])
        lengths[k] = T - (self.times[k - 1] if k else self.t0)
        if self.common_rate is None:
            levels = self.level_steps[: k + 1]
        else:
            lengths = np.bincount(self.count_steps[: k + 1], weights=lengths)
            levels = self.common_rate * np.arange(lengths.size)
        levels.flags.writeable = lengths.flags.writeable = False
        return levels, lengths

    def segments(self, lo=None, hi=None):
        """(bounds, levels, counts) of the step decomposition on [lo, hi].

        ``bounds`` has one more entry than the value arrays; segment i is
        [bounds[i], bounds[i+1]) with constant level/count.  The value
        arrays are read-only views of the path's own.
        """
        lo = self.t0 if lo is None else float(lo)
        hi = self.t1 if hi is None else float(hi)
        if lo < self.t0 or hi > self.t1 or lo >= hi:
            raise ValueError("bad segment range")
        i0 = int(np.searchsorted(self.times, lo, side="right"))
        i1 = int(np.searchsorted(self.times, hi, side="left"))
        bounds = np.concatenate([[lo], self.times[i0:i1], [hi]])
        levels = self.level_steps[i0 : i1 + 1]
        counts = self.count_steps[i0 : i1 + 1]
        levels.flags.writeable = counts.flags.writeable = False
        return bounds, levels, counts


class Workspace:
    """Named numpy buffers that one task's replicates take in turn, so that
    each replicate writes its sessions and its path where the last one's
    were in place of fresh arrays.

    ``take(name, n, dtype)`` returns the first n entries of the buffer
    called ``name``, allocated at exactly n on first use and regrown by at
    least an eighth when a later take needs more.  What a call writes into
    a workspace stays valid until the next call that takes the same
    buffer: sessions until the next simulation, a path until the next
    build, an occupation measure's segment lengths until the next one.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, n: int, dtype=np.float64) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.size < n:
            size = n if buf is None else max(n, buf.size + buf.size // 8)
            # free the old buffer before its successor is allocated
            self._buffers[name] = buf = None
            self._buffers[name] = buf = np.empty(size, dtype)
        return buf[:n]


def _column(ws, name: str, n: int, dtype=np.float64) -> np.ndarray:
    """A length-n array: the workspace's buffer ``name``, or a new array
    when ``ws`` is None."""
    return np.empty(n, dtype) if ws is None else ws.take(name, n, dtype)


def simulate_sessions(config: TrafficConfig, ws: Workspace | None = None) -> Sessions:
    """Fresh Poisson arrivals on [0, horizon], plus the exact stationary
    population alive at time 0, drawn in that order; the stationary
    sessions come first in the columns.

    With a workspace the columns are its buffers ``gamma``, ``y`` and, for
    random rates, ``w``: the fresh draws go straight into them behind a
    head of room for the stationary sessions, which are drawn later.
    Without one, every column is allocated at its exact length.
    """
    gen = config.rng.generator()
    law, w0 = config.law, config.law.common_rate
    nu = config.lam * law.mean_y
    n_fresh = gen.poisson(config.lam * config.horizon)
    # room for the Poisson(nu) stationary sessions, which exceed it with
    # probability below 1e-14
    head = 0 if ws is None else int(nu + 8 * math.sqrt(nu)) + 8
    n = head + n_fresh
    gamma, y = _column(ws, "gamma", n), _column(ws, "y", n)
    # constant rates stay one broadcast, which sample_rates does not write
    w = np.broadcast_to(w0, n) if w0 is not None else _column(ws, "w", n)
    fresh = slice(head, n)
    fresh_arrivals(n_fresh, config.horizon, gen, gamma[fresh])
    # the draws of law.sample_pairs, then of law.sample_size_biased_pairs
    law.y_dist.sample(n_fresh, gen, y[fresh])
    law.sample_rates(n_fresh, gen, w[fresh])
    n0 = gen.poisson(nu)
    if n0 > head:  # no room (without a workspace, whenever n0 > 0): copy to make some
        gamma, y = _with_room(gamma, head, n0), _with_room(y, head, n0)
        if w0 is None:
            w = _with_room(w, head, n0)
        head = n0
    init = slice(head - n0, head)
    law.y_dist.sample_size_biased(n0, gen, y[init])
    law.sample_rates(n0, gen, w[init])
    gamma0 = gamma[init]
    gen.random(out=gamma0)
    np.negative(gamma0, out=gamma0)
    gamma0 *= y[init]  # the bits of -gen.uniform(size=n0) * y0
    live = slice(head - n0, None)
    w = np.broadcast_to(w0, n0 + n_fresh) if w0 is not None else w[live]
    return Sessions(gamma[live], y[live], w)


def _with_room(col: np.ndarray, head: int, n0: int) -> np.ndarray:
    """A new column of n0 free entries followed by col[head:]."""
    out = np.empty(n0 + col.size - head)
    out[n0:] = col[head:]
    return out


def fresh_arrivals(n: int, horizon: float, gen: np.random.Generator, out=None) -> np.ndarray:
    """n sorted arrival times uniform on [0, horizon], written into ``out``
    when given.  With n a Poisson(lam * horizon) draw they are a Poisson
    process of intensity lam on [0, horizon]: ``simulate_sessions`` and the
    cycle chunks draw that count from ``gen`` just before them, and the
    sessions' durations come next in the stream."""
    gamma = np.empty(n) if out is None else out
    gen.random(out=gamma)
    gamma *= horizon  # the bits of gen.uniform(0.0, horizon, n)
    gamma.sort()
    return gamma


def build_path(
    sessions: Sessions, t0: float, t1: float, ws: Workspace | None = None
) -> ShotNoisePath:
    """Assemble the event-sorted path of the session superposition on
    [t0, t1], for t0 >= 0.

    Sessions straddling t0 are folded into the initial level/count;
    departures past t1 are dropped (the level simply never decreases
    there).  Coincident deltas are merged into one net event.  Every
    session's arrival and departure is a candidate event packed into one
    integer key, and the times and counts are read from the sorted keys.
    When every session has the same rate w0 the keys are sorted in place,
    and the level w0 * count (exact whatever the order) is formed when
    first read.  Otherwise a stable argsort of the keys also gathers each
    event's rate, and the level is the running sum of the signed rates on
    top of the rates alive at t0.  With a workspace the times, the counts
    and the levels are its buffers ``times``, ``steps`` and ``levels``.
    """
    if not t0 >= 0:
        raise ValueError(f"build_path needs t0 >= 0, got t0 = {t0!r}")
    w0 = sessions.common_rate
    # each session's arrival, then each one's departure: the candidate
    # events, of which those in (t0, t1] are the path's
    n = len(sessions)
    times = _column(ws, "times", 2 * n)
    times[:n] = sessions.gamma
    np.add(sessions.gamma, sessions.y, out=times[n:])
    if w0 is None:
        # the rates alive at t0, summed in session order
        w = sessions.w
        alive = sessions.gamma <= t0
        alive &= times[n:] > t0
        init_level = float(w[alive].sum())
        del alive
    del sessions  # the last reference when the caller passed them inline (w stays)
    # candidates before t0 are moved to t0, so every time is >= t0 >= 0
    # and the bit patterns of these floats sort as unsigned integers;
    # shifted left, they carry is_departure in the low bit, so an arrival
    # sorts before a departure at the same time.  Equal rates need only
    # the sorted keys; mixed ones need the order, stable so that equal
    # keys keep session order
    np.maximum(times, t0, out=times)
    keys = times.view(np.uint64)
    keys <<= 1
    keys[n:] |= 1
    order = None
    if w0 is None:
        order = np.argsort(keys, kind="stable")
    else:
        keys.sort()
    # the arrivals at t0, then the departures at t0, then the events,
    # then the candidates past t1; the sessions alive at t0 are the
    # arrivals by t0 less the departures by t0
    k0, k1 = np.array([t0, t1]).view(np.uint64) << 1 | 1
    lo, hi = keys.searchsorted([k0, k1], "right", sorter=order)
    init_count = 2 * int(keys.searchsorted(k0, "left", sorter=order)) - int(lo)
    # one int64 step array: each event's delta 1 - 2 * is_departure goes
    # into steps[1:], ties merge into a prefix of it, and the running count
    # (exact in int64) plus the initial count is written over the deltas.
    # With a workspace the times and the steps reuse the last replicate's
    # buffers: fresh arrays per replicate were handed back to the OS and
    # faulted in again, 2.3k minor faults per T = 1e5 unit-rate replicate,
    # and 87 with the workspace (a uniform-rate simulate and build: 2.5k
    # without it, 30 with it)
    times = times[lo:hi]
    steps = _column(ws, "steps", times.size + 1, np.int64)
    deltas = steps[1:]
    if w0 is not None:
        keys = keys[lo:hi]
        np.bitwise_and(keys, 1, out=deltas.view(np.uint64))
        keys >>= 1
    else:
        # the events' keys go into the deltas' place and their times back
        # into the candidates' buffer; each event's rate is its session's,
        # candidate i's session being i mod n ('wrap', which also writes
        # straight into out, where 'raise' would gather into a copy first)
        order = order[lo:hi]
        keys = np.take(keys, order, out=deltas.view(np.uint64), mode="wrap")
        levels = _column(ws, "levels", times.size + 1)
        np.take(w, order, out=levels[1:], mode="wrap")
        del order, w
        np.right_shift(keys, 1, out=times.view(np.uint64))
        keys &= 1
    deltas *= -2
    deltas += 1
    if w0 is not None:
        m = _merge_ties(times, deltas)
    else:
        levels[1:] *= deltas  # each event's signed rate, exactly
        m = _merge_ties(times, deltas, levels[1:])
    times, steps = times[:m], steps[: m + 1]
    steps[0] = init_count
    if ws is None:
        # the kernel takes no out argument: the benchmark's tracer counts
        # its calls by their one argument
        np.add(kernels.compensated_cumsum(steps[1:]), init_count, out=steps[1:])
    else:
        np.cumsum(steps, out=steps)  # in place, from steps[0] = init_count
    if w0 is not None:
        return ShotNoisePath(t0, t1, times, w0, steps)
    levels = levels[: m + 1]
    running = kernels.compensated_cumsum(levels[1:])
    # a running float sum may dip below 0 by a slack of 1e-9 * accumulated
    # |w| (|deltas| in place: they are not read again)
    slack = 1e-9 * float(np.abs(levels[1:], out=levels[1:]).sum())
    levels[0] = init_level
    np.add(running, init_level, out=levels[1:])
    del running
    levels[steps == 0] = 0.0  # drop float residues of departed rates
    if np.any(levels < -slack):
        raise ValueError("level went below numerical slack")
    return ShotNoisePath(t0, t1, times, levels, steps)


def _merge_ties(times, *deltas) -> int:
    """Merge each run of equal sorted ``times`` into one event, in place:
    the runs' times, and each delta array's sums over the runs, go into a
    prefix of each array, whose length is returned."""
    tie = times[1:] == times[:-1]
    if not tie.any():
        return times.size
    # first event of each run of equal times
    start_idx = np.flatnonzero(np.r_[True, ~tie])
    del tie
    times[: start_idx.size] = times[start_idx]
    for d in deltas:
        d[: start_idx.size] = np.add.reduceat(d, start_idx)
    return start_idx.size


def stationary_window_draws(config: TrafficConfig, n: int, rng: RngStream, h: float = 0.0):
    """n i.i.d. draws of the sup of the stationary level over [0, h], which
    is X(0) at h = 0.

    Each draw's window holds its sessions alive at 0 and its fresh
    arrivals in [0, h), of which there are none at h = 0.  The columns of
    both kinds are drawn for all n draws at once, the session ends formed
    in place; ``_sups_by_block`` then reduces contiguous blocks of draws,
    each of at most ``_BLOCK_CELLS // 4`` sessions, so the working memory
    beyond the drawn columns is bounded whatever n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = rng.generator()
    lam, law = config.lam, config.law

    n_init = gen.poisson(lam * law.mean_y, n)
    y0, w0 = law.sample_size_biased_pairs(int(n_init.sum()), gen)
    g0 = gen.uniform(size=y0.size)
    g0 *= y0
    np.negative(g0, out=g0)  # -(u * y) is (-u) * y bit for bit
    y0 += g0  # now each session's end

    n_fresh = gen.poisson(lam * h, n)  # all 0 at h = 0
    yf, wf = law.sample_pairs(int(n_fresh.sum()), gen)
    gf = gen.uniform(0.0, h, yf.size)
    yf += gf  # now each session's end
    return _sups_by_block((n_init, g0, y0, w0), (n_fresh, gf, yf, wf), h)


def _sups_by_block(init, fresh, h: float) -> np.ndarray:
    """sup over [0, h] of each draw's step superposition, a block of draws
    at a time.

    ``init`` and ``fresh`` are (counts, gamma, end, w): per-draw session
    counts, then columns holding draw 0's sessions, then draw 1's, and so
    on.  Draw i's sessions are its init ones, then its fresh ones, each in
    column order.  Every block has the same number of draws, sized so that
    it holds at most ``_BLOCK_CELLS // 4`` sessions even if each of its
    draws were as wide as the widest init and fresh counts; a session adds
    at most two events, so its padded event matrices have at most
    ``_BLOCK_CELLS // 2`` cells.

    Every post-event level with event time in (0, h] is attained in
    [0, h], and at h = 0 the sup is the level X(0).  Each sup adds the
    same floats in the same order as a sweep of one draw's sessions in
    index order: a sequential sum of the rates alive at 0, plus a
    sequential cumsum of the event deltas (arrivals, then departures) in
    stable time order; so it is bit-identical to one.
    """
    n_init, n_fresh = init[0], fresh[0]
    rows = max(1, _BLOCK_CELLS // (4 * max(1, int(n_init.max()) + int(n_fresh.max()))))
    sups = np.empty(n_init.size)
    i0 = f0 = 0
    for a in range(0, n_init.size, rows):
        b = a + rows  # past n for a short last block, which slicing clips
        c_init, c_fresh = n_init[a:b], n_fresh[a:b]
        i1, f1 = i0 + int(c_init.sum()), f0 + int(c_fresh.sum())
        draws = np.arange(c_init.size)
        owner = np.concatenate([np.repeat(draws, c_init), np.repeat(draws, c_fresh)])
        gamma, end, w = (np.concatenate([c0[i0:i1], cf[f0:f1]]) for c0, cf in zip(init[1:], fresh[1:]))
        i0, f0 = i1, f1

        # base level X(0): np.add.at adds each draw's live rates in index order
        live = (gamma <= 0.0) & (end > 0.0)
        base = np.zeros(draws.size)
        np.add.at(base, owner[live], w[live])

        # events in (0, h], grouped by draw in sweep order (a stable sort of
        # the owners, which come in four sorted runs), then one +inf-padded
        # row of times per draw, stably sorted row by row; the row-wise
        # cumsum adds sequentially, and the zero deltas of the padding only
        # repeat a row's last level
        arr = (gamma > 0.0) & (gamma <= h)
        dep = (end > 0.0) & (end <= h)
        o_ev = np.concatenate([owner[arr], owner[dep]])
        by_owner = np.argsort(o_ev, kind="stable")
        o_ev = o_ev[by_owner]
        n_ev = np.bincount(o_ev, minlength=draws.size)
        cells = (o_ev, np.arange(o_ev.size) - (np.cumsum(n_ev) - n_ev)[o_ev])
        times = np.full((draws.size, int(n_ev.max())), np.inf)
        times[cells] = np.concatenate([gamma[arr], end[dep]])[by_owner]
        steps = np.zeros(times.shape)
        steps[cells] = np.concatenate([w[arr], -w[dep]])[by_owner]
        steps = np.take_along_axis(steps, np.argsort(times, axis=1, kind="stable"), axis=1)
        levels = base[:, None] + np.cumsum(steps, axis=1)
        np.maximum(base, levels.max(axis=1, initial=-np.inf), out=sups[a:b])
    return sups

