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

    def sample_rates(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """n draws of W, which are also draws of G; a constant law's are one
        read-only broadcast of w0, with no array of its own."""
        if self.w_kind == "constant":
            return np.broadcast_to(self.w_params[0], n)
        if self.w_kind == "uniform":
            return gen.uniform(self.w_params[0], self.w_params[1], n)
        return gen.exponential(self.w_params[0], n)

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
        if not self.lam > 0:
            raise ValueError("arrival intensity must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        self.law.mean_y  # raises if E[Y] is not finite


class ShotNoisePath:
    """Piecewise-constant cadlag level and occupancy on [t0, t1].

    ``times`` are merged event timestamps strictly inside (t0, t1].  Each
    step array holds the value before the first event, then the value
    after each event, so a lookup at t reads index
    ``searchsorted(times, t, 'right')``; ``levels`` / ``counts`` are views
    of the post-event tails and ``init_level`` / ``init_count`` the first
    entries.  Counts are exact integers; build_path makes every level
    exactly 0 wherever the count is 0, so level-based functionals such as
    ``idle`` see the same idle time as the count-based cycles whatever the
    rates.
    """

    def __init__(self, t0, t1, times, level_steps, count_steps):
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.times = np.asarray(times, dtype=float)
        self._level_steps = np.asarray(level_steps, dtype=float)
        self._count_steps = np.asarray(count_steps, dtype=np.int64)
        if self.t0 >= self.t1:
            raise ValueError("need t0 < t1")
        if len(self.times) and (
            self.times[0] <= self.t0 or self.times[-1] > self.t1
        ):
            raise ValueError("event times must lie in (t0, t1]")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise ValueError("event times must be strictly increasing (merged)")
        n = len(self.times) + 1
        if len(self._level_steps) != n or len(self._count_steps) != n:
            raise ValueError(f"each step array needs len(times) + 1 = {n} entries")
        if np.any(self._count_steps < 0):
            raise ValueError("occupancy count went negative")
        self.levels = self._level_steps[1:]
        self.counts = self._count_steps[1:]
        self.init_level = float(self._level_steps[0])
        self.init_count = int(self._count_steps[0])

    def __len__(self):
        return len(self.times)

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
        levels = self._level_steps[i0 : i1 + 1]
        counts = self._count_steps[i0 : i1 + 1]
        levels.flags.writeable = counts.flags.writeable = False
        return bounds, levels, counts


def simulate_sessions(config: TrafficConfig) -> Sessions:
    """Fresh Poisson arrivals on [0, horizon], plus the exact stationary
    population alive at time 0."""
    gen = config.rng.generator()
    gamma_f = fresh_arrivals(config.lam, config.horizon, gen)
    n_fresh = gamma_f.size
    y_f, w_f = config.law.sample_pairs(n_fresh, gen)
    n0 = gen.poisson(config.lam * config.law.mean_y)
    y0, w0 = config.law.sample_size_biased_pairs(n0, gen)
    gamma0 = -gen.uniform(size=n0) * y0
    # the stationary sessions first, then the fresh arrivals; constant
    # rates stay one broadcast
    w = config.law.common_rate
    w = np.concatenate([w0, w_f]) if w is None else np.broadcast_to(w, n0 + n_fresh)
    return Sessions(np.concatenate([gamma0, gamma_f]), np.concatenate([y0, y_f]), w)


def fresh_arrivals(lam: float, horizon: float, gen: np.random.Generator) -> np.ndarray:
    """The sorted arrival times of intensity ``lam`` on [0, horizon]: a Poisson
    count, then that many uniforms, the first draws ``simulate_sessions`` takes
    from ``gen``.  The sessions' durations come next in the stream."""
    gamma = gen.uniform(0.0, horizon, gen.poisson(lam * horizon))
    gamma.sort()
    return gamma


def build_path(sessions: Sessions, t0: float, t1: float) -> ShotNoisePath:
    """Assemble the event-sorted path of the session superposition.

    Sessions straddling t0 are folded into the initial level/count;
    departures past t1 are dropped (the level simply never decreases
    there).  Coincident deltas are merged into one net event.  When every
    session has the same rate and t0 >= 0, the path is built from the
    occupancy count alone (level = w0 * count, exact whatever the order).
    """
    if t0 >= t1:
        raise ValueError("need t0 < t1")
    w0 = sessions.common_rate
    if w0 is not None and t0 >= 0:
        times, _, n_arr, _, init_count = _session_events(sessions, t0, t1, rates=False)
        # one int64 step array: each event's delta 1 - 2 * is_departure
        # goes into steps[1:], ties merge into a prefix of it, and the
        # running count (exact in int64) plus the initial count is written
        # back over the deltas.  It is allocated before the sessions are
        # freed, so their space goes to the cumsum and then to the next
        # replicate's sessions; allocated after, it took that space, and
        # glibc trimmed the heap top and faulted it in again on every
        # replicate (28k page faults per replicate-fanout run, not 7k)
        steps = np.empty(times.size + 1, dtype=np.int64)
        del sessions  # the last reference when the caller passed them inline
        # every time exceeds t0 >= 0, so the bit patterns of these positive
        # floats sort as unsigned integers; shifted left, they carry
        # is_departure in the low bit (an arrival sorts before a departure
        # at the same time, as in the stable argsort), and one in-place
        # sort orders the events
        keys = times.view(np.uint64)
        keys <<= 1
        keys[n_arr:] |= 1
        keys.sort()
        deltas = steps[1:]
        np.bitwise_and(keys, 1, out=deltas.view(np.uint64))
        deltas *= -2
        deltas += 1
        keys >>= 1
        times, (merged,) = _merge_ties(times, deltas)
        if merged.size < deltas.size:
            steps = steps[: merged.size + 1]
            steps[1:] = merged
        steps[0] = init_count
        # the kernel takes no out argument: the benchmark's tracer counts
        # its calls by their one argument
        np.add(kernels.compensated_cumsum(steps[1:]), init_count, out=steps[1:])
        return ShotNoisePath(t0, t1, times, steps * w0, steps)
    times, r_delta, n_arr, init_level, init_count = _session_events(sessions, t0, t1)
    del sessions
    # gather one column at a time and drop the permutation before the steps
    # are formed (numpy frees each source as it is rebound)
    order = np.argsort(times, kind="stable")
    times = times[order]
    r_delta = r_delta[order]
    c_delta = np.where(order < n_arr, 1, -1)  # the first n_arr events are the arrivals
    del order
    times, (r_delta, c_delta) = _merge_ties(times, r_delta, c_delta)
    level_steps = _steps(kernels.compensated_cumsum(r_delta), init_level)
    count_steps = _steps(np.cumsum(c_delta, out=c_delta), init_count)
    level_steps[count_steps == 0] = 0.0  # drop float residues of departed rates
    # a running float sum may dip below 0 by a slack of 1e-9 * accumulated
    # |w| (|deltas| in place: they are not read again)
    if np.any(level_steps < -1e-9 * float(np.abs(r_delta, out=r_delta).sum())):
        raise ValueError("level went below numerical slack")
    return ShotNoisePath(t0, t1, times, level_steps, count_steps)


def _steps(running, init):
    """A path's step array: ``init`` before the first event, then
    ``init + running`` after each."""
    steps = np.empty(running.size + 1, dtype=running.dtype)
    steps[0] = init
    np.add(running, init, out=steps[1:])
    return steps


def _merge_ties(times, *deltas):
    """Sorted ``times`` with each run of equal times merged into one event
    whose deltas are the run's sums."""
    tie = times[1:] == times[:-1]
    if not tie.any():
        return times, deltas
    # first event of each run of equal times
    start_idx = np.flatnonzero(np.r_[True, ~tie])
    return times[start_idx], tuple(np.add.reduceat(d, start_idx) for d in deltas)


def _session_events(sessions: Sessions, t0: float, t1: float, rates: bool = True):
    """(times, rate deltas, arrival count, init level, init count) of
    build_path: the arrivals in (t0, t1], then the departures in (t0, t1]
    of sessions arriving by t1, each in session order, written straight
    into the two event arrays; and the sessions alive at t0.  Without
    ``rates`` the rate deltas and the init level are None."""
    gamma, w = sessions.gamma, sessions.w
    dep = gamma + sessions.y
    dep_after = dep > t0
    arr_by = gamma <= t1
    at_init = gamma <= t0
    at_init &= dep_after
    init_count = int(np.count_nonzero(at_init))
    arr_mask = gamma > t0
    arr_mask &= arr_by
    dep_mask = dep <= t1
    dep_mask &= dep_after
    dep_mask &= arr_by
    n_arr = int(np.count_nonzero(arr_mask))
    n_ev = n_arr + int(np.count_nonzero(dep_mask))
    times = np.empty(n_ev)
    np.compress(arr_mask, gamma, out=times[:n_arr])
    np.compress(dep_mask, dep, out=times[n_arr:])
    if not rates:
        return times, None, n_arr, None, init_count
    init_level = float(w[at_init].sum())
    r_delta = np.empty(n_ev)
    np.compress(arr_mask, w, out=r_delta[:n_arr])
    np.compress(dep_mask, w, out=r_delta[n_arr:])
    np.negative(r_delta[n_arr:], out=r_delta[n_arr:])
    return times, r_delta, n_arr, init_level, init_count


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

