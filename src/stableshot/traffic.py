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

# cells of one block of stationary_window_draws' padded event matrix
# (1 MiB of float64): bounds its memory whatever the draw count
_BLOCK_CELLS = 1 << 17


class Sessions:
    """Column store of session triples (arrival time, duration, rate).

    ``common_rate`` is the rate every session shares, or None when the
    rates differ or there are no sessions.
    """

    def __init__(self, gamma, y, w):
        self.gamma = np.asarray(gamma, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.w = np.asarray(w, dtype=float)
        if not (len(self.gamma) == len(self.y) == len(self.w)):
            raise ValueError("column lengths differ")
        # min and max propagate NaN, and NaN fails every comparison, so
        # these reductions reject NaN and infinities without a temporary
        if not (-np.inf < self.gamma.min(initial=0.0) and self.gamma.max(initial=0.0) < np.inf):
            raise ValueError("session arrival times must be finite")
        if not (self.y.min(initial=1.0) > 0 and self.y.max(initial=1.0) < np.inf):
            raise ValueError("session durations must be positive and finite")
        w_lo, w_hi = self.w.min(initial=np.inf), self.w.max(initial=-np.inf)
        if not (w_lo >= 0 and w_hi < np.inf):
            raise ValueError("session rates must be nonnegative and finite")
        self.common_rate = float(w_lo) if w_lo == w_hi else None

    def __len__(self):
        return len(self.gamma)


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
        """n draws of W, which are also draws of G."""
        if self.w_kind == "constant":
            return np.full(n, self.w_params[0])
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
    stationary_init: bool = True
    rng: RngStream = field(default_factory=lambda: RngStream(0))

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("arrival intensity must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        self.law.mean_y  # raises if E[Y] is not finite


class ShotNoisePath:
    """Piecewise-constant cadlag level and occupancy on [t0, t1].

    ``times`` are merged event timestamps strictly inside (t0, t1]; the
    level / count after event i are ``levels[i]`` / ``counts[i]``.  Counts
    are exact integers.  Given a common rate ``w0`` (pass ``rate_delta``
    and ``init_level`` as None; ``rate_delta`` stays None), every level is
    ``w0 * count``, exact whatever the summation order, with slack
    ``eps_num = 1e-9 * (w0 * sum |count_delta|)``.  Otherwise levels are plain running float sums of
    ``rate_delta`` with slack ``eps_num = 1e-9 * accumulated |w|``, and are
    exactly 0 wherever the count is 0, so level-based functionals such as
    ``idle`` see the same idle time as the count-based cycles whatever the
    rates.
    """

    def __init__(self, t0, t1, times, rate_delta, count_delta, init_level, init_count, w0=None):
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.times = np.asarray(times, dtype=float)
        self.count_delta = np.asarray(count_delta, dtype=np.int64)
        self.init_count = int(init_count)
        self.w0 = None if w0 is None else float(w0)
        if self.w0 is None:
            self.rate_delta = np.asarray(rate_delta, dtype=float)
            self.init_level = float(init_level)
        else:
            self.rate_delta = None
            self.init_level = self.w0 * self.init_count
        if self.t0 >= self.t1:
            raise ValueError("need t0 < t1")
        if len(self.times) and (
            self.times[0] <= self.t0 or self.times[-1] > self.t1
        ):
            raise ValueError("event times must lie in (t0, t1]")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise ValueError("event times must be strictly increasing (merged)")
        # the value before the first event, then after each event, built
        # once: a lookup at t reads index searchsorted(times, t, 'right'),
        # and levels/counts are views of the tails, not second copies
        n = len(self.times)
        self._level_steps = np.empty(n + 1)
        self._level_steps[0] = self.init_level
        self._count_steps = np.empty(n + 1, dtype=np.int64)
        self._count_steps[0] = self.init_count
        self.levels = self._level_steps[1:]
        self.counts = self._count_steps[1:]
        if self.w0 is None:
            running = kernels.compensated_cumsum(self.rate_delta)
            np.add(running, self.init_level, out=self.levels)
            np.cumsum(self.count_delta, out=self.counts)
            self.counts += self.init_count
            self.levels[self.counts == 0] = 0.0  # drop float residues of departed rates
            # |deltas| reuse the running sum's buffer
            self.eps_num = 1e-9 * float(np.abs(self.rate_delta, out=running).sum())
        else:
            # the running count, exact in int64
            running = kernels.compensated_cumsum(self.count_delta)
            np.add(running, self.init_count, out=self.counts)
            np.multiply(self.counts, self.w0, out=self.levels)
            self.eps_num = 1e-9 * (self.w0 * float(np.abs(self.count_delta, out=running).sum()))
        if self.init_count < 0 or np.any(self.counts < 0):
            raise ValueError("occupancy count went negative")
        if self.init_level < 0 or np.any(self.levels < -self.eps_num):
            raise ValueError("level went below numerical slack")

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
    """Fresh Poisson arrivals on [0, horizon], plus (optionally) the exact
    stationary population alive at time 0."""
    gen = config.rng.generator()
    n_fresh = gen.poisson(config.lam * config.horizon)
    gamma_f = gen.uniform(0.0, config.horizon, n_fresh)
    gamma_f.sort()
    y_f, w_f = config.law.sample_pairs(n_fresh, gen)
    if not config.stationary_init:
        return Sessions(gamma_f, y_f, w_f)
    n0 = gen.poisson(config.lam * config.law.mean_y)
    y0, w0 = config.law.sample_size_biased_pairs(n0, gen)
    gamma0 = -gen.uniform(size=n0) * y0
    # the stationary sessions first, then the fresh arrivals
    return Sessions(
        np.concatenate([gamma0, gamma_f]), np.concatenate([y0, y_f]), np.concatenate([w0, w_f])
    )


def build_path(sessions: Sessions, t0: float, t1: float) -> ShotNoisePath:
    """Assemble the event-sorted path of the session superposition.

    Sessions straddling t0 are folded into the initial level/count;
    departures past t1 are dropped (the level simply never decreases
    there).  Coincident deltas are merged into one net event.  When every
    session has the same rate and t0 >= 0, the path is built from the
    occupancy count alone (level = w0 * count, see ShotNoisePath).
    """
    if t0 >= t1:
        raise ValueError("need t0 < t1")
    w0 = sessions.common_rate
    if w0 is not None and t0 >= 0:
        times, _, n_arr, _, init_count = _session_events(sessions, t0, t1, rates=False)
        # every time exceeds t0 >= 0, so the bit patterns of these positive
        # floats sort as unsigned integers; shifted left, they carry
        # is_departure in the low bit (an arrival sorts before a departure
        # at the same time, as in the stable argsort), and one in-place
        # sort orders the events
        keys = times.view(np.uint64)
        keys <<= 1
        keys[n_arr:] |= 1
        keys.sort()
        c_delta = (keys & 1).view(np.int64)
        c_delta *= -2
        c_delta += 1
        keys >>= 1
        times, (c_delta,) = _merge_ties(times, c_delta)
        return ShotNoisePath(t0, t1, times, None, c_delta, None, init_count, w0=w0)
    times, r_delta, n_arr, init_level, init_count = _session_events(sessions, t0, t1)
    # gather one column at a time and drop the permutation before the path
    # is built: beside the path's own arrays, its running sum is then the
    # one event-length temporary (numpy frees each source as it is rebound)
    order = np.argsort(times, kind="stable")
    times = times[order]
    r_delta = r_delta[order]
    c_delta = np.where(order < n_arr, 1, -1)  # the first n_arr events are the arrivals
    del order
    times, (r_delta, c_delta) = _merge_ties(times, r_delta, c_delta)
    return ShotNoisePath(t0, t1, times, r_delta, c_delta, init_level, init_count)


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
    is X(0) at h = 0, for all draws in one vectorized pass."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _window_sups(*_window_sessions(config, n, rng, h), n, h)


def _window_sessions(config: TrafficConfig, n: int, rng: RngStream, h: float):
    """(owner, gamma, end, w) of the sessions of n independent stationary
    windows on [0, h]: the sessions alive at 0, then the fresh arrivals in
    [0, h), drawn only when h > 0; ``owner`` is the draw index of each
    session."""
    gen = rng.generator()
    lam, law = config.lam, config.law
    nu = lam * law.mean_y

    n_init = gen.poisson(nu, n)
    tot0 = int(n_init.sum())
    y0, w0 = law.sample_size_biased_pairs(tot0, gen)
    g0 = -gen.uniform(size=tot0) * y0
    owner0 = np.repeat(np.arange(n), n_init)

    if h > 0:
        n_fresh = gen.poisson(lam * h, n)
        totf = int(n_fresh.sum())
        yf, wf = law.sample_pairs(totf, gen)
        gf = gen.uniform(0.0, h, totf)
        ownerf = np.repeat(np.arange(n), n_fresh)
        gamma = np.concatenate([g0, gf])
        dur = np.concatenate([y0, yf])
        w = np.concatenate([w0, wf])
        owner = np.concatenate([owner0, ownerf])
    else:
        gamma, dur, w, owner = g0, y0, w0, owner0
    return owner, gamma, gamma + dur, w


def _window_sups(owner, gamma, end, w, n: int, h: float) -> np.ndarray:
    """sup over [0, h] of each draw's step superposition, draws 0..n-1.

    Every post-event level with event time in (0, h] is attained in
    [0, h], and at h = 0 the sup is the level X(0).  Each sup adds the
    same floats in the same order as a sweep of one draw's sessions in
    index order: a sequential sum of the rates alive at 0, plus a
    sequential cumsum of the event deltas (arrivals, then departures) in
    stable time order; so it is bit-identical to one.
    """
    # base level X(0): np.add.at adds each draw's live rates in index order
    live = (gamma <= 0.0) & (end > 0.0)
    base = np.zeros(n)
    np.add.at(base, owner[live], w[live])

    # events in (0, h], grouped by draw in sweep order (a stable sort of
    # the owners, which come in four sorted runs), then per block one
    # +inf-padded row of times per draw, stably sorted row by row; the
    # row-wise cumsum adds sequentially, and the zero deltas of the
    # padding only repeat a row's last level
    arr = (gamma > 0.0) & (gamma <= h)
    dep = (end > 0.0) & (end <= h)
    t_ev = np.concatenate([gamma[arr], end[dep]])
    d_ev = np.concatenate([w[arr], -w[dep]])
    o_ev = np.concatenate([owner[arr], owner[dep]])
    by_owner = np.argsort(o_ev, kind="stable")
    t_ev, d_ev, o_ev = t_ev[by_owner], d_ev[by_owner], o_ev[by_owner]
    n_ev = np.bincount(o_ev, minlength=n)
    first_ev = np.append(0, np.cumsum(n_ev))
    col = np.arange(o_ev.size) - first_ev[o_ev]

    sups = base.copy()
    rows_per_block = max(1, _BLOCK_CELLS // max(1, int(n_ev.max(initial=0))))
    for a in range(0, n, rows_per_block):
        b = min(a + rows_per_block, n)
        e0, e1 = first_ev[a], first_ev[b]
        if e0 == e1:
            continue
        shape = (b - a, int(n_ev[a:b].max()))
        cells = (o_ev[e0:e1] - a, col[e0:e1])
        times = np.full(shape, np.inf)
        times[cells] = t_ev[e0:e1]
        steps = np.zeros(shape)
        steps[cells] = d_ev[e0:e1]
        steps = np.take_along_axis(steps, np.argsort(times, axis=1, kind="stable"), axis=1)
        levels = base[a:b, None] + np.cumsum(steps, axis=1)
        np.maximum(sups[a:b], levels.max(axis=1), out=sups[a:b])
    return sups

