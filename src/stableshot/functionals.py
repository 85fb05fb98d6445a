"""Window functionals and their exact integrals along a path.

A functional phi acts on the window {X(s+t), 0 <= t <= h} through either
finitely many evaluation offsets, or the offset values plus the running
supremum over [0, h].  For both classes s -> phi(X_h(s)) is piecewise
constant with breakpoints in the shifted event times, so time integrals
are computed exactly as sum(value * segment length) -- no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import traffic
from ._backend import kernels
from .heavy_rand import TailDist, tail_quantile_a
from .rng import RngStream
from .traffic import ShotNoisePath, TrafficConfig

__all__ = [
    "WindowFunctional",
    "identity",
    "clipped",
    "cdf_indicator",
    "idle_indicator",
    "window_sup_indicator",
    "functional_steps",
    "integrate_phi",
    "cycle_integrals",
    "EmpiricalPath",
    "empirical_path",
    "monte_carlo_response",
    "estimate_calE",
    "empirical_cdf",
]


@dataclass(frozen=True)
class WindowFunctional:
    """Bounded measurable map of the window, restricted to computable kinds.

    ``kind`` 'pointwise': ``fn(values)`` with values shaped (..., k) for the
    k offsets.  ``kind`` 'window_sup': ``fn(values, sup)`` where sup is the
    running supremum over [0, h].  ``fn`` must be numpy-vectorized over the
    leading axes and must not modify its input: ``functional_steps`` may
    pass it read-only views of a path's levels.  ``continuity_assertion``
    records that the long-session response w -> E[phi(w + X_h(0))] is a.s.
    continuous under the limiting rate law (set automatically by the
    built-ins for atomic rate laws).
    ``form`` records how a built-in reads one scalar statistic s of the
    window, x(0) or for 'window_sup' the sup: ``("le", b)`` for
    1{s <= b}, ``("min", b)`` for min(s, b), ``("id", None)`` for s
    itself; None when phi is known only through ``fn``.  Monte Carlo
    response curves use it to evaluate many shifts w at once from the
    sorted draws of s.
    """

    name: str
    h: float
    kind: str
    offsets: tuple
    fn: Callable
    sup_norm: float
    continuity_assertion: bool = False
    form: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("pointwise", "window_sup"):
            raise ValueError(f"unsupported functional kind {self.kind!r}")
        if self.form is not None and self.form[0] not in ("le", "min", "id"):
            raise ValueError(f"unsupported functional form {self.form!r}")
        if self.h < 0:
            raise ValueError("window length must be nonnegative")
        offs = np.asarray(self.offsets, dtype=float)
        if offs.size == 0 or np.any((offs < 0) | (offs > self.h)):
            raise ValueError("offsets must lie in [0, h]")
        if np.any(np.diff(offs) <= 0):
            raise ValueError("offsets must be strictly increasing")

    def __call__(self, values, sup=None):
        if self.kind == "pointwise":
            return self.fn(np.asarray(values, dtype=float))
        return self.fn(np.asarray(values, dtype=float), np.asarray(sup, dtype=float))


def _v0(values):
    return values[..., 0]


def identity() -> WindowFunctional:
    """phi(x) = x(0).  Unbounded; kept for the classical empirical-mean case."""
    return WindowFunctional(
        name="identity", h=0.0, kind="pointwise", offsets=(0.0,),
        fn=_v0, sup_norm=math.inf, continuity_assertion=True, form=("id", None),
    )


def clipped(b: float) -> WindowFunctional:
    """phi(x) = min(x(0), b), e.g. rate clipped at a bandwidth cap."""

    def fn(values, _b=float(b)):
        return np.minimum(values[..., 0], _b)

    return WindowFunctional(
        name=f"clipped_{b:g}", h=0.0, kind="pointwise", offsets=(0.0,),
        fn=fn, sup_norm=float(b), continuity_assertion=True, form=("min", float(b)),
    )


def cdf_indicator(x: float) -> WindowFunctional:
    """phi = 1{x(0) <= x}; integrating it yields the time-average CDF."""

    def fn(values, _x=float(x)):
        return (values[..., 0] <= _x).astype(float)

    return WindowFunctional(
        name=f"cdf_le_{x:g}", h=0.0, kind="pointwise", offsets=(0.0,),
        fn=fn, sup_norm=1.0, continuity_assertion=True, form=("le", float(x)),
    )


def idle_indicator() -> WindowFunctional:
    """phi = 1{x(0) = 0} (idle detection on the level)."""

    def fn(values):
        return (values[..., 0] <= 0.0).astype(float)

    return WindowFunctional(
        name="idle", h=0.0, kind="pointwise", offsets=(0.0,),
        fn=fn, sup_norm=1.0, continuity_assertion=True, form=("le", 0.0),
    )


def window_sup_indicator(b: float, h: float) -> WindowFunctional:
    """phi = 1{sup over [0, h] of x <= b}."""

    def fn(values, sup, _b=float(b)):
        return (sup <= _b).astype(float)

    return WindowFunctional(
        name=f"sup_le_{b:g}_h{h:g}", h=float(h), kind="window_sup", offsets=(0.0,),
        fn=fn, sup_norm=1.0, continuity_assertion=True, form=("le", float(b)),
    )


def functional_steps(path: ShotNoisePath, phi: WindowFunctional, t0: float, t1: float):
    """Step decomposition of s -> phi(X_h(s)) on [t0, t1].

    Returns (bounds, values): segment i is [bounds[i], bounds[i+1]) with
    constant value values[i].  Requires path data up to t1 + h.

    X(s + d) is constant in s between consecutive entries of the shifted
    event times ``times - d``, so the breakpoints are the merge of those
    lists over the offsets d, and for the window sup over 0 and h as well
    (its range runs from s to s + h).  A segment reads X(s + d) from the
    level step #{j : times[j] - d <= segment start}, counted in the merge,
    and the sup as the range max of the level steps between the counts for
    0 and h.  With the single shift 0 the merge is the path's own segment
    list, read as it is.
    """
    if t0 < path.t0 or t1 + phi.h > path.t1 or t0 >= t1:
        raise ValueError("path must cover [t0, t1 + h]")
    offs = [float(o) for o in phi.offsets]
    sup_range = [0.0, float(phi.h)] if phi.kind == "window_sup" else []
    shifts = sorted(set(offs + sup_range))
    if shifts == [0.0]:
        bounds, levels, _ = path.segments(t0, t1)
        vals, sups = levels[:, None], levels
    else:
        bounds, idx = _merged_steps(path.times, shifts, t0, t1)
        steps = path._level_steps  # counts run to len(times), past segments()' end
        vals = steps[idx[[shifts.index(o) for o in offs]].T]
        if sup_range:
            lo, hi = (idx[shifts.index(d)] for d in sup_range)
            sups = kernels.sliding_range_max(steps, lo, hi)
    phi_vals = phi(vals, sups) if sup_range else phi(vals)
    return bounds, np.asarray(phi_vals, dtype=float)


def _merged_steps(times, shifts, t0, t1):
    """(bounds, idx) of the merged lists ``times - d``, d in shifts.

    bounds is t0, the distinct merged values strictly inside (t0, t1), then
    t1; idx[k, i] = #{j : times[j] - shifts[k] <= bounds[i]}.  Each list is
    sorted, so the stable sort is a linear merge of its runs.
    """
    parts = [times - d for d in shifts]
    i0 = [int(np.searchsorted(p, t0, side="right")) for p in parts]
    parts = [p[a : int(np.searchsorted(p, t1, side="left"))] for p, a in zip(parts, i0)]
    merged = np.concatenate(parts)
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    # the last entry of each run of equal values, where the counts include every tie
    last = np.flatnonzero(np.append(merged[1:] != merged[:-1], merged.size > 0))
    bounds = np.concatenate([[t0], merged[last], [t1]])
    # which list each merged entry came from; the counts at run ends
    src = np.repeat(np.arange(len(parts)), [len(p) for p in parts])[order]
    idx = np.array([np.append(a, a + np.cumsum(src == k)[last]) for k, a in enumerate(i0)])
    return bounds, idx


def integrate_phi(path: ShotNoisePath, phi: WindowFunctional, t0: float, t1: float) -> float:
    """Exact integral of phi(X_h(s)) over [t0, t1]."""
    bounds, vals = functional_steps(path, phi, t0, t1)
    return float(np.dot(vals, np.diff(bounds)))


def _prefix_integral(bounds, vals):
    cum = np.empty(len(vals) + 1)
    cum[0] = 0.0
    areas = np.diff(bounds)
    areas *= vals
    np.cumsum(areas, out=cum[1:])

    def at(points):
        points = np.asarray(points, dtype=float)
        idx = np.clip(np.searchsorted(bounds, points, side="right") - 1, 0, len(vals) - 1)
        return cum[idx] + vals[idx] * (points - bounds[idx])

    return at


def cycle_integrals(path: ShotNoisePath, decomposition, phi: WindowFunctional) -> np.ndarray:
    """Per-cycle integrals of phi(X_h(s)), one value per complete cycle."""
    if decomposition.m_T == 0:
        return np.empty(0)
    t0 = decomposition.s0
    t1 = float(decomposition.s_end[-1])
    bounds, vals = functional_steps(path, phi, t0, t1)
    at = _prefix_integral(bounds, vals)
    return at(decomposition.s_end) - at(decomposition.s_start)


@dataclass(frozen=True)
class EmpiricalPath:
    """Normalized centered integral u -> Z_T(u) as a piecewise-linear path.

    ``values[i]`` is the normalized integral up to u_breaks[i] * T; linear
    interpolation between breakpoints is exact.
    """

    u_breaks: np.ndarray
    values: np.ndarray
    T: float
    a_T: float
    centering: float
    centering_se: float = 0.0
    centering_method: str = "analytic"

    def __call__(self, u):
        u_arr = np.asarray(u, dtype=float)
        if np.any((u_arr < 0) | (u_arr > 1)):
            raise ValueError("u must lie in [0, 1]")
        out = np.interp(u_arr, self.u_breaks, self.values)
        return float(out) if np.isscalar(u) else out


def empirical_path(
    path: ShotNoisePath,
    phi: WindowFunctional,
    dist: TailDist,
    T: float,
    centering: float,
    centering_se: float = 0.0,
    centering_method: str = "analytic",
) -> EmpiricalPath:
    """Z(u) = (1/a(T)) * integral_0^{Tu} {phi(X_h(s)) - centering} ds.

    The centering constant is the stationary mean of phi; its provenance
    (analytic or Monte Carlo with standard error) is carried along because
    centering error of order se * T / a(T) can dominate at large T.
    """
    a_T = float(tail_quantile_a(dist, T))
    bounds, vals = functional_steps(path, phi, 0.0, T)
    increments = (vals - centering) * np.diff(bounds)
    values = np.concatenate([[0.0], np.cumsum(increments)]) / a_T
    return EmpiricalPath(
        u_breaks=bounds / T,
        values=values,
        T=float(T),
        a_T=a_T,
        centering=float(centering),
        centering_se=float(centering_se),
        centering_method=centering_method,
    )


def monte_carlo_response(phi: WindowFunctional, config: TrafficConfig, n_mc: int, rng: RngStream):
    """Response curve w -> E[phi(w + X_h(0))] over n_mc shared stationary
    window draws.

    Returns (calE, samples): ``calE(w)`` is the vector of draw means, one
    per entry of w; ``samples(w)`` the per-draw values phi(w + X_h(0)) at
    one scalar w.  For a phi with a ``form``, calE works on the sorted
    statistic: indicator means are bit-identical to the per-point means;
    ``min`` means (prefix sums of the sorted draws) and ``id`` means
    (mean(s) + w) agree with them to rounding for w >= 0, where a negative
    w could cancel terms.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    if phi.kind == "window_sup":
        values, sups = traffic.stationary_window_draws(
            config, n_mc, rng, offsets=phi.offsets, with_sup=True
        )
        stat = sups

        def samples(w):
            return phi(values + w, sups + w)

    else:
        values = traffic.stationary_window_draws(config, n_mc, rng, offsets=phi.offsets)
        stat = values[:, 0]

        def samples(w):
            return phi(values + w)

    if phi.form is not None:
        return _sorted_response(phi.form, np.sort(stat)), samples

    def calE(w):
        w_arr = np.atleast_1d(np.asarray(w, dtype=float))
        return np.array([float(np.mean(samples(wv))) for wv in w_arr])

    return calE, samples


def _sorted_response(form, s):
    """calE of 1{s + w <= b}, min(s + w, b) or s + w from the sorted draws s."""
    op, b = form
    n = s.size
    if op == "id":
        mean = float(np.mean(s))
        return lambda w: mean + np.atleast_1d(np.asarray(w, dtype=float))
    prefix = np.concatenate([[0.0], np.cumsum(s)]) if op == "min" else None

    def calE(w):
        w_arr = np.atleast_1d(np.asarray(w, dtype=float))
        k = _count_le(s, w_arr, b)
        if op == "le":
            return k / n
        return (prefix[k] + k * w_arr + (n - k) * b) / n

    return calE


def _count_le(s, w, b):
    """#{i : fl(s[i] + w) <= b} for each w, by bisection on the sorted s.

    fl(s + w) is nondecreasing in s, so the predicate holds on a prefix of
    s and the count is exact, ties and roundoff at b included.
    """
    lo = np.zeros(w.shape, dtype=np.int64)
    hi = np.full(w.shape, s.size, dtype=np.int64)
    for _ in range(s.size.bit_length()):
        mid = (lo + hi) // 2
        open_ = mid < hi
        ok = open_ & (s[np.minimum(mid, s.size - 1)] + w <= b)
        lo = np.where(ok, mid + 1, lo)
        hi = np.where(open_ & ~ok, mid, hi)
    return lo


def estimate_calE(
    w: float,
    phi: WindowFunctional,
    config: TrafficConfig,
    n_mc: int,
    rng: RngStream,
):
    """Monte Carlo estimate of E[phi(w + X_h(0))] with its standard error."""
    _, samples = monte_carlo_response(phi, config, n_mc, rng)
    draws = samples(w)
    est = float(np.mean(draws))
    se = float(np.std(draws, ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else math.inf
    return est, se


def empirical_cdf(path: ShotNoisePath, T: float, x_grid) -> np.ndarray:
    """Time-average CDF E(x) = T^{-1} * measure{s <= T : X(s) <= x}, exact."""
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(np.diff(x_grid) < 0):
        raise ValueError("x grid must be sorted")
    bounds, levels, _ = path.segments(path.t0, T)
    # time spent at levels in (x_grid[j-1], x_grid[j]], then summed up the grid
    bins = np.searchsorted(x_grid, levels, side="left")
    time_in = np.bincount(bins, weights=np.diff(bounds), minlength=x_grid.size + 1)
    return np.cumsum(time_in[: x_grid.size]) / (T - path.t0)
