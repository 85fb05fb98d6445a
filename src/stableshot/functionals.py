"""Window functionals and their exact integrals along a path.

A functional phi reads the supremum of the window {X(s+t), 0 <= t <= h},
which is the level x(0) at h = 0, and applies its form to it.  Then
s -> phi(X_h(s)) is piecewise constant with breakpoints in the event times
and the event times shifted by -h, so time integrals are computed exactly
as sum(value * segment length) -- no quadrature.  A functional is built
from its spec string (``identity``, ``cdf:1``, ``winsup:2``, ...) by
``harness.make_functional``.  An indicator's integral is the time its
window stays at or below b, which ``le_time`` reads from the path's
exceedance runs without the step decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ._backend import kernels
from .traffic import ShotNoisePath

__all__ = [
    "WindowFunctional",
    "functional_steps",
    "le_time",
    "sorted_response",
    "empirical_cdf",
]


@dataclass(frozen=True)
class WindowFunctional:
    """Bounded map of the window, as plain data.

    phi reads the statistic s = sup of x over [0, h], which is x(0) at
    h = 0.  ``form`` says what phi does with s: ``("le", b)`` for
    1{s <= b}, ``("min", b)`` for min(s, b), ``("id", None)`` for s
    itself.  Only the indicator reads a window (h > 0): the other forms
    take h = 0.  Equal functionals compare equal, and all of them pickle.
    """

    name: str
    h: float
    form: tuple

    def __post_init__(self):
        if self.form[0] not in ("le", "min", "id"):
            raise ValueError(f"unsupported functional form {self.form!r}")
        if not 0 <= self.h < np.inf:
            raise ValueError("window length must be nonnegative and finite")
        if self.h > 0 and self.form[0] != "le":
            raise ValueError(f"form {self.form!r} reads no window: it needs h = 0")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        op, b = self.form
        if op == "le":
            return (s <= b).astype(float)
        if op == "min":
            return np.minimum(s, b)
        return s


def functional_steps(path: ShotNoisePath, phi: WindowFunctional, t0: float, t1: float):
    """Step decomposition of s -> phi(X_h(s)) on [t0, t1].

    Returns (bounds, values): segment i is [bounds[i], bounds[i+1]) with
    constant value values[i].  Requires path data up to t1 + h.

    The sup over [s, s + h] is constant between consecutive entries of the
    merged lists ``times`` and ``times - h``; a segment reads it as the
    range max of the level steps between the counts #{j : times[j] <=
    start} and #{j : times[j] - h <= start}.  At h = 0 the lists coincide:
    the steps are the path's own segments, each window one level step.

    This is the reference decomposition, for any form: the tests and the
    oracles integrate it, and no run calls it.  The z stage reads an
    indicator's integral from ``le_time`` and the other forms' (all at
    h = 0) from the path's own segments.
    """
    if t0 < path.t0 or t1 + phi.h > path.t1 or t0 >= t1:
        raise ValueError("path must cover [t0, t1 + h]")
    bounds, lo, hi = _merged_steps(path.times, phi.h, t0, t1)
    # counts run to len(times), past segments()' end
    s = kernels.sliding_range_max(path.level_steps, lo, hi)
    return bounds, np.asarray(phi(s), dtype=float)


def _merged_steps(times, h, t0, t1):
    """(bounds, lo, hi) of the merged lists ``times`` and ``times - h``.

    bounds is t0, the distinct merged values strictly inside (t0, t1), then
    t1; lo[i] = #{j : times[j] <= bounds[i]} and hi[i] = #{j : times[j] - h
    <= bounds[i]}.  Each list is sorted, so the stable sort is a linear
    merge of its two runs.
    """
    parts = [times, times - h]
    i0 = [int(np.searchsorted(p, t0, side="right")) for p in parts]
    parts = [p[a : int(np.searchsorted(p, t1, side="left"))] for p, a in zip(parts, i0)]
    merged = np.concatenate(parts)
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    # the last entry of each run of equal values, where the counts include every tie
    last = np.flatnonzero(np.append(merged[1:] != merged[:-1], merged.size > 0))
    bounds = np.concatenate([[t0], merged[last], [t1]])
    # entries of the shifted list up to each run end; the rest are times
    n_hi = np.cumsum(order >= len(parts[0]))[last]
    lo = np.append(i0[0], i0[0] + last + 1 - n_hi)
    hi = np.append(i0[1], i0[1] + n_hi)
    return bounds, lo, hi


def le_time(path: ShotNoisePath, phi: WindowFunctional, t0: float, t1: float) -> float:
    """The measure of {s in [t0, t1] : sup of X over [s, s + h] <= b} for
    phi of form ("le", b): phi's exact integral over [t0, t1].

    The level exceeds b on runs [a_i, e_i) whose ends are event times
    (-inf or +inf where a run holds at an end of the path), and a start s
    sees one in its window exactly when fl(a_i - h) <= s < e_i: the test
    ``functional_steps`` makes, on the same ``times - h`` floats.  Both
    ends increase with i, so the starts that see none are the gaps
    [e_{i-1}, fl(a_i - h)), and the result is the sum of their clipped
    lengths: one comparison of the levels and one scan for the runs, no
    sort and no range max.  Requires path data up to t1 + h.
    """
    op, b = phi.form
    if op != "le":
        raise ValueError(f"le_time needs an indicator functional, got form {phi.form!r}")
    if t0 < path.t0 or t1 + phi.h > path.t1 or t0 >= t1:
        raise ValueError("path must cover [t0, t1 + h]")
    over = path.level_steps > b
    # the run edges in time order, a_0, e_0, a_1, ..., behind an opening
    # -inf where the path starts <= b and before a closing +inf where it
    # ends <= b: gap i is then [edges[2i], fl(edges[2i + 1] - h))
    flips = path.times[np.flatnonzero(over[1:] != over[:-1])]
    head = [] if over[0] else [-np.inf]
    tail = [] if over[-1] else [np.inf]
    edges = np.concatenate([head, flips, tail])
    lo = np.maximum(edges[0::2], t0)
    hi = np.minimum(edges[1::2] - phi.h, t1)
    # an empty gap clips to a length <= 0 (-inf where a run holds at an
    # end of the path), never nan
    return float(np.maximum(hi - lo, 0.0).sum())


def sorted_response(form, s):
    """calE(w), the mean of 1{s + w <= b}, min(s + w, b) or s + w (by
    ``form``) over the sorted draws s.  Indicator means are bit-identical
    to the per-point means; ``min`` means (prefix sums of s) and ``id``
    means (mean(s) + w) agree with them to rounding for w >= 0, where a
    negative w could cancel terms."""
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
