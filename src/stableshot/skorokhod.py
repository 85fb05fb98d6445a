"""Path distances between cadlag paths stored as completed graphs.

A path is the vertex list of its completed graph (Whitt 2002, ch. 12):
linear between vertices, with a jump as two vertices at one time.  The
M1-type distance is reported as a certified bracket, not an exact value:
the upper bound is a minimax dynamic program over monotone traversals of
the two completed graphs, densified to ~grid_n nodes each, capped by the
uniform distance (the identity parametrization is always admissible).  The
lower bound collects necessary conditions: endpoint gaps and extreme-value
gaps, which every parametrization must realize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._backend import kernels

__all__ = ["SteppyPath", "dist_uniform", "dist_m1"]


@dataclass(frozen=True, eq=False)
class SteppyPath:
    """Cadlag path on [a, b] = [t[0], t[-1]]: the read-only vertex times
    ``t`` and values ``v`` of its completed graph, linear in between.  Times
    never decrease; a jump is two vertices at one time (left limit, then
    value), never three, and there is none at a or at b."""

    t: np.ndarray
    v: np.ndarray
    a: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        v = np.array(self.v, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("need one value per vertex time and at least 2 vertices")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValueError("vertex times and values must be finite")
        dt = np.diff(t)
        if (dt < 0).any():
            raise ValueError("vertex times must not decrease")
        if dt[0] == 0 or dt[-1] == 0:
            raise ValueError("a path has no jump at a or at b")
        if (t[2:] == t[:-2]).any():
            raise ValueError("at most two vertices share a time")
        t.flags.writeable = v.flags.writeable = False
        for name, value in (("t", t), ("v", v), ("a", float(t[0])), ("b", float(t[-1]))):
            object.__setattr__(self, name, value)

    @classmethod
    def step(cls, a, b, times, values) -> "SteppyPath":
        """Right-continuous step path: ``values[i]`` holds on
        [times[i-1], times[i]), with jump epochs ``times`` inside (a, b)."""
        return cls(np.repeat(np.concatenate([[a], times, [b]]), 2)[1:-1], np.repeat(values, 2))

    def limits(self, t):
        """(left limit, value) of the path at each time in t."""
        t = np.asarray(t, dtype=float)
        first = self.t.searchsorted(t, side="left")  # first vertex at or after t
        last = self.t.searchsorted(t, side="right") - 1  # last vertex at or before t
        if not ((last >= 0) & (first < self.t.size)).all():  # NaN sorts past b
            raise ValueError("evaluation outside [a, b]")
        # between two vertices both limits are the linear interpolant
        k = np.minimum(last, self.t.size - 2)
        w = (t - self.t[k]) / (self.t[k + 1] - self.t[k])
        line = self.v[k] + w * (self.v[k + 1] - self.v[k])
        between = first > last
        left, value = np.where(between, line, self.v[first]), np.where(between, line, self.v[last])
        return (float(left), float(value)) if t.ndim == 0 else (left, value)

    def restrict(self, a, b) -> "SteppyPath":
        if not (self.a <= a < b <= self.b):
            raise ValueError("restriction interval not contained in [a, b]")
        left, value = self.limits([a, b])
        inside = (self.t > a) & (self.t < b)
        return SteppyPath(
            np.concatenate([[a], self.t[inside], [b]]),
            np.concatenate([value[:1], self.v[inside], left[1:]]),
        )


def dist_uniform(f: SteppyPath, g: SteppyPath) -> float:
    """Sup-norm distance: both limits at every vertex time of either path."""
    if (f.a, f.b) != (g.a, g.b):
        raise ValueError("paths must share the same interval")
    pts = np.unique(np.concatenate([f.t, g.t]))
    (f_left, f_val), (g_left, g_val) = f.limits(pts), g.limits(pts)
    return float(max(np.abs(f_val - g_val).max(), np.abs(f_left - g_left).max()))


def _densify(poly: np.ndarray, target: float) -> np.ndarray:
    # resample polyline so no segment exceeds `target` in the max metric,
    # keeping all original vertices: segment i gets k[i] equal steps
    step = np.diff(poly, axis=0)
    k = np.maximum(np.ceil(np.abs(step).max(axis=1) / target), 1).astype(np.intp)
    seg = np.repeat(np.arange(k.size), k)
    j = np.arange(1, seg.size + 1) - np.repeat(np.cumsum(k) - k, k)
    return np.vstack([poly[:1], poly[seg] + (j / k[seg])[:, None] * step[seg]])


def dist_m1(f: SteppyPath, g: SteppyPath, grid_n: int = 128):
    """Certified (lower, upper) bracket of the M1 distance on [a, b]."""
    if (f.a, f.b) != (g.a, g.b):
        raise ValueError("paths must share the same interval")
    if grid_n < 8:
        raise ValueError("grid_n must be >= 8")
    # absolute mesh: the discrete minimax distance then differs from the
    # true parametric infimum by at most 2 * (b - a) / grid_n
    mesh = 2.0 * (f.b - f.a) / grid_n
    gf, gg = (np.column_stack([p.t, p.v]) for p in (f, g))
    dp = kernels.frechet_minimax(_densify(gf, mesh), _densify(gg, mesh))
    upper = min(float(dp), dist_uniform(f, g))
    lower = max(
        abs(f.v[0] - g.v[0]),  # initial values must match up
        abs(f.v[-1] - g.v[-1]),  # terminal values must match up
        abs(f.v.max() - g.v.max()),
        abs(f.v.min() - g.v.min()),
    )
    return float(min(lower, upper)), upper
