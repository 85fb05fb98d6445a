"""Reference computations the tests check the package against.

Nothing in the package calls these: each is an independent, plainly
written route to a number the package computes another way (the level at
a time point, the path's segments, a functional's integral, per-cycle
integrals, cycle lengths from one scan of the departures, the stable
characteristic function and its distance from an empirical one), or, in
``fresh_sessions``, test traffic the package only draws inside
``collect_cycle_lengths``.
"""

import math

import numpy as np

from stableshot.functionals import functional_steps
from stableshot.heavy_rand import StableParams
from stableshot.traffic import Sessions, fresh_arrivals


def _eval_steps(path, steps, t):
    t_arr = np.asarray(t, dtype=float)
    if np.any((t_arr < path.t0) | (t_arr > path.t1)):
        raise ValueError("evaluation point outside path support")
    return steps[np.searchsorted(path.times, t_arr, side="right")]


def eval_level(path, t):
    """X(t) under the cadlag convention; O(log n) binary search."""
    out = _eval_steps(path, path.level_steps, t)
    return float(out) if np.isscalar(t) else out


def eval_count(path, t):
    """The occupancy count at t, cadlag like the level."""
    out = _eval_steps(path, path.count_steps, t)
    return int(out) if np.isscalar(t) else out


def segments(path, lo=None, hi=None):
    """(bounds, levels, counts) of the path's step decomposition on [lo, hi].

    ``bounds`` has one more entry than the value arrays; segment i is
    [bounds[i], bounds[i+1]) with constant level/count.  The value
    arrays are read-only views of the path's own.
    """
    lo = path.t0 if lo is None else float(lo)
    hi = path.t1 if hi is None else float(hi)
    if lo < path.t0 or hi > path.t1 or lo >= hi:
        raise ValueError("bad segment range")
    i0 = int(np.searchsorted(path.times, lo, side="right"))
    i1 = int(np.searchsorted(path.times, hi, side="left"))
    bounds = np.concatenate([[lo], path.times[i0:i1], [hi]])
    levels = path.level_steps[i0 : i1 + 1]
    counts = path.count_steps[i0 : i1 + 1]
    levels.flags.writeable = counts.flags.writeable = False
    return bounds, levels, counts


def integrate_phi(path, phi, t0: float, t1: float) -> float:
    """Exact integral of phi(X_h(s)) over [t0, t1]."""
    bounds, vals = functional_steps(path, phi, t0, t1)
    return float(np.dot(vals, np.diff(bounds)))


def prefix_integral(bounds, vals):
    """s -> integral of the step function (bounds, vals) from bounds[0] to s."""
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


def cycle_integrals(path, decomposition, phi) -> np.ndarray:
    """Per-cycle integrals of phi(X_h(s)), one value per complete cycle."""
    if decomposition.m_T == 0:
        return np.empty(0)
    t0 = decomposition.s0
    t1 = float(decomposition.s_end[-1])
    bounds, vals = functional_steps(path, phi, t0, t1)
    at = prefix_integral(bounds, vals)
    return at(decomposition.s_end) - at(decomposition.s_start)


def fresh_sessions(config):
    """A fresh start's sessions on [0, horizon], none alive at 0: the
    arrivals and then their (duration, rate) pairs, drawn from one
    generator as ``simulate_sessions`` draws its fresh sessions."""
    gen = config.rng.generator()
    gamma = fresh_arrivals(gen.poisson(config.lam * config.horizon), config.horizon, gen)
    return Sessions(gamma, *config.law.sample_pairs(gamma.size, gen))


def one_shot_cycle_lengths(sessions, T: float) -> np.ndarray:
    """cycles.fresh_start_cycle_lengths with one running max of the
    departures over all sessions arriving by T, in one array."""
    gamma = sessions.gamma
    lo = int(np.searchsorted(gamma, 0.0, side="right"))
    hi = int(np.searchsorted(gamma, T, side="right"))
    gamma = gamma[:hi]
    reach = np.maximum.accumulate(gamma + sessions.y[:hi])
    onset = np.r_[True, gamma[1:] > reach[:-1]][:hi]
    onset[:lo] = False
    return np.diff(gamma[onset])


def stable_cf(params: StableParams, t) -> np.ndarray | complex:
    """Characteristic function at t of the law heavy_rand.sample_stable
    draws; modulus <= 1, value 1 at t = 0."""
    t_arr = np.asarray(t, dtype=float)
    a = params.alpha
    skew = 1.0 - 1j * params.beta * np.sign(t_arr) * math.tan(math.pi * a / 2.0)
    val = np.exp(
        1j * params.mu * t_arr - params.sigma**a * np.abs(t_arr) ** a * skew
    )
    return complex(val) if np.isscalar(t) else val


def ecf_distance(sample, params: StableParams, t_grid) -> float:
    """Max gap between the empirical CF and the candidate stable CF.

    Empty grid means nothing to check, so the distance is 0.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        return 0.0
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    ecf = np.exp(1j * np.outer(t, x)).mean(axis=1)
    return float(np.abs(ecf - stable_cf(params, t)).max())
