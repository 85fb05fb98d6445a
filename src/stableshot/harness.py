"""Scenario-driven experiment orchestration.

A Scenario is a plain-data description of one verification experiment:
traffic parameters, a horizon ladder, a replicate count, and the set of
analyses to run.  ``run`` executes the requested analyses independently
(a failure in one is recorded in its block, the others still run) and
deterministically: replicate r always draws from stream_id = r of the
master seed, with a substream per horizon, so results do not depend on
the worker count or completion order.

The z analyses (stable_limit, self_similarity, cdf_rate: those whose
``ANALYSES`` record lists the specs they read) read one z stage, built
when the first of them runs: the distinct functionals of those specs
(equal functionals compare equal, so cdf:1 and cdf:1.0 are one), one
response curve each and one ``_z_matrix`` call, so each replicate
path is simulated once per horizon for the whole run.
Replicates go to the worker pool in contiguous chunks, the longest
horizon's first: one task per horizon at one worker, 4 * workers per
horizon otherwise.  A task receives the functionals, builds a(T) and the
law once and returns a block of z-values.  Each h = 0 functional's z is
its integral against the path's occupation measure, the time the path
spends at each level, read as the last entry of one in-place cumsum; a
window functional's is read from the gaps between its exceedance runs.
"""

from __future__ import annotations

import csv
import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np
import yaml

from . import functionals as fns, traffic
from .cycles import (
    MAX_CHUNKS, MAX_CYCLE_LOAD, MAX_CYCLES, collect_cycle_lengths, cycle_tail_table,
    expected_chunks, hill_alpha,
)
from .functionals import WindowFunctional
from .heavy_rand import TailDist, sample_stable, tail_quantile_a
from .limits import limit_params
from .rng import RngStream
from .skorokhod import SteppyPath, dist_m1, dist_uniform
from .stats import GofReport, iqr, ks_threshold, ks_two_sample, rate_regression
from .traffic import JointLaw, TrafficConfig, Workspace, build_path, simulate_sessions

__all__ = [
    "Scenario",
    "Report",
    "make_functional",
    "run",
    "emit",
    "validate",
    "builtin_scenarios",
]

# expected sessions one replicate path of a z analysis may draw: a T = 1e5
# replicate, its workspace included, peaks near 64 B per session on unit
# rates with h = 0 functionals, 82 B with a window functional at h = 1,
# and 97-106 B on uniform rates, so this is about 1.6 GB per worker
MAX_PATH_SESSIONS = 1.5e7
# window draws of one Monte Carlo response curve; their drawn session
# columns are all held at once (only the sups are reduced a block of draws
# at a time), so validate caps MC_DRAWS * lambda * (E[Y] + h) sessions
MC_DRAWS = 100_000


@dataclass(frozen=True)
class Scenario:
    """Plain-data experiment description (everything here is YAML-safe)."""

    name: str = "scenario"
    lam: float = 1.0
    alpha: float = 1.5
    xm: float = 1.0
    w_kind: str = "constant"  # constant | uniform | exponential
    w_params: tuple = (1.0,)
    window_h: float = 0.0
    T_ladder: tuple = (1e3, 1e4)
    replicates: int = 200
    functionals: tuple = ("identity",)
    x_grid: tuple = (1.0,)
    analyses: tuple = ("stable_limit",)
    seed: int = 0
    n_cycles: int = 10_000
    tail_t: float = 1e3
    tail_x: tuple = (1.0, 2.0)
    hill_k: int = 1000
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(f.name, getattr(self, f.name), f.default))

    def to_dict(self) -> dict:
        d = asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Scenario from a mapping of its fields; ValueError on anything
        else, on unknown keys and on values of the wrong type."""
        if not isinstance(d, dict):
            got = "an empty document" if d is None else type(d).__name__
            raise ValueError(f"a scenario must be a mapping of fields, got {got}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            # YAML keys need not be strings, nor of one type
            raise ValueError(f"unknown scenario keys: {sorted(unknown, key=repr)}")
        return cls(**d)

    def to_yaml(self, dest) -> None:
        with open(dest, "w") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=True)

    @classmethod
    def from_yaml(cls, src) -> "Scenario":
        with open(src) as fh:
            try:
                d = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ValueError(f"not valid YAML: {exc}") from exc
        return cls.from_dict(d)

    # -- derived objects ---------------------------------------------------

    def y_dist(self) -> TailDist:
        return TailDist.pareto(self.alpha, self.xm)

    def law(self) -> JointLaw:
        return JointLaw(self.y_dist(), self.w_kind, self.w_params)

    def config(self, horizon: float, rng: RngStream) -> TrafficConfig:
        return TrafficConfig(
            lam=self.lam,
            law=self.law(),
            horizon=float(horizon),
            rng=rng,
        )


def _number(x):
    """float(x) for an int, a float or a numeric string (YAML 1.1 reads
    1e3 as a string) whose value is a finite double, else None; -0.0 reads
    as 0.0, so that one number builds one functional and one name."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        return None
    try:
        x = float(x) + 0.0
    except (ValueError, OverflowError):
        return None
    return x if math.isfinite(x) else None


def _typed(key: str, value, default):
    """``value`` for scenario field ``key`` if it has the type of the
    field's default (numbers as finite floats, integers within int64,
    lists as tuples); ValueError otherwise."""
    if isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
        want = "an integer that fits in 64 bits" if ok else "an integer"
        ok = ok and -(2**63) <= value < 2**63
    elif isinstance(default, str):
        ok, want = isinstance(value, str), "a string"
    elif isinstance(default, float):
        ok, want = _number(value) is not None, "a finite number"
        value = _number(value) if ok else value
    elif isinstance(default[0], str):
        ok = isinstance(value, (list, tuple)) and all(isinstance(x, str) for x in value)
        want = "a list of strings"
        value = tuple(value) if ok else value
    else:
        ok = isinstance(value, (list, tuple)) and all(_number(x) is not None for x in value)
        want = "a list of finite numbers"
        value = tuple(_number(x) for x in value) if ok else value
    if not ok:
        raise ValueError(f"scenario field {key!r} must be {want}, got {value!r}")
    return value


def validate(scenario: Scenario) -> list:
    """Diagnostics list; raises ValueError on anything fatal."""
    notes = []
    for key in ("lam", "alpha", "xm"):
        v = getattr(scenario, key)
        if not v > 0:
            raise ValueError(f"{key} must be positive, got {v!r}")
    if not 1 < scenario.alpha < 2:
        raise ValueError("tail index must lie in (1, 2)")
    if scenario.replicates < 1:
        raise ValueError("replicates must be >= 1")
    if scenario.seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {scenario.seed!r}")
    if scenario.workers < 1:
        raise ValueError(f"workers must be >= 1, got {scenario.workers!r}")
    if list(scenario.T_ladder) != sorted(set(scenario.T_ladder)):
        raise ValueError("T_ladder must be strictly increasing")
    if any(t <= 1 for t in scenario.T_ladder):
        raise ValueError("horizons must exceed 1 (normalizer a(t) needs t > 1)")
    bad = set(scenario.analyses) - set(ANALYSES)
    if bad:
        raise ValueError(f"unknown analyses: {sorted(bad)}")
    if len(set(scenario.analyses)) < len(scenario.analyses):
        raise ValueError(f"analyses must not repeat, got {list(scenario.analyses)!r}")
    if scenario.window_h < 0:
        raise ValueError(f"window_h must be nonnegative, got {scenario.window_h!r}")
    runs = set(scenario.analyses)
    if not scenario.functionals and runs & {"stable_limit", "self_similarity"}:
        raise ValueError("functionals must not be empty for stable_limit or self_similarity")
    specs = {}  # built functional -> its first spec
    for spec in scenario.functionals:
        phi = make_functional(spec, scenario.window_h)  # raises on bad spec
        if phi in specs:
            raise ValueError(
                f"functionals {specs[phi]!r} and {spec!r} both build {phi.name}; "
                "functionals must not repeat"
            )
        specs[phi] = spec
    law = scenario.law()  # raises on bad rate model
    if max(law.w_params) > 1e100:  # w0, b or mean
        raise ValueError(
            f"w_params must not exceed 1e+100, got {list(law.w_params)!r}: the limit law "
            "raises rates to the power alpha, which overflows a double near 1e300"
        )
    # a KS statistic is at most 1, so a threshold of 1 or more always passes
    n = scenario.replicates
    for analysis, (_, _, _, ks_share) in ANALYSES.items():
        if analysis in runs and ks_share and ks_threshold(ks_share * n) >= 1:
            raise ValueError(f"replicates = {n} is too few for {analysis}: its KS test cannot fail")
    if list(scenario.x_grid) != sorted(set(scenario.x_grid)):
        raise ValueError("x_grid must be strictly increasing")
    if "cdf_rate" in runs:
        if not scenario.x_grid:
            raise ValueError("x_grid must not be empty for cdf_rate")
        # the level is nonnegative, so below 0 F_T(x) = K(x) = 0: no error to fit
        if scenario.x_grid[0] < 0:
            raise ValueError(
                f"x_grid must be nonnegative for cdf_rate, got {list(scenario.x_grid)!r}"
            )
        if scenario.replicates < 2:
            raise ValueError("cdf_rate needs replicates >= 2 for a dispersion")
    for analysis, (_, _, k, _) in ANALYSES.items():
        if analysis in runs and len(scenario.T_ladder) < k:
            raise ValueError(f"{analysis} needs at least {k} horizon{'s' * (k > 1)} in T_ladder")
    if "self_similarity" in runs:  # adjacent rungs can give one float u = T/T_top
        *lower, top = scenario.T_ladder
        for t0, t1 in zip(lower, lower[1:]):
            if t0 / top == t1 / top:
                raise ValueError(f"T_ladder entries {t0!r} and {t1!r} both give u = T/T_top = "
                                 f"{t0 / top!r}: self_similarity needs distinct u")
    if scenario.n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    if "hill" in runs and not 1 <= scenario.hill_k < scenario.n_cycles:
        raise ValueError(f"hill_k must lie in [1, n_cycles), got {scenario.hill_k}")
    if "cycle_tail" in runs:
        if not scenario.tail_x:
            raise ValueError("tail_x must not be empty for cycle_tail")
        if not all(x > 0 for x in scenario.tail_x):
            raise ValueError(f"tail_x must be positive, got {list(scenario.tail_x)!r}")
        if scenario.tail_t <= 1:
            raise ValueError(f"tail_t must exceed 1, got {scenario.tail_t!r}")
    ey = scenario.y_dist().mean_y
    load = scenario.lam * ey
    cycling = sorted(runs & {"cycle_mean", "cycle_tail", "hill"})
    if cycling and load > MAX_CYCLE_LOAD:
        raise ValueError(
            f"offered load lambda*E[Y] = {load:g} is too heavy for {cycling}: their "
            f"cycle banking holds bounded memory only at loads <= {MAX_CYCLE_LOAD:.3g}"
        )
    # at a subnormal lam the mean cycle is past a double, and the chunk count NaN
    if cycling and not math.exp(load) / scenario.lam < math.inf:
        raise ValueError(
            f"lam = {scenario.lam!r} makes the mean cycle e^(lambda*E[Y])/lambda "
            f"past a double for {cycling}"
        )
    chunks = expected_chunks(scenario.lam, law, scenario.n_cycles) if cycling else 0
    # a finite mean cycle can still make n_cycles of them past a double
    if math.isnan(chunks):
        raise ValueError(
            f"lam = {scenario.lam!r} makes n_cycles = {scenario.n_cycles} times the mean "
            f"cycle e^(lambda*E[Y])/lambda past a double for {cycling}"
        )
    if not chunks <= MAX_CHUNKS:
        raise ValueError(
            f"n_cycles = {scenario.n_cycles} needs about {chunks:.3g} fresh-start chunks for "
            f"{cycling}, over the {MAX_CHUNKS} that cycle banking simulates"
        )
    if cycling and scenario.n_cycles > MAX_CYCLES:
        raise ValueError(f"n_cycles = {scenario.n_cycles} exceeds {MAX_CYCLES} for {cycling}: "
                         "cycle banking holds every length in memory, twice as it joins them")
    if "cycle_mean" in runs and scenario.n_cycles < 2:
        raise ValueError(f"cycle_mean needs n_cycles >= 2 for a standard error, got {scenario.n_cycles}")
    z_runs = sorted(a for a in runs if ANALYSES[a][1])
    if z_runs:
        # a replicate path draws its arrivals on [0, T + 2h] plus the
        # sessions alive at 0 (see _z_task)
        sessions = scenario.lam * (scenario.T_ladder[-1] + 2 * scenario.window_h) + load
        if sessions > MAX_PATH_SESSIONS:
            raise ValueError(
                f"expected sessions per replicate path lambda*(T_top + 2*window_h) + "
                f"lambda*E[Y] = {sessions:g} exceed {MAX_PATH_SESSIONS:g} for {z_runs}: "
                "each path holds all of its sessions in memory at once"
            )
        for spec in (s for a in z_runs for s in ANALYSES[a][1](scenario)):
            phi = make_functional(spec, scenario.window_h)
            sessions = MC_DRAWS * scenario.lam * (ey + phi.h)
            if not _exact_curve(law, phi) and sessions > MAX_PATH_SESSIONS:
                raise ValueError(
                    f"the Monte Carlo response curve of {spec!r} holds "
                    f"{MC_DRAWS}*lambda*(E[Y] + h) = {sessions:g} expected sessions at once, "
                    f"over {MAX_PATH_SESSIONS:g}"
                )
    notes.append(f"mean session duration E[Y] = {ey:g}")
    notes.append(f"offered load lambda*E[Y] = {load:g}")
    try:
        cycle = f"{math.exp(load) / scenario.lam:g}"
    except OverflowError:  # e^(lam E[Y]) beyond a double: give its log10
        cycle = f"10^{(load - math.log(scenario.lam)) / math.log(10):.1f}"
    notes.append(f"mean cycle length = {cycle}")
    if load > 8:
        notes.append("warning: heavy load, idle periods will be very rare")
    return notes


def _num(x: float) -> str:
    """x as result keys and file names print it: f"{x:g}" where that reads
    back as exactly x, else repr, so distinct numbers get distinct names."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def make_functional(spec: str, h: float = 0.0) -> WindowFunctional:
    """The functional of a spec string, named as results and records key it:
    identity | idle | clipped:b | cdf:x | winsup:b (window supremum indicator
    over [0, h], which is cdf:b at h = 0); the number must be finite, and
    identity and idle take none."""
    head, sep, arg = spec.partition(":")
    if head in ("clipped", "cdf", "winsup"):
        x = _number(arg)
        if x is None:
            raise ValueError(f"functional spec {spec!r} needs a finite number")
    if head in ("identity", "idle") and sep:
        raise ValueError(f"functional spec {spec!r} takes no number")
    if head == "identity":
        return WindowFunctional("identity", 0.0, ("id", None))
    if head == "idle":
        return WindowFunctional("idle", 0.0, ("le", 0.0))
    if head == "clipped":
        return WindowFunctional(f"clipped_{_num(x)}", 0.0, ("min", x))
    if head == "cdf" or (head == "winsup" and h == 0):
        return WindowFunctional(f"cdf_le_{_num(x)}", 0.0, ("le", x))
    if head == "winsup":
        return WindowFunctional(f"sup_le_{_num(x)}_h{_num(h)}", float(h), ("le", x))
    raise ValueError(f"unknown functional spec {spec!r}")


# -- response curve E(w, phi) ----------------------------------------------


def _poisson_pmf(nu: float) -> np.ndarray:
    """Poisson(nu) pmf at k = 0..kmax, with kmax 2 past the first k whose
    tail mass P(N > k) is at most 1e-13.  The pmf is taken in log space,
    so nothing underflows at large nu, over a range whose mass beyond it
    is far below double precision."""
    ks = np.arange(int(nu + 20.0 * math.sqrt(nu)) + 60)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(ks.size)])
    pmf = np.exp(ks * math.log(nu) - log_fact - nu)
    tail = np.cumsum(pmf[::-1])[::-1]  # tail[k] = P(N >= k)
    kmax = int(np.argmax(tail[1:] <= 1e-13)) + 2
    return pmf[: kmax + 1]


def exact_poisson_calE(phi: WindowFunctional, nu: float, w0: float):
    """Exact response curve w -> E[phi(w + X(0))] when the stationary level
    is w0 times a Poisson(nu) count (constant rates, h = 0)."""
    pmf = _poisson_pmf(nu)
    ks = np.arange(pmf.size)

    def calE(w):
        w_arr = np.atleast_1d(np.asarray(w, dtype=float))
        return phi(w_arr[:, None] + w0 * ks[None, :]) @ pmf

    return calE


def _exact_curve(law: JointLaw, phi: WindowFunctional) -> bool:
    """Whether phi's curve is exact_poisson_calE's (else a Monte Carlo one)."""
    return law.common_rate is not None and phi.h == 0


def response_curve(scenario: Scenario, phi: WindowFunctional):
    """(calE, cal0, se, method) of w -> E[phi(w + X_h(0))]: exact where a
    closed form exists, else from MC_DRAWS stationary window draws s of phi's
    statistic (a substream keyed by phi's name), with cal0 and se the mean
    of phi(s) and its standard error and calE ``fns.sorted_response`` of s."""
    law = scenario.law()
    if _exact_curve(law, phi):
        calE = exact_poisson_calE(phi, scenario.lam * law.mean_y, law.common_rate)
        return calE, float(calE(0.0)[0]), 0.0, "exact"
    key = zlib.crc32(phi.name.encode()) % 2**31
    rng = RngStream(scenario.seed, stream_id=2**31).substream(key)
    cfg = TrafficConfig(lam=scenario.lam, law=law, horizon=1.0)
    s = traffic.stationary_window_draws(cfg, MC_DRAWS, rng, phi.h)
    base = phi(s)  # s itself for identity, so it is reduced before the sort
    cal0 = float(np.mean(base))
    se = float(np.std(base, ddof=1) / math.sqrt(MC_DRAWS))
    s.sort()
    return fns.sorted_response(phi.form, s), cal0, se, "monte_carlo"


# -- replicate workers (module level so ProcessPoolExecutor can pickle) ----


def _z_task(task):
    """Replicates r_lo..r_hi-1 at horizon T_ladder[t_index]: a
    (len(phis), r_hi - r_lo) block of z-values, one row per functional.

    a(T) and the law are built once per chunk, and each replicate's path
    is simulated once.  The chunk's replicates share one workspace: each
    writes its sessions, its path and its segment lengths where the last
    one's were, so the worker's heap neither grows nor shrinks from one
    replicate to the next (a warm replicate-fanout run cost its two
    workers 21k minor faults with fresh arrays per replicate, 2.8k with
    the workspace).  z takes one of two routes, by phi's window:

    * h = 0: z is the integral of phi - c against the path's occupation
      measure on [0, T] (``path.occupation``), over a(T): the last entry
      of one in-place cumsum of (phi(levels) - c) * lengths.  The measure
      is in time order on a random-rate path, so this is the prefix
      integral at T bit for bit, and in count order on a common-rate one;
    * h > 0 (only indicators 1{sup over the window <= b} read a window):
      z = (le_time - c T) / a(T), with ``fns.le_time`` the exact time in
      [0, T] whose window stays at or below b, summed over the gaps
      between the runs where the level exceeds b.
    """
    scenario, t_index, r_lo, r_hi, phis, centerings = task
    T = scenario.T_ladder[t_index]
    h = scenario.window_h
    a_T = float(tail_quantile_a(scenario.y_dist(), T))
    # replicate streams have always been drawn on [0, T + 2h], though the
    # path reads only [0, T + h]: perfbench/reference.json pins those streams
    base = TrafficConfig(lam=scenario.lam, law=scenario.law(), horizon=T + 2 * h)
    ws = Workspace()
    out = np.empty((len(phis), r_hi - r_lo))
    for j, r in enumerate(range(r_lo, r_hi)):
        cfg = replace(base, rng=RngStream(scenario.seed, stream_id=r).substream(t_index))
        path = build_path(simulate_sessions(cfg, ws), 0.0, T + h, ws)
        levels, lengths = path.occupation(T, ws)
        for i, (phi, c) in enumerate(zip(phis, centerings)):
            if phi.h > 0:
                out[i, j] = (fns.le_time(path, phi, 0.0, T) - c * T) / a_T
                continue
            # (phi - c) * lengths in phi's own output where it makes one:
            # identity returns the read-only levels, so it gets a copy
            vals = phi(levels)
            area = np.subtract(vals, c, out=vals if vals.flags.writeable else None)
            area *= lengths
            out[i, j] = np.cumsum(area, out=area)[-1] / a_T
            # free this functional's arrays before the next one makes its own
            del vals, area
        # hold one path at a time: drop this one before the next is built
        del path, levels, lengths
    return out


def _z_matrix(scenario: Scenario, phis, centerings, workers: int) -> np.ndarray:
    """z[i, t_index, r]: the z-value of functional phis[i], centered at
    centerings[i], on replicate r's path to T_ladder[t_index].  One
    simulated path per (T, r) serves every functional.  Each horizon's
    replicates go out in contiguous chunks, one per horizon at one worker
    and 4 * workers otherwise, the longest horizon's first, so that its
    heavy chunks do not form the pool's tail; every z is computed the same
    way in any chunk and placed by (t_index, lo, hi), so the result does
    not depend on the worker count."""
    # under fork the pool starts every worker up front, so none past the CPUs
    workers = min(workers, os.cpu_count() or 1)
    n = scenario.replicates
    n_chunks = 1 if workers <= 1 else min(n, 4 * workers)
    edges = [n * k // n_chunks for k in range(n_chunks + 1)]
    ladder = scenario.T_ladder
    tasks = [
        (scenario, t_index, lo, hi, tuple(phis), tuple(centerings))
        for t_index in sorted(range(len(ladder)), key=ladder.__getitem__, reverse=True)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    if workers <= 1 or len(tasks) <= 1:
        blocks = [_z_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as ex:
            blocks = list(ex.map(_z_task, tasks))
    z = np.empty((len(phis), len(scenario.T_ladder), n))
    for (_, t_index, lo, hi, _, _), block in zip(tasks, blocks):
        z[:, t_index, lo:hi] = block
    return z


def _z_stage(scenario: Scenario, workers: int) -> dict:
    """{spec: (phi, calE, cal0, se, method, z[t, r])} for every spec the
    scenario's z analyses read.  Specs that build equal functionals
    (cdf:1 and cdf:1.0) map to one row: one response curve and one row of
    the one _z_matrix call per distinct functional."""
    reads = [ANALYSES[a][1] for a in scenario.analyses]
    h = scenario.window_h
    phis = {s: make_functional(s, h) for r in reads if r for s in r(scenario)}
    distinct = list(dict.fromkeys(phis.values()))
    curves = [response_curve(scenario, phi) for phi in distinct]
    z = _z_matrix(scenario, distinct, [curve[1] for curve in curves], workers)
    rows = {phi: (phi, *curve, z_phi) for phi, curve, z_phi in zip(distinct, curves, z)}
    return {s: rows[phi] for s, phi in phis.items()}


# -- analyses ---------------------------------------------------------------


def _cycle_lengths(scenario: Scenario, stream_id: int) -> np.ndarray:
    """Cycle lengths of stream 0 (cycle_mean), 1 (cycle_tail) or 2 (hill)."""
    rng = RngStream(scenario.seed, stream_id=stream_id)
    return collect_cycle_lengths(scenario.lam, scenario.law(), scenario.n_cycles, rng)


def _analysis_cycle_mean(scenario: Scenario) -> dict:
    theory = math.exp(scenario.lam * scenario.y_dist().mean_y) / scenario.lam
    lengths = _cycle_lengths(scenario, 0)
    mean = float(lengths.mean())
    se = float(lengths.std(ddof=1) / math.sqrt(lengths.size))
    gof = GofReport(
        name=f"{scenario.name}/cycle_mean",
        stat=abs(mean - theory) / theory,
        threshold=0.05,
        n=lengths.size,
        detail=f"mean={mean:.4f} theory={theory:.4f} se={se:.4f}",
    )
    return {"mean": mean, "se": se, "theory": theory, "gof": gof}


def _analysis_cycle_tail(scenario: Scenario) -> dict:
    lengths = _cycle_lengths(scenario, 1)
    table = cycle_tail_table(
        lengths, scenario.y_dist(), scenario.lam, scenario.tail_x, [scenario.tail_t]
    )
    rel = [
        abs(c.empirical - c.theoretical) / c.theoretical
        for c in table
        if c.reliable
    ]
    gof = GofReport(
        name=f"{scenario.name}/cycle_tail",
        stat=max(rel) if rel else math.inf,
        threshold=0.15,
        n=int(lengths.size),
        detail=f"{len(rel)} reliable cells of {len(table)}",
    )
    return {"table": table, "gof": gof}


def _analysis_hill(scenario: Scenario) -> dict:
    lengths = _cycle_lengths(scenario, 2)
    est, se = hill_alpha(lengths, scenario.hill_k)
    gof = GofReport(
        name=f"{scenario.name}/hill",
        stat=abs(est - scenario.alpha),
        threshold=0.2,
        n=scenario.hill_k,
        detail=f"alpha_hat={est:.3f} se={se:.3f}",
    )
    return {"alpha_hat": float(est), "se": float(se), "gof": gof}


def _analysis_stable_limit(scenario: Scenario, z_rows: dict) -> dict:
    # the equally weighted atoms of the limit rate law G, shared by every
    # functional: a constant rate is one atom
    law = scenario.law()
    w_star = law.sample_rates(
        1 if law.common_rate is not None else 10_000,
        RngStream(scenario.seed, stream_id=2**31 - 1).generator(),
    )
    block = {}
    for spec_str in scenario.functionals:
        phi, calE, cal0, se, method, z_phi = z_rows[spec_str]
        lspec = limit_params(phi.name, scenario.lam, scenario.alpha, w_star, calE)
        reports = []
        for t_index, (T, z) in enumerate(zip(scenario.T_ladder, z_phi)):
            name = f"{scenario.name}/stable_limit/{phi.name}/T={_num(T)}"
            if lspec.degenerate:
                reports.append(
                    GofReport(
                        name=name,
                        stat=float(np.abs(z).max()),
                        threshold=1e-6 + 10 * se * T / tail_quantile_a(scenario.y_dist(), T),
                        n=z.size,
                        detail="degenerate limit: Delta = 0 a.s.",
                    )
                )
                continue
            ref = sample_stable(
                lspec.params,
                4 * scenario.replicates,
                RngStream(scenario.seed, stream_id=2**30).substream(t_index),
            )
            reports.append(ks_two_sample(z, ref, name))
        block[phi.name] = {
            "limit": lspec,
            "centering": cal0,
            "centering_se": se,
            "centering_method": method,
            "samples": dict(zip(scenario.T_ladder, z_phi)),
            "gofs": reports,
        }
    return block


def _analysis_self_similarity(scenario: Scenario, z_rows: dict) -> dict:
    # For a(t) = xm t^(1/alpha), u^(-1/alpha) Z_T(u) is exactly Z_{uT}(1) on
    # the same path, so the 1/alpha-self-similarity of the limit is the
    # stable-limit z at rung T_k matching the z at the top rung in law, with
    # u = T_k / T_top.  Rungs draw from distinct substreams, so the two KS
    # samples are independent.
    phi, _, _, se, method, z = z_rows[scenario.functionals[0]]
    T_top = scenario.T_ladder[-1]
    gofs = [
        ks_two_sample(
            z_k, z[-1], f"{scenario.name}/self_similarity/{phi.name}/u={_num(T_k / T_top)}"
        )
        for T_k, z_k in zip(scenario.T_ladder[:-1], z[:-1])
    ]
    return {
        "functional": phi.name,
        "samples": dict(zip(scenario.T_ladder, z)),
        "gofs": gofs,
        "centering_method": method,
        "centering_se": se,
    }


def _analysis_cdf_rate(scenario: Scenario, z_rows: dict) -> dict:
    # the z of phi = 1{x(0) <= x} is the normalized CDF-estimation error
    # (T / a(T)) (F_T(x) - K(x)); an error in a Monte Carlo K shifts every
    # z at one T alike, so neither the IQR slope nor the skew sees it
    rows = [z_rows[f"cdf:{x!r}"] for x in scenario.x_grid]
    K = np.array([row[2] for row in rows])
    a_T = tail_quantile_a(scenario.y_dist(), np.asarray(scenario.T_ladder))
    to_error = a_T / np.asarray(scenario.T_ladder)  # z -> F_T(x) - K(x)
    slope_target = -(1.0 - 1.0 / scenario.alpha)
    per_x = {}
    for x, (*_, z_x) in zip(scenario.x_grid, rows):
        disp = np.array([iqr(z_T) for z_T in z_x]) * to_error
        # replicates that all read one F_T(x), such as an x above every
        # level a horizon reaches, leave no dispersion to fit on a log scale
        flat = [_num(T) for T, d in zip(scenario.T_ladder, disp) if not d > 0]
        if flat:
            slope = stderr = math.nan
            stat, detail = math.inf, f"IQR 0 at T={', '.join(flat)}: no log fit"
        else:
            slope, stderr = rate_regression(scenario.T_ladder, disp)
            stat, detail = abs(slope - slope_target), f"slope={slope:.3f} target={slope_target:.3f}"
        d_sample = z_x[-1]
        per_x[x] = {
            "iqr": disp,
            "slope": slope,
            "stderr": stderr,
            "d_sample": d_sample,
            "left_skew": bool(d_sample.mean() < np.median(d_sample)),
            "gof": GofReport(
                name=f"{scenario.name}/cdf_rate/x={_num(x)}",
                stat=stat,
                threshold=0.10,
                n=scenario.replicates,
                detail=detail,
            ),
        }
    return {"K": K, "per_x": per_x}


def _random_step_path(gen: np.random.Generator) -> SteppyPath:
    n = int(gen.integers(1, 8))
    times = np.sort(gen.uniform(0.05, 0.95, n))
    while np.any(np.diff(times) <= 0):
        times = np.sort(gen.uniform(0.05, 0.95, n))
    values = gen.normal(size=n + 1)
    return SteppyPath.step(0.0, 1.0, times, values)


def _analysis_m1_diagnostic(scenario: Scenario) -> dict:
    gen = RngStream(scenario.seed, stream_id=3).generator()
    n_pairs = 50
    grid_n = 128
    worst = 0.0
    # dist_m1 returns upper = min(dp, dist_uniform(f, g)) and lower <= upper,
    # so the first two terms are never positive and only interval splitting
    # can fail: perfbench's bracket recomputation checks the Frechet DP
    for _ in range(n_pairs):
        f = _random_step_path(gen)
        g = _random_step_path(gen)
        lo, up = dist_m1(f, g, grid_n=grid_n)
        worst = max(worst, up - dist_uniform(f, g), lo - up)
        # interval-splitting: bound on [0,1] vs max over halves
        lo_l, up_l = dist_m1(f.restrict(0.0, 0.5), g.restrict(0.0, 0.5), grid_n)
        lo_r, up_r = dist_m1(f.restrict(0.5, 1.0), g.restrict(0.5, 1.0), grid_n)
        worst = max(worst, up - max(up_l, up_r) - 2.0 / grid_n)
    gof = GofReport(
        name=f"{scenario.name}/m1_diagnostic",
        stat=max(worst, 0.0),
        threshold=1e-9,
        n=n_pairs,
        detail=f"grid_n={grid_n}",
    )
    return {"gof": gof}


# name -> (runner, reads, min_horizons, ks_share).  reads(scenario) lists
# the z-stage specs a z analysis reads, and its runner takes the stage's
# rows after the scenario; it is None for an analysis that reads no z.  A
# z analysis needs min_horizons rungs of T_ladder, and its KS test has
# ks_share * replicates effective samples: stable_limit tests n replicates
# against 4n reference draws, self_similarity n against n.
ANALYSES = {
    "cycle_mean": (_analysis_cycle_mean, None, 0, 0),
    "cycle_tail": (_analysis_cycle_tail, None, 0, 0),
    "hill": (_analysis_hill, None, 0, 0),
    "stable_limit": (_analysis_stable_limit, lambda sc: sc.functionals, 1, 0.8),
    "self_similarity": (_analysis_self_similarity, lambda sc: sc.functionals[:1], 2, 0.5),
    "cdf_rate": (_analysis_cdf_rate, lambda sc: [f"cdf:{x!r}" for x in sc.x_grid], 3, 0),
    "m1_diagnostic": (_analysis_m1_diagnostic, None, 0, 0),
}


# -- report -----------------------------------------------------------------


@dataclass
class Report:
    scenario: Scenario
    blocks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def gofs(self) -> list:
        return _gofs(self.blocks)

    @property
    def all_passed(self) -> bool:
        """True iff no analysis errored and every GoF passed."""
        errored = any("error" in block for block in self.blocks.values())
        return not errored and all(g.passed for g in self.gofs())

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario.name}"]
        for k, v in sorted(self.scenario.to_dict().items()):
            lines.append(f"  {k}: {v!r}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for name in sorted(self.blocks):
            lines.append(f"[{name}]")
            block = self.blocks[name]
            if "error" in block:
                lines.append(f"  error: {block['error']}")
                continue
            for g in _gofs(block):
                lines.append("  " + g.line())
        verdict = "PASS" if self.all_passed else "FAIL"
        lines.append(f"overall: {verdict}")
        return "\n".join(lines) + "\n"


def _gofs(obj) -> list:
    """Every GofReport in a nest of dicts, lists and tuples, in order."""
    if isinstance(obj, GofReport):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [g for v in obj for g in _gofs(v)]
    return []


def run(scenario: Scenario, workers: Optional[int] = None) -> Report:
    if workers is None:
        workers = scenario.workers
    # the override passes the field's own checks; the report keeps scenario
    notes = validate(replace(scenario, workers=workers))
    report = Report(scenario=scenario, notes=notes)
    # the z stage's rows or error, built when the first z analysis runs: built
    # before the loop, ahead of the cycle banking listed first, it cost the
    # cycle-bank scenario 146k minor faults, not 2.6k, and 1.8-2.1 s, not 1.4-1.6 s
    z_rows = None
    for name in scenario.analyses:
        runner, reads, _, _ = ANALYSES[name]
        if reads and z_rows is None:
            try:
                z_rows = _z_stage(scenario, workers)
            except Exception as exc:  # attempted once, recorded in every z block
                z_rows = exc
        try:
            if reads and isinstance(z_rows, Exception):
                raise z_rows
            report.blocks[name] = runner(scenario, z_rows) if reads else runner(scenario)
        except Exception as exc:  # analyses are independent by contract
            report.blocks[name] = {"error": f"{type(exc).__name__}: {exc}"}
    return report


# -- emission ---------------------------------------------------------------


def _write_csv(dest, header, rows):
    with open(dest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def emit(report: Report, out_dir) -> list:
    """Write the report and its CSVs to out_dir; returns the files written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def path(name):
        p = os.path.join(out_dir, name)
        written.append(p)
        return p

    with open(path("report.txt"), "w") as fh:
        fh.write(report.to_text())
    report.scenario.to_yaml(path("scenario_echo.yaml"))
    blocks = report.blocks
    if "cycle_tail" in blocks and "table" in blocks["cycle_tail"]:
        _write_csv(
            path("cycle_tail.csv"),
            ["t", "x", "empirical", "theoretical", "n_exceed", "reliable"],
            [
                (c.t, c.x, c.empirical, c.theoretical, c.n_exceed, int(c.reliable))
                for c in blocks["cycle_tail"]["table"]
            ],
        )
    if "stable_limit" in blocks and "error" not in blocks["stable_limit"]:
        for phi_name, sub in blocks["stable_limit"].items():
            for T, z in sub["samples"].items():
                _write_csv(
                    path(f"stable_limit_{phi_name}_T{_num(T)}.csv"),
                    ["replicate", "z"],
                    list(enumerate(np.asarray(z))),
                )
            # an exact curve needs a constant rate, whose G is one atom, so
            # the curve's method is also the limit law's
            with open(path(f"stable_limit_{phi_name}_params.txt"), "w") as fh:
                fh.write(sub["limit"].to_text() + f"provenance: {sub['centering_method']}\n")
    if "self_similarity" in blocks and "error" not in blocks["self_similarity"]:
        samples = blocks["self_similarity"]["samples"]
        _write_csv(
            path("self_similarity.csv"),
            ["replicate"] + [f"z_T{_num(T)}" for T in samples],
            [(r, *zs) for r, zs in enumerate(zip(*samples.values()))],
        )
    if "cdf_rate" in blocks and "error" not in blocks["cdf_rate"]:
        cr = blocks["cdf_rate"]
        rows = []
        for x, sub in cr["per_x"].items():
            for T, d in zip(report.scenario.T_ladder, sub["iqr"]):
                rows.append((x, T, d, sub["slope"], sub["stderr"]))
        _write_csv(path("cdf_rate.csv"), ["x", "T", "iqr", "slope", "stderr"], rows)
    gof_rows = [
        (g.name, g.stat, g.threshold, g.n, "pass" if g.passed else "fail")
        for g in report.gofs()
    ]
    _write_csv(path("gof.csv"), ["name", "stat", "threshold", "n", "decision"], gof_rows)
    return written


# -- built-in scenarios ------------------------------------------------------


def builtin_scenarios() -> dict:
    """Named scenarios mirroring the shipped verification suite (reduced
    replicate counts so a demo run finishes in minutes; the test suite
    runs the full-scale versions)."""
    ref = dict(lam=1.0, alpha=1.5, xm=1.0, w_kind="constant", w_params=(1.0,))
    return {
        "cycles": Scenario(
            name="cycles", analyses=("cycle_mean", "cycle_tail", "hill"),
            n_cycles=100_000, tail_t=1e3, tail_x=(1.0, 2.0), hill_k=1000,
            seed=7, **ref,
        ),
        "stable-limit": Scenario(
            name="stable-limit", analyses=("stable_limit",),
            functionals=("identity",), T_ladder=(1e3, 1e4), replicates=400,
            seed=11, **ref,
        ),
        "idle-skew": Scenario(
            name="idle-skew", analyses=("stable_limit",),
            functionals=("idle",), T_ladder=(1e4,), replicates=400,
            lam=0.3, alpha=1.5, xm=1.0, w_kind="constant", w_params=(1.0,),
            seed=13,
        ),
        "cdf-rate": Scenario(
            name="cdf-rate", analyses=("cdf_rate",),
            T_ladder=(1e3, 1e4, 1e5), replicates=100, x_grid=(1.0,),
            seed=17, **ref,
        ),
        "self-similar": Scenario(
            name="self-similar", analyses=("self_similarity",),
            functionals=("identity",), T_ladder=(2.5e3, 1e4), replicates=400,
            seed=19, **ref,
        ),
        "m1": Scenario(name="m1", analyses=("m1_diagnostic",), seed=23, **ref),
    }
