"""Outside-in tracing of stableshot's layers.

``Tracer.install`` replaces each traced function at the place its caller
looks it up (a module global or a module attribute) with a wrapper that
records a span and a few counts; ``Tracer.uninstall`` puts every original
back.  Spans stay in memory until the benchmark writes them out.  No
source file of the package changes.

Import this module only after ``checkout.import_stableshot()``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from stableshot import _backend, cycles, functionals, harness, skorokhod, traffic


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: int


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


# Counts recorded at the layer boundaries: fn(counts, result, *args, **kwargs).
# Kernel bytes are computed from the sizes of the input and output arrays,
# so they ignore caches and the kernels' own temporaries.


def _count_sessions(c, out, *a, **k):
    c["traffic.sessions"] += len(out)


def _count_harness_sims(c, out, *a, **k):
    _count_sessions(c, out)
    c["harness.simulations"] += 1


def _count_events(c, out, *a, **k):
    c["traffic.events"] += len(out)


def _count_window_draws(c, out, config, n, *a, **k):
    c["traffic.window_draws"] += n


def _count_segments(c, out, *a, **k):
    c["functionals.segments"] += len(out[1])


def _count_target(c, out, lam, law, n_target, *a, **k):
    c["cycles.n_target"] += n_target


def _count_banked(c, out, *a, **k):
    c["cycles.banked"] += out.m_T


def _count_response_curve(c, out, scenario, phi, *a, **k):
    c["harness.response_curve.functional:" + phi.name] = 1


def _count_calE(c, out, w):
    c["harness.calE.points"] += len(out)


def _count_cumsum(c, out, deltas):
    c["kernels.compensated_cumsum.elements"] += len(deltas)
    c["kernels.compensated_cumsum.bytes"] += _nbytes(deltas, out)


def _count_busy(c, out, counts, init_count):
    c["kernels.busy_bounds.elements"] += len(counts)
    c["kernels.busy_bounds.bytes"] += _nbytes(counts, *out)


def _count_range_max(c, out, values, lo, hi):
    c["kernels.sliding_range_max.queries"] += len(lo)
    c["kernels.sliding_range_max.bytes"] += _nbytes(values, lo, hi, out)


def _count_frechet(c, out, p, q):
    c["kernels.frechet_minimax.cells"] += len(p) * len(q)
    c["kernels.frechet_minimax.bytes"] += _nbytes(p, q) + 8


# (owner, attribute, span name, counter): every place a traced function is
# looked up by its caller.  One function looked up in two places gets one
# span name, so its calls add up under the layer that defines it.
LAYERS = (
    (harness, "simulate_sessions", "traffic.simulate_sessions", _count_harness_sims),
    (harness, "build_path", "traffic.build_path", _count_events),
    (harness, "collect_cycle_lengths", "cycles.collect_cycle_lengths", _count_target),
    (harness, "cycle_tail_table", "cycles.cycle_tail_table", None),
    (harness, "hill_alpha", "cycles.hill_alpha", None),
    (harness, "limit_params", "limits.limit_params", None),
    (harness, "sample_stable", "heavy_rand.sample_stable", None),
    (harness, "ks_two_sample", "stats.ks_two_sample", None),
    (harness, "rate_regression", "stats.rate_regression", None),
    (harness, "dist_m1", "skorokhod.dist_m1", None),
    (harness, "dist_uniform", "skorokhod.dist_uniform", None),
    (harness, "response_curve", "harness.response_curve", _count_response_curve),
    (cycles, "simulate_sessions", "traffic.simulate_sessions", _count_sessions),
    (cycles, "build_path", "traffic.build_path", _count_events),
    (cycles, "decompose_cycles", "cycles.decompose_cycles", _count_banked),
    (traffic, "stationary_window_draws", "traffic.stationary_window_draws", _count_window_draws),
    (functionals, "functional_steps", "functionals.functional_steps", _count_segments),
    (functionals, "empirical_cdf", "functionals.empirical_cdf", None),
    (skorokhod, "dist_uniform", "skorokhod.dist_uniform", None),
    (_backend.kernels, "compensated_cumsum", "kernels.compensated_cumsum", _count_cumsum),
    (_backend.kernels, "busy_bounds", "kernels.busy_bounds", _count_busy),
    (_backend.kernels, "sliding_range_max", "kernels.sliding_range_max", _count_range_max),
    (_backend.kernels, "frechet_minimax", "kernels.frechet_minimax", _count_frechet),
)


class Tracer:
    """Spans and counts of one benchmark process, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._open: list[int] = []
        self._installed: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called ``name``; a span with no
        enclosing span starts a new run id, which its descendants share."""
        if not self._open:
            self.run_id += 1
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every entry of LAYERS, and the calE closures response_curve returns."""
        for owner, attr, name, count in LAYERS:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), count))
        traced = harness.response_curve

        def response_curve(*args, **kwargs):
            calE, *rest = traced(*args, **kwargs)
            return (self.wrap("harness.calE", calE, _count_calE), *rest)

        self._patch(harness, "response_curve", response_curve)

    def _patch(self, owner, attr, replacement):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        """Put back every original function, undoing the patches in reverse."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_table(spans) -> dict:
    """Per span name: calls, total_s, and self_s = duration minus the part
    of the span's interval its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    table = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - _covered(children[i], s.start, s.end)
    return table
