#!/usr/bin/env python3
"""Verifier benchmark: run one scenario workload through stableshot.harness.

Usage:
  python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload, every workload runs in turn, each in a fresh process.

--trace 0 reports the end-to-end metrics, untraced:
  setup_s      median over fresh processes, half started before the measured
               runs and half after them, of start-up to a validated scenario
  run_s        median wall time of harness.run(scenario, workers) over the
               runs that fit in --seconds (at least one: a run starts only
               if one more of the last run's length still fits), all in
               this one process; a workload of two scenarios runs both in
               each measurement
  peak_rss_mb  largest peak RSS of this process and its children
--trace 1 repeats the untraced runs, then makes one run at workers=1 with
every layer wrapped (tracing.py), and reports the per-layer metrics.
BENCHMARK.json names the metrics each mode reports, with their units.

Every run's GoF statistics and verdicts, and the continuous values behind
the stable-limit GoFs, are checked (workloads.check_runs) against the first
run, the recorded reference and the must-pass list.  A workload with the M1
diagnostic also recomputes its dist_m1 brackets after the measured runs and
checks them against the reference.  failed_frac is the share of those
checks that failed.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
Each result, with its environment, is appended to .perfbench/results.jsonl;
a traced run also writes its spans to .perfbench/spans-WORKLOAD-seedN.json.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

from checkout import OUT, ROOT, import_stableshot

BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_PROBES = 6

# span name -> the span statistics reported as per-layer metrics
LAYER_STATS = {
    "traffic.simulate_sessions": ("calls", "self_s"),
    "traffic.build_path": ("calls", "self_s"),
    "traffic.stationary_window_draws": ("calls", "self_s"),
    "functionals.functional_steps": ("calls", "self_s"),
    "functionals.empirical_cdf": ("calls", "self_s"),
    "cycles.collect_cycle_lengths": ("calls", "self_s", "total_s"),
    "cycles.decompose_cycles": ("calls", "self_s"),
    "harness.response_curve": ("calls", "self_s", "total_s"),
    "harness.calE": ("calls", "self_s"),
    "limits.limit_params": ("calls", "self_s"),
    "skorokhod.dist_m1": ("calls", "self_s", "total_s"),
    "skorokhod.dist_uniform": ("self_s",),
    "kernels.frechet_minimax": ("calls", "self_s"),
    "kernels.sliding_range_max": ("calls", "self_s"),
    "kernels.compensated_cumsum": ("calls", "self_s"),
    "kernels.busy_bounds": ("calls", "self_s"),
    "stats.ks_two_sample": ("self_s",),
    "heavy_rand.sample_stable": ("self_s",),
}
# kernel span name -> its operation count
KERNEL_OPS = {
    "kernels.frechet_minimax": "cells",
    "kernels.sliding_range_max": "queries",
    "kernels.compensated_cumsum": "elements",
    "kernels.busy_bounds": "elements",
}
def metric_units(trace: int) -> dict:
    """Metric name -> unit of what --trace ``trace`` reports, as BENCHMARK.json lists them."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers reaped pool workers
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(workload: str, seed: int, probes: int) -> list:
    """Start-up-to-validated-scenario times of ``probes`` fresh processes."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    times = []
    for _ in range(probes):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def timed_runs(harness, scenarios, workers: int, seconds: float) -> list:
    """Untraced runs, repeated while one more run as long as the last still
    fits in ``seconds``; at least one."""
    import workloads

    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start + runs[-1]["run_s"] <= seconds:
        cpu0 = _children_cpu_s()
        t0 = time.perf_counter()
        values, errors = workloads.run_parts(harness.run, scenarios, workers)
        wall = time.perf_counter() - t0
        runs.append(
            {
                "workers": workers,
                "run_s": wall,
                "pool_utilization": (_children_cpu_s() - cpu0) / (workers * wall),
                "values": values,
                "errors": errors,
            }
        )
    return runs


def traced_run(harness, scenarios) -> tuple:
    """One run at workers=1 with every layer wrapped; the tracer is removed
    again before this returns."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        values, errors = workloads.run_parts(
            lambda s, workers: tracer.call("harness.run", harness.run, s, workers=workers),
            scenarios,
            1,
        )
    finally:
        tracer.uninstall()
    return tracer, {"workers": 1, "values": values, "errors": errors}


def per_layer_metrics(tracer, scenario, timed: list, untraced_1_s: float) -> tuple:
    """(the per-layer metrics, the whole layer table) of a traced run;
    ``scenario`` is the workload's first, seeded part."""
    import tracing

    table = tracing.layer_table(tracer.spans)
    counts = tracer.counts
    root = table["harness.run"]
    m = {}
    for layer, stats in LAYER_STATS.items():
        row = table.get(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        m.update({f"{layer}.{stat}": row[stat] for stat in stats})
    functionals = [k for k in counts if k.startswith("harness.response_curve.functional:")]
    m.update(
        {
            "traffic.sessions": counts["traffic.sessions"],
            "traffic.events": counts["traffic.events"],
            "traffic.window_draws": counts["traffic.window_draws"],
            "functionals.segments": counts["functionals.segments"],
            "cycles.banked": counts["cycles.banked"],
            "cycles.useful_frac": _ratio(counts["cycles.n_target"], counts["cycles.banked"]),
            "harness.response_curve.useful_frac": _ratio(
                len(functionals), table.get("harness.response_curve", {}).get("calls", 0)
            ),
            "harness.calE.points": counts["harness.calE.points"],
            "harness.sims_per_replicate": counts["harness.simulations"]
            / (scenario.replicates * len(scenario.T_ladder)),
            "harness.pool_utilization": statistics.median(r["pool_utilization"] for r in timed),
            "trace.run_s": root["total_s"],
            "trace.residual_s": root["self_s"],
            "trace.overhead_frac": root["total_s"] / untraced_1_s - 1.0,
        }
    )
    for kernel, ops in KERNEL_OPS.items():
        m[f"{kernel}.{ops}"] = counts[f"{kernel}.{ops}"]
        m[f"{kernel}.bytes"] = counts[f"{kernel}.bytes"]
    return m, table


def environment(backend: str, args, scenarios, workers: int) -> dict:
    import numpy
    import scipy
    import yaml

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "scenarios": [s.to_dict() for s in scenarios],
    }


def print_layer_table(table: dict, run_s: float, untraced_1_s: float, counts) -> None:
    print(f"{'layer':<34}{'calls':>8}{'self_s':>10}{'total_s':>10}{'self %':>8}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"{name:<34}{row['calls']:>8}{row['self_s']:>10.3f}{row['total_s']:>10.3f}"
            f"{100 * row['self_s'] / run_s:>7.1f}%"
        )
    total_self = sum(row["self_s"] for row in table.values())
    print(
        f"self times sum to {total_self:.3f} s of the traced run_s {run_s:.3f} s "
        f"(residual in harness itself: {table['harness.run']['self_s']:.3f} s); "
        f"untraced run_s at workers=1 {untraced_1_s:.3f} s, "
        f"tracing overhead {run_s - untraced_1_s:+.3f} s"
    )
    print("kernels (bytes computed from input and output array sizes):")
    print(f"{'kernel':<28}{'op':>9}{'ops':>12}{'bytes':>12}{'ops/byte':>10}{'self_s':>9}{'ops/s':>10}")
    for kernel, ops in KERNEL_OPS.items():
        n_ops, n_bytes = counts[f"{kernel}.{ops}"], counts[f"{kernel}.bytes"]
        self_s = table.get(kernel, {"self_s": 0.0})["self_s"]
        print(
            f"{kernel:<28}{ops:>9}{n_ops:>12}{n_bytes:>12}{_ratio(n_ops, n_bytes):>10.3f}"
            f"{self_s:>9.3f}{_ratio(n_ops, self_s):>10.3g}"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    stableshot = import_stableshot()
    import workloads
    from stableshot import harness

    if args.workload is None:
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, *flags]).returncode
            for name in workloads.WORKLOADS
        )
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    scenarios, workers = workloads.build(args.workload, args.seed)
    for scenario in scenarios:
        harness.validate(scenario)
    reference = workloads.load_reference()
    backend = stableshot.backend_name()
    env = environment(backend, args, scenarios, workers)
    if backend != reference["backend"]:
        print(
            f"notice: kernel backend {backend!r} differs from the reference's "
            f"{reference['backend']!r}; its timings are not comparable with the baseline",
            file=sys.stderr,
        )
    print(f"perfbench {args.workload} seed={args.seed} backend={backend} workers={workers}")

    units = metric_units(args.trace)
    # half the set-up probes before the measured runs and half after them,
    # so that their median covers the whole run, not one moment of host load
    setup = measure_setup(args.workload, args.seed, SETUP_PROBES // 2) if args.trace == 0 else []
    timed = timed_runs(harness, scenarios, workers, args.seconds)
    runs = list(timed)
    run_times = [r["run_s"] for r in timed]
    record = {"env": env, "run_s_samples": run_times}
    if args.trace == 0:
        computed = {"run_s": statistics.median(run_times), "peak_rss_mb": _peak_rss_mb()}
    else:
        untraced_1_s = statistics.median(run_times)
        if workers != 1:
            runs += timed_runs(harness, scenarios, 1, 0.0)
            untraced_1_s = runs[-1]["run_s"]
        tracer, traced = traced_run(harness, scenarios)
        runs.append(traced)
        computed, table = per_layer_metrics(tracer, scenarios[0], timed, untraced_1_s)
        print_layer_table(table, computed["trace.run_s"], untraced_1_s, tracer.counts)
        record["layers"] = table
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"env": env, "spans": [asdict(span) for span in tracer.spans]}, fh)

    # after every measured run, so the recomputation is never timed
    m1 = workloads.m1_brackets() if workloads.has_m1(args.workload) else None
    if args.trace == 0:
        setup += measure_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
        computed["setup_s"] = statistics.median(setup)
        record["setup_s_samples"] = setup
    metrics = {name: computed[name] for name in units}
    check = workloads.check_runs(
        args.workload, args.seed, [r["values"] for r in runs], reference, m1
    )
    failed_frac = check["failed"] / check["attempted"]
    for r in runs:
        for analysis, error in r["errors"].items():
            print(f"error in {analysis} (workers={r['workers']}): {error}")
    for problem in check["problems"][:20]:
        print(f"check: {problem}")
    for name, value in metrics.items():
        print(f"  {name:<40}{value:>14.6g} {units[name]}")
    print(
        f"  {'failed_frac':<40}{failed_frac:>14.6g} ratio "
        f"({check['failed']} of {check['attempted']} checks over {len(runs)} runs; "
        f"reference for this seed: {'yes' if check['has_reference'] else 'no'})"
    )
    if args.trace == 0:
        print(
            f"  run_s over {len(run_times)} runs: first {run_times[0]:.4f} "
            f"min {min(run_times):.4f} max {max(run_times):.4f}; "
            f"setup_s over {len(setup)} processes: "
            f"min {min(setup):.4f} max {max(setup):.4f}; pool utilization "
            f"{statistics.median(r['pool_utilization'] for r in timed):.3f}"
        )

    result = {
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    record.update(
        result, failed_frac=failed_frac, problems=check["problems"], values=runs[0]["values"]
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
