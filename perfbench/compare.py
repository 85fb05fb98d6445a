#!/usr/bin/env python3
"""Summarise or compare benchmark results.

Usage:
  python3 perfbench/compare.py RESULTS.jsonl [--out SUMMARY.json]
  python3 perfbench/compare.py BASE.jsonl NEW.jsonl

RESULTS files are what run.py appends to .perfbench/results.jsonl.  With
one file: per workload and end-to-end metric, the median, quartiles and
spread ((q3 - q1) / median) over the untraced runs, and the median of each
per-layer metric over the traced runs; --out also writes that as JSON, with
the last traced run's whole layer table.
With two files: each end-to-end median of NEW against BASE and the
metric's bound from BENCHMARK.json; exits 1 on a regression.  Results
whose kernel backend differs are never compared: that exits 2.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarise(records) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    envs, tables = {}, {}
    for rec in records:
        env = rec["env"]
        envs[env["workload"]] = {
            k: v for k, v in env.items() if k not in ("seed", "trace", "scenarios")
        }
        envs[env["workload"]]["scenarios"] = [
            {k: v for k, v in s.items() if k != "seed"} for s in env["scenarios"]
        ]
        kind = "per_layer" if env["trace"] else "end_to_end"
        seeds[(env["workload"], kind)].append(env["seed"])
        for name, m in rec["metrics"].items():
            values[(env["workload"], kind)][name].append(m["value"])
        values[(env["workload"], kind)]["failed_frac"].append(rec["failed_frac"])
        if "layers" in rec:
            tables[env["workload"]] = rec["layers"]
    out = defaultdict(dict)
    for (workload, kind), metrics in values.items():
        rows = {}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            row = {"n": len(vals), "median": med}
            if kind == "end_to_end" and len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
            rows[name] = row
        out[workload][kind] = rows
        out[workload][f"{kind}_seeds"] = sorted(seeds[(workload, kind)])
        out[workload]["env"] = envs[workload]
    for workload, table in tables.items():
        out[workload]["layer_table"] = table
    return dict(out)


def backends(records) -> set:
    return {rec["env"]["backend"] for rec in records}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="+")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if len(args.results) > 2:
        ap.error("give one results file to summarise or two to compare")
    sets = [load(p) for p in args.results]
    if len(set().union(*map(backends, sets))) > 1:
        print(f"refusing to compare: kernel backends differ {[sorted(backends(s)) for s in sets]}")
        return 2
    summaries = [summarise(s) for s in sets]
    if len(sets) == 1:
        for workload, summary in summaries[0].items():
            for name, row in summary.get("end_to_end", {}).items():
                spread = f"spread {row['spread']:.4f}" if "spread" in row else ""
                print(f"{workload:<18}{name:<14}median {row['median']:<12.6g}n {row['n']:<4}{spread}")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(summaries[0], fh, indent=1, sort_keys=True)
                fh.write("\n")
        return 0

    spec = json.loads(BENCHMARK.read_text())
    regressions = 0
    base, new = summaries
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            b = base[workload]["end_to_end"][metric["name"]]
            n = new[workload]["end_to_end"][metric["name"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (n["median"] - b["median"]) / b["median"]
            verdict = "REGRESSION" if change > metric["bound"] else "ok"
            regressions += verdict != "ok"
            print(
                f"{workload:<18}{metric['name']:<14}{b['median']:>12.6g} -> {n['median']:<12.6g}"
                f"worse by {change:+.4f} (bound {metric['bound']})  {verdict}"
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
