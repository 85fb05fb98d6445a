"""Command line entry point.

    stableshot run --scenario cfg.yaml --out results/ [--workers N] [--seed S]
    stableshot validate --scenario cfg.yaml
    stableshot demo --out scenarios/

Exit code 0 iff the report passes (no analysis errored and every
goodness-of-fit report passed), 1 if it fails, 2 on an invalid scenario.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import Scenario, builtin_scenarios, emit, run, validate


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stableshot",
        description="Simulate heavy-tailed session traffic and verify its "
        "stable-law scaling limits.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write a report")
    p_run.add_argument("--scenario", required=True, help="scenario YAML file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override file seed")
    p_run.add_argument(
        "--format", choices=("csv-bundle", "structured-text"), default="csv-bundle"
    )

    p_val = sub.add_parser("validate", help="check a scenario file, print diagnostics")
    p_val.add_argument("--scenario", required=True)

    p_demo = sub.add_parser("demo", help="emit the built-in scenarios as YAML")
    p_demo.add_argument("--out", required=True, help="output directory")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "validate":
        try:
            notes = validate(Scenario.from_yaml(args.scenario))
        except (ValueError, OSError) as exc:
            print(f"invalid scenario: {exc}", file=sys.stderr)
            return 2
        for note in notes:
            print(note)
        print("scenario ok")
        return 0

    if args.command == "demo":
        import os

        os.makedirs(args.out, exist_ok=True)
        for name, sc in builtin_scenarios().items():
            dest = os.path.join(args.out, f"{name}.yaml")
            sc.to_yaml(dest)
            print(f"wrote {dest}")
        return 0

    # run
    try:
        scenario = Scenario.from_yaml(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        if args.workers is not None:
            scenario = replace(scenario, workers=args.workers)
        validate(scenario)
    except (ValueError, OSError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    report = run(scenario)
    files = emit(report, args.out, fmt=args.format)
    for g in report.gofs():
        print(g.line())
    for name, block in report.blocks.items():
        if isinstance(block, dict) and "error" in block:
            print(f"ERROR {name}: {block['error']}", file=sys.stderr)
    print(f"wrote {len(files)} files to {args.out}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
