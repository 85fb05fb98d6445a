"""The benchmark's scenario workloads and the check of their output.

Each workload drives the traffic layer differently (see WHY), so a change
to one layer shows on one workload and must leave the others alone.  The
benchmark seed becomes the scenario seed of every part of a workload but
mc-kernels' fixed M1 part (see M1_SEED).

Import this module only after ``checkout.import_stableshot()``.
"""

import json
import math
from pathlib import Path

import numpy as np

from stableshot import harness
from stableshot.harness import Scenario
from stableshot.rng import RngStream

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# relative and absolute tolerance on a recorded float when a run is
# compared with the reference; the recorded values come from one kernel
# backend, and the backends agree only up to summation slack
REL_TOL = 1e-6
ABS_TOL = 1e-9

_UNIT_RATES = dict(lam=1.0, alpha=1.5, xm=1.0, w_kind="constant", w_params=(1.0,))
_MC_RATES = dict(lam=1.0, alpha=1.5, xm=1.0, w_kind="uniform", w_params=(0.1, 1.0), window_h=1.0)

# The M1 diagnostic draws its path pairs from the scenario seed, and its DP
# work varies with them: 14.9M to 24.5M cells over seeds 1-20.  That would
# set the spread of mc-kernels' run_s, so its M1 part always uses this seed.
M1_SEED = 1
# the M1 diagnostic's own pair count and grid (harness._analysis_m1_diagnostic)
M1_PAIRS = 50
M1_GRID_N = 128

# name -> (worker count, scenario fields of each part run in one measurement);
# a part without its own seed takes the benchmark seed
WORKLOADS = {
    "replicate-fanout": (
        2,
        [
            dict(
                _UNIT_RATES,
                functionals=("identity", "idle", "cdf:1"),
                T_ladder=(1e3, 1e4),
                replicates=200,
                analyses=("stable_limit",),
            )
        ],
    ),
    "mc-kernels": (
        1,
        [
            dict(
                _MC_RATES,
                functionals=("winsup:3", "clipped:2"),
                T_ladder=(1e3, 1e4),
                replicates=50,
                analyses=("stable_limit",),
            ),
            dict(_MC_RATES, analyses=("m1_diagnostic",), seed=M1_SEED),
        ],
    ),
    "cycle-bank": (
        1,
        [
            # 60,000 cycles always take two 1e6-long chunks (seeds 1-10 bank
            # 79k to 104k from two); 1e5 would need a third chunk on some seeds
            dict(
                _UNIT_RATES,
                analyses=("cycle_mean", "cycle_tail", "hill", "cdf_rate"),
                n_cycles=60_000,
                T_ladder=(1e3, 1e4, 1e5),
                replicates=100,
                x_grid=(1.0,),
            )
        ],
    ),
}

WHY = {
    "replicate-fanout": "many short replicate paths with closed-form response curves: "
    "simulate, build_path, functional steps and the worker pool",
    "mc-kernels": "non-constant rates and a window-sup functional: Monte Carlo response "
    "curves, sliding_range_max and the M1 Frechet DP",
    "cycle-bank": "a few long fresh-start paths of about 2M events: large build_path "
    "sorts, cycle banking and empirical_cdf; the largest memory footprint",
}

# GoF checks that hold for every seed: the M1 bracket properties are
# certified, not statistical, so any failure is a defect
MUST_PASS = ("m1_diagnostic",)


def build(name: str, seed: int):
    """([Scenario, ...], workers) of workload ``name`` for benchmark seed ``seed``."""
    workers, parts = WORKLOADS[name]
    scenarios = [
        Scenario(name=name, workers=workers, **{"seed": seed, **fields}) for fields in parts
    ]
    return scenarios, workers


def run_parts(run_scenario, scenarios, workers: int) -> tuple[dict, dict]:
    """run_scenario(scenario, workers=workers) for every part of a workload,
    such as harness.run; returns the parts' merged record."""
    values, errors = {}, {}
    for scenario in scenarios:
        v, e = record(run_scenario(scenario, workers=workers))
        values.update(v)
        errors.update(e)
    return values, errors


def record(report) -> tuple[dict, dict]:
    """({name: [values]}, {analysis: error}) of a Report.

    Each GoF gives [stat, threshold, n, passed].  A stable_limit KS
    statistic is rank-based, so each of its functionals also gives the
    continuous values behind it: the centering and its standard error, the
    limit law's calE_0, moments and parameters, and per T the count, sum
    and absolute sum of the replicate z-values.
    """
    values = {
        g.name: [float(g.stat), float(g.threshold), int(g.n), bool(g.passed)]
        for g in report.gofs()
    }
    errors = {
        name: block["error"]
        for name, block in report.blocks.items()
        if isinstance(block, dict) and "error" in block
    }
    if "stable_limit" not in errors:
        for phi, block in report.blocks.get("stable_limit", {}).items():
            key = f"{report.scenario.name}/stable_limit/{phi}"
            lim = block["limit"]
            values[f"{key}/centering"] = [float(block["centering"]), float(block["centering_se"])]
            values[f"{key}/limit"] = [
                float(v)
                for v in (
                    lim.calE_0, lim.abs_moment, lim.signed_moment,
                    lim.params.alpha, lim.params.sigma, lim.params.beta, lim.params.mu,
                )
            ]
            for T, z in block["samples"].items():
                values[f"{key}/z/T={T:g}"] = [int(z.size), float(z.sum()), float(np.abs(z).sum())]
    return values, errors


def has_m1(name: str) -> bool:
    return any("m1_diagnostic" in fields["analyses"] for fields in WORKLOADS[name][1])


def m1_brackets(pairs: int = M1_PAIRS) -> list:
    """The (lower, upper) brackets of every harness.dist_m1 call the M1
    diagnostic makes at M1_SEED, for its first ``pairs`` path pairs: per
    pair [lo, up] on [0, 1], then on [0, 0.5], then on [0.5, 1].

    The diagnostic's GoF cannot see a wrong Frechet DP (its upper bound is
    capped by the uniform distance, and the lower by the upper), so the
    benchmark recomputes the brackets, outside the timed runs, and checks
    them against the reference.  At M1_SEED the DP value is the upper
    bound in 71 of the 150 calls, and a DP that reads too low shows in all.
    """
    gen = RngStream(M1_SEED, stream_id=3).generator()
    out = []
    for _ in range(pairs):
        f = harness._random_step_path(gen)
        g = harness._random_step_path(gen)
        row = list(harness.dist_m1(f, g, grid_n=M1_GRID_N))
        for a, b in ((0.0, 0.5), (0.5, 1.0)):
            row += harness.dist_m1(f.restrict(a, b), g.restrict(a, b), M1_GRID_N)
        out.append([float(v) for v in row])
    return out


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _matches(got, ref) -> bool:
    """Floats within REL_TOL/ABS_TOL, counts and verdicts exactly."""
    return len(got) == len(ref) and all(
        _close(a, b) if isinstance(b, float) else a == b for a, b in zip(got, ref)
    )


def check_m1(brackets: list, reference: dict) -> list:
    """Problems of recomputed m1_brackets against the reference's."""
    ref = reference["m1_brackets"][: len(brackets)]
    if len(ref) != len(brackets):
        return [f"M1: {len(brackets)} pairs recomputed, the reference has {len(ref)}"]
    return [
        f"M1 pair {i}: brackets {got} differ from reference {want}"
        for i, (got, want) in enumerate(zip(brackets, ref))
        if not _matches(got, want)
    ]


def check_runs(name: str, seed: int, runs: list, reference: dict, m1=None) -> dict:
    """Compare the records of every run of one workload and seed.

    An entry of one run fails when it is missing (its analysis errored),
    differs from the first run's (results must not depend on the repeat or
    the worker count), differs from the recorded reference beyond
    REL_TOL/ABS_TOL when the seed has one, or is a MUST_PASS GoF that
    failed.  A GoF FAIL that matches the reference is not a failure.  With
    ``m1``, the recomputed m1_brackets, each pair is one more check.
    """
    expected = reference["workloads"][name]["names"]
    ref_seed = reference["workloads"][name]["seeds"].get(str(seed))
    first = runs[0]
    attempted = 0
    problems = []
    for i, got in enumerate(runs):
        unexpected = sorted(set(got) - set(expected))
        attempted += len(expected) + len(unexpected)
        problems += [f"run {i}: unexpected entry {key}" for key in unexpected]
        for key in expected:
            rec = got.get(key)
            if rec is None:
                problems.append(f"run {i}: {key} missing")
            elif rec != first.get(key):
                problems.append(f"run {i}: {key} {rec} differs from run 0 {first.get(key)}")
            elif ref_seed is not None and not _matches(rec, ref_seed[key]):
                problems.append(f"run {i}: {key} {rec} differs from reference {ref_seed[key]}")
            elif key.split("/", 1)[1] in MUST_PASS and not rec[3]:
                problems.append(f"run {i}: {key} must pass for every seed")
    if m1 is not None:
        attempted += len(m1)
        problems += check_m1(m1, reference)
    return {
        "attempted": attempted,
        "failed": len(problems),
        "has_reference": ref_seed is not None,
        "problems": problems,
    }
