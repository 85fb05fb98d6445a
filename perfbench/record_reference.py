#!/usr/bin/env python3
"""Record the output the benchmark checks runs against.

Usage: python3 perfbench/record_reference.py SEED [SEED ...]

Runs every workload once per seed, at workers=1, recomputes the M1
diagnostic's brackets once (workloads.m1_brackets), and writes
perfbench/reference.json.  Record it only on a commit whose GoF output is
known to be right; a change that alters GoF output on purpose records it
again and says why.
"""

import json
import sys

from checkout import import_stableshot


def main(seeds):
    stableshot = import_stableshot()
    import workloads
    from stableshot import harness

    out = {
        "backend": stableshot.backend_name(),
        "tolerance": {"rel": workloads.REL_TOL, "abs": workloads.ABS_TOL},
        "m1_seed": workloads.M1_SEED,
        "m1_brackets": workloads.m1_brackets(),
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        per_seed = {}
        for seed in seeds:
            scenarios, _ = workloads.build(name, seed)
            values, errors = workloads.run_parts(harness.run, scenarios, 1)
            if errors:
                sys.exit(f"{name} seed {seed}: analysis errors {errors}")
            per_seed[str(seed)] = values
            # a GoF entry is [stat, threshold, n, passed]
            verdicts = [v[3] for v in values.values() if len(v) == 4 and isinstance(v[3], bool)]
            print(name, seed, verdicts.count(False), "of", len(verdicts), "GoF FAIL")
        names = sorted(per_seed[str(seeds[0])])
        if any(sorted(g) != names for g in per_seed.values()):
            sys.exit(f"{name}: entry names depend on the seed")
        out["workloads"][name] = {"names": names, "seeds": per_seed}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [1])
