"""Set-up probe: import stableshot, build and validate one workload, print
the CLOCK_MONOTONIC time at which that finished.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

run.py starts this in a fresh process and takes the difference from its own
reading of the same clock just before the start, so set-up time covers
interpreter start-up and the imports of stableshot, numpy, scipy and yaml.
"""

import sys
import time

from checkout import import_stableshot


def main():
    import_stableshot()
    import workloads
    from stableshot.harness import validate

    scenarios, _ = workloads.build(sys.argv[1], int(sys.argv[2]))
    for scenario in scenarios:
        validate(scenario)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


if __name__ == "__main__":
    main()
