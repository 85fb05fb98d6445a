#!/usr/bin/env python3
"""Compare the compiled kernel extension against the pure-Python fallback.

Usage: python benchmarks/bench_kernels.py [--n 200000] [--repeat 5]
"""

import argparse
import time

import numpy as np

from stableshot import _kernels_py
from stableshot.skorokhod import SteppyPath, _densify

try:
    from stableshot import _kernels as _kernels_cy
except ImportError:
    _kernels_cy = None


def timeit(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def m1_graph(gen, jumps=5, grid_n=128):
    """Completed graph of a step path on [0, 1], densified as dist_m1 does:
    flat pieces and vertical runs at the jumps."""
    times = np.linspace(0.05, 0.95, jumps) + gen.uniform(-0.01, 0.01, jumps)
    path = SteppyPath.step(0.0, 1.0, times, gen.normal(size=jumps + 1))
    return _densify(path.completed_graph(), 2.0 / grid_n)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=200_000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    gen = np.random.default_rng(0)
    n = args.n
    deltas = gen.normal(size=n)
    counts = np.cumsum(gen.integers(-1, 2, size=n))
    counts -= counts.min()  # nonnegative occupancy
    levels = gen.normal(size=n)
    lo = np.arange(n)
    hi = np.maximum.accumulate(np.minimum(lo + gen.integers(0, 50, size=n), n - 1))
    m = 400
    p = np.column_stack([np.linspace(0, 1, m), gen.normal(size=m)])
    q = np.column_stack([np.linspace(0, 1, m), gen.normal(size=m)])
    pf, pg = m1_graph(gen), m1_graph(gen)

    cases = [
        ("compensated_cumsum", "compensated_cumsum", (deltas,)),
        ("busy_bounds", "busy_bounds", (counts.astype(np.int64), 0)),
        ("sliding_range_max", "sliding_range_max", (levels, lo, hi)),
        ("frechet_minimax", "frechet_minimax", (p, q)),
        (f"frechet M1 {len(pf)}x{len(pg)}", "frechet_minimax", (pf, pg)),
    ]

    print(f"{'kernel':<24}{'python':>12}{'cython':>12}{'speedup':>10}")
    for label, name, xs in cases:
        t_py, out_py = timeit(getattr(_kernels_py, name), *xs, repeat=args.repeat)
        if _kernels_cy is None:
            print(f"{label:<24}{t_py * 1e3:>10.2f}ms {'n/a':>12}{'n/a':>10}")
            continue
        t_cy, out_cy = timeit(getattr(_kernels_cy, name), *xs, repeat=args.repeat)
        # the selection kernels must agree exactly; the summation kernel
        # only within float slack (Kahan against plain cumsum)
        if name == "compensated_cumsum":
            assert np.allclose(out_py, out_cy, atol=1e-9 * np.abs(deltas).sum())
        elif name == "busy_bounds":
            assert all(np.array_equal(a, b) for a, b in zip(out_py, out_cy))
        else:
            assert np.array_equal(out_py, out_cy), label
        print(
            f"{label:<24}{t_py * 1e3:>10.2f}ms{t_cy * 1e3:>10.2f}ms"
            f"{t_py / t_cy:>9.1f}x"
        )


if __name__ == "__main__":
    main()
