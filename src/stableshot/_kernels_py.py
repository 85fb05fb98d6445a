"""The numpy kernels behind the path, cycle, window and M1 layers.

* ``compensated_cumsum`` -- running sum of float deltas, a plain
  ``np.cumsum``.  The levels it builds carry a rounding slack of
  ``eps_num = 1e-9 * accumulated |w|`` (see ``ShotNoisePath``).  The
  function keeps its name because the benchmark traces it by that name.
* ``busy_bounds`` -- indices where an integer occupancy sequence leaves /
  enters zero.
* ``sliding_range_max`` -- max of ``values[lo[i]:hi[i]+1]`` per query.  A
  sparse table (Bender & Farach-Colton 2000) answers every query with two
  lookups, so any windows with ``0 <= lo <= hi < len(values)`` work.
* ``frechet_minimax`` -- minimax dynamic program between two polylines
  under the max(|dt|, |dv|) ground metric.  An anti-diagonal wavefront
  computes a whole diagonal per numpy step from the two diagonals before
  it, in O(n + m) memory.

Both selections are exact: a max or min picks one of its input floats, so
no rounding enters, and they return the same values as a monotone-deque
sweep and a row-by-row sweep of the DP.
"""

import numpy as np

BACKEND = "python"


def compensated_cumsum(deltas):
    return np.cumsum(np.asarray(deltas, dtype=np.float64))


def busy_bounds(counts, init_count):
    """Indices of 0->positive (starts) and positive->0 (ends) transitions.

    ``counts[i]`` is the occupancy right after event ``i``; ``init_count``
    is the occupancy before the first event.
    """
    counts = np.asarray(counts, dtype=np.int64)
    prev = np.empty_like(counts)
    if counts.size:
        prev[0] = init_count
        prev[1:] = counts[:-1]
    starts = np.flatnonzero((prev == 0) & (counts > 0))
    ends = np.flatnonzero((prev > 0) & (counts == 0))
    return starts, ends


def sliding_range_max(values, lo, hi):
    """``out[i] = max(values[lo[i]:hi[i] + 1])`` for every query i.

    Requires ``0 <= lo[i] <= hi[i] < len(values)`` (ValueError otherwise);
    the windows need not slide monotonically.  Zero queries give an empty
    array.  Sparse table: level k holds the maxima of the 2**k-wide
    windows, and a query of width w reads the two (possibly overlapping)
    level-floor(log2 w) windows that cover it.  Only the levels up to the
    widest query are built, one at a time.
    """
    values = np.asarray(values, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("lo and hi must be 1-D arrays of the same length")
    out = np.empty(len(lo), dtype=np.float64)
    if not len(lo):
        return out
    if np.any(lo > hi) or lo.min() < 0 or hi.max() >= len(values):
        raise ValueError("need 0 <= lo <= hi < len(values) for every query")
    # floor(log2(width)), exact for integer widths: frexp(2**k) = (0.5, k + 1)
    level = np.frexp((hi - lo + 1).astype(np.float64))[1] - 1
    table = values
    for k in range(int(level.max()) + 1):
        if k:
            half = 1 << (k - 1)
            table = np.maximum(table[:-half], table[half:])
        sel = np.flatnonzero(level == k)
        if sel.size:
            out[sel] = np.maximum(table[lo[sel]], table[hi[sel] - (1 << k) + 1])
    return out


def frechet_minimax(p, q):
    """Discrete Frechet distance under d((t,v), (t',v')) = max(|dt|, |dv|).

    D[i, j] = max(c[i, j], min(D[i-1, j], D[i, j-1], D[i-1, j-1])), swept
    over the anti-diagonals d = i + j: the cells of one diagonal depend
    only on the two before it.  A diagonal's costs pair a slice of ``p``
    with a slice of reversed ``q``, so no n x m matrix is built.  Each D
    is a min/max over the same cost floats as a row-by-row sweep, so the
    result is identical to it.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n, m = len(p), len(q)
    pt, pv = np.ascontiguousarray(p[:, 0]), np.ascontiguousarray(p[:, 1])
    qt, qv = np.ascontiguousarray(q[::-1, 0]), np.ascontiguousarray(q[::-1, 1])
    # diagonal buffers indexed by i + 1, slot 0 being the i = -1 border.
    # The row range i0..i1 of a diagonal never moves down, so every
    # out-of-grid slot a diagonal reads was never written and is still +inf.
    prev2 = np.full(n + 1, np.inf)
    prev1 = np.full(n + 1, np.inf)
    cur = np.full(n + 1, np.inf)
    prev1[1] = max(abs(pt[0] - qt[m - 1]), abs(pv[0] - qv[m - 1]))
    for d in range(1, n + m - 1):
        i0, i1 = max(0, d - m + 1), min(d, n - 1) + 1  # rows on diagonal d
        j0 = i0 + m - 1 - d  # reversed-q index of cell (i0, d - i0)
        j1 = j0 + (i1 - i0)
        cost = np.maximum(np.abs(pt[i0:i1] - qt[j0:j1]), np.abs(pv[i0:i1] - qv[j0:j1]))
        reach = np.minimum(prev1[i0:i1], prev1[i0 + 1 : i1 + 1])
        np.minimum(reach, prev2[i0:i1], out=reach)
        np.maximum(reach, cost, out=cur[i0 + 1 : i1 + 1])
        prev2, prev1, cur = prev1, cur, prev2
    return float(prev1[n])
