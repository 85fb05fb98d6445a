"""The numpy kernels behind the path, cycle, window and M1 layers.

* ``compensated_cumsum`` -- running sum of deltas, a plain ``np.cumsum``:
  int64 for integer deltas, float64 otherwise.  On a path with mixed
  rates it runs the float level, which carries a rounding slack of
  ``eps_num = 1e-9 * accumulated |w|``; on a constant-rate path it runs
  the integer occupancy count, exact, and the level is ``w0 * count``
  (see ``ShotNoisePath``).  The function keeps its name because the
  benchmark traces it by that name.
* ``busy_bounds`` -- indices where an integer occupancy sequence leaves /
  enters zero.
* ``sliding_range_max`` -- max of ``values[lo[i]:hi[i]+1]`` per query.  A
  sparse table (Bender & Farach-Colton 2000) answers every query with two
  lookups, so any windows with ``0 <= lo <= hi < len(values)`` work.
* ``frechet_minimax`` -- minimax dynamic program between two polylines
  under the max(|dt|, |dv|) ground metric (the discrete Frechet distance
  of Eiter & Mannila 1994), found without the DP table: a lower bound,
  then a bisection over the cost values, each step a bit-parallel
  reachability test on the free cells (Alt & Godau 1995's decision and
  search, on the discrete grid).  It holds the n x m cost matrix.

The max/min selections and the cost comparisons are exact: no rounding
enters, so the sparse table returns the same values as a monotone-deque
sweep, and ``frechet_minimax`` the same value as a row-by-row sweep of the
DP.
"""

import numpy as np

BACKEND = "python"


def compensated_cumsum(deltas):
    deltas = np.asarray(deltas)
    return np.cumsum(deltas, dtype=np.int64 if deltas.dtype.kind in "iu" else np.float64)


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


def _free_path(free):
    """Whether a monotone path of True cells of ``free`` joins its corners.

    A path steps right, down or diagonally down-right.  Each row is a
    Python int bitmask F (bit j for column j).  With R the reachable cells
    of the row above, the cells entered from it are S = F & (R | R << 1);
    from each one the path runs right to the end of its run of free cells.
    F + S carries every lowest S bit of a run through to the bit past the
    run, so ((F + S) ^ F) | S, masked by F, is exactly the cells at or
    right of an S bit in the same run.  Row 0 is entered at column 0 only.
    """
    n, m = free.shape
    width = (m + 7) // 8
    rows = np.packbits(free, axis=1, bitorder="little").tobytes()
    from_bytes = int.from_bytes
    R = 0
    enter = 1
    for k in range(0, n * width, width):
        F = from_bytes(rows[k : k + width], "little")
        S = F & enter
        if not S:
            return False
        R = F & (((F + S) ^ F) | S)
        enter = R | R << 1
    return bool(R >> (m - 1))


def _polyline(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 2 or not len(a):
        raise ValueError(f"a polyline is a non-empty (k, 2) array, got shape {a.shape}")
    if not np.isfinite(a).all():  # a NaN cost would admit no path at any eps
        raise ValueError("polyline coordinates must be finite")
    return a


def frechet_minimax(p, q):
    """Discrete Frechet distance under d((t,v), (t',v')) = max(|dt|, |dv|).

    D is the minimum over monotone paths through the n x m cost matrix
    c[i, j] = d(p[i], q[j]), from (0, 0) to (n-1, m-1), of the largest
    cost on the path, so D is the smallest cost eps for which the cells
    with c <= eps hold such a path (``_free_path``).  Every path visits
    every row and every column and both corners, so D is at least
    lb = max(max_i min_j c, max_j min_i c, c[0, 0], c[-1, -1]).  When lb
    admits a path it is D; otherwise a bisection over the sorted distinct
    costs above lb finds the smallest one that does.  Each step compares
    cost floats, so D is the very float a row-by-row sweep of
    D[i, j] = max(c[i, j], min(D[i-1, j], D[i, j-1], D[i-1, j-1])) returns.

    Memory: the float64 cost matrix and, while it is built, one temporary
    of its size: 16 * n * m bytes (16 MB for 1,000 x 1,000 vertices).
    Rows run along the shorter polyline (D is symmetric), so the Python
    loop makes min(n, m) steps per test.  Raises ValueError unless p and q
    are non-empty (k, 2) arrays of finite floats.
    """
    p, q = _polyline(p), _polyline(q)
    if len(p) > len(q):
        p, q = q, p
    cost = np.subtract.outer(np.ascontiguousarray(p[:, 0]), np.ascontiguousarray(q[:, 0]))
    np.abs(cost, out=cost)
    dv = np.subtract.outer(np.ascontiguousarray(p[:, 1]), np.ascontiguousarray(q[:, 1]))
    np.abs(dv, out=dv)
    np.maximum(cost, dv, out=cost)
    del dv
    lb = max(cost.min(axis=1).max(), cost.min(axis=0).max(), cost[0, 0], cost[-1, -1])
    if _free_path(cost <= lb):
        return float(lb)
    # some cost exceeds lb, and the largest frees every cell
    above = np.unique(cost[cost > lb])
    lo, hi = 0, len(above) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _free_path(cost <= above[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(above[lo])
