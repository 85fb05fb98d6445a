"""The numpy kernels behind the path, cycle, window and M1 layers.

* ``compensated_cumsum`` -- running sum of deltas, a plain ``np.cumsum``:
  int64 for integer deltas, float64 otherwise.  On a path with mixed
  rates it runs the float level, which carries a rounding slack of
  ``1e-9 * accumulated |w|``.  On a constant-rate path built without a
  workspace it runs the integer occupancy count, exact; with one,
  ``traffic.build_path`` runs that count as an in-place ``np.cumsum`` of
  its step array, since this kernel returns a new array.  The function
  keeps its name and its one argument because the benchmark traces it by
  both.
* ``busy_bounds`` -- indices where an integer occupancy sequence leaves /
  enters zero.
* ``sliding_range_max`` -- max of ``values[lo[i]:hi[i]+1]`` per query, one
  ``np.maximum.reduceat``; only the reference step decomposition calls it.
* ``frechet_minimax`` -- minimax dynamic program between two polylines
  under the max(|dt|, |dv|) ground metric (the discrete Frechet distance
  of Eiter & Mannila 1994), found without the DP table: a lower bound,
  then a bisection over the cost values, each step a bit-parallel
  reachability test on the free cells (Alt & Godau 1995's decision and
  search, on the discrete grid).  It holds the n x m cost matrix and no
  float temporary of its size.

The max/min selections and the cost comparisons are exact: no rounding
enters, so ``frechet_minimax`` returns the same value as a row-by-row sweep
of the DP.
"""

import numpy as np

BACKEND = "python"

# cells of one row block of frechet_minimax's |dv| buffer (128 KiB), and
# the most costs its first bisection samples
_BLOCK_CELLS = 1 << 14
_SAMPLE_CELLS = 1 << 12


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
    array.  One ``np.maximum.reduceat`` over the index pairs (lo, hi + 1):
    the even entries are the windows, and a -inf sentinel makes
    hi + 1 = len(values) a valid index.  It reads every entry of every
    window, so a query costs its width.
    """
    values = np.asarray(values, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("lo and hi must be 1-D arrays of the same length")
    if not len(lo):
        return np.empty(0, dtype=np.float64)
    if np.any(lo > hi) or lo.min() < 0 or hi.max() >= len(values):
        raise ValueError("need 0 <= lo <= hi < len(values) for every query")
    pairs = np.stack([lo, hi + 1], axis=1).ravel()
    return np.maximum.reduceat(np.append(values, -np.inf), pairs)[::2]


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
    admits a path it is D.  Otherwise D is a cost above lb, found in two
    bisections: first over the distinct costs above lb of a strided
    sample of c, with the largest cost (which frees every cell) as the
    last candidate; then over the distinct costs strictly between the
    two candidates that bracket D, and the upper one.  Each step compares
    cost floats, so D is the very float a row-by-row sweep of
    D[i, j] = max(c[i, j], min(D[i-1, j], D[i, j-1], D[i-1, j-1])) returns.

    Memory: the float64 cost matrix, built a block of rows at a time, and
    at most two bytes per cell of comparison masks beside it: 10 * n * m
    bytes (10 MB for 1,000 x 1,000 vertices), plus O(n + m).  Rows run
    along the shorter polyline (D is symmetric), so the Python loop makes
    min(n, m) steps per test.  Raises ValueError unless p and q are
    non-empty (k, 2) arrays of finite floats.
    """
    p, q = _polyline(p), _polyline(q)
    if len(p) > len(q):
        p, q = q, p
    cost = _cost_matrix(p, q)
    lb = max(cost.min(axis=1).max(), cost.min(axis=0).max(), cost[0, 0], cost[-1, -1])
    if _free_path(cost <= lb):
        return float(lb)
    flat = cost.ravel()
    sample = flat[:: -(-flat.size // _SAMPLE_CELLS)]
    coarse = np.unique(np.append(sample[sample > lb], flat.max()))
    k = _first_free(cost, coarse)
    below = coarse[k - 1] if k else lb
    between = flat > below
    between &= flat < coarse[k]
    fine = np.unique(np.append(flat[between], coarse[k]))
    del between
    return float(fine[_first_free(cost, fine)])


def _cost_matrix(p, q):
    """c[i, j] = max(|dt|, |dv|) of p[i] and q[j], built a block of rows at
    a time in the float64 matrix, with one block-sized |dv| buffer."""
    n, m = len(p), len(q)
    cost = np.empty((n, m))
    rows = max(1, _BLOCK_CELLS // m)
    dv = np.empty((rows, m))
    qt, qv = np.ascontiguousarray(q[:, 0]), np.ascontiguousarray(q[:, 1])
    for a in range(0, n, rows):
        block, dvb = cost[a : a + rows], dv[: min(rows, n - a)]
        np.subtract.outer(p[a : a + rows, 0], qt, out=block)
        np.abs(block, out=block)
        np.subtract.outer(p[a : a + rows, 1], qv, out=dvb)
        np.abs(dvb, out=dvb)
        np.maximum(block, dvb, out=block)
    return cost


def _first_free(cost, eps):
    """Index of the smallest of the increasing ``eps`` whose free cells
    (cost <= eps) hold a path; the last of them must."""
    lo, hi = 0, len(eps) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _free_path(cost <= eps[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo
