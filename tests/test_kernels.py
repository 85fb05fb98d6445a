"""Contract tests for the numpy kernels: hand-checkable cases and exact
agreement with simple reference implementations."""

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stableshot import _kernels_py

# K is the numpy kernel module; the one-entry parametrization keeps the
# "[python]" test ids that earlier runs recorded.
kernel_module = pytest.mark.parametrize("K", [_kernels_py], ids=[_kernels_py.BACKEND])


def _row_loop_frechet(p, q):
    """Row-by-row sweep of the minimax DP: the reference the kernel's
    bound-and-search must match exactly."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n, m = len(p), len(q)
    cost0 = np.maximum(np.abs(p[0, 0] - q[:, 0]), np.abs(p[0, 1] - q[:, 1]))
    prev = np.maximum.accumulate(cost0)
    for i in range(1, n):
        cost = np.maximum(np.abs(p[i, 0] - q[:, 0]), np.abs(p[i, 1] - q[:, 1]))
        cur = np.empty(m)
        cur[0] = max(prev[0], cost[0])
        for j in range(1, m):
            reach = min(prev[j], prev[j - 1], cur[j - 1])
            cur[j] = max(reach, cost[j])
        prev = cur
    return float(prev[-1])


def _deque_range_max(values, lo, hi):
    """Monotone-deque sliding maximum, for windows whose lo and hi are both
    nondecreasing: the reference the range max must match exactly."""
    out = np.empty(len(lo))
    dq = deque()  # indices into values, decreasing values
    nxt = 0
    for i in range(len(lo)):
        while nxt <= hi[i]:
            while dq and values[dq[-1]] <= values[nxt]:
                dq.pop()
            dq.append(nxt)
            nxt += 1
        while dq and dq[0] < lo[i]:
            dq.popleft()
        out[i] = values[dq[0]]
    return out


# few distinct values, so ties and equal costs are common
_coord = st.sampled_from([-2.0, -0.5, 0.0, 0.1, 0.5, 1.0, 3.0]) | st.floats(
    -10, 10, allow_nan=False
)


@st.composite
def _polylines(draw, max_len=12):
    """(n, 2) vertex array with nondecreasing times; a zero time step is a
    vertical run, as in a completed graph's jumps."""
    n = draw(st.integers(1, max_len))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]), min_size=n, max_size=n))
    values = draw(st.lists(_coord, min_size=n, max_size=n))
    return np.column_stack([np.cumsum(steps), values])


@st.composite
def _windows(draw, monotone):
    """(values, lo, hi) with 0 <= lo <= hi < len(values); with ``monotone``
    both lo and hi are nondecreasing, as the deque reference needs."""
    values = np.array(draw(st.lists(_coord, min_size=1, max_size=40)))
    n = len(values)
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)
    )
    lo = np.array([min(a, b) for a, b in pairs], dtype=np.int64)
    hi = np.array([max(a, b) for a, b in pairs], dtype=np.int64)
    if monotone:  # the k-th smallest hi is at least the k-th smallest lo
        lo, hi = np.sort(lo), np.sort(hi)
    return values, lo, hi


@kernel_module
def test_compensated_cumsum_matches_numpy(K):
    gen = np.random.default_rng(0)
    x = gen.normal(size=10_000)
    got = K.compensated_cumsum(x)
    assert np.allclose(got, np.cumsum(x), atol=1e-9 * np.abs(x).sum())


@kernel_module
def test_compensated_cumsum_cancellation(K):
    # alternating huge/tiny terms: the running sum must come back to ~0
    x = np.tile([1e12, -1e12, 1.0, -1.0], 1000)
    out = K.compensated_cumsum(x)
    assert abs(out[-1]) < 1e-3


@kernel_module
def test_compensated_cumsum_integer_deltas_stay_int64(K):
    # occupancy deltas sum exactly in int64, past where float64 rounds
    x = np.array([2**53, 1, 1, -1, 2**60, -(2**60), -1], dtype=np.int64)
    out = K.compensated_cumsum(x)
    assert out.dtype == np.int64
    big = 2**53
    assert out.tolist() == [big, big + 1, big + 2, big + 1, 2**60 + big + 1, big + 1, big]
    assert K.compensated_cumsum(np.array([0.5, 1.0])).dtype == np.float64


@kernel_module
def test_busy_bounds_hand_cases(K):
    # occupancy after each event; init 0: idle, busy(2 events), idle, busy...
    counts = np.array([1, 2, 1, 0, 1, 0], dtype=np.int64)
    starts, ends = K.busy_bounds(counts, 0)
    assert list(starts) == [0, 4]
    assert list(ends) == [3, 5]


@kernel_module
def test_busy_bounds_starts_busy(K):
    counts = np.array([0, 1, 0], dtype=np.int64)
    starts, ends = K.busy_bounds(counts, 2)
    # path begins busy: first end has no matching start before it
    assert list(ends) == [0, 2]
    assert list(starts) == [1]


@kernel_module
def test_busy_bounds_never_idle(K):
    counts = np.array([2, 3, 1], dtype=np.int64)
    starts, ends = K.busy_bounds(counts, 1)
    assert len(starts) == 0 and len(ends) == 0


@kernel_module
def test_sliding_range_max_vs_naive(K):
    gen = np.random.default_rng(1)
    v = gen.normal(size=500)
    lo = np.sort(gen.integers(0, 480, size=200))
    # contract: both endpoints nondecreasing (windows slide forward)
    hi = np.maximum.accumulate(np.minimum(lo + gen.integers(0, 40, size=200), 499))
    got = K.sliding_range_max(v, lo, hi)
    want = np.array([v[a : b + 1].max() for a, b in zip(lo, hi)])
    assert np.array_equal(got, want)


def _naive_frechet(p, q):
    # exponential-recursion reference, fine for tiny inputs
    from functools import lru_cache

    def cost(i, j):
        return max(abs(p[i, 0] - q[j, 0]), abs(p[i, 1] - q[j, 1]))

    @lru_cache(maxsize=None)
    def rec(i, j):
        c = cost(i, j)
        if i == 0 and j == 0:
            return c
        opts = []
        if i > 0:
            opts.append(rec(i - 1, j))
        if j > 0:
            opts.append(rec(i, j - 1))
        if i > 0 and j > 0:
            opts.append(rec(i - 1, j - 1))
        return max(c, min(opts))

    return rec(len(p) - 1, len(q) - 1)


@kernel_module
def test_frechet_minimax_vs_naive(K):
    gen = np.random.default_rng(2)
    for _ in range(10):
        p = gen.normal(size=(6, 2))
        q = gen.normal(size=(5, 2))
        assert K.frechet_minimax(p, q) == _naive_frechet(p, q)


@kernel_module
def test_frechet_symmetry_and_identity(K):
    gen = np.random.default_rng(3)
    p = gen.normal(size=(20, 2))
    q = gen.normal(size=(17, 2))
    assert K.frechet_minimax(p, p) == 0.0
    assert K.frechet_minimax(p, q) == K.frechet_minimax(q, p)


_POINT = np.array([[0.5, 1.0]])
_JUMPS = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.5, -1.0], [1.0, -1.0]])


@kernel_module
@settings(max_examples=60, deadline=None)
@given(p=_polylines(), q=_polylines())
@example(p=_POINT, q=_JUMPS)
@example(p=_JUMPS, q=_POINT)
@example(p=_POINT, q=_POINT)
@example(p=_JUMPS, q=_JUMPS)
def test_frechet_minimax_matches_row_loop(K, p, q):
    want = _row_loop_frechet(p, q)
    assert K.frechet_minimax(p, q) == want
    assert K.frechet_minimax(q, p) == want
    assert K.frechet_minimax(p, p.copy()) == 0.0


def _lower_bound(p, q):
    """max(max_i min_j c, max_j min_i c, c[0, 0], c[-1, -1]) of the cost
    matrix: the value the kernel returns without a search."""
    c = np.maximum(np.abs(p[:, None, 0] - q[None, :, 0]), np.abs(p[:, None, 1] - q[None, :, 1]))
    return max(c.min(axis=1).max(), c.min(axis=0).max(), c[0, 0], c[-1, -1]), c


@st.composite
def _grid_polylines(draw, max_len=10):
    """Polylines with every coordinate on a 0.25 grid, so many costs tie."""
    n = draw(st.integers(1, max_len))
    steps = draw(st.lists(st.sampled_from([0, 0, 1]), min_size=n, max_size=n))
    values = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    return 0.25 * np.column_stack([np.cumsum(steps), values]).astype(np.float64)


@settings(max_examples=300, deadline=None)
@given(
    p=_grid_polylines(), q=_grid_polylines(),
    sample_cells=st.integers(1, 12), block_cells=st.integers(1, 30),
)
def test_frechet_minimax_matches_row_loop_on_grid(p, q, sample_cells, block_cells):
    want = _row_loop_frechet(p, q)
    with pytest.MonkeyPatch.context() as mp:
        # a few sampled costs leave most of the search to the second
        # bisection; a few cells a block build the costs in many row blocks
        mp.setattr(_kernels_py, "_SAMPLE_CELLS", sample_cells)
        mp.setattr(_kernels_py, "_BLOCK_CELLS", block_cells)
        assert _kernels_py.frechet_minimax(p, q) == want
        assert _kernels_py.frechet_minimax(q, p) == want


@pytest.mark.parametrize("m", [1, 2, 7])
def test_frechet_minimax_single_vertex(m):
    # with one vertex on one side the only path runs along the other: D is
    # its largest cost
    gen = np.random.default_rng(m)
    point = gen.normal(size=(1, 2))
    q = gen.normal(size=(m, 2))
    want = np.maximum(np.abs(q[:, 0] - point[0, 0]), np.abs(q[:, 1] - point[0, 1])).max()
    assert _kernels_py.frechet_minimax(point, q) == want == _row_loop_frechet(point, q)
    assert _kernels_py.frechet_minimax(q, point) == want == _row_loop_frechet(q, point)


# two cases where the lower bound is not D and the bisection runs.  Mid:
# p climbs -1.5 -> 1.5; q climbs to 1, falls to -1.5 and climbs again.
# Every vertex has a partner within 0.5, but a monotone matching pairs q's
# dip with p's 0.5 at best: D = 2, with costs on both sides of it above lb.
# Top: p jumps from -2 to 2; q rises to 2, then falls to -2.  One of q's
# two extremes meets the other extreme of p: D = 4, the largest cost.
_SEARCH_CASES = {
    "mid": ([-1.5, 0.5, 1.5], [-1.0, 1.0, -1.5, 1.5], 0.5, 2.0),
    "top": ([-2.0, 2.0], [0.0, 2.0, -2.0, 1.0], 2.0, 4.0),
}


@pytest.mark.parametrize("case", _SEARCH_CASES, ids=list(_SEARCH_CASES))
def test_frechet_minimax_searches_above_the_lower_bound(case):
    pv, qv, lb_want, d_want = _SEARCH_CASES[case]
    p = np.column_stack([np.zeros(len(pv)), pv])  # vertical runs at t = 0
    q = np.column_stack([np.zeros(len(qv)), qv])
    lb, c = _lower_bound(p, q)
    assert lb == lb_want < d_want
    # at least two costs in (lb, D], so a bisection off by one lands wrong
    assert np.unique(c[(c > lb) & (c <= d_want)]).size >= 2
    for a, b in ((p, q), (q, p)):
        assert _kernels_py.frechet_minimax(a, b) == d_want == _row_loop_frechet(a, b)
        assert d_want == _naive_frechet(a, b)


# (case, sampled costs, where D lies): the search first bisects over the
# distinct sampled costs above lb and the largest cost, then over the costs
# strictly between the two of those that bracket D
_SAMPLE_SPLITS = [("mid", 2, "sample"), ("mid", 3, "between"), ("top", 3, "top")]


@pytest.mark.parametrize("case, sample_cells, where", _SAMPLE_SPLITS)
def test_frechet_minimax_two_stage_search(monkeypatch, case, sample_cells, where):
    pv, qv, _, d_want = _SEARCH_CASES[case]
    p = np.column_stack([np.zeros(len(pv)), pv])
    q = np.column_stack([np.zeros(len(qv)), qv])
    lb, c = _lower_bound(p, q)  # p is the shorter, so c is the kernel's matrix
    sample = c.ravel()[:: -(-c.size // sample_cells)]  # the kernel's stride
    sampled = sample[sample > lb]
    if where == "top":
        assert d_want == c.max()
    elif where == "sample":
        assert d_want in sampled and d_want < c.max()
    else:
        assert d_want not in sampled
        assert sampled[sampled < d_want].size and sampled[sampled > d_want].size
    monkeypatch.setattr(_kernels_py, "_SAMPLE_CELLS", sample_cells)
    for a, b in ((p, q), (q, p)):
        assert _kernels_py.frechet_minimax(a, b) == d_want == _row_loop_frechet(a, b)


def test_frechet_minimax_peak_memory():
    # two independent 1,000-vertex walks over a time span ten times their
    # spread: most of the 1e6 costs exceed lb, D is above it, and both
    # bisections run
    gen = np.random.default_rng(4)
    t = np.linspace(0.0, 10.0, 1000)
    p, q = (np.column_stack([t, gen.normal(size=1000).cumsum() / 30]) for _ in range(2))
    lb, c = _lower_bound(p, q)
    assert (c > lb).mean() > 0.5
    del c
    # a small search first, for numpy's lazy imports
    pv, qv, _, _ = _SEARCH_CASES["mid"]
    _kernels_py.frechet_minimax(*(np.column_stack([np.zeros(len(v)), v]) for v in (pv, qv)))
    tracemalloc.start()
    try:
        d = _kernels_py.frechet_minimax(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d > lb
    assert peak < 11 * 1000 * 1000 + 400 * (1000 + 1000)


@pytest.mark.parametrize(
    "bad",
    [np.empty((0, 2)), [], np.zeros(3), np.zeros((3, 3)), np.zeros((2, 2, 1)),
     [[0.0, np.nan]], [[np.inf, 0.0], [1.0, 1.0]]],
    ids=["no-vertices", "empty-list", "1-D", "three-columns", "3-D", "nan", "inf"],
)
def test_frechet_minimax_rejects_bad_polylines(bad):
    good = np.zeros((2, 2))
    for args in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="polyline"):
            _kernels_py.frechet_minimax(*args)


@kernel_module
@settings(max_examples=60, deadline=None)
@given(case=_windows(monotone=True))
def test_sliding_range_max_matches_deque(K, case):
    values, lo, hi = case
    assert np.array_equal(K.sliding_range_max(values, lo, hi), _deque_range_max(values, lo, hi))


@settings(max_examples=60, deadline=None)
@given(case=_windows(monotone=False))
def test_sliding_range_max_any_window_order(case):
    values, lo, hi = case
    want = np.array([values[a : b + 1].max() for a, b in zip(lo, hi)])
    assert np.array_equal(_kernels_py.sliding_range_max(values, lo, hi), want)


@kernel_module
def test_sliding_range_max_edge_windows(K):
    v = np.array([3.0, -1.0, 7.0, 7.0, 0.0, 2.5])
    idx = np.arange(len(v))
    assert np.array_equal(K.sliding_range_max(v, idx, idx), v)  # width 1
    whole = K.sliding_range_max(v, np.zeros(3, np.int64), np.full(3, len(v) - 1))
    assert np.array_equal(whole, [7.0, 7.0, 7.0])
    empty = K.sliding_range_max(v, np.empty(0, np.int64), np.empty(0, np.int64))
    assert empty.shape == (0,) and empty.dtype == np.float64


@pytest.mark.parametrize(
    "lo, hi",
    [([2], [1]), ([-1], [0]), ([0], [6]), ([0, 1], [0])],
    ids=["lo>hi", "lo<0", "hi>=n", "length-mismatch"],
)
def test_sliding_range_max_rejects_bad_windows(lo, hi):
    with pytest.raises(ValueError):
        _kernels_py.sliding_range_max(np.arange(6.0), lo, hi)

