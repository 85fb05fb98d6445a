"""Contract tests for the numpy kernels: hand-checkable cases and exact
agreement with simple reference implementations."""

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
    """Row-by-row sweep of the minimax DP: the reference the vectorized
    kernel must match exactly."""
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
    nondecreasing: the reference the sparse table must match exactly."""
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

