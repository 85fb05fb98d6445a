"""Regenerative cycle decomposition and tail estimation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stableshot import (
    JointLaw,
    RngStream,
    Sessions,
    TailDist,
    TrafficConfig,
    build_path,
    collect_cycle_lengths,
    cycle_tail_table,
    decompose_cycles,
    hill_alpha,
    simulate_sessions,
)
from stableshot import cycles
from stableshot.cycles import (
    _CHUNK_SESSIONS,
    MAX_CYCLE_LOAD,
    _chunk_horizon,
    fresh_start_cycle_lengths,
)
from stableshot.traffic import fresh_arrivals
from oracles import one_shot_cycle_lengths


def law():
    return JointLaw(TailDist.pareto(1.5, 1.0), "constant", (1.0,))


def test_hand_decomposition():
    # busy [0.5, 1.5), idle [1.5, 2), busy [2, 2.5), idle [2.5, 4)
    s = Sessions([0.5, 2.0], [1.0, 0.5], [1.0, 1.0])
    p = build_path(s, 0.0, 4.0)
    dec = decompose_cycles(p, 4.0)
    # one complete cycle: [0.5, 2.0) with busy end at 1.5
    assert dec.m_T == 1
    assert dec.s_start[0] == pytest.approx(0.5)
    assert dec.busy_end[0] == pytest.approx(1.5)
    assert dec.s_end[0] == pytest.approx(2.0)
    assert dec.lengths[0] == pytest.approx(1.5)


def test_overlapping_sessions_one_busy_period():
    s = Sessions([0.5, 1.0, 4.0], [1.0, 1.0, 0.1], [1.0, 1.0, 1.0])
    p = build_path(s, 0.0, 5.0)
    dec = decompose_cycles(p, 5.0)
    assert dec.m_T == 1
    assert dec.s_start[0] == pytest.approx(0.5)
    assert dec.busy_end[0] == pytest.approx(2.0)  # union of the two sessions
    assert dec.s_end[0] == pytest.approx(4.0)


def test_initial_busy_stub_dropped():
    # starts busy via a straddling session: that partial structure is not a cycle
    s = Sessions([-0.5, 2.0], [1.0, 0.5], [1.0, 1.0])
    p = build_path(s, 0.0, 4.0)
    dec = decompose_cycles(p, 4.0)
    assert dec.m_T == 0 or dec.s_start[0] >= 2.0


def test_no_cycles_on_empty_path():
    s = Sessions([], [], [])
    p = build_path(s, 0.0, 1.0)
    dec = decompose_cycles(p, 1.0)
    assert dec.m_T == 0


def test_T_out_of_range():
    p = build_path(Sessions([0.5], [1.0], [1.0]), 0.0, 2.0)
    with pytest.raises(ValueError):
        decompose_cycles(p, 3.0)


def test_level_and_count_detection_agree_unit_rates():
    # with positive rates the level is busy exactly where the count is, so
    # the count-based cycles are the level-based ones
    cfg = TrafficConfig(
        lam=1.0, law=law(), horizon=500.0, stationary_init=False, rng=RngStream(1)
    )
    p = build_path(simulate_sessions(cfg), 0.0, 500.0)
    assert np.array_equal(p._level_steps > 0, p._count_steps > 0)
    assert decompose_cycles(p, 500.0).m_T > 0


def test_cycle_lengths_mean_ballpark():
    # E[C] = exp(lam E Y)/lam = e^3; modest n, generous band (heavy tails)
    lengths = collect_cycle_lengths(1.0, law(), 5000, RngStream(2))
    assert lengths.size == 5000
    assert 15.0 < lengths.mean() < 26.0


def test_chunk_horizon_capped_by_session_count():
    # load lam * E[Y] = 8: min(n, 5e4) mean cycles would be ~1.5e8 sessions
    lam = 8.0 / 3.0
    mean_cycle = math.exp(8.0) / lam
    assert lam * 50_000 * mean_cycle > 1e8
    h = _chunk_horizon(lam, law(), 100_000)
    assert lam * h == pytest.approx(_CHUNK_SESSIONS)
    assert h > 200.0 * mean_cycle
    # load 12: 200 mean cycles exceed the cap, and the floor wins
    lam = 4.0
    mean_cycle = math.exp(12.0) / lam
    assert lam * 200.0 * mean_cycle > _CHUNK_SESSIONS
    assert _chunk_horizon(lam, law(), 100_000) == 200.0 * mean_cycle


@pytest.mark.parametrize("rel, fits", [(1 - 1e-6, True), (1 + 1e-6, False)])
def test_max_cycle_load_is_where_the_floor_passes_the_cap(rel, fits):
    # E[Y] = 3; the chunk holds lam * h expected sessions
    lam = rel * MAX_CYCLE_LOAD / 3.0
    sessions = lam * _chunk_horizon(lam, law(), 100_000)
    assert (sessions <= _CHUNK_SESSIONS * (1 + 1e-12)) == fits


@pytest.mark.parametrize("n_target", [500, 10_000, 60_000, 100_000, 1_000_000])
def test_chunk_horizon_unit_load_unchanged(n_target):
    # load 3 (the cycle analyses' scenarios): the cap does not bind
    mean_cycle = math.exp(3.0)
    h = _chunk_horizon(1.0, law(), n_target)
    assert h == max(200.0 * mean_cycle, min(n_target, 50_000) * mean_cycle)
    assert h < _CHUNK_SESSIONS


def test_cycle_lengths_are_positive_and_reproducible():
    a = collect_cycle_lengths(1.0, law(), 500, RngStream(3))
    b = collect_cycle_lengths(1.0, law(), 500, RngStream(3))
    assert np.array_equal(a, b)
    assert np.all(a > 0)


def _path_cycle_lengths(s, T):
    return decompose_cycles(build_path(s, 0.0, T), T).lengths


def _reader(y):
    """A duration reader over an array, as fresh_start_cycle_lengths reads one."""
    return lambda a, b: y[a:b]


def _scan(s, T):
    return fresh_start_cycle_lengths(s.gamma, _reader(s.y), T)


# fresh-start sessions on a quarter grid: arrivals tie each other, 0, T
# and departures; durations reach past T; some rates are 0
_fresh_session = st.tuples(
    st.integers(0, 24).map(lambda k: k / 4),
    st.integers(1, 12).map(lambda k: k / 4),
    st.sampled_from([1.0, 0.5, 0.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    sessions=st.lists(_fresh_session, max_size=40),
    T=st.sampled_from([0.25, 1.0, 2.5, 4.0, 5.0]),
)
@example(sessions=[], T=1.0)
@example(sessions=[(0.5, 1.0, 1.0)], T=1.0)
@example(sessions=[(0.0, 1.0, 1.0)], T=1.0)
# gamma == 0 belongs to the initial state: only the arrival at 2 is an onset
@example(sessions=[(0.0, 1.0, 1.0), (2.0, 1.0, 1.0), (4.0, 1.0, 1.0)], T=4.0)
# a departure that ties an arrival keeps the count above 0
@example(sessions=[(0.5, 1.0, 1.0), (1.5, 1.0, 1.0), (3.0, 1.0, 1.0)], T=4.0)
# onsets at 0.5 and at exactly T; the zero-rate session still keeps [1, 2) busy
@example(sessions=[(0.5, 0.5, 1.0), (1.0, 1.0, 0.0), (2.5, 9.0, 1.0), (4.0, 1.0, 1.0)], T=4.0)
def test_session_route_equals_path_route(sessions, T):
    sessions = sorted(sessions)
    gamma, y, w = (np.array(c, dtype=float) for c in zip(*sessions)) if sessions else ([], [], [])
    s = Sessions(gamma, y, w)
    want = _path_cycle_lengths(s, T)
    # the departures' running max in one block, then in blocks of 4
    # sessions, up to 10 of them
    for block in (cycles._SCAN_SESSIONS, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "_SCAN_SESSIONS", block)
            got = _scan(s, T)
        assert got.dtype == want.dtype and np.array_equal(got, want)


_BLOCK = 8


def _blocked_and_one_shot(monkeypatch, gamma, y, T):
    monkeypatch.setattr(cycles, "_SCAN_SESSIONS", _BLOCK)
    s = Sessions(gamma, y, np.ones(len(gamma)))
    got = _scan(s, T)
    want = one_shot_cycle_lengths(s, T)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("hi", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK + 1])
def test_blocked_scan_matches_one_shot_at_block_edges(monkeypatch, hi):
    # hi sessions arrive by T, then two after it; every other session
    # outlasts the next arrival, so onsets fall on both sides of each edge
    gamma = np.arange(1.0, hi + 3.0)
    y = np.where(np.arange(gamma.size) % 2 == 0, 1.5, 0.5)
    got = _blocked_and_one_shot(monkeypatch, gamma, y, T=float(hi) + 0.5)
    assert got.size == max(0, (hi - 1) // 2)


def test_blocked_scan_onset_on_a_block_first_arrival(monkeypatch):
    # arrivals at 1, 2, ...: the first session departs at 8.5, so the
    # first arrival of block 2, at 9, is the next onset; a long session of
    # block 2 departs at 19 and is carried past its edge, so block 3's
    # first arrival, at 17, starts no cycle, and 20 is the next onset
    gamma = np.arange(1.0, 4 * _BLOCK + 1.0)
    y = np.full(gamma.size, 0.5)
    y[0] = _BLOCK - 0.5
    y[_BLOCK + 2] = _BLOCK
    got = _blocked_and_one_shot(monkeypatch, gamma, y, T=4.0 * _BLOCK)
    onsets = 1.0 + np.concatenate([[0.0], np.cumsum(got)])
    assert onsets[1] == _BLOCK + 1
    assert 2 * _BLOCK + 1 not in onsets and 2 * _BLOCK + 4 in onsets


def test_blocked_scan_carries_arrivals_before_zero_across_edges(monkeypatch):
    # the 12 arrivals at or before 0 fill block 1 and part of block 2;
    # one of block 1's departs at 3.25, so the arrivals at 1, 2 and 3 in
    # block 2 start no cycle, and the onsets run from 4 to 23
    gamma = np.concatenate([np.linspace(-6.0, 0.0, 12), np.arange(1.0, 3 * _BLOCK)])
    y = np.full(gamma.size, 0.5)
    y[3] = 3.25 - gamma[3]
    got = _blocked_and_one_shot(monkeypatch, gamma, y, T=3.0 * _BLOCK)
    assert got.size == 3 * _BLOCK - 5 and np.all(got == 1.0)


def test_session_route_hand_cases():
    # onsets 0.5, 2.0 and 3.0 (at T): cycles [0.5, 2.0) and [2.0, 3.0)
    s = Sessions([0.5, 1.0, 2.0, 3.0], [1.0, 0.5, 0.5, 1.0], [1.0, 0.0, 1.0, 1.0])
    assert np.array_equal(_scan(s, 3.0), [1.5, 1.0])
    # the arrival at 0 starts no cycle; the one at 1.0 ties a departure
    s = Sessions([0.0, 1.0, 2.5, 4.0], [1.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(_scan(s, 4.0), [1.5])


@pytest.mark.parametrize("lam, rates", [(0.5, (0.0, 1.0)), (2.0, (0.0, 1.0)), (1.0, None)])
def test_session_route_equals_path_route_simulated(lam, rates):
    kind, params = ("constant", (1.0,)) if rates is None else ("uniform", rates)
    law_ = JointLaw(TailDist.pareto(1.5, 1.0), kind, params)
    for sub in range(3):
        cfg = TrafficConfig(
            lam=lam, law=law_, horizon=2e4, stationary_init=False,
            rng=RngStream(7).substream(sub),
        )
        s = simulate_sessions(cfg)
        got = _scan(s, 2e4)
        assert got.size > 10 and np.array_equal(got, _path_cycle_lengths(s, 2e4))


def test_session_route_rejects_unsorted_arrivals_and_bad_T():
    s = Sessions([1.0, 0.5], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="sorted"):
        _scan(s, 4.0)
    # the unsorted pair lies past T, where no duration is read
    with pytest.raises(ValueError, match="sorted"):
        fresh_start_cycle_lengths([0.5, 5.0, 4.5], _reader(np.ones(3)), 2.0)
    with pytest.raises(ValueError):
        _scan(Sessions([0.5], [1.0], [1.0]), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_session_route_rejects_arrivals_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="session arrival times must be finite"):
        fresh_start_cycle_lengths([0.5, 1.0, bad], _reader(np.ones(3)), 2.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("at", [0, 5, 9])
def test_session_route_checks_each_block_of_durations(monkeypatch, bad, at):
    # blocks of 4: the bad duration lies in the first, second or third
    monkeypatch.setattr(cycles, "_SCAN_SESSIONS", 4)
    y = np.ones(10)
    y[at] = bad
    with pytest.raises(ValueError, match="session durations must be positive and finite"):
        fresh_start_cycle_lengths(np.arange(1.0, 11.0), _reader(y), 20.0)


def test_session_route_reads_consecutive_blocks_up_to_T(monkeypatch):
    monkeypatch.setattr(cycles, "_SCAN_SESSIONS", 4)
    blocks = []

    def reader(a, b):
        blocks.append((a, b))
        return np.full(b - a, 0.5)

    got = fresh_start_cycle_lengths(np.arange(1.0, 12.0), reader, 9.5)
    assert blocks == [(0, 4), (4, 8), (8, 9)]
    assert np.array_equal(got, np.ones(8))


def _one_shot_bank(lam, law_, n_target, rng):
    """collect_cycle_lengths from whole simulated sessions: each chunk's
    cycles by the one-shot scan of tests/oracles.py."""
    h = _chunk_horizon(lam, law_, n_target)
    out, chunk = [], 0
    while sum(x.size for x in out) < n_target:
        cfg = TrafficConfig(lam=lam, law=law_, horizon=h, stationary_init=False,
                            rng=rng.substream(chunk))
        out.append(one_shot_cycle_lengths(simulate_sessions(cfg), h))
        chunk += 1
    return np.concatenate(out)[:n_target]


@pytest.mark.parametrize("kind, params", [
    ("constant", (1.0,)), ("uniform", (0.1, 1.0)), ("exponential", (1.0,)),
])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_collect_cycle_lengths_equals_one_shot_sessions(kind, params, lam):
    # durations drawn a block at a time as the scan reads them are the
    # one-shot column of simulate_sessions, bit for bit, at any block size;
    # 400 cycles take a second chunk at lam 0.5 and 2, where a lighter
    # tail keeps the load, and so the chunks, small
    law_ = JointLaw(TailDist.pareto(2.5 if lam == 2.0 else 1.5, 1.0), kind, params)
    want = _one_shot_bank(lam, law_, 400, RngStream(11))
    for block in (cycles._SCAN_SESSIONS, 4, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "_SCAN_SESSIONS", block)
            got = collect_cycle_lengths(lam, law_, 400, RngStream(11))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_collect_cycle_lengths_draws_no_rates(monkeypatch):
    def no_rates(*a, **k):
        raise AssertionError("a fresh chunk drew rates")

    monkeypatch.setattr(JointLaw, "sample_rates", no_rates)
    law_ = JointLaw(TailDist.pareto(1.5, 1.0), "uniform", (0.1, 1.0))
    assert collect_cycle_lengths(1.0, law_, 500, RngStream(3)).size == 500


def test_collect_cycle_lengths_builds_no_path(monkeypatch):
    def no_path(*a, **k):
        raise AssertionError("collect_cycle_lengths built a path")

    monkeypatch.setattr(cycles, "build_path", no_path)
    monkeypatch.setattr(cycles, "decompose_cycles", no_path)
    lengths = collect_cycle_lengths(1.0, law(), 500, RngStream(3))
    assert lengths.size == 500


def test_collect_cycle_lengths_peak_memory(monkeypatch):
    # the cycle-bank benchmark's load and target: two fresh-start chunks of
    # about 1e6 sessions, each holding its arrivals (8 MB) and one scan
    # block, whatever the rates; holding every duration, and the rates
    # unless constant, it peaked at 18.5 MB, and 26.5 MB at uniform rates
    arrival_bytes = []

    def arrivals(*a):
        gamma = fresh_arrivals(*a)
        arrival_bytes.append(gamma.nbytes)
        return gamma

    monkeypatch.setattr(cycles, "fresh_arrivals", arrivals)
    for rates in [("constant", (1.0,)), ("uniform", (0.1, 1.0))]:
        law_ = JointLaw(TailDist.pareto(1.5, 1.0), *rates)
        collect_cycle_lengths(1.0, law_, 10, RngStream(2))  # first-call allocations are not the bank's
        arrival_bytes.clear()
        tracemalloc.start()
        try:
            lengths = collect_cycle_lengths(1.0, law_, 60_000, RngStream(1, stream_id=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lengths.size == 60_000 and len(arrival_bytes) == 2
        assert peak < max(arrival_bytes) + 2.5e6, rates


class TestTailTable:
    def test_cells_and_constant(self):
        lengths = collect_cycle_lengths(1.0, law(), 20_000, RngStream(4))
        cells = cycle_tail_table(
            lengths, TailDist.pareto(1.5), 1.0, 3.0, x_grid=[1.0, 2.0], t_grid=[100.0]
        )
        assert len(cells) == 2
        c1, c2 = cells
        assert c1.theoretical == pytest.approx(math.exp(3.0))
        assert c2.theoretical == pytest.approx(math.exp(3.0) * 2.0 ** -1.5)
        # 20k cycles at t=100: still in the right ballpark
        assert c1.empirical == pytest.approx(c1.theoretical, rel=0.35)

    def test_reliability_flag(self):
        cells = cycle_tail_table(
            np.ones(100), TailDist.pareto(1.5), 1.0, 3.0, [1.0], [50.0]
        )
        assert cells[0].n_exceed == 0
        assert not cells[0].reliable

    def test_validation(self):
        with pytest.raises(ValueError):
            cycle_tail_table(np.empty(0), TailDist.pareto(1.5), 1.0, 3.0, [1.0], [10.0])
        with pytest.raises(ValueError):
            cycle_tail_table(np.ones(5), TailDist.pareto(1.5), 1.0, 3.0, [-1.0], [10.0])


class TestHill:
    def test_exact_pareto(self):
        y = TailDist.pareto(1.5).sample(100_000, RngStream(5).generator())
        est, se = hill_alpha(y, 1000)
        assert est == pytest.approx(1.5, abs=4 * se + 0.05)

    def test_other_index(self):
        y = TailDist.pareto(2.5).sample(100_000, RngStream(6).generator())
        est, _ = hill_alpha(y, 2000)
        assert est == pytest.approx(2.5, rel=0.1)

    def test_k_validation(self):
        y = np.arange(1.0, 11.0)
        with pytest.raises(ValueError):
            hill_alpha(y, 0)
        with pytest.raises(ValueError):
            hill_alpha(y, 10)

    def test_degenerate_sample(self):
        with pytest.raises(ValueError):
            hill_alpha(np.ones(100), 10)
