"""Regenerative cycle decomposition and tail estimation."""

import math

import numpy as np
import pytest

from stableshot import (
    ConstantRate,
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
from stableshot.cycles import _CHUNK_SESSIONS, _chunk_horizon


def law():
    return JointLaw(TailDist.pareto(1.5, 1.0), ConstantRate(1.0))


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
    cfg = TrafficConfig(
        lam=1.0, law=law(), horizon=500.0, stationary_init=False, rng=RngStream(1)
    )
    p = build_path(simulate_sessions(cfg), 0.0, 500.0)
    a = decompose_cycles(p, 500.0)
    b = decompose_cycles(p, 500.0, use_level=True)
    assert np.allclose(a.s_start, b.s_start)
    assert np.allclose(a.s_end, b.s_end)


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
