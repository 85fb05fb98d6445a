"""Session simulation, path construction, and stationary initialization."""

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
    make_functional,
    simulate_sessions,
    stationary_window_draws,
    traffic,
)
from stableshot.functionals import functional_steps
from stableshot.traffic import fresh_arrivals

from oracles import eval_count, eval_level, fresh_sessions, integrate_phi, segments


def law(alpha=1.5, xm=1.0, w0=1.0):
    return JointLaw(TailDist.pareto(alpha, xm), "constant", (w0,))


def hand_path(t1=2.0):
    # one session: arrives 0.5, lasts 1.0, rate 2
    s = Sessions([0.5], [1.0], [2.0])
    return build_path(s, 0.0, t1)


class TestBuildPath:
    def test_level_conventions(self):
        p = hand_path()
        # cadlag: level jumps up AT the arrival, drops AT the departure
        assert eval_level(p, 0.4) == 0.0
        assert eval_level(p, 0.5) == 2.0
        assert eval_level(p, 1.4) == 2.0
        assert eval_level(p, 1.5) == 0.0
        assert eval_count(p, 0.5) == 1
        assert eval_count(p, 1.5) == 0

    def test_vector_eval(self):
        p = hand_path()
        got = eval_level(p, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
        assert np.allclose(got, [0.0, 2.0, 2.0, 0.0, 0.0])

    def test_coincident_arrivals_merge(self):
        s = Sessions([0.5, 0.5], [1.0, 2.0], [1.0, 3.0])
        p = build_path(s, 0.0, 3.0)
        assert eval_level(p, 0.5) == 4.0
        # merged event list: one arrival timestamp, two departures
        assert len(p.times) == 3

    def test_coincident_arrivals_and_departures_merge(self):
        # 0.5: two arrivals; 1.0: a departure and an arrival; 1.5: two
        # arrivals; 2.0: three departures and an arrival
        s = Sessions(
            [0.5, 0.5, 1.0, 1.5, 1.5, 2.0],
            [0.5, 1.5, 1.0, 0.5, 0.25, 0.5],
            [1.0, 2.0, 4.0, 0.5, 0.25, 3.0],
        )
        p = build_path(s, 0.0, 3.0)
        assert np.array_equal(p.times, [0.5, 1.0, 1.5, 1.75, 2.0, 2.5])
        assert np.array_equal(np.diff(p.level_steps), [3.0, 3.0, 0.75, -0.25, -3.5, -3.0])
        assert np.array_equal(np.diff(p.count_steps), [2, 0, 2, -1, -2, -1])
        assert np.array_equal(p.level_steps[1:], [3.0, 6.0, 6.75, 6.5, 3.0, 0.0])
        assert np.array_equal(p.count_steps[1:], [2, 2, 4, 3, 1, 0])
        assert_paths_bit_identical(p, reference_build_path(s, 0.0, 3.0))

    def test_tied_rates_add_in_session_order(self):
        # 300 sessions arrive at 1, 2 and 3 in turn and leave 4 later, with
        # rates whose float sums depend on their order: each merged event
        # adds its 100 rates in session order, which a stable sort of the
        # interleaved keys keeps and an unstable one does not
        w = np.random.default_rng(12).uniform(0.1, 1.0, 300)
        assert np.add.reduce(w[::3]) != np.add.reduce(w[::-3])
        s = Sessions(1.0 + np.arange(300) % 3, np.full(300, 4.0), w)
        p = build_path(s, 0.0, 8.0)
        assert np.array_equal(p.times, [1.0, 2.0, 3.0, 5.0, 6.0, 7.0])
        assert p.level_steps[1] == np.add.reduce(w[::3])
        assert_paths_bit_identical(p, reference_build_path(s, 0.0, 8.0))

    def test_merge_matches_unique_on_tied_grid(self):
        # arrivals and durations on a quarter grid, so many events tie
        gen = np.random.default_rng(11)
        n = 400
        s = Sessions(
            gen.integers(-8, 40, n) / 4.0,
            gen.integers(1, 12, n) / 4.0,
            gen.choice([0.5, 1.0, 2.0], n),
        )
        t0, t1 = 0.0, 9.0
        p = build_path(s, t0, t1)
        # reference merge: np.unique over the same stably sorted events
        dep = s.gamma + s.y
        arr = (s.gamma > t0) & (s.gamma <= t1)
        out = (dep > t0) & (dep <= t1) & (s.gamma <= t1)
        times = np.concatenate([s.gamma[arr], dep[out]])
        r_delta = np.concatenate([s.w[arr], -s.w[out]])
        c_delta = np.concatenate([np.ones(arr.sum(), np.int64), -np.ones(out.sum(), np.int64)])
        order = np.argsort(times, kind="stable")
        uniq, first = np.unique(times[order], return_index=True)
        assert len(uniq) < len(times)
        assert np.array_equal(p.times, uniq)
        # the rates are dyadic, so every running sum is exact
        assert np.array_equal(p.level_steps[1:], p.level_steps[0] + np.cumsum(np.add.reduceat(r_delta[order], first)))
        assert np.array_equal(p.count_steps[1:], p.count_steps[0] + np.cumsum(np.add.reduceat(c_delta[order], first)))
        assert_paths_bit_identical(p, reference_build_path(s, t0, t1))

    def test_path_without_events(self):
        # no sessions, and one that straddles the whole of [0, 2]
        for s, level in ((Sessions([], [], []), 0.0), (Sessions([-1.0], [5.0], [2.0]), 2.0)):
            p = build_path(s, 0.0, 2.0)
            assert len(p) == 0 and p.level_steps.size == 1 and p.count_steps.size == 1
            assert eval_level(p, 1.0) == level and eval_count(p, 2.0) == int(level > 0)
            bounds, levels, counts = segments(p)
            assert np.array_equal(bounds, [0.0, 2.0])
            assert np.array_equal(levels, [level]) and np.array_equal(counts, [int(level > 0)])

    def test_straddler_clipped_into_init(self):
        s = Sessions([-0.5], [1.0], [2.0])
        p = build_path(s, 0.0, 2.0)
        assert p.level_steps[0] == 2.0
        assert p.count_steps[0] == 1
        assert eval_level(p, 0.0) == 2.0
        assert eval_level(p, 0.5) == 0.0  # departs at -0.5 + 1.0

    def test_session_past_horizon_ignored_tail(self):
        s = Sessions([1.0], [100.0], [1.0])
        p = build_path(s, 0.0, 2.0)
        assert eval_level(p, 1.5) == 1.0
        assert eval_level(p, 2.0) == 1.0

    def test_counts_nonnegative_and_integer(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=200.0, rng=RngStream(3))
        p = build_path(simulate_sessions(cfg), 0.0, 200.0)
        assert p.count_steps.dtype.kind == "i"
        assert p.count_steps.min() >= 0

    def test_level_count_consistency_unit_rates(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=100.0, rng=RngStream(4))
        p = build_path(simulate_sessions(cfg), 0.0, 100.0)
        assert np.array_equal(p.level_steps, p.count_steps)

    def test_segments_partition(self):
        p = hand_path()
        bounds, levels, counts = segments(p, 0.0, 2.0)
        assert bounds[0] == 0.0 and bounds[-1] == 2.0
        assert np.all(np.diff(bounds) > 0)
        assert len(levels) == len(bounds) - 1 == len(counts)


def reference_build_path(sessions, t0, t1):
    # build_path before it dropped the live gathers, the ±1 arrays and the
    # unconditional run starts, and before it sorted packed event keys; the
    # path must stay bit-identical to it.  With one common rate and t0 >= 0
    # the levels are w0 * count (a float running sum of a non-dyadic w0
    # differs from that in the last bits); otherwise they are running sums
    # of the rate deltas, zeroed where the count is 0
    gamma, y, w = sessions.gamma, sessions.y, sessions.w
    dep = gamma + y
    live = dep > t0
    gamma, dep, w = gamma[live], dep[live], w[live]
    at_init = gamma <= t0
    init_level = float(w[at_init].sum())
    init_count = int(at_init.sum())
    arr_mask = (gamma > t0) & (gamma <= t1)
    dep_mask = (dep > t0) & (dep <= t1) & (gamma <= t1)
    times = np.concatenate([gamma[arr_mask], dep[dep_mask]])
    r_delta = np.concatenate([w[arr_mask], -w[dep_mask]])
    c_delta = np.concatenate(
        [np.ones(arr_mask.sum(), np.int64), -np.ones(dep_mask.sum(), np.int64)]
    )
    order = np.argsort(times, kind="stable")
    times, r_delta, c_delta = times[order], r_delta[order], c_delta[order]
    if len(times):
        start_idx = np.flatnonzero(np.r_[True, times[1:] != times[:-1]])
        if len(start_idx) != len(times):
            r_delta = np.add.reduceat(r_delta, start_idx)
            c_delta = np.add.reduceat(c_delta, start_idx)
            times = times[start_idx]
    count_steps = np.concatenate([[init_count], init_count + np.cumsum(c_delta)])
    rates = np.unique(sessions.w)
    if len(rates) == 1 and t0 >= 0:
        level_steps = rates[0] * count_steps
    else:
        level_steps = np.concatenate([[init_level], init_level + np.cumsum(r_delta)])
        level_steps[count_steps == 0] = 0.0
    return traffic.ShotNoisePath(t0, t1, times, level_steps, count_steps)


def _bits(a):
    a = np.asarray(a)
    return a.view(np.int64) if a.dtype == np.float64 else a


def assert_paths_bit_identical(p, q):
    for name in ("times", "level_steps", "count_steps"):
        a, b = getattr(p, name), getattr(q, name)
        assert a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b)), name
    for name in ("t0", "t1"):
        a, b = getattr(p, name), getattr(q, name)
        assert type(a) is type(b) and _bits(np.float64(a)) == _bits(np.float64(b)), name


# hand-made sessions in any order on a quarter grid, so that arrivals,
# departures, t0 and t1 tie; some straddle t0, some end past t1, some have
# rate 0 or a rate that leaves float residues
_any_session = st.tuples(
    st.integers(-12, 40).map(lambda k: k / 4),
    st.integers(1, 16).map(lambda k: k / 4),
    st.sampled_from([1.0, 0.0, 0.1, 0.7, 1.0 / 3.0, 2.5]),
)


class TestBuildPathMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        sessions=st.lists(_any_session, max_size=60),
        t0=st.sampled_from([0.0, 0.25, 1.0, 2.5]),
        span=st.sampled_from([0.25, 1.0, 3.0, 8.0]),
    )
    @example(sessions=[], t0=0.0, span=1.0)
    @example(sessions=[(1.0, 1.0, 1.0), (0.5, 0.5, 2.5), (1.0, 2.0, 0.0)], t0=0.25, span=3.0)
    def test_grid_sessions(self, sessions, t0, span):
        gamma, y, w = (np.array(c, dtype=float) for c in zip(*sessions)) if sessions else ([], [], [])
        s = Sessions(gamma, y, w)
        assert_paths_bit_identical(build_path(s, t0, t0 + span), reference_build_path(s, t0, t0 + span))

    @pytest.mark.parametrize("stationary", [True, False])
    @pytest.mark.parametrize("t0", [0.0, 37.5])
    def test_simulated_sessions(self, stationary, t0):
        cfg = TrafficConfig(
            lam=1.5, law=JointLaw(TailDist.pareto(1.5), "uniform", (0.0, 1.0)),
            horizon=2000.0, rng=RngStream(8),
        )
        s = simulate_sessions(cfg) if stationary else fresh_sessions(cfg)
        assert_paths_bit_identical(build_path(s, t0, 2000.0), reference_build_path(s, t0, 2000.0))


# sessions sharing one rate, on the quarter grid of _any_session
_grid_pair = st.tuples(
    st.integers(-12, 40).map(lambda k: k / 4),
    st.integers(1, 16).map(lambda k: k / 4),
)


class TestCountRoute:
    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(_grid_pair, min_size=1, max_size=60),
        w0=st.sampled_from([1.0, 0.1, 1.0 / 3.0, 0.7, 2.5, 0.0]),
        t0=st.sampled_from([0.0, 0.25, 2.5]),
        span=st.sampled_from([0.25, 1.0, 3.0, 8.0]),
    )
    @example(pairs=[(1.0, 1.0), (1.0, 0.5), (0.5, 0.5), (-1.0, 2.0)], w0=0.1, t0=0.0, span=3.0)
    def test_equal_rates_give_level_w0_times_count(self, pairs, w0, t0, span):
        gamma, y = (np.array(c) for c in zip(*pairs))
        s = Sessions(gamma, y, np.full(len(pairs), w0))
        assert s.common_rate == w0
        p = build_path(s, t0, t0 + span)
        assert np.array_equal(_bits(p.level_steps), _bits(w0 * p.count_steps))
        assert_paths_bit_identical(p, reference_build_path(s, t0, t0 + span))

    @pytest.mark.parametrize("w, t0", [([0.1, 0.7, 0.1, 0.1], 0.0), ([1.0, 2.0, 1.0, 1.0], 0.5)])
    def test_mixed_rates_keep_the_rate_sums(self, w, t0):
        # ties at 0.5 and 1.0, and one session straddles each t0
        s = Sessions([-2.0, -0.5, 1.0, 1.0], [2.5, 1.0, 0.5, 2.0], w)
        p = build_path(s, t0, 4.0)
        # the reference's levels here are the running sums of the rate deltas
        assert_paths_bit_identical(p, reference_build_path(s, t0, 4.0))
        assert len(p) < 2 * len(s)  # ties merged

    def test_common_rate(self):
        assert Sessions([0.0, 1.0], [1.0, 1.0], [0.5, 0.5]).common_rate == 0.5
        assert Sessions([0.0, 1.0], [1.0, 1.0], [0.5, 0.25]).common_rate is None
        assert Sessions([], [], []).common_rate is None


@pytest.mark.parametrize(
    "kind, params, arrays", [("constant", (1.0,), 1.0), ("uniform", (0.1, 1.0), 2.75)]
)
def test_build_path_releases_sessions_passed_inline(kind, params, arrays):
    # sessions passed inline die once their candidate events are drawn, so
    # at T = 1e4 (about 20k events) the build peaks 0.01 event-length
    # arrays above the finished path at unit rates, whose candidate keys
    # are sorted in place, whose deltas are written into the step array
    # and whose level is formed only when read, and 1.51 at uniform ones,
    # whose argsort indices and the sessions' rate column live until the
    # rates are gathered (2.33 with a second route that gathered the
    # events by masks); holding the sessions through the sort and the
    # cumsum gave 2.43 and 3.64
    T = 1e4
    cfg = TrafficConfig(lam=1.0, law=JointLaw(TailDist.pareto(1.5, 1.0), kind, params),
                        horizon=T, rng=RngStream(0, stream_id=0))
    build_path(simulate_sessions(cfg), 0.0, T)  # first-call allocations are not the build's
    tracemalloc.start()
    try:
        box = [simulate_sessions(cfg)]
        tracemalloc.reset_peak()
        path = build_path(box.pop(), 0.0, T)  # box.pop() leaves the callee the only reference
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    path_bytes = path.times.nbytes + path.level_steps.nbytes + path.count_steps.nbytes
    assert peak < path_bytes + arrays * path.times.nbytes


class TestShotNoisePathChecks:
    # one event at 1.0 on [0, 2]: one step before it and one after
    def test_a_valid_path(self):
        p = traffic.ShotNoisePath(0.0, 2.0, [1.0], [0.0, 1.5], [0, 1])
        assert np.array_equal(p.level_steps, [0.0, 1.5]) and np.array_equal(p.count_steps, [0, 1])

    @pytest.mark.parametrize("times", [[0.0], [-0.5], [2.5]])
    def test_times_outside_the_span(self, times):
        with pytest.raises(ValueError, match=r"lie in \(t0, t1\]"):
            traffic.ShotNoisePath(0.0, 2.0, times, [0.0, 1.0], [0, 1])

    def test_an_unmerged_repeated_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            traffic.ShotNoisePath(0.0, 2.0, [1.0, 1.0], [0.0, 1.0, 2.0], [0, 1, 2])

    @pytest.mark.parametrize("count_steps", [[-1, 0], [1, -1]])
    def test_a_negative_count(self, count_steps):
        with pytest.raises(ValueError, match="count went negative"):
            traffic.ShotNoisePath(0.0, 2.0, [1.0], [0.0, 0.0], count_steps)

    @pytest.mark.parametrize(
        "level_steps, count_steps",
        [([1.0], [0, 1]), ([0.0, 1.0], [1]), ([0.0, 1.0, 1.0], [0, 1]), ([0.0, 1.0], [0, 1, 1])],
    )
    def test_step_arrays_of_the_wrong_length(self, level_steps, count_steps):
        with pytest.raises(ValueError, match=r"len\(times\) \+ 1 = 2 entries"):
            traffic.ShotNoisePath(0.0, 2.0, [1.0], level_steps, count_steps)

    def test_needs_t0_before_t1(self):
        with pytest.raises(ValueError, match="t0 < t1"):
            traffic.ShotNoisePath(1.0, 1.0, [], [0.0], [0])

    # equal rates sort their keys in place, mixed ones argsort them; both
    # end in the constructor's range check
    @pytest.mark.parametrize("w", [[0.5, 0.5, 0.5], [0.5, 1.0, 0.5]])
    @pytest.mark.parametrize("t0, t1", [(1.0, 1.0), (2.0, 1.0)])
    def test_build_path_needs_t0_before_t1(self, w, t0, t1):
        s = Sessions([-3.0, 0.5, 1.5], [5.0, 1.0, 1.0], w)
        with pytest.raises(ValueError, match="t0 < t1"):
            build_path(s, t0, t1)

    # a time below 0 has the sign bit set, so its bit pattern would not
    # sort as an unsigned integer among the candidate keys: build_path
    # rejects t0 < 0 (and NaN) before it reads a session, whatever the rates
    @pytest.mark.parametrize("w", [[0.5, 0.5, 0.5], [0.5, 1.0, 0.5]])
    @pytest.mark.parametrize(
        "t0, t1",
        [(-1.0, 4.0), (-0.25, 4.0), (-5.0, 2000.0), (-1.0, -1.0), (-1.0, -2.0), (math.nan, 4.0)],
    )
    def test_build_path_rejects_t0_below_0(self, w, t0, t1):
        s = Sessions([-3.0, 0.5, 1.5], [5.0, 1.0, 1.0], w)
        with pytest.raises(ValueError, match=rf"needs t0 >= 0, got t0 = {t0!r}$"):
            build_path(s, t0, t1)


class TestSessionsValidation:
    def test_nan_in_each_column(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="arrival times"):
            Sessions([1.0, nan], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="durations"):
            Sessions([1.0, 2.0], [nan, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="rates"):
            Sessions([1.0, 2.0], [1.0, 1.0], [1.0, nan])

    def test_infinities_in_each_column(self):
        inf = float("inf")
        for gamma in (-inf, inf):
            with pytest.raises(ValueError, match="arrival times"):
                Sessions([1.0, gamma], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="durations"):
            Sessions([1.0, 2.0], [inf, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="rates"):
            Sessions([1.0, 2.0], [1.0, 1.0], [1.0, inf])

    def test_ranges_and_lengths(self):
        with pytest.raises(ValueError, match="durations"):
            Sessions([1.0], [0.0], [1.0])
        with pytest.raises(ValueError, match="rates"):
            Sessions([1.0], [1.0], [-0.5])
        with pytest.raises(ValueError, match="lengths"):
            Sessions([1.0, 2.0], [1.0], [1.0])
        assert len(Sessions([], [], [])) == 0
        assert len(Sessions([-3.0, 0.0], [1.0, 2.0], [0.0, 1.0])) == 2


class TestSimulate:
    def test_arrival_rate(self):
        cfg = TrafficConfig(lam=2.0, law=law(), horizon=5000.0, rng=RngStream(6))
        gamma = fresh_sessions(cfg).gamma
        n_inside = int(((gamma >= 0) & (gamma <= 5000.0)).sum())
        assert n_inside == pytest.approx(10_000, rel=0.05)

    def test_fresh_arrivals_are_sorted_uniform_draws(self):
        # written into out when given, with the bits of gen.uniform(0, horizon)
        gen, ref = RngStream(6).generator(), RngStream(6).generator()
        out = np.empty(1000)
        assert fresh_arrivals(1000, 50.0, gen, out) is out
        assert np.array_equal(_bits(out), _bits(np.sort(ref.uniform(0.0, 50.0, 1000))))
        fresh = fresh_arrivals(10, 50.0, gen)
        assert np.array_equal(_bits(fresh), _bits(np.sort(ref.uniform(0.0, 50.0, 10))))
        assert gen.random() == ref.random()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(lam=0.0, law=law(), horizon=1.0)
        with pytest.raises(ValueError):
            TrafficConfig(lam=1.0, law=law(), horizon=-1.0)
        with pytest.raises(ValueError):
            TrafficConfig(lam=1.0, law=law(alpha=0.9), horizon=1.0)

    def test_determinism(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=100.0, rng=RngStream(7))
        a = simulate_sessions(cfg)
        b = simulate_sessions(cfg)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.y, b.y)


class TestStationarity:
    def test_snapshot_occupancy_is_poisson(self):
        # occupancy at a fixed time under exact stationary init: Poisson(lam E Y)
        lam, nu = 0.3, 0.9
        cfg = TrafficConfig(lam=lam, law=law(), horizon=1.0, rng=RngStream(8))
        levels = stationary_window_draws(cfg, 30_000, RngStream(8))
        counts = np.rint(levels).astype(int)
        p0 = (counts == 0).mean()
        assert p0 == pytest.approx(math.exp(-nu), abs=0.012)
        assert counts.mean() == pytest.approx(nu, rel=0.05)

    def test_snapshot_mean_level_scales_with_rate(self):
        cfg = TrafficConfig(
            lam=1.0,
            law=JointLaw(TailDist.pareto(1.5), "constant", (2.0,)),
            horizon=1.0,
            rng=RngStream(9),
        )
        levels = stationary_window_draws(cfg, 20_000, RngStream(9))
        assert levels.mean() == pytest.approx(6.0, rel=0.05)  # lam E[Y] w0

    def test_window_draws_shape_and_sup(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=1.0, rng=RngStream(10))
        # the same stream gives the same windows, read at 0 and over [0, h]
        x0 = stationary_window_draws(cfg, 500, RngStream(10))
        sups = stationary_window_draws(cfg, 500, RngStream(10), 2.0)
        assert x0.shape == sups.shape == (500,)
        assert np.all(sups >= x0)

    @pytest.mark.parametrize(
        "lam, h, rates",
        [(1.0, 1.0, ("uniform", 0.1, 1.0)), (5.0, 3.0, ("uniform", 0.1, 1.0)),
         (0.3, 0.5, ("exponential", 0.7)), (2.0, 0.0, ("uniform", 0.1, 1.0)),
         (0.05, 1.0, ("uniform", 0.1, 1.0)), (20.0, 1.0, ("uniform", 0.1, 1.0))],
    )
    def test_window_sups_equal_per_draw_sweep(self, monkeypatch, lam, h, rates):
        # 20,000 draws span several blocks of draws, more with the budget
        # patched down; lam = 5 puts 8 or more sessions alive at 0 in most
        # draws, where numpy's pairwise sum would change the order of the
        # base sum; at lam = 0.05 most draws are empty, and lam = 20 makes
        # wide draws and narrow blocks
        cfg = TrafficConfig(
            lam=lam, law=JointLaw(TailDist.pareto(1.5), rates[0], rates[1:]),
            horizon=1.0, rng=RngStream(20),
        )
        n = 20_000
        want = _per_draw_sups(*_drawn_sessions(cfg, n, RngStream(21), h), n, h)
        assert np.array_equal(stationary_window_draws(cfg, n, RngStream(21), h), want)
        monkeypatch.setattr(traffic, "_BLOCK_CELLS", 1 << 9)
        assert np.array_equal(stationary_window_draws(cfg, n, RngStream(21), h), want)

    def test_window_draws_peak_memory(self):
        # the mc-kernels benchmark's law and window: about 4e5 sessions,
        # whose drawn columns (two counts per draw, three floats per
        # session) are all the draws hold beyond one block of draws
        cfg = TrafficConfig(
            lam=1.0, law=JointLaw(TailDist.pareto(1.5), "uniform", (0.1, 1.0)), horizon=1.0
        )
        n, h = 100_000, 1.0
        stationary_window_draws(cfg, 10, RngStream(0), h)  # numpy's lazy imports
        tracemalloc.start()
        try:
            sups = stationary_window_draws(cfg, n, RngStream(1), h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = 8 * (2 * n + 3 * n * cfg.lam * (cfg.law.mean_y + h))
        assert sups.shape == (n,) and peak < columns + 4e6

    def test_time_average_matches_ensemble(self):
        # ergodicity sanity: long-run time average of X equals lam E[Y] E[W]
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=20_000.0, rng=RngStream(11))
        p = build_path(simulate_sessions(cfg), 0.0, 20_000.0)
        bounds, levels, _ = segments(p)
        avg = float(np.dot(levels, np.diff(bounds))) / 20_000.0
        # heavy-tailed sessions make this average converge at rate T^(-1/3),
        # so the band is wide even at T = 2e4
        assert avg == pytest.approx(3.0, rel=0.25)


# one law of each rate kind, with the generator call that draws its rates
RATE_KINDS = {
    "constant": ((2.5,), lambda n, gen: np.full(n, 2.5)),
    "uniform": ((0.1, 1.0), lambda n, gen: gen.uniform(0.1, 1.0, n)),
    "exponential": ((0.7,), lambda n, gen: gen.exponential(0.7, n)),
}


class TestRateModels:
    def test_named_rate_uniform(self):
        j = JointLaw(TailDist.pareto(1.5), "uniform", (1.0, 3.0))
        x = j.sample_rates(10_000, RngStream(12).generator())
        assert x.min() >= 1.0 and x.max() <= 3.0

    def test_named_rate_exponential(self):
        j = JointLaw(TailDist.pareto(1.5), "exponential", (2.0,))
        x = j.sample_rates(50_000, RngStream(13).generator())
        assert x.mean() == pytest.approx(2.0, rel=0.05)

    def test_named_rate_unknown(self):
        with pytest.raises(ValueError, match="w_kind 'cauchy'"):
            JointLaw(TailDist.pareto(1.5), "cauchy", (1.0,))

    @pytest.mark.parametrize(
        "params",
        [("uniform", 1.0, 0.1), ("uniform", 0.5, 0.5), ("uniform", -0.1, 1.0),
         ("uniform", 0.0, math.inf), ("exponential", 0.0), ("exponential", -1.0),
         ("exponential", math.nan), ("constant", 0.0), ("constant", math.inf),
         ("constant", math.nan)],
    )
    def test_named_rate_rejects_bad_params(self, params):
        with pytest.raises(ValueError, match=f"w_params of w_kind '{params[0]}' must satisfy"):
            JointLaw(TailDist.pareto(1.5), params[0], params[1:])

    def test_limit_rate_law(self):
        # W is independent of Y, so its draws are also G's
        j = JointLaw(TailDist.pareto(1.5), "constant", (2.5,))
        assert j.common_rate == 2.5
        assert np.all(j.sample_rates(5, RngStream(0).generator()) == 2.5)
        assert JointLaw(TailDist.pareto(1.5), "uniform", (0.1, 1.0)).common_rate is None

    @pytest.mark.parametrize("kind", RATE_KINDS)
    def test_draws_are_the_pareto_draw_then_one_rate_call(self, kind):
        params, rates = RATE_KINDS[kind]
        j = JointLaw(TailDist.pareto(1.5), kind, params)
        for pairs, durations in (
            (j.sample_pairs, j.y_dist.sample),
            (j.sample_size_biased_pairs, j.y_dist.sample_size_biased),
        ):
            gen, ref = RngStream(14).generator(), RngStream(14).generator()
            y, w = pairs(1000, gen)
            assert np.array_equal(y, durations(1000, ref))
            assert np.array_equal(w, rates(1000, ref))
            assert gen.random() == ref.random()  # and the generators end level

    @pytest.mark.parametrize("kind", RATE_KINDS)
    def test_common_rate_agrees_with_the_sessions(self, kind):
        j = JointLaw(TailDist.pareto(1.5), kind, RATE_KINDS[kind][0])
        cfg = TrafficConfig(lam=1.0, law=j, horizon=200.0, rng=RngStream(15))
        assert simulate_sessions(cfg).common_rate == j.common_rate


@pytest.mark.parametrize("kind", RATE_KINDS)
def test_sessions_and_paths_in_a_workspace_equal_new_ones(kind):
    # a long horizon, a short one, then the long one again: the buffers
    # are taken shorter than their last use and then about as long, so a
    # replicate that read what the last one left would differ
    ws = traffic.Workspace()
    j = JointLaw(TailDist.pareto(1.5), kind, RATE_KINDS[kind][0])
    for horizon, stream in ((2000.0, 40), (300.0, 41), (2000.0, 42)):
        cfg = TrafficConfig(lam=1.5, law=j, horizon=horizon, rng=RngStream(stream))
        got, want = simulate_sessions(cfg, ws), simulate_sessions(cfg)
        for name in ("gamma", "y", "w"):
            assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name))), name
        assert got.common_rate == want.common_rate
        assert_paths_bit_identical(build_path(got, 0.0, horizon, ws), build_path(want, 0.0, horizon))


@pytest.mark.parametrize("kind", RATE_KINDS)
def test_a_second_build_into_a_workspace_shares_its_memory(kind):
    # every rate law's times and counts, and random rates' levels, are
    # workspace buffers (a constant law's level is formed when read)
    ws = traffic.Workspace()
    j = JointLaw(TailDist.pareto(1.5), kind, RATE_KINDS[kind][0])
    cfg = TrafficConfig(lam=1.0, law=j, horizon=1000.0, rng=RngStream(43))
    first = build_path(simulate_sessions(cfg, ws), 0.0, 1000.0, ws)
    times, counts = first.times.copy(), first.count_steps.copy()
    levels = first.level_steps.copy()
    second = build_path(simulate_sessions(cfg, ws), 0.0, 1000.0, ws)
    assert np.shares_memory(second.times, first.times)
    assert np.shares_memory(second.count_steps, first.count_steps)
    assert np.shares_memory(second.level_steps, first.level_steps) == (j.common_rate is None)
    assert np.array_equal(second.times, times) and np.array_equal(second.count_steps, counts)
    assert np.array_equal(_bits(second.level_steps), _bits(levels))


def _law_path(kind, t0=0.0, ws=None):
    """A simulated path of the RATE_KINDS law ``kind`` on [t0, 1000]."""
    j = JointLaw(TailDist.pareto(1.5), kind, RATE_KINDS[kind][0])
    cfg = TrafficConfig(lam=1.0, law=j, horizon=1000.0, rng=RngStream(44))
    return build_path(simulate_sessions(cfg, ws), t0, 1000.0, ws)


@pytest.mark.parametrize("kind", RATE_KINDS)
class TestOccupation:
    @pytest.mark.parametrize("t0", [0.0, 50.0])
    def test_integrates_every_h0_functional(self, kind, t0):
        p = _law_path(kind, t0)
        # an event time, a time between events, and the end of the path
        for T in (float(p.times[len(p) // 2]), 777.7, p.t1):
            levels, lengths = p.occupation(T)
            assert lengths.sum() == pytest.approx(T - t0, rel=1e-12, abs=0)
            for spec in ("identity", "idle", "cdf:1", "clipped:0.5"):
                phi = make_functional(spec)
                want = integrate_phi(p, phi, t0, T)
                assert float(np.sum(phi(levels) * lengths)) == pytest.approx(want, rel=1e-12)

    def test_arrays_are_read_only(self, kind):
        p = _law_path(kind)
        levels, lengths = p.occupation(500.0)
        assert not levels.flags.writeable and not lengths.flags.writeable
        # the path's own level stays writeable
        assert p.level_steps.flags.writeable

    @pytest.mark.parametrize("T", [0.0, -1.0, 1000.5, math.inf, math.nan])
    def test_T_outside_the_path_raises(self, kind, T):
        with pytest.raises(ValueError, match="occupation needs t0 < T <= t1"):
            _law_path(kind).occupation(T)

    def test_a_second_call_into_a_workspace_shares_its_memory(self, kind):
        # random rates hand back the workspace's segment lengths; a
        # common rate sums them by count into a new array of K + 1 entries
        ws = traffic.Workspace()
        p = _law_path(kind, ws=ws)
        first = p.occupation(600.0, ws)
        copies = [a.copy() for a in first]
        second = p.occupation(600.0, ws)
        assert np.shares_memory(second[1], first[1]) == (p.common_rate is None)
        for got, want, new in zip(second, copies, p.occupation(600.0)):
            assert np.array_equal(_bits(got), _bits(want))
            assert np.array_equal(_bits(got), _bits(new))

    def test_common_rate(self, kind):
        j = JointLaw(TailDist.pareto(1.5), kind, RATE_KINDS[kind][0])
        assert _law_path(kind).common_rate == j.common_rate

    def test_reading_the_level_first_changes_no_byte(self, kind):
        fresh, read = _law_path(kind), _law_path(kind)
        read.level_steps
        for a, b in zip(fresh.occupation(700.0), read.occupation(700.0)):
            assert np.array_equal(_bits(a), _bits(b))


def test_occupation_of_hand_paths():
    # rate 2 on [0.5, 1.5) over [0, 3]: at a common rate the time at each
    # count, at mixed rates each segment's in time order
    levels, lengths = hand_path(3.0).occupation(3.0)
    assert levels.tolist() == [0.0, 2.0] and lengths.tolist() == [2.0, 1.0]
    p = build_path(Sessions([0.5, 1.0], [1.0, 1.5], [2.0, 0.5]), 0.0, 3.0)
    assert p.common_rate is None
    levels, lengths = p.occupation(2.0)
    assert levels.tolist() == [0.0, 2.0, 2.5, 0.5] and lengths.tolist() == [0.5, 0.5, 0.5, 0.5]
    assert traffic.ShotNoisePath(0.0, 2.0, [1.0], [0.0, 1.5], [0, 1]).common_rate is None


class TestConstantRatesAreOneBroadcast:
    def test_sample_rates_is_a_read_only_broadcast(self):
        w = law(w0=2.5).sample_rates(1000, RngStream(0).generator())
        assert w.shape == (1000,) and w.strides == (0,) and not w.flags.writeable
        assert np.all(w == 2.5)

    @pytest.mark.parametrize("stationary", [True, False])
    def test_simulated_sessions_share_one_broadcast(self, stationary):
        cfg = TrafficConfig(lam=1.0, law=law(w0=0.7), horizon=500.0, rng=RngStream(30))
        s = simulate_sessions(cfg) if stationary else fresh_sessions(cfg)
        assert s.w.strides == (0,) and not s.w.flags.writeable
        assert len(s.w) == len(s) and s.common_rate == 0.7

    # t0 = 37.5 moves the stationary sessions' candidates and the early
    # ones to t0
    @pytest.mark.parametrize("t0", [0.0, 37.5])
    def test_paths_equal_those_of_full_rate_arrays(self, t0):
        cfg = TrafficConfig(lam=1.5, law=law(w0=1.0 / 3.0), horizon=2000.0, rng=RngStream(31))
        s = simulate_sessions(cfg)
        full = Sessions(s.gamma, s.y, np.full(len(s), s.common_rate))
        assert_paths_bit_identical(build_path(s, t0, 2000.0), build_path(full, t0, 2000.0))

    @pytest.mark.parametrize("h", [0.0, 2.0])
    def test_window_draws_equal_those_of_full_rate_arrays(self, monkeypatch, h):
        cfg = TrafficConfig(lam=2.0, law=law(w0=0.7), horizon=1.0, rng=RngStream(32))
        got = stationary_window_draws(cfg, 5000, RngStream(33), h)
        broadcast = JointLaw.sample_rates
        monkeypatch.setattr(
            JointLaw, "sample_rates", lambda self, n, gen: np.array(broadcast(self, n, gen))
        )
        assert got.tobytes() == stationary_window_draws(cfg, 5000, RngStream(33), h).tobytes()


def _window_sup(gamma, end, w, h):
    # per-draw reference: sup over [0, h] of one draw's step superposition,
    # its base the live rates added one at a time in session order
    base = 0.0
    for rate in w[(gamma <= 0.0) & (end > 0.0)]:
        base += rate
    t_ev = np.concatenate([gamma, end])
    d_ev = np.concatenate([w, -w])
    inside = (t_ev > 0.0) & (t_ev <= h)
    t_ev, d_ev = t_ev[inside], d_ev[inside]
    levels = base + np.cumsum(d_ev[np.argsort(t_ev, kind="stable")])
    return float(max(base, levels.max(initial=base)))


def _drawn_sessions(config, n, rng, h):
    # (owner, gamma, end, w) of the sessions of n stationary windows, drawn
    # by the same generator calls as stationary_window_draws and held in
    # one set of columns: the sessions alive at 0, then (h > 0 only) the
    # fresh arrivals in [0, h); owner is each session's draw index
    gen = rng.generator()
    law = config.law
    n_init = gen.poisson(config.lam * law.mean_y, n)
    y0, w0 = law.sample_size_biased_pairs(int(n_init.sum()), gen)
    g0 = -gen.uniform(size=y0.size) * y0
    owner, gamma, dur, w = np.repeat(np.arange(n), n_init), g0, y0, w0
    if h > 0:
        n_fresh = gen.poisson(config.lam * h, n)
        yf, wf = law.sample_pairs(int(n_fresh.sum()), gen)
        gf = gen.uniform(0.0, h, yf.size)
        owner = np.concatenate([owner, np.repeat(np.arange(n), n_fresh)])
        gamma, dur, w = np.concatenate([g0, gf]), np.concatenate([y0, yf]), np.concatenate([w0, wf])
    return owner, gamma, gamma + dur, w


def _per_draw_sups(owner, gamma, end, w, n, h):
    order = np.argsort(owner, kind="stable")  # each draw's sessions in index order
    gamma, end, w = gamma[order], end[order], w[order]
    bounds = np.searchsorted(owner[order], np.arange(n + 1))
    return np.array(
        [_window_sup(gamma[a:b], end[a:b], w[a:b], h) for a, b in zip(bounds[:-1], bounds[1:])]
    )


# times on a coarse grid so that arrivals, departures and 0 or h tie
_grid_time = st.integers(-8, 8).map(lambda k: k / 4)
_session = st.tuples(
    st.integers(0, 5),  # owner
    _grid_time,
    st.integers(1, 12).map(lambda k: k / 4),  # duration
    st.sampled_from([0.1, 0.7, 1.0 / 3.0, 2.5, 1e-3, 0.0]),
)


@settings(max_examples=200, deadline=None)
@given(
    sessions=st.lists(_session, max_size=60),
    n_init=st.integers(0, 80),
    extra_live=st.integers(0, 20),
    h=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    block_cells=st.integers(1, 200),
)
@example(sessions=[], n_init=0, extra_live=0, h=1.0, block_cells=1)
@example(sessions=[], n_init=0, extra_live=9, h=1.0, block_cells=3)
# an arrival at the instant 20 sessions depart: a sweep adds the arrival
# first, so the level peaks there; sorting the row unstably loses the peak
@example(
    sessions=[(0, -0.25, 0.75, 0.7)] * 20 + [(0, 0.5, 1.0, 1.0)],
    n_init=20, extra_live=0, h=1.0, block_cells=200,
)
# the same tie in a row that also holds other times: numpy's default sort
# keeps an all-equal row in order, but reorders the ties of this one
@example(
    sessions=[(0, -0.25, 1.25, 0.7)] * 20
    + [(0, 1.0, 2.0, 1.0), (0, 0.25, 0.25, 0.1), (0, 1.5, 0.25, 0.1)],
    n_init=20, extra_live=0, h=2.0, block_cells=200,
)
def test_window_sups_bit_identical(sessions, n_init, extra_live, h, block_cells):
    # the first n_init sessions are the init kind, the rest fresh; extra_live
    # adds sessions alive at 0 to draw 6 (8 or more, where a pairwise sum
    # would change the order); draw 7 never has a session
    n = 8
    sessions = sessions + [(6, -0.5 - 0.25 * i, 2.0 + 0.5 * i, 0.1 + 0.3 * i) for i in range(extra_live)]
    if sessions:
        owner, gamma, dur, w = (np.array(c) for c in zip(*sessions))
        owner = owner.astype(np.int64)
        gamma, dur, w = gamma.astype(float), dur.astype(float), w.astype(float)
    else:
        owner = np.empty(0, np.int64)
        gamma = dur = w = np.empty(0)
    end = gamma + dur
    # each kind's columns grouped by draw, each draw's in list order
    kinds = []
    for part in (slice(None, n_init), slice(n_init, None)):
        by_draw = np.argsort(owner[part], kind="stable")
        counts = np.bincount(owner[part], minlength=n)
        kinds.append((counts, *(c[part][by_draw] for c in (gamma, end, w))))
    with pytest.MonkeyPatch.context() as mp:
        # a small cell budget puts boundaries of blocks of draws between
        # most draws
        mp.setattr(traffic, "_BLOCK_CELLS", block_cells)
        got = traffic._sups_by_block(*kinds, h)
    want = _per_draw_sups(owner, gamma, end, w, n, h)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestLevelMatchesCount:
    def test_idle_time_equals_count_zero_time(self):
        # non-integer rates leave float residues in the running sum while
        # no session is active; the level must still read exactly 0 there
        cfg = TrafficConfig(
            lam=1.0, law=JointLaw(TailDist.pareto(1.5), "uniform", (0.1, 1.0)),
            horizon=2e4, rng=RngStream(1),
        )
        p = build_path(simulate_sessions(cfg), 0.0, 2e4)
        bounds, levels, counts = segments(p, 0.0, 2e4)
        idle = (counts == 0).astype(float)
        assert np.array_equal(levels == 0.0, counts == 0)
        assert np.array_equal(functional_steps(p, make_functional("idle"), 0.0, 2e4)[1], idle)
        assert integrate_phi(p, make_functional("idle"), 0.0, 2e4) == float(np.dot(idle, np.diff(bounds)))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 10.0), st.floats(0.01, 5.0),
                st.sampled_from([0.1, 0.2, 0.7, 1.0 / 3.0, 0.3]),
            ),
            min_size=1, max_size=30,
        )
    )
    def test_level_is_zero_exactly_when_idle(self, sessions):
        gamma, y, w = (np.array(c, dtype=float) for c in zip(*sessions))
        p = build_path(Sessions(gamma, y, w), 0.0, 20.0)
        assert np.array_equal(p.level_steps == 0.0, p.count_steps == 0)
