"""Window functionals, exact integration, and the response curve."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshot import (
    JointLaw,
    RngStream,
    Sessions,
    TailDist,
    TrafficConfig,
    build_path,
    decompose_cycles,
    empirical_cdf,
    harness,
    simulate_sessions,
)
from stableshot._backend import kernels
from stableshot.functionals import WindowFunctional, functional_steps, le_time
from stableshot.harness import Scenario, make_functional, response_curve

from oracles import cycle_integrals, eval_level, fresh_sessions, integrate_phi


def law():
    return JointLaw(TailDist.pareto(1.5, 1.0), "constant", (1.0,))


def hand_path(t1=3.0):
    # rate 2 on [0.5, 2), extra rate 3 on [1, 1.5):
    # level 0 on [0,.5), 2 on [.5,1), 5 on [1,1.5), 2 on [1.5,2), 0 after
    s = Sessions([0.5, 1.0], [1.5, 0.5], [2.0, 3.0])
    return build_path(s, 0.0, t1)


class TestBuiltins:
    def test_identity(self):
        phi = make_functional("identity")
        assert phi(np.array([3.5])) == pytest.approx(3.5)

    def test_clipped(self):
        phi = make_functional("clipped:1.0")
        got = phi(np.array([0.0, 0.5, 2.0]))
        assert np.allclose(got, [0.0, 0.5, 1.0])

    def test_cdf_indicator(self):
        phi = make_functional("cdf:1.0")
        got = phi(np.array([0.5, 1.0, 1.5]))
        assert np.allclose(got, [1.0, 1.0, 0.0])

    def test_idle(self):
        phi = make_functional("idle")
        got = phi(np.array([0.0, 0.1]))
        assert np.allclose(got, [1.0, 0.0])

    def test_window_sup(self):
        phi = make_functional("winsup:2.0", 1.0)
        sups = np.array([1.5, 3.0])
        assert np.allclose(phi(sups), [1.0, 0.0])

    def test_equal_specs_build_equal_functionals(self):
        assert make_functional("cdf:1") == make_functional("cdf:1.0")
        assert hash(make_functional("cdf:1")) == hash(make_functional("cdf:1.0"))
        # same form, but the names seed different Monte Carlo curves
        assert make_functional("idle").form == make_functional("cdf:0").form
        assert make_functional("idle") != make_functional("cdf:0")
        for spec in ("identity", "idle", "clipped:2", "cdf:1.5", "winsup:3"):
            phi = make_functional(spec, 1.0)
            assert pickle.loads(pickle.dumps(phi)) == phi
        with pytest.raises(ValueError, match="form"):
            WindowFunctional(name="bad", h=1.0, form=("max", 1.0))
        # only the indicator reads a window
        for form in (("min", 1.0), ("id", None)):
            with pytest.raises(ValueError, match="needs h = 0"):
                WindowFunctional(name="bad", h=1.0, form=form)
            assert WindowFunctional(name="flat", h=0.0, form=form).h == 0.0


class TestIntegration:
    def test_identity_exact_area(self):
        p = hand_path()
        # 0*.5 + 2*.5 + 5*.5 + 2*.5 = 4.5
        assert integrate_phi(p, make_functional("identity"), 0.0, 3.0) == pytest.approx(4.5)

    def test_clipped_exact_area(self):
        p = hand_path()
        # min(level, 1): 0*.5 + 1*1.5 = 1.5 over [0,3]
        assert integrate_phi(p, make_functional("clipped:1.0"), 0.0, 3.0) == pytest.approx(1.5)

    def test_idle_time(self):
        p = hand_path()
        # idle on [0,.5) and [2,3): total 1.5
        assert integrate_phi(p, make_functional("idle"), 0.0, 3.0) == pytest.approx(1.5)

    def test_subinterval(self):
        p = hand_path()
        assert integrate_phi(p, make_functional("identity"), 1.0, 2.0) == pytest.approx(3.5)

    def test_steps_partition(self):
        p = hand_path()
        bounds, vals = functional_steps(p, make_functional("identity"), 0.0, 3.0)
        assert bounds[0] == 0.0 and bounds[-1] == 3.0
        assert np.all(np.diff(bounds) > 0)
        assert len(vals) == len(bounds) - 1

    def test_requires_window_coverage(self):
        p = hand_path(t1=3.0)
        phi = make_functional("winsup:1.0", 1.0)
        with pytest.raises(ValueError):
            functional_steps(p, phi, 0.0, 3.0)  # needs data to 3 + h

    def test_window_sup_vs_bruteforce(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=52.0, rng=RngStream(1))
        p = build_path(fresh_sessions(cfg), 0.0, 52.0)
        phi = make_functional("winsup:1.0", 2.0)
        bounds, vals = functional_steps(p, phi, 0.0, 50.0)
        mids = 0.5 * (bounds[:-1] + bounds[1:])
        for m, v in zip(mids[::7], vals[::7]):
            grid = np.linspace(m, m + 2.0, 1001)
            brute = float(eval_level(p, grid).max() <= 1.0)
            assert v == brute


def midpoint_steps(path, phi, t0, t1):
    """Reference step decomposition: the breakpoints are np.unique of every
    event time, and for the window sup every event time shifted by -h,
    inside (t0, t1), and each segment reads the level at its midpoint, or
    its range max over [mid, mid + h]."""
    cands = [path.times]
    if phi.h > 0:
        cands.append(path.times - phi.h)
    cand = np.concatenate(cands)
    cand = cand[(cand > t0) & (cand < t1)]
    bounds = np.concatenate([[t0], np.unique(cand), [t1]])
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    if phi.h == 0:
        return bounds, np.asarray(phi(eval_level(path, mids)), dtype=float)
    seg_bounds, seg_levels, _ = path.segments()
    lo = np.searchsorted(seg_bounds, mids, side="right") - 1
    hi = np.searchsorted(seg_bounds, mids + phi.h, side="right") - 1
    hi = np.minimum(hi, len(seg_levels) - 1)
    sups = kernels.sliding_range_max(seg_levels, lo, hi)
    return bounds, np.asarray(phi(sups), dtype=float)


GRID = 0.25  # event times and window lengths on a dyadic grid: no rounding


@st.composite
def grid_cases(draw):
    """(path, phi, t0, t1) with every event time on GRID, so times and
    times - h tie often, and events can sit exactly at t0 and t1."""
    t1 = GRID * draw(st.integers(1, 40))
    t0 = GRID * draw(st.integers(0, int(t1 / GRID) - 1))
    n = draw(st.integers(0, 25))
    start = st.integers(-8, int(t1 / GRID) + 6)
    starts = draw(st.lists(start, min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(1, 24), min_size=n, max_size=n))
    rates = draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0, 3.0]), min_size=n, max_size=n))
    sessions = Sessions(GRID * np.array(starts, float), GRID * np.array(lengths, float), rates)
    path = build_path(sessions, 0.0, t1 + 1.25)
    phi = draw(
        st.one_of(
            st.sampled_from(["identity", "idle"]).map(make_functional),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.1]).map(lambda x: make_functional(f"cdf:{x!r}")),
            st.sampled_from([0.5, 1.0, 2.5]).map(lambda b: make_functional(f"clipped:{b!r}")),
            st.builds(
                lambda b, h: make_functional(f"winsup:{b!r}", h),
                st.sampled_from([0.0, 1.0, 2.0, 3.5]),
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25]),
            ),
        )
    )
    return path, phi, t0, t1


def assert_same_steps(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


class TestStepsMatchMidpointReference:
    @settings(max_examples=400, deadline=None)
    @given(case=grid_cases())
    def test_grid_paths_bit_identical(self, case):
        path, phi, t0, t1 = case
        assert_same_steps(functional_steps(path, phi, t0, t1), midpoint_steps(path, phi, t0, t1))

    @pytest.mark.parametrize(
        "phi", [make_functional("identity"), make_functional("clipped:1.0"), make_functional("winsup:1.0", 1.0)],
        ids=lambda phi: phi.name,
    )
    def test_path_without_events(self, phi):
        for sessions in (Sessions([], [], []), Sessions([-3.0], [10.0], [2.0])):
            path = build_path(sessions, 0.0, 4.0)
            assert len(path) == 0
            got = functional_steps(path, phi, 0.5, 2.5)
            assert_same_steps(got, midpoint_steps(path, phi, 0.5, 2.5))
            assert got[0].tolist() == [0.5, 2.5] and len(got[1]) == 1

    @pytest.mark.parametrize(
        "phi", [make_functional("winsup:0.5", 0.15), make_functional("winsup:1.5", 1.0)]
    )
    def test_event_at_path_end_reached_by_rounding(self, phi):
        # fl(t1 + h) == path.t1 passes the coverage check, but fl(path.t1 - h)
        # < t1, so the last segment's window reaches the event at path.t1
        path = build_path(Sessions([0.5], [0.5], [1.0]), 0.0, 1.0)
        assert path.times[-1] == path.t1
        t1 = np.nextafter(path.t1 - phi.h, 1.0)
        assert t1 + phi.h == path.t1 and path.t1 - phi.h < t1
        assert_same_steps(functional_steps(path, phi, 0.0, t1), midpoint_steps(path, phi, 0.0, t1))

    @pytest.mark.parametrize("seed", range(6))
    def test_simulated_paths_bit_identical(self, seed):
        # continuous event times: shifted times tie nowhere
        rates = JointLaw(TailDist.pareto(1.5, 1.0), "uniform", (0.1, 1.0))
        cfg = TrafficConfig(lam=1.0, law=rates, horizon=402.0, rng=RngStream(seed))
        path = build_path(simulate_sessions(cfg), 0.0, 402.0)
        for phi in (make_functional("identity"), make_functional("idle"), make_functional("clipped:0.7"), make_functional("cdf:1.5"),
                    make_functional("winsup:2.0", 2.0)):
            assert_same_steps(
                functional_steps(path, phi, 1.0, 400.0), midpoint_steps(path, phi, 1.0, 400.0)
            )

    def test_fn_writing_in_place_raises(self):
        # identity's steps are a copy of the path's levels: a write into
        # them leaves the path alone, and a write into segments() raises
        p = hand_path()
        before = p.level_steps.copy()
        _, vals = functional_steps(p, make_functional("identity"), 0.0, 3.0)
        vals += 1.0
        assert np.array_equal(p.level_steps, before)
        assert integrate_phi(p, make_functional("identity"), 0.0, 3.0) == 4.5
        # the views are read-only, the path's own arrays are not
        _, levels, counts = p.segments()
        with pytest.raises(ValueError, match="read-only"):
            levels += 1.0
        assert not levels.flags.writeable and not counts.flags.writeable
        assert p.level_steps.flags.writeable and p.count_steps.flags.writeable


def assert_same_float(got, want):
    assert float(got).hex() == float(want).hex()


class TestLeTimeMatchesStepIntegral:
    """``le_time`` against the integral of the reference steps: bit for bit
    where every length and sum is exact, to rounding elsewhere."""

    @settings(max_examples=400, deadline=None)
    @given(case=grid_cases())
    def test_grid_paths_bit_identical(self, case):
        path, phi, t0, t1 = case
        if phi.form[0] != "le":
            with pytest.raises(ValueError, match="indicator"):
                le_time(path, phi, t0, t1)
            return
        assert_same_float(le_time(path, phi, t0, t1), integrate_phi(path, phi, t0, t1))

    @pytest.mark.parametrize(
        "phi", [make_functional("winsup:0.5", 0.15), make_functional("winsup:1.5", 1.0)]
    )
    def test_event_at_path_end_reached_by_rounding(self, phi):
        # the inputs of the steps' test of that name: the last gap's window
        # reaches the event at path.t1
        path = build_path(Sessions([0.5], [0.5], [1.0]), 0.0, 1.0)
        t1 = np.nextafter(path.t1 - phi.h, 1.0)
        assert_same_float(le_time(path, phi, 0.0, t1), integrate_phi(path, phi, 0.0, t1))

    @pytest.mark.parametrize(
        "phi", [make_functional("idle"), make_functional("cdf:1.0"), make_functional("winsup:1.0", 1.0)],
        ids=lambda phi: phi.name,
    )
    def test_path_without_events(self, phi):
        # no session (idle throughout) and one across the path (level 2 throughout)
        for sessions in (Sessions([], [], []), Sessions([-3.0], [10.0], [2.0])):
            path = build_path(sessions, 0.0, 4.0)
            assert len(path) == 0
            got = le_time(path, phi, 0.5, 2.5)
            assert got in (0.0, 2.0)
            assert_same_float(got, integrate_phi(path, phi, 0.5, 2.5))

    @pytest.mark.parametrize("seed", range(4))
    def test_simulated_paths_agree_to_rounding(self, seed):
        rates = JointLaw(TailDist.pareto(1.5, 1.0), "uniform", (0.1, 1.0))
        cfg = TrafficConfig(lam=1.0, law=rates, horizon=4002.0, rng=RngStream(seed))
        path = build_path(simulate_sessions(cfg), 0.0, 4002.0)
        for phi in (make_functional("idle"), make_functional("cdf:1.5"), make_functional("winsup:3.0", 1.0),
                    make_functional("winsup:2.0", 2.0)):
            want = integrate_phi(path, phi, 1.0, 4000.0)
            assert le_time(path, phi, 1.0, 4000.0) == pytest.approx(want, rel=1e-12, abs=0)

    def test_rejects_a_short_path(self):
        with pytest.raises(ValueError, match="cover"):
            le_time(hand_path(t1=3.0), make_functional("winsup:1.0", 1.0), 0.0, 3.0)


H0_FUNCTIONALS = (make_functional("identity"), make_functional("idle"), make_functional("clipped:1.0"), make_functional("cdf:2.0"))


def assert_steps_are_segments(path, t0, t1):
    # at h = 0 the merge of times and times - h gives the path's own
    # segments, and one-entry windows read their levels
    bounds, levels, _ = path.segments(t0, t1)
    for phi in H0_FUNCTIONALS:
        assert_same_steps(functional_steps(path, phi, t0, t1), (bounds, phi(levels)))


@st.composite
def level_cases(draw, common_rate):
    """(path, t0, t1) with every event time and range end on GRID, so
    sessions tie and range ends sit on events.  With ``common_rate`` every
    session has one rate and build_path counts occupancy from t0 = 0;
    otherwise each session draws its own rate and the path starts at
    t0 = -1, so build_path sums rate steps."""
    start, end = (0, 40) if common_rate else (-4, 40)
    n = draw(st.integers(0, 25))
    starts = draw(st.lists(st.integers(start - 8, end + 2), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(1, 24), min_size=n, max_size=n))
    rate = st.sampled_from([0.1, 0.5, 1.0, 2.0, 3.0])
    rates = [draw(rate)] * n if common_rate else draw(st.lists(rate, min_size=n, max_size=n))
    sessions = Sessions(GRID * np.array(starts, float), GRID * np.array(lengths, float), rates)
    path = build_path(sessions, GRID * start, GRID * end)
    k0 = draw(st.integers(start, end - 1))
    k1 = draw(st.integers(k0 + 1, end))
    return path, GRID * k0, GRID * k1


class TestStepsAtZeroWindowAreSegments:
    @settings(max_examples=200, deadline=None)
    @given(case=level_cases(common_rate=True))
    def test_count_route_paths(self, case):
        assert_steps_are_segments(*case)

    @settings(max_examples=200, deadline=None)
    @given(case=level_cases(common_rate=False))
    def test_rate_sum_route_paths(self, case):
        assert_steps_are_segments(*case)

    def test_paths_without_events(self):
        for sessions in (Sessions([], [], []), Sessions([-3.0], [10.0], [2.0])):
            path = build_path(sessions, 0.0, 4.0)
            assert len(path) == 0
            for t0, t1 in ((0.0, 4.0), (0.5, 2.5)):
                assert_steps_are_segments(path, t0, t1)

    @pytest.mark.parametrize("rates", [("constant", (0.3,)), ("uniform", (0.1, 1.0))])
    def test_simulated_paths(self, rates):
        law = JointLaw(TailDist.pareto(1.5, 1.0), *rates)
        cfg = TrafficConfig(lam=1.0, law=law, horizon=3000.0, rng=RngStream(0))
        path = build_path(simulate_sessions(cfg), 0.0, 3000.0)
        for t0, t1 in ((0.0, 3000.0), (0.5, 2500.25), (100.0, 100.5)):
            assert_steps_are_segments(path, t0, t1)


class TestCycleIntegrals:
    def test_sum_matches_direct_integral(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=2000.0, rng=RngStream(2))
        p = build_path(fresh_sessions(cfg), 0.0, 2000.0)
        dec = decompose_cycles(p, 2000.0)
        assert dec.m_T > 10
        z = cycle_integrals(p, dec, make_functional("clipped:1.0"))
        direct = integrate_phi(p, make_functional("clipped:1.0"), dec.s0, float(dec.s_end[-1]))
        assert z.sum() == pytest.approx(direct, rel=1e-9)

    def test_renewal_identity(self):
        # mean per-cycle integral = E(0, phi) * mean cycle length
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=200_000.0, rng=RngStream(3))
        p = build_path(fresh_sessions(cfg), 0.0, 200_000.0)
        dec = decompose_cycles(p, 200_000.0)
        for phi, e0 in [
            (make_functional("idle"), math.exp(-3.0)),
            (make_functional("clipped:1.0"), 1.0 - math.exp(-3.0)),
        ]:
            z = cycle_integrals(p, dec, phi)
            lhs = z.mean()
            rhs = e0 * dec.lengths.mean()
            se = z.std(ddof=1) / math.sqrt(z.size) + e0 * dec.lengths.std(
                ddof=1
            ) / math.sqrt(z.size)
            assert abs(lhs - rhs) <= 5 * se


def sorted_levels_cdf(path, T, x_grid):
    """Reference CDF: cumulative segment lengths over the sorted levels."""
    bounds, levels, _ = path.segments(path.t0, T)
    order = np.argsort(levels, kind="stable")
    cum_time = np.concatenate([[0.0], np.cumsum(np.diff(bounds)[order])])
    idx = np.searchsorted(levels[order], np.asarray(x_grid, dtype=float), side="right")
    return cum_time[idx] / (T - path.t0)


class TestEmpiricalCdf:
    def test_hand_path(self):
        p = hand_path()
        # levels 0 (1.5 time units), 2 (1.0), 5 (.5) over [0,3]
        got = empirical_cdf(p, 3.0, [0.0, 2.0, 4.0, 5.0])
        assert np.allclose(got, [1.5 / 3, 2.5 / 3, 2.5 / 3, 1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sorted_levels_reference(self, seed):
        rates = JointLaw(TailDist.pareto(1.5, 1.0), "uniform", (0.1, 1.0))
        cfg = TrafficConfig(lam=1.0, law=rates, horizon=5000.0, rng=RngStream(seed))
        p = build_path(simulate_sessions(cfg), 0.0, 5000.0)
        x_grid = np.array([0.0, 0.05, 0.5, 1.0, 1.0, 1.7, 3.0, 6.0, 50.0])
        got = empirical_cdf(p, 4000.0, x_grid)
        np.testing.assert_allclose(got, sorted_levels_cdf(p, 4000.0, x_grid), rtol=1e-12, atol=0)

    def test_integer_levels_exact(self):
        # unit rates on a dyadic grid: levels are integers, every sum exact
        gen = np.random.default_rng(3)
        s = Sessions(
            0.25 * gen.integers(-40, 400, 300), 0.25 * gen.integers(1, 60, 300), np.ones(300)
        )
        p = build_path(s, 0.0, 100.0)
        x_grid = [-1.0, 0.0, 0.5, 1.0, 2.0, 2.0, 3.0, 7.0, 100.0]
        got = empirical_cdf(p, 96.0, x_grid)
        assert np.array_equal(got, sorted_levels_cdf(p, 96.0, x_grid))
        bounds, levels, _ = p.segments(0.0, 96.0)
        assert got[1] == np.diff(bounds)[levels == 0].sum() / 96.0
        assert got[0] == 0.0 and got[-1] == 1.0

    def test_monotone_in_x(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=500.0, rng=RngStream(6))
        p = build_path(simulate_sessions(cfg), 0.0, 500.0)
        vals = empirical_cdf(p, 500.0, np.arange(0.0, 10.0))
        assert np.all(np.diff(vals) >= 0)
        assert 0 <= vals[0] <= vals[-1] <= 1


class TestResponse:
    # rates in [0.1, 1] take the Monte Carlo route; the level is 0 exactly
    # when no session is alive, with probability exp(-lambda E[Y]) = exp(-3)
    sc = Scenario(lam=1.0, w_kind="uniform", w_params=(0.1, 1.0), seed=7)

    def test_idle_probability(self, monkeypatch):
        monkeypatch.setattr(harness, "MC_DRAWS", 40_000)
        _, est, se, method = response_curve(self.sc, make_functional("idle"))
        assert method == "monte_carlo"
        assert est == pytest.approx(math.exp(-3.0), abs=4 * se + 1e-3)

    def test_shift_by_w_kills_idle(self, monkeypatch):
        monkeypatch.setattr(harness, "MC_DRAWS", 2000)
        calE, *_ = response_curve(self.sc, make_functional("idle"))
        assert calE(0.5)[0] == 0.0
