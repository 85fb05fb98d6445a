"""Window functionals, exact integration, and the response curve."""

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
    cdf_indicator,
    clipped,
    cycle_integrals,
    decompose_cycles,
    empirical_cdf,
    empirical_path,
    estimate_calE,
    identity,
    idle_indicator,
    integrate_phi,
    simulate_sessions,
    window_sup_indicator,
)
from stableshot.functionals import WindowFunctional, functional_steps


def law():
    return JointLaw(TailDist.pareto(1.5, 1.0), ConstantRate(1.0))


def hand_path(t1=3.0):
    # rate 2 on [0.5, 2), extra rate 3 on [1, 1.5):
    # level 0 on [0,.5), 2 on [.5,1), 5 on [1,1.5), 2 on [1.5,2), 0 after
    s = Sessions([0.5, 1.0], [1.5, 0.5], [2.0, 3.0])
    return build_path(s, 0.0, t1)


class TestBuiltins:
    def test_identity(self):
        phi = identity()
        assert phi(np.array([[3.5]])) == pytest.approx(3.5)

    def test_clipped(self):
        phi = clipped(1.0)
        got = phi(np.array([[0.0], [0.5], [2.0]]))
        assert np.allclose(got, [0.0, 0.5, 1.0])

    def test_cdf_indicator(self):
        phi = cdf_indicator(1.0)
        got = phi(np.array([[0.5], [1.0], [1.5]]))
        assert np.allclose(got, [1.0, 1.0, 0.0])

    def test_idle(self):
        phi = idle_indicator()
        got = phi(np.array([[0.0], [0.1]]))
        assert np.allclose(got, [1.0, 0.0])

    def test_window_sup(self):
        phi = window_sup_indicator(2.0, 1.0)
        vals = np.array([[1.0], [1.0]])
        sups = np.array([1.5, 3.0])
        assert np.allclose(phi(vals, sups), [1.0, 0.0])

    def test_offsets_validation(self):
        with pytest.raises(ValueError):
            WindowFunctional(
                name="bad", h=1.0, kind="pointwise", offsets=(0.0, 2.0),
                fn=lambda v: v[..., 0], sup_norm=1.0,
            )
        with pytest.raises(ValueError):
            WindowFunctional(
                name="bad", h=1.0, kind="nope", offsets=(0.0,),
                fn=lambda v: v[..., 0], sup_norm=1.0,
            )


class TestIntegration:
    def test_identity_exact_area(self):
        p = hand_path()
        # 0*.5 + 2*.5 + 5*.5 + 2*.5 = 4.5
        assert integrate_phi(p, identity(), 0.0, 3.0) == pytest.approx(4.5)

    def test_clipped_exact_area(self):
        p = hand_path()
        # min(level, 1): 0*.5 + 1*1.5 = 1.5 over [0,3]
        assert integrate_phi(p, clipped(1.0), 0.0, 3.0) == pytest.approx(1.5)

    def test_idle_time(self):
        p = hand_path()
        # idle on [0,.5) and [2,3): total 1.5
        assert integrate_phi(p, idle_indicator(), 0.0, 3.0) == pytest.approx(1.5)

    def test_subinterval(self):
        p = hand_path()
        assert integrate_phi(p, identity(), 1.0, 2.0) == pytest.approx(3.5)

    def test_steps_partition(self):
        p = hand_path()
        bounds, vals = functional_steps(p, identity(), 0.0, 3.0)
        assert bounds[0] == 0.0 and bounds[-1] == 3.0
        assert np.all(np.diff(bounds) > 0)
        assert len(vals) == len(bounds) - 1

    def test_requires_window_coverage(self):
        p = hand_path(t1=3.0)
        phi = window_sup_indicator(1.0, h=1.0)
        with pytest.raises(ValueError):
            functional_steps(p, phi, 0.0, 3.0)  # needs data to 3 + h

    def test_window_sup_vs_bruteforce(self):
        cfg = TrafficConfig(
            lam=1.0, law=law(), horizon=52.0, stationary_init=False, rng=RngStream(1)
        )
        p = build_path(simulate_sessions(cfg), 0.0, 52.0)
        phi = window_sup_indicator(1.0, h=2.0)
        bounds, vals = functional_steps(p, phi, 0.0, 50.0)
        mids = 0.5 * (bounds[:-1] + bounds[1:])
        for m, v in zip(mids[::7], vals[::7]):
            grid = np.linspace(m, m + 2.0, 1001)
            brute = float(p.eval_level(grid).max() <= 1.0)
            assert v == brute


class TestCycleIntegrals:
    def test_sum_matches_direct_integral(self):
        cfg = TrafficConfig(
            lam=1.0, law=law(), horizon=2000.0, stationary_init=False, rng=RngStream(2)
        )
        p = build_path(simulate_sessions(cfg), 0.0, 2000.0)
        dec = decompose_cycles(p, 2000.0)
        assert dec.m_T > 10
        z = cycle_integrals(p, dec, clipped(1.0))
        direct = integrate_phi(p, clipped(1.0), dec.s0, float(dec.s_end[-1]))
        assert z.sum() == pytest.approx(direct, rel=1e-9)

    def test_renewal_identity(self):
        # mean per-cycle integral = E(0, phi) * mean cycle length
        cfg = TrafficConfig(
            lam=1.0, law=law(), horizon=200_000.0, stationary_init=False,
            rng=RngStream(3),
        )
        p = build_path(simulate_sessions(cfg), 0.0, 200_000.0)
        dec = decompose_cycles(p, 200_000.0)
        for phi, e0 in [
            (idle_indicator(), math.exp(-3.0)),
            (clipped(1.0), 1.0 - math.exp(-3.0)),
        ]:
            z = cycle_integrals(p, dec, phi)
            lhs = z.mean()
            rhs = e0 * dec.lengths.mean()
            se = z.std(ddof=1) / math.sqrt(z.size) + e0 * dec.lengths.std(
                ddof=1
            ) / math.sqrt(z.size)
            assert abs(lhs - rhs) <= 5 * se


class TestEmpiricalPath:
    def test_starts_at_zero_and_matches_integral(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=1000.0, rng=RngStream(4))
        p = build_path(simulate_sessions(cfg), 0.0, 1000.0)
        ep = empirical_path(p, identity(), TailDist.pareto(1.5), 1000.0, centering=3.0)
        assert ep(0.0) == 0.0
        want = (integrate_phi(p, identity(), 0.0, 1000.0) - 3.0 * 1000.0) / ep.a_T
        assert ep(1.0) == pytest.approx(want)
        assert ep.a_T == pytest.approx(100.0)


class TestEmpiricalCdf:
    def test_hand_path(self):
        p = hand_path()
        # levels 0 (1.5 time units), 2 (1.0), 5 (.5) over [0,3]
        got = empirical_cdf(p, 3.0, [0.0, 2.0, 4.0, 5.0])
        assert np.allclose(got, [1.5 / 3, 2.5 / 3, 2.5 / 3, 1.0])

    def test_monotone_in_x(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=500.0, rng=RngStream(6))
        p = build_path(simulate_sessions(cfg), 0.0, 500.0)
        vals = empirical_cdf(p, 500.0, np.arange(0.0, 10.0))
        assert np.all(np.diff(vals) >= 0)
        assert 0 <= vals[0] <= vals[-1] <= 1


class TestResponse:
    def test_idle_probability(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=1.0, rng=RngStream(7))
        est, se = estimate_calE(0.0, idle_indicator(), cfg, 40_000, RngStream(7))
        assert est == pytest.approx(math.exp(-3.0), abs=4 * se + 1e-3)

    def test_shift_by_w_kills_idle(self):
        cfg = TrafficConfig(lam=1.0, law=law(), horizon=1.0, rng=RngStream(8))
        est, _ = estimate_calE(0.5, idle_indicator(), cfg, 2000, RngStream(8))
        assert est == 0.0
