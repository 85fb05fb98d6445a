"""Duration laws, tail quantiles, the scale constant, and the stable sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshot import (
    RngStream,
    StableParams,
    TailDist,
    c_alpha,
    sample_stable,
    tail_quantile_a,
)

from oracles import ecf_distance, stable_cf


class TestTailDist:
    def test_pareto_sf_values(self):
        d = TailDist.pareto(1.5, 1.0)
        assert d.sf(1.0) == 1.0
        assert d.sf(0.5) == 1.0  # below the scale, survival saturates
        assert d.sf(2.0) == pytest.approx(2.0 ** -1.5)

    def test_pareto_mean(self):
        assert TailDist.pareto(1.5, 1.0).mean_y == pytest.approx(3.0)
        assert TailDist.pareto(2.0, 3.0).mean_y == pytest.approx(6.0)
        with pytest.raises(ValueError):
            TailDist.pareto(0.9).mean_y

    @given(
        alpha=st.floats(1.05, 1.95),
        xm=st.floats(0.1, 10),
        p=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_sf_ppf_roundtrip(self, alpha, xm, p):
        d = TailDist.pareto(alpha, xm)
        y = d.ppf_sf(p)
        assert float(d.sf(y)) == pytest.approx(p, rel=1e-9)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            TailDist.pareto(-1.0)
        with pytest.raises(ValueError):
            TailDist.pareto(1.5, xm=0.0)

    def test_sample_is_supported_above_xm(self):
        d = TailDist.pareto(1.5, 2.0)
        y = d.sample(1000, RngStream(1).generator())
        assert np.all(y >= 2.0)

    def test_size_biased_pareto_is_pareto_shifted_index(self):
        # duration-weighted Pareto(alpha) has tail index alpha - 1
        d = TailDist.pareto(2.5, 1.0)
        y = d.sample_size_biased(200_000, RngStream(2).generator())
        # compare empirical sf at a few points against (y/xm)^-(alpha-1)
        for q in (1.5, 2.0, 4.0):
            emp = (y > q).mean()
            assert emp == pytest.approx(q ** -1.5, rel=0.05)

    # 1.5, 2 and 3 give the size-biased exponents -2, -1 and -0.5
    @pytest.mark.parametrize("alpha, xm", [(1.5, 1.0), (2.0, 0.3), (3.0, 2.5), (1.7, 7.0)])
    def test_draws_are_ppf_sf_of_the_uniforms_bit_for_bit(self, alpha, xm):
        d = TailDist.pareto(alpha, xm)
        gen, ref = RngStream(3).generator(), RngStream(3).generator()
        assert d.sample(5000, gen).tobytes() == d.ppf_sf(ref.uniform(size=5000)).tobytes()
        # the size-biased law is the Pareto law of index alpha - 1
        biased = TailDist.pareto(alpha - 1.0, xm).ppf_sf(ref.uniform(size=5000))
        assert d.sample_size_biased(5000, gen).tobytes() == biased.tobytes()

    def test_size_biased_rejects_index_at_most_1_before_drawing(self):
        gen = RngStream(4).generator()
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="size-biased pareto needs tail index > 1"):
            TailDist.pareto(1.0).sample_size_biased(10, gen)
        assert gen.bit_generator.state == state


class TestTailQuantile:
    def test_pareto_closed_form(self):
        d = TailDist.pareto(1.5, 1.0)
        assert tail_quantile_a(d, 1000.0) == pytest.approx(1000.0 ** (2 / 3))
        assert tail_quantile_a(d, 1000.0) == pytest.approx(100.0)
        # a(uT) = u^(1/alpha) a(T): the self-similarity check compares rungs
        for u in (0.25, 0.1, 0.5):
            assert tail_quantile_a(d, u * 1e4) == pytest.approx(
                u ** (1 / 1.5) * tail_quantile_a(d, 1e4), rel=1e-14
            )

    def test_scale_passthrough(self):
        d = TailDist.pareto(2.0, 5.0)
        assert tail_quantile_a(d, 100.0) == pytest.approx(50.0)

    def test_requires_t_above_one(self):
        d = TailDist.pareto(1.5)
        with pytest.raises(ValueError):
            tail_quantile_a(d, 1.0)
        with pytest.raises(ValueError):
            tail_quantile_a(d, 0.5)

    @given(st.floats(1.01, 1e6), st.floats(1.01, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing(self, t1, t2):
        d = TailDist.pareto(1.3)
        lo, hi = sorted([t1, t2])
        assert tail_quantile_a(d, lo) <= tail_quantile_a(d, hi) + 1e-12


class TestScaleConstant:
    def test_value_at_three_halves(self):
        # Gamma(-1/2) = -2 sqrt(pi), cos(3 pi/4) = -sqrt(2)/2
        assert c_alpha(1.5) == pytest.approx(math.sqrt(2 * math.pi))

    def test_limit_toward_one(self):
        # the 0 * inf product tends to pi/2 as the index decreases to 1
        assert c_alpha(1.0 + 1e-8) == pytest.approx(math.pi / 2, rel=1e-6)

    def test_diverges_toward_two(self):
        assert c_alpha(1.999) > c_alpha(1.9) > c_alpha(1.5)
        assert c_alpha(1.9999) > 1e3

    def test_domain(self):
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                c_alpha(bad)

    @given(st.floats(1.01, 1.99))
    @settings(max_examples=50, deadline=None)
    def test_positive(self, alpha):
        assert c_alpha(alpha) > 0


class TestStable:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            StableParams(alpha=2.5, sigma=1.0)
        with pytest.raises(ValueError):
            StableParams(alpha=1.5, sigma=-1.0)
        with pytest.raises(ValueError):
            StableParams(alpha=1.5, sigma=1.0, beta=1.5)

    def test_alpha_one_not_supported(self):
        with pytest.raises(NotImplementedError):
            sample_stable(StableParams(1.0, 1.0), 10, RngStream(0))

    def test_cf_basics(self):
        p = StableParams(1.5, 1.0, 0.5, 0.3)
        assert stable_cf(p, 0.0) == pytest.approx(1.0)
        t = np.linspace(-5, 5, 101)
        assert np.all(np.abs(stable_cf(p, t)) <= 1.0 + 1e-12)
        # conjugate symmetry of any CF
        assert np.allclose(stable_cf(p, -t), np.conj(stable_cf(p, t)))

    def test_sampler_matches_cf(self):
        t = np.linspace(-5, 5, 21)
        for alpha, beta in [(1.2, -1.0), (1.5, 1.0), (1.8, 0.0)]:
            p = StableParams(alpha, 1.0, beta, 0.0)
            x = sample_stable(
                p, 10_000, RngStream(5).substream(int(alpha * 10), int(beta) + 1)
            )
            assert ecf_distance(x, p, t) < 0.03

    def test_scale_and_shift(self):
        base = StableParams(1.5, 1.0, 1.0, 0.0)
        moved = StableParams(1.5, 2.0, 1.0, 3.0)
        x = sample_stable(base, 5000, RngStream(7))
        y = sample_stable(moved, 5000, RngStream(7))
        assert np.allclose(y, 2.0 * x + 3.0)

    def test_totally_skewed_right_is_mostly_positive(self):
        p = StableParams(1.5, 1.0, 1.0, 0.0)
        x = sample_stable(p, 20_000, RngStream(8))
        # beta = +1 with alpha > 1: heavy tail on the right, thin on the left
        assert np.quantile(x, 0.999) > -np.quantile(x, 0.001)
        assert x.mean() == pytest.approx(0.0, abs=0.25)

    def test_determinism(self):
        p = StableParams(1.5, 1.0, 0.0, 0.0)
        a = sample_stable(p, 100, RngStream(9))
        b = sample_stable(p, 100, RngStream(9))
        assert np.array_equal(a, b)
