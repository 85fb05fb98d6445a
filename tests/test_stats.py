"""Goodness-of-fit wrappers and the rate regression."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from stableshot import (
    GofReport,
    RngStream,
    StableParams,
    iqr,
    ks_two_sample,
    rate_regression,
    sample_stable,
)
from stableshot.stats import ks_threshold

from oracles import ecf_distance


class TestGofReport:
    def test_decision_rule(self):
        assert GofReport("a", 0.5, 0.5, 10).passed
        assert not GofReport("a", 0.50001, 0.5, 10).passed

    def test_validation(self):
        with pytest.raises(ValueError):
            GofReport("a", -0.1, 0.5, 10)

    def test_line_format(self):
        line = GofReport("myname", 0.1, 0.2, 5, detail="d").line()
        assert line.startswith("PASS myname:")
        assert "d" in line


class TestKs:
    def test_identical_samples(self):
        x = np.arange(100.0)
        rep = ks_two_sample(x, x, "same")
        assert rep.stat == 0.0
        assert rep.passed

    def test_threshold_constant(self):
        # c(0.01) = sqrt(-ln(0.005)/2) = 1.628
        assert ks_threshold(1) == pytest.approx(1.628, abs=1e-3)

    def test_null_calibration(self):
        # same stable law, independent seeds: should pass nearly always
        p = StableParams(1.5, 1.0, 1.0, 0.0)
        passes = 0
        for trial in range(25):
            a = sample_stable(p, 2000, RngStream(100 + trial, 0))
            b = sample_stable(p, 2000, RngStream(100 + trial, 1))
            passes += ks_two_sample(a, b, "null").passed
        assert passes >= 23

    def test_skewness_separation(self):
        a = sample_stable(StableParams(1.5, 1.0, 1.0, 0.0), 2000, RngStream(4))
        b = sample_stable(StableParams(1.5, 1.0, -1.0, 0.0), 2000, RngStream(5))
        assert not ks_two_sample(a, b, "skew").passed

    def test_symmetry(self):
        gen = np.random.default_rng(6)
        a, b = gen.normal(size=300), gen.normal(1.0, 1.0, size=400)
        assert ks_two_sample(a, b, "x").stat == ks_two_sample(b, a, "x").stat

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.empty(0), np.ones(5), "e")

    @pytest.mark.parametrize("seed", range(8))
    def test_statistic_is_scipys_bit_for_bit(self, seed):
        # rounded draws give ties within and across samples; sizes differ
        gen = np.random.default_rng(seed)
        n_a, n_b = gen.integers(1, 400, size=2)
        a = np.round(gen.normal(size=n_a), int(gen.integers(0, 3)))
        b = np.round(gen.normal(0.2, 1.3, size=n_b), 1)
        for x, y in ((a, b), (b, a), (a, a[: max(1, n_a // 3)])):
            ref = sps.ks_2samp(x, y, method="asymp").statistic
            assert ks_two_sample(x, y, "x").stat == ref

    @pytest.mark.parametrize("where", ["first", "second", "both"])
    def test_nan_raises(self, where):
        a, b = np.arange(10.0), np.arange(12.0) + 0.5
        if where in ("first", "both"):
            a[3] = np.nan
        if where in ("second", "both"):
            b[0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ks_two_sample(a, b, "nan")


class TestEcf:
    def test_empty_grid_is_zero(self):
        p = StableParams(1.5, 1.0)
        assert ecf_distance(np.ones(10), p, []) == 0.0

    def test_own_sample_is_close(self):
        p = StableParams(1.5, 1.0, 0.0, 0.0)
        t = np.linspace(-5, 5, 21)
        hits = 0
        for trial in range(10):
            x = sample_stable(p, 10_000, RngStream(50 + trial))
            hits += ecf_distance(x, p, t) < 3.0 / math.sqrt(10_000)
        assert hits >= 9

    def test_shift_detected(self):
        # at t = pi a unit shift flips the CF's sign: gap = 2|cf(pi)| plus noise
        p = StableParams(1.5, 0.5, 0.0, 0.0)
        x = sample_stable(p, 10_000, RngStream(60)) + 1.0
        gap = 2.0 * abs(np.exp(-(0.5 * math.pi) ** 1.5))
        d = ecf_distance(x, p, [math.pi])
        assert d > 3.0 / math.sqrt(10_000)
        assert d == pytest.approx(gap, abs=0.05)

    def test_permutation_invariant(self):
        p = StableParams(1.5, 1.0)
        x = sample_stable(p, 500, RngStream(61))
        t = np.linspace(-2, 2, 9)
        gen = np.random.default_rng(0)
        assert ecf_distance(x, p, t) == pytest.approx(
            ecf_distance(gen.permutation(x), p, t)
        )


class TestRateRegression:
    def test_exact_power_law(self):
        T = np.array([1e3, 1e4, 1e5])
        slope, stderr = rate_regression(T, T ** (-1.0 / 3.0))
        assert slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-6)

    def test_flat(self):
        slope, _ = rate_regression([10.0, 100.0, 1000.0], [2.0, 2.0, 2.0])
        assert slope == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_slope_and_stderr_are_linregress_bit_for_bit(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(3, 12))
        sizes = np.sort(gen.choice(np.geomspace(10.0, 1e7, 40), n, replace=False))
        disp = sizes ** -gen.uniform(0.1, 0.6) * gen.lognormal(0.0, 0.3, n)
        for d in (disp, np.full(n, 2.0)):
            ref = sps.linregress(np.log(sizes), np.log(d))
            slope, stderr = rate_regression(sizes, d)
            assert slope == ref.slope
            np.testing.assert_array_equal(stderr, ref.stderr)  # NaN == NaN here

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_regression([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rate_regression([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(ValueError):
            rate_regression([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="equal"):
            rate_regression([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])


def test_iqr():
    assert iqr(np.arange(101.0)) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        iqr([])
