"""Closed-form stable limit parameters for the built-in functionals."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from stableshot import (
    LimitSpec,
    RngStream,
    c_alpha,
    cdf_indicator,
    limit_params,
)
from stableshot.harness import _poisson_pmf, exact_poisson_calE, make_functional


def identity_calE(w):
    # E(w, identity) = w + lam E[Y] E[W]; the centering cancels, Delta = w
    return np.asarray(w, dtype=float) + 3.0


class TestLimitParams:
    def test_identity_constant_rate(self):
        spec = limit_params("identity", 1.0, 1.5, 1.0, identity_calE)
        # Delta = 1 exactly: totally right-skewed, sigma^alpha = lam * c_alpha
        assert spec.abs_moment == pytest.approx(1.0)
        assert spec.signed_moment == pytest.approx(1.0)
        assert spec.params.beta == pytest.approx(1.0)
        assert spec.params.sigma == pytest.approx(c_alpha(1.5) ** (2.0 / 3.0))
        # sigma = (lam c_alpha)^(1/alpha) = (2 pi)^(1/3)
        assert spec.params.sigma == pytest.approx((2 * math.pi) ** (1 / 3))
        assert spec.params.sigma == pytest.approx(1.84527, abs=1e-4)
        assert spec.params.mu == 0.0
        assert not spec.degenerate
        assert spec.provenance == "exact"

    def test_idle_indicator_sparse_load(self):
        # lam = 0.3, nu = 0.9: Delta = P(w + X = 0) - P(X = 0) = -exp(-0.9)
        phi = make_functional("idle")
        calE = exact_poisson_calE(phi, nu=0.9, w0=1.0)
        spec = limit_params("idle", 0.3, 1.5, 1.0, calE)
        assert spec.params.beta == pytest.approx(-1.0)
        want_scale = (0.3 * c_alpha(1.5) * math.exp(-1.5 * 0.9)) ** (2.0 / 3.0)
        assert spec.params.sigma == pytest.approx(want_scale)
        assert spec.abs_moment == pytest.approx(math.exp(-1.35))

    def test_scale_grows_with_intensity(self):
        lo = limit_params("identity", 0.5, 1.5, 1.0, identity_calE)
        hi = limit_params("identity", 2.0, 1.5, 1.0, identity_calE)
        assert hi.params.sigma > lo.params.sigma

    def test_degenerate_flag(self):
        spec = limit_params(
            "const", 1.0, 1.5, 1.0, lambda w: np.ones_like(np.atleast_1d(w))
        )
        assert spec.degenerate
        assert spec.params.sigma == 0.0

    def test_monte_carlo_rate_law(self):
        # W* uniform on [0.5, 1.5] with identity response: E|Delta|^1.5 = E W^1.5
        def g(n, gen):
            return gen.uniform(0.5, 1.5, n)

        spec = limit_params(
            "identity", 1.0, 1.5, g, identity_calE, n_mc=200_000, rng=RngStream(1)
        )
        want = (1.5 ** 2.5 - 0.5 ** 2.5) / 2.5  # integral of w^1.5 on [.5,1.5]
        assert spec.abs_moment == pytest.approx(want, rel=0.01)
        assert spec.params.beta == pytest.approx(1.0)

    def test_to_text_mentions_name(self):
        spec = limit_params("identity", 1.0, 1.5, 1.0, identity_calE)
        assert "identity" in spec.to_text()


def poisson_cdf_calE(x, nu):
    # unit rates: the stationary level is a Poisson(nu) count, so
    # calE(w) = P(w + N <= x) and calE(0) is the centering K(x)
    return exact_poisson_calE(cdf_indicator(x), nu, 1.0)


def K(nu, x):
    return float(poisson_cdf_calE(x, nu)(0.0)[0])


class TestPoissonK:
    @pytest.mark.parametrize(
        "nu, rtol",
        # at nu = 1e4 the log pmf is a difference of terms near 1e5, whose
        # last bit alone is 1.5e-11 relative in the pmf; math.lgamma and
        # scipy's gammaln round those terms differently
        [(0.05, 1e-11), (0.9, 1e-11), (3.0, 1e-11), (30.0, 1e-11), (800.0, 1e-11),
         (1e4, 1e-10)],
    )
    def test_pmf_matches_scipy(self, nu, rtol):
        pmf = _poisson_pmf(nu)
        ref = sps.poisson.pmf(np.arange(pmf.size), nu)
        normal = ref > 1e-300  # values near underflow keep too few bits to compare
        np.testing.assert_allclose(pmf[normal], ref[normal], rtol=rtol, atol=0)
        assert np.all(pmf[~normal] < 1e-299)

    @pytest.mark.parametrize("nu", [0.05, 0.9, 3.0, 30.0, 800.0, 1e4])
    def test_kmax_reaches_scipys(self, nu):
        # never fewer terms than the scipy quantile gave: at nu = 800 a
        # forward cumsum overshoots, and exp(-nu) underflows past nu ~ 745
        kmax = _poisson_pmf(nu).size - 1
        assert kmax >= int(sps.poisson.ppf(1 - 1e-13, nu)) + 2

    def test_values(self):
        assert K(0.9, -0.5) == 0.0
        assert K(0.9, 0.0) == pytest.approx(math.exp(-0.9))
        assert K(3.0, 1.0) == pytest.approx(4.0 * math.exp(-3.0))
        assert K(3.0, 2.7) == pytest.approx(sps.poisson.cdf(2, 3.0))

    def test_vectorized_and_monotone(self):
        # calE(w) = K(x - w) for each shift w, and K is nondecreasing in x
        x = np.linspace(-1, 10, 45)
        vals = np.array([K(3.0, v) for v in x])
        assert np.all(np.diff(vals) >= 0)
        shifted = poisson_cdf_calE(4.5, 3.0)(4.5 - x)
        np.testing.assert_allclose(shifted, vals, rtol=1e-12, atol=0)


class TestCdfLimit:
    def test_unit_rate_closed_form(self):
        # Delta = K(x - 1) - K(x) = -pmf(1) at x = 1, nu = 3
        spec = limit_params("cdf_le_1", 1.0, 1.5, 1.0, poisson_cdf_calE(1.0, 3.0))
        pmf1 = 3.0 * math.exp(-3.0)
        assert spec.params.beta == pytest.approx(-1.0)
        assert spec.abs_moment == pytest.approx(pmf1 ** 1.5)

    def test_far_right_tail_degenerates(self):
        spec = limit_params("cdf_le_500", 1.0, 1.5, 1.0, poisson_cdf_calE(500.0, 3.0))
        assert spec.abs_moment == pytest.approx(0.0, abs=1e-12)
        assert spec.degenerate

