"""Heavy-tailed duration laws and alpha-stable variates.

Provides the Pareto duration distribution with its tail
quantile ``a(t) = (1/sf)^{<-}(t)``, the stable scale constant
``c(alpha) = |Gamma(1-alpha) cos(pi alpha/2)|`` and the Chambers-Mallows-Stuck
sampler.  The sampler draws the law of the "1-type" parametrization: for
alpha != 1,

    E exp(itX) = exp{ i mu t - sigma^alpha |t|^alpha
                      (1 - i beta sgn(t) tan(pi alpha / 2)) }.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .rng import RngStream

__all__ = [
    "TailDist",
    "StableParams",
    "tail_quantile_a",
    "c_alpha",
    "sample_stable",
]


@dataclass(frozen=True)
class TailDist:
    """Pareto session-duration law, P(Y > y) = (y / xm)^(-alpha) for
    y >= xm, with closed forms throughout."""

    declared_alpha: float
    xm: float = 1.0

    @classmethod
    def pareto(cls, alpha: float, xm: float = 1.0) -> "TailDist":
        if not 0 < alpha < math.inf:
            raise ValueError(f"pareto tail index must be positive and finite, got {alpha}")
        if not 0 < xm < math.inf:
            raise ValueError(f"pareto scale must be positive and finite, got {xm}")
        return cls(declared_alpha=alpha, xm=xm)

    def sf(self, y):
        """Survival function P(Y > y)."""
        y = np.asarray(y, dtype=float)
        return np.minimum(1.0, (y / self.xm) ** -self.declared_alpha)

    def ppf_sf(self, p):
        """Quantile of the survival function: inf{y : sf(y) <= p}."""
        p = np.asarray(p, dtype=float)
        return self.xm * p ** (-1.0 / self.declared_alpha)

    @property
    def mean_y(self) -> float:
        a = self.declared_alpha
        if a <= 1:
            raise ValueError("pareto mean is infinite for tail index <= 1")
        return a * self.xm / (a - 1)

    def sample(self, n: int, gen: np.random.Generator, out=None) -> np.ndarray:
        """n draws: ppf_sf of n uniforms, written into ``out`` when given."""
        return self._pareto(n, self.declared_alpha, gen, out)

    def sample_size_biased(self, n: int, gen: np.random.Generator, out=None) -> np.ndarray:
        """Draws from the duration-weighted law y P(Y in dy) / E[Y], a
        Pareto law of tail index alpha - 1; into ``out`` when given."""
        a = self.declared_alpha
        if a <= 1:
            raise ValueError("size-biased pareto needs tail index > 1")
        return self._pareto(n, a - 1, gen, out)

    def _pareto(self, n: int, alpha: float, gen: np.random.Generator, out=None) -> np.ndarray:
        """n Pareto(alpha, xm) draws xm * U^(-1/alpha), in the uniforms' array:
        ``out`` (of length n) when given, else a new one."""
        u = np.empty(n) if out is None else out
        gen.random(out=u)  # the bits of gen.uniform(size=n)
        np.power(u, -1.0 / alpha, out=u)
        u *= self.xm
        return u


@dataclass(frozen=True)
class StableParams:
    """(alpha, sigma, beta, mu) of a stable law in the 1-type parametrization."""

    alpha: float
    sigma: float
    beta: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if not 0 < self.alpha <= 2:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if not abs(self.beta) <= 1:
            raise ValueError(f"beta must be in [-1, 1], got {self.beta}")


def tail_quantile_a(dist: TailDist, t) -> np.ndarray | float:
    """Tail quantile a(t) = inf{y : 1/sf(y) >= t}, t > 1.

    Exactly xm * t^(1/alpha) for Pareto; nondecreasing in t.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 1):
        raise ValueError("tail quantile requires t > 1")
    out = dist.ppf_sf(1.0 / t_arr)
    return float(out) if np.isscalar(t) else np.asarray(out)


def c_alpha(alpha: float) -> float:
    """Stable scale constant |Gamma(1-alpha) cos(pi alpha/2)| on (1, 2).

    Strictly positive and continuous there, with limit pi/2 as alpha -> 1+
    (a 0 * inf form) and divergence as alpha -> 2-.
    """
    if not 1 < alpha < 2:
        raise ValueError(f"c_alpha is defined on (1, 2), got {alpha}")
    return abs(math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0))


def _cms_standard(alpha: float, beta: float, n: int, gen: np.random.Generator):
    # Chambers-Mallows-Stuck, alpha != 1, 1-type standardization
    v = gen.uniform(-math.pi / 2, math.pi / 2, n)
    w = gen.exponential(1.0, n)
    ta = beta * math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(ta) / alpha
    scale = (1.0 + ta * ta) ** (1.0 / (2.0 * alpha))
    return (
        scale
        * np.sin(alpha * (v + b0))
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + b0)) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_stable(params: StableParams, n: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. draws from the stable law of the module docstring's
    characteristic function (CMS construction)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if params.alpha == 1.0:
        raise NotImplementedError("alpha = 1 is outside the supported range")
    x = _cms_standard(params.alpha, params.beta, n, rng.generator())
    return params.sigma * x + params.mu
