"""Limiting stable parameters and tail constants of the cycle functionals.

Given intensity lambda, tail index alpha, the limiting rate law G and the
long-session response curve w -> E[phi(w + X_h(0))], the normalized
centered integral converges to a strictly alpha-stable Levy motion whose
u = 1 marginal has

    sigma^alpha = lambda * c_alpha * E|Delta|^alpha,
    beta        = E[|Delta|^alpha sgn Delta] / E|Delta|^alpha,
    mu          = 0,

with Delta = E(W*, phi) - E(0, phi) and W* drawn from G.  The marginal at
time u has scale u^(1/alpha) * sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .heavy_rand import StableParams, c_alpha
from .rng import RngStream

__all__ = ["LimitSpec", "limit_params", "tail_constant_Z"]

GSampler = Union[float, Callable[[int, np.random.Generator], np.ndarray]]


@dataclass(frozen=True)
class LimitSpec:
    name: str
    alpha: float
    lam: float
    calE_0: float
    abs_moment: float  # E|Delta|^alpha
    signed_moment: float  # E[|Delta|^alpha sgn(Delta)]
    params: StableParams
    hurst: float  # (3 - alpha) / 2, covariance-decay metadata only
    degenerate: bool = False
    provenance: str = "exact"

    def to_text(self) -> str:
        lines = [
            f"name: {self.name}",
            f"alpha: {self.alpha!r}",
            f"lambda: {self.lam!r}",
            f"calE_0: {self.calE_0!r}",
            f"abs_moment: {self.abs_moment!r}",
            f"signed_moment: {self.signed_moment!r}",
            f"sigma: {self.params.sigma!r}",
            f"beta: {self.params.beta!r}",
            f"mu: {self.params.mu!r}",
            f"hurst: {self.hurst!r}",
            f"degenerate: {self.degenerate}",
            f"provenance: {self.provenance}",
        ]
        return "\n".join(lines) + "\n"


def _limit_draws(g_sampler: GSampler, n: int, gen) -> tuple[np.ndarray, str]:
    if callable(g_sampler):
        return np.asarray(g_sampler(n, gen), dtype=float), "monte_carlo"
    return np.array([float(g_sampler)]), "exact"


def limit_params(
    phi_name: str,
    lam: float,
    alpha: float,
    g_sampler: GSampler,
    calE: Callable,
    n_mc: int = 10_000,
    rng: RngStream = RngStream(0),
) -> LimitSpec:
    """Stable parameters of the u = 1 marginal of the limit motion.

    ``g_sampler`` is either a point mass (float, evaluated exactly) or a
    sampler of the limiting rate law; ``calE`` maps a rate vector to the
    response E(w, phi) (analytic where available -- a Monte Carlo estimator
    plugged in here adds a documented inner-noise bias to |Delta|^alpha).
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    w_star, provenance = _limit_draws(g_sampler, n_mc, rng.generator())
    cal0 = float(np.asarray(calE(np.zeros(1)), dtype=float)[0])
    delta = np.asarray(calE(w_star), dtype=float) - cal0
    abs_m = float(np.mean(np.abs(delta) ** alpha))
    signed_m = float(np.mean(np.abs(delta) ** alpha * np.sign(delta)))
    hurst = (3.0 - alpha) / 2.0
    if abs_m == 0.0:
        return LimitSpec(
            name=phi_name, alpha=alpha, lam=lam, calE_0=cal0, abs_moment=0.0, signed_moment=0.0,
            params=StableParams(alpha=alpha, sigma=0.0, beta=0.0, mu=0.0),
            hurst=hurst, degenerate=True, provenance=provenance,
        )
    sigma = (lam * c_alpha(alpha) * abs_m) ** (1.0 / alpha)
    beta = signed_m / abs_m
    return LimitSpec(
        name=phi_name, alpha=alpha, lam=lam, calE_0=cal0, abs_moment=abs_m, signed_moment=signed_m,
        params=StableParams(alpha=alpha, sigma=sigma, beta=beta, mu=0.0),
        hurst=hurst, provenance=provenance,
    )


def tail_constant_Z(
    lam: float,
    ey: float,
    alpha: float,
    g_sampler: GSampler,
    calE: Callable,
    n_mc: int = 10_000,
    rng: RngStream = RngStream(0),
):
    """One-dimensional tail constants (c_plus, c_minus) of the uncentered
    per-cycle integral: t P(Z > a(t) x) -> c_plus x^(-alpha), and the
    mirror image for the lower tail."""
    w_star, _ = _limit_draws(g_sampler, n_mc, rng.generator())
    vals = np.asarray(calE(w_star), dtype=float)
    scale = math.exp(lam * ey)
    c_plus = scale * float(np.mean(np.clip(vals, 0.0, None) ** alpha))
    c_minus = scale * float(np.mean(np.clip(-vals, 0.0, None) ** alpha))
    return c_plus, c_minus
