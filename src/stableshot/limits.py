"""Limiting stable parameters of the normalized functional integrals.

Given intensity lambda, tail index alpha, the limiting rate law G and the
long-session response curve w -> E[phi(w + X_h(0))], the normalized
centered integral converges to a strictly alpha-stable Levy motion whose
u = 1 marginal has

    sigma^alpha = lambda * c_alpha * E|Delta|^alpha,
    beta        = E[|Delta|^alpha sgn Delta] / E|Delta|^alpha,
    mu          = 0,

with Delta = E(W*, phi) - E(0, phi) and W* drawn from G.  The marginal at
time u has scale u^(1/alpha) * sigma.  Delta = 0 a.s. gives sigma = 0 by
the same formula: a ``degenerate`` LimitSpec, the point mass at 0, beta 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .heavy_rand import StableParams, c_alpha

__all__ = ["LimitSpec", "limit_params"]


@dataclass(frozen=True)
class LimitSpec:
    name: str
    lam: float
    calE_0: float
    abs_moment: float  # E|Delta|^alpha
    signed_moment: float  # E[|Delta|^alpha sgn(Delta)]
    params: StableParams

    @property
    def degenerate(self) -> bool:
        """Whether the limit is the point mass at 0 (Delta = 0 a.s.)."""
        return self.abs_moment == 0.0

    def to_text(self) -> str:
        lines = [
            f"name: {self.name}",
            f"alpha: {self.params.alpha!r}",
            f"lambda: {self.lam!r}",
            f"calE_0: {self.calE_0!r}",
            f"abs_moment: {self.abs_moment!r}",
            f"signed_moment: {self.signed_moment!r}",
            f"sigma: {self.params.sigma!r}",
            f"beta: {self.params.beta!r}",
            f"mu: {self.params.mu!r}",
            f"degenerate: {self.degenerate}",
        ]
        return "\n".join(lines) + "\n"


def limit_params(phi_name: str, lam: float, alpha: float, w_star, calE: Callable) -> LimitSpec:
    """Stable parameters of the u = 1 marginal of the limit motion.

    ``w_star`` holds equally weighted atoms of the limit rate law G: one
    for a constant rate (exact), draws of G otherwise (Monte Carlo); a
    scalar is one atom.  ``calE`` maps a rate vector to the response
    E(w, phi) (analytic where available -- a Monte Carlo estimator plugged
    in here adds a documented inner-noise bias to |Delta|^alpha).
    """
    w_star = np.atleast_1d(np.asarray(w_star, dtype=float))
    cal0 = float(np.asarray(calE(np.zeros(1)), dtype=float)[0])
    delta = np.asarray(calE(w_star), dtype=float) - cal0
    abs_m = float(np.mean(np.abs(delta) ** alpha))
    signed_m = float(np.mean(np.abs(delta) ** alpha * np.sign(delta)))
    sigma = (lam * c_alpha(alpha) * abs_m) ** (1.0 / alpha)
    beta = signed_m / abs_m if abs_m else 0.0
    return LimitSpec(
        name=phi_name, lam=lam, calE_0=cal0, abs_moment=abs_m, signed_moment=signed_m,
        params=StableParams(alpha=alpha, sigma=sigma, beta=beta, mu=0.0),
    )
