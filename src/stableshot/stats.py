"""Goodness-of-fit and rate-of-convergence statistics.

Small wrappers around scipy with explicit pass/fail decisions so the
harness can print one verdict per analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .heavy_rand import StableParams, stable_cf

__all__ = [
    "GofReport",
    "ks_threshold",
    "ks_two_sample",
    "ecf_distance",
    "rate_regression",
    "iqr",
]


@dataclass(frozen=True)
class GofReport:
    """Outcome of a single test: decision is pass iff stat <= threshold."""

    name: str
    stat: float
    threshold: float
    n: int
    detail: str = ""

    def __post_init__(self):
        if not (self.stat >= 0 and self.threshold >= 0):
            raise ValueError("stat and threshold must be nonnegative")

    @property
    def passed(self) -> bool:
        return self.stat <= self.threshold

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"{verdict} {self.name}: stat={self.stat:.4f} "
            f"thr={self.threshold:.4f} n={self.n}{extra}"
        )


def ks_threshold(n: float, level: float = 0.01) -> float:
    """Asymptotic one-sample KS critical value c(level)/sqrt(n)."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    if n <= 0:
        raise ValueError("n must be positive")
    return math.sqrt(-math.log(level / 2.0) / 2.0) / math.sqrt(n)


def ks_two_sample(a, b, name: str, level: float = 0.01) -> GofReport:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    stat = float(sps.ks_2samp(a, b, method="asymp").statistic)
    n_eff = a.size * b.size / (a.size + b.size)
    return GofReport(name, stat, ks_threshold(n_eff, level), int(min(a.size, b.size)))


def ecf_distance(sample, params: StableParams, t_grid) -> float:
    """Max gap between the empirical CF and the candidate stable CF.

    Empty grid means nothing to check, so the distance is 0.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        return 0.0
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    ecf = np.exp(1j * np.outer(t, x)).mean(axis=1)
    return float(np.abs(ecf - stable_cf(params, t)).max())


def rate_regression(sizes, dispersions):
    """OLS slope and stderr of log(dispersion) on log(size)."""
    s = np.asarray(sizes, dtype=float)
    d = np.asarray(dispersions, dtype=float)
    if s.size != d.size or s.size < 3:
        raise ValueError("need at least 3 matched (size, dispersion) pairs")
    if np.any(s <= 0) or np.any(d <= 0):
        raise ValueError("sizes and dispersions must be positive for a log fit")
    res = sps.linregress(np.log(s), np.log(d))
    return float(res.slope), float(res.stderr)


def iqr(sample) -> float:
    """Interquartile range: robust dispersion for heavy-tailed replicates."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    q75, q25 = np.percentile(x, [75, 25])
    return float(q75 - q25)
