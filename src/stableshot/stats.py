"""Goodness-of-fit and rate-of-convergence statistics.

Numpy implementations with explicit pass/fail decisions so the harness
can print one verdict per analysis.  The KS statistic and the regression
follow scipy's ``ks_2samp`` and ``linregress`` recipes step for step, so
they match them bit for bit; scipy itself is not imported, because its
import cost most of a fresh process's set-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GofReport",
    "ks_threshold",
    "ks_two_sample",
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


def ks_threshold(n: float) -> float:
    """Asymptotic one-sample KS critical value c(0.01)/sqrt(n): every KS
    test here is at level 0.01."""
    if not 0 < n < math.inf:
        raise ValueError("n must be positive and finite")
    return math.sqrt(-math.log(0.01 / 2.0) / 2.0) / math.sqrt(n)


def ks_two_sample(a, b, name: str) -> GofReport:
    """Two-sample KS test: sup |F_a - F_b| against the asymptotic threshold."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # sort puts NaN last
        raise ValueError(f"{name}: NaN in a KS sample")
    both = np.concatenate([a, b])
    diff = np.searchsorted(a, both, side="right") / a.size
    diff -= np.searchsorted(b, both, side="right") / b.size
    stat = float(max(diff.max(), np.clip(-diff.min(), 0, 1)))
    n_eff = a.size * b.size / (a.size + b.size)
    return GofReport(name, stat, ks_threshold(n_eff), int(min(a.size, b.size)))


def rate_regression(sizes, dispersions):
    """OLS slope and stderr of log(dispersion) on log(size)."""
    s = np.asarray(sizes, dtype=float)
    d = np.asarray(dispersions, dtype=float)
    if s.size != d.size or s.size < 3:
        raise ValueError("need at least 3 matched (size, dispersion) pairs")
    if np.any(s <= 0) or np.any(d <= 0):
        raise ValueError("sizes and dispersions must be positive for a log fit")
    x, y = np.log(s), np.log(d)
    if x.max() == x.min():
        raise ValueError("sizes must not all be equal")
    # linregress's formulas: biased (co)variances, r clipped to [-1, 1],
    # and r = NaN (so a NaN stderr) when both the y spread and the
    # covariance are 0
    ssxm, ssxy, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxy == 0 else 0.0)
    else:
        r = np.clip(ssxy / np.sqrt(ssxm * ssym), -1.0, 1.0)
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (x.size - 2))
    return float(ssxy / ssxm), float(stderr)


def iqr(sample) -> float:
    """Interquartile range: robust dispersion for heavy-tailed replicates."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    q75, q25 = np.percentile(x, [75, 25])
    return float(q75 - q25)
