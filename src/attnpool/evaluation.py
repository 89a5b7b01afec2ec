"""Forecast evaluation: valid time, distribution-free median CIs, and the
weighted interval score (WIS) with its subgradient.

WIS follows the hub convention

    WIS = (w0 |y - median| + sum_k w_k IS_{alpha_k}(y)) / (K + 1/2)

with w0 = 1/2 and w_k = alpha_k / 2, where IS is the interval score

    IS = (u - l) + (2/alpha)(l - y) 1[y < l] + (2/alpha)(y - u) 1[y > u].

At kinks (y exactly on an interval endpoint) the subgradient choice is 0,
i.e. the observation counts as covered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .numerics import Array

# alpha set used throughout; endpoints alpha/2 and 1 - alpha/2 plus the
# median give the 21-level quantile grid of the forecast pipeline
WIS_ALPHAS: tuple[float, ...] = (0.02, 0.05, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


# ---------------------------------------------------------------------------
# valid time


@dataclass
class ValidTimeConfig:
    epsilon: float = 40.0   # mean-squared-error threshold
    dt: float = 0.1         # sampling interval


def valid_time(pred: Array, truth: Array, cfg: ValidTimeConfig | None = None) -> float:
    """Duration until the forecast MSE first reaches ``epsilon``.

    The error at step j is the squared error averaged over components, the
    scale on which the default threshold of 40 is calibrated (the MSE between
    unrelated states on the attractor saturates near 200). Returns ``j* . dt``
    for the first index j* with that error >= epsilon (non-finite predictions
    count as exceedance); if the threshold is never reached the full horizon
    ``len(pred) . dt`` is returned, and if the very first step exceeds, 0.0.
    """
    cfg = cfg or ValidTimeConfig()
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    if pred.ndim == 1:
        pred, truth = pred[:, None], truth[:, None]
    if len(pred) == 0:
        raise ValueError("empty forecast")
    err = np.mean((pred - truth) ** 2, axis=1)
    exceeded = (err >= cfg.epsilon) | ~np.isfinite(err)
    hits = np.nonzero(exceeded)[0]
    j_star = int(hits[0]) if hits.size else len(pred)
    return j_star * cfg.dt


# ---------------------------------------------------------------------------
# median with distribution-free CI (order statistics via the binomial)


def median_ci_ranks(n: int, level: float = 0.95) -> tuple[int, int]:
    """1-indexed order-statistic ranks (r, s) bracketing the median with
    two-sided coverage >= level, from Binomial(n, 1/2).

    r is the largest rank with P(X <= r - 1) <= alpha/2. The CDF is kept
    exactly, in integers scaled by 2^n, and compared with the exact value of
    the float alpha/2. The search walks down from the median, where the CDF
    is known by symmetry, so it takes about sqrt(n) steps rather than n/2.
    """
    if n < 6:
        raise ValueError(f"need at least 6 samples for a {level:.0%} median CI, got {n}")
    # cdf is an integer, so cdf <= alpha/2 * 2^n exactly when cdf <= the floor
    limit = math.floor(Fraction((1.0 - level) / 2.0) * 2**n)
    r = n // 2
    term = math.comb(n, r)                             # C(n, r)
    # 2^n * P(X <= n // 2): half of 2^n, plus half the central term if n is even
    cdf = ((1 << n) + (0 if n % 2 else term)) >> 1
    while r > 0 and cdf - term > limit:               # P(X <= r - 1) > alpha/2
        cdf -= term
        term = term * r // (n - r + 1)                 # C(n, r - 1)
        r -= 1
    r = max(r, 1)
    return r, n - r + 1


def median_with_ci(samples: Array, level: float = 0.95) -> tuple[float, float, float]:
    """Sample median plus a distribution-free >= ``level`` CI.

    The bounds are always elements of ``samples`` and bracket the median.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite entries in samples")
    r, s = median_ci_ranks(len(x), level)
    return float(np.median(x)), float(x[r - 1]), float(x[s - 1])


# ---------------------------------------------------------------------------
# interval score / WIS


def interval_score(lower: float, upper: float, alpha: float, observed: float) -> float:
    """Central (1 - alpha) prediction-interval score; lower is better."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if lower > upper:
        raise ValueError(f"interval endpoints crossed: lower {lower} > upper {upper}")
    score = upper - lower
    if observed < lower:
        score += (2.0 / alpha) * (lower - observed)
    elif observed > upper:
        score += (2.0 / alpha) * (observed - upper)
    return score


@dataclass(frozen=True)
class WISConfig:
    """Interval levels entering the weighted interval score."""

    alphas: tuple[float, ...] = WIS_ALPHAS

    def __post_init__(self):
        if len(self.alphas) == 0:
            raise ValueError("need at least one interval level")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ValueError(f"alpha must lie in (0, 1), got {a}")
        if len(set(self.alphas)) != len(self.alphas):
            raise ValueError("duplicate alpha levels")

    @property
    def required_levels(self) -> tuple[float, ...]:
        """All quantile levels the score needs: endpoints plus the median."""
        levels = {0.5}
        for a in self.alphas:
            levels.add(round(a / 2.0, 6))
            levels.add(round(1.0 - a / 2.0, 6))
        return tuple(sorted(levels))

    @property
    def denominator(self) -> float:
        return len(self.alphas) + 0.5


def _level_index(levels: Array, level: float, what: str) -> int:
    hits = np.nonzero(np.abs(levels - level) < 1e-9)[0]
    if hits.size != 1:
        raise ValueError(f"quantile level {level} for {what} missing from forecast")
    return int(hits[0])


def _wis_layout(levels: Array, cfg: WISConfig):
    """Indices of the median and of each interval's endpoints in ``levels``."""
    med = _level_index(levels, 0.5, "median")
    lowers = [_level_index(levels, a / 2.0, f"alpha={a} lower") for a in cfg.alphas]
    uppers = [_level_index(levels, 1.0 - a / 2.0, f"alpha={a} upper") for a in cfg.alphas]
    return med, lowers, uppers


def wis_batch(levels: Array, values: Array, observed: Array, cfg: WISConfig | None = None) -> Array:
    """WIS for a batch: ``values`` is (N, L) aligned with ``levels``, one row
    per forecast; ``observed`` is (N,). Returns (N,)."""
    cfg = cfg or WISConfig()
    levels = np.asarray(levels, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    observed = np.atleast_1d(np.asarray(observed, dtype=np.float64))
    med, lowers, uppers = _wis_layout(levels, cfg)
    total = 0.5 * np.abs(observed - values[:, med])
    for a, li, ui in zip(cfg.alphas, lowers, uppers):
        lo, up = values[:, li], values[:, ui]
        if np.any(lo > up):
            bad = int(np.nonzero(lo > up)[0][0])
            raise ValueError(
                f"interval endpoints crossed for alpha={a} in forecast row {bad}"
            )
        width = up - lo
        below = (2.0 / a) * np.maximum(lo - observed, 0.0)
        above = (2.0 / a) * np.maximum(observed - up, 0.0)
        total += (a / 2.0) * (width + below + above)
    return total / cfg.denominator


def wis(quantiles: Mapping[float, float], observed: float, cfg: WISConfig | None = None) -> float:
    """WIS of one quantile forecast given as a level -> value mapping.

    Every required level (interval endpoints plus the median) must be
    present; extra levels are ignored.
    """
    cfg = cfg or WISConfig()
    levels = np.array(sorted(quantiles.keys()), dtype=np.float64)
    values = np.array([quantiles[k] for k in sorted(quantiles.keys())], dtype=np.float64)
    return float(wis_batch(levels, values[None, :], np.array([observed]), cfg)[0])


def wis_gradient_batch(
    levels: Array, values: Array, observed: Array, cfg: WISConfig | None = None
) -> Array:
    """Subgradient of WIS w.r.t. each forecast quantile value, batched.

    Piecewise linear, so the gradient is exact away from kinks; at a kink
    (observation equal to a quantile) the 0 subgradient is chosen.
    Returns an array shaped like ``values``.
    """
    cfg = cfg or WISConfig()
    levels = np.asarray(levels, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    observed = np.atleast_1d(np.asarray(observed, dtype=np.float64))
    med, lowers, uppers = _wis_layout(levels, cfg)
    grad = np.zeros_like(values)
    denom = cfg.denominator
    grad[:, med] += 0.5 * np.sign(values[:, med] - observed) / denom
    for a, li, ui in zip(cfg.alphas, lowers, uppers):
        lo, up = values[:, li], values[:, ui]
        w = a / 2.0
        grad[:, li] += w * (-1.0 + (2.0 / a) * (observed < lo)) / denom
        grad[:, ui] += w * (1.0 - (2.0 / a) * (observed > up)) / denom
    return grad


def wis_gradient(
    levels: Array, values: Array, observed: float, cfg: WISConfig | None = None
) -> Array:
    """Single-forecast convenience wrapper around ``wis_gradient_batch``."""
    g = wis_gradient_batch(levels, np.asarray(values)[None, :], np.array([observed]), cfg)
    return g[0]
