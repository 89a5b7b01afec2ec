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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .numerics import Array

# alpha set used throughout; endpoints alpha/2 and 1 - alpha/2 plus the
# median give the 21-level quantile grid of the forecast pipeline
WIS_ALPHAS: tuple[float, ...] = (0.02, 0.05, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


# ---------------------------------------------------------------------------
# valid time


VALID_TIME_EPSILON = 40.0  # mean-squared-error threshold
VALID_TIME_DT = 0.1        # sampling interval


def exceeded(pred: Array, truth: Array) -> Array:
    """Whether each forecast step has left its valid time: ``pred`` and
    ``truth`` are (..., d), and a step exceeds where its squared error,
    averaged over the d components, reaches ``VALID_TIME_EPSILON`` or is
    not finite. A finite error too large to square counts as infinite,
    silently. :func:`valid_time` and the closed-loop driver's retirement of
    rows both decide by this, so they agree on every step."""
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.mean((pred - truth) ** 2, axis=-1)
    return (err >= VALID_TIME_EPSILON) | ~np.isfinite(err)


def valid_time(pred: Array, truth: Array) -> float:
    """Duration until the forecast MSE first reaches ``VALID_TIME_EPSILON``.

    ``pred`` and ``truth`` are (n, d). The error at step j is the squared
    error averaged over components, the scale on which the threshold of 40
    is calibrated (the MSE between unrelated states on the attractor
    saturates near 200). Returns ``j* . dt`` for the first index j* that
    :func:`exceeded` marks (non-finite predictions count as exceedance); if
    the threshold is never reached the full horizon ``len(pred) . dt`` is
    returned, and if the very first step exceeds, 0.0.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    if len(pred) == 0:
        raise ValueError("empty forecast")
    hits = np.nonzero(exceeded(pred, truth))[0]
    j_star = int(hits[0]) if hits.size else len(pred)
    return j_star * VALID_TIME_DT


# ---------------------------------------------------------------------------
# median with distribution-free CI (order statistics via the binomial)


MEDIAN_CI_LEVEL = 0.95  # two-sided coverage of the median's interval


def median_ci_ranks(n: int) -> tuple[int, int]:
    """1-indexed order-statistic ranks (r, s) bracketing the median with
    two-sided coverage >= ``MEDIAN_CI_LEVEL``, from Binomial(n, 1/2).

    r is the largest rank with P(X <= r - 1) <= alpha/2. The CDF is kept
    exactly, in integers scaled by 2^n, and compared with the exact value of
    the float alpha/2. The search walks down from the median, where the CDF
    is known by symmetry, so it takes about sqrt(n) steps rather than n/2.
    """
    if n < 6:
        raise ValueError(f"need at least 6 samples for a {MEDIAN_CI_LEVEL:.0%} median CI, got {n}")
    # cdf is an integer, so cdf <= alpha/2 * 2^n exactly when cdf <= the floor
    limit = math.floor(Fraction((1.0 - MEDIAN_CI_LEVEL) / 2.0) * 2**n)
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


def median_with_ci(samples: Array) -> tuple[float, float, float]:
    """Sample median plus a distribution-free >= ``MEDIAN_CI_LEVEL`` CI.

    The bounds are always elements of ``samples`` and bracket the median.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite entries in samples")
    r, s = median_ci_ranks(len(x))
    return float(np.median(x)), float(x[r - 1]), float(x[s - 1])


# ---------------------------------------------------------------------------
# interval score / WIS


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
    def denominator(self) -> float:
        return len(self.alphas) + 0.5


def _level_index(levels: Array, level: float, what: str) -> int:
    hits = np.nonzero(np.abs(levels - level) < 1e-9)[0]
    if hits.size != 1:
        raise ValueError(f"quantile level {level} for {what} missing from forecast")
    return int(hits[0])


@lru_cache(maxsize=16)
def _layout_of(levels: tuple[float, ...], cfg: WISConfig):
    arr = np.array(levels)
    med = _level_index(arr, 0.5, "median")
    lowers = [_level_index(arr, a / 2.0, f"alpha={a} lower") for a in cfg.alphas]
    uppers = [_level_index(arr, 1.0 - a / 2.0, f"alpha={a} upper") for a in cfg.alphas]
    arrays = tuple(np.array(x) for x in (lowers, uppers, cfg.alphas))
    for a in arrays:
        a.flags.writeable = False  # cached, so shared by every caller
    return (med, *arrays)


def _wis_layout(levels: Array, cfg: WISConfig):
    """Index of the median in ``levels``, index arrays of the intervals'
    lower and upper endpoints, and the alphas as an array, in
    ``cfg.alphas`` order.

    A training run scores thousands of batches against one level grid, so
    the layout is found once per (levels, config) and then reused; a
    missing level raises on every call, since errors are not cached.
    """
    return _layout_of(tuple(levels.tolist()), cfg)


def wis_batch(levels: Array, values: Array, observed: Array, cfg: WISConfig | None = None) -> Array:
    """WIS for a batch: ``values`` is (N, L) aligned with ``levels``, one row
    per forecast; ``observed`` is (N,). Returns (N,).

    The interval terms are formed for all alphas at once, (N, A), and added
    to the median term one alpha at a time in ``cfg.alphas`` order, so the
    sum is the one a loop over the intervals makes.
    """
    cfg = cfg or WISConfig()
    levels = np.asarray(levels, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    observed = np.atleast_1d(np.asarray(observed, dtype=np.float64))
    med, lowers, uppers, alphas = _wis_layout(levels, cfg)
    lo, up = values[:, lowers], values[:, uppers]
    crossed = lo > up
    if crossed.any():
        first = int(np.argmax(crossed.any(axis=0)))
        bad = int(np.argmax(crossed[:, first]))
        raise ValueError(
            f"interval endpoints crossed for alpha={cfg.alphas[first]} in forecast row {bad}"
        )
    y = observed[:, None]
    below = (2.0 / alphas) * np.maximum(lo - y, 0.0)
    above = (2.0 / alphas) * np.maximum(y - up, 0.0)
    terms = (alphas / 2.0) * (up - lo + below + above)
    total = 0.5 * np.abs(observed - values[:, med])
    for k in range(len(alphas)):
        total += terms[:, k]
    return total / cfg.denominator


def wis_gradient_batch(
    levels: Array, values: Array, observed: Array, cfg: WISConfig | None = None
) -> Array:
    """Subgradient of WIS w.r.t. each forecast quantile value, batched.

    Piecewise linear, so the gradient is exact away from kinks; at a kink
    (observation equal to a quantile) the 0 subgradient is chosen.
    Returns an array shaped like ``values``; each entry receives exactly one
    term, since the median and the endpoints are distinct levels.
    """
    cfg = cfg or WISConfig()
    levels = np.asarray(levels, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    observed = np.atleast_1d(np.asarray(observed, dtype=np.float64))
    med, lowers, uppers, alphas = _wis_layout(levels, cfg)
    grad = np.zeros_like(values)
    denom = cfg.denominator
    y = observed[:, None]
    w = alphas / 2.0
    grad[:, med] += 0.5 * np.sign(values[:, med] - observed) / denom
    grad[:, lowers] += w * (-1.0 + (2.0 / alphas) * (y < values[:, lowers])) / denom
    grad[:, uppers] += w * (1.0 - (2.0 / alphas) * (y > values[:, uppers])) / denom
    return grad
