"""Forecast evaluation: valid time, distribution-free median CIs, and the
weighted interval score (WIS) with its subgradient.

WIS scores a forecast given at a grid of 2K + 1 quantile levels that
increase and mirror each other about the median 0.5. The k-th level from
each end bound the k-th central interval, whose alpha is twice its lower
level, alpha_k = 2 level_k, so the grid alone says which intervals are
scored. WIS follows the hub convention

    WIS = (w0 |y - median| + sum_k w_k IS_{alpha_k}(y)) / (K + 1/2)

with w0 = 1/2 and w_k = alpha_k / 2, where IS is the interval score

    IS = (u - l) + (2/alpha)(l - y) 1[y < l] + (2/alpha)(y - u) 1[y > u].

At kinks (y exactly on an interval endpoint) the subgradient choice is 0,
i.e. the observation counts as covered.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .lorenz import DT_SAMPLE
from .numerics import Array


# ---------------------------------------------------------------------------
# valid time


VALID_TIME_EPSILON = 40.0  # mean-squared-error threshold


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
    :func:`exceeded` marks (non-finite predictions count as exceedance),
    with dt the sampling interval :data:`attnpool.lorenz.DT_SAMPLE`; if the
    threshold is never reached the full horizon ``len(pred) . dt`` is
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
    return j_star * DT_SAMPLE


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


def _wis_layout(levels: Array):
    """Index of the median in ``levels``, index arrays of the intervals'
    lower and upper endpoints (the k-th level from each end: 0..m-1 and
    n-1..m+1, with m = n // 2), and the intervals' alphas, twice the lower
    levels.

    Raises a ValueError naming a level where the levels do not increase
    strictly, do not mirror each other about 0.5 within 1e-9, or are even
    in number; an odd count of mirrored levels has 0.5 at its centre.
    """
    grid = levels.tolist()  # plain floats check a 21-level grid fastest
    n = len(grid)
    m = n // 2
    for before, level in zip(grid, grid[1:]):
        if level <= before:
            raise ValueError(f"quantile level {level} does not exceed {before} before it")
    for lower, upper in zip(grid[: m + 1], reversed(grid)):
        if abs(lower + upper - 1.0) >= 1e-9:
            raise ValueError(
                f"quantile level {upper} needs its mirror {1.0 - upper:g} in place of {lower}"
            )
    if n % 2 == 0:
        raise ValueError(f"quantile levels {grid} have no median 0.5")
    return m, np.arange(m), np.arange(n - 1, m, -1), 2.0 * levels[:m]


def wis_batch(levels: Array, values: Array, observed: Array) -> Array:
    """WIS for a batch: ``values`` is (N, L) aligned with ``levels``, one row
    per forecast; ``observed`` is (N,). Returns (N,).

    The interval terms are formed for all alphas at once, (N, A), and added
    to the median term one alpha at a time in grid order, so the sum is
    the one a loop over the intervals makes.
    """
    levels = np.asarray(levels, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    observed = np.atleast_1d(np.asarray(observed, dtype=np.float64))
    med, lowers, uppers, alphas = _wis_layout(levels)
    lo, up = values[:, lowers], values[:, uppers]
    crossed = lo > up
    if crossed.any():
        first = int(np.argmax(crossed.any(axis=0)))
        bad = int(np.argmax(crossed[:, first]))
        raise ValueError(
            f"interval endpoints crossed for alpha={alphas[first]} in forecast row {bad}"
        )
    y = observed[:, None]
    below = (2.0 / alphas) * np.maximum(lo - y, 0.0)
    above = (2.0 / alphas) * np.maximum(y - up, 0.0)
    terms = (alphas / 2.0) * (up - lo + below + above)
    total = 0.5 * np.abs(observed - values[:, med])
    for k in range(len(alphas)):
        total += terms[:, k]
    return total / (len(alphas) + 0.5)


def wis_gradient_batch(levels: Array, values: Array, observed: Array) -> Array:
    """Subgradient of WIS w.r.t. each forecast quantile value, batched.

    Piecewise linear, so the gradient is exact away from kinks; at a kink
    (observation equal to a quantile) the 0 subgradient is chosen.
    Returns an array shaped like ``values``; each entry receives exactly one
    term, since the median and the endpoints are distinct levels.
    """
    levels = np.asarray(levels, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    observed = np.atleast_1d(np.asarray(observed, dtype=np.float64))
    med, lowers, uppers, alphas = _wis_layout(levels)
    grad = np.zeros_like(values)
    denom = len(alphas) + 0.5
    y = observed[:, None]
    w = alphas / 2.0
    grad[:, med] += 0.5 * np.sign(values[:, med] - observed) / denom
    grad[:, lowers] += w * (-1.0 + (2.0 / alphas) * (y < values[:, lowers])) / denom
    grad[:, uppers] += w * (1.0 - (2.0 / alphas) * (y > values[:, uppers])) / denom
    return grad
