"""Valid time, Conover median CIs, interval score and WIS."""

import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import finite_difference_gradient, wis_gradient_per_interval, wis_per_interval

from attnpool.covid import QUANTILE_LEVELS
from attnpool.evaluation import (
    _wis_layout,
    median_ci_ranks,
    median_with_ci,
    valid_time,
    wis_batch,
    wis_gradient_batch,
)


class TestValidTime:
    def test_perfect_forecast_hits_ceiling(self):
        truth = np.random.default_rng(0).normal(size=(128, 3))
        assert valid_time(truth, truth) == pytest.approx(12.8)

    def test_first_step_exceedance_gives_zero(self):
        truth = np.zeros((10, 3))
        pred = truth.copy()
        pred[0] = 10.0  # MSE 100 > 40
        assert valid_time(pred, truth) == 0.0

    def test_linear_error_ramp(self):
        # MSE at step j is j  ->  first index with j >= 40 is 40  ->  VT = 4.0
        n = 100
        truth = np.zeros((n, 3))
        pred = np.sqrt(np.arange(n, dtype=float))[:, None] * np.ones(3)
        assert valid_time(pred, truth) == pytest.approx(4.0)

    def test_non_finite_prediction_counts_as_exceedance(self):
        truth = np.zeros((5, 3))
        pred = np.zeros((5, 3))
        pred[2, 1] = np.nan
        assert valid_time(pred, truth) == pytest.approx(0.2)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError, match="shape"):
            valid_time(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_monotone_in_single_error_increase(self):
        rng = np.random.default_rng(1)
        truth = rng.normal(size=(60, 3))
        pred = truth + rng.normal(scale=0.5, size=(60, 3))
        base = valid_time(pred, truth)
        for j in (0, 10, 30, 59):
            worse = pred.copy()
            worse[j] = truth[j] + 100.0
            assert valid_time(worse, truth) <= base

    def test_custom_threshold_and_dt(self):
        # an error of exactly 40 (mean of 4, 16 and 100) reaches the
        # threshold; steps are 0.1 apart
        truth = np.zeros((4, 3))
        pred = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 4.0, 10.0], [0.0, 0.0, 0.0]])
        assert valid_time(pred, truth) == pytest.approx(0.2)


class TestMedianCI:
    def brute_force_ranks(self, n, level=0.95):
        """Exact binomial summation with rational arithmetic."""
        alpha2 = Fraction(1 - Fraction(str(level)), 2)

        def cdf(k):
            return sum(Fraction(comb(n, i)) for i in range(k + 1)) * Fraction(1, 2) ** n

        r = 1
        while r + 1 <= n and cdf(r) <= alpha2:
            r += 1
        return r, n - r + 1

    @pytest.mark.parametrize("n", [6, 10, 11, 25, 100, 200])
    def test_ranks_match_exact_binomial_summation(self, n):
        assert median_ci_ranks(n) == self.brute_force_ranks(n)

    def test_frozen_rank_values(self):
        # frozen from the rational-arithmetic oracle
        assert median_ci_ranks(6) == (1, 6)
        assert median_ci_ranks(25) == (8, 18)
        assert median_ci_ranks(200) == (86, 115)

    def test_coverage_at_least_level(self):
        for n in range(6, 120):
            r, s = median_ci_ranks(n)
            cover = 1 - 2 * float(
                sum(Fraction(comb(n, i)) for i in range(r)) * Fraction(1, 2) ** n
            )
            assert cover >= 0.95

    def test_ranks_match_scipy_binomial_search(self):
        # the float search over scipy's binomial CDF these ranks replaced
        binom = pytest.importorskip("scipy.stats").binom
        ns = np.arange(6, 1500)
        alpha2 = (1.0 - 0.95) / 2.0
        r = binom.ppf(alpha2, ns, 0.5).astype(int)
        while np.any(down := (r >= 1) & (binom.cdf(r - 1, ns, 0.5) > alpha2)):
            r -= down
        while np.any(up := binom.cdf(r, ns, 0.5) <= alpha2):
            r += up
        r = np.maximum(r, 1)
        for n, rank in zip(ns.tolist(), r.tolist()):
            assert median_ci_ranks(n) == (rank, n - rank + 1), n

    def test_bounds_are_sample_elements_and_bracket(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=rng.integers(6, 300))
            med, lo, hi = median_with_ci(x)
            assert lo in x and hi in x
            assert lo <= med <= hi

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 6"):
            median_with_ci(np.arange(5.0))

    def test_identical_samples_collapse(self):
        med, lo, hi = median_with_ci(np.full(50, 3.25))
        assert med == lo == hi == 3.25


def interval_score(lower, upper, alpha, observed):
    """The interval score of [lower, upper], read off the WIS of a one-interval
    forecast: WIS = (0.5 |y - median| + (alpha/2) IS) / 1.5."""
    median = min(max(observed, lower), upper)
    levels = np.array([alpha / 2, 0.5, 1 - alpha / 2])
    score = wis_batch(levels, np.array([[lower, median, upper]]), np.array([observed]))[0]
    return (1.5 * score - 0.5 * abs(observed - median)) / (alpha / 2)


def reference_wis(levels, values, y, alphas):
    """WIS of one forecast written term by term from the definition. It does
    not check that quantiles are sorted, so finite differences may unsort
    neighbouring ones without changing the score's piecewise-linear form."""
    total = 0.5 * abs(y - values[np.nonzero(levels == 0.5)[0][0]])
    for a in alphas:
        lo = values[np.nonzero(np.isclose(levels, a / 2))[0][0]]
        up = values[np.nonzero(np.isclose(levels, 1 - a / 2))[0][0]]
        term = up - lo
        if y < lo:
            term += (2 / a) * (lo - y)
        if y > up:
            term += (2 / a) * (y - up)
        total += (a / 2) * term
    return total / (len(alphas) + 0.5)


class TestIntervalScore:
    def test_inside_interval_scores_width(self):
        # l=1, u=3, alpha=0.5, y=2 -> width only
        assert interval_score(1.0, 3.0, 0.5, 2.0) == pytest.approx(2.0)

    def test_below_interval_penalty(self):
        # y=0 with alpha=0.2: width 2 plus penalty (2/0.2)*(1-0) = 12
        assert interval_score(1.0, 3.0, 0.2, 0.0) == pytest.approx(12.0)

    def test_endpoint_counts_as_covered(self):
        assert interval_score(1.0, 3.0, 0.5, 1.0) == pytest.approx(2.0)
        assert interval_score(1.0, 3.0, 0.5, 3.0) == pytest.approx(2.0)

    def test_crossed_interval_raises(self):
        with pytest.raises(ValueError, match="crossed"):
            interval_score(3.0, 1.0, 0.5, 2.0)

    def test_bad_alpha(self):
        # alpha 1.5 puts its ends at levels 0.75 and 0.25, out of order
        with pytest.raises(ValueError, match="level 0.5 does not exceed 0.75"):
            interval_score(0.0, 1.0, 1.5, 0.5)


def make_forecast(rng, scale=1.0, offset=0.0):
    levels = np.array(QUANTILE_LEVELS)
    values = np.sort(rng.normal(size=levels.size)) * scale + offset
    return levels, values


# the one-interval score at alpha = 0.5: levels 0.25, 0.5, 0.75
ONE_INTERVAL = np.array([0.25, 0.5, 0.75])
# the alphas of the 21-level grid, twice its levels below the median
ALPHAS = tuple(2.0 * level for level in QUANTILE_LEVELS if level < 0.5)
DENOMINATOR = len(ALPHAS) + 0.5


class TestWIS:
    def test_single_interval_worked_case(self):
        # K=1, alpha=0.5, quantiles {0.25: 1, 0.5: 2, 0.75: 3}, y=2:
        # (0.5*|2-2| + 0.25*((3-1))) / 1.5 = 1/3
        val = wis_batch(ONE_INTERVAL, np.array([[1.0, 2.0, 3.0]]), np.array([2.0]))[0]
        assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_required_levels_count(self):
        # the default score reads every level of the 21-level grid
        levels = np.array(QUANTILE_LEVELS)
        values = np.linspace(-10, 10, levels.size)
        g = wis_gradient_batch(levels, values[None], np.array([-0.05]))[0]
        assert levels.size == 21 and np.all(g != 0.0)
        assert len(_wis_layout(levels)[3]) == 10

    def test_missing_level_names_it(self):
        # 0.75 bounds an interval only with its mirror 0.25
        forecast, y = np.array([[2.0, 3.0]]), np.array([2.0])
        with pytest.raises(ValueError, match="0.25"):
            wis_batch(ONE_INTERVAL[1:], forecast, y)

    @pytest.mark.parametrize("levels, named", [
        ((0.1, 0.3, 0.2, 0.5, 0.8, 0.7, 0.9), "0.2"),  # mirrored, not increasing
        ((0.05, 0.25, 0.5, 0.75, 0.9), "0.9"),  # increasing, not mirrored
        ((0.25, 0.75), "0.25"),  # increasing and mirrored, no median
    ])
    def test_a_grid_that_is_no_set_of_intervals_names_a_level(self, levels, named):
        with pytest.raises(ValueError, match=rf"\b{re.escape(named)}\b"):
            wis_batch(np.array(levels), np.zeros((1, len(levels))), np.zeros(1))

    def test_perfect_point_mass_scores_zero(self):
        levels = np.array(QUANTILE_LEVELS)
        assert wis_batch(levels, np.full((1, levels.size), 7.0), np.array([7.0]))[0] == 0.0

    def test_nonnegative_and_zero_iff_all_equal_observation(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            levels, values = make_forecast(rng, scale=rng.uniform(0.5, 3))
            y = rng.normal()
            s = wis_batch(levels, values, np.array([y]))[0]
            assert s >= 0.0
            if s == 0.0:
                assert np.all(values == y)

    @settings(deadline=None, max_examples=60)
    @given(
        lam=st.floats(min_value=0.01, max_value=100.0),
        shift=st.floats(min_value=-50.0, max_value=50.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_homogeneity_and_translation_invariance(self, lam, shift, seed):
        rng = np.random.default_rng(seed)
        levels, values = make_forecast(rng)
        y = rng.normal()
        base = wis_batch(levels, values, np.array([y]))[0]
        scaled = wis_batch(levels, lam * values, np.array([lam * y]))[0]
        shifted = wis_batch(levels, values + shift, np.array([y + shift]))[0]
        assert scaled == pytest.approx(lam * base, rel=1e-12, abs=1e-12)
        assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_batch_matches_mapping_path(self):
        rng = np.random.default_rng(4)
        levels = np.array(QUANTILE_LEVELS)
        values = np.sort(rng.normal(size=(10, levels.size)), axis=1)
        ys = rng.normal(size=10)
        batch = wis_batch(levels, values, ys)
        for i in range(10):
            expect = reference_wis(levels, values[i], float(ys[i]), ALPHAS)
            assert batch[i] == pytest.approx(expect, rel=1e-12)

    def test_crossed_quantiles_raise(self):
        with pytest.raises(ValueError, match="crossed"):
            wis_batch(ONE_INTERVAL, np.array([[3.0, 2.0, 1.0]]), np.array([2.0]))

    def test_crossings_name_the_first_alpha_then_the_first_row(self):
        """Two alphas crossed in different rows: the error names the alpha
        that comes first on the grid, not the one crossed first by row, and
        the first crossed row of that alpha, as the per-interval loop
        does."""
        levels = np.array(QUANTILE_LEVELS)
        values = np.sort(np.random.default_rng(6).normal(size=(6, levels.size)), axis=1)
        swap = {0.1: 4, 0.5: 1}  # alpha 0.1 is crossed in row 4, alpha 0.5 in row 1
        for a, row in swap.items():
            lo = int(np.argmin(np.abs(levels - a / 2)))
            up = int(np.argmin(np.abs(levels - (1 - a / 2))))
            values[row, [lo, up]] = values[row, [up, lo]]
        values[5] = values[4]  # a second crossed row for alpha 0.1
        y = np.zeros(6)
        for score in (wis_batch, wis_per_interval):
            with pytest.raises(ValueError, match="alpha=0.1 in forecast row 4"):
                score(levels, values, y)


def wis_cases(rng):
    """(levels, values, observed) at N = 1, 32 and 500 on random sorted
    quantiles; the larger batches hold a row whose observation equals a
    quantile (the zero-subgradient kink) and a NaN row, and one case scores
    a single interval."""
    levels = np.array(QUANTILE_LEVELS)
    cases = []
    for n in (1, 32, 500):
        values = np.sort(rng.normal(size=(n, levels.size)) * 10.0, axis=1)
        observed = rng.normal(size=n) * 12.0
        if n > 1:
            # kinks: observations on a lower endpoint, an upper one, the median
            observed[0], observed[3], observed[-1] = values[0, 3], values[3, 17], values[-1, 10]
            values[1, 7] = np.nan
            observed[2] = np.nan
        cases.append((levels, values, observed))
    values = np.sort(rng.normal(size=(32, 3)), axis=1)
    observed = rng.normal(size=32)
    observed[0] = values[0, 0]
    cases.append((ONE_INTERVAL, values, observed))
    return cases


def test_batched_wis_and_subgradient_match_the_per_interval_loops_bitwise():
    for levels, values, observed in wis_cases(np.random.default_rng(12)):
        pairs = (
            (wis_batch, wis_per_interval),
            (wis_gradient_batch, wis_gradient_per_interval),
        )
        for batched, reference in pairs:
            got = batched(levels, values, observed)
            expect = reference(levels, values, observed)
            # bytes, so that a zero's sign and a NaN's place count too
            assert got.tobytes() == expect.tobytes(), (batched.__name__, len(values))


class TestWISGradient:
    def test_inside_all_intervals(self):
        """y strictly inside every interval: each lower endpoint gets -w_k/denom,
        each upper +w_k/denom, median term sign(m - y)."""
        levels = np.array(QUANTILE_LEVELS)
        values = np.linspace(-10, 10, levels.size)
        # y = -0.05 is strictly inside every interval and off every kink
        g = wis_gradient_batch(levels, values[None], np.array([-0.05]))[0]
        med = np.nonzero(levels == 0.5)[0][0]
        for a in ALPHAS:
            li = np.nonzero(np.isclose(levels, a / 2))[0][0]
            ui = np.nonzero(np.isclose(levels, 1 - a / 2))[0][0]
            assert g[li] == pytest.approx(-(a / 2) / DENOMINATOR)
            assert g[ui] == pytest.approx((a / 2) / DENOMINATOR)
        assert g[med] == pytest.approx(0.5 / DENOMINATOR)  # median 0 > y = -0.05

    def test_far_above_all_quantiles(self):
        levels = np.array(QUANTILE_LEVELS)
        values = np.linspace(-1, 1, levels.size)
        g = wis_gradient_batch(levels, values[None], np.array([100.0]))[0]
        for a in ALPHAS:
            ui = np.nonzero(np.isclose(levels, 1 - a / 2))[0][0]
            expect = -(a / 2) / DENOMINATOR * (2.0 / a - 1.0)
            assert g[ui] == pytest.approx(expect)

    def test_kink_subgradient_is_zero(self):
        g = wis_gradient_batch(ONE_INTERVAL, np.array([[1.0, 2.0, 3.0]]), np.array([1.0]))[0]
        # y == lower endpoint: indicator off, only the -w contribution remains
        assert g[0] == pytest.approx(-0.25 / 1.5)
        # median at a kink would use sign(0) = 0
        g2 = wis_gradient_batch(ONE_INTERVAL, np.array([[1.0, 2.0, 3.0]]), np.array([2.0]))[0]
        assert g2[1] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences_away_from_kinks(self, seed):
        rng = np.random.default_rng(1000 + seed)
        levels = np.array(QUANTILE_LEVELS)
        values = np.sort(rng.uniform(-1, 1, size=levels.size))
        y = float(rng.uniform(-1.5, 1.5))
        if np.min(np.abs(values - y)) < 1e-3:  # keep clear of kinks
            y += 2e-3
        analytic = wis_gradient_batch(levels, values[None], np.array([y]))[0]
        fd = finite_difference_gradient(lambda v: reference_wis(levels, v, y, ALPHAS), values)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)

    @settings(deadline=None, max_examples=80)
    @given(
        start=st.floats(min_value=-100.0, max_value=100.0),
        gaps=st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=20, max_size=20),
        segment=st.integers(min_value=-1, max_value=21),
        frac=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_subgradient_matches_central_differences_property(self, start, gaps, segment, frac):
        """On sorted quantiles with the observation kept away from every
        quantile, the subgradient equals central differences of wis_batch.
        The step is far below the smallest gap, so no difference crosses a
        kink or unsorts the quantiles, and WIS is linear in between."""
        levels = np.array(QUANTILE_LEVELS)
        values = start + np.concatenate([[0.0], np.cumsum(gaps)])
        if segment == -1:
            y = values[0] - frac * gaps[0]
        elif segment >= 20:
            y = values[-1] + frac * gaps[-1]
        else:
            y = values[segment] + frac * gaps[segment]
        step = 1e-3 * min(gaps)
        analytic = wis_gradient_batch(levels, values[None], np.array([y]))[0]
        numeric = np.empty_like(values)
        for i in range(values.size):
            up, down = values.copy(), values.copy()
            up[i] += step
            down[i] -= step
            diff = wis_batch(levels, np.stack([up, down]), np.array([y, y]))
            numeric[i] = (diff[0] - diff[1]) / (2.0 * step)
        # Scores stay below ~1e3, so rounding moves a difference quotient by
        # ~1e-12 / 5e-5 at most; one wrong branch moves an entry by at
        # least 2 * 0.01 / 10.5 ~ 2e-3.
        np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-6)
