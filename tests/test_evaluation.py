"""Valid time, Conover median CIs, interval score and WIS."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnpool.evaluation import (
    ValidTimeConfig,
    WISConfig,
    interval_score,
    median_ci_ranks,
    median_with_ci,
    valid_time,
    wis,
    wis_batch,
    wis_gradient,
)
from attnpool.numerics import finite_difference_gradient


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
        cfg = ValidTimeConfig(epsilon=1.0, dt=0.5)
        truth = np.zeros((4, 1))
        pred = np.array([[0.0], [0.5], [2.0], [0.0]])
        assert valid_time(pred, truth, cfg) == pytest.approx(1.0)


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
        for level in (0.8, 0.9, 0.95, 0.99):
            alpha2 = (1.0 - level) / 2.0
            r = binom.ppf(alpha2, ns, 0.5).astype(int)
            while np.any(down := (r >= 1) & (binom.cdf(r - 1, ns, 0.5) > alpha2)):
                r -= down
            while np.any(up := binom.cdf(r, ns, 0.5) <= alpha2):
                r += up
            r = np.maximum(r, 1)
            for n, rank in zip(ns.tolist(), r.tolist()):
                assert median_ci_ranks(n, level) == (rank, n - rank + 1), (n, level)

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
        with pytest.raises(ValueError, match="alpha"):
            interval_score(0.0, 1.0, 1.5, 0.5)


def make_forecast(rng, scale=1.0, offset=0.0):
    cfg = WISConfig()
    levels = np.array(cfg.required_levels)
    values = np.sort(rng.normal(size=levels.size)) * scale + offset
    return levels, values


class TestWIS:
    def test_single_interval_worked_case(self):
        # K=1, alpha=0.5, quantiles {0.25: 1, 0.5: 2, 0.75: 3}, y=2:
        # (0.5*|2-2| + 0.25*((3-1))) / 1.5 = 1/3
        cfg = WISConfig(alphas=(0.5,))
        val = wis({0.25: 1.0, 0.5: 2.0, 0.75: 3.0}, 2.0, cfg)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_required_levels_count(self):
        assert len(WISConfig().required_levels) == 21
        assert WISConfig().denominator == pytest.approx(10.5)

    def test_missing_level_names_it(self):
        cfg = WISConfig(alphas=(0.5,))
        with pytest.raises(ValueError, match="0.25"):
            wis({0.5: 2.0, 0.75: 3.0}, 2.0, cfg)

    def test_perfect_point_mass_scores_zero(self):
        cfg = WISConfig()
        q = {lv: 7.0 for lv in cfg.required_levels}
        assert wis(q, 7.0, cfg) == 0.0

    def test_nonnegative_and_zero_iff_all_equal_observation(self):
        rng = np.random.default_rng(3)
        cfg = WISConfig()
        for _ in range(40):
            levels, values = make_forecast(rng, scale=rng.uniform(0.5, 3))
            y = rng.normal()
            s = wis_batch(levels, values, np.array([y]), cfg)[0]
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
        cfg = WISConfig()
        levels = np.array(cfg.required_levels)
        values = np.sort(rng.normal(size=(10, levels.size)), axis=1)
        ys = rng.normal(size=10)
        batch = wis_batch(levels, values, ys, cfg)
        for i in range(10):
            mapping = dict(zip(levels.tolist(), values[i].tolist()))
            assert batch[i] == pytest.approx(wis(mapping, float(ys[i]), cfg), rel=1e-12)

    def test_crossed_quantiles_raise(self):
        cfg = WISConfig(alphas=(0.5,))
        levels = np.array([0.25, 0.5, 0.75])
        with pytest.raises(ValueError, match="crossed"):
            wis_batch(levels, np.array([[3.0, 2.0, 1.0]]), np.array([2.0]), cfg)


class TestWISGradient:
    def test_inside_all_intervals(self):
        """y strictly inside every interval: each lower endpoint gets -w_k/denom,
        each upper +w_k/denom, median term sign(m - y)."""
        cfg = WISConfig()
        levels = np.array(cfg.required_levels)
        values = np.linspace(-10, 10, levels.size)
        g = wis_gradient(levels, values, -0.05, cfg)  # strictly inside, off every kink
        med = np.nonzero(levels == 0.5)[0][0]
        for k, a in enumerate(cfg.alphas):
            li = np.nonzero(np.isclose(levels, a / 2))[0][0]
            ui = np.nonzero(np.isclose(levels, 1 - a / 2))[0][0]
            assert g[li] == pytest.approx(-(a / 2) / cfg.denominator)
            assert g[ui] == pytest.approx((a / 2) / cfg.denominator)
        assert g[med] == pytest.approx(0.5 / cfg.denominator)  # median 0 > y = -0.05

    def test_far_above_all_quantiles(self):
        cfg = WISConfig()
        levels = np.array(cfg.required_levels)
        values = np.linspace(-1, 1, levels.size)
        g = wis_gradient(levels, values, 100.0, cfg)
        for a in cfg.alphas:
            ui = np.nonzero(np.isclose(levels, 1 - a / 2))[0][0]
            expect = -(a / 2) / cfg.denominator * (2.0 / a - 1.0)
            assert g[ui] == pytest.approx(expect)

    def test_kink_subgradient_is_zero(self):
        cfg = WISConfig(alphas=(0.5,))
        levels = np.array([0.25, 0.5, 0.75])
        g = wis_gradient(levels, np.array([1.0, 2.0, 3.0]), 1.0, cfg)
        # y == lower endpoint: indicator off, only the -w contribution remains
        assert g[0] == pytest.approx(-0.25 / 1.5)
        # median at a kink would use sign(0) = 0
        g2 = wis_gradient(levels, np.array([1.0, 2.0, 3.0]), 2.0, cfg)
        assert g2[1] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences_away_from_kinks(self, seed):
        rng = np.random.default_rng(1000 + seed)
        cfg = WISConfig()
        levels = np.array(cfg.required_levels)
        values = np.sort(rng.uniform(-1, 1, size=levels.size))
        y = float(rng.uniform(-1.5, 1.5))
        if np.min(np.abs(values - y)) < 1e-3:  # keep clear of kinks
            y += 2e-3
        analytic = wis_gradient(levels, values, y, cfg)

        def loss(v):
            # bypass the crossing check: finite differencing may locally
            # unsort neighbouring quantiles without changing the score's
            # piecewise-linear form
            total = 0.5 * abs(y - v[np.nonzero(levels == 0.5)[0][0]])
            for a in cfg.alphas:
                li = np.nonzero(np.isclose(levels, a / 2))[0][0]
                ui = np.nonzero(np.isclose(levels, 1 - a / 2))[0][0]
                term = v[ui] - v[li]
                if y < v[li]:
                    term += (2 / a) * (v[li] - y)
                if y > v[ui]:
                    term += (2 / a) * (y - v[ui])
                total += (a / 2) * term
            return total / cfg.denominator

        fd = finite_difference_gradient(loss, values)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)
