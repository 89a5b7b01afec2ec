"""Non-stationary Lorenz system, RK4 integration, candidates, dataset."""

import hashlib
import math
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from attnpool.cli import LorenzDataConfig, validate_config
from attnpool.lorenz import (
    BETA,
    CANDIDATE_RHOS,
    DT_INTEGRATION,
    DT_SAMPLE,
    LANE_BLOCK,
    OSCILLATION_PERIOD,
    SIGMA,
    SUBSTEPS,
    candidate_forecasts,
    candidate_one_step_batch,
    generate_dataset,
    integrate,
    rho_true,
)


# Reference oracle: the RK4 step as plain helper calls on floats, one
# derivative per stage, in the expression order both library paths keep.


def _deriv_scalar(x, y, z, r, sigma=SIGMA, beta=BETA):
    return sigma * (y - x), x * (r - z) - y, x * y - beta * z


def _rk4_scalar(x, y, z, t, dt, rho):
    ax, ay, az = _deriv_scalar(x, y, z, rho(t))
    half = dt / 2.0
    r_half = rho(t + half)
    bx, by, bz = _deriv_scalar(x + half * ax, y + half * ay, z + half * az, r_half)
    cx, cy, cz = _deriv_scalar(x + half * bx, y + half * by, z + half * bz, r_half)
    dx, dy, dz = _deriv_scalar(x + dt * cx, y + dt * cy, z + dt * cz, rho(t + dt))
    sixth = dt / 6.0
    return (
        x + sixth * (ax + 2.0 * bx + 2.0 * cx + dx),
        y + sixth * (ay + 2.0 * by + 2.0 * cy + dy),
        z + sixth * (az + 2.0 * bz + 2.0 * cz + dz),
    )


def oracle_samples(u, t0, n_samples, rho):
    """``integrate`` written with the oracle: (n_samples, 3), no blow-up check."""
    x, y, z = (float(v) for v in u)
    out = []
    step = 0
    for _ in range(n_samples):
        for _ in range(SUBSTEPS):
            x, y, z = _rk4_scalar(x, y, z, t0 + step * DT_INTEGRATION, DT_INTEGRATION, rho)
            step += 1
        out.append([x, y, z])
    return np.array(out)


def frozen(rho):
    """The driving parameter of a stationary system: ``rho`` at every time."""
    return lambda t: rho


def rk4_step(u, t, dt, rho):
    """One RK4 step of ``integrate``: one sample of one substep."""
    return integrate(u, t, 1, rho, dt=dt, substeps=1).states[0]


def one_sampling_step(u, rho):
    """Scalar reference for one candidate step: one recorded sample of the
    sequential integrator under stationary ``rho``."""
    return integrate(u, 0.0, 1, frozen(rho)).states[0]


def attractor_states(rng, n):
    states = rng.uniform(-15, 15, size=(n, 3))
    states[:, 2] += 25
    return states


class TestDerivativeAndRho:
    def test_origin_is_fixed_point_of_rhs(self):
        d = _deriv_scalar(0.0, 0.0, 0.0, rho_true(1.7), SIGMA, BETA)
        np.testing.assert_array_equal(d, np.zeros(3))

    def test_hand_substituted_value(self):
        # u = (-5, 3, 20) at stationary rho 28:
        # (10*(3+5), -5*(28-20)-3, -15 - (8/3)*20)
        d = _deriv_scalar(-5.0, 3.0, 20.0, 28.0, SIGMA, BETA)
        np.testing.assert_allclose(d, [80.0, -43.0, -15.0 - 160.0 / 3.0], rtol=1e-15)

    def test_constants(self):
        assert SIGMA == 10.0 and BETA == pytest.approx(8.0 / 3.0)
        assert CANDIDATE_RHOS == tuple(range(28, 49, 2))
        assert len(CANDIDATE_RHOS) == 11

    def test_rho_extremes(self):
        assert rho_true(0.0) == pytest.approx(28.0)
        assert rho_true(OSCILLATION_PERIOD / 2) == pytest.approx(48.0)
        assert rho_true(OSCILLATION_PERIOD / 4) == pytest.approx(38.0, abs=1e-12)

    def test_rho_periodicity(self):
        for t in np.linspace(0.0, 40.0, 157):
            assert abs(rho_true(t + OSCILLATION_PERIOD) - rho_true(t)) < 1e-12

    def test_rho_over_an_array_keeps_the_scalar_bits(self):
        """``integrate`` evaluates rho over blocks of stage times; each value
        keeps the bits of the formula on one float with libm's cosine."""
        t = -20.0 + np.arange(50_000) * DT_INTEGRATION
        for times in (t, t + DT_INTEGRATION / 2.0, t + DT_INTEGRATION):
            expected = [
                38.0 - 10.0 * math.cos(2.0 * math.pi * s / OSCILLATION_PERIOD)
                for s in times.tolist()
            ]
            np.testing.assert_array_equal(rho_true(times), expected)

    def test_rho_range(self):
        ts = np.linspace(0, 100, 5000)
        vals = np.array([rho_true(t) for t in ts])
        assert vals.min() >= 28.0 - 1e-9 and vals.max() <= 48.0 + 1e-9


class TestRK4:
    def test_origin_fixed_point_exact(self):
        out = rk4_step(np.zeros(3), 0.3, 0.01, rho_true)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_one_step_error_halves_like_2_to_5(self):
        u0 = np.array([1.0, 1.0, 1.0])

        def ref(T, dt_fine=1e-5):
            x, y, z = u0
            for k in range(round(T / dt_fine)):
                x, y, z = _rk4_scalar(x, y, z, k * dt_fine, dt_fine, rho_true)
            return np.array([x, y, z])

        e_02 = np.linalg.norm(rk4_step(u0, 0.0, 0.02, rho_true) - ref(0.02))
        e_01 = np.linalg.norm(rk4_step(u0, 0.0, 0.01, rho_true) - ref(0.01))
        assert 24.0 < e_02 / e_01 < 40.0

    def test_agrees_with_fine_reference(self):
        # One dt=0.01 step carries ~2.2e-6 truncation error here (the fine
        # path itself matches an adaptive integrator at rtol=1e-13 to 5e-15).
        rho = frozen(28.0)
        u0 = np.array([1.0, 1.0, 1.0])
        coarse = rk4_step(u0, 0.0, 0.01, rho)
        x, y, z = u0
        for k in range(1000):
            x, y, z = _rk4_scalar(x, y, z, k * 1e-5, 1e-5, rho)
        np.testing.assert_allclose(coarse, [x, y, z], atol=1e-5, rtol=0)

    def test_blow_up_detection(self):
        with pytest.raises(FloatingPointError, match="blew up"):
            rk4_step(np.array([1e150, 1e150, 1e150]), 0.0, 0.01, frozen(28.0))

    def test_batch_path_bit_identical_to_scalar(self):
        rng = np.random.default_rng(0)
        states = rng.uniform(-15, 15, size=(40, 3))
        states[:, 2] += 25
        for rho in (28.0, 38.0, 48.0):
            batch = candidate_one_step_batch(states.copy(), np.float64(rho))
            scalar = np.array([one_sampling_step(s, rho) for s in states])
            np.testing.assert_array_equal(batch, scalar)
            assert batch.flags.c_contiguous


class TestKernelsAgainstOracle:
    """Both RK4 paths keep the oracle's operations and their order, so they
    match it bit for bit."""

    @pytest.mark.parametrize(
        "params, t0",
        [
            ({"rho": frozen(28.0)}, 0.0),
            ({"rho": frozen(41.0)}, 3.7),
            ({"rho": rho_true}, 0.0),
            ({"rho": rho_true}, -12.3),
        ],
    )
    def test_integrate_equals_the_oracle(self, params, t0):
        u = np.array([3.0, -4.0, 21.0])
        expected = oracle_samples(u, t0, 40, **params)
        np.testing.assert_array_equal(integrate(u, t0, 40, **params).states, expected)

    def test_rk4_step_equals_one_oracle_step(self):
        u = np.array([-7.5, 2.25, 30.0])
        expected = _rk4_scalar(*u, -0.37, 0.01, rho_true)
        np.testing.assert_array_equal(rk4_step(u, -0.37, 0.01, rho_true), expected)

    def test_stepper_on_a_broadcast_candidate_view(self):
        """The closed loop's call: each state tiled over the candidates."""
        states = attractor_states(np.random.default_rng(1), 30)
        rhos = np.asarray(CANDIDATE_RHOS)
        tiled = np.broadcast_to(states[:, None, :], (30, len(rhos), 3))
        out = candidate_one_step_batch(tiled, rhos[None, :])
        assert out.shape == tiled.shape and out.flags.c_contiguous
        expected = np.array([[one_sampling_step(s, rho) for rho in rhos] for s in states])
        np.testing.assert_array_equal(out, expected)

    def test_stepper_over_more_than_one_lane_block(self):
        """Each lane keeps its own state and rho across the block edges."""
        n = 2 * LANE_BLOCK + 37
        states = attractor_states(np.random.default_rng(2), n)
        rhos = np.resize(CANDIDATE_RHOS, n)
        out = candidate_one_step_batch(states, rhos)
        assert out.flags.c_contiguous
        expected = np.array([one_sampling_step(s, rho) for s, rho in zip(states, rhos)])
        np.testing.assert_array_equal(out, expected)

    def test_blown_up_lanes_match_the_oracle(self):
        """Lanes that overflow give NaN and inf where the oracle does."""
        states = np.random.default_rng(3).uniform(-4000, 4000, size=(300, 3))
        states[0] = (-12.0, 3200.0, -4.0)  # overflows to (finite, inf, inf)
        out = candidate_one_step_batch(states, 28.0)
        rho = frozen(28.0)
        expected = np.array([oracle_samples(s, 0.0, 1, rho)[0] for s in states])
        assert np.isinf(out).any() and np.isnan(out).any() and np.isfinite(out).any()
        np.testing.assert_array_equal(out, expected)

    def test_stepper_scratch_memory_stays_below_four_results(self):
        """The stage buffers are lane blocks, not full-width copies."""
        states = attractor_states(np.random.default_rng(4), 3999)
        rhos = np.asarray(CANDIDATE_RHOS)
        tiled = np.broadcast_to(states[:, None, :], (3999, len(rhos), 3))
        tracemalloc.start()
        try:
            out = candidate_one_step_batch(tiled, rhos[None, :])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * out.nbytes, f"peak {peak} B for a {out.nbytes} B result"


class TestIntegrate:
    def test_zero_samples(self):
        traj = integrate(np.ones(3), 0.0, 0, frozen(28.0))
        assert len(traj) == 0

    def test_origin_stays_origin(self):
        traj = integrate(np.zeros(3), 0.0, 1, rho_true)
        np.testing.assert_array_equal(traj.states[0], np.zeros(3))

    def test_sample_spacing_and_t0(self):
        traj = integrate(np.array([1.0, 1.0, 20.0]), 2.0, 5, frozen(30.0))
        assert traj.dt_sample == pytest.approx(0.1)
        times = traj.t0 + traj.dt_sample * np.arange(len(traj))
        np.testing.assert_allclose(times, 2.1 + 0.1 * np.arange(5), atol=1e-12)

    def test_substep_composition(self):
        # one recorded sample equals 10 explicit substeps
        u = np.array([3.0, -4.0, 21.0])
        traj = integrate(u, 0.0, 1, rho_true)
        x, y, z = u
        for k in range(10):
            x, y, z = _rk4_scalar(x, y, z, k * 0.01, 0.01, rho_true)
        np.testing.assert_array_equal(traj.states[0], [x, y, z])

    def test_frozen_rho_candidate_has_zero_one_step_error(self):
        # truth frozen at rho=28 and the rho=28 candidate share the dynamics
        u = np.array([1.0, 2.0, 25.0])
        truth_next = one_sampling_step(u, 28.0)
        candidate = candidate_one_step_batch(u[None], 28.0)[0]
        np.testing.assert_array_equal(candidate, truth_next)


class TestCandidates:
    def test_spread_monotone_in_rho_for_u2(self):
        # du2/dt = u1 (rho - u3) - u2: from (1,1,1) larger rho pushes u2 up
        u = np.array([1.0, 1.0, 1.0])
        nexts = np.array([one_sampling_step(u, r) for r in CANDIDATE_RHOS])
        u2 = nexts[:, 1]
        assert np.all(np.diff(u2) > 0)

    def test_candidate_forecasts_alignment(self):
        rng = np.random.default_rng(3)
        states = rng.uniform(-10, 10, size=(6, 3))
        states[:, 2] += 25
        cand = candidate_forecasts(states)
        assert cand.shape == (6, 11, 3)
        assert np.all(np.isnan(cand[0]))
        for j in range(1, 6):
            for m, rho in enumerate(CANDIDATE_RHOS):
                np.testing.assert_array_equal(
                    cand[j, m], one_sampling_step(states[j - 1], rho)
                )


@pytest.fixture(scope="module")
def small():
    return generate_dataset(
        seed=77, t_transient=20.0, t_train=40.0, t_val=64.0,
        n_val_segments=4, segment_len=32, warmup=8,
    )


class TestDataset:

    def test_counts_and_spacing(self, small):
        assert len(small.train) == 400
        assert len(small.validation) == 8 + 640
        assert small.segment_starts == [8, 168, 328, 488]
        assert small.segment_len == 32
        assert small.segment_starts[-1] + small.segment_len <= len(small.validation)

    def test_recording_starts_at_zero(self, small):
        assert small.train.t0 == 0.0
        assert small.validation.t0 == 0.0

    def test_train_and_validation_independent(self, small):
        assert not np.allclose(small.train.states[:400], small.validation.states[:400])

    def test_deterministic(self):
        warmup = LorenzDataConfig().warmup
        a = generate_dataset(seed=5, t_transient=10.0, t_train=20.0, t_val=32.0,
                             n_val_segments=2, segment_len=16, warmup=warmup)
        b = generate_dataset(seed=5, t_transient=10.0, t_train=20.0, t_val=32.0,
                             n_val_segments=2, segment_len=16, warmup=warmup)
        np.testing.assert_array_equal(a.train.states, b.train.states)
        np.testing.assert_array_equal(a.validation.states, b.validation.states)

    def test_smoke_config_data_keep_their_bits(self):
        """Pinned digest of the data ``configs/lorenz_smoke.yaml`` runs on.
        Generation is plain float arithmetic and libm's cosine, with no
        BLAS, so the digest holds wherever those are IEEE-exact."""
        config = Path(__file__).resolve().parent.parent / "configs" / "lorenz_smoke.yaml"
        cfg = validate_config(config)
        ds = generate_dataset(seed=cfg.seed, **asdict(cfg.data))
        digest = hashlib.sha256(
            ds.train.states.tobytes() + ds.validation.states.tobytes()
        ).hexdigest()
        assert digest == "598477ac85701088284290ebe7240c23ab979c1c9c5bf23309b624b7dd0336db"

    def test_bounded_after_transient(self, small):
        assert np.abs(small.train.states).max() < 100.0
        assert np.abs(small.validation.states).max() < 100.0

    def test_uneven_split_rejected(self):
        data = LorenzDataConfig()
        with pytest.raises(ValueError, match="evenly"):
            generate_dataset(
                seed=1, t_transient=data.t_transient, t_train=data.t_train, t_val=63.0,
                n_val_segments=4, segment_len=32, warmup=data.warmup,
            )

    def test_u3_windowed_mean_tracks_rho(self, small):
        """The attractor's vertical extent follows the parameter sweep: the
        centered 8-sample running mean of u3 correlates with rho(t)."""
        u3 = small.train.states[:, 2]
        times = small.train.t0 + small.train.dt_sample * np.arange(len(small.train))
        rho = np.array([rho_true(t) for t in times])
        w = 8
        sm = np.convolve(u3, np.ones(w) / w, mode="valid")
        r = np.corrcoef(sm, rho[w // 2 : w // 2 + len(sm)])[0, 1]
        assert r > 0.5
