"""Non-stationary Lorenz system, RK4 integration, candidates, dataset."""

import math

import numpy as np
import pytest

from attnpool.cli import LorenzDataConfig
from attnpool.lorenz import (
    BETA,
    CANDIDATE_RHOS,
    DT_SAMPLE,
    OSCILLATION_PERIOD,
    SIGMA,
    Trajectory,
    candidate_forecasts,
    candidate_one_step_batch,
    generate_dataset,
    integrate,
    load_trajectory_csv,
    nonstationary_params,
    rho_true,
    rk4_step,
    save_trajectory_csv,
    stationary_params,
)
from attnpool.lorenz import _deriv_scalar, _rk4_scalar


def one_sampling_step(u, rho):
    """Scalar reference for one candidate step: one recorded sample of the
    sequential integrator under stationary ``rho``."""
    return integrate(u, 0.0, 1, stationary_params(rho)).states[0]


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

    def test_rho_range(self):
        ts = np.linspace(0, 100, 5000)
        vals = np.array([rho_true(t) for t in ts])
        assert vals.min() >= 28.0 - 1e-9 and vals.max() <= 48.0 + 1e-9


class TestRK4:
    def test_origin_fixed_point_exact(self):
        out = rk4_step(np.zeros(3), 0.3, 0.01, nonstationary_params())
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_one_step_error_halves_like_2_to_5(self):
        params = nonstationary_params()
        u0 = np.array([1.0, 1.0, 1.0])

        def ref(T, dt_fine=1e-5):
            x, y, z = u0
            for k in range(round(T / dt_fine)):
                x, y, z = _rk4_scalar(x, y, z, k * dt_fine, dt_fine, params)
            return np.array([x, y, z])

        e_02 = np.linalg.norm(rk4_step(u0, 0.0, 0.02, params) - ref(0.02))
        e_01 = np.linalg.norm(rk4_step(u0, 0.0, 0.01, params) - ref(0.01))
        assert 24.0 < e_02 / e_01 < 40.0

    def test_agrees_with_fine_reference(self):
        # One dt=0.01 step carries ~2.2e-6 truncation error here (the fine
        # path itself matches an adaptive integrator at rtol=1e-13 to 5e-15).
        params = stationary_params(28.0)
        u0 = np.array([1.0, 1.0, 1.0])
        coarse = rk4_step(u0, 0.0, 0.01, params)
        x, y, z = u0
        for k in range(1000):
            x, y, z = _rk4_scalar(x, y, z, k * 1e-5, 1e-5, params)
        np.testing.assert_allclose(coarse, [x, y, z], atol=1e-5, rtol=0)

    def test_blow_up_detection(self):
        with pytest.raises(FloatingPointError, match="blew up"):
            rk4_step(np.array([1e150, 1e150, 1e150]), 0.0, 0.01, stationary_params(28.0))

    def test_batch_path_bit_identical_to_scalar(self):
        rng = np.random.default_rng(0)
        states = rng.uniform(-15, 15, size=(40, 3))
        states[:, 2] += 25
        for rho in (28.0, 38.0, 48.0):
            batch = candidate_one_step_batch(states.copy(), np.float64(rho))
            scalar = np.array([one_sampling_step(s, rho) for s in states])
            np.testing.assert_array_equal(batch, scalar)


class TestIntegrate:
    def test_zero_samples(self):
        traj = integrate(np.ones(3), 0.0, 0, stationary_params(28.0))
        assert len(traj) == 0

    def test_origin_stays_origin(self):
        traj = integrate(np.zeros(3), 0.0, 1, nonstationary_params())
        np.testing.assert_array_equal(traj.states[0], np.zeros(3))

    def test_sample_spacing_and_t0(self):
        traj = integrate(np.array([1.0, 1.0, 20.0]), 2.0, 5, stationary_params(30.0))
        assert traj.dt_sample == pytest.approx(0.1)
        np.testing.assert_allclose(traj.times, 2.1 + 0.1 * np.arange(5), atol=1e-12)

    def test_substep_composition(self):
        # one recorded sample equals 10 explicit substeps
        params = nonstationary_params()
        u = np.array([3.0, -4.0, 21.0])
        traj = integrate(u, 0.0, 1, params)
        x, y, z = u
        for k in range(10):
            x, y, z = _rk4_scalar(x, y, z, k * 0.01, 0.01, params)
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
        rho = np.array([rho_true(t) for t in small.train.times])
        w = 8
        sm = np.convolve(u3, np.ones(w) / w, mode="valid")
        r = np.corrcoef(sm, rho[w // 2 : w // 2 + len(sm)])[0, 1]
        assert r > 0.5


class TestTrajectoryCSV:
    def test_round_trip_bit_exact(self, tmp_path):
        traj = integrate(np.array([1.0, 1.0, 20.0]), 0.0, 20, nonstationary_params())
        path = tmp_path / "traj.csv"
        save_trajectory_csv(path, traj)
        back = load_trajectory_csv(path)
        np.testing.assert_array_equal(back.states, traj.states)
        assert back.dt_sample == pytest.approx(traj.dt_sample)
        assert back.t0 == pytest.approx(traj.t0)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n5,6,7,8\n")
        with pytest.raises(ValueError, match="header"):
            load_trajectory_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.2,1,2", r"row 3: expected 4 fields, got 3"),
            ("0.2,1,x,3", r"row 3: non-numeric value"),
            ("0.2,1,nan,3", r"row 3: non-finite value"),
            ("inf,1,2,3", r"row 3: non-finite value"),
        ],
    )
    def test_malformed_row_names_file_and_row(self, tmp_path, row, message):
        path = tmp_path / "traj.csv"
        path.write_text(f"t,u1,u2,u3\n0.1,1,2,3\n{row}\n0.3,1,2,3\n")
        with pytest.raises(ValueError, match=message) as err:
            load_trajectory_csv(path)
        assert str(path) in str(err.value)

    def test_times_column(self, tmp_path):
        traj = Trajectory(t0=0.5, dt_sample=0.1, states=np.arange(9.0).reshape(3, 3))
        path = tmp_path / "t.csv"
        save_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,u1,u2,u3"
        assert lines[1].startswith("0.5,0,1,2")
