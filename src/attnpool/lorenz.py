"""Non-stationary Lorenz '63 system, classical RK4 integration, and the
candidate-model ensemble used by the pooling experiments.

The true system drives the usual Lorenz equations with a time-dependent
third parameter sweeping 28..48 sinusoidally; the M = 11 candidate models
are stationary Lorenz systems at fixed parameter values 28, 30, ..., 48.
Integration uses dt = 0.01 with 10 substeps per recorded sample
(sampling interval 0.1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .numerics import Array, spawn_rng

SIGMA = 10.0
BETA = 8.0 / 3.0
OSCILLATION_PERIOD = 1.577132   # period of the parameter sweep
RHO_MEAN = 38.0
RHO_AMPLITUDE = 10.0
CANDIDATE_RHOS = tuple(float(r) for r in range(28, 49, 2))  # 11 models

DT_INTEGRATION = 0.01
SUBSTEPS = 10
DT_SAMPLE = DT_INTEGRATION * SUBSTEPS  # 0.1

# initial-condition box near the attractor
IC_LOW = (-10.0, -15.0, 10.0)
IC_HIGH = (10.0, 15.0, 40.0)


def rho_true(t: float) -> float:
    """Time-dependent driving parameter: 38 - 10 cos(2 pi t / T)."""
    return RHO_MEAN - RHO_AMPLITUDE * math.cos(2.0 * math.pi * t / OSCILLATION_PERIOD)


@dataclass
class LorenzParams:
    sigma: float
    beta: float
    rho: Callable[[float], float]


def stationary_params(rho_value: float) -> LorenzParams:
    rho_value = float(rho_value)
    return LorenzParams(SIGMA, BETA, lambda t: rho_value)


def nonstationary_params() -> LorenzParams:
    return LorenzParams(SIGMA, BETA, rho_true)


# The sequential integrator runs on plain floats: a 3-vector RK4 step in
# numpy spends nearly all its time on array bookkeeping. The batched path
# below mirrors the same expression structure exactly, so both produce
# bit-identical IEEE results (asserted in the tests).


def _deriv_scalar(x, y, z, r, sigma, beta):
    return sigma * (y - x), x * (r - z) - y, x * y - beta * z


def _rk4_scalar(x, y, z, t, dt, params):
    sigma, beta, rho = params.sigma, params.beta, params.rho
    ax, ay, az = _deriv_scalar(x, y, z, rho(t), sigma, beta)
    half = dt / 2.0
    bx, by, bz = _deriv_scalar(x + half * ax, y + half * ay, z + half * az, rho(t + half), sigma, beta)
    cx, cy, cz = _deriv_scalar(x + half * bx, y + half * by, z + half * bz, rho(t + half), sigma, beta)
    dx, dy, dz = _deriv_scalar(x + dt * cx, y + dt * cy, z + dt * cz, rho(t + dt), sigma, beta)
    sixth = dt / 6.0
    return (
        x + sixth * (ax + 2.0 * bx + 2.0 * cx + dx),
        y + sixth * (ay + 2.0 * by + 2.0 * cy + dy),
        z + sixth * (az + 2.0 * bz + 2.0 * cz + dz),
    )


def rk4_step(u: Array, t: float, dt: float, params: LorenzParams) -> Array:
    """One classical RK4 step with the driving parameter evaluated at the
    stage times t, t + dt/2, t + dt. Raises on blow-up."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (3,):
        raise ValueError(f"state must have shape (3,), got {u.shape}")
    x, y, z = _rk4_scalar(float(u[0]), float(u[1]), float(u[2]), t, dt, params)
    out = np.array([x, y, z])
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(
            f"integration blew up: state {out} after step from t={t}"
        )
    return out


def _rk4_batch(states: Array, dt: float, rho_values: Array, sigma=SIGMA, beta=BETA) -> Array:
    """RK4 for a batch of states under *stationary* parameter values.

    ``states`` is (..., 3); ``rho_values`` broadcasts against the leading
    axes. Expression structure matches ``_rk4_scalar`` exactly so the two
    paths agree bitwise.
    """
    x, y, z = states[..., 0], states[..., 1], states[..., 2]
    r = rho_values

    def deriv(x, y, z):
        return sigma * (y - x), x * (r - z) - y, x * y - beta * z

    ax, ay, az = deriv(x, y, z)
    half = dt / 2.0
    bx, by, bz = deriv(x + half * ax, y + half * ay, z + half * az)
    cx, cy, cz = deriv(x + half * bx, y + half * by, z + half * bz)
    dx, dy, dz = deriv(x + dt * cx, y + dt * cy, z + dt * cz)
    sixth = dt / 6.0
    return np.stack(
        [
            x + sixth * (ax + 2.0 * bx + 2.0 * cx + dx),
            y + sixth * (ay + 2.0 * by + 2.0 * cy + dy),
            z + sixth * (az + 2.0 * bz + 2.0 * cz + dz),
        ],
        axis=-1,
    )


@dataclass
class Trajectory:
    """Uniformly sampled states: ``states[j]`` is the state at t0 + j dt."""

    t0: float
    dt_sample: float
    states: Array  # (n, 3)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def times(self) -> Array:
        return self.t0 + np.arange(len(self.states)) * self.dt_sample


def integrate(
    u0: Array,
    t0: float,
    n_samples: int,
    params: LorenzParams,
    dt: float = DT_INTEGRATION,
    substeps: int = SUBSTEPS,
) -> Trajectory:
    """Record ``n_samples`` states after ``u0``, ``substeps`` RK4 steps apart.

    ``u0`` itself is not included; the returned trajectory starts at
    t0 + substeps * dt.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != (3,):
        raise ValueError(f"initial state must have shape (3,), got {u0.shape}")
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    x, y, z = float(u0[0]), float(u0[1]), float(u0[2])
    out = np.empty((n_samples, 3))
    step = 0
    for j in range(n_samples):
        for _ in range(substeps):
            t = t0 + step * dt  # multiplicative time to avoid accumulation drift
            x, y, z = _rk4_scalar(x, y, z, t, dt, params)
            step += 1
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise FloatingPointError(f"integration blew up at sample {j}")
        out[j, 0], out[j, 1], out[j, 2] = x, y, z
    return Trajectory(t0=t0 + substeps * dt, dt_sample=dt * substeps, states=out)


def candidate_one_step_batch(states: Array, rho_values: Array) -> Array:
    """Vectorized one-sampling-step candidate forecasts.

    ``states`` (..., 3) and ``rho_values`` broadcastable to its leading axes;
    non-finite outputs are returned as-is (callers decide how to truncate).
    """
    states = np.asarray(states, dtype=np.float64)
    rho_values = np.asarray(rho_values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SUBSTEPS):
            states = _rk4_batch(states, DT_INTEGRATION, rho_values)
    return states


def candidate_forecasts(states: Array, rhos=CANDIDATE_RHOS) -> Array:
    """One-step forecasts of every candidate from every state of a series.

    Returns ``cand`` of shape (n, M, 3) where ``cand[j, m]`` is candidate m's
    forecast *for* index j, i.e. one sampling step from ``states[j-1]``.
    Row 0 has no predecessor and is NaN.
    """
    states = np.asarray(states, dtype=np.float64)
    n = len(states)
    rhos = np.asarray(rhos, dtype=np.float64)
    cand = np.full((n, len(rhos), 3), np.nan)
    if n > 1:
        tiled = np.broadcast_to(states[:-1, None, :], (n - 1, len(rhos), 3)).copy()
        cand[1:] = candidate_one_step_batch(tiled, rhos[None, :])
    return cand


# ---------------------------------------------------------------------------
# dataset generation


@dataclass
class LorenzDataset:
    """Training trajectory plus a tiled validation run.

    ``segment_starts`` index into ``validation.states``; each scored segment
    is ``segment_len`` samples, and the ``warmup`` samples before the first
    start exist only to initialize closed-loop forecasts.
    """

    train: Trajectory
    validation: Trajectory
    segment_starts: list[int]
    segment_len: int
    warmup: int


def _random_ic(rng: np.random.Generator) -> Array:
    return rng.uniform(IC_LOW, IC_HIGH)


def _record_from_zero(rng, n_samples: int, t_transient: float, params) -> Trajectory:
    """Integrate a transient over negative times, then record from t = 0.

    Recording starts exactly where the transient ends, so the driving
    parameter is continuous and rho(0) = 28 at the first recorded sample.
    """
    n_trans = round(t_transient / DT_SAMPLE)
    trans = integrate(_random_ic(rng), -t_transient, n_trans, params)
    u_star = trans.states[-1]  # state at t ~ 0
    rest = integrate(u_star, 0.0, n_samples - 1, params)
    states = np.vstack([u_star, rest.states])
    return Trajectory(t0=0.0, dt_sample=DT_SAMPLE, states=states)


def _dataset_layout(
    t_train: float, t_val: float, n_val_segments: int, segment_len: int, warmup: int
) -> tuple[int, int, list[int]]:
    """Sample counts of the training and validation runs, and the segment
    starts in the validation run: ``warmup`` samples, then ``n_val_segments``
    evenly spaced segments of ``segment_len`` samples.

    Raises ValueError as ``<argument>: <problem>``.
    """
    n_val = round(t_val / DT_SAMPLE)
    if n_val % n_val_segments != 0:
        raise ValueError(
            f"n_val_segments: {n_val} validation samples do not split evenly "
            f"into {n_val_segments} segments"
        )
    spacing = n_val // n_val_segments
    if segment_len > spacing:
        raise ValueError(f"segment_len: {segment_len} exceeds the segment spacing {spacing}")
    starts = [warmup + k * spacing for k in range(n_val_segments)]
    return round(t_train / DT_SAMPLE), warmup + n_val, starts


def generate_dataset(
    *,
    seed: int,
    t_transient: float,
    t_train: float,
    t_val: float,
    n_val_segments: int,
    segment_len: int,
    warmup: int,
) -> LorenzDataset:
    """Training run plus an independent validation run cut into segments.

    The arguments are the ``data`` keys of a Lorenz config, whose defaults
    (``cli.LorenzDataConfig``) give 4000 training samples and a 25,600-sample
    validation run tiled by 200 segments of 128 samples (spacing 128). Each
    run discards its own transient and records from t = 0 with a fresh
    initial condition drawn from the attractor box.
    """
    params = nonstationary_params()
    n_train, n_validation, starts = _dataset_layout(
        t_train, t_val, n_val_segments, segment_len, warmup
    )
    if warmup < 1:
        raise ValueError("warmup must be >= 1 (closed-loop forecasts need history)")

    train = _record_from_zero(spawn_rng(seed, "lorenz-train-ic"), n_train, t_transient, params)
    validation = _record_from_zero(
        spawn_rng(seed, "lorenz-validation-ic"), n_validation, t_transient, params
    )
    return LorenzDataset(
        train=train,
        validation=validation,
        segment_starts=starts,
        segment_len=segment_len,
        warmup=warmup,
    )


# ---------------------------------------------------------------------------
# trajectory CSV (t, u1, u2, u3; 17 significant digits round-trips float64)


def save_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "u1", "u2", "u3"])
        for t, row in zip(traj.times, traj.states):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


def load_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a trajectory CSV; errors name the file and the 1-based CSV row
    (the header is row 1). Blank lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "u1", "u2", "u3"]:
            raise ValueError(f"unexpected trajectory header in {path}: {header}")
        times, rows = [], []
        for rownum, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 4:
                raise ValueError(f"{path} row {rownum}: expected 4 fields, got {len(rec)}")
            try:
                values = [float(v) for v in rec]
            except ValueError:
                raise ValueError(f"{path} row {rownum}: non-numeric value in {rec!r}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path} row {rownum}: non-finite value in {rec!r}")
            times.append(values[0])
            rows.append(values[1:])
    if len(rows) < 2:
        raise ValueError(f"trajectory in {path} has fewer than 2 samples")
    times_arr = np.array(times)
    dts = np.diff(times_arr)
    if np.max(np.abs(dts - dts[0])) > 1e-9:
        raise ValueError(f"non-uniform sampling in {path}")
    return Trajectory(t0=times[0], dt_sample=float(dts[0]), states=np.array(rows))
