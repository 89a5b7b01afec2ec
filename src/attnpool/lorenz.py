"""Non-stationary Lorenz '63 system, classical RK4 integration, and the
candidate-model ensemble used by the pooling experiments.

The true system drives the usual Lorenz equations with a time-dependent
third parameter sweeping 28..48 sinusoidally; the M = 11 candidate models
are stationary Lorenz systems at fixed parameter values 28, 30, ..., 48.
Integration uses dt = 0.01 with 10 substeps per recorded sample
(sampling interval 0.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def rho_true(t):
    """Time-dependent driving parameter: 38 - 10 cos(2 pi t / T), at a time
    or elementwise over an array of times."""
    return RHO_MEAN - RHO_AMPLITUDE * np.cos(2.0 * np.pi * t / OSCILLATION_PERIOD)


# Both RK4 paths evaluate the same expressions in the same order, so they
# agree bit for bit (asserted in the tests). The sequential integrator runs on
# plain floats with the stages written out: a 3-vector step in numpy spends
# nearly all its time on array bookkeeping, and a helper call per stage costs
# more than its arithmetic. The batched candidate stepper keeps the three
# coordinates as the rows of one (3, lanes) array and writes every stage into
# buffers it allocates once per call.


@dataclass
class Trajectory:
    """Uniformly sampled states: ``states[j]`` is the state at t0 + j dt."""

    t0: float
    dt_sample: float
    states: Array  # (n, 3)

    def __len__(self) -> int:
        return len(self.states)


# Stage times at which ``integrate`` evaluates the driving parameter in one
# call; a table for a whole run would raise the peak memory. The values are
# read through memoryviews, which hand out plain floats one at a time, as
# the scalar arithmetic needs, without a float object per table entry.
RHO_BLOCK = 4096


def integrate(
    u0: Array,
    t0: float,
    n_samples: int,
    rho: Callable[[Array], Array],
    dt: float = DT_INTEGRATION,
    substeps: int = SUBSTEPS,
) -> Trajectory:
    """Record ``n_samples`` states after ``u0``, ``substeps`` RK4 steps apart,
    under the driving parameter ``rho`` of time (``rho_true`` for the true
    system, a constant for a candidate) with ``SIGMA`` and ``BETA``.

    Each step evaluates ``rho`` at its stage times t, t + dt/2 and t + dt.
    ``rho`` is called on arrays of stage times, a block of substeps at a
    time, and returns an array of the same shape or a constant.
    ``u0`` itself is not included; the returned trajectory starts at
    t0 + substeps * dt. Raises on blow-up.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != (3,):
        raise ValueError(f"initial state must have shape (3,), got {u0.shape}")
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    sigma, beta = SIGMA, BETA
    half = dt / 2.0
    sixth = dt / 6.0
    x, y, z = float(u0[0]), float(u0[1]), float(u0[2])
    out = np.empty((n_samples, 3))
    block = max(1, RHO_BLOCK // (3 * substeps))  # samples per block
    for first in range(0, n_samples, block):
        last = min(first + block, n_samples)
        # multiplicative time to avoid accumulation drift
        t = t0 + np.arange(first * substeps, last * substeps) * dt
        r_start, r_half, r_end = (
            memoryview(np.ascontiguousarray(np.broadcast_to(rho(times), times.shape), np.float64))
            for times in (t, t + half, t + dt)
        )
        i = 0
        for j in range(first, last):
            for _ in range(substeps):
                r = r_start[i]
                ax, ay, az = sigma * (y - x), x * (r - z) - y, x * y - beta * z
                r = r_half[i]
                px, py, pz = x + half * ax, y + half * ay, z + half * az
                bx, by, bz = sigma * (py - px), px * (r - pz) - py, px * py - beta * pz
                px, py, pz = x + half * bx, y + half * by, z + half * bz
                cx, cy, cz = sigma * (py - px), px * (r - pz) - py, px * py - beta * pz
                r = r_end[i]
                px, py, pz = x + dt * cx, y + dt * cy, z + dt * cz
                dx, dy, dz = sigma * (py - px), px * (r - pz) - py, px * py - beta * pz
                x = x + sixth * (ax + 2.0 * bx + 2.0 * cx + dx)
                y = y + sixth * (ay + 2.0 * by + 2.0 * cy + dy)
                z = z + sixth * (az + 2.0 * bz + 2.0 * cz + dz)
                i += 1
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise FloatingPointError(f"integration blew up at sample {j}")
            out[j, 0], out[j, 1], out[j, 2] = x, y, z
    return Trajectory(t0=t0 + substeps * dt, dt_sample=dt * substeps, states=out)


def _deriv_into(k, u, r: Array, tmp: Array) -> None:
    """The stationary Lorenz right-hand side of the state rows ``u`` = (x, y,
    z) under ``r``, written into the rows ``k``; ``tmp`` is scratch."""
    x, y, z = u
    kx, ky, kz = k
    np.subtract(y, x, kx)
    kx *= SIGMA
    np.subtract(r, z, ky)
    ky *= x
    ky -= y
    np.multiply(x, y, kz)
    np.multiply(z, BETA, tmp)
    kz -= tmp


# Lanes integrated at a time: the scratch rows stay a fixed size whatever the
# lane count, and a block of them stays in cache across the stages.
LANE_BLOCK = 8192


def candidate_one_step_batch(states: Array, rho_values: Array) -> Array:
    """Vectorized one-sampling-step candidate forecasts: ``SUBSTEPS`` RK4
    steps under *stationary* parameter values.

    ``states`` (..., 3) and ``rho_values`` broadcastable to its leading axes;
    returns a new C-contiguous array of ``states.shape``. Non-finite outputs
    are returned as-is (callers decide how to truncate). Each stage's
    arithmetic matches the sequential ``integrate`` operation for operation,
    so the two paths agree bitwise.
    """
    states = np.asarray(states, dtype=np.float64)
    lead = states.shape[:-1]
    lanes = states.reshape(-1, 3)
    rho = np.broadcast_to(np.asarray(rho_values, dtype=np.float64), lead).reshape(-1)
    n = len(lanes)
    out = np.empty((n, 3))
    dt = DT_INTEGRATION
    half = dt / 2.0
    sixth = dt / 6.0
    width = min(n, LANE_BLOCK)
    u_buf, k_buf, s_buf, acc_buf = (np.empty((3, width)) for _ in range(4))
    tmp_buf = np.empty(width)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, LANE_BLOCK):
            stop = min(start + LANE_BLOCK, n)
            w = stop - start
            u, k, s, acc = u_buf[:, :w], k_buf[:, :w], s_buf[:, :w], acc_buf[:, :w]
            # the coordinate rows, as views made once per block
            u_rows, k_rows, s_rows = tuple(u), tuple(k), tuple(s)
            r, tmp = rho[start:stop], tmp_buf[:w]
            u[...] = lanes[start:stop].T
            for _ in range(SUBSTEPS):
                # acc = ((k1 + 2 k2) + 2 k3) + k4, each stage added as it ends
                _deriv_into(k_rows, u_rows, r, tmp)
                np.copyto(acc, k)
                np.multiply(k, half, s)
                s += u
                _deriv_into(k_rows, s_rows, r, tmp)
                np.multiply(k, 2.0, s)
                acc += s
                np.multiply(k, half, s)
                s += u
                _deriv_into(k_rows, s_rows, r, tmp)
                np.multiply(k, 2.0, s)
                acc += s
                np.multiply(k, dt, s)
                s += u
                _deriv_into(k_rows, s_rows, r, tmp)
                acc += k
                acc *= sixth
                u += acc
            out[start:stop] = u.T
    return out.reshape(states.shape)


def candidate_forecasts(states: Array) -> Array:
    """One-step forecasts of every candidate from every state of a series.

    Returns ``cand`` of shape (n, M, 3) where ``cand[j, m]`` is candidate m's
    forecast *for* index j, i.e. one sampling step from ``states[j-1]``.
    Row 0 has no predecessor and is NaN.
    """
    states = np.asarray(states, dtype=np.float64)
    n = len(states)
    rhos = np.asarray(CANDIDATE_RHOS)
    cand = np.full((n, len(rhos), 3), np.nan)
    if n > 1:
        tiled = np.broadcast_to(states[:-1, None, :], (n - 1, len(rhos), 3))
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


def _record_from_zero(rng, n_samples: int, t_transient: float) -> Trajectory:
    """Integrate a transient over negative times, then record from t = 0.

    Recording starts exactly where the transient ends, so the driving
    parameter is continuous and rho(0) = 28 at the first recorded sample.
    """
    n_trans = round(t_transient / DT_SAMPLE)
    trans = integrate(_random_ic(rng), -t_transient, n_trans, rho_true)
    u_star = trans.states[-1]  # state at t ~ 0
    rest = integrate(u_star, 0.0, n_samples - 1, rho_true)
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
    n_train, n_validation, starts = _dataset_layout(
        t_train, t_val, n_val_segments, segment_len, warmup
    )
    if warmup < 1:
        raise ValueError("warmup must be >= 1 (closed-loop forecasts need history)")

    train = _record_from_zero(spawn_rng(seed, "lorenz-train-ic"), n_train, t_transient)
    validation = _record_from_zero(
        spawn_rng(seed, "lorenz-validation-ic"), n_validation, t_transient
    )
    return LorenzDataset(
        train=train,
        validation=validation,
        segment_starts=starts,
        segment_len=segment_len,
        warmup=warmup,
    )
