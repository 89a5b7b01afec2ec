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
from itertools import islice
from typing import Callable

import numpy as np

from . import numerics
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


# The RK4 step runs in the package's compiled kernel library (``numerics``):
# ``rk4_integrate`` for the sequential integrator, ``rk4_lanes`` for the
# batched candidate stepper. Where that library does not load, both run on
# ``_rk4_step``, the Python twin of the library's ``rk4_step``: the integrator
# on plain floats, the stepper on arrays of lanes. Every path applies the same
# expressions in the same order, so all agree bit for bit (see the tests).


def _rhs(x, y, z, r):
    """The Lorenz right-hand side at (x, y, z) under ``r``, on floats or arrays."""
    return SIGMA * (y - x), x * (r - z) - y, x * y - BETA * z


def _rk4_step(x, y, z, r0, r1, r2, dt):
    """One RK4 step of size ``dt`` from (x, y, z) under the stage parameters
    ``r0``, ``r1`` (both midpoints) and ``r2``, on floats or arrays."""
    half, sixth = dt / 2.0, dt / 6.0
    ax, ay, az = _rhs(x, y, z, r0)
    bx, by, bz = _rhs(x + half * ax, y + half * ay, z + half * az, r1)
    cx, cy, cz = _rhs(x + half * bx, y + half * by, z + half * bz, r1)
    dx, dy, dz = _rhs(x + dt * cx, y + dt * cy, z + dt * cz, r2)
    return (
        x + sixth * (ax + 2.0 * bx + 2.0 * cx + dx),
        y + sixth * (ay + 2.0 * by + 2.0 * cy + dy),
        z + sixth * (az + 2.0 * bz + 2.0 * cz + dz),
    )


@dataclass
class Trajectory:
    """Uniformly sampled states: ``states[j]`` is the state at t0 + j dt."""

    t0: float
    dt_sample: float
    states: Array  # (n, 3)


# Stage times at which ``integrate`` evaluates the driving parameter in one
# call; a table for a whole run would raise the peak memory.
RHO_BLOCK = 4096


def integrate(
    u0: Array,
    t0: float,
    n_samples: int,
    rho: Callable[[Array], Array],
    dt: float,
    substeps: int,
) -> Trajectory:
    """Record ``n_samples`` states after ``u0``, ``substeps`` RK4 steps apart,
    under the driving parameter ``rho`` of time (``rho_true`` for the true
    system, a constant for a candidate) with ``SIGMA`` and ``BETA``.

    Each step evaluates ``rho`` at its stage times t, t + dt/2 and t + dt.
    ``rho`` is called on arrays of stage times, a block of substeps at a
    time, and returns an array of the same shape or a constant.
    ``u0`` itself is not included; the returned trajectory starts at
    t0 + substeps * dt. Raises on blow-up, naming the first sample that is
    not finite.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != (3,):
        raise ValueError(f"initial state must have shape (3,), got {u0.shape}")
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    lib = numerics.kernels()
    half = dt / 2.0
    state = u0.copy()  # advanced block by block
    out = np.empty((n_samples, 3))
    block = max(1, RHO_BLOCK // (3 * substeps))  # samples per block
    for first in range(0, n_samples, block):
        last = min(first + block, n_samples)
        # multiplicative time to avoid accumulation drift
        t = t0 + np.arange(first * substeps, last * substeps) * dt
        tables = [
            np.ascontiguousarray(np.broadcast_to(rho(times), times.shape), np.float64)
            for times in (t, t + half, t + dt)
        ]
        rows = out[first:last]
        if lib is None:
            bad = _integrate_block(state, tables, dt, substeps, rows)
        else:
            bad = lib.rk4_integrate(
                last - first, substeps, dt, SIGMA, BETA, state.ctypes.data,
                *(a.ctypes.data for a in tables), rows.ctypes.data,
            )
        if bad >= 0:
            raise FloatingPointError(f"integration blew up at sample {first + bad}")
    return Trajectory(t0=t0 + substeps * dt, dt_sample=dt * substeps, states=out)


def _integrate_block(state: Array, tables: list, dt: float, substeps: int, out: Array) -> int:
    """``rk4_integrate`` of the kernel library on plain floats: records the
    samples of ``out``, ``substeps`` steps apart, and advances ``state``; step
    i runs at the i-th parameters of the start, midpoint and end ``tables``.
    Returns the first sample that is not finite, or -1."""
    x, y, z = state.tolist()
    stages = zip(*(table.tolist() for table in tables))
    for j in range(len(out)):
        for r0, r1, r2 in islice(stages, substeps):
            x, y, z = _rk4_step(x, y, z, r0, r1, r2, dt)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            return j
        out[j] = x, y, z
    state[:] = x, y, z
    return -1


def _broadcast_count(a: Array, axes) -> int:
    """How many of ``axes`` of ``a``, taken in the order given, a broadcast
    repeats: each has stride 0 or size 1."""
    count = 0
    for axis in axes:
        if a.strides[axis] and a.shape[axis] != 1:
            break
        count += 1
    return count


def candidate_one_step_batch(states: Array, rho_values: Array) -> Array:
    """Vectorized one-sampling-step candidate forecasts: ``SUBSTEPS`` RK4
    steps under *stationary* parameter values.

    ``states`` (..., 3) and ``rho_values`` broadcastable to its leading axes;
    returns a new C-contiguous array of ``states.shape``. Non-finite outputs
    are returned as-is (callers decide how to truncate). Each stage's
    arithmetic matches the sequential ``integrate`` operation for operation,
    so the two paths agree bitwise.

    The compiled stepper reads each state and each parameter once: a state
    that a broadcast repeats over the trailing leading axes (the closed
    loop's candidate view) is one row of the lanes that share it, and
    parameters that a broadcast repeats over the first leading axes are read
    cyclically, so neither is tiled into a copy.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.shape[-1:] != (3,):
        raise ValueError(f"states must have shape (..., 3), got {states.shape}")
    lead = states.shape[:-1]
    rho = np.broadcast_to(np.asarray(rho_values, dtype=np.float64), lead)
    lib = numerics.kernels()
    if lib is None:
        return _numpy_steps(states, rho)
    out = np.empty(states.shape)
    if out.size == 0:
        return out
    shared = _broadcast_count(states, range(len(lead) - 1, -1, -1))
    rows = np.ascontiguousarray(states[(Ellipsis, *[0] * shared, slice(None))])
    cycled = _broadcast_count(rho, range(len(lead)))
    period = np.ascontiguousarray(rho[(0,) * cycled])
    lib.rk4_lanes(
        out.size // 3, rows.ctypes.data, math.prod(lead[len(lead) - shared:]),
        period.ctypes.data, period.size, SUBSTEPS, DT_INTEGRATION, SIGMA, BETA,
        out.ctypes.data,
    )
    return out


# Lanes the numpy stepper integrates at a time, for memory: the stage arrays
# of a block are a fixed size, where a pass over 44k lanes at once peaked at
# 8.7 times its result.
LANE_BLOCK = 8192


def _numpy_steps(states: Array, rho: Array) -> Array:
    """The compiled stepper of :func:`candidate_one_step_batch` as numpy
    passes over blocks of ``LANE_BLOCK`` lanes; ``rho`` has the leading
    shape of ``states``."""
    lanes = states.reshape(-1, 3)
    rho = rho.reshape(-1)
    out = np.empty(lanes.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(lanes), LANE_BLOCK):
            block = slice(start, start + LANE_BLOCK)
            x, y, z = lanes[block].T
            r = rho[block]
            for _ in range(SUBSTEPS):
                x, y, z = _rk4_step(x, y, z, r, r, r, DT_INTEGRATION)
            out[block] = np.stack((x, y, z), axis=-1)
    return out.reshape(states.shape)


def candidate_steps(states: Array) -> Array:
    """Every candidate's one-step forecast from each of the states (B, 3):
    (B, M, 3), candidate m at ``CANDIDATE_RHOS[m]``."""
    states = np.asarray(states, dtype=np.float64)
    rhos = np.asarray(CANDIDATE_RHOS)
    tiled = np.broadcast_to(states[:, None, :], (len(states), len(rhos), 3))
    return candidate_one_step_batch(tiled, rhos[None, :])


def candidate_forecasts(states: Array) -> Array:
    """One-step forecasts of every candidate from every state of a series.

    Returns ``cand`` of shape (n, M, 3) where ``cand[j, m]`` is candidate m's
    forecast *for* index j, i.e. one sampling step from ``states[j-1]``.
    Row 0 has no predecessor and is NaN.
    """
    states = np.asarray(states, dtype=np.float64)
    cand = np.full((len(states), len(CANDIDATE_RHOS), 3), np.nan)
    if len(states) > 1:
        cand[1:] = candidate_steps(states[:-1])
    return cand


# ---------------------------------------------------------------------------
# dataset generation


@dataclass
class LorenzDataset:
    """Training trajectory plus a tiled validation run.

    ``segment_starts`` index into ``validation.states``; each scored segment
    is ``segment_len`` samples, and the samples before the first start exist
    only to initialize closed-loop forecasts.
    """

    train: Trajectory
    validation: Trajectory
    segment_starts: list[int]
    segment_len: int


def _random_ic(rng: np.random.Generator) -> Array:
    return rng.uniform(IC_LOW, IC_HIGH)


def _record_from_zero(rng, n_samples: int, t_transient: float) -> Trajectory:
    """Integrate a transient over negative times, then record from t = 0.

    Recording starts exactly where the transient ends, so the driving
    parameter is continuous and rho(0) = 28 at the first recorded sample.
    """
    n_trans = round(t_transient / DT_SAMPLE)
    trans = integrate(_random_ic(rng), -t_transient, n_trans, rho_true, DT_INTEGRATION, SUBSTEPS)
    u_star = trans.states[-1]  # state at t ~ 0
    rest = integrate(u_star, 0.0, n_samples - 1, rho_true, DT_INTEGRATION, SUBSTEPS)
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
    )
