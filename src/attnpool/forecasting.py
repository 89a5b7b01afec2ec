"""Training loops and forecast drivers for ensemble pooling.

The trainable pooling model is the additive-attention head from
:mod:`attnpool.attention`; this module supplies the pieces around it:

* assembly of open-loop training instances from a trajectory plus the
  candidate one-step forecasts (queries = delay-embedded past states, keys =
  delay-embedded past candidate errors, values = current candidate forecasts);
* minibatch Adam training with per-epoch loss curves, for the attention
  pooler and for two baselines — a linear pooler over the flattened candidate
  forecasts and a feed-forward net that predicts directly from past states;
* open-loop (one-step, truth-driven) and closed-loop (autonomous, outputs
  recycled) forecast drivers, the latter batched across many start points.

Closed-loop mechanics: each step, every candidate model is re-integrated
from the *pooled* previous output, the pooled output stands in for the truth
when forming the next query and the next key errors, and the attention
weights are recomputed from those surrogate inputs. Two degraded variants
reuse the same trained parameters: ``fixed_attention`` freezes the weight
vector computed at step 0, and ``best_initial`` runs the single candidate
that got the largest step-0 weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .attention import (
    SingleHeadParams,
    init_single_head,
    params_to_arrays,
    arrays_to_params,
    load_checkpoint,
    save_checkpoint,
    single_head_backward,
    single_head_forward,
)
from .lorenz import CANDIDATE_RHOS, candidate_one_step_batch
from .numerics import AdamState, Array, adam_step, spawn_rng, uniform_init

# ---------------------------------------------------------------------------
# input standardization

# Raw states reach +-40 and raw candidate errors +-30; unscaled they park the
# tanh scoring layer deep in saturation. Statistics always come from the
# training split and are carried with the trained model.


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine map (x - mean) / scale fitted on training data."""

    mean: Array
    scale: Array

    @classmethod
    def fit(cls, arr: Array, floor: float = 1e-8) -> "Standardizer":
        arr = np.asarray(arr, dtype=np.float64)
        flat = arr.reshape(-1, arr.shape[-1])
        mean = flat.mean(axis=0)
        scale = flat.std(axis=0)
        scale = np.where(scale < floor, 1.0, scale)  # constant columns pass through
        return cls(mean=mean, scale=scale)

    @classmethod
    def identity(cls, dim: int) -> "Standardizer":
        return cls(mean=np.zeros(dim), scale=np.ones(dim))

    def apply(self, arr: Array) -> Array:
        return (np.asarray(arr, dtype=np.float64) - self.mean) / self.scale


# ---------------------------------------------------------------------------
# model sizing

# The scoring layer shrinks as the delay length grows, anchored at
# hidden = 120 for length 5; the direct net's hidden width is then chosen so
# its parameter count matches the attention pooler's for the same length.


def attention_hidden_size(length: int) -> int:
    if length < 1:
        raise ValueError(f"delay length must be >= 1, got {length}")
    return round(600 / length)


def attention_param_count(length: int, hidden: int | None = None, dim: int = 3) -> int:
    h = attention_hidden_size(length) if hidden is None else hidden
    return h * (2 * dim * length + 2)


def ffnn_hidden_size(length: int, dim: int = 3) -> int:
    target = attention_param_count(length, dim=dim)
    return round((target - dim) / (dim * length + 1 + dim))


# ---------------------------------------------------------------------------
# open-loop instance assembly


@dataclass(frozen=True)
class OpenLoopData:
    """Aligned training instances for targets ``target_indices`` of a series.

    For target index j: ``queries`` holds the states at j-1 .. j-l (newest
    first), ``keys`` the candidate errors at the same indices, ``values`` the
    candidate forecasts for j itself, ``targets`` the true state at j.
    Queries and keys are raw (unstandardized).
    """

    queries: Array         # (N, l*d)
    keys: Array            # (N, M, l*d)
    values: Array          # (N, M, d)
    targets: Array         # (N, d)
    target_indices: Array  # (N,) indices into the source series


def _delayed_states(states: Array, length: int) -> tuple[Array, Array]:
    """Delay-embedded past states for every target index >= length + 1."""
    idx = np.arange(length + 1, len(states))
    stacked = np.concatenate([states[idx - 1 - k] for k in range(length)], axis=-1)
    return idx, stacked


def assemble_open_loop(states: Array, candidates: Array, length: int) -> OpenLoopData:
    states = np.asarray(states, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if states.ndim != 2:
        raise ValueError(f"states must be (n, d), got {states.shape}")
    n, d = states.shape
    if candidates.ndim != 3 or candidates.shape[0] != n or candidates.shape[2] != d:
        raise ValueError(
            f"candidates must be ({n}, M, {d}) aligned with states, got {candidates.shape}"
        )
    if length < 1:
        raise ValueError(f"delay length must be >= 1, got {length}")
    if n < length + 2:
        raise ValueError(
            f"series of {n} samples leaves no target for delay length {length}"
        )
    # verified error of each candidate at each index (row 0 has no forecast)
    errors = candidates - states[:, None, :]
    idx, queries = _delayed_states(states, length)
    keys = np.concatenate([errors[idx - 1 - k] for k in range(length)], axis=-1)
    return OpenLoopData(
        queries=queries,
        keys=keys,
        values=candidates[idx],
        targets=states[idx],
        target_indices=idx,
    )


# ---------------------------------------------------------------------------
# models


@dataclass
class AttentionPooler:
    """Trained single-head attention pooler plus its input standardizers."""

    params: SingleHeadParams
    query_scaler: Standardizer
    key_scaler: Standardizer
    delay_length: int

    def forward(self, queries_raw: Array, keys_raw: Array, values: Array):
        """Pooled forecasts and attention weights for raw (unscaled) inputs."""
        q = self.query_scaler.apply(queries_raw)
        k = self.key_scaler.apply(keys_raw)
        pooled, weights, _ = single_head_forward(self.params, q, k, values)
        return pooled, weights


@dataclass
class LinearPooler:
    """Affine map from flattened candidate forecasts to a pooled forecast."""

    weight: Array  # (d_out, d_in)
    bias: Array    # (d_out,)

    def predict(self, inputs: Array) -> Array:
        return np.asarray(inputs, dtype=np.float64) @ self.weight.T + self.bias

    def count(self) -> int:
        return self.weight.size + self.bias.size


@dataclass
class FeedForwardNet:
    """One-hidden-layer tanh net forecasting directly from delayed states."""

    w1: Array  # (hidden, d_in)
    b1: Array  # (hidden,)
    w2: Array  # (d_out, hidden)
    b2: Array  # (d_out,)
    scaler: Standardizer
    delay_length: int

    def predict(self, inputs_raw: Array) -> Array:
        out, _ = ffnn_forward(self, self.scaler.apply(inputs_raw))
        return out

    def count(self) -> int:
        """Trainable parameters only (the standardizer is not trained)."""
        return self.w1.size + self.b1.size + self.w2.size + self.b2.size


@dataclass
class FeedForwardGrads:
    w1: Array
    b1: Array
    w2: Array
    b2: Array

    def names(self) -> dict[str, Array]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def ffnn_forward(net: FeedForwardNet, inputs: Array):
    """out = w2 tanh(w1 x + b1) + b2 for standardized inputs (B, d_in)."""
    x = np.asarray(inputs, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None]
    if x.shape[1] != net.w1.shape[1]:
        raise ValueError(f"input dim {x.shape[1]} does not match w1 {net.w1.shape}")
    act = np.tanh(x @ net.w1.T + net.b1)
    out = act @ net.w2.T + net.b2
    if single:
        return out[0], (x, act)
    return out, (x, act)


def ffnn_backward(net: FeedForwardNet, cache, upstream: Array):
    """Gradients given d loss / d out; returns (grads, d_inputs)."""
    x, act = cache
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        upstream = upstream[None]
    d_act = upstream @ net.w2
    d_pre = d_act * (1.0 - act * act)
    grads = FeedForwardGrads(
        w1=d_pre.T @ x,
        b1=d_pre.sum(axis=0),
        w2=upstream.T @ act,
        b2=upstream.sum(axis=0),
    )
    return grads, d_pre @ net.w1


def init_ffnn(
    rng: np.random.Generator, hidden: int, in_dim: int, out_dim: int
) -> FeedForwardNet:
    return FeedForwardNet(
        w1=uniform_init(rng, (hidden, in_dim), in_dim),
        b1=uniform_init(rng, hidden, in_dim),
        w2=uniform_init(rng, (out_dim, hidden), hidden),
        b2=uniform_init(rng, out_dim, hidden),
        scaler=Standardizer.identity(in_dim),
        delay_length=1,
    )


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    learning_rate: float = 1e-3
    batch_size: int = 128
    weight_decay: float = 0.0
    seed: int = 0


def epoch_batches(rng: np.random.Generator, n: int, batch_size: int):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def check_finite_loss(resid: Array, epoch: int, batch: int) -> None:
    if not np.all(np.isfinite(resid)):
        raise FloatingPointError(
            f"non-finite training loss at epoch {epoch}, batch {batch}"
        )


def train_attention(
    data: OpenLoopData,
    length: int,
    hidden: int | None = None,
    config: TrainConfig | None = None,
) -> tuple[AttentionPooler, Array]:
    """Minibatch-Adam MSE training; returns the pooler and per-epoch losses."""
    config = config or TrainConfig()
    hidden = attention_hidden_size(length) if hidden is None else hidden
    query_scaler = Standardizer.fit(data.queries)
    key_scaler = Standardizer.fit(data.keys)
    q = query_scaler.apply(data.queries)
    k = key_scaler.apply(data.keys)
    v, y = data.values, data.targets

    rng = spawn_rng(config.seed, f"train-attention-l{length}")
    params = init_single_head(rng, hidden, q.shape[1], k.shape[2])
    opt = {
        name: AdamState.for_param(p, config.learning_rate, config.weight_decay)
        for name, p in params.names().items()
    }
    n = len(y)
    curve = np.empty(config.epochs)
    for epoch in range(config.epochs):
        sq_sum = 0.0
        for bi, batch in enumerate(epoch_batches(rng, n, config.batch_size)):
            pooled, _, cache = single_head_forward(params, q[batch], k[batch], v[batch])
            resid = pooled - y[batch]
            check_finite_loss(resid, epoch, bi)
            sq_sum += float(np.sum(resid * resid))
            grads = single_head_backward(params, cache, 2.0 * resid / resid.size)
            for name, g in grads.names().items():
                setattr(params, name, adam_step(getattr(params, name), g, opt[name], name))
        curve[epoch] = sq_sum / y.size
    pooler = AttentionPooler(params, query_scaler, key_scaler, length)
    return pooler, curve


def train_linear(
    inputs: Array, targets: Array, config: TrainConfig | None = None
) -> tuple[LinearPooler, Array]:
    """Adam-trained affine pooler (the closed-form ridge fit is the oracle)."""
    config = config or TrainConfig()
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    rng = spawn_rng(config.seed, "train-linear")
    model = LinearPooler(
        weight=uniform_init(rng, (y.shape[1], x.shape[1]), x.shape[1]),
        bias=np.zeros(y.shape[1]),
    )
    opt = {
        "weight": AdamState.for_param(model.weight, config.learning_rate, config.weight_decay),
        "bias": AdamState.for_param(model.bias, config.learning_rate, config.weight_decay),
    }
    curve = np.empty(config.epochs)
    for epoch in range(config.epochs):
        sq_sum = 0.0
        for bi, batch in enumerate(epoch_batches(rng, len(y), config.batch_size)):
            resid = model.predict(x[batch]) - y[batch]
            check_finite_loss(resid, epoch, bi)
            sq_sum += float(np.sum(resid * resid))
            upstream = 2.0 * resid / resid.size
            model.weight = adam_step(model.weight, upstream.T @ x[batch], opt["weight"], "weight")
            model.bias = adam_step(model.bias, upstream.sum(axis=0), opt["bias"], "bias")
        curve[epoch] = sq_sum / y.size
    return model, curve


def fit_linear_ridge(inputs: Array, targets: Array, ridge: float = 1e-8) -> LinearPooler:
    """Closed-form least-squares fit (tiny ridge keeps the solve well posed)."""
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    augmented = np.hstack([x, np.ones((len(x), 1))])
    gram = augmented.T @ augmented + ridge * np.eye(augmented.shape[1])
    solution = np.linalg.solve(gram, augmented.T @ y)  # (d_in + 1, d_out)
    return LinearPooler(weight=solution[:-1].T.copy(), bias=solution[-1].copy())


def train_ffnn(
    inputs_raw: Array,
    targets: Array,
    length: int,
    hidden: int | None = None,
    config: TrainConfig | None = None,
) -> tuple[FeedForwardNet, Array]:
    """Direct state-forecast baseline; default epoch budget is longer because
    the net learns the dynamics from scratch rather than pooling forecasts."""
    config = config or TrainConfig(epochs=800)
    hidden = ffnn_hidden_size(length) if hidden is None else hidden
    scaler = Standardizer.fit(inputs_raw)
    x = scaler.apply(inputs_raw)
    y = np.asarray(targets, dtype=np.float64)

    rng = spawn_rng(config.seed, f"train-ffnn-l{length}")
    net = init_ffnn(rng, hidden, x.shape[1], y.shape[1])
    net.scaler = scaler
    net.delay_length = length
    opt = {
        name: AdamState.for_param(p, config.learning_rate, config.weight_decay)
        for name, p in (("w1", net.w1), ("b1", net.b1), ("w2", net.w2), ("b2", net.b2))
    }
    curve = np.empty(config.epochs)
    for epoch in range(config.epochs):
        sq_sum = 0.0
        for bi, batch in enumerate(epoch_batches(rng, len(y), config.batch_size)):
            out, cache = ffnn_forward(net, x[batch])
            resid = out - y[batch]
            check_finite_loss(resid, epoch, bi)
            sq_sum += float(np.sum(resid * resid))
            grads, _ = ffnn_backward(net, cache, 2.0 * resid / resid.size)
            for name, g in grads.names().items():
                setattr(net, name, adam_step(getattr(net, name), g, opt[name], name))
        curve[epoch] = sq_sum / y.size
    return net, curve


# ---------------------------------------------------------------------------
# open-loop forecasting


@dataclass(frozen=True)
class OpenLoopForecast:
    target_indices: Array
    predictions: Array
    weights: Array | None  # (N, M) for the attention pooler, else None


def open_loop_forecast(
    model: AttentionPooler | LinearPooler | FeedForwardNet,
    states: Array,
    candidates: Array | None = None,
) -> OpenLoopForecast:
    """One-step forecasts driven by the true series.

    Targets start at index ``delay_length + 1`` for every model kind so that
    different poolers are compared on identical target sets.
    """
    states = np.asarray(states, dtype=np.float64)
    if isinstance(model, FeedForwardNet):
        idx, delayed = _delayed_states(states, model.delay_length)
        return OpenLoopForecast(idx, model.predict(delayed), None)
    if candidates is None:
        raise ValueError("pooling models need the candidate forecasts")
    if isinstance(model, AttentionPooler):
        data = assemble_open_loop(states, candidates, model.delay_length)
        pooled, weights = model.forward(data.queries, data.keys, data.values)
        return OpenLoopForecast(data.target_indices, pooled, weights)
    if isinstance(model, LinearPooler):
        data = assemble_open_loop(states, candidates, 1)
        flat = data.values.reshape(len(data.values), -1)
        return OpenLoopForecast(data.target_indices, model.predict(flat), None)
    raise TypeError(f"unknown model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# closed-loop forecasting

VARIANTS = ("additive", "fixed_attention", "best_initial")

# A stepper maps current states (B, d) to all candidate one-step forecasts
# (B, M, d); closed-loop drivers re-invoke it from the pooled output.
CandidateStepper = Callable[[Array], Array]


def lorenz_candidate_stepper(rhos=CANDIDATE_RHOS) -> CandidateStepper:
    rhos = np.asarray(rhos, dtype=np.float64)

    def stepper(states: Array) -> Array:
        states = np.asarray(states, dtype=np.float64)
        tiled = np.broadcast_to(
            states[:, None, :], (len(states), len(rhos), states.shape[1])
        ).copy()
        return candidate_one_step_batch(tiled, rhos[None, :])

    return stepper


def required_history(model) -> int:
    """True samples a closed-loop forecast needs before its first target.

    The attention pooler needs one extra sample beyond its delay length: the
    oldest key term is a verified error, whose forecast was launched from the
    sample before the oldest embedded state.
    """
    if isinstance(model, AttentionPooler):
        return model.delay_length + 1
    if isinstance(model, FeedForwardNet):
        return model.delay_length
    if isinstance(model, LinearPooler):
        return 1
    raise TypeError(f"unknown model type {type(model).__name__}")


def gather_histories(states: Array, starts, depth: int) -> Array:
    """Stack the ``depth`` samples preceding each start index: (B, depth, d)."""
    states = np.asarray(states, dtype=np.float64)
    out = []
    for s in starts:
        if s < depth:
            raise ValueError(
                f"start index {s} has only {s} preceding samples, need {depth}"
            )
        out.append(states[s - depth : s])
    return np.stack(out)


@dataclass(frozen=True)
class ClosedLoopResult:
    """Batched closed-loop forecasts.

    ``predictions`` is (B, H, d) — or (H, d) from the single-segment wrapper —
    with NaN from the truncation step onward; ``weights`` is the per-step
    pooling weight matrix for pooling models; ``truncated_at`` holds the step
    at which each forecast blew up, -1 where it never did.
    """

    predictions: Array
    weights: Array | None
    truncated_at: Array


class _Truncation:
    """Tracks which batch rows are still alive and when the rest died."""

    def __init__(self, n: int):
        self.active = np.ones(n, dtype=bool)
        self.truncated_at = np.full(n, -1, dtype=np.int64)

    def kill(self, bad: Array, step: int) -> None:
        newly = self.active & bad
        self.truncated_at[newly] = step
        self.active &= ~bad


def _finite_rows(arr: Array) -> Array:
    return np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))


def closed_loop_forecast_batch(
    pooler: AttentionPooler,
    histories: Array,
    horizon: int,
    stepper: CandidateStepper = None,
    variant: str = "additive",
) -> ClosedLoopResult:
    """Autonomous multi-step forecasts from B start points in lockstep.

    ``histories`` is (B, l+1, d) of true samples ending just before the first
    forecast target. After initialization the driver sees no truth: candidate
    models re-integrate from the pooled previous output, and the query/key
    buffers are refilled with the pooled output and the candidates' deviation
    from it. Rows whose candidates blow up are zeroed internally (the origin
    integrates quietly) and reported as NaN with their truncation step.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if stepper is None:
        stepper = lorenz_candidate_stepper()
    histories = np.asarray(histories, dtype=np.float64)
    depth = pooler.delay_length + 1
    if histories.ndim != 3 or histories.shape[1] != depth:
        raise ValueError(
            f"histories must be (B, {depth}, d) for delay length "
            f"{pooler.delay_length}, got {histories.shape}"
        )
    n_batch, _, dim = histories.shape
    length = pooler.delay_length

    # newest-first buffers seeded from true history; entry k of the error
    # buffer is (candidate forecast for history index -1-k) - (truth there)
    state_buf = [histories[:, -1 - k, :] for k in range(length)]
    error_buf = [
        stepper(histories[:, -2 - k, :]) - histories[:, -1 - k, :][:, None, :]
        for k in range(length)
    ]
    prev = histories[:, -1, :].copy()

    track = _Truncation(n_batch)
    predictions = weights_out = None
    frozen_weights = None
    for step in range(horizon):
        values = stepper(prev)
        if predictions is None:
            n_models = values.shape[1]
            predictions = np.full((n_batch, horizon, dim), np.nan)
            weights_out = np.full((n_batch, horizon, n_models), np.nan)
        track.kill(~_finite_rows(values), step)
        values[~track.active] = 0.0

        if variant == "additive" or step == 0:
            query = np.concatenate(state_buf, axis=-1)
            keys = np.concatenate(error_buf, axis=-1)
            _, att_weights = pooler.forward(query, keys, values)
        if variant == "fixed_attention":
            if step == 0:
                frozen_weights = att_weights.copy()
            weights = frozen_weights
        elif variant == "best_initial":
            if step == 0:
                frozen_weights = np.zeros_like(att_weights)
                frozen_weights[np.arange(n_batch), att_weights.argmax(axis=1)] = 1.0
            weights = frozen_weights
        else:
            weights = att_weights

        pooled = np.einsum("bm,bmd->bd", weights, values)
        track.kill(~_finite_rows(pooled), step)
        pooled = np.where(track.active[:, None], pooled, 0.0)

        predictions[track.active, step] = pooled[track.active]
        weights_out[track.active, step] = weights[track.active]

        state_buf.insert(0, pooled)
        del state_buf[length:]
        error_buf.insert(0, values - pooled[:, None, :])
        del error_buf[length:]
        prev = pooled
    return ClosedLoopResult(predictions, weights_out, track.truncated_at)


def ffnn_closed_loop_batch(
    net: FeedForwardNet, histories: Array, horizon: int
) -> ClosedLoopResult:
    """Autonomous rollout of the direct net from (B, l, d) true histories."""
    histories = np.asarray(histories, dtype=np.float64)
    length = net.delay_length
    if histories.ndim != 3 or histories.shape[1] != length:
        raise ValueError(
            f"histories must be (B, {length}, d), got {histories.shape}"
        )
    n_batch, _, dim = histories.shape
    state_buf = [histories[:, -1 - k, :] for k in range(length)]
    track = _Truncation(n_batch)
    predictions = np.full((n_batch, horizon, dim), np.nan)
    for step in range(horizon):
        out = net.predict(np.concatenate(state_buf, axis=-1))
        track.kill(~_finite_rows(out), step)
        out = np.where(track.active[:, None], out, 0.0)
        predictions[track.active, step] = out[track.active]
        state_buf.insert(0, out)
        del state_buf[length:]
    return ClosedLoopResult(predictions, None, track.truncated_at)


def linear_closed_loop_batch(
    model: LinearPooler,
    histories: Array,
    horizon: int,
    stepper: CandidateStepper = None,
) -> ClosedLoopResult:
    """Autonomous rollout of the linear pooler from (B, 1, d) true histories."""
    if stepper is None:
        stepper = lorenz_candidate_stepper()
    histories = np.asarray(histories, dtype=np.float64)
    if histories.ndim != 3 or histories.shape[1] != 1:
        raise ValueError(f"histories must be (B, 1, d), got {histories.shape}")
    n_batch, _, dim = histories.shape
    prev = histories[:, -1, :].copy()
    track = _Truncation(n_batch)
    predictions = np.full((n_batch, horizon, dim), np.nan)
    for step in range(horizon):
        values = stepper(prev)
        track.kill(~_finite_rows(values), step)
        values[~track.active] = 0.0
        out = model.predict(values.reshape(n_batch, -1))
        track.kill(~_finite_rows(out), step)
        out = np.where(track.active[:, None], out, 0.0)
        predictions[track.active, step] = out[track.active]
        prev = out
    return ClosedLoopResult(predictions, None, track.truncated_at)


def closed_loop_forecast(
    pooler: AttentionPooler,
    history: Array,
    horizon: int,
    stepper: CandidateStepper = None,
    variant: str = "additive",
) -> ClosedLoopResult:
    """Single-segment convenience wrapper; drops the batch axis."""
    res = closed_loop_forecast_batch(pooler, history[None], horizon, stepper, variant)
    return ClosedLoopResult(
        res.predictions[0], res.weights[0], res.truncated_at[:1]
    )


# ---------------------------------------------------------------------------
# model persistence (.npz; float64 round-trips bit-exactly)


def save_model(path: str | Path, model) -> None:
    if isinstance(model, AttentionPooler):
        arrays = {f"params.{k}": v for k, v in params_to_arrays(model.params).items()}
        arrays.update(
            kind=np.array("attention"),
            delay_length=np.array(model.delay_length),
            **{
                "query_scaler.mean": model.query_scaler.mean,
                "query_scaler.scale": model.query_scaler.scale,
                "key_scaler.mean": model.key_scaler.mean,
                "key_scaler.scale": model.key_scaler.scale,
            },
        )
    elif isinstance(model, LinearPooler):
        arrays = {"kind": np.array("linear"), "weight": model.weight, "bias": model.bias}
    elif isinstance(model, FeedForwardNet):
        arrays = {
            "kind": np.array("ffnn"),
            "delay_length": np.array(model.delay_length),
            "w1": model.w1,
            "b1": model.b1,
            "w2": model.w2,
            "b2": model.b2,
            "scaler.mean": model.scaler.mean,
            "scaler.scale": model.scaler.scale,
        }
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    save_checkpoint(path, arrays)


def load_model(path: str | Path):
    arrays = load_checkpoint(path)
    kind = str(arrays["kind"])
    if kind == "attention":
        params = arrays_to_params(
            {k.removeprefix("params."): v for k, v in arrays.items() if k.startswith("params.")}
        )
        return AttentionPooler(
            params=params,
            query_scaler=Standardizer(arrays["query_scaler.mean"], arrays["query_scaler.scale"]),
            key_scaler=Standardizer(arrays["key_scaler.mean"], arrays["key_scaler.scale"]),
            delay_length=int(arrays["delay_length"]),
        )
    if kind == "linear":
        return LinearPooler(weight=arrays["weight"], bias=arrays["bias"])
    if kind == "ffnn":
        return FeedForwardNet(
            w1=arrays["w1"],
            b1=arrays["b1"],
            w2=arrays["w2"],
            b2=arrays["b2"],
            scaler=Standardizer(arrays["scaler.mean"], arrays["scaler.scale"]),
            delay_length=int(arrays["delay_length"]),
        )
    raise ValueError(f"unknown model kind {kind!r} in {path}")
