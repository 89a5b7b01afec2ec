"""Training loop and closed-loop forecast driver for ensemble pooling.

The trainable pooling model is the additive-attention head from
:mod:`attnpool.attention`; this module supplies the pieces around it:

* assembly of open-loop training instances from a trajectory plus the
  candidate one-step forecasts (queries = delay-embedded past states, keys =
  delay-embedded past candidate errors, values = current candidate forecasts);
* :func:`fit`, the one training step (optimizer, forward, loss, backward),
  run by all four trainers: the attention pooler, two baselines — a linear
  pooler over the flattened candidate forecasts and a feed-forward net that
  predicts directly from past states — and the hub's quantile pooler;
* one closed-loop (autonomous, outputs recycled) forecast driver for all
  three models, batched across many start points.

Closed-loop mechanics: each step, every candidate model is re-integrated
from the *pooled* previous output, the pooled output stands in for the truth
when forming the next query and the next key errors, and the attention
weights are recomputed from those surrogate inputs. Two degraded variants
reuse the same trained parameters: ``fixed_attention`` freezes the weight
vector computed at step 0, and ``best_initial`` runs the single candidate
that got the largest step-0 weight. The variants of one model run as one
batch, one tile of the start points per variant: the step-0 weights are
computed once for all tiles, only the ``additive`` tile recomputes them
afterwards, and one stepper call integrates every tile's candidates. Given
the segments' truths, the driver forms no forecast from them: they only
decide when a row's valid time is settled, and the row then leaves the
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attention import (
    SingleHeadParams,
    init_single_head,
    single_head_backward,
    single_head_forward,
)
from .evaluation import exceeded
from .lorenz import CANDIDATE_RHOS, candidate_one_step_batch
from .numerics import Array, FlatAdam, spawn_rng, uniform_init

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
    def fit(cls, arr: Array) -> "Standardizer":
        arr = np.asarray(arr, dtype=np.float64)
        flat = arr.reshape(-1, arr.shape[-1])
        mean = flat.mean(axis=0)
        scale = flat.std(axis=0)
        scale = np.where(scale < 1e-8, 1.0, scale)  # constant columns pass through
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
# Both counts are for the 3-component Lorenz state.


def attention_hidden_size(length: int) -> int:
    if length < 1:
        raise ValueError(f"delay length must be >= 1, got {length}")
    return round(600 / length)


def attention_param_count(length: int) -> int:
    return attention_hidden_size(length) * (2 * 3 * length + 2)


def ffnn_hidden_size(length: int) -> int:
    return round((attention_param_count(length) - 3) / (3 * length + 1 + 3))


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

    def forward(self, inputs: Array):
        """``(pooled, None, cache)``: the linear pooler has no weights, and
        its backward reads the inputs."""
        return self.predict(inputs), None, inputs

    def backward(self, inputs: Array, upstream: Array, out: "LinearPooler") -> "LinearPooler":
        """The parameter gradients for d loss / d output ``upstream``
        (B, d_out) at ``inputs`` (B, d_in), written into ``out``."""
        np.matmul(upstream.T, inputs, out=out.weight)
        np.sum(upstream, axis=0, out=out.bias)
        return out


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
        return ffnn_forward(self, self.scaler.apply(inputs_raw))[0]


def ffnn_forward(net: FeedForwardNet, inputs: Array):
    """out = w2 tanh(w1 x + b1) + b2 for standardized inputs (B, d_in);
    returns ``(out, None, cache)``, the net having no pooling weights."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.w1.shape[1]:
        raise ValueError(f"input dim of {x.shape} does not match w1 {net.w1.shape}")
    act = np.tanh(x @ net.w1.T + net.b1)
    return act @ net.w2.T + net.b2, None, (x, act)


def ffnn_backward(
    net: FeedForwardNet, cache, upstream: Array, out: FeedForwardNet
) -> FeedForwardNet:
    """Parameter gradients given d loss / d out, typed like ``net`` (its
    standardizer and delay length are shared, not trained), written into
    ``out``. The gradient with respect to the inputs is not formed: no
    caller trains through them."""
    x, act = cache
    upstream = np.asarray(upstream, dtype=np.float64)
    d_act = upstream @ net.w2
    d_pre = d_act * (1.0 - act * act)
    np.matmul(d_pre.T, x, out=out.w1)
    np.sum(d_pre, axis=0, out=out.b1)
    np.matmul(upstream.T, act, out=out.w2)
    np.sum(upstream, axis=0, out=out.b2)
    return out


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


def fit(
    model,
    forward: Callable,
    backward: Callable,
    inputs: Sequence[Array],
    loss: Callable[[Array, Array], tuple[Array, Array]],
    rows: Array,
    rng: np.random.Generator,
    config,
    check_rows: Callable[[Array], None] | None = None,
) -> Array:
    """The one training step, run by every trainer: trains the array fields
    of ``model`` in place by minibatch Adam and returns the per-epoch loss.

    ``config`` supplies ``epochs``, ``batch_size``, ``learning_rate`` and
    ``weight_decay`` (a :class:`TrainConfig` or the hub's
    ``PoolerTrainConfig`` with its weight decay resolved). Each epoch draws
    a permutation of ``rows`` from ``rng`` and cuts it into batches. For
    each batch, ``check_rows`` (when given) sees the batch's rows ``idx``
    first; then ``forward(model, *(x[idx] for x in inputs))`` returns
    ``(preds, weights or None, cache)``, ``loss(preds, idx)`` returns the
    per-element loss terms and d loss / d preds, a non-finite term stops
    training before the backward, ``backward(model, cache, d_preds, out)``
    writes the parameter gradients into the optimizer's ``grads``, and one
    Adam step updates the model. An epoch's loss is the mean of all its
    terms.
    """
    opt = FlatAdam(model, config.learning_rate, config.weight_decay)
    curve = np.empty(config.epochs)
    for epoch in range(config.epochs):
        total, count = 0.0, 0
        for bi, batch in enumerate(epoch_batches(rng, len(rows), config.batch_size)):
            idx = rows[batch]
            if check_rows is not None:
                check_rows(idx)
            preds, _, cache = forward(model, *(x[idx] for x in inputs))
            terms, d_preds = loss(preds, idx)
            if not np.all(np.isfinite(terms)):
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch}, batch {bi}"
                )
            backward(model, cache, d_preds, out=opt.grads)
            total += float(np.sum(terms))
            count += terms.size
            opt.step()
        curve[epoch] = total / count
    return curve


def _squared_error(targets: Array):
    """The loss of the Lorenz trainers: squared error against ``targets``,
    averaged over the batch's elements."""

    def loss(preds, idx):
        resid = preds - targets[idx]
        return resid * resid, 2.0 * resid / resid.size

    return loss


def train_attention(
    data: OpenLoopData,
    length: int,
    hidden: int | None = None,
    *,
    config: TrainConfig,
) -> tuple[AttentionPooler, Array]:
    """Minibatch-Adam MSE training; returns the pooler and per-epoch losses."""
    hidden = attention_hidden_size(length) if hidden is None else hidden
    query_scaler = Standardizer.fit(data.queries)
    key_scaler = Standardizer.fit(data.keys)
    q = query_scaler.apply(data.queries)
    k = key_scaler.apply(data.keys)

    rng = spawn_rng(config.seed, f"train-attention-l{length}")
    params = init_single_head(rng, hidden, q.shape[1], k.shape[2])
    curve = fit(
        params, single_head_forward, single_head_backward, (q, k, data.values),
        _squared_error(data.targets), np.arange(len(data.targets)), rng, config,
    )
    return AttentionPooler(params, query_scaler, key_scaler, length), curve


def train_linear(
    inputs: Array, targets: Array, config: TrainConfig
) -> tuple[LinearPooler, Array]:
    """Adam-trained affine pooler."""
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    rng = spawn_rng(config.seed, "train-linear")
    model = LinearPooler(
        weight=uniform_init(rng, (y.shape[1], x.shape[1]), x.shape[1]),
        bias=np.zeros(y.shape[1]),
    )
    curve = fit(
        model, LinearPooler.forward, LinearPooler.backward, (x,),
        _squared_error(y), np.arange(len(y)), rng, config,
    )
    return model, curve


def train_ffnn(
    inputs_raw: Array,
    targets: Array,
    length: int,
    hidden: int | None = None,
    *,
    config: TrainConfig,
) -> tuple[FeedForwardNet, Array]:
    """Direct state-forecast baseline, trained from standardized delayed
    states."""
    hidden = ffnn_hidden_size(length) if hidden is None else hidden
    scaler = Standardizer.fit(inputs_raw)
    x = scaler.apply(inputs_raw)
    y = np.asarray(targets, dtype=np.float64)

    rng = spawn_rng(config.seed, f"train-ffnn-l{length}")
    net = init_ffnn(rng, hidden, x.shape[1], y.shape[1])
    net.scaler = scaler
    net.delay_length = length
    curve = fit(
        net, ffnn_forward, ffnn_backward, (x,),
        _squared_error(y), np.arange(len(y)), rng, config,
    )
    return net, curve


# ---------------------------------------------------------------------------
# closed-loop forecasting

VARIANTS = ("additive", "fixed_attention", "best_initial")

# A stepper maps current states (B, d) to all candidate one-step forecasts
# (B, M, d); the closed-loop driver re-invokes it from the pooled output.
CandidateStepper = Callable[[Array], Array]


def lorenz_candidate_stepper(rhos=CANDIDATE_RHOS) -> CandidateStepper:
    rhos = np.asarray(rhos, dtype=np.float64)

    def stepper(states: Array) -> Array:
        states = np.asarray(states, dtype=np.float64)
        tiled = np.broadcast_to(states[:, None, :], (len(states), len(rhos), states.shape[1]))
        return candidate_one_step_batch(tiled, rhos[None, :])

    return stepper


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

    ``predictions`` is (B, H, d), NaN from the truncation step onward and
    after the step at which the row retired, its valid time decided;
    ``weights`` is the (B, H, M) per-step pooling weight matrix of the
    attention pooler, NaN where ``predictions`` is, None for the other
    models; ``truncated_at`` holds the step at which each forecast blew up,
    -1 where it did not before it retired or the horizon ended; ``steps``
    holds the steps each row ran, H for a row that did neither.
    """

    predictions: Array
    weights: Array | None
    truncated_at: Array
    steps: Array


def _finite_rows(arr: Array) -> Array:
    return np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))


@dataclass(frozen=True)
class _RolloutStep:
    """What one model reads and computes at each closed-loop step.

    ``step(states, errors, values, rows)`` gets the newest-first buffers of
    the last ``states`` outputs and the last ``errors`` candidate errors
    (each candidate's forecast minus the output it stood in for), plus the
    candidate forecasts for this step when ``candidates`` is set, else None,
    all for the batch rows ``rows`` still stepping (ascending indices into
    the tiled batch; every row at step 0); it returns the output and the
    pooling weights (M per row) or None.
    """

    states: int
    errors: int
    candidates: bool
    step: Callable


def _one_hot_argmax(weights: Array) -> Array:
    out = np.zeros_like(weights)
    out[np.arange(len(weights)), weights.argmax(axis=1)] = 1.0
    return out


def _rollout_step(model, variants: tuple[str, ...], n_segments: int) -> _RolloutStep:
    """The step of ``model`` over a batch of ``len(variants)`` tiles of
    ``n_segments`` rows, tile i run as ``variants[i]``."""
    n_batch = n_segments * len(variants)
    if isinstance(model, AttentionPooler):
        additive = np.repeat([v == "additive" for v in variants], n_segments)
        frozen = None

        def weigh(states, errors, values, rows):
            query = np.concatenate([s[rows] for s in states], axis=-1)
            keys = np.concatenate([e[rows] for e in errors], axis=-1)
            return model.forward(query, keys, values[rows])[1]

        def attend(states, errors, values, rows):
            nonlocal frozen
            if frozen is None:
                # every tile holds the same inputs at step 0, so the first
                # tile's weights serve them all; the frozen tiles keep them
                fresh = weigh(states, errors, values, slice(0, n_segments))
                frozen = np.concatenate(
                    [_one_hot_argmax(fresh) if v == "best_initial" else fresh for v in variants]
                )
                weights = frozen
            else:
                weights = frozen[rows]
                recompute = additive[rows]
                if recompute.any():
                    weights[recompute] = weigh(states, errors, values, recompute)
            return np.einsum("bm,bmd->bd", weights, values), weights

        length = model.delay_length
        return _RolloutStep(length, length, True, attend)
    if variants != ("additive",):
        raise ValueError(
            f"variants {variants!r}: all but 'additive' are for the attention pooler only"
        )

    def in_place(rows, inputs):
        # a BLAS matmul's bits for one row can depend on the batch's height
        # and on the row's place in it, so the baselines keep every row where
        # it started, in a batch of the full height (retired rows zero)
        full = np.zeros((n_batch,) + inputs.shape[1:])
        full[rows] = inputs
        return full

    if isinstance(model, LinearPooler):

        def pool_linear(states, errors, values, rows):
            return model.predict(in_place(rows, values.reshape(len(values), -1)))[rows], None

        return _RolloutStep(1, 0, True, pool_linear)
    if isinstance(model, FeedForwardNet):

        def predict_direct(states, errors, values, rows):
            return model.predict(in_place(rows, np.concatenate(states, axis=-1)))[rows], None

        return _RolloutStep(model.delay_length, 0, False, predict_direct)
    raise TypeError(f"unknown model type {type(model).__name__}")


def closed_loop_forecast_batch(
    model: AttentionPooler | LinearPooler | FeedForwardNet,
    histories: Array,
    horizon: int,
    stepper: CandidateStepper = None,
    variants: Sequence[str] = ("additive",),
    truths: Array | None = None,
    full_horizon: Sequence[str] = (),
) -> tuple[ClosedLoopResult, ...]:
    """Autonomous multi-step forecasts from B start points in lockstep, one
    :class:`ClosedLoopResult` per name in ``variants``, in that order.

    ``histories`` is (B, depth, d) of true samples ending just before the
    first forecast target: depth is l+1 for the attention pooler (its oldest
    key term is a verified error, whose forecast was launched from the
    sample before the oldest embedded state), l for the direct net and 1
    for the linear pooler. After initialization the driver forms no forecast
    from the truth: candidate models re-integrate from the previous output,
    which also refills the state buffer, and the error buffer takes the
    candidates' deviation from it. Rows whose candidates (those seeding the
    error buffer included) or output blow up are zeroed internally (the
    origin integrates quietly), reported as NaN with their truncation step,
    and leave the batch.
    ``variants`` are distinct names from :data:`VARIANTS`, each a way for
    the attention pooler to weigh the candidates; the other models take
    only ``("additive",)``. The histories are tiled once per variant and
    every tile steps in one batch, so the candidates are integrated by one
    stepper call per step.

    ``truths`` (B, horizon, d), when given, holds the segments' true states;
    they only decide when a row stops. After each step, every row whose
    step :func:`~attnpool.evaluation.exceeded` the valid-time threshold has
    its valid time decided and leaves the batch, its later predictions left
    NaN, so :func:`~attnpool.evaluation.valid_time` of every row is that of
    the full rollout. The tiles of the variants named in ``full_horizon``
    run the whole horizon, as does every tile without ``truths``. A row's
    steps depend only on its own inputs, so the rows that stay keep their
    bits.
    """
    variants = tuple(variants)
    if not variants or len(set(variants)) < len(variants) or not set(variants) <= set(VARIANTS):
        raise ValueError(f"variants must be distinct names from {VARIANTS}, got {variants!r}")
    if not set(full_horizon) <= set(variants):
        raise ValueError(f"full_horizon {tuple(full_horizon)!r} names no variant of {variants!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if stepper is None:
        stepper = lorenz_candidate_stepper()
    histories = np.asarray(histories, dtype=np.float64)
    n_segments = len(histories)
    rollout = _rollout_step(model, variants, n_segments)
    depth = max(rollout.states, rollout.errors + 1)
    if histories.ndim != 3 or histories.shape[1] != depth:
        raise ValueError(
            f"histories must be (B, {depth}, d) for this {type(model).__name__}, "
            f"got {histories.shape}"
        )
    if truths is not None and np.shape(truths) != (n_segments, horizon, histories.shape[2]):
        raise ValueError(
            f"truths must be ({n_segments}, {horizon}, {histories.shape[2]}), "
            f"got {np.shape(truths)}"
        )
    histories = np.tile(histories, (len(variants), 1, 1))
    n_batch, _, dim = histories.shape
    rows = np.arange(n_batch)  # the batch rows still stepping, ascending
    segment = rows % n_segments
    judged = np.repeat([truths is not None and v not in full_horizon for v in variants], n_segments)

    # newest-first buffers seeded from true history; entry k of the error
    # buffer is (candidate forecast for history index -1-k) - (truth there)
    state_buf = [histories[:, -1 - k, :] for k in range(rollout.states)]
    error_buf = [
        stepper(histories[:, -2 - k, :]) - histories[:, -1 - k, :][:, None, :]
        for k in range(rollout.errors)
    ]

    # a row whose seeded errors are not finite dies at step 0, its entries
    # zeroed like every dead row's, so its weights never go NaN
    dead = np.zeros(n_batch, dtype=bool)
    for errors in error_buf:
        dead |= ~_finite_rows(errors)
    for errors in error_buf:
        errors[dead] = 0.0
    truncated_at = np.full(n_batch, -1, dtype=np.int64)
    steps = np.full(n_batch, horizon, dtype=np.int64)
    predictions = np.full((n_batch, horizon, dim), np.nan)
    weights_out = None
    values = None
    for step in range(horizon):
        if rollout.candidates:
            values = stepper(state_buf[0])
            dead |= ~_finite_rows(values)
            values[dead] = 0.0
        out, weights = rollout.step(state_buf, error_buf, values, rows)
        dead |= ~_finite_rows(out)
        live = ~dead
        predictions[rows[live], step] = out[live]
        if weights is not None:
            if weights_out is None:
                weights_out = np.full((n_batch, horizon, weights.shape[1]), np.nan)
            weights_out[rows[live], step] = weights[live]
        truncated_at[rows[dead]] = step

        done = dead
        if truths is not None:
            done = dead | (judged[rows] & exceeded(out, truths[segment[rows], step]))
        if done.any():
            steps[rows[done]] = step + 1
            keep = ~done
            rows, out = rows[keep], out[keep]
            state_buf = [s[keep] for s in state_buf]
            error_buf = [e[keep] for e in error_buf]
            if values is not None:
                values = values[keep]
            dead = dead[keep]
            if not len(rows):
                break

        state_buf.insert(0, out)
        del state_buf[rollout.states :]
        if rollout.errors:
            error_buf.insert(0, values - out[:, None, :])
            del error_buf[rollout.errors :]
    tiles = [slice(i * n_segments, (i + 1) * n_segments) for i in range(len(variants))]
    return tuple(
        ClosedLoopResult(
            predictions[t],
            None if weights_out is None else weights_out[t],
            truncated_at[t],
            steps[t],
        )
        for t in tiles
    )
