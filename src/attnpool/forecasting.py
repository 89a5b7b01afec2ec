"""Trained pooler, training loop and closed-loop forecast driver.

Every trained model of both pipelines is one :class:`Pooler`: a kind, its
parameters, its delay and the standardizers of its inputs. The kinds are
``additive`` (one attention head, an
:class:`attnpool.attention.AttentionParams` stack of one without a mixer),
``multi_head`` (P heads and their mixer, hub only), ``linear`` (an affine
map of the flattened candidate forecasts) and ``ffnn`` (a feed-forward net
that predicts directly from past states, Lorenz only);
:func:`kind_functions` maps each to its forward and backward. This module
also supplies:

* assembly of open-loop training instances from a trajectory plus the
  candidate one-step forecasts (queries = delay-embedded past states, keys =
  delay-embedded past candidate errors, values = current candidate forecasts);
* :func:`fit`, the one training step (optimizer, forward, loss, backward),
  run by all four trainers: the Lorenz attention pooler, linear pooler and
  direct net, and the hub's quantile pooler; each standardizes its inputs
  once, before the first step;
* one closed-loop (autonomous, outputs recycled) forecast driver for the
  three Lorenz kinds, batched across many start points.

Closed-loop mechanics: each step, every candidate model is re-integrated
from the *pooled* previous output, the pooled output stands in for the truth
when forming the next query and the next key errors, and the attention
weights are recomputed from those surrogate inputs. The driver keeps the
model's inputs as two newest-first delay-embedding arrays, the query of
past outputs and the keys of past candidate errors; each step shifts both
one lag back and writes the new output and errors at lag 0. Two degraded
variants reuse the same trained parameters: ``fixed_attention`` freezes the
weight vector computed at step 0, and ``best_initial`` runs the single
candidate that got the largest step-0 weight. The variants of one model run
as one batch, one tile of the start points per variant: the step-0 weights
are computed once for all tiles, only the ``additive`` tile recomputes them
afterwards (so after step 0 only its rows keep keys), and every tile's
candidates are integrated together. The driver forms no forecast from the
segments' truths: they only decide when a row's valid time is settled, and
the row then leaves the batch, except in the tiles that run the whole
horizon.

One row policy holds for every model the closed loop steps: each row of a
batch has its own matmuls (:func:`_by_row`, ``attention._stacked_forward``),
so a segment's forecast has the same bits whichever segments share its
batch, and rows leave it without moving the bits of those that stay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attention import (
    AttentionParams,
    init_heads,
    multi_head_backward,
    multi_head_forward,
    single_head_backward,
    single_head_forward,
)
from .evaluation import exceeded
from .lorenz import candidate_steps
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

    def apply(self, arr: Array) -> Array:
        """``(arr - mean) / scale`` in one new array, divided in place."""
        out = np.subtract(arr, self.mean, dtype=np.float64)
        out /= self.scale
        return out


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
    """Aligned training instances for the targets j = l+1 .. n-1 of a
    series of n samples, in that order, at delay length l.

    For target index j: ``queries`` holds the states at j-1 .. j-l (newest
    first), ``keys`` the candidate errors at the same indices, ``values`` the
    candidate forecasts for j itself, ``targets`` the true state at j.
    Queries and keys are raw (unstandardized).
    """

    queries: Array         # (N, l*d)
    keys: Array            # (N, M, l*d)
    values: Array          # (N, M, d)
    targets: Array         # (N, d)


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
    # every target index >= length + 1, and its past indices newest first
    idx = np.arange(length + 1, n)
    lags = idx[:, None] - np.arange(1, length + 1)                        # (N, l)
    # one gather each, straight into row order: (N, l, d) and (N, M, l, d)
    m = candidates.shape[1]
    keys = errors[lags[:, None, :, None], np.arange(m)[:, None, None], np.arange(d)]
    return OpenLoopData(
        queries=states[lags].reshape(len(idx), length * d),
        keys=keys.reshape(len(idx), m, length * d),
        values=candidates[idx],
        targets=states[idx],
    )


# ---------------------------------------------------------------------------
# models


def _by_row(x: Array, weight: Array) -> Array:
    """``x @ weight.T`` for a batch ``x`` (B, d_in), one matmul per row."""
    return (x[:, None, :] @ weight.T)[:, 0]


@dataclass
class LinearPooler:
    """Affine map from flattened candidate forecasts to a pooled forecast."""

    weight: Array  # (d_out, d_in)
    bias: Array    # (d_out,)

    def forward(self, inputs: Array):
        """``(pooled, None, cache)``: the linear pooler has no weights, and
        its backward reads the inputs."""
        return _by_row(np.asarray(inputs, dtype=np.float64), self.weight) + self.bias, None, inputs

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


def ffnn_forward(net: FeedForwardNet, inputs: Array):
    """out = w2 tanh(w1 x + b1) + b2 for standardized inputs (B, d_in);
    returns ``(out, None, cache)``, the net having no pooling weights."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.w1.shape[1]:
        raise ValueError(f"input dim of {x.shape} does not match w1 {net.w1.shape}")
    act = np.tanh(_by_row(x, net.w1) + net.b1)
    return _by_row(act, net.w2) + net.b2, None, (x, act)


def ffnn_backward(
    net: FeedForwardNet, cache, upstream: Array, out: FeedForwardNet
) -> FeedForwardNet:
    """Parameter gradients given d loss / d out, typed like ``net``, written
    into ``out``. The gradient with respect to the inputs is not formed: no
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
    )


def kind_functions(kind: str) -> tuple[Callable, Callable]:
    """``(forward, backward)`` of a trained pooler kind.
    ``forward(params, *inputs)`` returns ``(preds, weights, cache)``,
    ``weights`` None where the kind has none; ``backward(params, cache,
    upstream, out)`` writes the parameter gradients into ``out`` and returns
    it. The table is built on each call, so it holds whatever the module's
    names are bound to then (a profiler that wraps them sees the calls)."""
    return {
        "additive": (single_head_forward, single_head_backward),
        "multi_head": (multi_head_forward, multi_head_backward),
        "linear": (LinearPooler.forward, LinearPooler.backward),
        "ffnn": (ffnn_forward, ffnn_backward),
    }[kind]


@dataclass(frozen=True)
class Pooler:
    """A trained model of either pipeline with the input standardizers it
    was fit under: ``params`` of a kind of :func:`kind_functions`, or the
    candidate index or None of a hub baseline kind, at delay ``delay``.

    The first input of the kind's forward (the queries, or the direct net's
    delayed states) is standardized by ``query_scaler`` and the second (the
    keys) by ``key_scaler``, each where it is set; every other input, and
    the output, is raw.
    """

    kind: str
    params: AttentionParams | LinearPooler | FeedForwardNet | int | None
    delay: int
    query_scaler: Standardizer | None = None
    key_scaler: Standardizer | None = None

    def standardize(self, *raw_inputs: Array) -> tuple[Array, ...]:
        """The kind's forward inputs from raw ones: the first two divided
        by whichever scalers are set, each into a new array."""
        scalers = (self.query_scaler, self.key_scaler, *[None] * len(raw_inputs))
        return tuple(x if s is None else s.apply(x) for x, s in zip(raw_inputs, scalers))

    def forward(self, *raw_inputs: Array):
        """``(preds, weights, cache)`` of the kind's forward on the
        standardized ``raw_inputs``."""
        forward, _ = kind_functions(self.kind)
        return forward(self.params, *self.standardize(*raw_inputs))


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    """The knobs of :func:`fit`, the one training config of every trainer.
    The full-scale values are the experiment config's defaults, so none is
    declared here."""

    epochs: int
    learning_rate: float
    batch_size: int
    weight_decay: float
    seed: int

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


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
    config: TrainConfig,
    check_rows: Callable[[Array], None] | None = None,
) -> Array:
    """The one training step, run by every trainer: trains the array fields
    of ``model`` in place by minibatch Adam and returns the per-epoch loss.

    ``config`` is the :class:`TrainConfig` whose ``epochs``,
    ``batch_size``, ``learning_rate`` and ``weight_decay`` the loop reads;
    its ``seed`` has already seeded ``rng`` and the model. Each epoch draws
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


def _fit_pooler(
    pooler: Pooler, raw_inputs: Sequence[Array], targets: Array,
    rng: np.random.Generator, config: TrainConfig,
) -> Array:
    """The Lorenz trainers' :func:`fit` of ``pooler`` on every instance:
    its inputs standardized once, the loss the squared error against
    ``targets`` averaged over the batch's elements."""
    targets = np.asarray(targets, dtype=np.float64)

    def squared_error(preds, idx):
        resid = preds - targets[idx]
        return resid * resid, 2.0 * resid / resid.size

    forward, backward = kind_functions(pooler.kind)
    return fit(
        pooler.params, forward, backward, pooler.standardize(*raw_inputs),
        squared_error, np.arange(len(targets)), rng, config,
    )


def train_attention(
    data: OpenLoopData,
    length: int,
    *,
    hidden: int | None,
    config: TrainConfig,
) -> tuple[Pooler, Array]:
    """Minibatch-Adam MSE training of the ``additive`` pooler; returns it
    and the per-epoch losses. A ``hidden`` of None takes
    :func:`attention_hidden_size` of ``length``."""
    hidden = attention_hidden_size(length) if hidden is None else hidden
    rng = spawn_rng(config.seed, f"train-attention-l{length}")
    params = init_heads(rng, 1, hidden, data.queries.shape[1], data.keys.shape[2])
    pooler = Pooler(
        "additive", params, length, Standardizer.fit(data.queries), Standardizer.fit(data.keys)
    )
    curve = _fit_pooler(pooler, (data.queries, data.keys, data.values), data.targets, rng, config)
    return pooler, curve


def train_linear(
    inputs: Array, targets: Array, config: TrainConfig
) -> tuple[Pooler, Array]:
    """Adam-trained affine pooler of the current candidate forecasts, at
    delay 1."""
    x = np.asarray(inputs, dtype=np.float64)
    rng = spawn_rng(config.seed, "train-linear")
    out_dim = np.shape(targets)[1]
    model = LinearPooler(
        weight=uniform_init(rng, (out_dim, x.shape[1]), x.shape[1]), bias=np.zeros(out_dim)
    )
    pooler = Pooler("linear", model, 1)
    return pooler, _fit_pooler(pooler, (x,), targets, rng, config)


def train_ffnn(
    inputs_raw: Array,
    targets: Array,
    length: int,
    *,
    hidden: int | None,
    config: TrainConfig,
) -> tuple[Pooler, Array]:
    """Direct state-forecast baseline, trained from standardized delayed
    states. A ``hidden`` of None takes :func:`ffnn_hidden_size` of
    ``length``."""
    hidden = ffnn_hidden_size(length) if hidden is None else hidden
    rng = spawn_rng(config.seed, f"train-ffnn-l{length}")
    net = init_ffnn(rng, hidden, np.shape(inputs_raw)[1], np.shape(targets)[1])
    pooler = Pooler("ffnn", net, length, Standardizer.fit(inputs_raw))
    return pooler, _fit_pooler(pooler, (inputs_raw,), targets, rng, config)


# ---------------------------------------------------------------------------
# closed-loop forecasting

VARIANTS = ("additive", "fixed_attention", "best_initial")


def gather_histories(states: Array, starts, depth: int) -> Array:
    """The ``depth`` samples preceding each start index, in one gather:
    (B, depth, d)."""
    states = np.asarray(states, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp).reshape(-1)
    for s in starts[starts < depth][:1]:
        raise ValueError(f"start index {s} has only {s} preceding samples, need {depth}")
    return states[starts[:, None] + np.arange(-depth, 0)]


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


def _one_hot_argmax(weights: Array) -> Array:
    out = np.zeros_like(weights)
    out[np.arange(len(weights)), weights.argmax(axis=1)] = 1.0
    return out


def closed_loop_forecast_batch(
    model: Pooler,
    histories: Array,
    horizon: int,
    *,
    variants: Sequence[str],
    truths: Array,
    full_horizon: Sequence[str],
) -> tuple[ClosedLoopResult, ...]:
    """Autonomous multi-step forecasts from B start points in lockstep, one
    :class:`ClosedLoopResult` per name in ``variants``, in that order.

    ``model`` is a :class:`Pooler` of kind ``additive`` (the attention
    pooler), ``linear`` or ``ffnn`` (the direct net) at delay l; the Lorenz
    linear pooler is at delay 1. ``histories`` is (B, depth, d) of true
    samples ending just before the first forecast target: depth is l+1 for
    the attention pooler (its oldest key term is a verified error, whose
    forecast was launched from the sample before the oldest embedded
    state) and l for the others. The driver steps two newest-first delay
    embeddings, seeded from that history: the query (rows, S*d) of the last
    S outputs, and the keys (rows, M, E*d) of the last E candidate errors,
    each candidate's forecast minus the output it stood in for. S is l; E
    is l for the attention pooler and 0 for the others. After
    initialization the driver forms no forecast from the truth: each step,
    the candidates (M of them, for every model but the direct net) are
    integrated from the previous output, which then enters the query at lag
    0, and the keys take the candidates' deviation from it. Rows whose
    candidates (those seeding the keys included) or output blow up are
    zeroed internally (the origin integrates quietly), reported as NaN with
    their truncation step, and leave the batch.
    ``variants`` are distinct names from :data:`VARIANTS`, each a way for
    the attention pooler to weigh the candidates; the other models take
    only ``("additive",)``. The histories are tiled once per variant and
    every tile steps in one batch: the step-0 weights are computed once, on
    the first tile, and only the ``additive`` tile recomputes them later,
    so only its rows keep and shift keys after step 0.

    ``truths`` (B, horizon, d) holds the segments' true states; they only
    decide when a row stops. After each step, every row whose step
    :func:`~attnpool.evaluation.exceeded` the valid-time threshold has its
    valid time decided and leaves the batch, its later predictions left
    NaN, so :func:`~attnpool.evaluation.valid_time` of every row is that of
    the full rollout. The tiles of the variants named in ``full_horizon``
    run the whole horizon.
    """
    variants = tuple(variants)
    if not variants or len(set(variants)) < len(variants) or not set(variants) <= set(VARIANTS):
        raise ValueError(f"variants must be distinct names from {VARIANTS}, got {variants!r}")
    if not set(full_horizon) <= set(variants):
        raise ValueError(f"full_horizon {tuple(full_horizon)!r} names no variant of {variants!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if model.kind not in ("additive", "linear", "ffnn"):
        raise ValueError(f"the closed loop cannot step a {model.kind!r} pooler")
    attention = model.kind == "additive"
    if not attention and variants != ("additive",):
        raise ValueError(
            f"variants {variants!r}: all but 'additive' are for the attention pooler only"
        )
    n_states = model.delay
    n_errors = model.delay if attention else 0
    histories = np.asarray(histories, dtype=np.float64)
    n_segments = len(histories)
    depth = max(n_states, n_errors + 1)
    if histories.ndim != 3 or histories.shape[1] != depth:
        raise ValueError(
            f"histories must be (B, {depth}, d) for a {model.kind} pooler at delay "
            f"{model.delay}, got {histories.shape}"
        )
    if np.shape(truths) != (n_segments, horizon, histories.shape[2]):
        raise ValueError(
            f"truths must be ({n_segments}, {horizon}, {histories.shape[2]}), "
            f"got {np.shape(truths)}"
        )
    histories = np.tile(histories, (len(variants), 1, 1))
    n_rows, _, dim = histories.shape
    rows = np.arange(n_rows)  # the batch rows still stepping, ascending
    segment = rows % n_segments
    judged = np.repeat([v not in full_horizon for v in variants], n_segments)
    additive = np.repeat([v == "additive" for v in variants], n_segments)

    # lag k of the keys is (candidate forecast for history index -1-k) -
    # (truth there); the baselines' keys are empty
    query = np.concatenate([histories[:, -1 - k] for k in range(n_states)], axis=-1)
    errors = [
        candidate_steps(histories[:, -2 - k]) - histories[:, -1 - k, None] for k in range(n_errors)
    ]
    keys = np.concatenate(errors, axis=-1) if errors else np.empty((n_rows, 0, 0))
    # a row whose seeded errors are not finite dies at step 0, its entries
    # zeroed like every dead row's, so its weights never go NaN
    dead = ~_finite_rows(keys)
    keys[dead] = 0.0
    truncated_at = np.full(n_rows, -1, dtype=np.int64)
    steps = np.full(n_rows, horizon, dtype=np.int64)
    predictions = np.full((n_rows, horizon, dim), np.nan)
    weights_out = np.full((n_rows, horizon, keys.shape[1]), np.nan) if attention else None
    for step in range(horizon):
        if model.kind != "ffnn":  # the direct net integrates no candidates
            values = candidate_steps(query[:, :dim])
            dead |= ~_finite_rows(values)
            values[dead] = 0.0
        if attention:
            if step == 0:
                # every tile holds the same inputs at step 0, so the first
                # tile's weights serve them all; the frozen tiles keep them
                first = slice(0, n_segments)
                fresh = model.forward(query[first], keys[first], values[first])[1]
                weights = frozen = np.concatenate(
                    [_one_hot_argmax(fresh) if v == "best_initial" else fresh for v in variants]
                )
                # from here on the keys hold the rows of the additive tile only
                keys = keys[additive]
            else:
                weights = frozen[rows]
                mask = additive[rows]
                if mask.any():
                    weights[mask] = model.forward(query[mask], keys, values[mask])[1]
            out = np.einsum("bm,bmd->bd", weights, values)
        else:
            inputs = values.reshape(len(values), -1) if model.kind == "linear" else query
            out = model.forward(inputs)[0]
        dead |= ~_finite_rows(out)
        live = ~dead
        predictions[rows[live], step] = out[live]
        if attention:
            weights_out[rows[live], step] = weights[live]
        truncated_at[rows[dead]] = step

        done = dead | (judged[rows] & exceeded(out, truths[segment[rows], step]))
        if done.any():
            steps[rows[done]] = step + 1
            keep = ~done
            if n_errors:
                keys, values = keys[keep[additive[rows]]], values[keep]
            rows, out, dead = rows[keep], out[keep], dead[keep]
            query = query[keep]
            if not len(rows):
                break

        # each embedding moves one lag back, the new output and errors at lag 0
        query = np.concatenate([out, query[:, :-dim]], axis=-1)
        if n_errors:
            mask = additive[rows]
            keys = np.concatenate([values[mask] - out[mask, None, :], keys[..., :-dim]], axis=-1)
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
