"""Additive attention over an ensemble of candidate forecasts.

One attention step scores each of M candidate models against the current
query, softmaxes the scores into pooling weights, and returns the weighted
average of the candidate forecasts:

    score_i = w_score . tanh(W_query q + W_key k_i + bias)
    a       = softmax(score)
    pooled  = sum_i a_i F_i

Queries and keys are delay embeddings: the l most recent base vectors
concatenated newest first. A multi-head variant runs P identical-shape heads
and mixes the concatenated pooled outputs through one output matrix.

Every pooler's parameters are one type, :class:`AttentionParams`: the heads
stacked on a leading axis, plus the output matrix where there is one. The
single head is a stack of one without it. The forward and the
hand-derived backward are written once, for stacked heads
(``_stacked_forward``, ``_stacked_backward``). All forward functions here
take a batch: queries ``(B, q)``, keys ``(B, M, k)``, values ``(B, M, d)``.
The backward is checked against central finite differences in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Array, uniform_init

# ---------------------------------------------------------------------------
# parameters


@dataclass
class AttentionParams:
    """P identical-shape additive-attention heads stacked on a leading axis,
    and the output matrix (d, d * P) that mixes their pooled outputs. The
    single head is a stack of one without a mixer."""

    w_query: Array  # (P, hidden, query_dim)
    w_key: Array    # (P, hidden, key_dim)
    w_score: Array  # (P, hidden)
    bias: Array     # (P, hidden)
    w_out: Array | None = None  # (d, d * P)

    @property
    def n_heads(self) -> int:
        return self.w_query.shape[0]


def init_heads(
    rng: np.random.Generator, n_heads: int, hidden: int, query_dim: int, key_dim: int
) -> AttentionParams:
    """Seeded uniform init, scale 1/sqrt(fan_in) per matrix, drawn head by
    head (w_query, w_key, w_score, bias) and then stacked; no mixer."""
    # (shape, fan_in) of w_query, w_key, w_score and bias, in draw order
    shapes = [((hidden, query_dim), query_dim), ((hidden, key_dim), key_dim), *[(hidden, hidden)] * 2]
    draws = [[uniform_init(rng, s, fan_in) for s, fan_in in shapes] for _ in range(n_heads)]
    return AttentionParams(*map(np.stack, zip(*draws)))


# ---------------------------------------------------------------------------
# forward


def softmax(scores: Array) -> Array:
    """Numerically stable softmax over the last axis (max subtraction
    before exponentiation)."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - np.max(scores, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _batched(params: AttentionParams, query: Array, keys: Array, values: Array):
    """Check the batch shapes, and the input widths of the heads of
    ``params``; returns float64 (Q, K, V)."""
    query = np.asarray(query, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if query.ndim != 2 or keys.ndim != 3 or values.ndim != 3:
        raise ValueError(
            f"expected query (B,q), keys (B,M,k), values (B,M,d); got "
            f"{query.shape}, {keys.shape}, {values.shape}"
        )
    if keys.shape[1] != values.shape[1]:
        raise ValueError(
            f"keys and values disagree on ensemble size: {keys.shape[1]} vs {values.shape[1]}"
        )
    if keys.shape[1] == 0:
        raise ValueError("ensemble is empty (M = 0)")
    if query.shape[1] != params.w_query.shape[-1]:
        raise ValueError(
            f"query dim {query.shape[1]} does not match w_query {params.w_query.shape}"
        )
    if keys.shape[2] != params.w_key.shape[-1]:
        raise ValueError(f"key dim {keys.shape[2]} does not match w_key {params.w_key.shape}")
    return query, keys, values


def _stacked_forward(params: AttentionParams, q: Array, k: Array, v: Array):
    """Pooled outputs (P, B, d), activations (P, B, M, h) and weights
    (P, B, M) of the heads of ``params``; the mixer is not applied.

    Both projections are stacked, one matmul per (head, instance): the one
    row policy of every closed-loop model (:mod:`attnpool.forecasting`). A
    2-D gemm over the batch (q @ w_query.T, or keys flattened to (B*M, k))
    gives bits that depend on the batch size; stacked, a segment's forecast
    has the same bits whichever segments share its batch, and each head the
    bits it would give alone. The tanh pre-activation is built in place in
    the key projection.
    """
    proj_q = q[None, :, None, :] @ params.w_query.transpose(0, 2, 1)[:, None]  # (P, B, 1, h)
    proj_q += params.bias[:, None, None, :]
    act = k[None] @ params.w_key.transpose(0, 2, 1)[:, None]                   # (P, B, M, h)
    act += proj_q
    np.tanh(act, out=act)
    scores = (act @ params.w_score[:, None, :, None])[..., 0]                  # (P, B, M)
    weights = softmax(scores)
    return np.einsum("pbm,bmd->pbd", weights, v), act, weights


def _stacked_backward(params: AttentionParams, cache, d_pooled: Array, grads: AttentionParams):
    """Gradients of the heads of ``params`` given d loss / d pooled
    (P, B, d), written into the head fields of ``grads``.

    The softmax Jacobian is applied in its contracted form a * (g - <a, g>).
    The pre-activation gradient d_scores * w_score * tanh' is never formed
    at (P, B, M, h): w_score varies only along h, so it scales the reduced
    gradients, and d_scores is folded into the reductions over M. Gradients
    with respect to the inputs are not formed: no caller trains through the
    query, keys or values. The activations of ``cache`` are overwritten.
    """
    q, k, v, act, weights = cache
    w_score = params.w_score
    p, b, m, h = act.shape
    d_weights = np.einsum("pbd,bmd->pbm", d_pooled, v)
    inner = np.sum(weights * d_weights, axis=-1, keepdims=True)
    d_scores = weights * (d_weights - inner)                               # (P, B, M)
    np.matmul(d_scores.reshape(p, 1, b * m), act.reshape(p, b * m, h), out=grads.w_score[:, None])
    d_tanh = np.multiply(act, act, out=act)                                # consumes the cache
    np.subtract(1.0, d_tanh, out=d_tanh)                                   # tanh'
    d_pre_m = (d_scores[..., None, :] @ d_tanh)[:, :, 0]                   # (P, B, h)
    scaled_keys = (d_scores[..., None] * k).reshape(p, b * m, k.shape[2])
    np.matmul(d_pre_m.transpose(0, 2, 1), q, out=grads.w_query)
    grads.w_query *= w_score[:, :, None]
    np.matmul(d_tanh.reshape(p, b * m, h).transpose(0, 2, 1), scaled_keys, out=grads.w_key)
    grads.w_key *= w_score[:, :, None]
    np.sum(d_pre_m, axis=1, out=grads.bias)
    grads.bias *= w_score


def single_head_forward(params: AttentionParams, query: Array, keys: Array, values: Array):
    """Pooled forecast and attention weights of one head; also returns the
    backward cache.

    ``params`` must be a stack of one head without a mixer. Returns
    ``(pooled, weights, cache)``: pooled (B, d), weights (B, M); the cache
    keeps the head axis, activations (1, B, M, h) and weights (1, B, M).
    """
    if params.n_heads != 1 or params.w_out is not None:
        raise ValueError(
            f"single_head_forward takes one head without w_out, got {params.n_heads} "
            f"heads{'' if params.w_out is None else ' and a w_out'}"
        )
    q, k, v = _batched(params, query, keys, values)
    pooled, act, weights = _stacked_forward(params, q, k, v)
    return pooled[0], weights[0], (q, k, v, act, weights)


def single_head_backward(
    params: AttentionParams, cache, upstream: Array, out: AttentionParams
) -> AttentionParams:
    """Parameter gradients of an arbitrary scalar loss given d loss / d pooled.

    The gradients, shaped and typed like ``params``, are written into
    ``out`` (a training loop passes views into its gradient buffer). The
    backward consumes the cache's activations, writing tanh' over them: a
    second backward needs a fresh forward.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    _stacked_backward(params, cache, upstream[None], out)
    return out


def multi_head_forward(params: AttentionParams, query: Array, keys: Array, values: Array):
    """All heads share query/keys/values; pooled head outputs are concatenated
    in head order and mixed by ``w_out``.

    The heads run as one stacked computation with the head axis leading,
    activations (P, B, M, h), the computation :func:`single_head_forward`
    runs on a stack of one.
    """
    q, k, v = _batched(params, query, keys, values)
    n_heads = params.n_heads
    b, d = q.shape[0], v.shape[2]
    w_out_shape = None if params.w_out is None else params.w_out.shape
    if w_out_shape != (d, d * n_heads):
        raise ValueError(
            f"multi_head_forward needs w_out of shape {(d, d * n_heads)} to mix "
            f"{n_heads} heads of dim {d}; got w_out {w_out_shape}"
        )
    pooled, act, weights = _stacked_forward(params, q, k, v)
    concat = pooled.transpose(1, 0, 2).reshape(b, n_heads * d)
    out = concat @ params.w_out.T                                          # (B, d)
    head_weights = weights.transpose(1, 0, 2)                              # (B, P, M)
    return out, head_weights, (q, k, v, act, weights, concat)


def multi_head_backward(
    params: AttentionParams, cache, upstream: Array, out: AttentionParams
) -> AttentionParams:
    """Parameter gradients of the stacked heads and the mixer, written into
    ``out``. Like :func:`single_head_backward`, it consumes the cache's
    activations: a second backward needs a fresh forward."""
    concat = cache[-1]
    upstream = np.asarray(upstream, dtype=np.float64)
    b, p = len(upstream), params.n_heads
    np.einsum("bd,bc->dc", upstream, concat, out=out.w_out)
    d_pooled = (upstream @ params.w_out).reshape(b, p, -1).transpose(1, 0, 2)  # (P, B, d)
    _stacked_backward(params, cache[:5], d_pooled, out)
    return out
