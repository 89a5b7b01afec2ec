"""Additive attention over an ensemble of candidate forecasts.

One attention step scores each of M candidate models against the current
query, softmaxes the scores into pooling weights, and returns the weighted
average of the candidate forecasts:

    score_i = w_score . tanh(W_query q + W_key k_i + bias)
    a       = softmax(score)
    pooled  = sum_i a_i F_i

Queries and keys are delay embeddings: the l most recent base vectors
concatenated newest first. A multi-head variant runs P identical-shape heads,
stacked on a leading axis, and mixes the concatenated pooled outputs through
one output matrix.

All forward functions here take a batch: queries ``(B, q)``, keys
``(B, M, k)``, values ``(B, M, d)``. Backward passes are hand-derived and
checked against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import Array, empty_like_fields, uniform_init

# ---------------------------------------------------------------------------
# parameters


HEAD_FIELDS = ("w_query", "w_key", "w_score", "bias")


@dataclass
class SingleHeadParams:
    """One additive-attention head: two input projections, score vector, bias."""

    w_query: Array  # (hidden, query_dim)
    w_key: Array    # (hidden, key_dim)
    w_score: Array  # (hidden,)
    bias: Array     # (hidden,)


@dataclass
class MultiHeadParams:
    """P identical-shape heads stacked on a leading axis, plus the output
    mixing matrix (d, d * P)."""

    w_query: Array  # (P, hidden, query_dim)
    w_key: Array    # (P, hidden, key_dim)
    w_score: Array  # (P, hidden)
    bias: Array     # (P, hidden)
    w_out: Array    # (d, d * P)

    @classmethod
    def from_heads(cls, heads: Sequence[SingleHeadParams], w_out: Array) -> "MultiHeadParams":
        stacked = {n: np.stack([getattr(h, n) for h in heads]) for n in HEAD_FIELDS}
        return cls(**stacked, w_out=w_out)

    @property
    def n_heads(self) -> int:
        return self.w_query.shape[0]


def init_single_head(
    rng: np.random.Generator, hidden: int, query_dim: int, key_dim: int
) -> SingleHeadParams:
    """Seeded uniform init, scale 1/sqrt(fan_in) per matrix."""
    return SingleHeadParams(
        w_query=uniform_init(rng, (hidden, query_dim), query_dim),
        w_key=uniform_init(rng, (hidden, key_dim), key_dim),
        w_score=uniform_init(rng, hidden, hidden),
        bias=uniform_init(rng, hidden, hidden),
    )


# ---------------------------------------------------------------------------
# forward


def softmax(scores: Array, axis: int = -1) -> Array:
    """Numerically stable softmax (max subtraction before exponentiation)."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _batched(query: Array, keys: Array, values: Array):
    """Check the batch shapes; returns float64 (Q, K, V)."""
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
    return query, keys, values


def single_head_forward(params: SingleHeadParams, query: Array, keys: Array, values: Array):
    """Pooled forecast and attention weights; also returns the backward cache.

    Returns ``(pooled, weights, cache)``: pooled (B, d), weights (B, M).
    """
    q, k, v = _batched(query, keys, values)
    if q.shape[1] != params.w_query.shape[1]:
        raise ValueError(
            f"query dim {q.shape[1]} does not match w_query {params.w_query.shape}"
        )
    if k.shape[2] != params.w_key.shape[1]:
        raise ValueError(f"key dim {k.shape[2]} does not match w_key {params.w_key.shape}")
    # Both projections are stacked, one matmul per instance. A 2-D gemm over
    # the batch (q @ w_query.T, or keys flattened to (B*M, k)) gives bits
    # that depend on the batch size; stacked, a segment's closed-loop
    # forecast has the same bits whichever segments share its batch. The
    # tanh pre-activation is built in place in the key projection.
    proj_q = q[:, None, :] @ params.w_query.T          # (B, 1, h)
    proj_q += params.bias
    act = k @ params.w_key.T                           # (B, M, h)
    act += proj_q
    np.tanh(act, out=act)
    scores = act @ params.w_score                      # (B, M)
    weights = softmax(scores, axis=-1)
    pooled = np.einsum("bm,bmd->bd", weights, v)
    return pooled, weights, (q, k, v, act, weights)


def single_head_backward(
    params: SingleHeadParams, cache, upstream: Array, out: SingleHeadParams | None = None
) -> SingleHeadParams:
    """Parameter gradients of an arbitrary scalar loss given d loss / d pooled.

    The softmax Jacobian is applied in its contracted form a * (g - <a, g>).
    Gradients with respect to the inputs are not formed: no caller trains
    through the query, keys or values. The gradients, shaped and typed like
    ``params``, are written into ``out`` when given (a training loop passes
    views into its gradient buffer), else into new arrays.
    """
    q, k, v, act, weights = cache
    upstream = np.asarray(upstream, dtype=np.float64)
    if out is None:
        out = empty_like_fields(params)
    b, m, h = act.shape
    d_weights = np.einsum("bd,bmd->bm", upstream, v)
    inner = np.sum(weights * d_weights, axis=1, keepdims=True)
    d_scores = weights * (d_weights - inner)           # (B, M)
    # The pre-activation gradient d_scores * w_score * tanh' is never formed
    # at (B, M, h): w_score varies only along h, so it scales the reduced
    # gradients, and d_scores is folded into the reductions over M.
    d_tanh = act * act
    np.subtract(1.0, d_tanh, out=d_tanh)               # tanh', (B, M, h)
    d_pre_m = (d_scores[:, None, :] @ d_tanh)[:, 0]    # (B, h), sum over M / w_score
    scaled_keys = (d_scores[:, :, None] * k).reshape(b * m, k.shape[2])
    w = params.w_score
    np.matmul(d_pre_m.T, q, out=out.w_query)
    out.w_query *= w[:, None]
    np.matmul(d_tanh.reshape(b * m, h).T, scaled_keys, out=out.w_key)
    out.w_key *= w[:, None]
    np.matmul(d_scores.reshape(-1), act.reshape(b * m, h), out=out.w_score)
    np.sum(d_pre_m, axis=0, out=out.bias)
    out.bias *= w
    return out


def multi_head_forward(params: MultiHeadParams, query: Array, keys: Array, values: Array):
    """All heads share query/keys/values; pooled head outputs are concatenated
    in head order and mixed by ``w_out``.

    The heads run as one stacked computation with the head axis leading,
    activations (P, B, M, h). Every per-(head, instance) matmul has the shape
    and operand layout of :func:`single_head_forward`, so each head gives
    the bits it would give alone.
    """
    q, k, v = _batched(query, keys, values)
    n_heads = params.n_heads
    if q.shape[1] != params.w_query.shape[2]:
        raise ValueError(
            f"query dim {q.shape[1]} does not match w_query {params.w_query.shape}"
        )
    if k.shape[2] != params.w_key.shape[2]:
        raise ValueError(f"key dim {k.shape[2]} does not match w_key {params.w_key.shape}")
    b, d = q.shape[0], v.shape[2]
    if params.w_out.shape != (d, d * n_heads):
        raise ValueError(
            f"w_out shape {params.w_out.shape} does not match {n_heads} heads of dim {d}"
        )
    proj_q = q[None, :, None, :] @ params.w_query.transpose(0, 2, 1)[:, None]  # (P, B, 1, h)
    proj_q += params.bias[:, None, None, :]
    act = k[None] @ params.w_key.transpose(0, 2, 1)[:, None]                   # (P, B, M, h)
    act += proj_q
    np.tanh(act, out=act)
    scores = (act @ params.w_score[:, None, :, None])[..., 0]                  # (P, B, M)
    weights = softmax(scores, axis=-1)
    pooled = np.einsum("pbm,bmd->pbd", weights, v)
    concat = pooled.transpose(1, 0, 2).reshape(b, n_heads * d)
    out = concat @ params.w_out.T                                              # (B, d)
    head_weights = weights.transpose(1, 0, 2)                                  # (B, P, M)
    return out, head_weights, (q, k, v, act, weights, concat)


def multi_head_backward(
    params: MultiHeadParams, cache, upstream: Array, out: MultiHeadParams | None = None
) -> MultiHeadParams:
    """Parameter gradients of the stacked heads and the mixer, computed as
    in :func:`single_head_backward` with a leading head axis; written into
    ``out`` when given."""
    q, k, v, act, weights, concat = cache
    upstream = np.asarray(upstream, dtype=np.float64)
    if out is None:
        out = empty_like_fields(params)
    p, b, m, h = act.shape
    d = v.shape[2]
    np.einsum("bd,bc->dc", upstream, concat, out=out.w_out)
    d_pooled = (upstream @ params.w_out).reshape(b, p, d).transpose(1, 0, 2)   # (P, B, d)
    d_weights = np.einsum("pbd,bmd->pbm", d_pooled, v)
    inner = np.sum(weights * d_weights, axis=-1, keepdims=True)
    d_scores = weights * (d_weights - inner)                                   # (P, B, M)
    np.matmul(d_scores.reshape(p, 1, b * m), act.reshape(p, b * m, h), out=out.w_score[:, None])
    d_tanh = act * act
    np.subtract(1.0, d_tanh, out=d_tanh)                                       # tanh'
    d_pre_m = (d_scores[..., None, :] @ d_tanh)[:, :, 0]                       # (P, B, h)
    scaled_keys = (d_scores[..., None] * k).reshape(p, b * m, k.shape[2])
    w = params.w_score
    np.matmul(d_pre_m.transpose(0, 2, 1), q, out=out.w_query)
    out.w_query *= w[:, :, None]
    np.matmul(d_tanh.reshape(p, b * m, h).transpose(0, 2, 1), scaled_keys, out=out.w_key)
    out.w_key *= w[:, :, None]
    np.sum(d_pre_m, axis=1, out=out.bias)
    out.bias *= w
    return out
