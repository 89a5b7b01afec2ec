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

The forward and the hand-derived backward are written once, for heads
stacked on a leading axis (``_stacked_forward``, ``_stacked_backward``).
The single head runs as a stack of one, through (1, ...) views of its
arrays. All forward functions here take a batch: queries ``(B, q)``, keys
``(B, M, k)``, values ``(B, M, d)``. The backward is checked against central
finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import Array, uniform_init

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


def _batched(params, query: Array, keys: Array, values: Array):
    """Check the batch shapes, and the input widths of ``params`` (one head
    or stacked heads); returns float64 (Q, K, V)."""
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


def _head_arrays(params, index) -> list[Array]:
    """The ``HEAD_FIELDS`` arrays of parameters or gradients as views:
    ``index`` None makes one head a stack of one, ``...`` keeps stacked
    heads. Writing into a view writes into ``params``."""
    return [getattr(params, n)[index] for n in HEAD_FIELDS]


def _stacked_forward(heads: Sequence[Array], q: Array, k: Array, v: Array):
    """Pooled outputs (P, B, d), activations (P, B, M, h) and weights
    (P, B, M) of the heads given as stacked ``HEAD_FIELDS`` arrays.

    Both projections are stacked, one matmul per (head, instance): the one
    row policy of every closed-loop model (:mod:`attnpool.forecasting`). A
    2-D gemm over the batch (q @ w_query.T, or keys flattened to (B*M, k))
    gives bits that depend on the batch size; stacked, a segment's forecast
    has the same bits whichever segments share its batch, and each head the
    bits it would give alone. The tanh pre-activation is built in place in
    the key projection.
    """
    w_query, w_key, w_score, bias = heads
    proj_q = q[None, :, None, :] @ w_query.transpose(0, 2, 1)[:, None]     # (P, B, 1, h)
    proj_q += bias[:, None, None, :]
    act = k[None] @ w_key.transpose(0, 2, 1)[:, None]                      # (P, B, M, h)
    act += proj_q
    np.tanh(act, out=act)
    scores = (act @ w_score[:, None, :, None])[..., 0]                     # (P, B, M)
    weights = softmax(scores, axis=-1)
    return np.einsum("pbm,bmd->pbd", weights, v), act, weights


def _stacked_backward(heads: Sequence[Array], cache, d_pooled: Array, grads: Sequence[Array]):
    """Gradients of the stacked heads given d loss / d pooled (P, B, d),
    written into ``grads`` (stacked, in ``HEAD_FIELDS`` order).

    The softmax Jacobian is applied in its contracted form a * (g - <a, g>).
    The pre-activation gradient d_scores * w_score * tanh' is never formed
    at (P, B, M, h): w_score varies only along h, so it scales the reduced
    gradients, and d_scores is folded into the reductions over M. Gradients
    with respect to the inputs are not formed: no caller trains through the
    query, keys or values. The activations of ``cache`` are overwritten.
    """
    q, k, v, act, weights = cache
    w_score = heads[2]
    g_query, g_key, g_score, g_bias = grads
    p, b, m, h = act.shape
    d_weights = np.einsum("pbd,bmd->pbm", d_pooled, v)
    inner = np.sum(weights * d_weights, axis=-1, keepdims=True)
    d_scores = weights * (d_weights - inner)                               # (P, B, M)
    np.matmul(d_scores.reshape(p, 1, b * m), act.reshape(p, b * m, h), out=g_score[:, None])
    d_tanh = np.multiply(act, act, out=act)                                # consumes the cache
    np.subtract(1.0, d_tanh, out=d_tanh)                                   # tanh'
    d_pre_m = (d_scores[..., None, :] @ d_tanh)[:, :, 0]                   # (P, B, h)
    scaled_keys = (d_scores[..., None] * k).reshape(p, b * m, k.shape[2])
    np.matmul(d_pre_m.transpose(0, 2, 1), q, out=g_query)
    g_query *= w_score[:, :, None]
    np.matmul(d_tanh.reshape(p, b * m, h).transpose(0, 2, 1), scaled_keys, out=g_key)
    g_key *= w_score[:, :, None]
    np.sum(d_pre_m, axis=1, out=g_bias)
    g_bias *= w_score


def single_head_forward(params: SingleHeadParams, query: Array, keys: Array, values: Array):
    """Pooled forecast and attention weights; also returns the backward cache.

    Returns ``(pooled, weights, cache)``: pooled (B, d), weights (B, M). The
    head runs as a stack of one; the cache holds the activations (B, M, h)
    and the weights without the head axis.
    """
    q, k, v = _batched(params, query, keys, values)
    pooled, act, weights = _stacked_forward(_head_arrays(params, None), q, k, v)
    return pooled[0], weights[0], (q, k, v, act[0], weights[0])


def single_head_backward(
    params: SingleHeadParams, cache, upstream: Array, out: SingleHeadParams
) -> SingleHeadParams:
    """Parameter gradients of an arbitrary scalar loss given d loss / d pooled.

    The gradients, shaped and typed like ``params``, are written into
    ``out`` (a training loop passes views into its gradient buffer). The
    backward consumes the cache's activations, writing tanh' over them: a
    second backward needs a fresh forward.
    """
    q, k, v, act, weights = cache
    upstream = np.asarray(upstream, dtype=np.float64)
    one = (q, k, v, act[None], weights[None])
    _stacked_backward(_head_arrays(params, None), one, upstream[None], _head_arrays(out, None))
    return out


def multi_head_forward(params: MultiHeadParams, query: Array, keys: Array, values: Array):
    """All heads share query/keys/values; pooled head outputs are concatenated
    in head order and mixed by ``w_out``.

    The heads run as one stacked computation with the head axis leading,
    activations (P, B, M, h), the computation :func:`single_head_forward`
    runs on a stack of one.
    """
    q, k, v = _batched(params, query, keys, values)
    n_heads = params.n_heads
    b, d = q.shape[0], v.shape[2]
    if params.w_out.shape != (d, d * n_heads):
        raise ValueError(
            f"w_out shape {params.w_out.shape} does not match {n_heads} heads of dim {d}"
        )
    pooled, act, weights = _stacked_forward(_head_arrays(params, ...), q, k, v)
    concat = pooled.transpose(1, 0, 2).reshape(b, n_heads * d)
    out = concat @ params.w_out.T                                          # (B, d)
    head_weights = weights.transpose(1, 0, 2)                              # (B, P, M)
    return out, head_weights, (q, k, v, act, weights, concat)


def multi_head_backward(
    params: MultiHeadParams, cache, upstream: Array, out: MultiHeadParams
) -> MultiHeadParams:
    """Parameter gradients of the stacked heads and the mixer, written into
    ``out``. Like :func:`single_head_backward`, it consumes the cache's
    activations: a second backward needs a fresh forward."""
    concat = cache[-1]
    upstream = np.asarray(upstream, dtype=np.float64)
    b, p = len(upstream), params.n_heads
    np.einsum("bd,bc->dc", upstream, concat, out=out.w_out)
    d_pooled = (upstream @ params.w_out).reshape(b, p, -1).transpose(1, 0, 2)  # (P, B, d)
    _stacked_backward(_head_arrays(params, ...), cache[:5], d_pooled, _head_arrays(out, ...))
    return out
