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

All forward functions here accept either a single instance (query ``(q,)``,
keys ``(M, k)``, values ``(M, d)``) or a batch with one extra leading axis.
Backward passes are hand-derived and checked against central finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .numerics import Array, require_finite, uniform_init

# ---------------------------------------------------------------------------
# delay embedding


def embed(history: Sequence[Array], length: int) -> Array:
    """Concatenate the ``length`` most recent base vectors, newest first.

    ``history`` is ordered newest first; entries may have any shared shape,
    and concatenation happens along the last axis.
    """
    if length < 1:
        raise ValueError(f"delay length must be >= 1, got {length}")
    if len(history) < length:
        raise ValueError(
            f"need at least {length} history entries for the delay embedding, "
            f"got {len(history)}"
        )
    parts = [np.asarray(h, dtype=np.float64) for h in history[:length]]
    base_shape = parts[0].shape
    for p in parts[1:]:
        if p.shape != base_shape:
            raise ValueError(
                f"inconsistent base-vector shapes in history: {base_shape} vs {p.shape}"
            )
    return np.concatenate(parts, axis=-1)


class DelayEmbedding:
    """Rolling buffer holding the ``length`` most recent base vectors.

    ``push`` adds the newest entry; ``vector()`` returns the delay embedding
    (concatenation newest first along the last axis). Entries may be batched
    arrays as long as their shapes agree.
    """

    def __init__(self, length: int):
        if length < 1:
            raise ValueError(f"delay length must be >= 1, got {length}")
        self.length = length
        self._entries: list[Array] = []  # newest at index 0

    def push(self, vec: Array) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if self._entries and vec.shape != self._entries[0].shape:
            raise ValueError(
                f"base vector shape changed: {self._entries[0].shape} -> {vec.shape}"
            )
        self._entries.insert(0, vec)
        del self._entries[self.length :]

    @property
    def ready(self) -> bool:
        return len(self._entries) == self.length

    def vector(self) -> Array:
        if not self.ready:
            raise ValueError(
                f"delay buffer holds {len(self._entries)} of {self.length} entries"
            )
        return embed(self._entries, self.length)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class SingleHeadParams:
    """One additive-attention head: two input projections, score vector, bias."""

    w_query: Array  # (hidden, query_dim)
    w_key: Array    # (hidden, key_dim)
    w_score: Array  # (hidden,)
    bias: Array     # (hidden,)

    @property
    def hidden(self) -> int:
        return self.w_query.shape[0]

    def names(self) -> dict[str, Array]:
        return {
            "w_query": self.w_query,
            "w_key": self.w_key,
            "w_score": self.w_score,
            "bias": self.bias,
        }

    def count(self) -> int:
        return sum(a.size for a in self.names().values())


@dataclass
class MultiHeadParams:
    """P identical-shape heads plus the output mixing matrix (d, d * P)."""

    heads: list[SingleHeadParams]
    w_out: Array

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    def names(self) -> dict[str, Array]:
        out = {"w_out": self.w_out}
        for i, h in enumerate(self.heads):
            for k, v in h.names().items():
                out[f"head{i}.{k}"] = v
        return out

    def count(self) -> int:
        return sum(a.size for a in self.names().values())


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


def init_multi_head(
    rng: np.random.Generator,
    n_heads: int,
    hidden: int,
    query_dim: int,
    key_dim: int,
    value_dim: int,
) -> MultiHeadParams:
    heads = [init_single_head(rng, hidden, query_dim, key_dim) for _ in range(n_heads)]
    w_out = uniform_init(rng, (value_dim, value_dim * n_heads), value_dim * n_heads)
    return MultiHeadParams(heads=heads, w_out=w_out)


# ---------------------------------------------------------------------------
# forward


def softmax(scores: Array, axis: int = -1) -> Array:
    """Numerically stable softmax (max subtraction before exponentiation)."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _batched(query: Array, keys: Array, values: Array):
    """Normalize inputs to batch form; returns (Q, K, V, was_single)."""
    query = np.asarray(query, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    single = query.ndim == 1
    if single:
        query, keys, values = query[None], keys[None], values[None]
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
    return query, keys, values, single


def single_head_forward(params: SingleHeadParams, query: Array, keys: Array, values: Array):
    """Pooled forecast and attention weights; also returns the backward cache.

    Returns ``(pooled, weights, cache)`` with batch axes matching the input
    (dropped again for single instances).
    """
    q, k, v, single = _batched(query, keys, values)
    if q.shape[1] != params.w_query.shape[1]:
        raise ValueError(
            f"query dim {q.shape[1]} does not match w_query {params.w_query.shape}"
        )
    if k.shape[2] != params.w_key.shape[1]:
        raise ValueError(f"key dim {k.shape[2]} does not match w_key {params.w_key.shape}")
    # Both projections are stacked, one matmul per instance. A 2-D gemm over
    # the batch (q @ w_query.T, or keys flattened to (B*M, k)) gives bits
    # that depend on the batch size, and the closed loop relies on one batch
    # matching the concatenation of its shards. The tanh pre-activation is
    # built in place in the key projection.
    proj_q = q[:, None, :] @ params.w_query.T          # (B, 1, h)
    proj_q += params.bias
    act = k @ params.w_key.T                           # (B, M, h)
    act += proj_q
    np.tanh(act, out=act)
    scores = act @ params.w_score                      # (B, M)
    weights = softmax(scores, axis=-1)
    pooled = np.einsum("bm,bmd->bd", weights, v)
    cache = (q, k, v, act, weights)
    if single:
        return pooled[0], weights[0], cache
    return pooled, weights, cache


@dataclass
class SingleHeadGrads:
    w_query: Array
    w_key: Array
    w_score: Array
    bias: Array

    def names(self) -> dict[str, Array]:
        return {
            "w_query": self.w_query,
            "w_key": self.w_key,
            "w_score": self.w_score,
            "bias": self.bias,
        }


@dataclass
class MultiHeadGrads:
    heads: list[SingleHeadGrads]
    w_out: Array

    def names(self) -> dict[str, Array]:
        out = {"w_out": self.w_out}
        for i, h in enumerate(self.heads):
            for k, v in h.names().items():
                out[f"head{i}.{k}"] = v
        return out


def single_head_backward(params: SingleHeadParams, cache, upstream: Array) -> SingleHeadGrads:
    """Parameter gradients of an arbitrary scalar loss given d loss / d pooled.

    The softmax Jacobian is applied in its contracted form a * (g - <a, g>).
    Gradients with respect to the inputs are not formed: no caller trains
    through the query, keys or values.
    """
    q, k, v, act, weights = cache
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        upstream = upstream[None]
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
    return SingleHeadGrads(
        w_query=w[:, None] * (d_pre_m.T @ q),
        w_key=w[:, None] * (d_tanh.reshape(b * m, h).T @ scaled_keys),
        w_score=d_scores.reshape(-1) @ act.reshape(b * m, h),
        bias=w * d_pre_m.sum(axis=0),
    )


def multi_head_forward(params: MultiHeadParams, query: Array, keys: Array, values: Array):
    """All heads share query/keys/values; pooled head outputs are concatenated
    in head order and mixed by ``w_out``."""
    q, k, v, single = _batched(query, keys, values)
    per_head = [single_head_forward(h, q, k, v) for h in params.heads]
    stacked = np.stack([p[0] for p in per_head], axis=1)   # (B, P, d)
    b, p, d = stacked.shape
    if params.w_out.shape != (d, d * p):
        raise ValueError(
            f"w_out shape {params.w_out.shape} does not match {p} heads of dim {d}"
        )
    concat = stacked.reshape(b, p * d)
    out = concat @ params.w_out.T                           # (B, d)
    head_weights = np.stack([p_[1] for p_ in per_head], axis=1)  # (B, P, M)
    cache = ([p_[2] for p_ in per_head], concat, (b, p, d))
    if single:
        return out[0], head_weights[0], cache
    return out, head_weights, cache


def multi_head_backward(params: MultiHeadParams, cache, upstream: Array) -> MultiHeadGrads:
    head_caches, concat, (b, p, d) = cache
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        upstream = upstream[None]
    d_w_out = np.einsum("bd,bc->dc", upstream, concat)
    d_concat = (upstream @ params.w_out).reshape(b, p, d)
    head_grads = [
        single_head_backward(head, hcache, d_concat[:, i, :])
        for i, (head, hcache) in enumerate(zip(params.heads, head_caches))
    ]
    return MultiHeadGrads(heads=head_grads, w_out=d_w_out)


# single-instance convenience ops ------------------------------------------


def attention_weights(params: SingleHeadParams, query: Array, keys: Array) -> Array:
    """Softmax pooling weights for one instance; sums to 1."""
    m = np.asarray(keys).shape[0]
    dummy = np.zeros((m, 1))
    _, weights, _ = single_head_forward(params, query, keys, dummy)
    return weights


def pool(weights: Array, values: Array) -> Array:
    """Convex combination of candidate forecasts."""
    weights = np.asarray(weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if weights.ndim != 1 or values.ndim != 2 or weights.shape[0] != values.shape[0]:
        raise ValueError(
            f"expected weights (M,) and values (M, d), got {weights.shape} and {values.shape}"
        )
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValueError(f"pooling weights sum to {weights.sum()!r}, expected 1")
    return weights @ values


@dataclass
class EnsembleStep:
    """Inputs for one attention step: query (q,), keys (M, k), values (M, d)."""

    query: Array
    keys: Array
    values: Array

    def __post_init__(self):
        self.query = np.asarray(self.query, dtype=np.float64)
        self.keys = np.asarray(self.keys, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.keys.ndim != 2 or self.values.ndim != 2:
            raise ValueError("keys and values must be 2-D (one row per candidate)")
        if self.keys.shape[0] != self.values.shape[0]:
            raise ValueError(
                f"{self.keys.shape[0]} keys but {self.values.shape[0]} values"
            )
        for name, arr in (("query", self.query), ("keys", self.keys), ("values", self.values)):
            require_finite(arr, name)

    @property
    def n_models(self) -> int:
        return self.keys.shape[0]


# ---------------------------------------------------------------------------
# checkpoints


def params_to_arrays(params: SingleHeadParams | MultiHeadParams) -> dict[str, Array]:
    kind = "single" if isinstance(params, SingleHeadParams) else "multi"
    out = {"kind": np.array(kind)}
    out.update(params.names())
    return out


def arrays_to_params(arrays: dict[str, Array]) -> SingleHeadParams | MultiHeadParams:
    kind = str(arrays["kind"])
    if kind == "single":
        return SingleHeadParams(
            w_query=arrays["w_query"],
            w_key=arrays["w_key"],
            w_score=arrays["w_score"],
            bias=arrays["bias"],
        )
    if kind != "multi":
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    n_heads = len({k.split(".")[0] for k in arrays if k.startswith("head")})
    heads = [
        SingleHeadParams(
            w_query=arrays[f"head{i}.w_query"],
            w_key=arrays[f"head{i}.w_key"],
            w_score=arrays[f"head{i}.w_score"],
            bias=arrays[f"head{i}.bias"],
        )
        for i in range(n_heads)
    ]
    return MultiHeadParams(heads=heads, w_out=arrays["w_out"])


def save_checkpoint(path: str | Path, arrays: dict[str, Array]) -> None:
    """Write named arrays to an .npz container; float64 round-trips bit-exactly."""
    np.savez(path, **arrays)


def load_checkpoint(path: str | Path) -> dict[str, Array]:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}
