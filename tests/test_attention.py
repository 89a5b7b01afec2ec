"""Additive attention: forward and hand-derived backward."""

from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    HEAD_FIELDS,
    empty_like_fields,
    finite_difference_gradient,
    relative_gradient_error,
)

from attnpool.attention import (
    AttentionParams,
    init_heads,
    multi_head_backward,
    multi_head_forward,
    single_head_backward,
    single_head_forward,
    softmax,
)
from attnpool.numerics import uniform_init


def transcribed_forward(params, query, keys, values):
    """Straight-line oracle for a stack of one head: score/softmax/pool
    written as explicit loops, independent of the vectorized production
    path."""
    w_query, w_key, w_score, bias = (getattr(params, n)[0] for n in HEAD_FIELDS)
    M = keys.shape[0]
    scores = np.empty(M)
    for i in range(M):
        pre = query @ w_query + keys[i] @ w_key + bias
        scores[i] = w_score @ np.tanh(pre)
    shifted = np.exp(scores - scores.max())
    a = shifted / shifted.sum()
    pooled = np.zeros(values.shape[1])
    for i in range(M):
        pooled += a[i] * values[i]
    return pooled, a


def forward_one(forward, params, query, keys, values):
    """``forward`` on one instance (query (q,), keys (M, k), values (M, d)),
    run as a batch of one; the cache keeps its batch axis."""
    out, weights, cache = forward(params, query[None], keys[None], values[None])
    return out[0], weights[0], cache


def random_multi_head(rng, n_heads, hidden, query_dim, key_dim, value_dim):
    """Seeded multi-head parameters: the heads in order, then ``w_out``."""
    params = init_heads(rng, n_heads, hidden, query_dim, key_dim)
    params.w_out = uniform_init(rng, (value_dim, value_dim * n_heads), value_dim * n_heads)
    return params


def head_of(mp, i):
    """Head i of stacked multi-head parameters, as a stack of one without
    the mixer; its fields are views."""
    return AttentionParams(*(getattr(mp, n)[i : i + 1] for n in HEAD_FIELDS))


def per_head_reference(mp, query, keys, values, upstream):
    """Multi-head forward and parameter gradients assembled head by head
    from the single-head kernels: the reference for the stacked path."""
    heads = [head_of(mp, i) for i in range(mp.n_heads)]
    per_head = [single_head_forward(h, query, keys, values) for h in heads]
    concat = np.concatenate([p[0] for p in per_head], axis=1)
    out = concat @ mp.w_out.T
    d_concat = (upstream @ mp.w_out).reshape(len(query), mp.n_heads, -1)
    head_grads = [
        single_head_backward(h, p[2], d_concat[:, i, :], out=empty_like_fields(h))
        for i, (h, p) in enumerate(zip(heads, per_head))
    ]
    grads = {n: np.concatenate([getattr(g, n) for g in head_grads]) for n in HEAD_FIELDS}
    grads["w_out"] = np.einsum("bd,bc->dc", upstream, concat)
    weights = np.stack([p[1] for p in per_head], axis=1)
    return out, weights, grads


def w_out_then_heads(stacked):
    """``w_out``, then each head's arrays in ``HEAD_FIELDS`` order, as views
    into the stacked fields of multi-head parameters or gradients."""
    return [stacked.w_out] + [
        getattr(stacked, n)[i] for i in range(stacked.n_heads) for n in HEAD_FIELDS
    ]


def random_instance(rng, hidden=5, M=3, l=2, base_q=3, base_k=3, d=3):
    params = init_heads(rng, 1, hidden, base_q * l, base_k * l)
    # keep everything in the gradient-friendly range used by the checks; the
    # projections are drawn (hidden, in), as init_heads draws them
    for name in HEAD_FIELDS:
        arr = getattr(params, name)
        drawn = arr.transpose(0, 2, 1) if arr.ndim == 3 else arr
        drawn[...] = rng.uniform(-0.5, 0.5, size=drawn.shape)
    query = rng.uniform(-0.5, 0.5, size=base_q * l)
    keys = rng.uniform(-0.5, 0.5, size=(M, base_k * l))
    values = rng.uniform(-0.5, 0.5, size=(M, d))
    return params, query, keys, values


class TestForward:
    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(4, 7))
        np.testing.assert_allclose(softmax(s + 123.456), softmax(s), atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = rng.normal(scale=rng.uniform(0.1, 50), size=rng.integers(1, 9))
            w = softmax(s)
            assert abs(w.sum() - 1) < 1e-12 and np.all(w >= 0)

    def test_single_model_gets_weight_one(self):
        rng = np.random.default_rng(2)
        params, query, keys, values = random_instance(rng, M=1)
        pooled, w, _ = forward_one(single_head_forward, params, query, keys, values)
        np.testing.assert_allclose(w, [1.0], atol=0)
        np.testing.assert_array_equal(pooled, values[0])

    def test_identical_keys_give_uniform_weights(self):
        rng = np.random.default_rng(3)
        params, query, keys, values = random_instance(rng, M=4)
        keys[:] = keys[0]
        _, w, _ = forward_one(single_head_forward, params, query, keys, values)
        np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-12)

    def test_matches_transcribed_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            params, query, keys, values = random_instance(
                rng, hidden=int(rng.integers(2, 9)), M=int(rng.integers(1, 7))
            )
            pooled, w, _ = forward_one(single_head_forward, params, query, keys, values)
            exp_pool, exp_w = transcribed_forward(params, query, keys, values)
            np.testing.assert_allclose(w, exp_w, rtol=1e-12)
            np.testing.assert_allclose(pooled, exp_pool, rtol=1e-12)

    def test_batch_agrees_with_instances(self):
        rng = np.random.default_rng(6)
        params, _, _, _ = random_instance(rng)
        Q = rng.normal(size=(10, 6))
        K = rng.normal(size=(10, 3, 6))
        V = rng.normal(size=(10, 3, 3))
        batch_pool, batch_w, _ = single_head_forward(params, Q, K, V)
        for b in range(10):
            p1, w1, _ = forward_one(single_head_forward, params, Q[b], K[b], V[b])
            np.testing.assert_allclose(batch_pool[b], p1, rtol=1e-13)
            np.testing.assert_allclose(batch_w[b], w1, rtol=1e-13)

    @pytest.mark.parametrize("hidden", [100, 120, 300, 600])
    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_batch_equals_concatenated_shards_bitwise(self, hidden, length):
        # a segment's closed-loop forecast must not depend on which other
        # segments share its batch, so one batch gives the bits of its shards
        rng = np.random.default_rng(1000 * length + hidden)
        dim = 3 * length
        params = init_heads(rng, 1, hidden, dim, dim)
        Q = rng.normal(size=(13, dim))
        K = rng.normal(size=(13, 11, dim))
        V = rng.normal(size=(13, 11, 3))
        pooled, weights, _ = single_head_forward(params, Q, K, V)
        for n_shards in (2, 3, 4, 13):
            parts = [
                single_head_forward(params, Q[ix], K[ix], V[ix])
                for ix in np.array_split(np.arange(13), n_shards)
            ]
            np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), weights)
            np.testing.assert_array_equal(np.concatenate([p[0] for p in parts]), pooled)

    def test_weights_sum_to_one_over_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            params, query, keys, _ = random_instance(rng, M=int(rng.integers(1, 9)))
            zeros = np.zeros((len(keys), 1))
            _, w, _ = forward_one(single_head_forward, params, query, keys, zeros)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w > 0)

    def test_pooled_in_componentwise_convex_hull(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            params, query, keys, values = random_instance(rng, M=5)
            pooled, _, _ = forward_one(single_head_forward, params, query, keys, values)
            assert np.all(pooled <= values.max(axis=0) + 1e-12)
            assert np.all(pooled >= values.min(axis=0) - 1e-12)

    def test_extreme_scores_no_overflow(self):
        rng = np.random.default_rng(9)
        params, query, keys, values = random_instance(rng)
        params.w_score[...] = 1e4  # huge score scale
        pooled, w, _ = forward_one(single_head_forward, params, query, keys, values)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(pooled))

    def test_empty_ensemble_rejected(self):
        rng = np.random.default_rng(10)
        params, query, _, _ = random_instance(rng)
        with pytest.raises(ValueError, match="empty"):
            single_head_forward(params, query[None], np.zeros((1, 0, 6)), np.zeros((1, 0, 3)))

    def test_unbatched_input_rejected(self):
        rng = np.random.default_rng(10)
        params, query, keys, values = random_instance(rng)
        with pytest.raises(ValueError, match="expected query"):
            single_head_forward(params, query, keys, values)


class TestMultiHead:
    def test_one_head_identity_mix_equals_single(self):
        rng = np.random.default_rng(11)
        head, query, keys, values = random_instance(rng)
        mp = replace(head, w_out=np.eye(3))
        out_m, w_m, _ = forward_one(multi_head_forward, mp, query, keys, values)
        out_s, w_s, _ = forward_one(single_head_forward, head, query, keys, values)
        np.testing.assert_array_equal(out_m, out_s)
        np.testing.assert_array_equal(w_m[0], w_s)

    def test_zero_mix_gives_zero(self):
        rng = np.random.default_rng(12)
        mp = random_multi_head(rng, n_heads=3, hidden=4, query_dim=6, key_dim=6, value_dim=3)
        mp.w_out[...] = 0.0
        out, _, _ = forward_one(
            multi_head_forward, mp, np.ones(6), np.ones((2, 6)), np.ones((2, 3))
        )
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_composition_against_manual_stack(self):
        """Multi-head output equals w_out applied to the concatenation of the
        per-head pooled vectors, assembled by hand head by head."""
        rng = np.random.default_rng(13)
        mp = random_multi_head(rng, n_heads=4, hidden=5, query_dim=6, key_dim=6, value_dim=3)
        query = rng.normal(size=6)
        keys = rng.normal(size=(5, 6))
        values = rng.normal(size=(5, 3))
        out, _, _ = forward_one(multi_head_forward, mp, query, keys, values)
        parts = []
        for i in range(mp.n_heads):
            pooled, _ = transcribed_forward(head_of(mp, i), query, keys, values)
            parts.append(pooled)
        manual = mp.w_out @ np.concatenate(parts)
        np.testing.assert_allclose(out, manual, rtol=1e-12)

    @pytest.mark.parametrize(
        "batch, n_heads", [(1, 21), (32, 5)], ids=["hub-sgd", "hub-batch"]
    )
    def test_stacked_heads_match_per_head_kernels_bitwise(self, batch, n_heads):
        """The stacked forward and backward give, bit for bit, what the
        single-head kernels give head by head, at the hub shapes (h=100,
        M=9, key dim 105, d=21); a gradient buffer passed as ``out`` gets
        the same bits as a fresh one."""
        rng = np.random.default_rng(batch + n_heads)
        mp = random_multi_head(rng, n_heads, hidden=100, query_dim=5, key_dim=105, value_dim=21)
        query = rng.normal(size=(batch, 5))
        keys = rng.normal(size=(batch, 9, 105))
        values = rng.normal(size=(batch, 9, 21)) * 100.0
        upstream = rng.normal(size=(batch, 21))
        out, weights, cache = multi_head_forward(mp, query, keys, values)
        ref_out, ref_weights, ref_grads = per_head_reference(mp, query, keys, values, upstream)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(weights, ref_weights)
        fresh = multi_head_backward(mp, cache, upstream, out=empty_like_fields(mp))
        into = AttentionParams(**{n: np.full_like(g, np.nan) for n, g in ref_grads.items()})
        # the backward consumes its cache, so the second one runs on a fresh forward
        cache = multi_head_forward(mp, query, keys, values)[2]
        multi_head_backward(mp, cache, upstream, out=into)
        for name, expect in ref_grads.items():
            np.testing.assert_array_equal(getattr(fresh, name), expect, err_msg=name)
            np.testing.assert_array_equal(getattr(into, name), expect, err_msg=name)


def einsum_backward(params, cache, upstream):
    """Reference parameter gradients of a stack of one head written as
    explicit einsum contractions, independent of the matmul reductions of
    the production path."""
    q, k, v, act, weights = cache
    act, weights = act[0], weights[0]
    d_weights = np.einsum("bd,bmd->bm", upstream, v)
    d_scores = weights * (d_weights - np.sum(weights * d_weights, axis=1, keepdims=True))
    d_pre = d_scores[:, :, None] * params.w_score[0] * (1.0 - act * act)
    grads = {
        "w_query": np.einsum("bmh,bq->qh", d_pre, q),
        "w_key": np.einsum("bmh,bmk->kh", d_pre, k),
        "w_score": np.einsum("bm,bmh->h", d_scores, act),
        "bias": d_pre.sum(axis=(0, 1)),
    }
    return {n: g[None] for n, g in grads.items()}


class TestBackward:
    def test_single_model_param_grads_vanish(self):
        # M=1: softmax output is identically 1, so the pooled output cannot
        # depend on any attention parameter
        rng = np.random.default_rng(14)
        params, query, keys, values = random_instance(rng, M=1)
        _, _, cache = forward_one(single_head_forward, params, query, keys, values)
        grads = single_head_backward(params, cache, np.ones((1, 3)), out=empty_like_fields(params))
        for name in HEAD_FIELDS:
            g = getattr(grads, name)
            np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(15)
        params, query, keys, values = random_instance(rng, M=4)
        _, _, cache = forward_one(single_head_forward, params, query, keys, values)
        grads = single_head_backward(params, cache, np.zeros((1, 3)), out=empty_like_fields(params))
        for name in HEAD_FIELDS:
            g = getattr(grads, name)
            np.testing.assert_array_equal(g, np.zeros_like(g))

    @pytest.mark.parametrize("seed", range(5))
    def test_param_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        params, query, keys, values = random_instance(rng, hidden=4, M=3)
        target = rng.uniform(-0.5, 0.5, size=3)

        def loss_with(p):
            pooled, _, _ = forward_one(single_head_forward, p, query, keys, values)
            return float(np.mean((pooled - target) ** 2))

        pooled, _, cache = forward_one(single_head_forward, params, query, keys, values)
        upstream = 2.0 * (pooled - target) / pooled.size
        grads = single_head_backward(params, cache, upstream[None], out=empty_like_fields(params))

        for name in HEAD_FIELDS:
            def loss_fn(arr, name=name):
                return loss_with(replace(params, **{name: arr}))

            fd = finite_difference_gradient(loss_fn, getattr(params, name))
            err = relative_gradient_error(getattr(grads, name), fd)
            assert err < 1e-5, f"{name}: rel err {err:.2e}"

    def test_matches_einsum_reference_at_protocol_shape(self):
        # delay-5 protocol shape: B=128, M=11, hidden=120, l=5, 3-D base
        rng = np.random.default_rng(22)
        params = init_heads(rng, 1, hidden=120, query_dim=15, key_dim=15)
        Q = rng.normal(size=(128, 15))
        K = rng.normal(size=(128, 11, 15))
        V = rng.normal(size=(128, 11, 3))
        G = rng.normal(size=(128, 3))
        _, _, cache = single_head_forward(params, Q, K, V)
        # the reference reads the activations, which the backward consumes
        expected = einsum_backward(params, cache, G)
        grads = single_head_backward(params, cache, G, out=empty_like_fields(params))
        for name, expect in expected.items():
            # the reductions run over B*M = 1408 terms in another order, so
            # entries that cancel to near zero are held to the array's scale
            scale = np.abs(expect).max()
            np.testing.assert_allclose(
                getattr(grads, name), expect, rtol=1e-12, atol=1e-12 * scale, err_msg=name
            )

    @pytest.mark.parametrize("hidden, length", [(120, 5), (600, 1)])
    def test_every_entry_of_a_nan_filled_out_is_written(self, hidden, length):
        """Gradients written into a NaN-filled ``out`` have the bits of
        those written into a fresh one, at the protocol batch B=128, M=11."""
        rng = np.random.default_rng(hidden + length)
        dim = 3 * length
        params = init_heads(rng, 1, hidden, dim, dim)
        Q = rng.normal(size=(128, dim))
        K = rng.normal(size=(128, 11, dim))
        V = rng.normal(size=(128, 11, 3))
        G = rng.normal(size=(128, 3))
        _, _, cache = single_head_forward(params, Q, K, V)
        fresh = single_head_backward(params, cache, G, out=empty_like_fields(params))
        into = AttentionParams(*(np.full_like(getattr(params, n), np.nan) for n in HEAD_FIELDS))
        # the backward consumes its cache, so the second one runs on a fresh forward
        _, _, cache = single_head_forward(params, Q, K, V)
        assert single_head_backward(params, cache, G, out=into) is into
        for name in HEAD_FIELDS:
            np.testing.assert_array_equal(
                getattr(into, name), getattr(fresh, name), err_msg=name
            )

    def test_multi_head_grads_match_finite_differences(self):
        rng = np.random.default_rng(17)
        mp = random_multi_head(rng, n_heads=2, hidden=3, query_dim=4, key_dim=4, value_dim=3)
        for arr in w_out_then_heads(mp):
            arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
        query = rng.uniform(-0.5, 0.5, size=4)
        keys = rng.uniform(-0.5, 0.5, size=(3, 4))
        values = rng.uniform(-0.5, 0.5, size=(3, 3))
        target = rng.uniform(-0.5, 0.5, size=3)

        out, _, cache = forward_one(multi_head_forward, mp, query, keys, values)
        upstream = 2.0 * (out - target) / out.size
        grads = multi_head_backward(mp, cache, upstream[None], out=empty_like_fields(mp))

        for j, (arr, grad) in enumerate(zip(w_out_then_heads(mp), w_out_then_heads(grads))):
            def loss_fn(trial_arr, j=j):
                fields = (*HEAD_FIELDS, "w_out")
                trial = AttentionParams(**{n: getattr(mp, n).copy() for n in fields})
                w_out_then_heads(trial)[j][...] = trial_arr
                o, _, _ = forward_one(multi_head_forward, trial, query, keys, values)
                return float(np.mean((o - target) ** 2))

            fd = finite_difference_gradient(loss_fn, arr)
            err = relative_gradient_error(grad, fd)
            assert err < 1e-5, f"array {j}: rel err {err:.2e}"

    def test_batched_backward_accumulates(self):
        # gradient of a summed batch loss equals the sum of per-instance grads
        rng = np.random.default_rng(18)
        params, _, _, _ = random_instance(rng)
        Q = rng.normal(size=(4, 6))
        K = rng.normal(size=(4, 3, 6))
        V = rng.normal(size=(4, 3, 3))
        G = rng.normal(size=(4, 3))
        _, _, cache = single_head_forward(params, Q, K, V)
        batch_grads = single_head_backward(params, cache, G, out=empty_like_fields(params))
        total = {k: np.zeros_like(getattr(batch_grads, k)) for k in HEAD_FIELDS}
        for b in range(4):
            _, _, c1 = forward_one(single_head_forward, params, Q[b], K[b], V[b])
            g1 = single_head_backward(params, c1, G[b : b + 1], out=empty_like_fields(params))
            for k in HEAD_FIELDS:
                total[k] += getattr(g1, k)
        for k in total:
            np.testing.assert_allclose(getattr(batch_grads, k), total[k], rtol=1e-12)


class TestParams:
    def test_param_count(self):
        rng = np.random.default_rng(21)
        p = init_heads(rng, 1, hidden=120, query_dim=15, key_dim=15)
        assert sum(getattr(p, n).size for n in HEAD_FIELDS) == 120 * (15 + 15 + 2)

    @pytest.mark.parametrize("n_heads", [1, 3])
    def test_init_heads_stacks_heads_drawn_one_after_another(self, n_heads):
        """Each head draws w_query, w_key, w_score and bias in turn, the
        next head after it; the draws are stacked, the projections drawn
        (hidden, in) and stored as their transposes, and no mixer is
        drawn."""
        params = init_heads(np.random.default_rng(23), n_heads, hidden=4, query_dim=5, key_dim=6)
        rng = np.random.default_rng(23)
        heads = [
            (
                uniform_init(rng, (4, 5), 5),
                uniform_init(rng, (4, 6), 6),
                uniform_init(rng, 4, 4),
                uniform_init(rng, 4, 4),
            )
            for _ in range(n_heads)
        ]
        for name, drawn in zip(HEAD_FIELDS, zip(*heads)):
            stored = getattr(params, name)
            if name in ("w_query", "w_key"):
                stored = stored.transpose(0, 2, 1)
            np.testing.assert_array_equal(stored, np.stack(drawn), err_msg=name)
        assert params.n_heads == n_heads
        assert params.w_out is None

    def test_single_head_forward_rejects_more_heads_or_a_mixer(self):
        rng = np.random.default_rng(24)
        two = init_heads(rng, 2, hidden=4, query_dim=6, key_dim=6)
        q, k, v = np.ones((1, 6)), np.ones((1, 3, 6)), np.ones((1, 3, 3))
        with pytest.raises(ValueError, match="one head without w_out, got 2 heads$"):
            single_head_forward(two, q, k, v)
        mixed = replace(head_of(two, 0), w_out=np.eye(3))
        with pytest.raises(ValueError, match="one head without w_out, got 1 heads and a w_out"):
            single_head_forward(mixed, q, k, v)

    def test_multi_head_forward_rejects_a_missing_or_misshapen_mixer(self):
        rng = np.random.default_rng(25)
        params = init_heads(rng, 2, hidden=4, query_dim=6, key_dim=6)
        q, k, v = np.ones((1, 6)), np.ones((1, 3, 6)), np.ones((1, 3, 3))
        with pytest.raises(ValueError, match=r"needs w_out of shape \(3, 6\).*got w_out None"):
            multi_head_forward(params, q, k, v)
        params.w_out = np.eye(3)
        with pytest.raises(ValueError, match=r"needs w_out of shape \(3, 6\).*got w_out \(3, 3\)"):
            multi_head_forward(params, q, k, v)
