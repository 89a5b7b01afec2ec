"""Additive attention: embeddings, forward, hand-derived backward."""

import numpy as np
import pytest

from attnpool.attention import (
    DelayEmbedding,
    EnsembleStep,
    MultiHeadParams,
    SingleHeadParams,
    arrays_to_params,
    attention_weights,
    embed,
    init_multi_head,
    init_single_head,
    load_checkpoint,
    multi_head_backward,
    multi_head_forward,
    params_to_arrays,
    pool,
    save_checkpoint,
    single_head_backward,
    single_head_forward,
    softmax,
)
from attnpool.numerics import finite_difference_gradient, relative_gradient_error


def transcribed_forward(params, query, keys, values):
    """Straight-line oracle: score/softmax/pool written as explicit loops,
    independent of the vectorized production path."""
    M = keys.shape[0]
    scores = np.empty(M)
    for i in range(M):
        pre = params.w_query @ query + params.w_key @ keys[i] + params.bias
        scores[i] = params.w_score @ np.tanh(pre)
    shifted = np.exp(scores - scores.max())
    a = shifted / shifted.sum()
    pooled = np.zeros(values.shape[1])
    for i in range(M):
        pooled += a[i] * values[i]
    return pooled, a


def random_instance(rng, hidden=5, M=3, l=2, base_q=3, base_k=3, d=3):
    params = init_single_head(rng, hidden, base_q * l, base_k * l)
    # keep everything in the gradient-friendly range used by the checks
    for name, arr in params.names().items():
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    query = rng.uniform(-0.5, 0.5, size=base_q * l)
    keys = rng.uniform(-0.5, 0.5, size=(M, base_k * l))
    values = rng.uniform(-0.5, 0.5, size=(M, d))
    return params, query, keys, values


class TestEmbed:
    def test_l1_passthrough(self):
        np.testing.assert_array_equal(embed([np.array([1.0, 2.0, 3.0])], 1), [1, 2, 3])

    def test_newest_first_order(self):
        hist = [np.array([4.0, 5.0, 6.0]), np.array([1.0, 2.0, 3.0])]
        np.testing.assert_array_equal(embed(hist, 2), [4, 5, 6, 1, 2, 3])

    def test_short_history_raises(self):
        with pytest.raises(ValueError, match="at least 3"):
            embed([np.zeros(2), np.zeros(2)], 3)

    def test_matches_naive_assembly_on_series(self):
        """Embedding at index j of a chronological series equals the naive
        concatenation series[j], series[j-1], ..., series[j-l+1]."""
        rng = np.random.default_rng(42)
        series = rng.normal(size=(50, 3))
        l = 3
        for j in range(l - 1, 50):
            newest_first = [series[j - s] for s in range(l)]
            naive = np.concatenate([series[j], series[j - 1], series[j - 2]])
            np.testing.assert_array_equal(embed(newest_first, l), naive)

    def test_buffer_matches_embed(self):
        rng = np.random.default_rng(1)
        buf = DelayEmbedding(3)
        entries = [rng.normal(size=4) for _ in range(5)]
        for e in entries[:2]:
            buf.push(e)
        assert not buf.ready
        with pytest.raises(ValueError):
            buf.vector()
        for e in entries[2:]:
            buf.push(e)
        expect = embed(list(reversed(entries))[:3], 3)
        np.testing.assert_array_equal(buf.vector(), expect)

    def test_buffer_batched_entries(self):
        buf = DelayEmbedding(2)
        buf.push(np.ones((4, 3)))
        buf.push(2 * np.ones((4, 3)))
        v = buf.vector()
        assert v.shape == (4, 6)
        np.testing.assert_array_equal(v[:, :3], 2.0)
        np.testing.assert_array_equal(v[:, 3:], 1.0)


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
        pooled, w, _ = single_head_forward(params, query, keys, values)
        np.testing.assert_allclose(w, [1.0], atol=0)
        np.testing.assert_array_equal(pooled, values[0])

    def test_identical_keys_give_uniform_weights(self):
        rng = np.random.default_rng(3)
        params, query, keys, values = random_instance(rng, M=4)
        keys[:] = keys[0]
        _, w, _ = single_head_forward(params, query, keys, values)
        np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-12)

    def test_matches_transcribed_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            params, query, keys, values = random_instance(
                rng, hidden=int(rng.integers(2, 9)), M=int(rng.integers(1, 7))
            )
            pooled, w, _ = single_head_forward(params, query, keys, values)
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
            p1, w1, _ = single_head_forward(params, Q[b], K[b], V[b])
            np.testing.assert_allclose(batch_pool[b], p1, rtol=1e-13)
            np.testing.assert_allclose(batch_w[b], w1, rtol=1e-13)

    @pytest.mark.parametrize("hidden", [100, 120, 300, 600])
    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_batch_equals_concatenated_shards_bitwise(self, hidden, length):
        # the closed loop splits segments into index-order shards across
        # threads, so one batch must give the same bits as its shards
        rng = np.random.default_rng(1000 * length + hidden)
        dim = 3 * length
        params = init_single_head(rng, hidden, dim, dim)
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
            w = attention_weights(params, query, keys)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w > 0)

    def test_pooled_in_componentwise_convex_hull(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            params, query, keys, values = random_instance(rng, M=5)
            pooled, _, _ = single_head_forward(params, query, keys, values)
            assert np.all(pooled <= values.max(axis=0) + 1e-12)
            assert np.all(pooled >= values.min(axis=0) - 1e-12)

    def test_extreme_scores_no_overflow(self):
        rng = np.random.default_rng(9)
        params, query, keys, values = random_instance(rng)
        params.w_score[...] = 1e4  # huge score scale
        pooled, w, _ = single_head_forward(params, query, keys, values)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(pooled))

    def test_pool_requires_normalized_weights(self):
        with pytest.raises(ValueError, match="sum"):
            pool(np.array([0.5, 0.2]), np.ones((2, 3)))
        out = pool(np.array([0.25, 0.75]), np.array([[0.0, 4.0], [4.0, 0.0]]))
        np.testing.assert_allclose(out, [3.0, 1.0])

    def test_ensemble_step_validation(self):
        with pytest.raises(ValueError, match="keys"):
            EnsembleStep(np.zeros(2), np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            EnsembleStep(np.array([np.inf]), np.zeros((1, 2)), np.zeros((1, 2)))

    def test_empty_ensemble_rejected(self):
        rng = np.random.default_rng(10)
        params, query, _, _ = random_instance(rng)
        with pytest.raises(ValueError, match="empty"):
            single_head_forward(params, query, np.zeros((0, 6)), np.zeros((0, 3)))


class TestMultiHead:
    def test_one_head_identity_mix_equals_single(self):
        rng = np.random.default_rng(11)
        head, query, keys, values = random_instance(rng)
        mp = MultiHeadParams(heads=[head], w_out=np.eye(3))
        out_m, w_m, _ = multi_head_forward(mp, query, keys, values)
        out_s, w_s, _ = single_head_forward(head, query, keys, values)
        np.testing.assert_array_equal(out_m, out_s)
        np.testing.assert_array_equal(w_m[0], w_s)

    def test_zero_mix_gives_zero(self):
        rng = np.random.default_rng(12)
        mp = init_multi_head(rng, n_heads=3, hidden=4, query_dim=6, key_dim=6, value_dim=3)
        mp.w_out[...] = 0.0
        out, _, _ = multi_head_forward(mp, np.ones(6), np.ones((2, 6)), np.ones((2, 3)))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_composition_against_manual_stack(self):
        """Multi-head output equals w_out applied to the concatenation of the
        per-head pooled vectors, assembled by hand head by head."""
        rng = np.random.default_rng(13)
        mp = init_multi_head(rng, n_heads=4, hidden=5, query_dim=6, key_dim=6, value_dim=3)
        query = rng.normal(size=6)
        keys = rng.normal(size=(5, 6))
        values = rng.normal(size=(5, 3))
        out, _, _ = multi_head_forward(mp, query, keys, values)
        parts = []
        for h in mp.heads:
            pooled, _ = transcribed_forward(h, query, keys, values)
            parts.append(pooled)
        manual = mp.w_out @ np.concatenate(parts)
        np.testing.assert_allclose(out, manual, rtol=1e-12)


def einsum_backward(params, cache, upstream):
    """Reference parameter gradients written as explicit einsum contractions,
    independent of the matmul reductions of the production path."""
    q, k, v, act, weights = cache
    d_weights = np.einsum("bd,bmd->bm", upstream, v)
    d_scores = weights * (d_weights - np.sum(weights * d_weights, axis=1, keepdims=True))
    d_pre = d_scores[:, :, None] * params.w_score * (1.0 - act * act)
    return {
        "w_query": np.einsum("bmh,bq->hq", d_pre, q),
        "w_key": np.einsum("bmh,bmk->hk", d_pre, k),
        "w_score": np.einsum("bm,bmh->h", d_scores, act),
        "bias": d_pre.sum(axis=(0, 1)),
    }


class TestBackward:
    def test_single_model_param_grads_vanish(self):
        # M=1: softmax output is identically 1, so the pooled output cannot
        # depend on any attention parameter
        rng = np.random.default_rng(14)
        params, query, keys, values = random_instance(rng, M=1)
        _, _, cache = single_head_forward(params, query, keys, values)
        grads = single_head_backward(params, cache, np.ones(3))
        for name, g in grads.names().items():
            np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(15)
        params, query, keys, values = random_instance(rng, M=4)
        _, _, cache = single_head_forward(params, query, keys, values)
        grads = single_head_backward(params, cache, np.zeros(3))
        for g in grads.names().values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    @pytest.mark.parametrize("seed", range(5))
    def test_param_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        params, query, keys, values = random_instance(rng, hidden=4, M=3)
        target = rng.uniform(-0.5, 0.5, size=3)

        def loss_with(p):
            pooled, _, _ = single_head_forward(p, query, keys, values)
            return float(np.mean((pooled - target) ** 2))

        pooled, _, cache = single_head_forward(params, query, keys, values)
        upstream = 2.0 * (pooled - target) / pooled.size
        grads = single_head_backward(params, cache, upstream)

        for name in ("w_query", "w_key", "w_score", "bias"):
            def loss_fn(arr, name=name):
                trial = SingleHeadParams(**{**params.names(), name: arr})
                return loss_with(trial)

            fd = finite_difference_gradient(loss_fn, params.names()[name])
            err = relative_gradient_error(grads.names()[name], fd)
            assert err < 1e-5, f"{name}: rel err {err:.2e}"

    def test_matches_einsum_reference_at_protocol_shape(self):
        # delay-5 protocol shape: B=128, M=11, hidden=120, l=5, 3-D base
        rng = np.random.default_rng(22)
        params = init_single_head(rng, hidden=120, query_dim=15, key_dim=15)
        Q = rng.normal(size=(128, 15))
        K = rng.normal(size=(128, 11, 15))
        V = rng.normal(size=(128, 11, 3))
        G = rng.normal(size=(128, 3))
        _, _, cache = single_head_forward(params, Q, K, V)
        grads = single_head_backward(params, cache, G).names()
        for name, expect in einsum_backward(params, cache, G).items():
            # the reductions run over B*M = 1408 terms in another order, so
            # entries that cancel to near zero are held to the array's scale
            scale = np.abs(expect).max()
            np.testing.assert_allclose(
                grads[name], expect, rtol=1e-12, atol=1e-12 * scale, err_msg=name
            )

    def test_multi_head_grads_match_finite_differences(self):
        rng = np.random.default_rng(17)
        mp = init_multi_head(rng, n_heads=2, hidden=3, query_dim=4, key_dim=4, value_dim=3)
        for arr in mp.names().values():
            arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
        query = rng.uniform(-0.5, 0.5, size=4)
        keys = rng.uniform(-0.5, 0.5, size=(3, 4))
        values = rng.uniform(-0.5, 0.5, size=(3, 3))
        target = rng.uniform(-0.5, 0.5, size=3)

        out, _, cache = multi_head_forward(mp, query, keys, values)
        upstream = 2.0 * (out - target) / out.size
        grads = multi_head_backward(mp, cache, upstream)
        flat_grads = grads.names()

        for name, arr in mp.names().items():
            def loss_fn(trial_arr, name=name):
                arrays = {k: (trial_arr if k == name else v) for k, v in mp.names().items()}
                trial = arrays_to_params({**arrays, "kind": np.array("multi")})
                o, _, _ = multi_head_forward(trial, query, keys, values)
                return float(np.mean((o - target) ** 2))

            fd = finite_difference_gradient(loss_fn, arr)
            err = relative_gradient_error(flat_grads[name], fd)
            assert err < 1e-5, f"{name}: rel err {err:.2e}"

    def test_batched_backward_accumulates(self):
        # gradient of a summed batch loss equals the sum of per-instance grads
        rng = np.random.default_rng(18)
        params, _, _, _ = random_instance(rng)
        Q = rng.normal(size=(4, 6))
        K = rng.normal(size=(4, 3, 6))
        V = rng.normal(size=(4, 3, 3))
        G = rng.normal(size=(4, 3))
        _, _, cache = single_head_forward(params, Q, K, V)
        batch_grads = single_head_backward(params, cache, G)
        total = {k: np.zeros_like(v) for k, v in batch_grads.names().items()}
        for b in range(4):
            _, _, c1 = single_head_forward(params, Q[b], K[b], V[b])
            g1 = single_head_backward(params, c1, G[b])
            for k, v in g1.names().items():
                total[k] += v
        for k in total:
            np.testing.assert_allclose(batch_grads.names()[k], total[k], rtol=1e-12)


class TestCheckpoints:
    def test_single_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        params, _, _, _ = random_instance(rng)
        path = tmp_path / "single.npz"
        save_checkpoint(path, params_to_arrays(params))
        back = arrays_to_params(load_checkpoint(path))
        for k, v in params.names().items():
            np.testing.assert_array_equal(back.names()[k], v)

    def test_multi_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        mp = init_multi_head(rng, n_heads=3, hidden=4, query_dim=5, key_dim=5, value_dim=2)
        path = tmp_path / "multi.npz"
        save_checkpoint(path, params_to_arrays(mp))
        back = arrays_to_params(load_checkpoint(path))
        assert isinstance(back, MultiHeadParams) and back.n_heads == 3
        for k, v in mp.names().items():
            np.testing.assert_array_equal(back.names()[k], v)

    def test_param_count(self):
        rng = np.random.default_rng(21)
        p = init_single_head(rng, hidden=120, query_dim=15, key_dim=15)
        assert p.count() == 120 * (15 + 15 + 2)
