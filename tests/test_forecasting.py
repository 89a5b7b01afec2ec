"""Training loops, baseline models, and forecast drivers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    empty_like_fields,
    finite_difference_gradient,
    fit_linear_ridge,
    relative_gradient_error,
)

from attnpool.attention import HEAD_FIELDS, init_single_head
from attnpool.evaluation import VALID_TIME_DT, exceeded, valid_time
from attnpool.forecasting import (
    AttentionPooler,
    FeedForwardNet,
    LinearPooler,
    Standardizer,
    VARIANTS,
    TrainConfig,
    assemble_open_loop,
    attention_hidden_size,
    attention_param_count,
    epoch_batches,
    closed_loop_forecast_batch,
    ffnn_backward,
    ffnn_forward,
    ffnn_hidden_size,
    fit,
    gather_histories,
    init_ffnn,
    lorenz_candidate_stepper,
    train_attention,
    train_ffnn,
    train_linear,
)
from attnpool.lorenz import (
    CANDIDATE_RHOS,
    candidate_forecasts,
    generate_dataset,
    integrate,
)
from attnpool.numerics import spawn_rng


@pytest.fixture(scope="module")
def small():
    """400-sample training run plus a short validation run, with candidates."""
    ds = generate_dataset(
        seed=3, t_transient=20.0, t_train=40.0, t_val=32.0,
        n_val_segments=2, segment_len=16, warmup=8,
    )
    return ds, candidate_forecasts(ds.train.states), candidate_forecasts(ds.validation.states)


@pytest.fixture(scope="module")
def trained(small):
    ds, cand, _ = small
    data = assemble_open_loop(ds.train.states, cand, 3)
    return train_attention(data, 3, config=TrainConfig(epochs=120, seed=7))


def ceiling_stepper(ceiling: float):
    """The Lorenz candidates, blowing up from every state whose z exceeds
    ``ceiling``: truncates chosen rows mid-rollout, row by row."""
    lorenz = lorenz_candidate_stepper()

    def stepper(states):
        out = lorenz(states)
        out[states[:, 2] > ceiling] = np.inf
        return out

    return stepper


@pytest.fixture(scope="module")
def segments(small, trained):
    """Histories of 12 start points along the validation run, the stepper
    they roll out under, and each one's rollout alone under every variant.
    Some truncate at step 0, some later, some never."""
    ds, _, _ = small
    pooler, _ = trained
    hist = gather_histories(ds.validation.states, range(8, 300, 25), 4)
    stepper = ceiling_stepper(55.0)
    alone = {
        v: [
            closed_loop_forecast_batch(pooler, hist[b : b + 1], 12, stepper, variants=[v])[0]
            for b in range(len(hist))
        ]
        for v in VARIANTS
    }
    steps = {int(r.truncated_at[0]) for runs in alone.values() for r in runs}
    assert {-1, 0} < steps
    return hist, stepper, alone


class TestStandardizer:
    def test_zero_mean_unit_scale(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 5.0, size=(200, 4))
        z = Standardizer.fit(x).apply(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_passes_through(self):
        x = np.full((50, 2), 5.0)
        x[:, 1] = np.linspace(0, 1, 50)
        s = Standardizer.fit(x)
        assert s.scale[0] == 1.0
        np.testing.assert_array_equal(s.apply(x)[:, 0], 0.0)

    def test_pools_all_leading_axes(self):
        rng = np.random.default_rng(1)
        keys = rng.normal(size=(10, 3, 4))
        s3 = Standardizer.fit(keys)
        s2 = Standardizer.fit(keys.reshape(-1, 4))
        np.testing.assert_array_equal(s3.mean, s2.mean)
        np.testing.assert_array_equal(s3.scale, s2.scale)

    def test_identity_is_noop(self):
        x = np.random.default_rng(2).normal(size=(5, 3))
        np.testing.assert_array_equal(Standardizer.identity(3).apply(x), x)


class TestSizing:
    def test_hidden_size_rule(self):
        assert [attention_hidden_size(l) for l in range(1, 7)] == [600, 300, 200, 150, 120, 100]

    def test_hidden_size_rejects_zero(self):
        with pytest.raises(ValueError):
            attention_hidden_size(0)

    def test_reference_param_counts(self):
        assert attention_param_count(5) == 3840
        assert ffnn_hidden_size(5) == 202

    def test_ffnn_count_matches_attention_within_10pct(self):
        rng = spawn_rng(0, "sizing")
        for l in range(1, 7):
            net = init_ffnn(rng, ffnn_hidden_size(l), 3 * l, 3)
            target = attention_param_count(l)
            trained = net.w1.size + net.b1.size + net.w2.size + net.b2.size
            assert abs(trained - target) <= 0.1 * target


class TestAssembleOpenLoop:
    def test_matches_naive_assembly(self):
        rng = np.random.default_rng(10)
        states = rng.normal(size=(12, 3))
        cand = rng.normal(size=(12, 4, 3))
        cand[0] = np.nan
        length = 3
        data = assemble_open_loop(states, cand, length)
        np.testing.assert_array_equal(data.target_indices, np.arange(4, 12))
        for row, j in enumerate(data.target_indices):
            query = np.concatenate([states[j - 1 - k] for k in range(length)])
            np.testing.assert_array_equal(data.queries[row], query)
            for m in range(4):
                key = np.concatenate(
                    [cand[j - 1 - k, m] - states[j - 1 - k] for k in range(length)]
                )
                np.testing.assert_array_equal(data.keys[row, m], key)
            np.testing.assert_array_equal(data.values[row], cand[j])
            np.testing.assert_array_equal(data.targets[row], states[j])

    def test_length_one(self):
        rng = np.random.default_rng(11)
        states = rng.normal(size=(5, 3))
        cand = rng.normal(size=(5, 2, 3))
        data = assemble_open_loop(states, cand, 1)
        np.testing.assert_array_equal(data.queries, states[1:4])
        np.testing.assert_array_equal(data.keys, cand[1:4] - states[1:4, None, :])

    def test_rejects_bad_inputs(self):
        states = np.zeros((10, 3))
        cand = np.zeros((10, 2, 3))
        with pytest.raises(ValueError, match="delay length"):
            assemble_open_loop(states, cand, 0)
        with pytest.raises(ValueError, match="no target"):
            assemble_open_loop(states[:4], cand[:4], 3)
        with pytest.raises(ValueError, match="aligned"):
            assemble_open_loop(states, np.zeros((9, 2, 3)), 2)


class TestFeedForwardNet:
    def test_zero_weights_output_is_bias(self):
        net = FeedForwardNet(
            w1=np.zeros((4, 6)), b1=np.zeros(4),
            w2=np.zeros((3, 4)), b2=np.array([1.0, 2.0, 3.0]),
            scaler=Standardizer.identity(6), delay_length=2,
        )
        out, weights, _ = ffnn_forward(net, np.ones((5, 6)))
        assert weights is None
        np.testing.assert_array_equal(out, np.tile([1.0, 2.0, 3.0], (5, 1)))

    def test_rejects_dim_mismatch(self):
        net = init_ffnn(spawn_rng(1, "ffnn"), 5, 6, 3)
        with pytest.raises(ValueError, match="input dim"):
            ffnn_forward(net, np.zeros((2, 7)))
        with pytest.raises(ValueError, match="input dim"):
            ffnn_forward(net, np.zeros(6))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = FeedForwardNet(
            w1=rng.uniform(-0.5, 0.5, (6, 4)), b1=rng.uniform(-0.5, 0.5, 6),
            w2=rng.uniform(-0.5, 0.5, (3, 6)), b2=rng.uniform(-0.5, 0.5, 3),
            scaler=Standardizer.identity(4), delay_length=1,
        )
        x = rng.uniform(-0.5, 0.5, (4, 4))
        y = rng.uniform(-0.5, 0.5, (4, 3))
        out, _, cache = ffnn_forward(net, x)
        resid = out - y
        grads = ffnn_backward(net, cache, 2.0 * resid / resid.size, out=empty_like_fields(net))
        for name in ("w1", "b1", "w2", "b2"):
            analytic = getattr(grads, name)

            def loss(p, name=name):
                saved = getattr(net, name)
                setattr(net, name, p)
                o, _, _ = ffnn_forward(net, x)
                setattr(net, name, saved)
                return float(np.mean((o - y) ** 2))
            numeric = finite_difference_gradient(loss, getattr(net, name))
            assert relative_gradient_error(analytic, numeric) < 1e-5, name


class TestTraining:
    def test_perfect_single_candidate_zero_loss(self, small):
        ds, _, _ = small
        states = ds.train.states[:200]
        cand = states[:, None, :].copy()  # the lone candidate IS the truth
        data = assemble_open_loop(states, cand, 2)
        _, curve = train_attention(data, 2, hidden=8, config=TrainConfig(epochs=50, seed=0))
        assert curve[-1] == 0.0  # softmax over one model pins the weight at 1

    def test_learns_to_select_clean_candidate(self, small):
        ds, _, _ = small
        rng = np.random.default_rng(4)
        states = ds.train.states[:300]
        noisy = states + rng.normal(0.0, 5.0, size=states.shape)
        cand = np.stack([states, noisy], axis=1)
        data = assemble_open_loop(states, cand, 2)
        uniform_mse = np.mean((data.values.mean(axis=1) - data.targets) ** 2)
        _, curve = train_attention(data, 2, hidden=16, config=TrainConfig(epochs=150, seed=1))
        assert curve[-1] < 0.2 * uniform_mse

    def test_loss_curve_improves(self, trained):
        _, curve = trained
        assert curve[-1] < curve[0]

    def test_beats_best_single_candidate(self, small):
        ds, cand, _ = small
        data = assemble_open_loop(ds.train.states, cand, 5)
        _, curve = train_attention(data, 5, config=TrainConfig(epochs=250, seed=5))
        best_single = min(
            float(np.mean((data.values[:, m] - data.targets) ** 2))
            for m in range(data.values.shape[1])
        )
        assert curve[-1] < best_single

    def test_training_is_bitwise_deterministic(self, small):
        ds, cand, _ = small
        data = assemble_open_loop(ds.train.states[:120], cand[:120], 2)
        cfg = TrainConfig(epochs=5, seed=11)
        a, curve_a = train_attention(data, 2, hidden=8, config=cfg)
        b, curve_b = train_attention(data, 2, hidden=8, config=cfg)
        np.testing.assert_array_equal(curve_a, curve_b)
        for name in HEAD_FIELDS:
            np.testing.assert_array_equal(getattr(a.params, name), getattr(b.params, name))
        np.testing.assert_array_equal(a.query_scaler.mean, b.query_scaler.mean)

    def test_seed_changes_the_fit(self, small):
        ds, cand, _ = small
        data = assemble_open_loop(ds.train.states[:120], cand[:120], 2)
        a, _ = train_attention(data, 2, hidden=8, config=TrainConfig(epochs=5, seed=11))
        b, _ = train_attention(data, 2, hidden=8, config=TrainConfig(epochs=5, seed=12))
        assert not np.array_equal(a.params.w_query, b.params.w_query)

    def test_nonfinite_loss_aborts_with_context(self, small):
        ds, cand, _ = small
        data = assemble_open_loop(ds.train.states[:120], cand[:120], 2)
        data.targets[5] = np.nan
        cfg = TrainConfig(epochs=2, seed=0)
        flat_values = data.values.reshape(len(data.values), -1)
        for train in (
            lambda: train_attention(data, 2, hidden=8, config=cfg),
            lambda: train_linear(flat_values, data.targets, cfg),
            lambda: train_ffnn(data.queries, data.targets, 2, hidden=8, config=cfg),
        ):
            with pytest.raises(FloatingPointError, match="epoch 0"):
                train()

    def test_fit_steps_per_batch_and_records_the_epoch_mean(self):
        """Each epoch visits the rows in the order epoch_batches draws from
        the same stream, runs forward, loss, backward and one Adam step per
        batch, and records the mean of all the loss terms."""
        rows = np.arange(10, 20)
        model = LinearPooler(weight=np.ones((1, 1)), bias=np.zeros(1))
        seen = []

        def forward(m, xb):
            return xb, None, "cache"

        def loss(preds, idx):
            seen.append(idx)
            np.testing.assert_array_equal(preds, idx[:, None] + 100.0)
            return idx[:, None] * np.array([1.0, 2.0]), preds

        def backward(m, cache, d_preds, out):
            assert m is model and cache == "cache"
            out.weight[...] = 1.0
            out.bias[...] = 0.0
            return out

        curve = fit(
            model, forward, backward, (np.arange(20.0)[:, None] + 100.0,), loss, rows,
            np.random.default_rng(3), TrainConfig(epochs=2, batch_size=4, learning_rate=1e-2),
        )
        reference = np.random.default_rng(3)
        expected = [rows[b] for _ in range(2) for b in epoch_batches(reference, 10, 4)]
        assert len(seen) == len(expected) == 6
        for got, want in zip(seen, expected):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(curve, [1.5 * rows.mean()] * 2)
        # six Adam steps of lr / (1 + eps) on a constant unit gradient, none
        # on a zero one
        np.testing.assert_allclose(model.weight, [[1.0 - 6 * 1e-2 / (1.0 + 1e-8)]], rtol=1e-12)
        np.testing.assert_array_equal(model.bias, [0.0])

    def test_rejecting_batch_hook_stops_fit_before_the_step(self):
        rng = np.random.default_rng(15)
        x, y = rng.normal(size=(20, 4)), rng.normal(size=(20, 3))
        model = LinearPooler(weight=rng.normal(size=(3, 4)), bias=np.zeros(3))
        before = model.weight.copy()
        seen = []

        def forward(m, xb):
            seen.append(xb)
            return LinearPooler.forward(m, xb)

        def loss(preds, idx):
            resid = preds - y[idx]
            return resid * resid, 2.0 * resid / resid.size

        def reject_row_7(rows):
            assert 7 not in rows, "row 7 is held out"

        with pytest.raises(AssertionError, match="held out"):
            fit(
                model, forward, LinearPooler.backward, (x,), loss, np.arange(20),
                np.random.default_rng(0), TrainConfig(epochs=1, batch_size=20),
                check_rows=reject_row_7,
            )
        assert seen == []
        np.testing.assert_array_equal(model.weight, before)
        np.testing.assert_array_equal(model.bias, np.zeros(3))

    def test_nonfinite_loss_term_stops_fit_before_the_backward(self):
        """A non-finite loss term at epoch 1, batch 1 raises with that
        context; neither the backward nor the Adam step runs on the batch,
        so the model keeps the arrays the four earlier steps left."""
        model = LinearPooler(weight=np.ones((2, 3)), bias=np.zeros(2))
        x = np.random.default_rng(4).normal(size=(10, 3))
        calls = {"loss": 0, "backward": 0}
        snapshot = {}

        def loss(preds, idx):
            calls["loss"] += 1
            terms = preds * preds
            if calls["loss"] == 5:
                snapshot.update(weight=model.weight.copy(), bias=model.bias.copy())
                terms[0, 1] = np.nan
            return terms, 2.0 * preds / preds.size

        def backward(m, cache, d_preds, out):
            calls["backward"] += 1
            return LinearPooler.backward(m, cache, d_preds, out)

        with pytest.raises(FloatingPointError, match=r"^non-finite training loss at epoch 1, batch 1$"):
            fit(
                model, LinearPooler.forward, backward, (x,), loss, np.arange(10),
                np.random.default_rng(5), TrainConfig(epochs=2, batch_size=4, learning_rate=1e-2),
            )
        assert calls == {"loss": 5, "backward": 4}
        assert not np.array_equal(snapshot["weight"], np.ones((2, 3)))
        np.testing.assert_array_equal(model.weight, snapshot["weight"])
        np.testing.assert_array_equal(model.bias, snapshot["bias"])

    def test_ridge_recovers_generating_weights(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 12))
        weight = rng.uniform(-0.3, 0.3, size=(3, 12))
        bias = rng.uniform(-0.3, 0.3, size=3)
        y = x @ weight.T + bias
        fit = fit_linear_ridge(x, y)
        np.testing.assert_allclose(fit.weight, weight, atol=1e-6)
        np.testing.assert_allclose(fit.bias, bias, atol=1e-6)

    def test_adam_linear_approaches_generating_model(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(300, 6))
        weight = rng.uniform(-0.3, 0.3, size=(3, 6))
        y = x @ weight.T + 0.1
        _, curve = train_linear(x, y, config=TrainConfig(epochs=200, seed=2))
        assert curve[-1] < 0.05 * curve[0]

    def test_ffnn_training_improves(self, small):
        ds, cand, _ = small
        data = assemble_open_loop(ds.train.states[:200], cand[:200], 2)
        _, curve = train_ffnn(
            data.queries, data.targets, 2, hidden=20,
            config=TrainConfig(epochs=30, seed=3),
        )
        assert curve[-1] < curve[0]


def open_loop(pooler, states, cand):
    """The pooler run one step ahead on the true series: the instances, the
    pooled forecasts and the weights."""
    data = assemble_open_loop(states, cand, pooler.delay_length)
    pooled, weights = pooler.forward(data.queries, data.keys, data.values)
    return data, pooled, weights


class TestOpenLoop:
    def test_weights_sum_to_one(self, trained, small):
        pooler, _ = trained
        ds, _, vcand = small
        _, _, weights = open_loop(pooler, ds.validation.states, vcand)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_predictions_in_convex_hull(self, trained, small):
        pooler, _ = trained
        ds, _, vcand = small
        data, pooled, _ = open_loop(pooler, ds.validation.states, vcand)
        low = data.values.min(axis=1) - 1e-12
        high = data.values.max(axis=1) + 1e-12
        assert np.all(pooled >= low) and np.all(pooled <= high)

    def test_causality(self, trained, small):
        pooler, _ = trained
        ds, _, vcand = small
        states = ds.validation.states
        data, pooled, _ = open_loop(pooler, states, vcand)

        cut = 40
        mutated = states.copy()
        mutated[cut:] = np.random.default_rng(8).normal(0.0, 30.0, mutated[cut:].shape)
        _, pooled2, _ = open_loop(pooler, mutated, candidate_forecasts(mutated))
        before = data.target_indices < cut
        np.testing.assert_array_equal(pooled[before], pooled2[before])

    def test_beats_uniform_average(self, trained, small):
        pooler, _ = trained
        ds, _, vcand = small
        data, pooled, _ = open_loop(pooler, ds.validation.states, vcand)
        mse_att = np.mean((pooled - data.targets) ** 2)
        mse_uniform = np.mean((data.values.mean(axis=1) - data.targets) ** 2)
        assert mse_att < mse_uniform

    def test_linear_path_matches_manual_affine(self, small):
        ds, _, vcand = small
        rng = np.random.default_rng(12)
        model = LinearPooler(weight=rng.normal(size=(3, 33)), bias=rng.normal(size=3))
        data = assemble_open_loop(ds.validation.states, vcand, 1)
        predictions = model.predict(data.values.reshape(len(data.values), -1))
        row = 4
        manual = model.weight @ data.values[row].reshape(-1) + model.bias
        np.testing.assert_allclose(predictions[row], manual, atol=1e-12)


class TestClosedLoop:
    def test_perfect_model_limit_is_exact(self):
        truth = integrate(np.array([1.0, 2.0, 25.0]), 0.0, 40, lambda t: 28.0)
        pooler = AttentionPooler(
            params=init_single_head(spawn_rng(0, "cl"), 8, 9, 9),
            query_scaler=Standardizer.identity(9),
            key_scaler=Standardizer.identity(9),
            delay_length=3,
        )
        hist = gather_histories(truth.states, [6], 4)
        [res] = closed_loop_forecast_batch(
            pooler, hist, 20, lorenz_candidate_stepper([28.0])
        )
        np.testing.assert_array_equal(res.predictions[0], truth.states[6:26])
        np.testing.assert_array_equal(res.weights[0], 1.0)
        assert res.truncated_at[0] == -1

    @pytest.mark.parametrize("variant", ["additive", "fixed_attention"])
    def test_single_candidate_is_its_autonomous_rollout(self, variant):
        # truth runs at 28 but the lone candidate at 35: the pooled forecast
        # must follow the candidate's own trajectory from the warmup end
        truth = integrate(np.array([0.5, -1.0, 20.0]), 0.0, 20, lambda t: 28.0)
        pooler = AttentionPooler(
            params=init_single_head(spawn_rng(1, "cl"), 8, 6, 6),
            query_scaler=Standardizer.identity(6),
            key_scaler=Standardizer.identity(6),
            delay_length=2,
        )
        hist = gather_histories(truth.states, [5], 3)
        [res] = closed_loop_forecast_batch(
            pooler, hist, 12, lorenz_candidate_stepper([35.0]), variants=[variant]
        )
        ref = integrate(truth.states[4], 0.0, 12, lambda t: 35.0)
        np.testing.assert_array_equal(res.predictions[0], ref.states)

    def test_fixed_matches_additive_at_step0_only(self, trained, small):
        pooler, _ = trained
        ds, _, _ = small
        hist = gather_histories(ds.validation.states, ds.segment_starts, 4)
        [add] = closed_loop_forecast_batch(pooler, hist, 16, variants=["additive"])
        [fix] = closed_loop_forecast_batch(pooler, hist, 16, variants=["fixed_attention"])
        np.testing.assert_array_equal(add.predictions[:, 0], fix.predictions[:, 0])
        np.testing.assert_array_equal(add.weights[:, 0], fix.weights[:, 0])
        assert not np.array_equal(add.predictions, fix.predictions)

    def test_best_initial_is_argmax_of_step0_weights(self, trained, small):
        pooler, _ = trained
        ds, _, _ = small
        hist = gather_histories(ds.validation.states, ds.segment_starts, 4)
        [add] = closed_loop_forecast_batch(pooler, hist, 8, variants=["additive"])
        [best] = closed_loop_forecast_batch(pooler, hist, 8, variants=["best_initial"])
        chosen = add.weights[:, 0].argmax(axis=1)
        np.testing.assert_array_equal(best.weights[:, 0].argmax(axis=1), chosen)
        np.testing.assert_allclose(best.weights[:, 0].max(axis=1), 1.0)

    def test_best_initial_equals_chosen_candidate_rollout(self, trained, small):
        pooler, _ = trained
        ds, _, _ = small
        hist = gather_histories(ds.validation.states, ds.segment_starts, 4)
        [best] = closed_loop_forecast_batch(pooler, hist, 10, variants=["best_initial"])
        for b, weights in enumerate(best.weights[:, 0]):
            rho = CANDIDATE_RHOS[int(weights.argmax())]
            ref = integrate(hist[b, -1], 0.0, 10, lambda t: rho)
            np.testing.assert_array_equal(best.predictions[b], ref.states)

    def test_autonomous_after_warmup(self, trained, small):
        pooler, _ = trained
        ds, _, _ = small
        states = ds.validation.states
        start = ds.segment_starts[0]
        [res] = closed_loop_forecast_batch(
            pooler, gather_histories(states, [start], 4), 16
        )
        mutated = states.copy()
        mutated[start:] = 999.0  # everything from the first target onward
        [res2] = closed_loop_forecast_batch(
            pooler, gather_histories(mutated, [start], 4), 16
        )
        np.testing.assert_array_equal(res.predictions, res2.predictions)
        np.testing.assert_array_equal(res.weights, res2.weights)

    def test_blowup_truncates_only_affected_row(self, trained, small):
        pooler, _ = trained
        ds, _, _ = small
        hist = gather_histories(ds.validation.states, ds.segment_starts, 4)
        mixed = np.stack([hist[0], hist[1] * 1e155])
        [res] = closed_loop_forecast_batch(pooler, mixed, 8)
        assert res.truncated_at.tolist() == [-1, 0]
        assert np.isfinite(res.predictions[0]).all()
        assert np.isnan(res.predictions[1]).all()
        assert np.isnan(res.weights[1]).all()

    def test_non_finite_seed_errors_truncate_at_step0(self, trained, small):
        """Rows whose newest history sample gives finite candidates but an
        older one, which seeds the error buffer, does not: every variant
        truncates them at step 0, with no NaN computed on the way."""
        pooler, _ = trained
        ds, _, _ = small
        hist = gather_histories(ds.validation.states, range(8, 300, 25), 4)
        z = hist[:, :, 2]
        rows = np.nonzero((z[:, -1] <= 30.0) & (z[:, :-1] > 30.0).any(axis=1))[0]
        assert len(rows) > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = closed_loop_forecast_batch(
                pooler, hist[rows], 12, ceiling_stepper(30.0), variants=VARIANTS
            )
        for res in results:
            assert res.truncated_at.tolist() == [0] * len(rows)
            assert np.isnan(res.predictions).all()
            assert np.isnan(res.weights).all()

    def test_linear_rollout_truncates_on_explosion(self, small):
        ds, _, _ = small
        model = LinearPooler(weight=np.full((3, 33), 50.0), bias=np.zeros(3))
        hist = gather_histories(ds.validation.states, [ds.segment_starts[0]], 1)
        [res] = closed_loop_forecast_batch(model, hist, 12)
        cut = int(res.truncated_at[0])
        assert cut >= 0
        assert np.isfinite(res.predictions[0, :cut]).all()
        assert np.isnan(res.predictions[0, cut:]).all()

    def test_ffnn_rollout_stays_bounded(self, small):
        ds, _, _ = small
        net = init_ffnn(spawn_rng(2, "clffnn"), 8, 6, 3)
        net.delay_length = 2
        net.scaler = Standardizer.identity(6)
        hist = gather_histories(ds.validation.states, ds.segment_starts, 2)
        [res] = closed_loop_forecast_batch(net, hist, 30)
        assert np.isfinite(res.predictions).all()
        assert res.truncated_at.tolist() == [-1, -1]

    @pytest.mark.parametrize("kind", ["linear", "ffnn"])
    def test_rollout_matches_a_plain_loop(self, small, kind):
        """The linear pooler and the direct net against a plain per-step
        loop: the pooler pools the candidates launched from its previous
        output, the net reads its own last l outputs, newest first."""
        ds, _, _ = small
        stepper = lorenz_candidate_stepper()
        if kind == "linear":
            weight = np.zeros((3, 33))
            for c in range(3):
                weight[c, c::3] = 1.0 / 11.0  # the candidates' mean
            model, depth = LinearPooler(weight, np.zeros(3)), 1
        else:
            model, depth = init_ffnn(spawn_rng(4, "plain"), 8, 6, 3), 2
            model.delay_length = depth
            model.scaler = Standardizer.identity(6)
        hist = gather_histories(ds.validation.states, ds.segment_starts, depth)
        [res] = closed_loop_forecast_batch(model, hist, 10)

        states = [hist[:, -1 - k] for k in range(depth)]
        expected = []
        for _ in range(10):
            if kind == "linear":
                out = model.predict(stepper(states[0]).reshape(len(hist), -1))
            else:
                out = model.predict(np.concatenate(states, axis=-1))
            expected.append(out)
            states = [out] + states[:-1]
        np.testing.assert_array_equal(res.predictions, np.stack(expected, axis=1))
        assert res.weights is None
        assert res.truncated_at.tolist() == [-1, -1]

    def test_single_segment_equals_its_batch_row(self, trained, small):
        pooler, _ = trained
        ds, _, _ = small
        hist = gather_histories(ds.validation.states, ds.segment_starts, 4)
        for variant in VARIANTS:
            [batch] = closed_loop_forecast_batch(pooler, hist, 8, variants=[variant])
            for b in range(len(hist)):
                [single] = closed_loop_forecast_batch(
                    pooler, hist[b : b + 1], 8, variants=[variant]
                )
                np.testing.assert_array_equal(single.predictions[0], batch.predictions[b])
                np.testing.assert_array_equal(single.weights[0], batch.weights[b])

    @pytest.mark.parametrize("ceiling", [56.0, 60.0])
    def test_variants_in_one_call_equal_separate_calls(self, trained, small, ceiling):
        """One call with several variants gives, variant by variant, the
        bits of separate calls, with or without the ``additive`` tile that
        recomputes its weights. The first segment's last history sample
        lies above both ceilings, so it truncates at step 0; the second
        crosses a ceiling mid-rollout."""
        pooler, _ = trained
        ds, _, _ = small
        hist = gather_histories(ds.validation.states, ds.segment_starts, 4)
        stepper = ceiling_stepper(ceiling)
        for variants in (VARIANTS, ("best_initial", "fixed_attention")):
            merged = closed_loop_forecast_batch(pooler, hist, 16, stepper, variants=variants)
            assert len(merged) == len(variants)
            for variant, res in zip(variants, merged):
                [alone] = closed_loop_forecast_batch(
                    pooler, hist, 16, stepper, variants=[variant]
                )
                np.testing.assert_array_equal(res.predictions, alone.predictions)
                np.testing.assert_array_equal(res.weights, alone.weights)
                np.testing.assert_array_equal(res.truncated_at, alone.truncated_at)
            steps = {int(t) for res in merged for t in res.truncated_at}
            assert 0 in steps and max(steps) > 0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_batched_rollout_equals_per_segment_rollouts(self, trained, segments, data):
        """A batch of any subset of segments, in any order, run under any
        ordered set of variants, gives each segment its rollout alone."""
        pooler, _ = trained
        hist, stepper, alone = segments
        rows = data.draw(st.lists(st.integers(0, len(hist) - 1), min_size=1, unique=True))
        variants = data.draw(st.lists(st.sampled_from(VARIANTS), min_size=1, unique=True))
        merged = closed_loop_forecast_batch(pooler, hist[rows], 12, stepper, variants=variants)
        for variant, res in zip(variants, merged):
            for i, b in enumerate(rows):
                ref = alone[variant][b]
                np.testing.assert_array_equal(res.predictions[i], ref.predictions[0])
                np.testing.assert_array_equal(res.weights[i], ref.weights[0])
                assert res.truncated_at[i] == ref.truncated_at[0]

    def test_required_history(self, trained, small):
        """The driver takes l+1 true samples for the attention pooler, l for
        the direct net and 1 for the linear pooler."""
        pooler, _ = trained
        ds, _, _ = small
        net = init_ffnn(spawn_rng(2, "rh"), 4, 6, 3)
        net.delay_length = 2
        linear = LinearPooler(np.zeros((3, 33)), np.zeros(3))
        for model, depth in ((pooler, 4), (net, 2), (linear, 1)):
            hist = gather_histories(ds.validation.states, ds.segment_starts, depth)
            [res] = closed_loop_forecast_batch(model, hist, 3)
            assert res.predictions.shape == (len(hist), 3, 3)
            assert (res.weights is None) == (model is not pooler)
            with pytest.raises(ValueError, match=f"histories must be \\(B, {depth}, d\\)"):
                closed_loop_forecast_batch(model, hist[:, 1:], 3)

    def test_variants_apply_to_attention_only(self, small):
        ds, _, _ = small
        linear = LinearPooler(np.zeros((3, 33)), np.zeros(3))
        hist = gather_histories(ds.validation.states, ds.segment_starts, 1)
        with pytest.raises(ValueError, match="attention pooler only"):
            closed_loop_forecast_batch(linear, hist, 3, variants=["best_initial"])

    def test_gather_histories_slices(self):
        states = np.arange(30.0).reshape(10, 3)
        hist = gather_histories(states, [4, 7], 3)
        np.testing.assert_array_equal(hist[0], states[1:4])
        np.testing.assert_array_equal(hist[1], states[4:7])
        with pytest.raises(ValueError, match="preceding"):
            gather_histories(states, [2], 3)

    def test_rejects_bad_arguments(self, trained, small):
        pooler, _ = trained
        ds, _, _ = small
        hist = gather_histories(ds.validation.states, [ds.segment_starts[0]], 4)
        for variants in (["bogus"], [], ["additive", "additive"], "additive"):
            with pytest.raises(ValueError, match="variants"):
                closed_loop_forecast_batch(pooler, hist, 8, variants=variants)
        with pytest.raises(ValueError, match="horizon"):
            closed_loop_forecast_batch(pooler, hist, 0)
        with pytest.raises(ValueError, match="histories"):
            closed_loop_forecast_batch(pooler, hist[:, :3], 8)
        truths = np.zeros((1, 8, 3))
        with pytest.raises(ValueError, match="truths"):
            closed_loop_forecast_batch(pooler, hist, 8, truths=truths[:, :7])
        with pytest.raises(ValueError, match="full_horizon"):
            closed_loop_forecast_batch(
                pooler, hist, 8, variants=["additive"], truths=truths,
                full_horizon=["best_initial"],
            )


def step_counter(stepper):
    """``stepper``, recording the number of states of every call."""
    sizes = []

    def spy(states):
        sizes.append(len(states))
        return stepper(states)

    return spy, sizes


def leaving_truths(predictions, leave):
    """Truths that follow ``predictions`` (NaN read as 0) until step
    ``leave[b]`` of row b, then sit 7 off in every component, an error of
    49: each row exceeds first at its ``leave`` unless it blows up
    earlier; a ``leave`` of the horizon never comes."""
    truths = np.nan_to_num(predictions, nan=0.0)
    steps = np.arange(truths.shape[1])
    truths[steps[None, :] >= np.asarray(leave)[:, None]] += 7.0
    return truths


class TestRetirement:
    """With the segments' truths, a row leaves the batch once its valid time
    is decided; everything the valid times and the written tile read keeps
    its bits."""

    def assert_cut_matches_full(self, cut, full, truths, horizon, judged=True):
        """Row by row: the same valid time, the bits of the full rollout up
        to the row's last step, NaN after it; a ``judged`` row's last step
        is the one that decided its valid time."""
        for b in range(len(truths)):
            vt = valid_time(full.predictions[b], truths[b])
            assert valid_time(cut.predictions[b], truths[b]) == vt
            n = int(cut.steps[b])
            # a row that retires first never reaches its blow-up
            blew_up = full.truncated_at[b]
            assert cut.truncated_at[b] == (blew_up if 0 <= blew_up < n else -1)
            np.testing.assert_array_equal(cut.predictions[b, :n], full.predictions[b, :n])
            assert np.isnan(cut.predictions[b, n:]).all()
            if full.weights is not None:
                np.testing.assert_array_equal(cut.weights[b, :n], full.weights[b, :n])
                assert np.isnan(cut.weights[b, n:]).all()
            if judged:
                assert n == min(round(vt / VALID_TIME_DT) + 1, horizon)

    def test_rows_stop_once_their_valid_time_is_decided(self, trained, segments):
        """Rows exceeding at different steps, rows that never do and rows
        that blow up, under every variant; the ``fixed_attention`` tile runs
        the whole horizon and keeps every bit."""
        pooler, _ = trained
        hist, stepper, _ = segments
        horizon = 12
        full = closed_loop_forecast_batch(pooler, hist, horizon, stepper, variants=VARIANTS)
        leave = np.resize([0, 2, 5, horizon - 1, horizon, 7], len(hist))
        truths = leaving_truths(full[0].predictions, leave)
        spy, sizes = step_counter(stepper)
        cut = closed_loop_forecast_batch(
            pooler, hist, horizon, spy, variants=VARIANTS,
            truths=truths, full_horizon=["fixed_attention"],
        )
        for variant, c, f in zip(VARIANTS, cut, full):
            self.assert_cut_matches_full(c, f, truths, horizon, variant != "fixed_attention")
            if variant == "fixed_attention":
                np.testing.assert_array_equal(c.predictions, f.predictions)
                np.testing.assert_array_equal(c.weights, f.weights)
                stops = np.where(f.truncated_at < 0, horizon, f.truncated_at + 1)
                np.testing.assert_array_equal(c.steps, stops)
        additive = cut[0]
        assert set(additive.steps.tolist()) >= {1, 3, 6, horizon}
        assert (additive.truncated_at >= 0).any() and (additive.truncated_at < 0).any()
        # the seeding calls and step 0 see every row; the batch then shrinks
        n_batch = len(VARIANTS) * len(hist)
        assert sizes[: pooler.delay_length + 1] == [n_batch] * (pooler.delay_length + 1)
        assert sizes == sorted(sizes, reverse=True) and sizes[-1] < n_batch
        assert sum(sizes) < n_batch * (pooler.delay_length + horizon)

    def test_without_truths_only_blown_up_rows_leave(self, trained, segments):
        pooler, _ = trained
        hist, stepper, alone = segments
        spy, sizes = step_counter(stepper)
        [res] = closed_loop_forecast_batch(pooler, hist, 12, spy, variants=["additive"])
        for b, ref in enumerate(alone["additive"]):
            np.testing.assert_array_equal(res.predictions[b], ref.predictions[0])
            np.testing.assert_array_equal(res.weights[b], ref.weights[0])
        stops = np.where(res.truncated_at < 0, 12, res.truncated_at + 1)
        np.testing.assert_array_equal(res.steps, stops)
        assert sizes[-1] == int((res.truncated_at < 0).sum())

    @pytest.mark.parametrize("kind", ["linear", "ffnn"])
    def test_baselines_keep_their_bits_as_rows_leave(self, small, kind):
        """The baselines' matmuls see every row at its place in a batch of
        the full height, so the rows that stay keep the bits of the full
        rollout."""
        ds, _, _ = small
        if kind == "linear":
            rng = np.random.default_rng(5)
            weight = np.full((3, 33), 1.0 / 11.0) + rng.normal(0.0, 1e-3, (3, 33))
            model, depth = LinearPooler(weight, np.zeros(3)), 1
        else:
            model, depth = init_ffnn(spawn_rng(6, "retire"), ffnn_hidden_size(2), 6, 3), 2
            model.delay_length = depth
            model.scaler = Standardizer.identity(6)
        hist = gather_histories(ds.validation.states, range(8, 300, 13), depth)
        horizon = 20
        [full] = closed_loop_forecast_batch(model, hist, horizon)
        leave = np.resize([0, 3, 9, horizon], len(hist))
        truths = leaving_truths(full.predictions, leave)
        [cut] = closed_loop_forecast_batch(model, hist, horizon, truths=truths)
        self.assert_cut_matches_full(cut, full, truths, horizon)
        assert set(cut.steps.tolist()) == {1, 4, 10, horizon}

    def test_exceeded_is_the_valid_time_definition(self):
        """Exactly at the threshold, and for NaN, inf and a finite error too
        large to square (which warns nothing), the first step ``exceeded``
        marks is the step ``valid_time`` stops at."""
        truth = np.zeros((3, 3))
        below = [10.0, 4.0, 1.999999]
        for first in ([10.0, 4.0, 2.0], [np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0], [1e200, 0.0, 0.0]):
            pred = np.array([[1.0, 1.0, 1.0], below, first])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert exceeded(pred, truth).tolist() == [False, False, True]
                assert valid_time(pred, truth) == 2 * VALID_TIME_DT
                assert valid_time(pred[:2], truth[:2]) == 2 * VALID_TIME_DT
