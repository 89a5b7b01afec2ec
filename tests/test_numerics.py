"""Adam updates, finite differences, and seeded init."""

import hashlib
import math
import os
import subprocess
import sysconfig
from dataclasses import dataclass, fields, make_dataclass
from pathlib import Path

import numpy as np
import pytest
from oracles import HEAD_FIELDS, finite_difference_gradient, relative_gradient_error

from attnpool import numerics
from attnpool.attention import (
    init_heads,
    multi_head_backward,
    multi_head_forward,
    single_head_backward,
    single_head_forward,
)
from attnpool.forecasting import LinearPooler, ffnn_backward, ffnn_forward, init_ffnn
from attnpool.numerics import FlatAdam, spawn_rng, uniform_init


@dataclass
class Weights:
    """A one-array model, trained through FlatAdam like the real ones."""

    w: np.ndarray


def adam_on(p, learning_rate=1e-3, weight_decay=0.0):
    """A model holding a copy of ``p`` and its optimizer."""
    model = Weights(np.array(p, dtype=np.float64))
    return model, FlatAdam(model, learning_rate, weight_decay)


def adam_update(opt, grad):
    """One optimizer step with gradient ``grad``."""
    opt.grads.w[...] = grad
    opt.step()


def adam_over(shapes, learning_rate=1e-3, weight_decay=0.0):
    """A model with one zero array field per (name, shape), in the order
    given, and its optimizer."""
    model = make_dataclass("Arrays", list(shapes))(*(np.zeros(s) for s in shapes.values()))
    return model, FlatAdam(model, learning_rate, weight_decay)


def model_cases(rng):
    """One small model of each trained type, each with a backward that
    takes the model and the ``out`` its gradient is written into."""
    q, k, v = rng.normal(size=(2, 2)), rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 2))
    upstream = rng.normal(size=(2, 2))

    def attention_backward(forward, backward):
        return lambda p, out: backward(p, forward(p, q, k, v)[2], upstream, out)

    net = init_ffnn(rng, hidden=4, in_dim=3, out_dim=2)
    x = rng.normal(size=(2, 3))
    single = init_heads(rng, 1, 3, 2, 4)
    multi = init_heads(rng, 2, 3, 2, 4)
    multi.w_out = uniform_init(rng, (2, 4), 4)
    return [
        (single, attention_backward(single_head_forward, single_head_backward)),
        (multi, attention_backward(multi_head_forward, multi_head_backward)),
        (LinearPooler(weight=rng.normal(size=(2, 3)), bias=rng.normal(size=2)),
         lambda p, out: p.backward(x, upstream, out)),
        (net, lambda p, out: ffnn_backward(p, ffnn_forward(p, x)[2], upstream, out)),
    ]


class TestAdam:
    """Each case on the compiled update; :class:`TestAdamNumpyPath` runs
    them all again on the numpy one."""

    @pytest.fixture(autouse=True)
    def update_path(self):
        if numerics.kernels() is None:
            pytest.skip(
                f"the C compiler {sysconfig.get_config_var('CC')!r} builds no "
                "kernel library that loads; TestAdamNumpyPath runs these cases"
            )

    def test_zero_gradient_is_identity(self):
        """Zero gradient and zero weight decay leave the parameter untouched,
        whatever the step count says."""
        rng = np.random.default_rng(42)
        model, opt = adam_on(rng.normal(size=(4, 3)))
        opt.step_count = 17
        before = model.w.copy()  # the update is in place
        adam_update(opt, 0.0)
        np.testing.assert_array_equal(model.w, before)
        # and again: moments stay zero, so it stays an identity
        adam_update(opt, 0.0)
        np.testing.assert_array_equal(model.w, before)

    def test_first_step_magnitude(self):
        # scalar p=1, g=0.5 at defaults: update ~ -lr * g / (sqrt(g^2) + eps)
        model, opt = adam_on([1.0])
        adam_update(opt, [0.5])
        np.testing.assert_allclose(model.w, [0.99900000002], rtol=0, atol=1e-15)

    def test_two_step_recurrence(self):
        """Frozen oracle: the update equations evaluated step by step by hand
        for p0=1 with gradients (1, -1) at default hyperparameters."""
        model, opt = adam_on([1.0])
        adam_update(opt, [1.0])
        np.testing.assert_allclose(model.w, [0.99900000001], rtol=0, atol=1e-15)
        adam_update(opt, [-1.0])
        np.testing.assert_allclose(model.w, [0.9990526315884211], rtol=0, atol=1e-15)
        assert opt.step_count == 2

    def test_matches_transcribed_recurrence_on_random_stream(self):
        rng = np.random.default_rng(7)
        grads = rng.normal(size=(6, 2, 3))
        p = rng.normal(size=(2, 3))
        model, opt = adam_on(p, learning_rate=0.01)

        # independent straight-line transcription of the update equations
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        expect = p.copy()
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            expect = expect - 0.01 * (m / (1 - 0.9**t)) / (
                np.sqrt(v / (1 - 0.999**t)) + 1e-8
            )

        for g in grads:
            adam_update(opt, g)
        np.testing.assert_allclose(model.w, expect, rtol=1e-14)

    def test_decoupled_weight_decay(self):
        # with zero gradient, decay must still shrink the parameter directly
        before = np.array([2.0, -2.0])
        model, opt = adam_on(before, learning_rate=0.1, weight_decay=0.5)
        adam_update(opt, 0.0)
        np.testing.assert_allclose(model.w, before - 0.1 * 0.5 * before, rtol=1e-15)

    def test_non_finite_gradient_names_parameter(self):
        _, opt = adam_over({"w_key": (2,)})
        opt.flat_grads[:] = [1.0, np.nan]
        with pytest.raises(ValueError, match="w_key"):
            opt.step()

    def test_flat_update_matches_per_array_recurrence_bitwise(self):
        """One update of a multi-array model's flat vector gives the bits of
        the allocating update applied array by array, in the order with the
        bias corrections folded into the step size and the guard, weight
        decay on, where the array boundaries fall inside the vector. A
        non-finite result in the last array names it and leaves every
        parameter as it was."""
        # 122 entries: array stops at 24, 96, 108 and 122
        shapes = {"w_query": (3, 4, 2), "w_key": (3, 4, 6), "bias": (3, 4), "w_out": (2, 7)}
        lr, wd, b1, b2, eps = 0.01, 1e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(5)
        model, opt = adam_over(shapes, learning_rate=lr, weight_decay=wd)
        opt.flat_params[:] = rng.normal(size=opt.flat_params.size)
        expect = {n: getattr(model, n).copy() for n in shapes}
        moments = {n: (np.zeros(s), np.zeros(s)) for n, s in shapes.items()}
        for t in range(1, 8):
            grad = rng.normal(size=opt.flat_grads.size)
            opt.flat_grads[:] = grad * 10.0 ** rng.integers(-6, 3)
            for n, p in expect.items():
                g = getattr(opt.grads, n)
                m, v = moments[n]
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * (g * g)
                moments[n] = (m, v)
                step_size = lr * math.sqrt(1.0 - b2**t) / (1.0 - b1**t)
                guard = eps * math.sqrt(1.0 - b2**t)
                expect[n] = p * (1.0 - lr * wd) - step_size * m / (np.sqrt(v) + guard)
            opt.step()
            for n in shapes:
                np.testing.assert_array_equal(getattr(model, n), expect[n], err_msg=f"{n} at step {t}")
        model.w_out[1, 6] = np.nan  # the last entry of the last array
        before = opt.flat_params.copy()
        with pytest.raises(ValueError, match="updated w_out$"):
            opt.step()
        np.testing.assert_array_equal(opt.flat_params, before)

    def test_moments_keep_the_textbook_bits_over_many_steps(self):
        """Over 200 steps, weight decay on and gradient scales from 1e-6 to
        1e2, the moments equal the textbook recurrence bit for bit, and the
        parameters stay within 1e-11 of textbook AdamW, which divides the
        moments by their bias corrections."""
        lr, wd, b1, b2, eps = 1e-3, 1e-2, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(17)
        # |p| starts in [1, 2] and 200 steps of at most lr each move it by
        # at most 0.2, so no entry nears zero, where rtol would not hold
        p = rng.uniform(1.0, 2.0, size=270) * rng.choice([-1.0, 1.0], size=270)
        scales = 10.0 ** np.repeat(np.arange(-6, 3), 30)
        model, opt = adam_on(p, learning_rate=lr, weight_decay=wd)
        m, v = np.zeros_like(p), np.zeros_like(p)
        for t in range(1, 201):
            g = rng.normal(size=p.size) * scales
            adam_update(opt, g)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p = p - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * p
            np.testing.assert_array_equal(opt.first_moment, m, err_msg=f"step {t}")
            np.testing.assert_array_equal(opt.second_moment, v, err_msg=f"step {t}")
            np.testing.assert_allclose(model.w, p, rtol=1e-11, atol=0, err_msg=f"step {t}")

    def test_a_step_swaps_the_parameter_vector_and_rebinds_the_fields(self):
        """A step writes the new parameters into the spare vector and swaps
        it in: afterwards every array field views the new ``flat_params``
        and none views the old one, now spare, and the gradient fields still
        view ``flat_grads``. A step whose result is not finite leaves the
        fields and ``flat_params`` on the old vector, with their old
        values."""
        shapes = {"w_query": (3, 4, 2), "w_key": (3, 4, 6), "bias": (3, 4), "w_out": (2, 7)}
        model, opt = adam_over(shapes, learning_rate=0.01, weight_decay=1e-3)
        rng = np.random.default_rng(3)
        opt.flat_params[:] = rng.normal(size=opt.flat_params.size)
        for t in range(1, 6):
            opt.flat_grads[:] = rng.normal(size=opt.flat_grads.size)
            spare = opt.flat_params
            opt.step()
            assert opt.flat_params is not spare, f"step {t}"
            for n in shapes:
                assert getattr(model, n).base is opt.flat_params, (n, t)
                assert not np.shares_memory(getattr(model, n), spare), (n, t)
                assert getattr(opt.grads, n).base is opt.flat_grads, (n, t)
            np.testing.assert_array_equal(
                np.concatenate([getattr(model, n).ravel() for n in shapes]), opt.flat_params
            )
        model.bias[2, 3] = np.nan
        vector, values = opt.flat_params, opt.flat_params.copy()
        with pytest.raises(ValueError, match="updated bias$"):
            opt.step()
        assert opt.flat_params is vector
        for n in shapes:
            assert getattr(model, n).base is vector, n
        np.testing.assert_array_equal(opt.flat_params, values)

    def test_non_finite_entry_in_buffer_names_its_array(self):
        model, opt = adam_over({"w_query": (2, 3), "w_key": (2, 5), "bias": (2,)})
        opt.flat_grads[:] = np.linspace(-1.0, 1.0, opt.flat_grads.size)
        opt.step()
        state = [opt.first_moment.copy(), opt.second_moment.copy(), opt.flat_params.copy()]
        opt.grads.w_key[1, 4] = np.inf
        with pytest.raises(ValueError, match="gradient of w_key"):
            opt.step()
        # a bad gradient is found before anything advances
        assert opt.step_count == 1
        for now, was in zip((opt.first_moment, opt.second_moment, opt.flat_params), state):
            np.testing.assert_array_equal(now, was)
        opt.grads.w_key[1, 4] = 0.0
        opt.flat_params[:] = np.arange(opt.flat_params.size)
        model.bias[0] = np.nan
        before = opt.flat_params.copy()
        with pytest.raises(ValueError, match="updated bias"):
            opt.step()
        # the check runs before the update is swapped in
        np.testing.assert_array_equal(opt.flat_params, before)

    def test_fields_are_rebound_to_views_of_the_flat_vector(self):
        """The model's arrays are copied into the flat vector in field order
        and rebound to their views; the last entry of one array and the
        first of the next are named by their own fields."""
        model = make_dataclass("Model", ["w", "b"])(np.ones((2, 3)), np.arange(2.0))
        opt = FlatAdam(model, 1e-3, 0.0)
        np.testing.assert_array_equal(opt.flat_params, [1, 1, 1, 1, 1, 1, 0, 1])
        opt.flat_params *= 2.0
        np.testing.assert_array_equal(model.w, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(model.b, [0.0, 2.0])
        for index, name in ((5, "w"), (6, "b")):
            opt.flat_grads[:] = 0.0
            opt.flat_grads[index] = np.nan
            with pytest.raises(ValueError, match=f"gradient of {name}$"):
                opt.step()

    def test_one_head_flattens_to_its_four_fields_in_order(self):
        """A stack of one head without a mixer trains its four head fields,
        flattened in field order; the absent mixer is no array, so it takes
        no place in the flat layout."""
        model = init_heads(np.random.default_rng(9), 1, hidden=3, query_dim=2, key_dim=4)
        expect = np.concatenate([getattr(model, n).ravel() for n in HEAD_FIELDS])
        opt = FlatAdam(model, 1e-3, 0.0)
        np.testing.assert_array_equal(opt.flat_params, expect)
        assert opt.flat_params.size == 3 * (2 + 4 + 2)
        assert model.w_out is None and opt.grads.w_out is None

    def test_flat_adam_trains_the_owner_through_its_grads(self):
        """For each model type, ``opt.grads`` is a model of that type whose
        array fields are views of the gradient buffer; every array field is
        trained and the other fields are shared, not trained; and a backward
        given ``opt.grads`` as ``out`` writes every entry of the gradient
        buffer and returns ``opt.grads``."""
        for model, backward in model_cases(np.random.default_rng(7)):
            kind = type(model).__name__
            arrays = [
                f.name for f in fields(model) if isinstance(getattr(model, f.name), np.ndarray)
            ]
            others = [f.name for f in fields(model) if f.name not in arrays]
            expect = {n: getattr(model, n).copy() for n in arrays}
            opt = FlatAdam(model, learning_rate=0.1, weight_decay=0.01)
            assert type(opt.grads) is type(model), kind
            np.testing.assert_array_equal(
                opt.flat_params, np.concatenate([expect[n].ravel() for n in arrays]), err_msg=kind
            )
            for n in others:
                assert getattr(opt.grads, n) is getattr(model, n), (kind, n)
            rng = np.random.default_rng(8)
            for n in arrays:
                grad = getattr(opt.grads, n)
                assert np.shares_memory(grad, opt.flat_grads), (kind, n)
                grad[...] = rng.normal(size=grad.shape)
            opt.step()
            for n in arrays:
                alone, alone_opt = adam_on(expect[n], 0.1, 0.01)
                adam_update(alone_opt, getattr(opt.grads, n))
                np.testing.assert_array_equal(getattr(model, n), alone.w, err_msg=kind)

            opt.flat_grads[:] = np.nan
            assert backward(model, opt.grads) is opt.grads, kind
            assert np.isfinite(opt.flat_grads).all(), kind

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(3)
            model, opt = adam_on(rng.normal(size=(5,)), learning_rate=0.05, weight_decay=0.01)
            for _ in range(20):
                adam_update(opt, rng.normal(size=5))
            return model.w

        np.testing.assert_array_equal(run(), run())


class TestAdamNumpyPath(TestAdam):
    """Every :class:`TestAdam` case on the numpy update, the one that runs
    where no compiled kernel loads, selected through the module's loader."""

    @pytest.fixture(autouse=True)
    def update_path(self, monkeypatch):
        monkeypatch.setattr(numerics, "kernels", lambda: None)


# the parameter count of the full-scale hub pooler (multi_head, P=21)
HUB_PARAMETERS = 244_461


def adam_state(monkeypatch, kernel, size=HUB_PARAMETERS, steps=50):
    """Parameters and moments after ``steps`` seeded updates with weight
    decay, gradient scales from 1e-6 to 1e2, on the update ``kernel``
    (None: the numpy path)."""
    monkeypatch.setattr(numerics, "kernels", lambda: kernel)
    rng = np.random.default_rng(11)
    model, opt = adam_on(rng.normal(size=size), learning_rate=1e-3, weight_decay=1e-2)
    for _ in range(steps):
        adam_update(opt, rng.normal(size=size) * 10.0 ** rng.integers(-6, 3))
    return model.w, opt.first_moment, opt.second_moment


@pytest.fixture(scope="module")
def compiled_state():
    """The compiled update's :func:`adam_state`, the reference of the
    fallback cases."""
    kernel = numerics.kernels()
    if kernel is None:
        pytest.skip(
            f"the C compiler {sysconfig.get_config_var('CC')!r} builds no kernel library that loads"
        )
    with pytest.MonkeyPatch.context() as mp:
        return adam_state(mp, kernel, steps=5)


def assert_same_state(state, reference):
    for name, now, was in zip(("parameters", "first moment", "second moment"), state, reference):
        np.testing.assert_array_equal(now, was, err_msg=name)


class TestAdamBuild:
    def test_both_paths_give_the_same_bits_at_the_hub_size(self, monkeypatch, compiled_state):
        assert_same_state(
            adam_state(monkeypatch, numerics.kernels()), adam_state(monkeypatch, None)
        )

    def test_without_a_compiler_the_numpy_path_runs(self, tmp_path, monkeypatch, compiled_state):
        get = sysconfig.get_config_var
        monkeypatch.setattr(
            sysconfig, "get_config_var",
            lambda name: "attnpool-no-such-cc" if name == "CC" else get(name),
        )
        kernel = numerics._load_kernels(tmp_path)
        assert kernel is None
        assert list(tmp_path.iterdir()) == []
        assert_same_state(adam_state(monkeypatch, kernel, steps=5), compiled_state)

    def test_a_read_only_cache_builds_into_a_temporary_directory(
        self, tmp_path, monkeypatch, compiled_state
    ):
        """Creating anything in the cache directory fails, as it does in a
        read-only one for any user (root ignores a directory's mode bits);
        the kernel is built apart and loaded, and the cache stays empty."""
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        mkdir = os.mkdir

        def read_only(path, *args, **kwargs):
            if Path(path).parent == cache:
                raise PermissionError(13, "Read-only cache", str(path))
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", read_only)
        kernel = numerics._load_kernels(cache)
        assert kernel is not None
        assert list(cache.iterdir()) == []
        assert_same_state(adam_state(monkeypatch, kernel, steps=5), compiled_state)

    def test_a_cached_kernel_loads_without_a_compiler(self, tmp_path, monkeypatch, compiled_state):
        """The library a build left in the cache, with its SHA-256 beside
        it, is what a later process loads; it starts no compiler."""
        assert numerics._load_kernels(tmp_path) is not None
        (library,) = tmp_path.glob("kernels-*.so")
        assert (tmp_path / f"{library.name}.sha256").read_text() == hashlib.sha256(
            library.read_bytes()
        ).hexdigest()
        assert sorted(p.name for p in tmp_path.iterdir()) == [library.name, f"{library.name}.sha256"]

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"started {args[0]!r}")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        kernel = numerics._load_kernels(tmp_path)
        assert kernel is not None
        assert_same_state(adam_state(monkeypatch, kernel, steps=5), compiled_state)

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_a_damaged_cached_kernel_is_rebuilt_not_loaded(
        self, tmp_path, monkeypatch, compiled_state, damage
    ):
        """A cached library whose bytes do not match its recorded SHA-256
        is never loaded: it is built again, and the cache holds the new
        build."""
        assert numerics._load_kernels(tmp_path) is not None
        (library,) = tmp_path.glob("kernels-*.so")
        data = library.read_bytes()
        middle = len(data) // 2
        if damage == "truncated":
            damaged = data[:middle]
        else:
            flipped = bytes(b ^ 0xFF for b in data[middle : middle + 64])
            damaged = data[:middle] + flipped + data[middle + 64 :]
        # moved over the cached file, not written into it: this process has
        # that file mapped, and writing into a mapped library breaks the
        # code already loaded from it
        (tmp_path / "damaged").write_bytes(damaged)
        os.replace(tmp_path / "damaged", library)
        loaded, load = [], numerics._kernel_library

        def spy(path):
            loaded.append(Path(path))
            return load(path)

        monkeypatch.setattr(numerics, "_kernel_library", spy)
        kernel = numerics._load_kernels(tmp_path)
        assert kernel is not None
        assert library not in loaded
        assert (tmp_path / f"{library.name}.sha256").read_text() == hashlib.sha256(
            library.read_bytes()
        ).hexdigest()
        assert_same_state(adam_state(monkeypatch, kernel, steps=5), compiled_state)


# (P, B, M, h) of the attention passes: the delay-5 and delay-1 protocol
# heads, and the hub's multi-head layer in batches and in its update regime
ATTENTION_SHAPES = {
    "l5": (1, 128, 11, 120), "l1": (1, 128, 11, 600), "hub-batch": (5, 32, 9, 100),
    "hub-sgd": (21, 1, 9, 100),
}


class TestAttentionPasses:
    @pytest.mark.parametrize("shape", ATTENTION_SHAPES.values(), ids=ATTENTION_SHAPES.keys())
    def test_numpy_passes_give_the_compiled_bits(self, monkeypatch, shape):
        """The pre-activation add and the tanh' pass give, bit for bit, what
        their numpy fallbacks give. The first instance's score gradients are
        exact zeros over activations whose first column is negative, so that
        column's score gradient at B=1 sums only -0.0 terms: its sign says
        where the sum started."""
        kernel = numerics.kernels()
        if kernel is None:
            pytest.skip(
                f"the C compiler {sysconfig.get_config_var('CC')!r} builds no kernel library that loads"
            )
        p, b, m, h = shape
        rng = np.random.default_rng(math.prod(shape))
        act = np.tanh(rng.normal(size=shape))
        act[:, 0, :, 0] = -np.abs(act[:, 0, :, 0])
        proj = rng.normal(size=(p, b, 1, h))
        d_scores = rng.normal(size=(p, b, m))
        d_scores[:, 0] = 0.0
        results = []
        for path in (kernel, None):
            monkeypatch.setattr(numerics, "kernels", lambda path=path: path)
            added, passed = act.copy(), act.copy()
            numerics.broadcast_add(added, proj)
            results.append((added, passed, *numerics.tanh_backward(passed, d_scores)))
        for name, compiled, fallback in zip(("add", "D", "score gradient", "d_pre"), *results):
            assert compiled.shape == fallback.shape, name
            # compared as integers, so that -0.0 and 0.0 differ
            np.testing.assert_array_equal(
                compiled.view(np.int64), fallback.view(np.int64), err_msg=name
            )


class TestFiniteDifference:
    def test_quadratic_is_exact_to_Oh2(self):
        # loss = sum(p^2) has gradient 2p; central differences are exact for
        # quadratics up to roundoff
        p = np.array([[1.0, -2.0], [0.5, 3.0]])
        g = finite_difference_gradient(lambda q: float(np.sum(q**2)), p)
        np.testing.assert_allclose(g, 2 * p, rtol=1e-9, atol=1e-9)

    def test_constant_loss_gives_zero(self):
        g = finite_difference_gradient(lambda q: 1.25, np.ones((2, 3)))
        np.testing.assert_array_equal(g, np.zeros((2, 3)))

    def test_non_finite_loss_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_difference_gradient(lambda q: float("nan"), np.ones(2))

    def test_relative_error_metric(self):
        a = np.array([1.0, 0.0])
        assert relative_gradient_error(a, a) == 0.0
        assert relative_gradient_error(a * 2, a) == pytest.approx(1.0)


class TestInitAndStreams:
    def test_uniform_init_bounds_and_scale(self):
        rng = np.random.default_rng(0)
        w = uniform_init(rng, (200, 50), fan_in=25)
        assert np.all(np.abs(w) <= 0.2)
        assert np.abs(w).max() > 0.15  # actually fills the range

    def test_bad_fan_in(self):
        with pytest.raises(ValueError):
            uniform_init(np.random.default_rng(0), (2, 2), fan_in=0)

    def test_streams_reproducible_and_independent(self):
        a1 = spawn_rng(11, "train").uniform(size=4)
        a2 = spawn_rng(11, "train").uniform(size=4)
        b = spawn_rng(11, "validation").uniform(size=4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_streams_differ_across_seeds(self):
        assert not np.array_equal(
            spawn_rng(1, "x").uniform(size=4), spawn_rng(2, "x").uniform(size=4)
        )
