"""Float64 numerics shared by every model: flat parameter buffers, Adam
updates, finite-difference gradient checking, and seeded parameter
initialization.

All numeric state in this package lives in C-ordered float64 numpy arrays.
Every public operation here either returns finite values or raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, Sequence
from zlib import crc32

import numpy as np

Array = np.ndarray


def spawn_rng(seed: int, label: str) -> np.random.Generator:
    """Independent reproducible RNG stream for one named purpose.

    Every random draw in the package flows from a single experiment seed.
    Each consumer asks for its own stream keyed by a short label, so adding
    or removing one consumer never perturbs the draws seen by another.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, crc32(label.encode("utf-8"))]))


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...] | int, fan_in: int) -> Array:
    """Uniform init on [-s, s] with s = 1/sqrt(fan_in)."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    scale = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-scale, scale, size=shape)


class ParamBuffer:
    """Named float64 arrays held as shaped views into one contiguous vector.

    ``flat`` is the vector and ``views`` maps each name, in the order given,
    to its view. An elementwise update of ``flat`` (one :func:`adam_step`)
    updates every array at once; :meth:`zeros_like` makes a second buffer
    with the same layout for the gradients.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes))
        self._stops = np.cumsum(sizes)
        self.views: dict[str, Array] = {}
        start = 0
        for (name, shape), stop in zip(shapes.items(), self._stops):
            self.views[name] = self.flat[start:stop].reshape(shape)
            start = stop

    def zeros_like(self) -> "ParamBuffer":
        return ParamBuffer({name: view.shape for name, view in self.views.items()})

    def name_at(self, index: int) -> str:
        """Name of the array that holds entry ``index`` of ``flat``."""
        return list(self.views)[int(np.searchsorted(self._stops, index, side="right"))]


def pack_params(owner: object, names: Sequence[str]) -> ParamBuffer:
    """Copy the named array attributes of ``owner`` into one ParamBuffer and
    rebind each attribute to its view, so updating the buffer updates the
    model."""
    arrays = {name: np.asarray(getattr(owner, name), dtype=np.float64) for name in names}
    buffer = ParamBuffer({name: a.shape for name, a in arrays.items()})
    for name, a in arrays.items():
        buffer.views[name][...] = a
        setattr(owner, name, buffer.views[name])
    return buffer


def _array_fields(model: object) -> list[str]:
    """Names of the dataclass fields of ``model`` that hold arrays: the
    parameters a trainer updates, in declaration order."""
    return [f.name for f in fields(model) if isinstance(getattr(model, f.name), np.ndarray)]


def empty_like_fields(model):
    """A gradient of ``model``: a copy of the same type whose array fields
    are new, uninitialized arrays; the other fields are shared."""
    arrays = {name: np.empty_like(getattr(model, name)) for name in _array_fields(model)}
    return replace(model, **arrays)


@dataclass
class AdamState:
    """Adam moments plus hyperparameters for one parameter array.

    The array is usually the ``flat`` vector of a :class:`ParamBuffer`, so
    one state covers every array of a model. ``step_count`` is the number of
    updates already applied; bias correction uses step_count + 1 on the next
    call. Weight decay is decoupled: it is applied directly to the
    parameters, not folded into the gradient.
    """

    first_moment: Array
    second_moment: Array
    step_count: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        # scratch for the in-place update, so a step allocates nothing
        self._scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))

    @classmethod
    def for_param(
        cls,
        param: Array,
        learning_rate: float = 1e-3,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> "AdamState":
        return cls(
            first_moment=np.zeros_like(param, dtype=np.float64),
            second_moment=np.zeros_like(param, dtype=np.float64),
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
            weight_decay=weight_decay,
        )


def _require_finite_entries(arr: Array, what: str, name: str, layout: ParamBuffer | None) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        if layout is not None:
            name = layout.name_at(int(np.argmin(finite.ravel())))
        raise ValueError(f"non-finite entries in {what}{name}")


def adam_step(
    param: Array | ParamBuffer,
    grad: Array | ParamBuffer,
    state: AdamState,
    name: str = "param",
) -> Array:
    """One Adam update of ``param`` in place. Mutates ``state``; returns the
    updated array.

    ``param`` and ``grad`` are float64 arrays, or ParamBuffers of one layout;
    then the update runs over their ``flat`` vectors and an error names the
    array that holds the first non-finite entry, else ``name``. If the
    gradient or the result is not finite, the error is raised before
    ``param`` changes (``state`` has already advanced). The update applies
    the per-element operations of

        m = b1 m + (1 - b1) g,   v = b2 v + (1 - b2) g^2,
        p = p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) - lr wd p

    in this order, so it gives the same bits as evaluating them array by
    array.
    """
    layout = param if isinstance(param, ParamBuffer) else None
    if layout is not None:
        param = layout.flat
        name = "parameter buffer"
    if isinstance(grad, ParamBuffer):
        grad = grad.flat
    if not isinstance(param, np.ndarray) or param.dtype != np.float64:
        raise TypeError(f"Adam updates a float64 array in place, got {type(param).__name__}")
    grad = np.asarray(grad, dtype=np.float64)
    if param.shape != grad.shape:
        raise ValueError(
            f"shape mismatch for {name}: param {param.shape} vs gradient {grad.shape}"
        )
    if state.first_moment.shape != param.shape:
        raise ValueError(
            f"Adam state for {name} has shape {state.first_moment.shape}, "
            f"param has {param.shape}"
        )
    _require_finite_entries(grad, "gradient of ", name, layout)

    state.step_count += 1
    t = state.step_count
    b1, b2, lr = state.beta1, state.beta2, state.learning_rate
    m, v = state.first_moment, state.second_moment
    step, denom = state._scratch
    m *= b1
    np.multiply(grad, 1.0 - b1, out=step)
    m += step
    np.multiply(grad, grad, out=step)
    step *= 1.0 - b2
    v *= b2
    v += step
    np.divide(m, 1.0 - b1**t, out=step)
    step *= lr
    np.divide(v, 1.0 - b2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.epsilon
    step /= denom
    updated = np.subtract(param, step, out=step)
    if state.weight_decay != 0.0:
        np.multiply(param, lr * state.weight_decay, out=denom)
        updated -= denom
    _require_finite_entries(updated, "updated ", name, layout)
    np.copyto(param, updated)
    return param


class FlatAdam:
    """Adam over the array fields of one model dataclass, held in one
    ParamBuffer.

    Each array field of ``model`` is rebound to its view of ``params``;
    fields that are not arrays are not trained. ``grads`` is a copy of
    ``model`` whose array fields are views of ``grad_buffer``, so a backward
    that writes into ``grads`` fills what :meth:`step` reads.
    """

    def __init__(self, model: object, learning_rate: float, weight_decay: float = 0.0):
        self.params = pack_params(model, _array_fields(model))
        self.grad_buffer = self.params.zeros_like()
        self.grads = replace(model, **self.grad_buffer.views)
        self.state = AdamState.for_param(self.params.flat, learning_rate, weight_decay)

    def step(self) -> None:
        adam_step(self.params, self.grad_buffer, self.state)


def finite_difference_gradient(
    loss_fn: Callable[[Array], float], param: Array, step: float = 1e-5
) -> Array:
    """Central-difference gradient of a scalar loss w.r.t. every entry of ``param``.

    The reference oracle for every analytic gradient in the package. O(2 * size)
    loss evaluations; raises on a non-finite loss value.
    """
    param = np.asarray(param, dtype=np.float64)
    grad = np.zeros_like(param)
    flat = grad.ravel()
    work = param.copy()
    wflat = work.ravel()
    for i in range(wflat.size):
        orig = wflat[i]
        wflat[i] = orig + step
        up = float(loss_fn(work))
        wflat[i] = orig - step
        down = float(loss_fn(work))
        wflat[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"non-finite loss during finite differencing at entry {i}")
        flat[i] = (up - down) / (2.0 * step)
    return grad


def relative_gradient_error(analytic: Array, numeric: Array) -> float:
    """Matrix-level relative L2 error between two gradients."""
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom
