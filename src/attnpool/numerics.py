"""Float64 numerics shared by every model: flat parameter buffers, Adam
updates, and seeded parameter initialization.

All numeric state in this package lives in C-ordered float64 numpy arrays.
Every public operation here either returns finite values or raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence
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


# Adam's decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam moments, learning rate and weight decay for the ``flat`` vector
    of one :class:`ParamBuffer`, so one state covers every array of a model.

    ``step_count`` is the number of updates already applied; bias correction
    uses step_count + 1 on the next call. Weight decay is decoupled: it is
    applied directly to the parameters, not folded into the gradient.
    """

    first_moment: Array
    second_moment: Array
    step_count: int = 0
    learning_rate: float = 1e-3
    weight_decay: float = 0.0

    def __post_init__(self):
        # scratch for the in-place update, so a step allocates nothing
        self._scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))


def _require_finite_entries(arr: Array, what: str, layout: ParamBuffer) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        name = layout.name_at(int(np.argmin(finite.ravel())))
        raise ValueError(f"non-finite entries in {what}{name}")


def adam_step(params: ParamBuffer, grads: ParamBuffer, state: AdamState) -> None:
    """One Adam update of ``params.flat`` in place; mutates ``state``.

    ``grads`` has the layout of ``params``. If the gradient or the result is
    not finite, the error names the array that holds the first non-finite
    entry and is raised before ``params`` changes (``state`` has already
    advanced). The update applies the per-element operations of

        m = b1 m + (1 - b1) g,   v = b2 v + (1 - b2) g^2,
        p = p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) - lr wd p

    in this order, so it gives the same bits as evaluating them array by
    array.
    """
    param, grad = params.flat, grads.flat
    _require_finite_entries(grad, "gradient of ", params)

    state.step_count += 1
    t = state.step_count
    b1, b2, lr = BETA1, BETA2, state.learning_rate
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
    denom += EPSILON
    step /= denom
    updated = np.subtract(param, step, out=step)
    if state.weight_decay != 0.0:
        np.multiply(param, lr * state.weight_decay, out=denom)
        updated -= denom
    _require_finite_entries(updated, "updated ", params)
    np.copyto(param, updated)


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
        flat = self.params.flat
        self.state = AdamState(
            np.zeros_like(flat), np.zeros_like(flat), learning_rate=learning_rate,
            weight_decay=weight_decay,
        )

    def step(self) -> None:
        adam_step(self.params, self.grad_buffer, self.state)
