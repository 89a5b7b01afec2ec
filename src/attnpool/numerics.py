"""Float64 numerics shared by every model: one Adam optimizer over a model's
flat parameter vector, and seeded parameter initialization.

All numeric state in this package lives in C-ordered float64 numpy arrays.
Every public operation here either returns finite values or raises.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
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


def _array_fields(model: object) -> list[str]:
    """Names of the dataclass fields of ``model`` that hold arrays: the
    parameters a trainer updates, in declaration order."""
    return [f.name for f in fields(model) if isinstance(getattr(model, f.name), np.ndarray)]


# Adam's decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# elements per slice of the sliced update: a slice's six vectors (gradient,
# parameters, two moments, spare parameters, scratch) take 1.5 MB, so they
# stay in a 2 MB L2 across the update's passes, where the whole vectors of a
# hub model (2 MB each at 244,461 parameters) do not; smaller slices lose more
# to per-call overhead than they gain
ADAM_BLOCK = 32768


class FlatAdam:
    """Adam over the array fields of one model dataclass, held in one flat
    float64 vector, so one elementwise update (:func:`adam_step`) trains
    every array of the model.

    ``flat_params`` holds the array fields of ``model`` in declaration order,
    and each field is bound to its view of it; fields that are not arrays
    are shared, not trained. Each step writes the new parameters into a
    spare vector and then swaps it with ``flat_params``, so after a step
    ``flat_params`` is another vector than before it, and the model's fields
    are bound to views of the new one; hold the model's fields, or
    ``flat_params``, only across code that runs no step. ``grads`` is a copy
    of ``model`` whose array fields are views of ``flat_grads``, so a
    backward that writes into ``grads`` fills what :meth:`step` reads.
    ``first_moment`` and ``second_moment`` have the layout of
    ``flat_params``; ``step_count`` is the number of updates already
    applied. Weight decay is decoupled: it is applied directly to the
    parameters, not folded into the gradient.
    """

    def __init__(self, model: object, learning_rate: float, weight_decay: float):
        arrays = {n: np.asarray(getattr(model, n), dtype=np.float64) for n in _array_fields(model)}
        self._model = model
        self._names = list(arrays)
        self._shapes = [a.shape for a in arrays.values()]
        self._stops = np.cumsum([a.size for a in arrays.values()])
        self._bind(np.concatenate([a.ravel() for a in arrays.values()]))
        self.flat_grads = np.zeros_like(self.flat_params)
        self.grads = replace(model, **self._views(self.flat_grads))
        self.first_moment = np.zeros_like(self.flat_params)
        self.second_moment = np.zeros_like(self.flat_params)
        self.step_count = 0
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        # the spare parameter vector and a scratch vector for the update, so
        # a step allocates nothing
        self._scratch = (np.empty_like(self.flat_params), np.empty_like(self.flat_params))

    def _views(self, flat: Array) -> dict[str, Array]:
        """Each array field's view of ``flat``, by name."""
        starts = [0, *self._stops[:-1]]
        return {
            name: flat[start:stop].reshape(shape)
            for name, shape, start, stop in zip(self._names, self._shapes, starts, self._stops)
        }

    def _bind(self, flat: Array) -> None:
        """Make ``flat`` the parameter vector and bind the model's array
        fields to their views of it."""
        self.flat_params = flat
        for name, view in self._views(flat).items():
            setattr(self._model, name, view)

    def step(self) -> None:
        adam_step(self)


def _require_finite_entries(arr: Array, what: str, opt: FlatAdam) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        at = int(np.searchsorted(opt._stops, np.argmin(finite), side="right"))
        raise ValueError(f"non-finite entries in {what}{opt._names[at]}")


def adam_step(opt: FlatAdam) -> None:
    """One Adam update of ``opt``'s parameters from ``opt.flat_grads``;
    advances the moments and the step count.

    A non-finite gradient raises before anything changes: the moments, the
    step count and the parameters are left as they were. A non-finite
    result raises before the parameters change, but after the moments and
    the step count have advanced. Either error names the array that holds
    the first non-finite entry. The update applies the per-element
    operations of

        m = b1 m + (1 - b1) g,   v = b2 v + (1 - b2) g^2,
        p = p (1 - lr wd) - a_t m / (sqrt(v) + eps_t)

    in this order, one slice of ``ADAM_BLOCK`` elements at a time, with
    ``a_t = lr sqrt(1 - b2^t) / (1 - b1^t)`` and
    ``eps_t = eps sqrt(1 - b2^t)``: the order of Section 2 of Kingma & Ba
    (2015), which folds both bias corrections into the step size and the
    denominator guard, so each element costs one division, with the weight
    decay decoupled as in AdamW. The new parameters are written into the
    spare vector, which is then swapped with ``opt.flat_params``, and the
    model's fields are bound to views of the new vector; nothing is copied
    back. Each element gets the same operations whatever the slicing, so
    the update gives the same bits as evaluating them array by array.
    """
    param, grad = opt.flat_params, opt.flat_grads
    _require_finite_entries(grad, "gradient of ", opt)

    opt.step_count += 1
    t = opt.step_count
    b1, b2, lr, wd = BETA1, BETA2, opt.learning_rate, opt.weight_decay
    root_v_scale = math.sqrt(1.0 - b2**t)
    step_size = lr * root_v_scale / (1.0 - b1**t)
    guard = EPSILON * root_v_scale
    decay = 1.0 - lr * wd
    updated, scratch = opt._scratch
    for start in range(0, param.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        g, p, m, v = grad[block], param[block], opt.first_moment[block], opt.second_moment[block]
        step, denom = updated[block], scratch[block]
        m *= b1
        np.multiply(g, 1.0 - b1, out=step)
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - b2
        v *= b2
        v += step
        np.sqrt(v, out=denom)
        denom += guard
        np.multiply(m, step_size, out=step)
        step /= denom
        np.multiply(p, decay, out=denom)
        np.subtract(denom, step, out=step)
    _require_finite_entries(updated, "updated ", opt)
    opt._scratch = (param, scratch)
    opt._bind(updated)
