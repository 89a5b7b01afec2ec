"""Float64 numerics shared by every model: one Adam optimizer over a model's
flat parameter vector, and seeded parameter initialization.

All numeric state in this package lives in C-ordered float64 numpy arrays.
Every public operation here either returns finite values or raises.

The Adam update runs as one C loop where the Python build's C compiler
(``sysconfig``'s ``CC``) can build it: compiled on the first :class:`FlatAdam`
of a process, never at import, and cached next to this module's bytecode in
``__pycache__/adam-<digest>.so``. Where it cannot be built or loaded, the
same update runs as numpy passes. Both paths apply the same IEEE operations
to each element in the same order, so they give the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
from dataclasses import fields, replace
from pathlib import Path
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

# elements per slice of the numpy path's update (the compiled loop makes one
# pass over each vector and takes no slices): a slice's six vectors
# (gradient, parameters, two moments, spare parameters, scratch) take 1.5 MB,
# so they stay in a 2 MB L2 across the update's passes, where the whole
# vectors of a hub model (2 MB each at 244,461 parameters) do not; smaller
# slices lose more to per-call overhead than they gain
ADAM_BLOCK = 32768

# The update of adam_step as one loop. Each element gets the numpy path's
# operations in its order; -ffp-contract=off keeps a multiply and an add from
# fusing into one rounding, and no fast-math flag may reorder them.
# -fno-math-errno lets sqrt vectorize: v is finite and >= 0 once the
# gradient passed. The finiteness tests are integer ops, which keep both loops
# vectorizable: (bits & exponent mask) + 2^52 sets bit 63 exactly when the
# exponent is all ones, that is for an inf or a NaN.
_ADAM_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

static inline uint64_t exponent_carry(double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    return (bits & 0x7ff0000000000000ULL) + 0x0010000000000000ULL;
}

/* 0: updated; 1: a gradient entry is not finite, nothing written;
   2: an updated parameter is not finite, the moments advanced */
int adam_update(long n, const double *restrict g, const double *restrict p,
                double *restrict m, double *restrict v, double *restrict out,
                double b1, double c1, double b2, double c2,
                double step_size, double guard, double decay)
{
    uint64_t bad = 0;
    for (long i = 0; i < n; i++)
        bad |= exponent_carry(g[i]);
    if (bad >> 63)
        return 1;
    for (long i = 0; i < n; i++) {
        double mi = m[i] * b1 + g[i] * c1;
        double vi = v[i] * b2 + (g[i] * g[i]) * c2;
        double pi = p[i] * decay - (mi * step_size) / (sqrt(vi) + guard);
        m[i] = mi;
        v[i] = vi;
        out[i] = pi;
        bad |= exponent_carry(pi);
    }
    return bad >> 63 ? 2 : 0;
}
"""
_ADAM_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
_ADAM_BAD_GRADIENT, _ADAM_BAD_RESULT = 1, 2
_BUILD_TIMEOUT_S = 60


def _adam_function(library: str):
    """The loaded kernel's ``adam_update``, its argument types declared."""
    fn = ctypes.CDLL(library).adam_update
    fn.argtypes = [ctypes.c_long] + [ctypes.c_void_p] * 5 + [ctypes.c_double] * 7
    fn.restype = ctypes.c_int
    return fn


def _build_adam_kernel(command: list[str], directory: Path, name: str):
    """Compile the kernel into ``directory/name``, with its SHA-256 in
    ``name.sha256`` beside it, and return it loaded from the bytes just
    built. Both files are made in a private subdirectory and moved into
    place, so processes that build at once never see a partial file."""
    import subprocess
    import tempfile

    library = directory / name
    with tempfile.TemporaryDirectory(prefix=".adam-", dir=directory) as tmp:
        built, digest = Path(tmp, name), Path(tmp, "sha256")
        subprocess.run(
            [*command, "-o", str(built), "-x", "c", "-"], input=_ADAM_SOURCE, text=True,
            capture_output=True, check=True, timeout=_BUILD_TIMEOUT_S,
        )
        kernel = _adam_function(str(built))
        digest.write_text(hashlib.sha256(built.read_bytes()).hexdigest())
        os.replace(built, library)
        os.replace(digest, f"{library}.sha256")
        return kernel


def _load_adam_kernel(cache_dir: Path):
    """The compiled update: loaded from ``cache_dir`` where the library
    there has the bytes its recorded SHA-256 names, else built into
    ``cache_dir``, or into a temporary directory where that fails; None
    where no C compiler builds a library that loads."""
    # imported here, not at the top: only a process that trains pays for them
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None
    command = [*shlex.split(cc), *_ADAM_FLAGS]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ""
    key = "\0".join([_ADAM_SOURCE, shlex.join(command), suffix])
    cached = cache_dir / f"adam-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"
    try:
        if hashlib.sha256(cached.read_bytes()).hexdigest() == Path(f"{cached}.sha256").read_text():
            return _adam_function(str(cached))
    except OSError:  # absent, unreadable or not loadable: built again below
        pass
    try:
        cache_dir.mkdir(exist_ok=True)
        return _build_adam_kernel(command, cache_dir, cached.name)
    except (OSError, subprocess.SubprocessError):
        pass  # an unwritable cache, or no working compiler: once more, apart from the cache
    try:
        with tempfile.TemporaryDirectory() as tmp:
            return _build_adam_kernel(command, Path(tmp), cached.name)
    except (OSError, subprocess.SubprocessError):
        return None


@functools.cache
def _adam_kernel():
    """The compiled update of this process, built or loaded on first use;
    None where it cannot be, and then the numpy path runs."""
    return _load_adam_kernel(Path(__file__).parent / "__pycache__")


def adam_path() -> str:
    """Which update :func:`adam_step` runs in this process: ``"compiled"``
    or ``"numpy"``."""
    return "numpy" if _adam_kernel() is None else "compiled"


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
        self._kernel = _adam_kernel()

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

    in this order, with ``a_t = lr sqrt(1 - b2^t) / (1 - b1^t)`` and
    ``eps_t = eps sqrt(1 - b2^t)``: the order of Section 2 of Kingma & Ba
    (2015), which folds both bias corrections into the step size and the
    denominator guard, so each element costs one division, with the weight
    decay decoupled as in AdamW. It runs as the compiled loop where this
    process could build it (the optimizer's ``_kernel``), else as numpy
    passes over one slice of ``ADAM_BLOCK`` elements at a time; each element
    gets the same operations on either path and whatever the slicing, so
    both give the bits of evaluating them array by array. The new
    parameters are written into the spare vector, which is then swapped
    with ``opt.flat_params``, and the model's fields are bound to views of
    the new vector; nothing is copied back.
    """
    param, grad = opt.flat_params, opt.flat_grads
    t = opt.step_count + 1
    b1, b2, lr, wd = BETA1, BETA2, opt.learning_rate, opt.weight_decay
    root_v_scale = math.sqrt(1.0 - b2**t)
    step_size = lr * root_v_scale / (1.0 - b1**t)
    guard = EPSILON * root_v_scale
    decay = 1.0 - lr * wd
    updated, scratch = opt._scratch
    if opt._kernel is None:
        _require_finite_entries(grad, "gradient of ", opt)
        opt.step_count = t
        _numpy_update(opt, step_size, guard, decay)
        _require_finite_entries(updated, "updated ", opt)
    else:
        vectors = (grad, param, opt.first_moment, opt.second_moment, updated)
        for a in vectors:
            if a.dtype != np.float64 or not a.flags.c_contiguous or a.size != param.size:
                raise ValueError("Adam's vectors must be contiguous float64 of one size")
        status = opt._kernel(
            param.size, *(a.ctypes.data for a in vectors),
            b1, 1.0 - b1, b2, 1.0 - b2, step_size, guard, decay,
        )
        if status == _ADAM_BAD_GRADIENT:
            _require_finite_entries(grad, "gradient of ", opt)
        opt.step_count = t
        if status == _ADAM_BAD_RESULT:
            _require_finite_entries(updated, "updated ", opt)
    opt._scratch = (param, scratch)
    opt._bind(updated)


def _numpy_update(opt: FlatAdam, step_size: float, guard: float, decay: float) -> None:
    """The update of :func:`adam_step` as numpy passes, one slice at a time,
    into the spare vector: the path where no compiled loop loads, and the
    tests' reference."""
    b1, b2 = BETA1, BETA2
    updated, scratch = opt._scratch
    for start in range(0, opt.flat_params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        g, p = opt.flat_grads[block], opt.flat_params[block]
        m, v = opt.first_moment[block], opt.second_moment[block]
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
