"""Float64 numerics shared by every model: one Adam optimizer over a model's
flat parameter vector, seeded parameter initialization, and the package's
compiled kernel library.

All numeric state in this package lives in C-ordered float64 numpy arrays.
Every public operation here either returns finite values or raises.

The kernel library is one C source: the Adam update as one loop, and the
RK4 step of :mod:`attnpool.lorenz` as a sequential integrator and a
lane-blocked candidate stepper. It is built with the Python build's C
compiler (``sysconfig``'s ``CC``) on first use in a process, never at import,
and cached next to this module's bytecode in ``__pycache__/kernels-<digest>.so``.
Where it cannot be built or loaded, all three run as numpy or Python code
instead. Both paths apply the same IEEE operations to each element in the
same order, so they give the same bits.
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

# The package's compiled kernels, one C source: the update of adam_step as
# one loop, and the RK4 step of attnpool.lorenz in a sequential integrator
# and a lane-blocked stepper. Each element gets its numpy or Python path's
# operations in their order; -ffp-contract=off keeps a multiply and an add
# from fusing into one rounding, and no fast-math flag may reorder them.
# -fno-math-errno lets sqrt vectorize: v is finite and >= 0 once the
# gradient passed. The finiteness tests are integer ops, which keep the loops
# vectorizable: (bits & exponent mask) + 2^52 sets bit 63 exactly when the
# exponent is all ones, that is for an inf or a NaN. The stepper holds a
# block of RK4_LANES lanes as structure-of-arrays, so its loop over the
# lanes vectorizes.
RK4_LANES = 64
_KERNEL_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

#define RK4_LANES @RK4_LANES@

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

typedef struct { double x, y, z; } vec3;

/* the step size, its half and sixth, and the Lorenz sigma and beta */
typedef struct { double dt, half, sixth, sigma, beta; } rk4_consts;

static inline vec3 lorenz_rhs(const rk4_consts *s, vec3 u, double r)
{
    return (vec3){s->sigma * (u.y - u.x), u.x * (r - u.z) - u.y, u.x * u.y - s->beta * u.z};
}

static inline vec3 shifted(vec3 u, double h, vec3 k)
{
    return (vec3){u.x + h * k.x, u.y + h * k.y, u.z + h * k.z};
}

/* one RK4 step under the stage parameters r0, r1 (both midpoints), r2 */
static inline vec3 rk4_step(const rk4_consts *s, vec3 u, double r0, double r1, double r2)
{
    vec3 a = lorenz_rhs(s, u, r0);
    vec3 b = lorenz_rhs(s, shifted(u, s->half, a), r1);
    vec3 c = lorenz_rhs(s, shifted(u, s->half, b), r1);
    vec3 d = lorenz_rhs(s, shifted(u, s->dt, c), r2);
    return (vec3){
        u.x + s->sixth * (a.x + 2.0 * b.x + 2.0 * c.x + d.x),
        u.y + s->sixth * (a.y + 2.0 * b.y + 2.0 * c.y + d.y),
        u.z + s->sixth * (a.z + 2.0 * b.z + 2.0 * c.z + d.z),
    };
}

/* Records n samples, substeps steps apart, into out (n, 3), advancing the
   state u (3) in place; step i runs at r_start[i], r_half[i], r_end[i].
   Returns the first sample that is not finite, with u and that sample
   unwritten, or -1. */
long rk4_integrate(long n, long substeps, double dt, double sigma, double beta,
                   double *restrict u, const double *restrict r_start,
                   const double *restrict r_half, const double *restrict r_end,
                   double *restrict out)
{
    const rk4_consts s = {dt, dt / 2.0, dt / 6.0, sigma, beta};
    vec3 w = {u[0], u[1], u[2]};
    for (long j = 0, i = 0; j < n; j++) {
        for (long k = 0; k < substeps; k++, i++)
            w = rk4_step(&s, w, r_start[i], r_half[i], r_end[i]);
        if ((exponent_carry(w.x) | exponent_carry(w.y) | exponent_carry(w.z)) >> 63)
            return j;
        out[3 * j] = w.x;
        out[3 * j + 1] = w.y;
        out[3 * j + 2] = w.z;
    }
    u[0] = w.x;
    u[1] = w.y;
    u[2] = w.z;
    return -1;
}

/* Advances n lanes by substeps steps under stationary parameters into out
   (n, 3): lane l starts at states[l / repeat] (rows of 3) under
   rho[l % period]. Non-finite lanes are written as they come. */
void rk4_lanes(long n, const double *restrict states, long repeat,
               const double *restrict rho, long period, long substeps,
               double dt, double sigma, double beta, double *restrict out)
{
    const rk4_consts s = {dt, dt / 2.0, dt / 6.0, sigma, beta};
    double x[RK4_LANES], y[RK4_LANES], z[RK4_LANES], r[RK4_LANES];
    for (long start = 0; start < n; start += RK4_LANES) {
        long width = n - start < RK4_LANES ? n - start : RK4_LANES;
        for (long i = 0; i < width; i++) {
            const double *u = states + 3 * ((start + i) / repeat);
            x[i] = u[0];
            y[i] = u[1];
            z[i] = u[2];
            r[i] = rho[(start + i) % period];
        }
        for (long k = 0; k < substeps; k++)
            for (long i = 0; i < width; i++) {
                vec3 w = rk4_step(&s, (vec3){x[i], y[i], z[i]}, r[i], r[i], r[i]);
                x[i] = w.x;
                y[i] = w.y;
                z[i] = w.z;
            }
        for (long i = 0; i < width; i++) {
            double *o = out + 3 * (start + i);
            o[0] = x[i];
            o[1] = y[i];
            o[2] = z[i];
        }
    }
}
""".replace("@RK4_LANES@", str(RK4_LANES))
_KERNEL_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
_ADAM_BAD_GRADIENT, _ADAM_BAD_RESULT = 1, 2
_BUILD_TIMEOUT_S = 60


def _kernel_library(path: str) -> ctypes.CDLL:
    """The loaded library, the argument types of its functions declared."""
    lib = ctypes.CDLL(path)
    double, long, pointer = ctypes.c_double, ctypes.c_long, ctypes.c_void_p
    lib.adam_update.argtypes = [long] + [pointer] * 5 + [double] * 7
    lib.adam_update.restype = ctypes.c_int
    lib.rk4_integrate.argtypes = [long, long] + [double] * 3 + [pointer] * 5
    lib.rk4_integrate.restype = long
    lib.rk4_lanes.argtypes = [long, pointer, long, pointer, long, long] + [double] * 3 + [pointer]
    lib.rk4_lanes.restype = None
    return lib


def _build_kernels(command: list[str], directory: Path, name: str) -> ctypes.CDLL:
    """Compile the kernels into ``directory/name``, with its SHA-256 in
    ``name.sha256`` beside it, and return it loaded from the bytes just
    built. Both files are made in a private subdirectory and moved into
    place, so processes that build at once never see a partial file."""
    import subprocess
    import tempfile

    library = directory / name
    with tempfile.TemporaryDirectory(prefix=".kernels-", dir=directory) as tmp:
        built, digest = Path(tmp, name), Path(tmp, "sha256")
        subprocess.run(
            [*command, "-o", str(built), "-x", "c", "-"], input=_KERNEL_SOURCE, text=True,
            capture_output=True, check=True, timeout=_BUILD_TIMEOUT_S,
        )
        lib = _kernel_library(str(built))
        digest.write_text(hashlib.sha256(built.read_bytes()).hexdigest())
        os.replace(built, library)
        os.replace(digest, f"{library}.sha256")
        return lib


def _load_kernels(cache_dir: Path) -> ctypes.CDLL | None:
    """The compiled kernels: loaded from ``cache_dir`` where the library
    there has the bytes its recorded SHA-256 names, else built into
    ``cache_dir``, or into a temporary directory where that fails; None
    where no C compiler builds a library that loads."""
    # imported here, not at the top: only a process that trains or
    # integrates pays for them
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None
    command = [*shlex.split(cc), *_KERNEL_FLAGS]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ""
    key = "\0".join([_KERNEL_SOURCE, shlex.join(command), suffix])
    cached = cache_dir / f"kernels-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"
    try:
        if hashlib.sha256(cached.read_bytes()).hexdigest() == Path(f"{cached}.sha256").read_text():
            return _kernel_library(str(cached))
    except OSError:  # absent, unreadable or not loadable: built again below
        pass
    try:
        cache_dir.mkdir(exist_ok=True)
        return _build_kernels(command, cache_dir, cached.name)
    except (OSError, subprocess.SubprocessError):
        pass  # an unwritable cache, or no working compiler: once more, apart from the cache
    try:
        with tempfile.TemporaryDirectory() as tmp:
            return _build_kernels(command, Path(tmp), cached.name)
    except (OSError, subprocess.SubprocessError):
        return None


@functools.cache
def kernels() -> ctypes.CDLL | None:
    """The compiled kernels of this process (``adam_update``,
    ``rk4_integrate`` and ``rk4_lanes``), built or loaded on first use;
    None where they cannot be, and then the numpy and Python paths run."""
    return _load_kernels(Path(__file__).parent / "__pycache__")


def kernel_path() -> str:
    """Which path the Adam update and the RK4 integration run in this
    process: ``"compiled"`` or ``"numpy"``."""
    return "numpy" if kernels() is None else "compiled"


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
        lib = kernels()
        self._kernel = None if lib is None else lib.adam_update
        if self._kernel is not None:
            # the compiled update's vectors, checked and addressed once: they
            # never move, and only the parameter and spare vectors swap
            vectors = (
                self.flat_grads, self.flat_params, self.first_moment, self.second_moment,
                self._scratch[0],
            )
            size = self.flat_params.size
            if any(a.dtype != np.float64 or not a.flags.c_contiguous or a.size != size
                   for a in vectors):
                raise ValueError("Adam's vectors must be contiguous float64 of one size")
            self._addresses = tuple(a.ctypes.data for a in vectors)

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
        g_at, p_at, m_at, v_at, out_at = opt._addresses
        status = opt._kernel(
            param.size, g_at, p_at, m_at, v_at, out_at,
            b1, 1.0 - b1, b2, 1.0 - b2, step_size, guard, decay,
        )
        if status == _ADAM_BAD_GRADIENT:
            _require_finite_entries(grad, "gradient of ", opt)
        opt.step_count = t
        if status == _ADAM_BAD_RESULT:
            _require_finite_entries(updated, "updated ", opt)
        opt._addresses = (g_at, out_at, m_at, v_at, p_at)
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
