"""Reference implementations the tests compare the library against."""

from dataclasses import fields, replace

import numpy as np

from attnpool.forecasting import LinearPooler


def finite_difference_gradient(loss_fn, param, step=1e-5):
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


def relative_gradient_error(analytic, numeric):
    """Matrix-level relative L2 error between two gradients."""
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


def fit_linear_ridge(inputs, targets, ridge=1e-8):
    """Closed-form least-squares fit (tiny ridge keeps the solve well posed)."""
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    augmented = np.hstack([x, np.ones((len(x), 1))])
    gram = augmented.T @ augmented + ridge * np.eye(augmented.shape[1])
    solution = np.linalg.solve(gram, augmented.T @ y)  # (d_in + 1, d_out)
    return LinearPooler(weight=solution[:-1].T.copy(), bias=solution[-1].copy())


def _central_intervals(levels):
    """The index of the median level and ``(alpha, lower index, upper
    index)`` of each central interval: every level below 0.5 paired with the
    level that is close to 1 - level, smallest alpha first."""
    median = int(np.nonzero(np.isclose(levels, 0.5))[0][0])
    intervals = [
        (2.0 * level, i, int(np.nonzero(np.isclose(levels, 1.0 - level))[0][0]))
        for i, level in enumerate(levels)
        if level < 0.5
    ]
    return median, intervals


def wis_per_interval(levels, values, observed):
    """WIS for a batch, one interval level at a time: the loop the batched
    :func:`attnpool.evaluation.wis_batch` replaces, kept as its reference."""
    levels = np.asarray(levels, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    observed = np.atleast_1d(np.asarray(observed, dtype=np.float64))
    med, intervals = _central_intervals(levels)
    total = 0.5 * np.abs(observed - values[:, med])
    for a, li, ui in intervals:
        lo, up = values[:, li], values[:, ui]
        if np.any(lo > up):
            bad = int(np.nonzero(lo > up)[0][0])
            raise ValueError(
                f"interval endpoints crossed for alpha={a} in forecast row {bad}"
            )
        width = up - lo
        below = (2.0 / a) * np.maximum(lo - observed, 0.0)
        above = (2.0 / a) * np.maximum(observed - up, 0.0)
        total += (a / 2.0) * (width + below + above)
    return total / (len(intervals) + 0.5)


def wis_gradient_per_interval(levels, values, observed):
    """WIS subgradient for a batch, one interval level at a time: the
    reference of :func:`attnpool.evaluation.wis_gradient_batch`."""
    levels = np.asarray(levels, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    observed = np.atleast_1d(np.asarray(observed, dtype=np.float64))
    med, intervals = _central_intervals(levels)
    grad = np.zeros_like(values)
    denom = len(intervals) + 0.5
    grad[:, med] += 0.5 * np.sign(values[:, med] - observed) / denom
    for a, li, ui in intervals:
        lo, up = values[:, li], values[:, ui]
        w = a / 2.0
        grad[:, li] += w * (-1.0 + (2.0 / a) * (observed < lo)) / denom
        grad[:, ui] += w * (1.0 - (2.0 / a) * (observed > up)) / denom
    return grad


# the per-head fields of attention parameters, in declaration order
HEAD_FIELDS = ("w_query", "w_key", "w_score", "bias")


def empty_like_fields(model):
    """A fresh gradient buffer for ``model``, to pass a backward as ``out``:
    a copy of the same type whose array fields are new, uninitialized
    arrays; the other fields are shared."""
    arrays = {
        f.name: np.empty_like(getattr(model, f.name))
        for f in fields(model)
        if isinstance(getattr(model, f.name), np.ndarray)
    }
    return replace(model, **arrays)
