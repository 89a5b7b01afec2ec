"""Reference implementations the tests compare the library against."""

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
