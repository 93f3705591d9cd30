"""Central-difference gradient, the oracle for hand-derived backward passes."""

import math

import numpy as np

from fimscore.errors import DomainError


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    This is the independent oracle every hand-derived backward pass is
    checked against, so it deliberately stays dumb: one (f(x+h e_i) -
    f(x-h e_i)) / 2h evaluation per coordinate.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DomainError(f"finite_diff_grad expects a flat vector, got ndim={x.ndim}")
    if not h > 0.0:
        raise DomainError(f"finite difference step must be positive, got {h}")
    grad = np.empty_like(x)
    probe = x.copy()
    for i in range(x.size):
        orig = probe[i]
        probe[i] = orig + h
        fp = float(f(probe))
        probe[i] = orig - h
        fm = float(f(probe))
        probe[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise DomainError(f"objective not finite at probe for coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad
