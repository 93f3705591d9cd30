"""Closed-form Gaussian fit, the reference that trained models and
zero-gradient features are checked against."""

import numpy as np

from fimscore.errors import DegenerateDataError, InsufficientDataError
from fimscore.models import DiagGaussianModel


def analytic_mle_gaussian(data: np.ndarray) -> DiagGaussianModel:
    """Closed-form MLE: per-column mean and biased (divide-by-n) variance."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise InsufficientDataError(
            f"analytic MLE needs a 2-D array with >= 2 rows, got {data.shape}"
        )
    mu = data.mean(axis=0)
    var = data.var(axis=0)
    bad = np.nonzero(var <= 0.0)[0]
    if bad.size:
        raise DegenerateDataError(
            f"column {int(bad[0])} has zero variance; Gaussian MLE undefined"
        )
    return DiagGaussianModel(mu, 0.5 * np.log(var))
