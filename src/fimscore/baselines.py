"""Reference detectors the gradient method is compared against.

The likelihood baseline scores a batch by its negative mean
log-likelihood. It is cheap and standard, but not invariant under
reparameterization of the data: an invertible change of representation
shifts every log-likelihood by the log-determinant of the map, so the
ranking between two datasets can flip under a change of units.

The typicality baseline compares the batch's mean log-likelihood to an
entropy estimate taken on held-out fit data: score = |mean_ll - H_hat|,
with H_hat the per-sample mean log-likelihood of the fit split. Batches
can be anomalous by being either too unlikely or too likely.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError


def _mean_loglik(model, batches: np.ndarray):
    """Mean log-likelihood over the rows of each batch: one value per batch
    of a (batches, size, dim) array, a scalar for one (size, dim) batch."""
    batches = np.asarray(batches, dtype=np.float64)
    ll = model.log_likelihood_batch(batches.reshape(-1, batches.shape[-1]))
    return ll.reshape(batches.shape[:-1]).mean(axis=-1)


def likelihood_score(model, batches: np.ndarray):
    """Negative mean log-likelihood per batch (higher = more anomalous)."""
    return -_mean_loglik(model, batches)


def fit_typicality(model, fit_rows: np.ndarray) -> float:
    """Entropy estimate H_hat: mean per-sample log-likelihood on fit rows."""
    fit_rows = np.asarray(fit_rows, dtype=np.float64)
    if fit_rows.ndim != 2 or fit_rows.shape[0] < 1:
        raise InsufficientDataError(
            f"typicality needs at least one fit row, got shape {fit_rows.shape}"
        )
    return float(_mean_loglik(model, fit_rows))


def typicality_score(model, h_hat: float, batches: np.ndarray):
    """Absolute deviation of each batch's mean log-likelihood from H_hat."""
    return np.abs(_mean_loglik(model, batches) - h_hat)
