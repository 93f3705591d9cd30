"""Reference detectors the gradient method is compared against.

The likelihood baseline scores a batch by its negative mean
log-likelihood. It is cheap and standard, but not invariant under
reparameterization of the data: an invertible change of representation
shifts every log-likelihood by the log-determinant of the map, so the
ranking between two datasets can flip under a change of units.

The typicality baseline compares the batch's mean log-likelihood to an
entropy estimate taken on held-out fit data: score = |mean_ll - H_hat|,
with H_hat the per-sample mean log-likelihood of the fit split. Batches
can be anomalous by being either too unlikely or too likely. Both read
per-batch means of the log-likelihoods ``gradfeatures.feature_sweep`` returns.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InsufficientDataError


def likelihood_score(mean_loglik):
    """Negative mean log-likelihood per batch (higher = more anomalous)."""
    return -np.asarray(mean_loglik, dtype=np.float64)


def fit_typicality(model, fit_rows: np.ndarray) -> float:
    """Entropy estimate H_hat: mean per-sample log-likelihood on fit rows."""
    fit_rows = np.asarray(fit_rows, dtype=np.float64)
    if fit_rows.ndim != 2:
        raise DomainError(f"typicality fit rows must be 2-D, got shape {fit_rows.shape}")
    if fit_rows.shape[0] < 1:
        raise InsufficientDataError(
            f"typicality needs at least one fit row, got shape {fit_rows.shape}")
    return float(model.log_likelihood_batch(fit_rows).mean())


def typicality_score(h_hat: float, mean_loglik):
    """Absolute deviation of each batch's mean log-likelihood from H_hat."""
    return np.abs(np.asarray(mean_loglik, dtype=np.float64) - h_hat)
