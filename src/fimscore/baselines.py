"""Reference detectors the gradient method is compared against.

The likelihood baseline scores a batch by its negative mean
log-likelihood. It is cheap and standard, but not invariant under
reparameterization of the data: an invertible change of representation
shifts every log-likelihood by the log-determinant of the map, so the
ranking between two datasets can flip under a change of units.

The typicality baseline scores |mean_ll - H_hat|, H_hat the per-sample
mean log-likelihood of held-out fit data, which entropy_estimate alone
makes: batches can be anomalous by being too unlikely or too likely.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InsufficientDataError, NonFiniteError, require_finite


def likelihood_score(mean_loglik):
    """Negative mean log-likelihood per batch (higher = more anomalous)."""
    return -np.asarray(mean_loglik, dtype=np.float64)


def fit_typicality(model, fit_rows: np.ndarray) -> float:
    """H_hat of a model on 2-D fit rows, from one likelihood pass."""
    fit_rows = np.asarray(fit_rows, dtype=np.float64)
    if fit_rows.ndim != 2:
        raise DomainError(f"typicality fit rows must be 2-D, got shape {fit_rows.shape}")
    return entropy_estimate(model.log_likelihood_batch(fit_rows), "typicality fit rows")


def entropy_estimate(loglik, source: str) -> float:
    """H_hat, the mean of the per-row log-likelihoods of ``source``: one or more, finite."""
    if len(loglik) == 0:
        raise InsufficientDataError(f"{source}: no row to estimate H_hat from")
    require_finite(loglik, lambda i: NonFiniteError(
        f"{source}: the log-likelihood of row {i[0]} is not finite"))
    return float(loglik.mean())


def typicality_score(h_hat: float, mean_loglik):
    """Absolute deviation of each batch's mean log-likelihood from H_hat."""
    return np.abs(np.asarray(mean_loglik, dtype=np.float64) - h_hat)
