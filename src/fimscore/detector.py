"""Gaussian detector over log gradient-norm features.

Fitting estimates one univariate Gaussian per layer from in-distribution
log features: mean, and biased (divide-by-N) variance floored at 1e-12
so layers whose features collapse to a constant stay scoreable. The OOD
score of a test batch is the Gaussian negative log-likelihood summed
over layers; higher means more anomalous.

A second combination rule treats each layer as a two-sided z-test and
combines tail probabilities Fisher-style: q_j = min(Phi(z_j), 1 -
Phi(z_j)) clamped to at least 1e-300, score = -sum_j ln q_j.

Log features use gradfeatures' one fixed FLOOR, so a saved detector
records no floor. A detector file stores, beside the statistics, the
provenance record of the features it was fit on (model checksum, layer
names, batch size), so scoring can refuse features built otherwise;
``load_detector`` reads it through ``read_json(path, parse)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import json_text, read_json, write_atomic
from .errors import DomainError, InsufficientDataError, require_finite, require_int, require_numbers
from .gradfeatures import read_provenance
from .numcore import std_normal_cdf

VAR_FLOOR = 1e-12
Q_CLAMP = 1e-300


@dataclass
class DetectorModel:
    mu: np.ndarray
    sigma2: np.ndarray
    n_fit: int


def fit_detector(log_feats: np.ndarray) -> DetectorModel:
    """Per-layer Gaussian fit; requires at least 2 fit batches."""
    f = np.asarray(log_feats, dtype=np.float64)
    if f.ndim != 2 or not f.shape[1]:
        raise DomainError(f"log-feature matrix must be 2-D with >= 1 layer, got shape {f.shape}")
    if f.shape[0] < 2:
        raise InsufficientDataError(
            f"need >= 2 fit batches to estimate variances, got {f.shape[0]}"
        )
    require_finite(f, _nonfinite_feature)
    mu = f.mean(axis=0)
    sigma2 = np.maximum(f.var(axis=0), VAR_FLOOR)
    return DetectorModel(mu, sigma2, int(f.shape[0]))


def _nonfinite_feature(index) -> DomainError:
    return DomainError("log feature of batch {}, layer {} is not finite".format(*index))


def _checked(det: DetectorModel, log_feats: np.ndarray) -> np.ndarray:
    f = np.asarray(log_feats, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[-1] != det.mu.shape[0]:
        raise DomainError(
            f"log features of shape {f.shape} do not match a detector with "
            f"{det.mu.shape[0]} layers; want (layers,) or (batches, layers)"
        )
    require_finite(np.atleast_2d(f), _nonfinite_feature)
    return f


def ood_score(det: DetectorModel, log_feats: np.ndarray):
    """Gaussian NLL summed over layers; scalar for one row, else one per row."""
    f = _checked(det, log_feats)
    nll = 0.5 * np.log(2.0 * math.pi * det.sigma2) + \
        (f - det.mu) ** 2 / (2.0 * det.sigma2)
    return nll.sum(axis=-1)


def fisher_method_score(det: DetectorModel, log_feats: np.ndarray):
    """Two-sided per-layer tails combined as -sum ln q, q clamped at 1e-300.

    min(Phi(z), 1 - Phi(z)) is evaluated as Phi(-|z|): identical in exact
    arithmetic but immune to the catastrophic cancellation 1 - Phi(z)
    suffers for z beyond about 7.
    """
    f = _checked(det, log_feats)
    z = (f - det.mu) / np.sqrt(det.sigma2)
    q = np.maximum(std_normal_cdf(-np.abs(z)), Q_CLAMP)
    return -np.log(q).sum(axis=-1)


def save_detector(det: DetectorModel, path: str, provenance: dict) -> None:
    """The statistics and the provenance record of the fit features, as JSON."""
    obj = {
        **provenance,
        "mu": [float(v) for v in det.mu],
        "sigma2": [float(v) for v in det.sigma2],
        "n_fit": det.n_fit,
    }
    write_atomic(path, json_text(obj))


def load_detector(path: str):
    """Inverse of save_detector; returns (detector, provenance)."""
    def parse(obj):
        mu, sigma2 = require_numbers(obj["mu"], "mu"), require_numbers(obj["sigma2"], "sigma2")
        if mu.shape != sigma2.shape or not mu.size:
            raise DomainError("mu and sigma2 must be equal-length vectors of at least one layer")
        if np.any(sigma2 <= 0.0):
            raise DomainError("sigma2 entries must be positive")
        det = DetectorModel(mu, sigma2, require_int(obj["n_fit"], "n_fit", 2))
        return det, read_provenance(obj, mu.size)
    return read_json(path, parse)
