"""Gaussian detector over log gradient-norm features.

Fitting estimates one univariate Gaussian per layer from in-distribution
log features: mean, and biased (divide-by-N) variance floored at 1e-12
so layers whose features collapse to a constant stay scoreable. The OOD
score of a test batch is the Gaussian negative log-likelihood summed
over layers; higher means more anomalous.

A second combination rule treats each layer as a two-sided z-test and
combines tail probabilities Fisher-style: q_j = min(Phi(z_j), 1 -
Phi(z_j)) clamped to at least 1e-300, score = -sum_j ln q_j.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import write_atomic
from .errors import DatasetFormatError, DomainError, InsufficientDataError
from .numcore import std_normal_cdf

VAR_FLOOR = 1e-12
Q_CLAMP = 1e-300


@dataclass
class DetectorModel:
    mu: np.ndarray
    sigma2: np.ndarray
    n_fit: int
    model_checksum: str = ""
    floor_used: float = 0.0


def fit_detector(log_feats: np.ndarray, model_checksum: str = "",
                 floor_used: float = 0.0) -> DetectorModel:
    """Per-layer Gaussian fit; requires at least 2 fit batches."""
    f = np.asarray(log_feats, dtype=np.float64)
    if f.ndim != 2:
        raise DomainError(f"log-feature matrix must be 2-D, got shape {f.shape}")
    if f.shape[0] < 2:
        raise InsufficientDataError(
            f"need >= 2 fit batches to estimate variances, got {f.shape[0]}"
        )
    if not np.all(np.isfinite(f)):
        raise DomainError("log features must be finite")
    mu = f.mean(axis=0)
    sigma2 = np.maximum(f.var(axis=0), VAR_FLOOR)
    return DetectorModel(mu, sigma2, int(f.shape[0]), model_checksum, floor_used)


def _rows(det: DetectorModel, log_feats: np.ndarray) -> np.ndarray:
    f = np.asarray(log_feats, dtype=np.float64)
    if f.ndim == 1:
        f = f[None, :]
    if f.shape[1] != det.mu.shape[0]:
        raise DomainError(
            f"feature width {f.shape[1]} does not match detector with "
            f"{det.mu.shape[0]} layers"
        )
    return f


def ood_score(det: DetectorModel, log_feats: np.ndarray):
    """Gaussian NLL summed over layers; scalar for a single row, else (N,)."""
    f = _rows(det, log_feats)
    nll = 0.5 * np.log(2.0 * math.pi * det.sigma2) + \
        (f - det.mu) ** 2 / (2.0 * det.sigma2)
    out = nll.sum(axis=1)
    return float(out[0]) if np.ndim(log_feats) == 1 else out


def fisher_method_score(det: DetectorModel, log_feats: np.ndarray):
    """Two-sided per-layer tails combined as -sum ln q, q clamped at 1e-300.

    min(Phi(z), 1 - Phi(z)) is evaluated as Phi(-|z|): identical in exact
    arithmetic but immune to the catastrophic cancellation 1 - Phi(z)
    suffers for z beyond about 7.
    """
    f = _rows(det, log_feats)
    z = (f - det.mu) / np.sqrt(det.sigma2)
    q = np.maximum(std_normal_cdf(-np.abs(z)), Q_CLAMP)
    out = -np.log(q).sum(axis=1)
    return float(out[0]) if np.ndim(log_feats) == 1 else out


def save_detector(det: DetectorModel, path: str) -> None:
    obj = {
        "mu": [float(v) for v in det.mu],
        "sigma2": [float(v) for v in det.sigma2],
        "n_fit": det.n_fit,
        "model_checksum": det.model_checksum,
        "floor_used": det.floor_used,
    }
    write_atomic(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def load_detector(path: str) -> DetectorModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        mu = np.asarray(obj["mu"], dtype=np.float64)
        sigma2 = np.asarray(obj["sigma2"], dtype=np.float64)
        det = DetectorModel(
            mu, sigma2, int(obj["n_fit"]),
            str(obj.get("model_checksum", "")), float(obj.get("floor_used", 0.0)),
        )
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"detector file is not valid JSON: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"malformed detector file: {exc}") from exc
    if mu.shape != sigma2.shape or mu.ndim != 1:
        raise DatasetFormatError("mu and sigma2 must be equal-length vectors")
    if np.any(sigma2 <= 0.0):
        raise DatasetFormatError("sigma2 entries must be positive")
    return det
