"""Layer-wise gradient-norm features for batches of points.

The feature vector of a batch x_1..x_B is the squared L2 norm, per named
parameter layer, of the gradient of the batch-summed log-likelihood:

    f_j(x_1..x_B) = || grad_{theta_j} sum_b log p(x_b) ||_2^2.

One backward pass over the summed objective produces every layer's
feature at once. Scoring happens on ln f_j; exact zeros (they occur, for
instance, in the mean layer of a Gaussian at its MLE) are floored before
the log so downstream Gaussians stay finite.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .data import load_csv, save_csv, write_atomic
from .errors import DatasetFormatError, DomainError, NonFiniteError

DEFAULT_FLOOR = 1e-300


def gradient_features(model, batch: np.ndarray) -> np.ndarray:
    """Per-layer squared gradient norms of the batch-summed objective."""
    grad = model.grad_sum_batch(batch)
    feats = np.empty(len(grad))
    for j, (name, g) in enumerate(grad):
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"gradient for layer '{name}' is not finite")
        feats[j] = float(np.sum(g * g))
    return feats


def log_features(features: np.ndarray, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """Elementwise ln(max(f, floor)); keeps exact-zero features finite."""
    if not floor > 0.0:
        raise DomainError(f"floor must be positive, got {floor}")
    features = np.asarray(features, dtype=np.float64)
    if np.any(features < 0.0):
        raise DomainError("squared norms cannot be negative")
    return np.log(np.maximum(features, floor))


def feature_matrix(model, batches) -> np.ndarray:
    """Stack gradient_features over an iterable of equally sized batches."""
    rows = [gradient_features(model, b) for b in batches]
    if not rows:
        raise DomainError("no batches given")
    return np.vstack(rows)


def batch_view(rows: np.ndarray, batch_size: int):
    """Disjoint contiguous batches of the given size; remainder dropped."""
    rows = np.asarray(rows, dtype=np.float64)
    if batch_size < 1:
        raise DomainError(f"batch size must be >= 1, got {batch_size}")
    n = rows.shape[0] // batch_size
    return [rows[i * batch_size : (i + 1) * batch_size] for i in range(n)]


def layer_correlation_profile(features: np.ndarray):
    """Mean Pearson correlation of log-feature columns by index distance.

    Returns (profile, excluded) where profile[d-1] is the average
    correlation over column pairs at distance d (NaN when no valid pair
    exists) and excluded lists zero-variance columns left out of every
    pair.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise DomainError(f"need a 2-D feature matrix with >= 2 rows, got {f.shape}")
    n, j = f.shape
    std = f.std(axis=0)
    excluded = [int(i) for i in np.nonzero(std == 0.0)[0]]
    centered = f - f.mean(axis=0)
    profile = np.full(j - 1, np.nan)
    for d in range(1, j):
        vals = []
        for a in range(j - d):
            b = a + d
            if std[a] == 0.0 or std[b] == 0.0:
                continue
            r = float(np.dot(centered[:, a], centered[:, b]) / (n * std[a] * std[b]))
            vals.append(r)
        if vals:
            profile[d - 1] = float(np.mean(vals))
    return profile, excluded


def save_features(path: str, features: np.ndarray, meta: dict) -> None:
    """CSV with header batch_id,layer_0,... plus a JSON sidecar at path.json."""
    f = np.asarray(features, dtype=np.float64)
    table = np.column_stack([np.arange(f.shape[0], dtype=np.float64), f])
    save_csv(path, table, ["batch_id"] + [f"layer_{j}" for j in range(f.shape[1])])
    write_atomic(path + ".json", json.dumps(meta, indent=1, sort_keys=True) + "\n")


def load_features(path: str):
    """Inverse of save_features; returns (matrix, meta or None)."""
    with open(path, "r", encoding="utf-8") as fh:
        if not fh.readline().startswith("batch_id"):
            raise DatasetFormatError(f"'{path}' is not a feature CSV", row=0)
    meta = None
    if os.path.exists(path + ".json"):
        with open(path + ".json", "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    return load_csv(path)[:, 1:], meta
