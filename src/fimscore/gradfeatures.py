"""Layer-wise gradient-norm features for batches of points.

The feature vector of a batch x_1..x_B is the squared L2 norm, per named
parameter layer, of the gradient of the batch-summed log-likelihood:

    f_j(x_1..x_B) = || grad_{theta_j} sum_b log p(x_b) ||_2^2.

One grouped backward pass over a (batches, batch size, dim) array
produces every feature at once. Scoring happens on ln f_j; exact zeros
(they occur, for instance, in the mean layer of a Gaussian at its MLE)
are floored before the log so downstream Gaussians stay finite.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .data import load_csv, save_csv, write_atomic
from .errors import DatasetFormatError, DomainError

DEFAULT_FLOOR = 1e-300


def gradient_features(model, batch: np.ndarray) -> np.ndarray:
    """Per-layer squared gradient norms of the batch-summed objective."""
    return feature_matrix(model, np.asarray(batch, dtype=np.float64)[None])[0]


def log_features(features: np.ndarray, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """Elementwise ln(max(f, floor)); keeps exact-zero features finite."""
    if not floor > 0.0:
        raise DomainError(f"floor must be positive, got {floor}")
    features = np.asarray(features, dtype=np.float64)
    if np.any(features < 0.0):
        raise DomainError("squared norms cannot be negative")
    return np.log(np.maximum(features, floor))


def feature_matrix(model, batches) -> np.ndarray:
    """gradient_features of every batch of a (batches, batch size, dim)
    array, one row per batch, from one grouped backward pass."""
    batches = np.asarray(batches, dtype=np.float64)
    if batches.ndim != 3 or batches.shape[0] == 0:
        raise DomainError(f"need >= 1 batch of shape (size, dim), got {batches.shape}")
    grads, _ = model.grad_groups(batches.reshape(-1, batches.shape[2]), batches.shape[1])
    return np.add.reduceat(np.square(grads, out=grads), model.params.offsets, axis=1)


def batch_view(rows: np.ndarray, batch_size: int) -> np.ndarray:
    """Disjoint contiguous batches of the given size as one
    (batches, batch size, dim) view of ``rows``; remainder dropped."""
    rows = np.asarray(rows, dtype=np.float64)
    if batch_size < 1:
        raise DomainError(f"batch size must be >= 1, got {batch_size}")
    n = rows.shape[0] // batch_size
    return rows[: n * batch_size].reshape(n, batch_size, rows.shape[1])


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
    std = f.std(axis=0)
    keep = std != 0.0
    excluded = [int(i) for i in np.nonzero(~keep)[0]]
    # standardised columns; excluded ones are zeroed and masked out below
    z = (f - f.mean(axis=0)) * np.divide(1.0, std, out=np.zeros_like(std), where=keep)
    corr = z.T @ z / f.shape[0]
    pairs = np.outer(keep, keep)
    profile = np.full(f.shape[1] - 1, np.nan)
    for d in range(1, f.shape[1]):
        valid = np.diagonal(pairs, d)
        if valid.any():
            profile[d - 1] = np.diagonal(corr, d)[valid].mean()
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
