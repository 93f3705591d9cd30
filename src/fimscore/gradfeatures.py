"""Layer-wise gradient-norm features for batches of points.

The feature vector of a batch x_1..x_B is the squared L2 norm, per named
parameter layer, of the gradient of the batch-summed log-likelihood:

    f_j(x_1..x_B) = || grad_{theta_j} sum_b log p(x_b) ||_2^2.

Features come from one ``sweep_chunks`` sink of each layer's backward
factors for every batch size of a row set, chunk by chunk, so no (batches, P)
gradient matrix is formed; it keeps every factor, so the sweep's row check
names a bad one's layer.
At batch size 1 it takes ghost norms, ||a||^2 ||b||^2 of a row's factors
(||a||^2 for a vector layer), and builds no outer product.
Scoring happens on ln f_j; exact zeros (they occur, for instance, in the
mean layer of a Gaussian at its MLE) are raised to FLOOR first so
downstream Gaussians stay finite.
A feature CSV has a required JSON sidecar: its provenance record (model
checksum, layer names, batch size), which save_features builds and
read_provenance validates as the parse of ``read_json(path, parse)``.
"""

from __future__ import annotations

import numpy as np

from .data import _parse_csv, json_text, read_json, read_text, save_csv, write_atomic
from .errors import DatasetFormatError, DomainError, InsufficientDataError, require_int
from . import models  # model_checksum looked up per call, where perfbench wraps it
from .models import group_sums, sweep_chunks

FLOOR = 1e-300


def gradient_features(model, batch: np.ndarray) -> np.ndarray:
    """Per-layer squared gradient norms of the batch-summed objective."""
    return feature_sweep(model, batch, np.shape(batch)[:1])[0][0]


def log_features(features: np.ndarray) -> np.ndarray:
    """Elementwise ln(max(f, FLOOR)); keeps exact-zero features finite."""
    features = np.asarray(features, dtype=np.float64)
    if np.any(features < 0.0):
        raise DomainError("squared norms cannot be negative")
    return np.log(np.maximum(features, FLOOR))


def feature_sweep(model, rows, sizes):
    """``(*features, loglik)`` of a (rows, dim) array from one ``sweep_chunks``:
    per batch size B of ``sizes``, the gradient_features rows of the
    ``batch_view(rows, B)`` batches, within 1e-12 relative of ``grad_groups``
    norms (a non-finite one names its layer); then each row's log-likelihood,
    bit for bit ``log_likelihood_batch`` of its chunk."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or min(sizes, default=0) < 1 or len(rows) < max(sizes):
        raise DomainError(f"need rows (n, dim) holding >= 1 batch of each size in "
                          f"{list(sizes)}, got shape {rows.shape}")

    def sink(factors, *outs):
        for i, a, b in factors:
            for out, size in zip(outs, sizes):
                if size == 1:  # ghost norm: ||a_r b_r^T||_F^2 = ||a_r||^2 ||b_r||^2
                    col = np.einsum("ij,ij->i", a, a, out=out[:, i])
                    if b is not None:
                        col *= np.einsum("ij,ij->i", b, b)
                elif k := len(out) * size:  # the chunk's rows in whole batches of this size
                    s = group_sums(a[:k], b if b is None else b[:k], size).reshape(len(out), -1)
                    out[:, i] = np.square(s, out=s).sum(axis=1)

    return sweep_chunks(model, rows, sizes, sink, len(model.params.names),
                        model.params.names.__getitem__)


def batch_view(rows: np.ndarray, batch_size: int, source="rows", dim=None) -> np.ndarray:
    """Disjoint contiguous batches of the given size as one (batches, batch
    size, dim) view of ``rows``; remainder dropped. Rows too few for one batch
    are an InsufficientDataError naming ``source``, and rows not 2-D, or not
    ``dim`` wide when it is given, a DomainError naming it."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DomainError(f"{source} must be 2-D (rows, dim), got shape {rows.shape}")
    if dim is not None and rows.shape[1] != dim:
        raise DomainError(f"{source} must have {dim} columns, got shape {rows.shape}")
    n = rows.shape[0] // require_int(batch_size, "batch size", 1)
    if n == 0:
        raise InsufficientDataError(f"{source} with {rows.shape[0]} rows yields no "
                                    f"batch of size {batch_size}")
    return rows[: n * batch_size].reshape(n, batch_size, rows.shape[1])


def save_features(path: str, features: np.ndarray, model, batch_size) -> None:
    """CSV with header batch_id,layer_0,... plus, at path.json, the provenance
    record of ``model`` and ``batch_size`` that read_provenance validates."""
    record = {"model_checksum": models.model_checksum(model), "layer_names": model.params.names,
              "batch_size": require_int(batch_size, "batch size", 1)}
    f = np.asarray(features, dtype=np.float64)
    table = np.column_stack([np.arange(f.shape[0], dtype=np.float64), f])
    save_csv(path, table, ["batch_id"] + [f"layer_{j}" for j in range(f.shape[1])])
    write_atomic(path + ".json", json_text(record))


def read_provenance(obj: dict, width: int) -> dict:
    """The provenance record in ``obj``: ``batch_size`` a positive int,
    ``layer_names`` exactly ``width`` strings, ``model_checksum`` a string.
    A missing or mistyped entry is a DomainError, which ``read_json`` locates."""
    size, names, checksum = (obj.get(k) for k in ("batch_size", "layer_names",
                                                  "model_checksum"))
    if type(size) is not int or size < 1:
        raise DomainError("batch_size must be a positive int")
    if not (isinstance(names, list) and len(names) == width
            and all(isinstance(n, str) for n in names)):
        raise DomainError(f"layer_names must be {width} strings")
    if not isinstance(checksum, str):
        raise DomainError("model_checksum must be a string")
    return {"batch_size": size, "layer_names": names, "model_checksum": checksum}


def load_features(path: str):
    """Inverse of save_features; returns (matrix, provenance). The sidecar
    is required and checked by read_provenance against the CSV width."""
    text = read_text(path)
    if not text.startswith("batch_id"):
        raise DatasetFormatError(f"'{path}' is not a feature CSV", row=0)
    matrix = _parse_csv(text, path)[:, 1:]
    return matrix, read_json(path + ".json", lambda obj: read_provenance(obj, matrix.shape[1]))
