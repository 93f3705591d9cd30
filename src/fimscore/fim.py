"""Fisher information probes: Monte Carlo slices and score statistics.

The Fisher information matrix of a model is E[s s^T] with s the
parameter score at a model sample. Full matrices are out of reach for
real models, so probes work on slices: pick one or two layers, take a
seeded subset of at most ``MAX_PER_LAYER`` weights from each, and
average outer products of the restricted score over n model draws,

    F_hat = (1/n) sum_i s_i s_i^T.

Per-sample scores are swept in chunks of at most 2^20 gradient floats,
keeping only the k probed columns, so a slice needs O(2^20 + n k)
floats. Past one chunk, results differ from one whole-array sweep by up
to about 1e-14 relative, as BLAS rounding depends on the rows per call;
reruns stay byte-identical. Normalizing by the diagonal turns a slice
into a correlation-like matrix whose off-diagonal mass measures how far
from diagonal the true FIM is.

For the diagonal Gaussian the Rao score test s^T F^{-1} s is computed
with the exact information matrix rather than an estimate: per
coordinate the information is 1/sigma_i^2 for the mean and 2 for
log sigma, so with z_i = (x_i - mu_i) / sigma_i and t_i = z_i^2 one draw
gives sum_i [t_i + (t_i - 1)^2/2], with 2D degrees of freedom. "Exact"
refers to F, not to the reference distribution: a single draw is not
chi-square (each coordinate contributes (z^4 + 1)/2, variance 24). The
batch form S_n^T (n F)^{-1} S_n, with S_n the score summed over n draws,
is chi-square with 2D degrees of freedom as n grows; at the true
parameters its variance is 2k + (E|u|^4 - k^2 - 2k)/n for k = 2D and u
the whitened single-draw score.

``sherman_morrison_score`` evaluates s_x^T (A_0 + S^T S)^{-1} s_x, with
A_0 diagonal and the N gradient samples as the rows of S, through the
Woodbury identity: one N x N Cholesky factorisation of I + S A_0^{-1} S^T
replaces the N rank-one updates, so memory stays O(N P + N^2) and no
P x P matrix is ever formed. The ``n_plus_1`` convention rescales the
quadratic form by (N + 1), matching an FIM estimate that averages the
prior together with the N outer products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError, NonFiniteError, reject_repeats
from .models import reduce_grad_groups, sample
from .numcore import Rng


@dataclass
class FimSlice:
    matrix: np.ndarray
    weight_map: list
    n_samples: int


MAX_PROBE_LAYERS = 2
MAX_PER_LAYER = 50


def select_weights(params, layer_names, rng: Rng):
    """Seeded subset of flat weight indices: min(MAX_PER_LAYER, size) per
    layer, drawn without replacement, listed in ascending index order."""
    if not 1 <= len(layer_names) <= MAX_PROBE_LAYERS:
        raise DomainError(
            f"probe supports 1 to {MAX_PROBE_LAYERS} layers, got {len(layer_names)}"
        )
    reject_repeats(layer_names, "probe layers")
    weight_map = []
    for name in layer_names:
        if name not in params.names:
            raise DomainError(f"model has no layer named '{name}'")
        size = params[name].size
        k = min(MAX_PER_LAYER, size)
        chosen = sorted(int(i) for i in rng.permutation(size)[:k])
        weight_map.extend((name, idx) for idx in chosen)
    return weight_map


def mc_fim_slice(model, layer_names, rng: Rng, n: int) -> FimSlice:
    """Monte Carlo FIM estimate restricted to a seeded weight subset.

    Consumes from ``rng`` in a fixed order: one permutation per probed
    layer for weight selection, then the model draws. Memory is
    O(2^20 + n k) floats for k probed weights. Past one chunk, BLAS
    rounding moves results up to about 1e-14 relative from one whole-array
    ``grad_groups(x, 1)``; one chunk is bit-identical to it.
    """
    weight_map = select_weights(model.params, layer_names, rng)
    draws = sample(model, rng, n)
    start = dict(zip(model.params.names, model.params.offsets.tolist()))
    cols = [start[name] + idx for name, idx in weight_map]
    s = reduce_grad_groups(model, draws, 1, lambda grads: grads[:, cols], len(cols))
    return FimSlice(matrix=(s.T @ s) / n, weight_map=weight_map, n_samples=n)


def normalize_fim(matrix: np.ndarray) -> np.ndarray:
    """C_ab = F_ab / sqrt(F_aa F_bb); requires strictly positive diagonal."""
    f = np.asarray(matrix, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise DomainError(f"square matrix required, got shape {f.shape}")
    d = np.diag(f)
    if np.any(d <= 0.0):
        bad = int(np.nonzero(d <= 0.0)[0][0])
        raise DegenerateDataError(
            f"diagonal entry {bad} is not positive; cannot normalize"
        )
    root = np.sqrt(d)
    return f / np.outer(root, root)


def diag_dominance(normalized: np.ndarray):
    """(mean |diagonal|, mean |off-diagonal|) of a normalized slice."""
    c = np.asarray(normalized, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DomainError(f"square matrix required, got shape {c.shape}")
    p = c.shape[0]
    diag_mean = float(np.mean(np.abs(np.diag(c))))
    if p == 1:
        return diag_mean, 0.0
    off = np.abs(c[~np.eye(p, dtype=bool)])
    return diag_mean, float(np.mean(off))


def exact_score_test_gaussian(model, x: np.ndarray):
    """Rao statistic for the diagonal Gaussian, with its exact information.

    Returns (statistic, dof) with dof = 2 * dim for every input shape:

    - 1-D ``(D,)``: the per-draw statistic s^T F^{-1} s as a float;
    - 2-D ``(N, D)``: the per-draw statistic of each row, shape (N,);
    - 3-D ``(M, n, D)``: the batch statistic S_n^T (n F)^{-1} S_n of each
      of the M batches of n rows, shape (M,), where S_n is the score
      summed over the batch:

          sum_d [(sum_i z_id)^2 / n + (sum_i (z_id^2 - 1))^2 / (2 n)].

    The per-draw statistic is the batch form with n = 1, and 1-D and 2-D
    inputs are computed as batches of one row. Only the batch form
    approaches the chi-square reference as n grows.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not 1 <= arr.ndim <= 3 or arr.shape[-1] != model.dim:
        raise DomainError(
            f"points must have shape (D,), (N, D) or (M, n, D) with "
            f"D = {model.dim}, got {arr.shape}"
        )
    batches = arr if arr.ndim == 3 else arr.reshape(-1, 1, model.dim)
    m, n, dim = batches.shape
    # the model's summed score per batch: sum z / sigma, then sum (z^2 - 1)
    s = model.grad_groups(batches.reshape(m * n, dim), n)[0]
    s_mu = s[:, :dim] * np.exp(model.params["log_sigma"])
    stat = np.sum(s_mu ** 2 / n + s[:, dim:] ** 2 / (2.0 * n), axis=1)
    dof = 2 * model.dim
    return (float(stat[0]), dof) if arr.ndim == 1 else (stat, dof)


def prior_diag_from_samples(grad_samples: np.ndarray, p: int) -> np.ndarray:
    """Default prior diagonal diag(sum_i S_i^2); falls back to ones for
    empty sample sets and for coordinates no sample ever touched."""
    if len(grad_samples) == 0:
        return np.ones(p)
    s = np.asarray(grad_samples, dtype=np.float64)
    d = np.sum(s * s, axis=0)
    d[d <= 0.0] = 1.0
    return d


def sherman_morrison_score(grad_samples, a0_diag: np.ndarray, s_x: np.ndarray,
                           scale_convention: str = "raw") -> float:
    """Quadratic form s_x^T (diag(a0) + sum_i S_i S_i^T)^{-1} s_x.

    With R = S A^{-1/2} and y = A^{-1/2} s_x for A = diag(a0), the
    Woodbury identity gives

        q = y^T y - |L^{-1} R y|^2,   L L^T = I_N + R R^T,

    one N x N Cholesky factorisation in place of N rank-one updates.
    Memory is O(N P + N^2) and no P x P array is ever allocated; with no
    samples q is the diagonal solve y^T y. ``scale_convention`` 'raw'
    returns the quadratic form as-is; 'n_plus_1' multiplies by (N + 1).
    """
    if scale_convention not in ("raw", "n_plus_1"):
        raise DomainError(f"unknown scale convention '{scale_convention}'")
    a0 = np.asarray(a0_diag, dtype=np.float64)
    sx = np.asarray(s_x, dtype=np.float64)
    if a0.ndim != 1 or sx.shape != a0.shape:
        raise DomainError(
            f"a0 diagonal and s_x must be equal-length vectors, got "
            f"{a0.shape} and {sx.shape}"
        )
    for name, v in (("a0_diag", a0), ("s_x", sx)):
        if not np.all(np.isfinite(v)):
            bad = int(np.nonzero(~np.isfinite(v))[0][0])
            raise NonFiniteError(f"{name} entry {bad} is not finite")
    if np.any(a0 <= 0.0):
        bad = int(np.nonzero(a0 <= 0.0)[0][0])
        raise DomainError(f"prior diagonal entry {bad} must be positive")
    rows = [np.asarray(s, dtype=np.float64) for s in grad_samples]
    for i, row in enumerate(rows):
        if row.shape != a0.shape:
            raise DomainError(f"gradient sample {i} has shape {row.shape}")
    s = np.array(rows).reshape(len(rows), a0.size)
    finite = np.isfinite(s).all(axis=1)
    if not finite.all():
        bad = int(np.nonzero(~finite)[0][0])
        raise NonFiniteError(f"grad_samples[{bad}] has non-finite entries")
    root = np.sqrt(a0)
    r = s / root
    y = sx / root
    chol = np.linalg.cholesky(np.eye(len(rows)) + r @ r.T)
    v = np.linalg.solve(chol, r @ y)
    q = float(y @ y - v @ v)
    if scale_convention == "n_plus_1":
        q *= len(rows) + 1
    return q
