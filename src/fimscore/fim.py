"""Fisher information probes: Monte Carlo slices and score statistics.

The Fisher information matrix of a model is E[s s^T] with s the
parameter score at a model sample. Full matrices are out of reach for
real models, so probes work on slices: pick one or two layers, take a
seeded subset of at most ``MAX_PER_LAYER`` weights from each, and
average outer products of the restricted score over n model draws,

    F_hat = (1/n) sum_i s_i s_i^T.

Per-sample scores are built only at the k probed weights, from the model's draw
sweep, whose backward reads the inverse chain's cache (no forward pass). Weight
(i, j) of a layer with row gradients a b^T is a[:, i] * b[:, j], so no (n, P)
score matrix is formed; the sink drops the other factors, so it checks every
factor itself. Past one chunk, BLAS rounding moves them up to about 1e-14
relative from one whole-array sweep; reruns stay byte-identical. Normalizing by
the diagonal turns a slice into a correlation-like matrix whose off-diagonal
mass measures how far from diagonal the true FIM is.

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
Woodbury identity: one N x N solve with I + S A_0^{-1} S^T replaces the N
rank-one updates, so memory stays O(N P + N^2) and no
P x P matrix is ever formed. The ``n_plus_1`` convention rescales the
quadratic form by (N + 1), matching an FIM estimate that averages the
prior together with the N outer products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDataError, DomainError, NonFiniteError, reject_repeats,
                     require_finite, require_int)
from .models import layer_fail, sample, sweep_chunks  # sample: perfbench's tracer wraps fim.sample
from .numcore import Rng


@dataclass
class FimSlice:
    matrix: np.ndarray
    weight_map: list
    n_samples: int


MAX_PROBE_LAYERS = 2
MAX_PER_LAYER = 50


def select_weights(params, layers, rng: Rng):
    """Seeded subset of flat weight indices: min(MAX_PER_LAYER, size) per
    layer, drawn without replacement, listed in ascending index order."""
    if not 1 <= len(layers) <= MAX_PROBE_LAYERS:
        raise DomainError(
            f"probe supports 1 to {MAX_PROBE_LAYERS} layers, got {len(layers)}"
        )
    reject_repeats(layers, "probe layers")
    weight_map = []
    for name in layers:
        size = params[name].size
        k = min(MAX_PER_LAYER, size)
        chosen = sorted(int(i) for i in rng.permutation(size)[:k])
        weight_map.extend((name, idx) for idx in chosen)
    return weight_map


def mc_fim_slice(model, layers, rng: Rng, n: int) -> FimSlice:
    """Monte Carlo FIM estimate restricted to a seeded weight subset.

    Consumes from ``rng`` in a fixed order: one permutation per probed
    layer for weight selection, then the n*dim base normals ``sample`` draws.
    A non-finite draw is named by its row, a non-finite entry by its layer.
    """
    weight_map = select_weights(model.params, layers, rng)
    n = require_int(n, "sample count", 1)
    z = rng.normals(n * model.dim).reshape(n, model.dim)
    s = score_columns(model, z, weight_map, draws=True)
    matrix = (s.T @ s) / n
    require_finite(matrix, layer_fail(lambda col: weight_map[col][0]))
    return FimSlice(matrix=matrix, weight_map=weight_map, n_samples=n)


def score_columns(model, x: np.ndarray, weight_map, draws=False) -> np.ndarray:
    """(rows, k) per-sample scores of ``x`` at the k weights of ``weight_map``;
    with ``draws``, of the model's draws from base normals ``x``."""
    if not weight_map:
        raise DomainError("weight map is empty")
    for name, idx in weight_map:  # params[name] refuses a name the model lacks
        if require_int(idx, f"weight map entry {(name, idx)}", 0) >= model.params[name].size:
            raise DomainError(f"weight map entry {(name, idx)} is outside its layer")
    names, flat = (np.array(v) for v in zip(*weight_map))
    picks = {}  # layer index -> (its output columns, the factor columns of its weights)
    for n in set(names):
        c = np.flatnonzero(names == n)
        picks[model.params.names.index(n)] = (c, *np.unravel_index(flat[c], model.params[n].shape))

    def sink(factors, out):
        last = None  # a bias shares its weight's row factor: check that array once
        for i, a, b in factors:
            for f in (a, b):  # the only sink that drops factors checks them all
                if f is not None and f is not last:
                    require_finite(f, layer_fail(lambda _: model.params.names[i]))
            last = a
            if i in picks:
                cols, rows, *inner = picks[i]
                out[:, cols] = a[:, rows] if b is None else a[:, rows] * b[:, inner[0]]

    return sweep_chunks(model, x, [1], sink, len(weight_map), lambda j: weight_map[j][0], draws)[0]


def normalize_fim(matrix: np.ndarray) -> np.ndarray:
    """C_ab = F_ab / sqrt(F_aa F_bb); requires strictly positive diagonal."""
    f = np.asarray(matrix, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != f.shape[1] or f.size == 0:
        raise DomainError(f"non-empty square matrix required, got shape {f.shape}")
    require_finite(f, lambda i: NonFiniteError("matrix entry ({}, {}) is not finite".format(*i)))
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
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
        raise DomainError(f"non-empty square matrix required, got shape {c.shape}")
    require_finite(c, lambda i: NonFiniteError("matrix entry ({}, {}) is not finite".format(*i)))
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
    sigma = np.exp(model.params["log_sigma"])  # a model without it fails before the sweep
    batches = arr if arr.ndim == 3 else arr.reshape(-1, 1, model.dim)
    m, n, dim = batches.shape
    # the model's summed score per batch: sum z / sigma, then sum (z^2 - 1)
    s = model.grad_groups(batches.reshape(m * n, dim), n)[0]
    s_mu = s[:, :dim] * sigma
    stat = np.sum(s_mu ** 2 / n + s[:, dim:] ** 2 / (2.0 * n), axis=1)
    dof = 2 * model.dim
    return (float(stat[0]), dof) if arr.ndim == 1 else (stat, dof)


def prior_diag_from_samples(grad_samples: np.ndarray, p: int) -> np.ndarray:
    """Default prior diagonal diag(sum_i S_i^2) of N x p samples; falls back
    to ones for empty sample sets and for coordinates no sample ever touched."""
    s = np.asarray(grad_samples, dtype=np.float64)
    if len(s) and s.shape[1:] != (p,):
        raise DomainError(f"gradient samples must have width {p}, got shape {s.shape}")
    s = s.reshape(len(s), p)
    d = np.sum(s * s, axis=0)
    d[d <= 0.0] = 1.0
    return d


def sherman_morrison_score(grad_samples, a0_diag: np.ndarray, s_x: np.ndarray,
                           scale_convention: str = "raw") -> float:
    """Quadratic form s_x^T (diag(a0) + sum_i S_i S_i^T)^{-1} s_x.

    With R = S A^{-1/2} and y = A^{-1/2} s_x for A = diag(a0), the
    Woodbury identity gives

        q = y^T y - (R y)^T (I_N + R R^T)^{-1} R y,

    one N x N solve in place of N rank-one updates.
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
        require_finite(v, lambda i: NonFiniteError(f"{name} entry {i[0]} is not finite"))
    if np.any(a0 <= 0.0):
        bad = int(np.nonzero(a0 <= 0.0)[0][0])
        raise DomainError(f"prior diagonal entry {bad} must be positive")
    rows = [np.asarray(s, dtype=np.float64) for s in grad_samples]
    for i, row in enumerate(rows):
        if row.shape != a0.shape:
            raise DomainError(f"gradient sample {i} has shape {row.shape}")
    s = np.array(rows).reshape(len(rows), a0.size)
    require_finite(s, lambda i: NonFiniteError(f"grad_samples[{i[0]}] is not finite"))
    root = np.sqrt(a0)
    r = s / root
    y = sx / root
    ry = r @ y
    q = float(y @ y - ry @ np.linalg.solve(np.eye(len(rows)) + r @ r.T, ry))
    if scale_convention == "n_plus_1":
        q *= len(rows) + 1
    return q
