"""AUROC and the distribution-pairing evaluation harness.

AUROC is the Mann-Whitney U in O(n log n): per out-of-distribution score,
binary search in the sorted in-scores counts those below it plus those at
or below it, and these counts sum to 2U exactly (ties count half). The
convention is auroc(in_scores, out_scores) = P(out > in) + P(out = in)/2,
so auroc(a, b) + auroc(b, a) = 1 and any strictly increasing transform
of the scores leaves the value unchanged.

The harness mirrors the grid experiments: every distribution that has a
trained model becomes a column; every distribution with an eval split
becomes a row. Each column fits only what its methods read, on its
model's held-out fit split (detectors on gradient features of disjoint
contiguous fit batches, typicality on the split's mean log-likelihood).
Each fit split and eval batch set takes one pass: a feature sweep (of all
batch sizes at once on a fit split) if a method reads the detector, else a
likelihood pass. Each off-diagonal cell gets an AUROC against the column's
own eval scores, or is skipped with the first error that stopped it
(``auroc`` None): an error in the column's fits or own scores, made once
per batch size, skips every cell of that size; one in a test split's
scores or their AUROC skips only that split's cells.

Batches are reproducible: the eval split of distribution d at batch
size B is shuffled once with a child stream derived from (seed, d, B),
then cut into disjoint contiguous batches. Runs with identical inputs
produce byte-identical report JSON.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import baselines, detector, gradfeatures
from .data import json_text
from .errors import (DomainError, FimscoreError, InsufficientDataError,
                     reject_repeats, require_finite, require_int)
from .models import model_checksum
from .numcore import Rng

# name -> (the column fit it reads, its score of a batch set from that fit, the
# set's log features and mean log-likelihoods); scorers resolve at call time
METHODS = {
    "ours": ("detector", lambda det, logf, ll: detector.ood_score(det, logf)),
    "fisher": ("detector", lambda det, logf, ll: detector.fisher_method_score(det, logf)),
    "typicality": ("h_hat", lambda h_hat, logf, ll: baselines.typicality_score(h_hat, ll)),
    "likelihood": (None, lambda _, logf, ll: baselines.likelihood_score(ll)),
}


def auroc(scores_in, scores_out) -> float:
    """P(out-score > in-score) with half credit for ties, by sorted search."""
    a = np.asarray(scores_in, dtype=np.float64)
    b = np.asarray(scores_out, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise DomainError(f"scores must be 1-D, got shapes {a.shape} and {b.shape}")
    if a.size == 0 or b.size == 0:
        raise InsufficientDataError("auroc needs at least one score on each side")
    for name, v in (("scores_in", a), ("scores_out", b)):
        require_finite(v, lambda i: DomainError(f"{name} entry {i[0]} is not finite"))
    a = np.sort(a)  # per out-score, the in-scores below it plus those at or below it: 2U
    twice_u = np.searchsorted(a, b, "left").sum() + np.searchsorted(a, b, "right").sum()
    return int(twice_u) / (2.0 * a.size * b.size)


@dataclass
class PairingReport:
    train: str
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json_text({"train": self.train, "rows": self.rows,
                          "metadata": self.metadata})


def _method_scores(model, fits, methods, batches):
    rows = batches.reshape(-1, batches.shape[2])
    if "detector" in fits:
        features, loglik = gradfeatures.feature_sweep(model, rows, batches.shape[1:2])
        logf = gradfeatures.log_features(features)
    else:
        logf, loglik = None, model.log_likelihood_batch(rows)
    mean_loglik = loglik.reshape(batches.shape[:2]).mean(axis=-1)
    return {m: METHODS[m][1](fits.get(METHODS[m][0]), logf, mean_loglik) for m in methods}


def run_pairings(train_entries: dict, eval_splits: dict, batch_sizes=(1, 5),
                 n_eval_batches: int = 200, methods=tuple(METHODS), seed: int = 0):
    """Full grid evaluation; returns one PairingReport per trained model.

    ``train_entries`` maps name -> (model, fit_rows); ``eval_splits``
    maps name -> eval rows. Every train name must also have an eval
    split, and at least two distributions must be present overall.
    """
    if len(eval_splits) < 2:
        raise InsufficientDataError("need at least two distributions to pair")
    batch_sizes = [require_int(b, "batch size", 1) for b in batch_sizes]
    n_eval_batches = require_int(n_eval_batches, "eval batch count", 1)
    seed = require_int(seed, "seed")
    if len(batch_sizes) == 0 or len(methods) == 0:
        raise DomainError("batch_sizes and methods must not be empty")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DomainError(f"unknown methods: {unknown}")
    reject_repeats(batch_sizes, "batch sizes")
    reject_repeats(methods, "methods")
    missing = [n for n in train_entries if n not in eval_splits]
    if missing:
        raise DomainError(f"train distributions without eval split: {missing}")
    needs = {METHODS[m][0] for m in methods}
    root = Rng(seed)
    eval_names = sorted(eval_splits)

    def eval_batches(name, b_idx, dim):
        # built inside the cell's try, so a split too thin for one batch
        # size, or of the wrong width, skips only the cells it is in
        rng = root.child(1 + eval_names.index(name) * len(batch_sizes) + b_idx)
        return gradfeatures.batch_view(rng.shuffled(eval_splits[name]), batch_sizes[b_idx],
                                       f"eval split '{name}'", dim)[:n_eval_batches]

    reports = []
    for train_name in sorted(train_entries):
        model, fit_rows = train_entries[train_name]
        fit_rows = np.asarray(fit_rows, dtype=np.float64)
        report = PairingReport(train=train_name, metadata={
            "seed": seed, "batch_sizes": list(batch_sizes), "methods": list(methods),
            "n_eval_batches": n_eval_batches, "model_checksum": model_checksum(model),
            "n_fit_rows": len(fit_rows) if fit_rows.ndim else 0})
        # one fit split sweep for all sizes and H_hat; if it fails, each size sweeps alone
        swept, fits = {}, {}  # fits: this size's detector; H_hat, on the first fitted cell
        if "detector" in needs:
            sizes = [b for b in batch_sizes if fit_rows.ndim and len(fit_rows) // b >= 2]
            with contextlib.suppress(FimscoreError):
                *features, loglik = gradfeatures.feature_sweep(model, fit_rows, sizes)
                swept, fits = dict(zip(sizes, features)), {"h_hat": float(loglik.mean())}
        source, tests = f"fit split of '{train_name}'", [t for t in eval_names if t != train_name]
        column = {}  # batch size -> its column scores, or the error that stopped them
        for (b_idx, bsz), test_name in itertools.product(enumerate(batch_sizes), tests):
            # a column error (thin fit or eval split, non-finite gradients) skips
            # every cell of its size; a test split's or an auroc's only this cell
            try:
                in_scores = column.get(bsz)
                if isinstance(in_scores, FimscoreError):
                    raise in_scores
                if in_scores is None:  # this size's fits, then its scores
                    if "detector" in needs:
                        fit_batches = gradfeatures.batch_view(fit_rows, bsz, source, model.dim)
                        features = swept.pop(bsz) if bsz in swept else gradfeatures.feature_sweep(
                            model, fit_batches.reshape(-1, model.dim), [bsz])[0]
                        fits["detector"] = detector.fit_detector(
                            gradfeatures.log_features(features))
                    if "h_hat" in needs and "h_hat" not in fits:  # batch_view names a bad split
                        fits["h_hat"] = baselines.fit_typicality(
                            model, gradfeatures.batch_view(fit_rows, 1, source, model.dim)[:, 0])
                    in_scores = column[bsz] = _method_scores(
                        model, fits, methods, eval_batches(train_name, b_idx, model.dim))
                out_scores = _method_scores(
                    model, fits, methods, eval_batches(test_name, b_idx, model.dim))
                cells = [{"auroc": auroc(in_scores[m], out_scores[m]),
                          "n_in": int(in_scores[m].size), "n_out": int(out_scores[m].size)}
                         for m in methods]
            except FimscoreError as exc:
                column.setdefault(bsz, exc)
                cells = [{"auroc": None, "skipped": str(exc)}] * len(methods)
            report.rows += [{"test": test_name, "method": m, "batch_size": bsz, **cell}
                            for m, cell in zip(methods, cells)]
        reports.append(report)
    return reports


def render_grid(reports, method: str, batch_size: int) -> str:
    """Text table: train distributions as columns, test ones as rows."""
    trains = [r.train for r in reports]
    tests = sorted({row["test"] for r in reports for row in r.rows})
    cells = {}
    for r in reports:
        for row in r.rows:
            if row["method"] == method and row["batch_size"] == batch_size:
                cells[(row["test"], r.train)] = row["auroc"]
    width = max([len(t) for t in trains + tests] + [8])
    header = f"AUROC method={method} B={batch_size} (rows: test, cols: train)"
    lines = [header, " " * width + " | " + " | ".join(t.rjust(width) for t in trains)]
    lines.append("-" * len(lines[1]))
    for test in tests:
        cols = []
        for train in trains:
            v = cells.get((test, train))
            cols.append(("-" * 5 if v is None else f"{v:.3f}").rjust(width))
        lines.append(test.rjust(width) + " | " + " | ".join(cols))
    return "\n".join(lines) + "\n"
