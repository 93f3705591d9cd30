"""AUROC and the distribution-pairing evaluation harness.

AUROC is the Mann-Whitney U in O(n log n): per out-of-distribution score,
binary search in the sorted in-scores counts those below it plus those at
or below it, and these counts sum to 2U exactly (ties count half). The
convention is auroc(in_scores, out_scores) = P(out > in) + P(out = in)/2,
so auroc(a, b) + auroc(b, a) = 1 and any strictly increasing transform
of the scores leaves the value unchanged.

The harness mirrors the grid experiments: every distribution that has a
trained model becomes a column; every distribution with an eval split
becomes a row. METHODS gives each method the column fit and the batch-set
statistic it reads, "logf" (log features) or "ll" (log-likelihoods); FITS
gives each fit kind the fit-split statistic it reads. A row set takes one
pass for what is read of it: a feature sweep if "logf" is, else a
likelihood pass. One pass of a 2-D fit split serves every batch size; if
it fails, each size passes its own batches. Each off-diagonal
cell gets an AUROC against the column's own eval scores, or is skipped
with the first error that stopped it (``auroc`` None): an error in the
column's fits or own scores, made once per batch size, skips every cell of
that size; one in a test split's scores or their AUROC skips only its cells.

Batches are reproducible: the i-th eval split, in name order, at the b-th
batch size is shuffled once with child 1 + i * len(batch_sizes) + b of the
seed's stream, then cut into disjoint contiguous batches. So a cell's batches
depend on which other splits and sizes the grid holds. Runs with identical
inputs produce byte-identical report JSON.
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

# name -> (the column fit it reads, the batch-set statistic it scores, its score
# from the fit and that statistic, one row per batch); scorers resolve at call time
METHODS = {
    "ours": ("detector", "logf", lambda det, logf: detector.ood_score(det, logf)),
    "fisher": ("detector", "logf", lambda det, logf: detector.fisher_method_score(det, logf)),
    "typicality": ("h_hat", "ll", lambda h, ll: baselines.typicality_score(h, ll.mean(axis=-1))),
    "likelihood": (None, "ll", lambda _, ll: baselines.likelihood_score(ll.mean(axis=-1))),
}
# fit kind -> (the fit-split statistic it reads, its fit from that and the split's name)
FITS = {"detector": ("logf", lambda logf, source: detector.fit_detector(logf)),
        "h_hat": ("ll", lambda ll, source: baselines.entropy_estimate(ll, source))}


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


def _pass(model, rows, sizes, stats):
    """{B: stats} per batch size B of ``sizes``, from one feature sweep if "logf" is asked
    for (its size-B batches' "logf", each row's "ll"), else one likelihood pass ("ll")."""
    rows = rows.reshape(-1, rows.shape[2]) if rows.ndim == 3 else rows  # batches as rows
    if "logf" not in stats:
        return dict.fromkeys(sizes, {"ll": model.log_likelihood_batch(rows)})
    *features, ll = gradfeatures.feature_sweep(model, rows, sizes)  # freed as logged
    return {b: {"logf": gradfeatures.log_features(features.pop(0)), "ll": ll} for b in sizes}


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
    kinds = [k for k in FITS if any(METHODS[m][0] == k for m in methods)]
    fit_stats = {FITS[k][0] for k in kinds}
    root = Rng(seed)
    eval_names = sorted(eval_splits)

    def eval_scores(name, b_idx, model, fits):
        # built inside the cell's try, so a split too thin for one batch size, or of the
        # wrong width, skips only the cells it is in; scorers get one row per batch
        rng = root.child(1 + eval_names.index(name) * len(batch_sizes) + b_idx)
        batches = gradfeatures.batch_view(rng.shuffled(eval_splits[name]), batch_sizes[b_idx],
                                          f"eval split '{name}'", model.dim)[:n_eval_batches]
        n, size, _ = batches.shape
        stats = _pass(model, batches, [size], {METHODS[m][1] for m in methods})
        return {m: METHODS[m][2](fits.get(METHODS[m][0]), stats[size][METHODS[m][1]].reshape(n, -1))
                for m in methods}

    reports = []
    for train_name in sorted(train_entries):
        model, fit_rows = train_entries[train_name]
        fit_rows = np.asarray(fit_rows, dtype=np.float64)
        report = PairingReport(train=train_name, metadata={
            "seed": seed, "batch_sizes": list(batch_sizes), "methods": list(methods),
            "n_eval_batches": n_eval_batches, "model_checksum": model_checksum(model),
            "n_fit_rows": len(fit_rows) if fit_rows.ndim else 0})
        source, tests = f"fit split of '{train_name}'", [t for t in eval_names if t != train_name]
        column, joint = {}, {}  # batch size -> its column scores or their error; its fit stats
        with contextlib.suppress(FimscoreError):  # if it fails, each size passes its own
            if kinds and fit_rows.ndim == 2:
                joint = _pass(model, fit_rows, batch_sizes, fit_stats)
        for (b_idx, bsz), test_name in itertools.product(enumerate(batch_sizes), tests):
            # a column error (thin fit or eval split, non-finite gradients) skips
            # every cell of its size; a test split's or an auroc's only this cell
            try:
                in_scores = column.get(bsz)
                if isinstance(in_scores, FimscoreError):
                    raise in_scores
                if in_scores is None:  # this size's fits, then its scores
                    stats = kinds and (joint.pop(bsz, None) or _pass(model, gradfeatures.batch_view(
                        fit_rows, bsz, source, model.dim), [bsz], fit_stats)[bsz])
                    fits = {k: FITS[k][1](stats[FITS[k][0]], source) for k in kinds}
                    in_scores = column[bsz] = eval_scores(train_name, b_idx, model, fits)
                out_scores = eval_scores(test_name, b_idx, model, fits)
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
