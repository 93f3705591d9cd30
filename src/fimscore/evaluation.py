"""AUROC and the distribution-pairing evaluation harness.

AUROC is computed by rank summation in O(n log n): pool both score
sets, assign average ranks within tied runs (ties count half), and read
the Mann-Whitney U statistic off the out-of-distribution rank sum. The
convention is auroc(in_scores, out_scores) = P(out > in) + P(out = in)/2,
so auroc(a, b) + auroc(b, a) = 1 and any strictly increasing transform
of the scores leaves the value unchanged.

The harness mirrors the grid experiments: every distribution that has a
trained model becomes a column; every distribution with an eval split
becomes a row. For each column, each method is calibrated on that
model's held-out fit split (detectors on gradient features of disjoint
contiguous fit batches, typicality on per-sample log-likelihoods), then
all eval batches of every row are scored and each off-diagonal cell gets
an AUROC against the column's own eval scores.

Batches are reproducible: the eval split of distribution d at batch
size B is shuffled once with a child stream derived from (seed, d, B),
then cut into disjoint contiguous batches. Runs with identical inputs
produce byte-identical report JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import baselines, detector, gradfeatures
from .errors import DomainError, FimscoreError, InsufficientDataError
from .models import model_checksum
from .numcore import Rng

METHODS = ("ours", "fisher", "typicality", "likelihood")


def auroc(scores_in, scores_out) -> float:
    """P(out-score > in-score) with half credit for ties, by rank sums."""
    a = np.asarray(scores_in, dtype=np.float64)
    b = np.asarray(scores_out, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise InsufficientDataError("auroc needs at least one score on each side")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("scores must be finite")
    # tied run at sorted positions i..j: average 1-based rank (i + j)/2 + 1
    _, run, counts = np.unique(np.concatenate([a, b]), return_inverse=True,
                               return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[run]
    rank_sum_out = float(ranks[a.size :].sum())
    u_out = rank_sum_out - b.size * (b.size + 1) / 2.0
    return u_out / (a.size * b.size)


@dataclass
class PairingReport:
    train: str
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {"train": self.train, "rows": self.rows, "metadata": self.metadata}
        return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _method_scores(model, det, h_hat, batches):
    logf = gradfeatures.log_features(gradfeatures.feature_matrix(model, batches))
    return {
        "ours": detector.ood_score(det, logf),
        "fisher": detector.fisher_method_score(det, logf),
        "typicality": baselines.typicality_score(model, h_hat, batches),
        "likelihood": baselines.likelihood_score(model, batches),
    }


def run_pairings(train_entries: dict, eval_splits: dict, batch_sizes=(1, 5),
                 n_eval_batches: int = 200, methods=METHODS, seed: int = 0):
    """Full grid evaluation; returns one PairingReport per trained model.

    ``train_entries`` maps name -> (model, fit_rows); ``eval_splits``
    maps name -> eval rows. Every train name must also have an eval
    split, and at least two distributions must be present overall.
    """
    if len(eval_splits) < 2:
        raise InsufficientDataError("need at least two distributions to pair")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DomainError(f"unknown methods: {unknown}")
    if any(b < 1 for b in batch_sizes):
        raise DomainError(f"batch sizes must be >= 1, got {list(batch_sizes)}")
    if n_eval_batches < 1:
        raise DomainError(f"eval batch count must be >= 1, got {n_eval_batches}")
    missing = [n for n in train_entries if n not in eval_splits]
    if missing:
        raise DomainError(f"train distributions without eval split: {missing}")
    root = Rng(seed)
    eval_names = sorted(eval_splits)
    batch_cache = {}

    def eval_batches(name, b_idx):
        # built on first use, inside the cell's try, so a split too thin
        # for one batch size skips only the cells that need it
        key = (name, batch_sizes[b_idx])
        if key not in batch_cache:
            rows = np.asarray(eval_splits[name], dtype=np.float64)
            rng = root.child(1 + eval_names.index(name) * len(batch_sizes) + b_idx)
            batches = gradfeatures.batch_view(rng.shuffled(rows), key[1])[:n_eval_batches]
            if len(batches) == 0:
                raise InsufficientDataError(
                    f"eval split '{name}' with {len(rows)} rows yields no "
                    f"batch of size {key[1]}")
            batch_cache[key] = batches
        return batch_cache[key]

    reports = []
    for train_name in sorted(train_entries):
        model, fit_rows = train_entries[train_name]
        fit_rows = np.asarray(fit_rows, dtype=np.float64)
        report = PairingReport(
            train=train_name,
            metadata={
                "seed": seed,
                "batch_sizes": list(batch_sizes),
                "methods": list(methods),
                "n_eval_batches": n_eval_batches,
                "model_checksum": "" if model is None else model_checksum(model),
                "n_fit_rows": int(fit_rows.shape[0]),
            },
        )
        tests = [t for t in eval_names if t != train_name]

        def skip_cells(reason, bsz, only_test=None):
            for test_name in tests if only_test is None else [only_test]:
                for m in methods:
                    report.rows.append({
                        "test": test_name, "method": m, "batch_size": bsz,
                        "auroc": None, "skipped": reason,
                    })

        if model is None:
            for bsz in batch_sizes:
                skip_cells("missing checkpoint", bsz)
            reports.append(report)
            continue
        for b_idx, bsz in enumerate(batch_sizes):
            # a bad column (thin fit or eval split, non-finite gradients)
            # skips its cells with a reason instead of killing the whole grid run
            try:
                fit_batches = gradfeatures.batch_view(fit_rows, bsz)
                if len(fit_batches) < 2:
                    raise InsufficientDataError(
                        f"fit split of '{train_name}' yields "
                        f"{len(fit_batches)} batches of size {bsz}; need >= 2"
                    )
                logf_fit = gradfeatures.log_features(
                    gradfeatures.feature_matrix(model, fit_batches))
                det = detector.fit_detector(
                    logf_fit, model_checksum(model), gradfeatures.DEFAULT_FLOOR
                )
                h_hat = baselines.fit_typicality(model, fit_rows)
                in_scores = _method_scores(
                    model, det, h_hat, eval_batches(train_name, b_idx))
            except FimscoreError as exc:
                skip_cells(str(exc), bsz)
                continue
            for test_name in tests:
                try:
                    out_scores = _method_scores(
                        model, det, h_hat, eval_batches(test_name, b_idx))
                except FimscoreError as exc:
                    skip_cells(str(exc), bsz, only_test=test_name)
                    continue
                for m in methods:
                    report.rows.append({
                        "test": test_name,
                        "method": m,
                        "batch_size": bsz,
                        "auroc": auroc(in_scores[m], out_scores[m]),
                        "n_in": int(in_scores[m].size),
                        "n_out": int(out_scores[m].size),
                    })
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
