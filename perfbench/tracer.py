"""Spans recorded from outside the program, and the per-layer metrics.

The traced run measures each ``fimscore`` layer without touching the
package: for the length of a traced region it replaces public functions
and methods with timing wrappers, and puts the originals back when the
region ends. A span is ``[name, start, end, parent, attrs]`` with
``parent`` the index of the enclosing span (-1 at the top); spans stay
in memory until the run writes them out.

A call whose direct parent span has the same name is folded into that
parent. This is how one name can be wrapped at several lookup sites
(``fim.sample`` calls ``models.sample``, which calls the flow's
``sample`` method) without counting the work twice.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

# (metric name, unit), in report order. Idle layers report 0.
PER_LAYER = [
    ("numcore.permutation.calls", "count"),
    ("numcore.permutation.ms", "ms"),
    ("numcore.std_normal_cdf.ms", "ms"),
    ("numcore.normals.ms", "ms"),
    ("models.loglik_and_grad_sum.calls", "count"),
    ("models.loglik_and_grad_sum.ms", "ms"),
    ("models.from_flat.ms", "ms"),
    ("models.with_params.ms", "ms"),
    ("models.grad_sum_batch.calls", "count"),
    ("models.grad_sum_batch.ms", "ms"),
    ("models.score_batch.calls", "count"),
    ("models.score_batch.rows", "rows"),
    ("models.score_batch.ms", "ms"),
    ("models.log_likelihood_batch.calls", "count"),
    ("models.log_likelihood_batch.rows", "rows"),
    ("models.log_likelihood_batch.ms", "ms"),
    ("models.sample.ms", "ms"),
    ("models.checkpoint.ms", "ms"),
    ("models.grad.bytes_computed", "bytes"),
    ("trainer.steps", "count"),
    ("trainer.epochs", "count"),
    ("trainer.train.self_ms", "ms"),
    ("gradfeatures.gradient_features.calls", "count"),
    ("gradfeatures.gradient_features.self_ms", "ms"),
    ("gradfeatures.feature_rows", "rows"),
    ("gradfeatures.log_features.ms", "ms"),
    ("gradfeatures.io.ms", "ms"),
    ("detector.fit_detector.ms", "ms"),
    ("detector.ood_score.ms", "ms"),
    ("detector.fisher_method_score.self_ms", "ms"),
    ("baselines.typicality_score.calls", "count"),
    ("baselines.typicality_score.self_ms", "ms"),
    ("baselines.likelihood_score.self_ms", "ms"),
    ("baselines.fit_typicality.ms", "ms"),
    ("evaluation.run_pairings.self_ms", "ms"),
    ("evaluation.auroc.calls", "count"),
    ("evaluation.auroc.ms", "ms"),
    ("evaluation.cells", "count"),
    ("evaluation.cells_skipped", "count"),
    ("fim.mc_fim_slice.self_ms", "ms"),
    ("fim.sherman_morrison_score.ms", "ms"),
    ("fim.sherman_morrison_score.dots", "count"),
    ("representation.check_gradient_invariance.self_ms", "ms"),
    ("data.generate.ms", "ms"),
    ("data.dmat.ms", "ms"),
    ("data.dmat.bytes", "bytes"),
    ("data.csv.ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.gen-data.ms", "ms"),
    ("cli.train.ms", "ms"),
    ("cli.features.ms", "ms"),
    ("cli.fit.ms", "ms"),
    ("cli.score.ms", "ms"),
    ("cli.eval.ms", "ms"),
    ("cli.fim-probe.ms", "ms"),
    ("cli.invariance-check.ms", "ms"),
    ("cli.tv-volume.ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
]

# Spans whose result is a parameter gradient; bytes are counted at the
# outermost one only.
GRAD_SPANS = ("models.loglik_and_grad_sum", "models.grad_sum_batch",
              "models.score_batch")

# Metrics that add up several span names: (metric, attr or "ms", names).
_GROUPS = [
    ("models.checkpoint.ms", "ms",
     ("models.save_model", "models.load_model", "models.model_checksum")),
    ("gradfeatures.io.ms", "ms",
     ("gradfeatures.save_features", "gradfeatures.load_features")),
    ("data.dmat.ms", "ms", ("data.save_dmat", "data.load_dmat")),
    ("data.dmat.bytes", "bytes", ("data.save_dmat", "data.load_dmat")),
    ("data.csv.ms", "ms", ("data.save_csv", "data.load_csv")),
]


class Tracer:
    """In-memory span recorder shared by every wrapper it makes."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, counter=None):
        """``fn`` recording one span per call; ``counter(args, kwargs,
        result)`` returns the span's attrs."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def region(self, name):
        """A span around a block of the benchmark's own code."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def take(self):
        """The spans recorded so far; the recorder starts empty again."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = list(self.spans)
        self.spans.clear()
        return out


@contextmanager
def installed(tracer, targets):
    """Wrap every ``(owner, attr, span name, counter)`` target for the
    duration of the block; the original objects are restored on exit."""
    saved = []
    try:
        for owner, attr, name, counter in targets:
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(orig, name, counter))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _rows(args, kwargs, out):
    x = args[1]
    return {"rows": 1 if getattr(x, "ndim", 2) == 1 else len(x)}


def _grad_bytes(arrays):
    return int(sum(a.nbytes for a in arrays))


def targets():
    """Every wrapped lookup site in ``fimscore``, with its span name.

    Names bound at import are wrapped where their caller looks them up:
    ``fim.sample``, ``representation.score``, ``evaluation.model_checksum``
    and ``detector.std_normal_cdf``.
    """
    import numpy as np

    from fimscore import (baselines, data, detector, evaluation, fim,
                          gradfeatures, models, representation, trainer)
    from fimscore.numcore import Rng

    flow = models.CouplingFlowModel

    def score_attrs(args, kwargs, out):
        return {**_rows(args, kwargs, out),
                "bytes": _grad_bytes(a for _, a in out)}

    def sum_attrs(args, kwargs, out):
        return {"bytes": _grad_bytes(out.arrays)}

    def pair_attrs(args, kwargs, out):
        return {"bytes": _grad_bytes(out[1].arrays)}

    def save_dmat_attrs(args, kwargs, out):
        return {"bytes": 24 + 8 * int(np.asarray(args[1]).size)}

    def load_dmat_attrs(args, kwargs, out):
        return {"bytes": 24 + int(out.nbytes)}

    def sm_attrs(args, kwargs, out):
        n = len(args[0])
        return {"dots": n * (n + 1) // 2}

    def train_attrs(args, kwargs, out):
        return {"epochs": len(out.loss_curve)}

    def pairing_attrs(args, kwargs, out):
        rows = [row for rep in out for row in rep.rows]
        return {"cells": len(rows),
                "skipped": sum(1 for row in rows if row.get("auroc") is None)}

    def feature_attrs(args, kwargs, out):
        return {"rows": len(args[1])}

    return [
        (Rng, "permutation", "numcore.permutation", None),
        (Rng, "normals", "numcore.normals", None),
        (detector, "std_normal_cdf", "numcore.std_normal_cdf", None),
        (flow, "loglik_and_grad_sum", "models.loglik_and_grad_sum", pair_attrs),
        (flow, "grad_sum_batch", "models.grad_sum_batch", sum_attrs),
        (flow, "score_batch", "models.score_batch", score_attrs),
        (flow, "log_likelihood_batch", "models.log_likelihood_batch", _rows),
        (flow, "with_params", "models.with_params", None),
        (flow, "sample", "models.sample", None),
        (models.LayeredParams, "from_flat", "models.from_flat", None),
        (fim, "sample", "models.sample", None),
        (representation, "score", "models.score", None),
        (models, "save_model", "models.save_model", None),
        (models, "load_model", "models.load_model", None),
        (models, "model_checksum", "models.model_checksum", None),
        (evaluation, "model_checksum", "models.model_checksum", None),
        (trainer, "train", "trainer.train", train_attrs),
        (gradfeatures, "gradient_features", "gradfeatures.gradient_features",
         feature_attrs),
        (gradfeatures, "log_features", "gradfeatures.log_features", None),
        (gradfeatures, "save_features", "gradfeatures.save_features", None),
        (gradfeatures, "load_features", "gradfeatures.load_features", None),
        (detector, "fit_detector", "detector.fit_detector", None),
        (detector, "ood_score", "detector.ood_score", None),
        (detector, "fisher_method_score", "detector.fisher_method_score", None),
        (baselines, "typicality_score", "baselines.typicality_score", None),
        (baselines, "likelihood_score", "baselines.likelihood_score", None),
        (baselines, "fit_typicality", "baselines.fit_typicality", None),
        (evaluation, "run_pairings", "evaluation.run_pairings", pairing_attrs),
        (evaluation, "auroc", "evaluation.auroc", None),
        (fim, "mc_fim_slice", "fim.mc_fim_slice", None),
        (fim, "sherman_morrison_score", "fim.sherman_morrison_score", sm_attrs),
        (representation, "check_gradient_invariance",
         "representation.check_gradient_invariance", None),
        (data, "generate", "data.generate", None),
        (data, "save_dmat", "data.save_dmat", save_dmat_attrs),
        (data, "load_dmat", "data.load_dmat", load_dmat_attrs),
        (data, "save_csv", "data.save_csv", None),
        (data, "load_csv", "data.load_csv", None),
    ]


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals."""
    kids = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            kids[parent].append((start, end))
    out = []
    for (name, start, end, parent, _), children in zip(spans, kids):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(spans):
    """Every per-layer metric of PER_LAYER that spans can give, for one
    traced operation; the run adds the start-up and trace figures."""
    calls, total, own, attrs = {}, {}, {}, {}
    for (name, start, end, parent, extra), self_s in zip(spans, self_times(spans)):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        for key, value in (extra or {}).items():
            attrs[(name, key)] = attrs.get((name, key), 0) + value

    def grad_root(i):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in GRAD_SPANS:
                return False
            parent = spans[parent][3]
        return True

    out = {name: 0 for name, _ in PER_LAYER}
    for metric in out:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(span, 0)
        elif kind == "ms":
            out[metric] = 1e3 * total.get(span, 0.0)
        elif kind == "self_ms":
            out[metric] = 1e3 * own.get(span, 0.0)
        elif kind == "rows":
            out[metric] = attrs.get((span, "rows"), 0)
    for metric, kind, names in _GROUPS:
        if kind == "ms":
            out[metric] = 1e3 * sum(total.get(n, 0.0) for n in names)
        else:
            out[metric] = sum(attrs.get((n, kind), 0) for n in names)
    out["models.grad.bytes_computed"] = sum(
        (spans[i][4] or {}).get("bytes", 0) for i in range(len(spans))
        if spans[i][0] in GRAD_SPANS and grad_root(i))
    out["trainer.steps"] = sum(
        1 for name, _, _, parent, _ in spans
        if name == "models.loglik_and_grad_sum" and parent >= 0
        and spans[parent][0] == "trainer.train")
    out["trainer.epochs"] = attrs.get(("trainer.train", "epochs"), 0)
    out["gradfeatures.feature_rows"] = attrs.get(
        ("gradfeatures.gradient_features", "rows"), 0)
    out["evaluation.cells"] = attrs.get(("evaluation.run_pairings", "cells"), 0)
    out["evaluation.cells_skipped"] = attrs.get(
        ("evaluation.run_pairings", "skipped"), 0)
    out["fim.sherman_morrison_score.dots"] = attrs.get(
        ("fim.sherman_morrison_score", "dots"), 0)
    out["trace.spans"] = len(spans)
    return out


def median_metrics(per_op):
    """Metric-wise median over the traced operations."""
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
