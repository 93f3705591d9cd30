"""Tests of the benchmark itself: span arithmetic, wrapper lifetime,
metric names, the seed contract, the training tolerance and the runs
that must refuse or warn.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent=-1, attrs=None):
    return [name, float(start), float(end), parent, attrs]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("a", 0, 10),
        span("b", 1, 4, parent=0),
        span("c", 2, 3, parent=1),
        span("d", 5, 7, parent=0),
        span("e", 6, 9, parent=0),  # overlaps d: the union 5..9 counts once
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 3.0])


def test_layer_metrics_on_a_synthetic_training_tree():
    spans = [
        span("trainer.train", 0.0, 1.0, attrs={"epochs": 2}),
        span("numcore.permutation", 0.0, 0.1, parent=0),
        span("models.loglik_and_grad_sum", 0.1, 0.4, parent=0, attrs={"bytes": 80}),
        span("models.loglik_and_grad_sum", 0.4, 0.7, parent=0, attrs={"bytes": 80}),
        span("models.score_batch", 0.5, 0.6, parent=3, attrs={"rows": 4, "bytes": 999}),
        span("models.save_model", 1.0, 1.5),
        span("models.load_model", 1.5, 1.75),
    ]
    m = tr.layer_metrics(spans)
    assert m["trainer.steps"] == 2
    assert m["trainer.epochs"] == 2
    assert m["trainer.train.self_ms"] == pytest.approx(300.0)
    assert m["models.loglik_and_grad_sum.calls"] == 2
    assert m["models.loglik_and_grad_sum.ms"] == pytest.approx(600.0)
    assert m["models.score_batch.rows"] == 4
    # the nested score_batch gradient is part of its parent's, not extra
    assert m["models.grad.bytes_computed"] == 160
    assert m["models.checkpoint.ms"] == pytest.approx(750.0)
    assert m["gradfeatures.gradient_features.calls"] == 0
    assert m["trace.spans"] == len(spans)
    assert set(m) == {name for name, _ in tr.PER_LAYER}


def _originals(targets):
    return [owner.__dict__[attr] for owner, attr, _, _ in targets]


def test_wrappers_are_removed_after_the_traced_region():
    from fimscore import fim, models
    from fimscore.numcore import Rng

    targets = tr.targets()
    before = _originals(targets)
    rec = tr.Tracer()
    flow = models.CouplingFlowModel.init_random(2, Rng(0).child(0), n_blocks=2, hidden=4)
    with pytest.raises(RuntimeError):
        with tr.installed(rec, targets):
            assert all(now is not orig for now, orig in zip(_originals(targets), before))
            fim.sample(flow, Rng(1), 3)
            raise RuntimeError("leave the region by an exception")
    assert all(now is orig for now, orig in zip(_originals(targets), before))
    spans = rec.take()
    # fim.sample -> models.sample -> CouplingFlowModel.sample is one span
    assert [s[0] for s in spans] == ["models.sample", "numcore.normals"]
    assert spans[1][3] == 0
    fim.sample(flow, Rng(1), 3)
    assert rec.take() == []


def test_metric_names_and_caps():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == tr.PER_LAYER
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [n for n, _ in end_to_end + per_layer] + [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in dict(end_to_end)


def test_seed_zero_is_the_golden_seeding_and_sizes_do_not_depend_on_seed():
    import workloads

    assert [workloads.dataset_seed(0, k) for k in range(4)] == [1, 2, 3, 4]
    wl = workloads.TrainGolden()
    a, b = wl.setup(0), wl.setup(7)
    assert a["rows"].shape == b["rows"].shape
    assert not (a["rows"] == b["rows"]).all()
    assert [len(c) for c in workloads.walkthrough(0)] == \
        [len(c) for c in workloads.walkthrough(7)]


def _final_loglik(workloads, seed, distort):
    """train_golden's final mean log-likelihood with every training
    gradient passed through ``distort``."""
    from fimscore import models

    plain = models.CouplingFlowModel.loglik_and_grad_sum

    def distorted(self, x):
        loss, grad = plain(self, x)
        return loss, grad.from_flat(distort(grad.flat()))

    models.CouplingFlowModel.loglik_and_grad_sum = distorted
    wl = workloads.TrainGolden()
    try:
        result = wl.run(wl.setup(seed))
    finally:
        models.CouplingFlowModel.loglik_and_grad_sum = plain
    return result.loss_curve[-1]


def test_train_tolerance_admits_reordered_sums_and_catches_a_wrong_gradient():
    import numpy as np
    import workloads

    workloads.load_reference()

    def drift(seed, distort):
        ref = workloads.REFERENCE["train_golden"][str(seed)]
        return abs(_final_loglik(workloads, seed, distort) - ref) / abs(ref)

    # seed 96 drifted most under 5e-10 relative noise, seed 108 least
    # under the leak, among seeds 0-127
    noise = np.random.default_rng(1096)
    reordered = drift(96, lambda g: g * (1 + 5e-10 * noise.uniform(-1, 1, g.shape)))
    leaky = drift(108, lambda g: g + 0.01 * np.roll(g, 1))
    assert reordered < workloads.TRAIN_REL_TOL / 10
    assert leaky > workloads.TRAIN_REL_TOL * 10


def _bench_copy(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)


def _run(cwd, seed):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_golden",
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_refuses_to_run_without_the_program(tmp_path):
    _bench_copy(tmp_path)
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_to_run_without_the_reference(tmp_path):
    _bench_copy(tmp_path)
    (tmp_path / "perfbench" / "reference.json").unlink()
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = _run(tmp_path, 0)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
    assert "reference.json" in proc.stderr


def test_says_when_a_seed_has_no_reference():
    proc = _run(ROOT, 128)
    assert proc.returncode == 0, proc.stderr
    assert "reference check not run" in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
