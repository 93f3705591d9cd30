import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import fimscore
from fimscore import cli, detector, evaluation
from fimscore.data import load_csv, load_dmat, save_csv, save_dmat
from fimscore.gradfeatures import load_features, log_features
from fimscore.models import DiagGaussianModel, save_model


def src_env():
    """os.environ with this package's src directory first on PYTHONPATH,
    so a child interpreter imports the same fimscore without an install."""
    src = os.path.dirname(os.path.dirname(fimscore.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run(argv):
    return cli.main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_tv_volume_stdout(capsys):
    assert run(["tv-volume", "--alpha", 1.0, "--d", 1]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["log_volume"] - math.log(2.0)) < 1e-14
    assert abs(obj["log10_volume"] - math.log10(2.0)) < 1e-14


def test_tv_volume_reference_case(capsys):
    assert run(["tv-volume", "--alpha", 102.9, "--d", 784]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["log10_volume"] - (-116.76204304591401)) < 1e-9


@pytest.mark.parametrize("argv", [
    ["--alpha", "inf", "--d", 3],
    ["--alpha", 1e308, "--d", 3, "--mc", 100],  # (2 alpha)^d overflows
])
def test_tv_volume_non_finite_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "vol.json"
    assert run(["tv-volume", *argv, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert os.listdir(tmp_path) == []


def test_tv_volume_mc_and_out(tmp_path, capsys):
    out = str(tmp_path / "vol.json")
    assert run(["tv-volume", "--alpha", 1.0, "--d", 2, "--mc", 50000,
                "--seed", 1, "--out", out]) == 0
    obj = read_json(out)
    want = math.exp(obj["log_volume"])
    assert abs(obj["mc_volume"] - want) < 3.0 * obj["mc_se"]
    manifest = read_json(out + ".manifest.json")
    assert manifest["command"] == "tv-volume"
    assert out in manifest["artifacts"]


@pytest.mark.parametrize("dist,param", [
    ("two_moons", "noise=nan"),
    ("two_moons", "noise=inf"),
    ("uniform_square", "side=inf"),
    ("rings", "radii=1:inf"),
    ("two_moons", "noise=1e308"),  # finite, but the points overflow
    ("rings", "noise=1e308"),
    ("uniform_square", "side=1e400"),
])
def test_gen_data_non_finite_exits_1(tmp_path, capsys, dist, param):
    """Each case fails in the generator, naming the parameter, with no
    numpy warning and before any file is written."""
    out = tmp_path / "d"
    assert run(["gen-data", "--dist", dist, "--n", 100, "--param", param,
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert param.split("=")[0] in err and "RuntimeWarning" not in err
    assert not [f for _, _, files in os.walk(tmp_path) for f in files
                if f.endswith(".dmat")]


def test_gen_data_artifacts_and_manifest(tmp_path):
    out = str(tmp_path / "moons")
    assert run(["gen-data", "--dist", "two_moons", "--n", 100, "--seed", 7,
                "--out", out]) == 0
    sizes = {t: load_dmat(os.path.join(out, f"{t}.dmat")).shape[0]
             for t in ("train", "fit", "eval")}
    assert sizes == {"train": 80, "fit": 10, "eval": 10}
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["dist"] == "two_moons"
    for path, digest in manifest["artifacts"].items():
        assert sha256(path) == digest


def test_gen_data_params(tmp_path):
    out = str(tmp_path / "sq")
    assert run(["gen-data", "--dist", "uniform_square", "--n", 50,
                "--param", "side=4.0", "--out", out]) == 0
    pts = load_dmat(os.path.join(out, "train.dmat"))
    assert np.max(np.abs(pts)) > 1.0  # default side 2.0 would cap at 1
    assert run(["gen-data", "--dist", "rings", "--n", 50,
                "--param", "radii=2.0:3.0",
                "--out", str(tmp_path / "r")]) == 0
    bad = run(["gen-data", "--dist", "rings", "--n", 50,
               "--param", "nope=1", "--out", str(tmp_path / "x")])
    assert bad == 1


@pytest.mark.parametrize("n,code", [(5, 1), (9, 1), (14, 1), (10, 0), (15, 0)])
def test_gen_data_refuses_an_empty_split(tmp_path, capsys, n, code):
    """At SPLIT (0.8, 0.1, 0.1), n = 5, 9 and 14 leave the eval split
    without a row and write nothing; n = 10 and 15 fill all three."""
    out = tmp_path / "d"
    assert run(["gen-data", "--dist", "two_moons", "--n", n, "--out", out]) == code
    if code:
        assert f"n = {n} leaves the eval split empty" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.dmat")) == []
    else:
        for tag in ("train", "fit", "eval"):
            assert load_dmat(str(out / f"{tag}.dmat")).shape[0] >= 1


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train -> features -> fit -> score, small and gaussian."""
    root = tmp_path_factory.mktemp("pipe")
    d = {"data": str(root / "data"), "model": str(root / "model"),
         "feats": str(root / "features.csv"), "det": str(root / "det.json"),
         "scores": str(root / "scores.csv"), "root": root}
    assert run(["gen-data", "--dist", "gauss_grid", "--n", 400, "--seed", 3,
                "--out", d["data"]]) == 0
    assert run(["train", "--data", d["data"], "--model", "gaussian",
                "--epochs", 3, "--batch-size", 32, "--learning-rate", "0.05",
                "--seed", 0, "--out", d["model"]]) == 0
    assert run(["features", "--model", os.path.join(d["model"], "model.json"),
                "--data", os.path.join(d["model"], "fit_split.dmat"),
                "--batch-size", 2, "--out", d["feats"]]) == 0
    assert run(["fit", "--features", d["feats"], "--out", d["det"]]) == 0
    assert run(["score", "--detector", d["det"], "--features", d["feats"],
                "--out", d["scores"]]) == 0
    return d


def test_train_artifacts(pipeline):
    model_dir = pipeline["model"]
    for name in ("model.json", "loss_curve.csv", "train_split.dmat",
                 "fit_split.dmat", "manifest.json"):
        assert os.path.exists(os.path.join(model_dir, name))
    curve = load_csv(os.path.join(model_dir, "loss_curve.csv"))
    assert curve.shape[0] == 4  # epoch 0 baseline + 3 epochs
    assert curve[0, 0] == 0.0 and curve[-1, 0] == 3.0
    assert curve[-1, 1] > curve[0, 1]  # likelihood went up


def test_features_csv_schema(pipeline):
    with open(pipeline["feats"]) as fh:
        header = fh.readline().strip()
    assert header == "batch_id,layer_0,layer_1"
    meta = read_json(pipeline["feats"] + ".json")
    assert meta["batch_size"] == 2
    assert meta["layer_names"] == ["mu", "log_sigma"]
    assert len(meta["model_checksum"]) == 64


def test_features_without_a_whole_batch_names_the_file(pipeline, tmp_path, capsys):
    fit = os.path.join(pipeline["model"], "fit_split.dmat")
    out = tmp_path / "f.csv"
    assert run(["features", "--model", os.path.join(pipeline["model"], "model.json"),
                "--data", fit, "--batch-size", 1000, "--out", out]) == 1
    assert capsys.readouterr().err == \
        f"error: --data '{fit}' with 36 rows yields no batch of size 1000\n"
    assert os.listdir(tmp_path) == []


def test_features_dimension_mismatch_names_the_file(pipeline, tmp_path, capsys):
    wide = str(tmp_path / "x3.dmat")
    save_dmat(wide, np.ones((20, 3)))
    out = tmp_path / "f.csv"
    assert run(["features", "--model", os.path.join(pipeline["model"], "model.json"),
                "--data", wide, "--out", out]) == 1
    assert capsys.readouterr().err == \
        f"error: --data '{wide}' has 3 columns, but the model is 2-dimensional\n"
    assert os.listdir(tmp_path) == ["x3.dmat"]


@pytest.mark.parametrize("flag", ["--eval", "--train"])
def test_eval_refuses_a_file_of_the_wrong_width(pipeline, tmp_path, capsys, flag):
    wide = str(tmp_path / "x3.dmat")
    save_dmat(wide, np.ones((20, 3)))
    model = os.path.join(pipeline["model"], "model.json")
    fit = wide if flag == "--train" else os.path.join(pipeline["model"], "fit_split.dmat")
    ev = os.path.join(pipeline["data"], "eval.dmat")
    second = wide if flag == "--eval" else ev
    out = tmp_path / "o"
    assert run(["eval", "--train", f"a={model}:{fit}", "--eval", f"a={ev}",
                "--eval", f"b={second}", "--out", out]) == 1
    assert capsys.readouterr().err == \
        f"error: {flag} '{wide}' has 3 columns, but the model is 2-dimensional\n"
    assert not out.exists()


def test_score_csv_schema(pipeline):
    table = load_csv(pipeline["scores"])
    feats = load_csv(pipeline["feats"])
    assert table.shape == (feats.shape[0], 2)
    assert np.array_equal(table[:, 0], np.arange(table.shape[0], dtype=float))
    with open(pipeline["scores"]) as fh:
        assert fh.readline().strip() == "batch_id,score"
    assert np.all(np.isfinite(table[:, 1]))


@pytest.mark.parametrize("method,scorer", [("ours", "ood_score"),
                                           ("fisher", "fisher_method_score")])
def test_score_method_picks_its_detector_scorer(pipeline, tmp_path, method, scorer):
    det, _ = detector.load_detector(pipeline["det"])
    feats, _ = load_features(pipeline["feats"])
    out = str(tmp_path / "s.csv")
    assert run(["score", "--detector", pipeline["det"], "--features", pipeline["feats"],
                "--method", method, "--out", out]) == 0
    want = getattr(detector, scorer)(det, log_features(feats))
    np.testing.assert_allclose(load_csv(out)[:, 1], want, rtol=1e-15, atol=0)


def test_score_methods_are_the_detector_entries_of_methods(pipeline, tmp_path, capsys):
    """--method takes exactly the METHODS entries fit as a detector, today ours
    and fisher, and writes the bytes save_csv makes of that entry's scores; any
    other name exits 1 naming the flag, before a file is read or written."""
    det, _ = detector.load_detector(pipeline["det"])
    logf = log_features(load_features(pipeline["feats"])[0])
    methods = [m for m, (kind, _, _) in evaluation.METHODS.items() if kind == "detector"]
    assert methods == ["ours", "fisher"]
    for method, (_, _, scorer) in evaluation.METHODS.items():
        out, want = tmp_path / f"{method}.csv", tmp_path / f"{method}_want.csv"
        code = run(["score", "--detector", pipeline["det"], "--features", pipeline["feats"],
                    "--method", method, "--out", out])
        if method in methods:
            scores = scorer(det, logf)
            save_csv(str(want), np.column_stack([np.arange(scores.size, dtype=np.float64),
                                                 scores]), header=["batch_id", "score"])
            assert code == 0 and out.read_bytes() == want.read_bytes()
        else:
            assert code == 1 and not out.exists()
            assert f"error: --method must be one of ['ours', 'fisher'], got '{method}'" \
                in capsys.readouterr().err


def test_score_checksum_mismatch(pipeline, tmp_path, capsys):
    other_model = str(tmp_path / "other")
    assert run(["train", "--data", pipeline["data"], "--model", "gaussian",
                "--epochs", 1, "--batch-size", 32, "--seed", 5,
                "--out", other_model]) == 0
    other_feats = str(tmp_path / "other.csv")
    assert run(["features", "--model", os.path.join(other_model, "model.json"),
                "--data", os.path.join(pipeline["model"], "fit_split.dmat"),
                "--batch-size", 2, "--out", other_feats]) == 0
    code = run(["score", "--detector", pipeline["det"],
                "--features", other_feats, "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "error: model_checksum differs" in capsys.readouterr().err


def test_score_rejects_features_of_another_batch_size(pipeline, tmp_path, capsys):
    """Feature norms grow with the batch size, so a detector fit on
    batches of 5 says nothing about batches of 1."""
    feats = {b: str(tmp_path / f"f{b}.csv") for b in (1, 5)}
    for b, path in feats.items():
        assert run(["features", "--model", os.path.join(pipeline["model"], "model.json"),
                    "--data", os.path.join(pipeline["model"], "fit_split.dmat"),
                    "--batch-size", b, "--out", path]) == 0
    det = str(tmp_path / "det5.json")
    assert run(["fit", "--features", feats[5], "--out", det]) == 0
    out = tmp_path / "s.csv"
    assert run(["score", "--detector", det, "--features", feats[1], "--out", out]) == 1
    err = capsys.readouterr().err
    assert "error: batch_size differs" in err and "Traceback" not in err
    assert not out.exists()


def _manifest_path(out):
    return os.path.join(out, "manifest.json") if os.path.isdir(out) \
        else out + ".manifest.json"


def _argv(command, pipeline):
    """Every flag but --out of a small ``command`` run on the pipeline's
    artifacts."""
    model = os.path.join(pipeline["model"], "model.json")
    fit = os.path.join(pipeline["model"], "fit_split.dmat")
    return {
        "gen-data": ["--dist", "gauss_grid", "--n", 50],
        "train": ["--data", pipeline["data"], "--model", "gaussian", "--epochs", 1,
                  "--batch-size", 32],
        "features": ["--model", model, "--data", fit, "--batch-size", 2],
        "fit": ["--features", pipeline["feats"]],
        "score": ["--detector", pipeline["det"], "--features", pipeline["feats"]],
        "eval": ["--train", f"a={model}:{fit}",
                 "--eval", f"a={os.path.join(pipeline['data'], 'eval.dmat')}",
                 "--eval", f"b={os.path.join(pipeline['data'], 'train.dmat')}",
                 "--batch-sizes", "2", "--n-batches", 5],
        "fim-probe": ["--model", model, "--n", 64],
        "invariance-check": ["--model", model, "--n-points", 5],
        "tv-volume": ["--alpha", 1.0, "--d", 2],
    }[command]


def _run_for_manifest(command, pipeline, out):
    """Run ``command`` on the pipeline's artifacts, or reuse the run the
    fixture made; returns the --out path whose manifest to read."""
    made = {"gen-data": "data", "train": "model", "features": "feats",
            "fit": "det", "score": "scores"}
    if command in made:
        return pipeline[made[command]]
    assert run([command, *_argv(command, pipeline), "--out", out]) == 0
    return out


@pytest.mark.parametrize("command", [
    "gen-data", "train", "features", "fit", "score", "eval", "fim-probe",
    "invariance-check", "tv-volume",
])
def test_every_manifest_records_seed_and_hashes(pipeline, tmp_path, command):
    out = _run_for_manifest(command, pipeline, str(tmp_path / "out"))
    manifest = read_json(_manifest_path(out))
    assert manifest["command"] == command
    seed = manifest["config"]["seed"]
    assert isinstance(seed, int) and not isinstance(seed, bool)
    assert manifest["artifacts"]
    for path, digest in {**manifest["inputs"], **manifest["artifacts"]}.items():
        assert sha256(path) == digest
    if command in ("fit", "score"):
        assert pipeline["feats"] + ".json" in manifest["inputs"]


def test_manifest_inputs_are_exactly_the_files_the_run_read(pipeline, tmp_path):
    feats = pipeline["feats"]
    manifest = read_json(_manifest_path(pipeline["scores"]))
    assert sorted(manifest["inputs"]) == sorted([pipeline["det"], feats, feats + ".json"])
    out = _run_for_manifest("eval", pipeline, str(tmp_path / "out"))
    manifest = read_json(_manifest_path(out))
    assert sorted(manifest["inputs"]) == sorted(
        [os.path.join(pipeline["model"], "model.json"),
         os.path.join(pipeline["model"], "fit_split.dmat"),
         os.path.join(pipeline["data"], "eval.dmat"),
         os.path.join(pipeline["data"], "train.dmat")])
    for path, digest in manifest["inputs"].items():
        assert sha256(path) == digest


def test_manifest_hashes_an_input_as_read_before_the_run_overwrites_it(pipeline,
                                                                      tmp_path):
    out = str(tmp_path / "m")
    assert run(["train", "--data", pipeline["data"], "--model", "gaussian",
                "--epochs", 1, "--batch-size", 32, "--out", out]) == 0
    split = os.path.join(out, "train_split.dmat")
    read = sha256(split)
    assert run(["train", "--data", split, "--model", "gaussian",
                "--epochs", 1, "--batch-size", 32, "--out", out]) == 0
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["inputs"] == {split: read}
    assert manifest["artifacts"][split] == sha256(split)
    assert sha256(split) != read


def test_train_split_without_a_full_batch_exits_1(pipeline, tmp_path, capsys):
    """140 rows keep 14 for fit and leave 126 to train on, short of one
    batch of 128."""
    rows = str(tmp_path / "thin.dmat")
    save_dmat(rows, load_dmat(os.path.join(pipeline["data"], "train.dmat"))[:140])
    out = tmp_path / "m"
    assert run(["train", "--data", rows, "--model", "gaussian",
                "--epochs", 2, "--batch-size", 128, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "126 rows" in err and "128" in err


def test_train_rejects_an_infinite_learning_rate(pipeline, tmp_path, capsys):
    out = tmp_path / "m"
    assert run(["train", "--data", pipeline["data"], "--model", "gaussian",
                "--learning-rate", "inf", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "learning_rate" in err
    assert not out.exists()


def test_score_rejects_nan_feature_cell(pipeline, tmp_path, capsys):
    feats = str(tmp_path / "nan.csv")
    with open(pipeline["feats"]) as fh:
        lines = fh.read().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join(cells[:-1] + ["nan"])
    with open(feats, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    out = tmp_path / "s.csv"
    assert run(["score", "--detector", pipeline["det"], "--features", feats,
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "row 2" in err
    assert not out.exists()


@pytest.mark.parametrize("sidecar", [
    b'{"batch_size": 2', b"[1]", b'{"model_checksum": 5}', b'{"layer_names": "ab"}',
    b"\xff\xfe", None,
    b'{"batch_size": 2, "layer_names": ["mu"], "model_checksum": "c"}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["truncated", "list", "int_checksum", "string_names", "undecodable", "missing",
        "short_names", "nested_too_deep"])
@pytest.mark.parametrize("command", ["fit", "score"])
def test_malformed_features_sidecar_exits_1(pipeline, tmp_path, capsys,
                                            command, sidecar):
    """A features sidecar that is missing, undecodable or not a whole
    provenance record for the CSV's columns is an error naming it."""
    feats = str(tmp_path / "f.csv")
    shutil.copyfile(pipeline["feats"], feats)
    if sidecar is not None:
        with open(feats + ".json", "wb") as fh:
            fh.write(sidecar)
    out = tmp_path / "o"
    argv = ["fit"] if command == "fit" else ["score", "--detector", pipeline["det"]]
    assert run(argv + ["--features", feats, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert "f.csv.json" in err
    assert not out.exists()


@pytest.mark.parametrize("artifact,contents", [
    ("model", b"\xff\xfe"), ("model", b"[1]"),
    ("detector", b"\xff\xfe"), ("detector", b"[1]"),
    ("features", b"\xff\xfe"),
    ("data", b"DMAT" + struct.pack("<IQQ", 1, 0, 1 << 62)),
], ids=["model-bytes", "model-array", "detector-bytes", "detector-array",
        "features-bytes", "data-0x2^62"])
def test_malformed_artifact_exits_1(pipeline, tmp_path, capsys, artifact, contents):
    """Undecodable bytes, a JSON array, or a DMAT header declaring more
    values than an array can hold in a file a command reads is a located
    error, not a traceback (the features sidecar has its own test)."""
    bad = str(tmp_path / f"{artifact}.in")
    with open(bad, "wb") as fh:
        fh.write(contents)
    argv = {
        "model": ["features", "--model", bad,
                  "--data", os.path.join(pipeline["model"], "fit_split.dmat")],
        "detector": ["score", "--detector", bad, "--features", pipeline["feats"]],
        "features": ["fit", "--features", bad],
        "data": ["features", "--model", os.path.join(pipeline["model"], "model.json"),
                 "--data", bad],
    }[artifact]
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert bad in err
    assert not out.exists()


def test_train_data_dir_with_splits_of_different_widths_exits_1(tmp_path, capsys):
    """A gen-data directory whose train and fit splits differ in width is
    refused before they are stacked, naming both files and their shapes."""
    data_dir = tmp_path / "d"
    data_dir.mkdir()
    save_dmat(str(data_dir / "train.dmat"), np.zeros((300, 2)))
    save_dmat(str(data_dir / "fit.dmat"), np.zeros((30, 3)))
    out = tmp_path / "o"
    assert run(["train", "--data", data_dir, "--model", "gaussian", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert "train.dmat' (300, 2)" in err and "fit.dmat' (30, 3)" in err
    assert not out.exists()


@pytest.mark.parametrize("artifact,contents,message", [
    ("model", {"type": "diag_gaussian"}, "malformed checkpoint: 'dims'"),
    ("detector", {"mu": [1, 2], "sigma2": [1], "n_fit": 3},
     "mu and sigma2 must be equal-length vectors"),
    ("detector", {"mu": [1, 2], "sigma2": [1, 1], "n_fit": 3, "model_checksum": "c",
                  "layer_names": ["mu", "log_sigma"]},
     "batch_size must be a positive int"),
], ids=["model-no-dims", "detector-unequal", "detector-no-batch-size"])
def test_invalid_parsed_artifact_names_file(pipeline, tmp_path, capsys, artifact,
                                            contents, message):
    """A model or detector file that parses as JSON but fails validation
    is reported with its path."""
    bad = str(tmp_path / f"{artifact}.json")
    with open(bad, "w") as fh:
        json.dump(contents, fh)
    argv = {
        "model": ["fim-probe", "--model", bad],
        "detector": ["score", "--detector", bad, "--features", pipeline["feats"]],
    }[artifact]
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert bad in err and message in err
    assert not out.exists()


def _features_with_meta(pipeline, tmp_path, **changes):
    """A copy of the pipeline's features whose sidecar has ``changes``."""
    feats = str(tmp_path / "f.csv")
    shutil.copyfile(pipeline["feats"], feats)
    meta = {**read_json(pipeline["feats"] + ".json"), **changes}
    with open(feats + ".json", "w") as fh:
        json.dump(meta, fh)
    return feats


def test_fit_records_layer_names_and_score_accepts_matching_ones(pipeline, tmp_path):
    assert read_json(pipeline["det"])["layer_names"] == ["mu", "log_sigma"]
    feats = _features_with_meta(pipeline, tmp_path, layer_names=["mu", "log_sigma"])
    out = tmp_path / "s.csv"
    assert run(["score", "--detector", pipeline["det"], "--features", feats,
                "--out", out]) == 0
    assert np.array_equal(load_csv(str(out)), load_csv(pipeline["scores"]))


def test_score_rejects_reordered_layer_names(pipeline, tmp_path, capsys):
    feats = _features_with_meta(pipeline, tmp_path, layer_names=["log_sigma", "mu"])
    out = tmp_path / "s.csv"
    assert run(["score", "--detector", pipeline["det"], "--features", feats,
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "layer_names differs" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--batch-sizes", "1,x"),
    ("--batch-sizes", "0"),
    ("--batch-sizes", "5,5"),
    ("--methods", "ours,ours"),
    ("--methods", ""),  # given but empty, unlike the flag left out
    ("--n-batches", "0"),
    ("--train", "a={model}:{fit}"),  # each name may appear once
    ("--eval", "b={ev}"),
    ("--param", "noise=0.3"),  # each generator parameter may appear once
    ("--param", "=3"),  # every NAME=VALUE flag refuses an empty name
    ("--train", "=m:f"),
    ("--train", "a=m"),
    ("--train", "c={model}"),  # MODEL without its FIT_DMAT
    ("--eval", "c"),  # no '='
    ("--train", "x/y={model}:{fit}"),  # the name becomes part of a file name
])
def test_bad_list_values_exit_1(pipeline, tmp_path, capsys, flag, value):
    model = os.path.join(pipeline["model"], "model.json")
    fit = os.path.join(pipeline["model"], "fit_split.dmat")
    ev = os.path.join(pipeline["data"], "eval.dmat")
    if flag == "--param":
        argv = ["gen-data", "--dist", "two_moons", "--n", 50,
                "--param", "noise=0.1"]
    else:
        argv = ["eval", "--train", f"a={model}:{fit}", "--eval", f"a={ev}",
                "--eval", f"b={ev}"]
    value = value.format(model=model, fit=fit, ev=ev)
    assert run(argv + [flag, value, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1
    assert flag in err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("argv, flag", [
    (["features", "--model", "m.json", "--data", "d.dmat", "--batch-size", 0], "--batch-size"),
    (["train", "--data", "d.dmat", "--batch-size", 0], "--batch-size"),
    (["train", "--data", "d.dmat", "--epochs", -1], "--epochs"),
    (["train", "--data", "d.dmat", "--n-blocks", 0], "--n-blocks"),
    (["train", "--data", "d.dmat", "--hidden", 0], "--hidden"),
    (["eval", "--n-batches", 0], "--n-batches"),
    (["fim-probe", "--model", "m.json", "--n", 0], "--n"),
    (["invariance-check", "--model", "m.json", "--n-points", 0], "--n-points"),
    (["gen-data", "--dist", "two_moons", "--n", 0], "--n"),
    (["tv-volume", "--alpha", 1.0, "--d", 0], "--d"),
    (["tv-volume", "--alpha", 1.0, "--d", 2, "--mc", -5], "--mc"),
])
def test_count_flag_below_its_lowest_value_exits_1(tmp_path, capsys, argv, flag):
    """Every count flag is checked before its subcommand reads a file, and
    the one-line refusal names the flag."""
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be >= ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["fit", "score"])
def test_failed_write_leaves_no_tmp_file(pipeline, tmp_path, command):
    taken = tmp_path / "taken"
    taken.mkdir()  # the final rename onto a directory fails
    argv = ["fit"] if command == "fit" else ["score", "--detector", pipeline["det"]]
    assert run(argv + ["--features", pipeline["feats"], "--out", taken]) == 1
    assert os.listdir(tmp_path) == ["taken"]


def test_fim_probe(pipeline):
    out = str(pipeline["root"] / "fim")
    assert run(["fim-probe", "--model",
                os.path.join(pipeline["model"], "model.json"),
                "--n", 256, "--seed", 0, "--out", out]) == 0
    side = read_json(os.path.join(out, "fim.json"))
    assert sorted(side["layers"]) == ["log_sigma", "mu"]
    raw = load_csv(os.path.join(out, "fim.csv"))
    norm = load_csv(os.path.join(out, "fim_normalized.csv"))
    assert raw.shape == norm.shape
    assert np.max(np.abs(np.diag(norm) - 1.0)) < 1e-12
    assert 0.0 <= side["offdiag_mean"] <= 1.0


def test_fim_probe_checkpoint_without_layers_exits_1(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    with open(model, "w") as fh:
        json.dump({"type": "diag_gaussian", "dims": 1, "hyper": {}, "layers": []}, fh)
    assert run(["fim-probe", "--model", model, "--out", tmp_path / "fim"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "'mu'" in err


def test_invariance_check(pipeline):
    out = str(pipeline["root"] / "inv")
    assert run(["invariance-check", "--model",
                os.path.join(pipeline["model"], "model.json"),
                "--transform", "scale_shift", "--n-points", 10,
                "--seed", 2, "--out", out]) == 0
    rep = read_json(os.path.join(out, "invariance.json"))
    assert rep["pass"] is True
    assert rep["max_grad_discrepancy"] <= 1e-10


def test_invariance_check_names_a_point_the_transform_overflows(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    save_model(DiagGaussianModel(np.array([800.0, 0.0]), np.zeros(2)), model)
    out = tmp_path / "o"
    assert run(["invariance-check", "--model", model, "--transform", "exp",
                "--out", out]) == 1
    assert capsys.readouterr().err == ("error: the transform maps point 0 to a "
                                       "non-finite value\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["invariance-check", "--transform", "scale_shift", "--n-points", 0],
    ["invariance-check", "--transform", "scale_shift", "--n-points", -3],
    ["features", "--data", "fit_split.dmat", "--batch-size", 100_000],
])
def test_empty_point_or_batch_set_exits_1(pipeline, tmp_path, capsys, argv):
    model_dir = pipeline["model"]
    argv = [os.path.join(model_dir, a) if a == "fit_split.dmat" else a for a in argv]
    out = tmp_path / "o"
    assert run(argv + ["--model", os.path.join(model_dir, "model.json"),
                       "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_eval_grid_and_determinism(tmp_path):
    data_a = str(tmp_path / "a")
    data_b = str(tmp_path / "b")
    run(["gen-data", "--dist", "uniform_square", "--n", 300, "--seed", 1,
         "--out", data_a])
    run(["gen-data", "--dist", "gauss_grid", "--n", 300, "--seed", 2,
         "--out", data_b])
    model_a = str(tmp_path / "ma")
    run(["train", "--data", data_a, "--model", "gaussian", "--epochs", 2,
         "--batch-size", 32, "--seed", 0, "--out", model_a])

    def do_eval(out):
        assert run([
            "eval",
            "--train", f"sq={os.path.join(model_a, 'model.json')}:"
                       f"{os.path.join(model_a, 'fit_split.dmat')}",
            "--eval", f"sq={os.path.join(data_a, 'eval.dmat')}",
            "--eval", f"grid={os.path.join(data_b, 'eval.dmat')}",
            "--batch-sizes", "1,2", "--n-batches", 10, "--seed", 4,
            "--out", out,
        ]) == 0
        return out

    out1, out2 = do_eval(str(tmp_path / "e1")), do_eval(str(tmp_path / "e2"))
    rep = read_json(os.path.join(out1, "report_sq.json"))
    assert {r["method"] for r in rep["rows"]} == {"ours", "fisher",
                                                  "typicality", "likelihood"}
    grid = open(os.path.join(out1, "grid_ours_B2.txt")).read()
    assert "method=ours B=2" in grid and "grid" in grid
    # reruns with the same inputs and seed are byte-identical
    for name in ("report_sq.json", "grid_ours_B1.txt", "grid_likelihood_B2.txt"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b


def test_eval_records_every_method_by_default(pipeline, tmp_path):
    out = _run_for_manifest("eval", pipeline, str(tmp_path / "out"))
    config = read_json(_manifest_path(out))["config"]
    assert config["methods"] == ",".join(evaluation.METHODS)


def test_eval_writes_only_the_requested_methods(pipeline, tmp_path):
    model = os.path.join(pipeline["model"], "model.json")
    fit = os.path.join(pipeline["model"], "fit_split.dmat")
    out = str(tmp_path / "e")
    assert run(["eval", "--train", f"a={model}:{fit}",
                "--eval", f"a={os.path.join(pipeline['data'], 'eval.dmat')}",
                "--eval", f"b={os.path.join(pipeline['data'], 'train.dmat')}",
                "--methods", "likelihood", "--batch-sizes", "1,2", "--n-batches", 10,
                "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["grid_likelihood_B1.txt", "grid_likelihood_B2.txt",
                                       "manifest.json", "report_a.json"]
    rows = read_json(os.path.join(out, "report_a.json"))["rows"]
    assert [r["method"] for r in rows] == ["likelihood"] * 2
    assert all(0.0 <= r["auroc"] <= 1.0 for r in rows)


def test_eval_skips_only_the_cells_of_a_split_with_a_non_finite_score(pipeline, tmp_path):
    """An eval row with a finite input but a log-likelihood of -inf: eval
    exits 0, writes every report and grid, and shows that split's cells
    as skipped."""
    model = os.path.join(pipeline["model"], "model.json")
    fit = os.path.join(pipeline["model"], "fit_split.dmat")
    ev = os.path.join(pipeline["data"], "eval.dmat")
    bad = load_dmat(ev)[:10]  # every row is read at B = 1 and 2
    bad[3] = (1e200, 0.0)
    save_dmat(str(tmp_path / "bad.dmat"), bad)
    out = tmp_path / "e"
    assert run(["eval", "--train", f"a={model}:{fit}", "--eval", f"a={ev}",
                "--eval", f"b={os.path.join(pipeline['data'], 'train.dmat')}",
                "--eval", f"c={tmp_path / 'bad.dmat'}", "--methods", "likelihood",
                "--batch-sizes", "1,2", "--n-batches", 10, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["grid_likelihood_B1.txt", "grid_likelihood_B2.txt",
                                       "manifest.json", "report_a.json"]
    rows = read_json(out / "report_a.json")["rows"]
    assert all((row["auroc"] is None) == (row["test"] == "c") for row in rows)
    for b in (1, 2):
        lines = (out / f"grid_likelihood_B{b}.txt").read_text().splitlines()
        assert lines[-1].split() == ["c", "|", "-----"]
        assert lines[-2].split()[:2] == ["b", "|"] and "-----" not in lines[-2]


def test_eval_strips_entries_and_takes_the_eval_path_whole(pipeline, tmp_path):
    """--train and --eval entries are stripped around '=' and at both ends,
    and an --eval path may hold ':'; the report equals the plain spelling's."""
    model = os.path.join(pipeline["model"], "model.json")
    fit = os.path.join(pipeline["model"], "fit_split.dmat")
    ev = os.path.join(pipeline["data"], "eval.dmat")
    colon = str(tmp_path / "b:eval.dmat")
    shutil.copyfile(ev, colon)
    common = ["eval", "--eval", f"a={ev}", "--methods", "likelihood,ours",
              "--batch-sizes", 2, "--n-batches", 10]
    assert run(common + ["--train", f"a={model}:{fit}", "--eval", f"b={ev}",
                         "--out", tmp_path / "plain"]) == 0
    assert run(common + ["--train", f" a = {model}:{fit} ", "--eval", f" b = {colon} ",
                         "--out", tmp_path / "padded"]) == 0
    report = read_json(tmp_path / "padded" / "report_a.json")
    assert {r["test"] for r in report["rows"]} == {"b"}
    assert report == read_json(tmp_path / "plain" / "report_a.json")


def test_seed_resolution(tmp_path, monkeypatch):
    """--seed is the only source of the seed: 0 without the flag, and an
    environment variable named like it changes nothing."""
    out = str(tmp_path / "default")
    assert run(["gen-data", "--dist", "rings", "--n", 50, "--out", out]) == 0
    assert read_json(os.path.join(out, "manifest.json"))["config"]["seed"] == 0

    out2 = str(tmp_path / "flag")
    assert run(["gen-data", "--dist", "rings", "--n", 50, "--seed", 3,
                "--out", out2]) == 0
    assert read_json(os.path.join(out2, "manifest.json"))["config"]["seed"] == 3

    monkeypatch.setenv("FIMSCORE_SEED", "oops")
    out3 = str(tmp_path / "env")
    assert run(["gen-data", "--dist", "rings", "--n", 50, "--out", out3]) == 0
    assert read_json(os.path.join(out3, "manifest.json"))["config"]["seed"] == 0


def test_write_into_a_missing_directory_names_the_out_path(pipeline, tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "f.csv"
    assert run(["features", *_argv("features", pipeline), "--out", out]) == 1
    assert capsys.readouterr().err == \
        f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert os.listdir(tmp_path) == []


def test_missing_file_is_exit_1(tmp_path, capsys):
    code = run(["features", "--model", str(tmp_path / "nope.json"),
                "--data", str(tmp_path / "nope.dmat"),
                "--out", str(tmp_path / "f.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path, capsys):
    for flag in ("--seedd", "--config"):
        with pytest.raises(SystemExit) as exc:
            run(["gen-data", "--dist", "rings", "--n", "50",
                 "--out", str(tmp_path / "o"), flag, "x"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "fimscore.cli", "tv-volume", "--alpha", "1.0",
         "--d", "2"],
        capture_output=True, text=True, env=src_env())
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert abs(obj["log_volume"] - math.log(2.0)) < 1e-12


CORE_MODULES = {"fimscore", "fimscore.cli", "fimscore.data", "fimscore.errors",
                "fimscore.numcore"}

# Run by a fresh interpreter: the subcommand in argv, if any, through
# cli.main, then a last line naming every fimscore module loaded.
_LOADED = """\
import sys
from fimscore import cli
if sys.argv[1:] and cli.main(sys.argv[1:]) != 0:
    sys.exit(1)
print(" ".join(m for m in sys.modules if m.partition(".")[0] == "fimscore"))
"""


def loaded_modules(argv):
    out = subprocess.run([sys.executable, "-c", _LOADED, *map(str, argv)],
                         capture_output=True, text=True, env=src_env())
    assert out.returncode == 0, out.stderr
    return set(out.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_only_the_core():
    assert loaded_modules([]) == CORE_MODULES


_SCORING = ("models", "gradfeatures", "detector", "baselines", "evaluation")
# the fimscore modules each subcommand loads beyond CORE_MODULES
_RUNS = {
    "gen-data": (),
    "train": ("models", "trainer"),
    "features": ("models", "gradfeatures"),
    "fit": ("models", "gradfeatures", "detector"),
    "score": _SCORING,
    "eval": _SCORING,
    "fim-probe": ("models", "fim"),
    "invariance-check": ("models", "representation"),
    "tv-volume": ("models", "representation"),
}


@pytest.mark.parametrize("command", list(_RUNS))
def test_each_subcommand_loads_only_the_modules_it_runs(pipeline, tmp_path, command):
    argv = [command, *_argv(command, pipeline), "--out", tmp_path / "out"]
    assert loaded_modules(argv) == CORE_MODULES | {f"fimscore.{m}" for m in _RUNS[command]}
