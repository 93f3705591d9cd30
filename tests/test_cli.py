import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import fimscore
from fimscore import cli
from fimscore.data import load_csv, load_dmat, save_dmat


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
])
def test_gen_data_non_finite_exits_1(tmp_path, capsys, dist, param):
    out = tmp_path / "d"
    assert run(["gen-data", "--dist", dist, "--n", 100, "--param", param,
                "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error:")
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
        assert cli._sha256(path) == digest


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


def test_score_csv_schema(pipeline):
    table = load_csv(pipeline["scores"])
    feats = load_csv(pipeline["feats"])
    assert table.shape == (feats.shape[0], 2)
    assert np.array_equal(table[:, 0], np.arange(table.shape[0], dtype=float))
    with open(pipeline["scores"]) as fh:
        assert fh.readline().strip() == "batch_id,score"
    assert np.all(np.isfinite(table[:, 1]))


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
    assert "checksum mismatch" in capsys.readouterr().err


def _manifest_path(out):
    return os.path.join(out, "manifest.json") if os.path.isdir(out) \
        else out + ".manifest.json"


def _run_for_manifest(command, pipeline, out):
    """Run ``command`` on the pipeline's artifacts, or reuse the run the
    fixture made; returns the --out path whose manifest to read."""
    made = {"gen-data": "data", "train": "model", "features": "feats",
            "fit": "det", "score": "scores"}
    if command in made:
        return pipeline[made[command]]
    model = os.path.join(pipeline["model"], "model.json")
    argv = {
        "eval": ["--train", f"a={model}:"
                 f"{os.path.join(pipeline['model'], 'fit_split.dmat')}",
                 "--eval", f"a={os.path.join(pipeline['data'], 'eval.dmat')}",
                 "--eval", f"b={os.path.join(pipeline['data'], 'train.dmat')}",
                 "--batch-sizes", "2", "--n-batches", 5],
        "fim-probe": ["--model", model, "--n", 64],
        "invariance-check": ["--model", model, "--n-points", 5],
        "tv-volume": ["--alpha", 1.0, "--d", 2],
    }[command]
    assert run([command, *argv, "--out", out]) == 0
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
        assert cli._sha256(path) == digest


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


@pytest.mark.parametrize("sidecar", [b'{"batch_size": 2', b"[1]", b'{"model_checksum": 5}',
                                     b'{"layer_names": "ab"}', b"\xff\xfe"],
                         ids=["truncated", "list", "int_checksum", "string_names",
                              "undecodable"])
@pytest.mark.parametrize("command", ["fit", "score"])
def test_malformed_features_sidecar_exits_1(pipeline, tmp_path, capsys,
                                            command, sidecar):
    feats = str(tmp_path / "f.csv")
    shutil.copyfile(pipeline["feats"], feats)
    with open(feats + ".json", "wb") as fh:
        fh.write(sidecar)
    out = tmp_path / "o"
    argv = ["fit"] if command == "fit" else ["score", "--detector", pipeline["det"]]
    assert run(argv + ["--features", feats, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "f.csv.json" in err
    assert not out.exists()


@pytest.mark.parametrize("artifact,contents", [
    ("model", b"\xff\xfe"), ("model", b"[1]"),
    ("detector", b"\xff\xfe"), ("detector", b"[1]"),
    ("features", b"\xff\xfe"), ("config", b"\xff\xfe"),
], ids=["model-bytes", "model-array", "detector-bytes", "detector-array",
        "features-bytes", "config-bytes"])
def test_malformed_artifact_exits_1(pipeline, tmp_path, capsys, artifact, contents):
    """Undecodable bytes or a JSON array in a file a command reads is a
    located error, not a traceback (the features sidecar has its own test)."""
    bad = str(tmp_path / f"{artifact}.in")
    with open(bad, "wb") as fh:
        fh.write(contents)
    argv = {
        "model": ["features", "--model", bad,
                  "--data", os.path.join(pipeline["model"], "fit_split.dmat")],
        "detector": ["score", "--detector", bad, "--features", pipeline["feats"]],
        "features": ["fit", "--features", bad],
        "config": ["fit", "--config", bad, "--features", pipeline["feats"]],
    }[artifact]
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert bad in err
    assert not out.exists()


@pytest.mark.parametrize("artifact,contents,message", [
    ("model", {"type": "diag_gaussian"}, "malformed checkpoint: 'dims'"),
    ("detector", {"mu": [1, 2], "sigma2": [1], "n_fit": 3},
     "mu and sigma2 must be equal-length vectors"),
], ids=["model-no-dims", "detector-unequal"])
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
    assert "layer names differ" in err
    assert not out.exists()


def test_score_with_detector_file_without_layer_names(pipeline, tmp_path):
    """A detector written before layer names were recorded still scores."""
    obj = read_json(pipeline["det"])
    del obj["layer_names"]
    det = str(tmp_path / "old.json")
    with open(det, "w") as fh:
        json.dump(obj, fh)
    feats = _features_with_meta(pipeline, tmp_path, layer_names=["log_sigma", "mu"])
    out = tmp_path / "s.csv"
    assert run(["score", "--detector", det, "--features", feats, "--out", out]) == 0
    assert np.array_equal(load_csv(str(out)), load_csv(pipeline["scores"]))


@pytest.mark.parametrize("flag,value", [
    ("--batch-sizes", "1,x"),
    ("--batch-sizes", "0"),
    ("--batch-sizes", "5,5"),
    ("--methods", "ours,ours"),
    ("--n-batches", "0"),
    ("--train", "a={model}:{fit}"),  # each name may appear once
    ("--eval", "b={ev}"),
])
def test_bad_list_values_exit_1(pipeline, tmp_path, capsys, flag, value):
    model = os.path.join(pipeline["model"], "model.json")
    fit = os.path.join(pipeline["model"], "fit_split.dmat")
    ev = os.path.join(pipeline["data"], "eval.dmat")
    argv = ["eval", "--train", f"a={model}:{fit}", "--eval", f"a={ev}",
            "--eval", f"b={ev}"]
    value = value.format(model=model, fit=fit, ev=ev)
    assert run(argv + [flag, value, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


def test_config_file_and_flag_precedence(tmp_path):
    data_dir = str(tmp_path / "d")
    run(["gen-data", "--dist", "uniform_square", "--n", 200, "--seed", 0,
         "--out", data_dir])
    cfg = str(tmp_path / "train.cfg")
    with open(cfg, "w") as fh:
        fh.write("# trainer settings\nepochs = 3\nbatch_size = 25\n"
                 "model = gaussian\nlearning_rate = 0.05\n")
    out1 = str(tmp_path / "m1")
    assert run(["train", "--data", data_dir, "--config", cfg,
                "--out", out1]) == 0
    m1 = read_json(os.path.join(out1, "manifest.json"))
    assert m1["config"]["epochs"] == 3
    assert m1["config"]["batch_size"] == 25

    out2 = str(tmp_path / "m2")
    assert run(["train", "--data", data_dir, "--config", cfg, "--epochs", 1,
                "--out", out2]) == 0
    m2 = read_json(os.path.join(out2, "manifest.json"))
    assert m2["config"]["epochs"] == 1  # explicit flag beats config
    curve = load_csv(os.path.join(out2, "loss_curve.csv"))
    assert curve.shape[0] == 2


def test_config_file_errors(tmp_path, capsys):
    cfg = str(tmp_path / "bad.cfg")
    with open(cfg, "w") as fh:
        fh.write("epochs\n")
    assert run(["train", "--data", "x.dmat", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 1
    assert "key=value" in capsys.readouterr().err


def test_seed_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("FIMSCORE_SEED", "11")
    out = str(tmp_path / "env")
    run(["gen-data", "--dist", "rings", "--n", 50, "--out", out])
    assert read_json(os.path.join(out, "manifest.json"))["config"]["seed"] == 11

    out2 = str(tmp_path / "flag")
    run(["gen-data", "--dist", "rings", "--n", 50, "--seed", 3, "--out", out2])
    assert read_json(os.path.join(out2, "manifest.json"))["config"]["seed"] == 3

    monkeypatch.setenv("FIMSCORE_SEED", "oops")
    assert run(["gen-data", "--dist", "rings", "--n", 50,
                "--out", str(tmp_path / "z")]) == 1


def test_missing_file_is_exit_1(tmp_path, capsys):
    code = run(["features", "--model", str(tmp_path / "nope.json"),
                "--data", str(tmp_path / "nope.dmat"),
                "--out", str(tmp_path / "f.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_suggests_and_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen-data", "--dist", "rings", "--n", "50",
             "--out", str(tmp_path / "o"), "--seedd", "4"])
    assert exc.value.code == 2
    assert "did you mean --seed?" in capsys.readouterr().err


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
