"""Command-line pipeline: data, training, features, scoring, probes.

Flags are the only source of a value; --seed defaults to 0. main runs
the subcommand, which returns its summary line, inside
``data.recording()``, so every file the run read or wrote is noted with
the SHA-256 of its bytes as read or written. main then writes a manifest
under --out (every flag value, the seed included, plus those input and
artifact digests) so a run can be audited and reproduced, and prints
the summary. Exit codes: 0 success, 1 domain error (bad values, missing
or malformed files), 2 usage error.

Only numpy, data, errors and numcore load with this module; each
subcommand imports the modules it runs when it is run, so a process
loads only what its one subcommand needs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, data
from .errors import DomainError, FimscoreError, reject_repeats, require_int
from .numcore import Rng


def _write_manifest(args: argparse.Namespace, record: dict) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "command": args.command,
        "package_version": __version__,
        "config": config,
        **record,
    }
    path = os.path.join(args.out, "manifest.json") if os.path.isdir(args.out) \
        else args.out + ".manifest.json"
    data.write_atomic(path, data.json_text(manifest))


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if ":" in text:
        try:
            return tuple(float(p) for p in text.split(":"))
        except ValueError:
            pass
    raise DomainError(f"cannot parse parameter value {text!r}")


def _parse_named(items, flag: str) -> dict:
    """{NAME: TEXT} of a flag's NAME=TEXT entries, both stripped; a missing
    '=', an empty NAME or a NAME given twice is refused naming the flag."""
    out = {}
    for item in items or []:
        name, eq, text = (part.strip() for part in item.partition("="))
        if not eq or not name:
            raise DomainError(f"{flag} expects NAME=VALUE, got {item!r}")
        if name in out:
            raise DomainError(f"{flag} names {name!r} twice")
        out[name] = text
    return out


def _cmd_gen_data(args):
    params = {k: _parse_value(v) for k, v in _parse_named(args.param, "--param").items()}
    try:
        ds = data.generate(args.dist, args.n, args.seed, **params)
    except TypeError as exc:
        raise DomainError(f"bad parameters for '{args.dist}': {exc}") from exc
    out = _ensure_dir(args.out)
    paths = {tag: os.path.join(out, f"{tag}.dmat") for tag in ("train", "fit", "eval")}
    for tag, path in paths.items():
        data.save_dmat(path, ds.rows(tag))
    return f"wrote {', '.join(paths.values())}"


def _cmd_train(args):
    from . import models as M, trainer
    # --data is a gen-data directory, whose train and fit splits are
    # stacked, or one DMAT file
    if os.path.isdir(args.data):
        train, fit = (os.path.join(args.data, f"{t}.dmat") for t in ("train", "fit"))
        rows = [data.load_dmat(p) for p in (train, fit)]
        if rows[0].shape[1] != rows[1].shape[1]:
            raise DomainError(f"'{train}' {rows[0].shape}, '{fit}' {rows[1].shape}: widths differ")
        rows = np.vstack(rows)
    else:
        rows = data.load_dmat(args.data)
    dim = rows.shape[1]
    if args.model == "gaussian":
        model = M.DiagGaussianModel.standard(dim)
    else:
        # child(0) is never touched by the trainer (it uses the root for the
        # split and children 1..epochs for batch order), so it seeds the init
        model = M.CouplingFlowModel.init_random(
            dim, Rng(args.seed).child(0), n_blocks=args.n_blocks, hidden=args.hidden)
    cfg = trainer.TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.learning_rate, seed=args.seed,
    )
    result = trainer.train(model, rows, cfg)
    out = _ensure_dir(args.out)
    M.save_model(result.model, os.path.join(out, "model.json"))
    curve = [[0.0, result.initial_loglik]] + [
        [float(e + 1), v] for e, v in enumerate(result.loss_curve)
    ]
    data.save_csv(os.path.join(out, "loss_curve.csv"), np.asarray(curve),
                  header=["epoch", "mean_loglik"])
    data.save_dmat(os.path.join(out, "train_split.dmat"), result.train_rows)
    data.save_dmat(os.path.join(out, "fit_split.dmat"), result.fit_rows)
    final = result.loss_curve[-1] if result.loss_curve else result.initial_loglik
    return (f"trained {args.model}: mean log-likelihood "
            f"{result.initial_loglik:.4f} -> {final:.4f}")


def _require_dim(flag: str, path: str, rows: np.ndarray, model) -> None:
    if rows.shape[1] != model.dim:
        raise DomainError(f"{flag} '{path}' has {rows.shape[1]} columns, but the "
                          f"model is {model.dim}-dimensional")


def _cmd_features(args):
    from . import gradfeatures, models as M
    model = M.load_model(args.model)
    rows = data.load_dmat(args.data)
    _require_dim("--data", args.data, rows, model)
    batches = gradfeatures.batch_view(rows, args.batch_size, f"--data '{args.data}'")
    feats = gradfeatures.feature_sweep(model, batches.reshape(-1, model.dim), [args.batch_size])[0]
    provenance = {
        "model_checksum": M.model_checksum(model),
        "batch_size": args.batch_size,
        "layer_names": list(model.params.names),
    }
    gradfeatures.save_features(args.out, feats, provenance)
    return f"wrote {feats.shape[0]} x {feats.shape[1]} features to {args.out}"


def _cmd_fit(args):
    from . import detector, gradfeatures
    feats, provenance = gradfeatures.load_features(args.features)
    det = detector.fit_detector(gradfeatures.log_features(feats))
    detector.save_detector(det, args.out, provenance)
    return f"fit detector on {det.n_fit} batches -> {args.out}"


def _cmd_score(args):
    from . import detector, evaluation, gradfeatures
    methods = {m: e[2] for m, e in evaluation.METHODS.items() if e[0] == "detector"}
    if args.method not in methods:  # a detector file holds no other fit
        raise DomainError(f"--method must be one of {list(methods)}, got {args.method!r}")
    det, fit_provenance = detector.load_detector(args.detector)
    feats, provenance = gradfeatures.load_features(args.features)
    for key, want in fit_provenance.items():
        if provenance[key] != want:
            raise DomainError(f"{key} differs: the detector was fit on {want!r}, "
                              f"the features have {provenance[key]!r}")
    scores = methods[args.method](det, gradfeatures.log_features(feats))
    table = np.column_stack([np.arange(scores.size, dtype=np.float64), scores])
    data.save_csv(args.out, table, header=["batch_id", "score"])
    return f"scored {scores.shape[0]} batches with method={args.method}"


def _cmd_eval(args):
    from . import evaluation, models as M
    if args.methods is None:
        args.methods = ",".join(evaluation.METHODS)
    try:
        batch_sizes = [int(p) for p in args.batch_sizes.split(",")]
    except ValueError as exc:
        raise DomainError(f"--batch-sizes expects comma-separated int values, "
                          f"got {args.batch_sizes!r}") from exc
    batch_sizes = [require_int(b, "--batch-sizes", 1) for b in batch_sizes]
    reject_repeats(batch_sizes, "--batch-sizes")
    methods = tuple(m.strip() for m in args.methods.split(","))
    unknown = [m for m in methods if m not in evaluation.METHODS]
    if unknown:
        raise DomainError(f"--methods names unknown methods {unknown}")
    reject_repeats(methods, "--methods")
    trains = _parse_named(args.train, "--train")
    for name, text in trains.items():
        if "/" in name or os.sep in name:  # the name is part of its report's file name
            raise DomainError(f"--train name {name!r} must not contain a path separator")
        trains[name] = text.split(":")
        if len(trains[name]) != 2:
            raise DomainError(f"--train {name} expects MODEL:FIT_DMAT, got {text!r}")
    evals = _parse_named(args.eval, "--eval")
    if not trains or len(evals) < 2:
        raise DomainError("need at least one --train and two --eval entries")
    train_entries = {name: (M.load_model(model_path), data.load_dmat(fit_path))
                     for name, (model_path, fit_path) in trains.items()}
    eval_splits = {name: data.load_dmat(path) for name, path in evals.items()}
    for train_name, (model, fit_rows) in train_entries.items():
        _require_dim("--train", trains[train_name][1], fit_rows, model)
        for name, path in evals.items():
            _require_dim("--eval", path, eval_splits[name], model)
    reports = evaluation.run_pairings(
        train_entries, eval_splits, batch_sizes=batch_sizes,
        n_eval_batches=args.n_batches, methods=methods, seed=args.seed,
    )
    out = _ensure_dir(args.out)
    for rep in reports:
        data.write_atomic(os.path.join(out, f"report_{rep.train}.json"), rep.to_json())
    for m in methods:
        for b in batch_sizes:
            data.write_atomic(os.path.join(out, f"grid_{m}_B{b}.txt"),
                              evaluation.render_grid(reports, m, b))
    n_files = len(reports) + len(methods) * len(batch_sizes)
    return f"wrote {n_files} report/grid files to {out}"


def _cmd_fim_probe(args):
    from . import fim, models as M
    model = M.load_model(args.model)
    root = Rng(args.seed)
    if args.layers:
        layers = [p.strip() for p in args.layers.split(",") if p.strip()]
    else:
        names = model.params.names
        k = min(fim.MAX_PROBE_LAYERS, len(names))
        layers = [names[int(i)] for i in root.child(0).permutation(len(names))[:k]]
    sl = fim.mc_fim_slice(model, layers, root, args.n)
    normalized = fim.normalize_fim(sl.matrix)
    diag_mean, offdiag_mean = fim.diag_dominance(normalized)
    out = _ensure_dir(args.out)
    data.save_csv(os.path.join(out, "fim.csv"), sl.matrix)
    data.save_csv(os.path.join(out, "fim_normalized.csv"), normalized)
    data.write_atomic(os.path.join(out, "fim.json"), data.json_text({
        "layers": layers,
        "weight_map": [[name, idx] for name, idx in sl.weight_map],
        "n_samples": sl.n_samples,
        "model_checksum": M.model_checksum(model),
        "diag_mean": diag_mean,
        "offdiag_mean": offdiag_mean,
    }))
    return (f"probed layers {layers}: diag mean {diag_mean:.4f}, "
            f"off-diagonal mean {offdiag_mean:.4f}")


# --transform name -> constructor of the transform from (representation
# module, dim, rng)
_TRANSFORMS = {
    "identity": lambda R, dim, rng: R.identity_transform(dim),
    "scale_shift": lambda R, dim, rng: R.scale_shift_transform(dim),
    "affine": lambda R, dim, rng: R.random_affine(dim, rng),
    "exp": lambda R, dim, rng: R.ElementwiseMonotone("exp"),
    "tanh_warp": lambda R, dim, rng: R.ElementwiseMonotone("tanh_warp"),
}


def _cmd_invariance_check(args):
    from . import models as M, representation as R
    model = M.load_model(args.model)
    root = Rng(args.seed)
    transform = _TRANSFORMS[args.transform](R, model.dim, root.child(1))
    points = M.sample(model, root.child(2), args.n_points)
    report = R.check_gradient_invariance(model, transform, points)
    tol_grad, tol_ll = 1e-10, 1e-9
    passed = (report["max_grad_discrepancy"] <= tol_grad
              and report["max_loglik_residual"] <= tol_ll)
    out = _ensure_dir(args.out)
    data.write_atomic(os.path.join(out, "invariance.json"), data.json_text({
        "model_checksum": M.model_checksum(model),
        "transform": args.transform,
        "n_points": args.n_points,
        "tolerances": {"grad": tol_grad, "loglik": tol_ll},
        "max_grad_discrepancy": report["max_grad_discrepancy"],
        "max_loglik_residual": report["max_loglik_residual"],
        "pass": passed,
    }))
    return (f"invariance under {args.transform}: "
            f"grad discrepancy {report['max_grad_discrepancy']:.3e}, "
            f"{'PASS' if passed else 'FAIL'}")


def _cmd_tv_volume(args):
    from . import representation as R
    log_vol = R.tv_log_volume(args.alpha, args.d)
    obj = {
        "alpha": args.alpha,
        "d": args.d,
        "log_volume": log_vol,
        "log10_volume": log_vol / math.log(10.0),
    }
    if args.mc:
        vol, se = R.tv_volume_mc(args.alpha, args.d, Rng(args.seed), args.mc)
        obj["mc_volume"] = vol
        obj["mc_se"] = se
    text = data.json_text(obj)
    if args.out:
        data.write_atomic(args.out, text)
    return text.rstrip("\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fimscore",
        description="Gradient-based OOD detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample a synthetic distribution")
    p.add_argument("--dist", required=True, choices=sorted(data.GENERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="generator parameter; tuples as v1:v2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="fit a model by maximum likelihood")
    p.add_argument("--data", required=True,
                   help="DMAT file or gen-data output directory")
    p.add_argument("--model", choices=("flow", "gaussian"), default="flow")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--n-blocks", type=int, default=6)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("features", help="gradient-norm features per batch")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="DMAT file of points")
    p.add_argument("--batch-size", type=int, default=5)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("fit", help="fit the Gaussian detector on features")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output detector JSON path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("score", help="score feature batches with a detector")
    p.add_argument("--detector", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--method", default="ours", help="a detector method of evaluation.METHODS")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="AUROC grid over distribution pairings")
    p.add_argument("--train", action="append", metavar="NAME=MODEL:FIT_DMAT")
    p.add_argument("--eval", action="append", metavar="NAME=EVAL_DMAT")
    p.add_argument("--batch-sizes", default="1,5")
    p.add_argument("--n-batches", type=int, default=200)
    p.add_argument("--methods", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fim-probe", help="Monte Carlo FIM slice of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--layers", default="",
                   help="comma-separated layer names (default: 2 seeded picks)")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fim_probe)

    p = sub.add_parser("invariance-check",
                       help="verify gradients ignore re-parameterization")
    p.add_argument("--model", required=True)
    p.add_argument("--transform", default="affine", choices=tuple(_TRANSFORMS))
    p.add_argument("--n-points", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_invariance_check)

    p = sub.add_parser("tv-volume", help="log-volume of a total-variation ball")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mc", type=int, default=0,
                   help="Monte Carlo cross-check sample count (small d only)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tv_volume)
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    return parser


_COUNT_FLAGS = {"n": 1, "epochs": 0, "batch_size": 1, "n_blocks": 1, "hidden": 1,
                "n_batches": 1, "n_points": 1, "d": 1, "mc": 0}  # count flags' lowest values


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for dest, low in _COUNT_FLAGS.items():  # before any file is read; absent reads as low
            require_int(getattr(args, dest, low), "--" + dest.replace("_", "-"), low)
        with data.recording() as record:
            summary = args.func(args)
        if args.out:
            _write_manifest(args, record)
        print(summary)
        return 0
    except (FimscoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
