"""Command-line pipeline: data, training, features, scoring, probes.

Subcommands write their artifacts under --out together with a manifest
(config echo plus SHA-256 of every input and artifact) so a run can be
audited and reproduced. Exit codes: 0 success, 1 domain error (bad
values, missing or malformed files), 2 usage error.

A flat key=value config file can supply any flag of the invoked
subcommand via --config; explicit command-line flags win over the file.
Keys use the flag name without the leading dashes ('-' or '_' both
accepted). Unknown keys are usage errors. The seed is resolved as:
--seed flag, then config, then the FIMSCORE_SEED environment variable,
then 0.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, baselines, data, detector, evaluation, fim, gradfeatures
from . import models as M
from . import representation as R
from . import trainer
from .errors import DomainError, FimscoreError
from .numcore import Rng


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out: str, command: str, args: argparse.Namespace,
                    inputs, artifacts) -> str:
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "config") and not k.startswith("_")
    }
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": config,
        "inputs": {p: _sha256(p) for p in sorted(set(inputs))},
        "artifacts": {p: _sha256(p) for p in sorted(set(artifacts))},
    }
    path = os.path.join(out, "manifest.json") if os.path.isdir(out) \
        else out + ".manifest.json"
    data.write_atomic(path, _json_text(manifest))
    return path


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _parse_list(text: str, kind, flag: str) -> list:
    """Comma-separated values of ``kind``; a bad item is a DomainError."""
    try:
        return [kind(p) for p in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"{flag} expects comma-separated {kind.__name__} "
                          f"values, got {text!r}") from exc


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("FIMSCORE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"FIMSCORE_SEED must be an integer, got {env!r}") from exc
    return 0


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


def _cmd_gen_data(args) -> int:
    seed = _resolve_seed(args.seed)
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise DomainError(f"--param expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        params[key.strip()] = _parse_value(val.strip())
    split = _parse_list(args.split, float, "--split")
    try:
        ds = data.generate(args.dist, args.n, seed, split=split, **params)
    except TypeError as exc:
        raise DomainError(f"bad parameters for '{args.dist}': {exc}") from exc
    out = _ensure_dir(args.out)
    artifacts = []
    for tag in ("train", "fit", "eval"):
        path = os.path.join(out, f"{tag}.dmat")
        data.save_dmat(path, ds.rows(tag))
        artifacts.append(path)
    args.seed = seed
    _write_manifest(out, "gen-data", args, [], artifacts)
    print(f"wrote {', '.join(artifacts)}")
    return 0


def _load_training_rows(path: str) -> np.ndarray:
    if os.path.isdir(path):
        parts = [data.load_dmat(os.path.join(path, f"{t}.dmat"))
                 for t in ("train", "fit")]
        return np.vstack(parts)
    return data.load_dmat(path)


def _cmd_train(args) -> int:
    seed = _resolve_seed(args.seed)
    rows = _load_training_rows(args.data)
    dim = rows.shape[1]
    if args.model == "gaussian":
        model = M.DiagGaussianModel.standard(dim)
    else:
        # child(0) is never touched by the trainer (it uses the root for the
        # split and children 1..epochs for batch order), so it seeds the init
        model = M.CouplingFlowModel.init_random(
            dim, Rng(seed).child(0), n_blocks=args.n_blocks,
            hidden=args.hidden, clamp=args.clamp,
        )
    cfg = trainer.TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.learning_rate, fit_fraction=args.fit_fraction,
        seed=seed,
    )
    result = trainer.train(model, rows, cfg)
    out = _ensure_dir(args.out)
    model_path = os.path.join(out, "model.json")
    M.save_model(result.model, model_path)
    curve_path = os.path.join(out, "loss_curve.csv")
    curve = [[0.0, result.initial_loglik]] + [
        [float(e + 1), v] for e, v in enumerate(result.loss_curve)
    ]
    data.save_csv(curve_path, np.asarray(curve), header=["epoch", "mean_loglik"])
    train_path = os.path.join(out, "train_split.dmat")
    fit_path = os.path.join(out, "fit_split.dmat")
    data.save_dmat(train_path, result.train_rows)
    data.save_dmat(fit_path, result.fit_rows)
    args.seed = seed
    inputs = [args.data] if os.path.isfile(args.data) else [
        os.path.join(args.data, "train.dmat"), os.path.join(args.data, "fit.dmat")
    ]
    _write_manifest(out, "train", args, inputs,
                    [model_path, curve_path, train_path, fit_path])
    final = result.loss_curve[-1] if result.loss_curve else result.initial_loglik
    print(f"trained {args.model}: mean log-likelihood "
          f"{result.initial_loglik:.4f} -> {final:.4f}")
    return 0


def _cmd_features(args) -> int:
    model = M.load_model(args.model)
    rows = data.load_dmat(args.data)
    batches = gradfeatures.batch_view(rows, args.batch_size)
    if not batches:
        raise DomainError(
            f"{rows.shape[0]} rows yield no batch of size {args.batch_size}"
        )
    feats = gradfeatures.feature_matrix(model, batches)
    meta = {
        "model_checksum": M.model_checksum(model),
        "batch_size": args.batch_size,
        "floor": args.floor,
        "n_batches": int(feats.shape[0]),
        "layer_names": list(model.params.names),
    }
    gradfeatures.save_features(args.out, feats, meta)
    _write_manifest(args.out, "features", args, [args.model, args.data],
                    [args.out, args.out + ".json"])
    print(f"wrote {feats.shape[0]} x {feats.shape[1]} features to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    feats, meta = gradfeatures.load_features(args.features)
    floor = args.floor if args.floor is not None else \
        (meta or {}).get("floor", gradfeatures.DEFAULT_FLOOR)
    logf = gradfeatures.log_features(feats, floor)
    det = detector.fit_detector(logf, (meta or {}).get("model_checksum", ""), floor)
    detector.save_detector(det, args.out)
    _write_manifest(args.out, "fit", args, [args.features], [args.out])
    print(f"fit detector on {det.n_fit} batches -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    det = detector.load_detector(args.detector)
    feats, meta = gradfeatures.load_features(args.features)
    feat_sum = (meta or {}).get("model_checksum", "")
    if det.model_checksum and feat_sum and det.model_checksum != feat_sum:
        raise DomainError(
            "model checksum mismatch between detector and features; they were "
            "built from different checkpoints"
        )
    floor = det.floor_used if det.floor_used > 0 else gradfeatures.DEFAULT_FLOOR
    logf = gradfeatures.log_features(feats, floor)
    scorer = detector.ood_score if args.method == "ours" \
        else detector.fisher_method_score
    scores = np.asarray(scorer(det, logf), dtype=np.float64).reshape(-1)
    table = np.column_stack([np.arange(scores.size, dtype=np.float64), scores])
    data.save_csv(args.out, table, header=["batch_id", "score"])
    _write_manifest(args.out, "score", args, [args.detector, args.features],
                    [args.out])
    print(f"scored {scores.shape[0]} batches with method={args.method}")
    return 0


def _parse_named(items, what: str, parts: int):
    out = {}
    for item in items or []:
        bits = item.split("=", 1)
        if len(bits) != 2 or not bits[0]:
            raise DomainError(f"--{what} expects NAME=..., got {item!r}")
        paths = bits[1].split(":")
        if len(paths) != parts:
            raise DomainError(
                f"--{what} {bits[0]} needs {parts} colon-separated paths"
            )
        out[bits[0]] = paths if parts > 1 else paths[0]
    return out


def _cmd_eval(args) -> int:
    seed = _resolve_seed(args.seed)
    trains = _parse_named(args.train, "train", 2)
    evals = _parse_named(args.eval, "eval", 1)
    if not trains or len(evals) < 2:
        raise DomainError("need at least one --train and two --eval entries")
    train_entries = {}
    inputs = []
    for name, (model_path, fit_path) in trains.items():
        train_entries[name] = (M.load_model(model_path), data.load_dmat(fit_path))
        inputs += [model_path, fit_path]
    eval_splits = {}
    for name, path in evals.items():
        eval_splits[name] = data.load_dmat(path)
        inputs.append(path)
    batch_sizes = _parse_list(args.batch_sizes, int, "--batch-sizes")
    methods = tuple(m.strip() for m in args.methods.split(","))
    reports = evaluation.run_pairings(
        train_entries, eval_splits, batch_sizes=batch_sizes,
        n_eval_batches=args.n_batches, methods=methods, seed=seed,
    )
    out = _ensure_dir(args.out)
    artifacts = []
    for rep in reports:
        path = os.path.join(out, f"report_{rep.train}.json")
        data.write_atomic(path, rep.to_json())
        artifacts.append(path)
    for m in methods:
        for b in batch_sizes:
            path = os.path.join(out, f"grid_{m}_B{b}.txt")
            data.write_atomic(path, evaluation.render_grid(reports, m, b))
            artifacts.append(path)
    args.seed = seed
    _write_manifest(out, "eval", args, inputs, artifacts)
    print(f"wrote {len(artifacts)} report/grid files to {out}")
    return 0


def _cmd_fim_probe(args) -> int:
    seed = _resolve_seed(args.seed)
    model = M.load_model(args.model)
    root = Rng(seed)
    if args.layers:
        layers = [p.strip() for p in args.layers.split(",") if p.strip()]
    else:
        names = model.params.names
        k = min(2, len(names))
        layers = [names[int(i)] for i in root.child(0).permutation(len(names))[:k]]
    sl = fim.mc_fim_slice(model, layers, root, args.n,
                          max_per_layer=args.max_per_layer)
    normalized = fim.normalize_fim(sl.matrix)
    diag_mean, offdiag_mean = fim.diag_dominance(normalized)
    out = _ensure_dir(args.out)
    raw_path = os.path.join(out, "fim.csv")
    norm_path = os.path.join(out, "fim_normalized.csv")
    data.save_csv(raw_path, sl.matrix)
    data.save_csv(norm_path, normalized)
    side_path = os.path.join(out, "fim.json")
    data.write_atomic(side_path, _json_text({
        "layers": layers,
        "weight_map": [[name, idx] for name, idx in sl.weight_map],
        "n_samples": sl.n_samples,
        "model_checksum": M.model_checksum(model),
        "diag_mean": diag_mean,
        "offdiag_mean": offdiag_mean,
    }))
    args.seed = seed
    _write_manifest(out, "fim-probe", args, [args.model],
                    [raw_path, norm_path, side_path])
    print(f"probed layers {layers}: diag mean {diag_mean:.4f}, "
          f"off-diagonal mean {offdiag_mean:.4f}")
    return 0


def _make_transform(name: str, dim: int, rng: Rng, args):
    if name == "identity":
        return R.identity_transform(dim)
    if name == "scale_shift":
        return R.scale_shift_transform(dim, args.scale, args.shift)
    if name == "affine":
        return R.random_affine(dim, rng, args.jitter)
    if name in ("exp", "tanh_warp"):
        return R.ElementwiseMonotone(name)
    raise DomainError(f"unknown transform '{name}'")


def _cmd_invariance_check(args) -> int:
    seed = _resolve_seed(args.seed)
    model = M.load_model(args.model)
    root = Rng(seed)
    transform = _make_transform(args.transform, model.dim, root.child(1), args)
    points = model.sample(root.child(2), args.n_points)
    report = R.check_gradient_invariance(model, transform, points)
    tol_grad, tol_ll = 1e-10, 1e-9
    passed = (report["max_grad_discrepancy"] <= tol_grad
              and report["max_loglik_residual"] <= tol_ll)
    out = _ensure_dir(args.out)
    path = os.path.join(out, "invariance.json")
    data.write_atomic(path, _json_text({
        "model_checksum": M.model_checksum(model),
        "transform": args.transform,
        "n_points": args.n_points,
        "tolerances": {"grad": tol_grad, "loglik": tol_ll},
        "max_grad_discrepancy": report["max_grad_discrepancy"],
        "max_loglik_residual": report["max_loglik_residual"],
        "pass": passed,
    }))
    args.seed = seed
    _write_manifest(out, "invariance-check", args, [args.model], [path])
    print(f"invariance under {args.transform}: "
          f"grad discrepancy {report['max_grad_discrepancy']:.3e}, "
          f"{'PASS' if passed else 'FAIL'}")
    return 0


def _cmd_tv_volume(args) -> int:
    log_vol = R.tv_log_volume(args.alpha, args.d)
    obj = {
        "alpha": args.alpha,
        "d": args.d,
        "log_volume": log_vol,
        "log10_volume": log_vol / math.log(10.0),
    }
    if args.mc:
        seed = _resolve_seed(args.seed)
        vol, se = R.tv_volume_mc(args.alpha, args.d, Rng(seed), args.mc)
        obj["mc_volume"] = vol
        obj["mc_se"] = se
        args.seed = seed
    text = _json_text(obj)
    sys.stdout.write(text)
    if args.out:
        data.write_atomic(args.out, text)
        _write_manifest(args.out, "tv-volume", args, [], [args.out])
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors (exit 2) suggest the closest known flag."""

    suggest_pool = ()

    def error(self, message):
        if "unrecognized arguments:" in message:
            bad = message.split("unrecognized arguments:")[1].split()
            pool = list(self.suggest_pool) or sorted(
                {s for a in self._actions for s in a.option_strings}
            )
            hints = []
            for token in bad:
                if token.startswith("--"):
                    near = difflib.get_close_matches(token, pool, n=1)
                    if near:
                        hints.append(f"did you mean {near[0]}?")
            if hints:
                message += " (" + "; ".join(hints) + ")"
        super().error(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fimscore",
        description="Gradient-based OOD detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p):
        p.add_argument("--seed", type=int, default=None,
                       help="PRNG seed (default: FIMSCORE_SEED env or 0)")
        p.add_argument("--config", default=None,
                       help="flat key=value file supplying flag defaults")

    p = sub.add_parser("gen-data", help="sample a synthetic distribution")
    p.add_argument("--dist", required=True, choices=sorted(data.GENERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--split", default="0.8,0.1,0.1",
                   help="train,fit,eval fractions")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="generator parameter; tuples as v1:v2")
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="fit a model by maximum likelihood")
    p.add_argument("--data", required=True,
                   help="DMAT file or gen-data output directory")
    p.add_argument("--model", choices=("flow", "gaussian"), default="flow")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--fit-fraction", type=float, default=0.1)
    p.add_argument("--n-blocks", type=int, default=6)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--clamp", type=float, default=5.0)
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("features", help="gradient-norm features per batch")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="DMAT file of points")
    p.add_argument("--batch-size", type=int, default=5)
    p.add_argument("--floor", type=float, default=gradfeatures.DEFAULT_FLOOR)
    p.add_argument("--out", required=True, help="output CSV path")
    seeded(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("fit", help="fit the Gaussian detector on features")
    p.add_argument("--features", required=True)
    p.add_argument("--floor", type=float, default=None)
    p.add_argument("--out", required=True, help="output detector JSON path")
    seeded(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("score", help="score feature batches with a detector")
    p.add_argument("--detector", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--method", choices=("ours", "fisher"), default="ours")
    p.add_argument("--out", required=True, help="output CSV path")
    seeded(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="AUROC grid over distribution pairings")
    p.add_argument("--train", action="append", metavar="NAME=MODEL:FIT_DMAT")
    p.add_argument("--eval", action="append", metavar="NAME=EVAL_DMAT")
    p.add_argument("--batch-sizes", default="1,5")
    p.add_argument("--n-batches", type=int, default=200)
    p.add_argument("--methods", default=",".join(evaluation.METHODS))
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fim-probe", help="Monte Carlo FIM slice of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--layers", default="",
                   help="comma-separated layer names (default: 2 seeded picks)")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--max-per-layer", type=int, default=50)
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(func=_cmd_fim_probe)

    p = sub.add_parser("invariance-check",
                       help="verify gradients ignore re-parameterization")
    p.add_argument("--model", required=True)
    p.add_argument("--transform", default="affine",
                   choices=("identity", "scale_shift", "affine", "exp",
                            "tanh_warp"))
    p.add_argument("--n-points", type=int, default=20)
    p.add_argument("--scale", type=float, default=2.0)
    p.add_argument("--shift", type=float, default=1.0)
    p.add_argument("--jitter", type=float, default=0.3)
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(func=_cmd_invariance_check)

    p = sub.add_parser("tv-volume", help="log-volume of a total-variation ball")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mc", type=int, default=0,
                   help="Monte Carlo cross-check sample count (small d only)")
    p.add_argument("--out", default=None)
    seeded(p)
    p.set_defaults(func=_cmd_tv_volume)

    pool = sorted({
        s for child in sub.choices.values()
        for a in child._actions for s in a.option_strings
    })
    parser.suggest_pool = pool
    for child in sub.choices.values():
        child.suggest_pool = pool
    return parser


def _load_config_args(path: str) -> list:
    """Translate a flat key=value file into synthetic CLI flags."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, val = (part.strip() for part in line.split("=", 1))
            flags += ["--" + key.replace("_", "-"), val]
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if "--config" in argv:
            at = argv.index("--config")
            if at + 1 >= len(argv):
                raise DomainError("--config needs a file path")
            if at == 0:
                raise DomainError("--config must follow a subcommand")
            cfg_flags = _load_config_args(argv[at + 1])
            # config flags go right after the subcommand so explicit flags,
            # parsed later, override them
            argv = [argv[0]] + cfg_flags + argv[1:at] + argv[at + 2:]
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except FimscoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
