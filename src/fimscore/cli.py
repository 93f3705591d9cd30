"""Command-line pipeline: data, training, features, scoring, probes.

main resolves the seed once and calls the subcommand, which returns
(inputs, artifacts, summary line). main then writes a manifest under
--out (config echo, including the seed in effect, plus SHA-256 of every
input and artifact) so a run can be audited and reproduced, and prints
the summary. Exit codes: 0 success, 1 domain error (bad values, missing
or malformed files), 2 usage error.

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
import math
import os
import sys

import numpy as np

from . import __version__, data, detector, evaluation, fim, gradfeatures
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


def _write_manifest(args: argparse.Namespace, inputs, artifacts) -> None:
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "config") and not k.startswith("_")
    }
    manifest = {
        "command": args.command,
        "package_version": __version__,
        "config": config,
        "inputs": {p: _sha256(p) for p in sorted(set(inputs))},
        "artifacts": {p: _sha256(p) for p in sorted(set(artifacts))},
    }
    path = os.path.join(args.out, "manifest.json") if os.path.isdir(args.out) \
        else args.out + ".manifest.json"
    data.write_atomic(path, data.json_text(manifest))


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


def _cmd_gen_data(args):
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise DomainError(f"--param expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        params[key.strip()] = _parse_value(val.strip())
    try:
        ds = data.generate(args.dist, args.n, args.seed, **params)
    except TypeError as exc:
        raise DomainError(f"bad parameters for '{args.dist}': {exc}") from exc
    out = _ensure_dir(args.out)
    artifacts = []
    for tag in ("train", "fit", "eval"):
        path = os.path.join(out, f"{tag}.dmat")
        data.save_dmat(path, ds.rows(tag))
        artifacts.append(path)
    return [], artifacts, f"wrote {', '.join(artifacts)}"


def _load_training_rows(path: str):
    """(rows, input paths): a gen-data directory's train and fit splits
    stacked, or the one DMAT file at ``path``."""
    if os.path.isdir(path):
        paths = [os.path.join(path, f"{t}.dmat") for t in ("train", "fit")]
        return np.vstack([data.load_dmat(p) for p in paths]), paths
    return data.load_dmat(path), [path]


def _cmd_train(args):
    rows, inputs = _load_training_rows(args.data)
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
    final = result.loss_curve[-1] if result.loss_curve else result.initial_loglik
    return inputs, [model_path, curve_path, train_path, fit_path], (
        f"trained {args.model}: mean log-likelihood "
        f"{result.initial_loglik:.4f} -> {final:.4f}")


def _cmd_features(args):
    model = M.load_model(args.model)
    rows = data.load_dmat(args.data)
    feats = gradfeatures.feature_matrix(
        model, gradfeatures.batch_view(rows, args.batch_size))
    meta = {
        "model_checksum": M.model_checksum(model),
        "batch_size": args.batch_size,
        "n_batches": int(feats.shape[0]),
        "layer_names": list(model.params.names),
    }
    gradfeatures.save_features(args.out, feats, meta)
    return [args.model, args.data], [args.out, args.out + ".json"], (
        f"wrote {feats.shape[0]} x {feats.shape[1]} features to {args.out}")


def _cmd_fit(args):
    feats, meta = gradfeatures.load_features(args.features)
    logf = gradfeatures.log_features(feats)
    meta = meta or {}
    det = detector.fit_detector(logf, meta.get("model_checksum", ""),
                                meta.get("layer_names"))
    detector.save_detector(det, args.out)
    return [args.features], [args.out], \
        f"fit detector on {det.n_fit} batches -> {args.out}"


def _cmd_score(args):
    det = detector.load_detector(args.detector)
    feats, meta = gradfeatures.load_features(args.features)
    meta = meta or {}
    feat_sum = meta.get("model_checksum", "")
    if det.model_checksum and feat_sum and det.model_checksum != feat_sum:
        raise DomainError(
            "model checksum mismatch between detector and features; they were "
            "built from different checkpoints"
        )
    names = meta.get("layer_names")
    if det.layer_names is not None and names is not None and det.layer_names != names:
        raise DomainError(f"layer names differ: the detector was fit on "
                          f"{det.layer_names}, the features have {names}")
    logf = gradfeatures.log_features(feats)
    scorer = detector.ood_score if args.method == "ours" \
        else detector.fisher_method_score
    scores = scorer(det, logf)
    table = np.column_stack([np.arange(scores.size, dtype=np.float64), scores])
    data.save_csv(args.out, table, header=["batch_id", "score"])
    return [args.detector, args.features], [args.out], \
        f"scored {scores.shape[0]} batches with method={args.method}"


def _parse_named(items, what: str, parts: int):
    out = {}
    for item in items or []:
        bits = item.split("=", 1)
        if len(bits) != 2 or not bits[0]:
            raise DomainError(f"--{what} expects NAME=..., got {item!r}")
        if bits[0] in out:
            raise DomainError(f"--{what} names {bits[0]!r} twice")
        paths = bits[1].split(":")
        if len(paths) != parts:
            raise DomainError(
                f"--{what} {bits[0]} needs {parts} colon-separated paths"
            )
        out[bits[0]] = paths if parts > 1 else paths[0]
    return out


def _cmd_eval(args):
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
    try:
        batch_sizes = [int(p) for p in args.batch_sizes.split(",")]
    except ValueError as exc:
        raise DomainError(f"--batch-sizes expects comma-separated int values, "
                          f"got {args.batch_sizes!r}") from exc
    methods = tuple(m.strip() for m in args.methods.split(","))
    reports = evaluation.run_pairings(
        train_entries, eval_splits, batch_sizes=batch_sizes,
        n_eval_batches=args.n_batches, methods=methods, seed=args.seed,
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
    return inputs, artifacts, f"wrote {len(artifacts)} report/grid files to {out}"


def _cmd_fim_probe(args):
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
    raw_path = os.path.join(out, "fim.csv")
    norm_path = os.path.join(out, "fim_normalized.csv")
    data.save_csv(raw_path, sl.matrix)
    data.save_csv(norm_path, normalized)
    side_path = os.path.join(out, "fim.json")
    data.write_atomic(side_path, data.json_text({
        "layers": layers,
        "weight_map": [[name, idx] for name, idx in sl.weight_map],
        "n_samples": sl.n_samples,
        "model_checksum": M.model_checksum(model),
        "diag_mean": diag_mean,
        "offdiag_mean": offdiag_mean,
    }))
    return [args.model], [raw_path, norm_path, side_path], (
        f"probed layers {layers}: diag mean {diag_mean:.4f}, "
        f"off-diagonal mean {offdiag_mean:.4f}")


# --transform name -> constructor of the transform from (dim, rng)
_TRANSFORMS = {
    "identity": lambda dim, rng: R.identity_transform(dim),
    "scale_shift": lambda dim, rng: R.scale_shift_transform(dim),
    "affine": R.random_affine,
    "exp": lambda dim, rng: R.ElementwiseMonotone("exp"),
    "tanh_warp": lambda dim, rng: R.ElementwiseMonotone("tanh_warp"),
}


def _cmd_invariance_check(args):
    model = M.load_model(args.model)
    root = Rng(args.seed)
    transform = _TRANSFORMS[args.transform](model.dim, root.child(1))
    points = M.sample(model, root.child(2), args.n_points)
    report = R.check_gradient_invariance(model, transform, points)
    tol_grad, tol_ll = 1e-10, 1e-9
    passed = (report["max_grad_discrepancy"] <= tol_grad
              and report["max_loglik_residual"] <= tol_ll)
    out = _ensure_dir(args.out)
    path = os.path.join(out, "invariance.json")
    data.write_atomic(path, data.json_text({
        "model_checksum": M.model_checksum(model),
        "transform": args.transform,
        "n_points": args.n_points,
        "tolerances": {"grad": tol_grad, "loglik": tol_ll},
        "max_grad_discrepancy": report["max_grad_discrepancy"],
        "max_loglik_residual": report["max_loglik_residual"],
        "pass": passed,
    }))
    return [args.model], [path], (
        f"invariance under {args.transform}: "
        f"grad discrepancy {report['max_grad_discrepancy']:.3e}, "
        f"{'PASS' if passed else 'FAIL'}")


def _cmd_tv_volume(args):
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
    return [], [args.out], text.rstrip("\n")


class _Parser(argparse.ArgumentParser):
    """Usage errors (exit 2) suggest the closest known flag from
    ``suggest_pool``, which _build_parser sets on every parser."""

    def error(self, message):
        if "unrecognized arguments:" in message:
            bad = message.split("unrecognized arguments:")[1].split()
            hints = []
            for token in bad:
                if token.startswith("--"):
                    near = difflib.get_close_matches(token, self.suggest_pool, n=1)
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
    p.add_argument("--n-blocks", type=int, default=6)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("features", help="gradient-norm features per batch")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="DMAT file of points")
    p.add_argument("--batch-size", type=int, default=5)
    p.add_argument("--out", required=True, help="output CSV path")
    seeded(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("fit", help="fit the Gaussian detector on features")
    p.add_argument("--features", required=True)
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
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(func=_cmd_fim_probe)

    p = sub.add_parser("invariance-check",
                       help="verify gradients ignore re-parameterization")
    p.add_argument("--model", required=True)
    p.add_argument("--transform", default="affine", choices=tuple(_TRANSFORMS))
    p.add_argument("--n-points", type=int, default=20)
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
    for lineno, raw in enumerate(data.read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
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
        args.seed = _resolve_seed(args.seed)
        inputs, artifacts, summary = args.func(args)
        if args.out:
            _write_manifest(args, inputs, artifacts)
        print(summary)
        return 0
    except (FimscoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
