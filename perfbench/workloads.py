"""The benchmark's four workloads, each a closed loop driven by one client.

Every workload has the same shape:

* ``setup(seed)`` builds the inputs from the seed and returns a state;
* ``run(state)`` is the timed operation;
* ``check(state, result)`` runs outside the timed region and returns
  ``(items, fingerprint)``: one list of problems per checked item (an
  empty list is a pass) and a value that must repeat on every operation;
* ``oracle(state)`` is an independent check made once per run;
* ``headline(state, op_s)`` names the workload's own end-to-end figure;
* ``run_traced(state, region)`` is the operation the traced run times.

Seeds: benchmark seed ``s`` gives dataset seeds ``4s+1`` (two_moons),
``4s+2`` (uniform_square), ``4s+3`` (rings) and ``4s+4`` (gauss_grid),
the flow init stream ``Rng(s).child(0)``, and train and eval seed ``s``.
Seed 0 is the golden reference run's seeding. Input sizes do not depend
on the seed. Why each workload exists, and which layers it leaves idle,
is written down in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from fimscore import cli, data, evaluation, fim, models, representation, trainer
from fimscore.numcore import Rng

HERE = Path(__file__).resolve().parent

# Golden config; TRAIN_EPOCHS stands in for the golden 400 epochs (about
# 44 s), which is too long to repeat in every run.
GOLDEN_ROWS = 10_000
GOLDEN_TRAIN = {"batch_size": 128, "learning_rate": 3e-3}
TRAIN_EPOCHS = 10
# Short training that gives pairing_grid and fim_probe their flow.
SETUP_EPOCHS = 5
EVAL_DISTS = (("uniform_square", 2, {"side": 4.0}),
              ("rings", 3, {"radii": (2.0, 3.0)}),
              ("gauss_grid", 4, {}))
GRID_BATCH_SIZES = (1, 5)
GRID_EVAL_BATCHES = 200

FIM_LAYERS = ("block0.w_out", "block5.w_out")
FIM_SLICE_N = 8192
SM_N = 400
INVARIANCE_POINTS = 300
# Start-up is 160-290 ms from process to process, so take the median of many.
STARTUP_SAMPLES = 15

# Tolerances against the values the seed commit produced (reference.json).
# Noise of 5e-10 relative on every gradient coordinate at every step (the
# size of change that summing the backward pass in another order makes to
# the gradient features) moved the final log-likelihood by at most 1.3e-7
# relative over seeds 0-127, and left every grid cell unchanged on seeds
# 0-9. Leaking 1% of each gradient coordinate into the next, or a 1%
# mis-chained coupling term, moved it by at least 8.7e-5 and 3.6e-5.
# TRAIN_REL_TOL sits more than ten times from both sides;
# test_perfbench.py repeats the measurement on the seeds nearest the edges.
# A grid cell may move by a rank swap or two (2.5e-5 each). A wrong
# gradient scale leaves both unchanged (Adam and the per-layer detector
# are scale-free), so the oracle checks the gradient itself against
# central differences.
TRAIN_REL_TOL = 2e-6
AUROC_ABS_TOL = 2.5e-4
FD_STEP = 1e-5
FD_ABS_TOL = 1e-6
FD_REL_TOL = 1e-6
SM_REL_TOL = 1e-8
# The invariance-check subcommand's own tolerances.
INVARIANCE_GRAD_TOL = 1e-10
INVARIANCE_LOGLIK_TOL = 1e-9

# Seeds whose outputs make_reference.py records; load_reference() fills
# REFERENCE with them before a run.
REFERENCE_SEEDS = range(128)
REFERENCE_FILE = HERE / "reference.json"
REFERENCE = {}


def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        REFERENCE.update(json.load(fh))


def has_reference(name, seed):
    return str(seed) in REFERENCE.get(name, {})


def dataset_seed(seed: int, k: int) -> int:
    return 4 * seed + 1 + k


def golden_rows(seed: int):
    """two_moons train+fit rows and eval rows of the golden dataset."""
    moons = data.generate("two_moons", GOLDEN_ROWS, seed=dataset_seed(seed, 0))
    return np.vstack([moons.rows("train"), moons.rows("fit")]), moons.rows("eval")


def train_config(seed: int, epochs: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(epochs=epochs, seed=seed, **GOLDEN_TRAIN)


def init_flow(seed: int):
    return models.CouplingFlowModel.init_random(2, Rng(seed).child(0))


def fd_problems(model, x, grad):
    """``grad`` against central differences of the summed log-likelihood
    at ``x``, coordinate by coordinate."""
    theta = model.params.flat()
    probe = theta.copy()
    bad = []
    for i in range(theta.size):
        values = []
        for step in (FD_STEP, -FD_STEP):
            probe[i] = theta[i] + step
            shifted = model.with_params(model.params.from_flat(probe))
            values.append(float(np.sum(shifted.log_likelihood_batch(x))))
        probe[i] = theta[i]
        fd = (values[0] - values[1]) / (2.0 * FD_STEP)
        if not abs(grad[i] - fd) <= FD_ABS_TOL + FD_REL_TOL * abs(fd):
            bad.append(f"coordinate {i}: gradient {float(grad[i])!r}, central difference {fd!r}")
    return bad[:3]


class Workload:
    """What the workloads share unless they say otherwise."""

    # peak memory is the workload's own process, not its children's
    rss_of_children = False

    def run_traced(self, state, region):
        return self.run(state)

    def oracle(self, state):
        return []

    def extra_layer_metrics(self, state):
        """Per-layer metrics measured apart from the traced operations."""
        return {}

    def close(self, state):
        pass


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class TrainGolden(Workload):
    """``trainer.train`` with the golden flow config for TRAIN_EPOCHS."""

    name = "train_golden"
    items_per_op = 1

    def setup(self, seed):
        rows, _ = golden_rows(seed)
        return {"seed": seed, "rows": rows, "flow": init_flow(seed)}

    def run(self, state):
        config = train_config(state["seed"], TRAIN_EPOCHS)
        return trainer.train(state["flow"], state["rows"], config)

    def reference(self, result):
        return result.loss_curve[-1]

    def check(self, state, result):
        problems = []
        curve = np.asarray(result.loss_curve)
        if curve.shape != (TRAIN_EPOCHS,) or not np.all(np.isfinite(curve)):
            problems.append("loss curve is not finite or has the wrong length")
        elif not curve[-1] > result.initial_loglik:
            problems.append("training did not raise the mean log-likelihood")
        ref = REFERENCE.get(self.name, {}).get(str(state["seed"]))
        if ref is not None and curve.size and \
                not abs(curve[-1] - ref) <= TRAIN_REL_TOL * abs(ref):
            problems.append(f"final mean log-likelihood {float(curve[-1])!r} != reference {ref!r}")
        state["trained"] = result.model
        state["steps"] = TRAIN_EPOCHS * (len(result.train_rows) // GOLDEN_TRAIN["batch_size"])
        return [problems], _digest(result.model.params.flat(), curve)

    def oracle(self, state):
        if "trained" not in state:  # the operation raised; already counted
            return []
        model = state["trained"]
        x = state["rows"][: GOLDEN_TRAIN["batch_size"]]
        _, grad = model.loglik_and_grad_sum(x)
        return [fd_problems(model, x, grad.flat())]

    def headline(self, state, op_s):
        return "train_steps_per_s", state.get("steps", math.nan) / op_s, "steps/s"


def short_trained_flow(seed, rows):
    return trainer.train(init_flow(seed), rows, train_config(seed, SETUP_EPOCHS))


class PairingGrid(Workload):
    """``evaluation.run_pairings`` on the golden grid with a short-trained flow."""

    name = "pairing_grid"
    items_per_op = len(EVAL_DISTS) * len(GRID_BATCH_SIZES) * len(evaluation.METHODS)

    def setup(self, seed):
        rows, moons_eval = golden_rows(seed)
        evals = {"two_moons": moons_eval}
        for name, k, params in EVAL_DISTS:
            ds = data.generate(name, GOLDEN_ROWS, seed=dataset_seed(seed, k), **params)
            evals[name] = ds.rows("eval")
        result = short_trained_flow(seed, rows)
        return {"seed": seed, "entries": {"two_moons": (result.model, result.fit_rows)},
                "evals": evals}

    def run(self, state):
        return evaluation.run_pairings(
            state["entries"], state["evals"], batch_sizes=GRID_BATCH_SIZES,
            n_eval_batches=GRID_EVAL_BATCHES, seed=state["seed"])

    @staticmethod
    def cells(reports):
        return [(row["test"], row["method"], row["batch_size"], row.get("auroc"))
                for rep in reports for row in rep.rows]

    def reference(self, reports):
        return self.cells(reports)

    def check(self, state, reports):
        cells = self.cells(reports)
        ref = REFERENCE.get(self.name, {}).get(str(state["seed"]))
        ref = {tuple(c[:3]): c[3] for c in ref} if ref is not None else {}
        items = []
        for test, method, bsz, value in cells:
            problems = []
            if value is None:
                problems.append(f"cell {test}/{method}/B={bsz} skipped")
            elif not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"cell {test}/{method}/B={bsz} AUROC {value!r}")
            elif (test, method, bsz) in ref and \
                    not abs(value - ref[(test, method, bsz)]) <= AUROC_ABS_TOL:
                problems.append(f"cell {test}/{method}/B={bsz} AUROC {value!r} "
                                f"!= reference {ref[(test, method, bsz)]!r}")
            items.append(problems)
        missing = self.items_per_op - len(cells)
        items += [["grid cell missing"]] * max(missing, 0)
        return items, cells

    def oracle(self, state):
        model, _ = state["entries"]["two_moons"]
        x = state["evals"]["two_moons"][:5]
        return [fd_problems(model, x, model.grad_sum_batch(x).flat())]

    def headline(self, state, op_s):
        return "grid_s", op_s, "s"


class FimProbe(Workload):
    """FIM slice at large N, Sherman-Morrison over per-sample flow scores,
    and the gradient-invariance check, on the short-trained flow."""

    name = "fim_probe"
    items_per_op = 3

    def setup(self, seed):
        rows, _ = golden_rows(seed)
        return {"seed": seed, "model": short_trained_flow(seed, rows).model}

    def run(self, state):
        model = state["model"]
        root = Rng(state["seed"]).child(7)
        fim_slice = fim.mc_fim_slice(model, FIM_LAYERS, root.child(1), FIM_SLICE_N)
        draws = model.sample(root.child(2), SM_N + 1)
        scores = np.concatenate(
            [g.reshape(SM_N + 1, -1) for _, g in model.score_batch(draws)], axis=1)
        a0 = fim.prior_diag_from_samples(scores[:SM_N], scores.shape[1])
        q = fim.sherman_morrison_score(scores[:SM_N], a0, scores[SM_N])
        points = model.sample(root.child(3), INVARIANCE_POINTS)
        transform = representation.random_affine(model.dim, root.child(4))
        invariance = representation.check_gradient_invariance(model, transform, points)
        return {"slice": fim_slice.matrix, "scores": scores, "a0": a0, "q": q,
                "invariance": invariance}

    def check(self, state, result):
        f = result["slice"]
        slice_problems = []
        if not np.max(np.abs(f - f.T)) <= 1e-12 * np.max(np.abs(f)):
            slice_problems.append("FIM slice is not symmetric")
        eig = np.linalg.eigvalsh(0.5 * (f + f.T))
        if not eig[0] >= -1e-10 * eig[-1]:
            slice_problems.append(f"FIM slice is not PSD (min eigenvalue {eig[0]:.3e})")
        s = result["scores"][:SM_N]
        sx = result["scores"][SM_N]
        dense = sx @ np.linalg.solve(np.diag(result["a0"]) + s.T @ s, sx)
        rel = abs(result["q"] - dense) / abs(dense)
        sm_problems = [] if rel <= SM_REL_TOL else \
            [f"Sherman-Morrison off the dense solve by {rel:.3e} relative"]
        inv = result["invariance"]
        inv_problems = []
        if not (inv["max_grad_discrepancy"] <= INVARIANCE_GRAD_TOL
                and inv["max_loglik_residual"] <= INVARIANCE_LOGLIK_TOL):
            inv_problems.append(f"invariance discrepancy {inv['max_grad_discrepancy']:.3e}")
        fingerprint = (_digest(f, result["scores"]), result["q"],
                       inv["max_grad_discrepancy"])
        return [slice_problems, sm_problems, inv_problems], fingerprint

    def oracle(self, state):
        model = state["model"]
        x = model.sample(Rng(state["seed"]).child(8), 2)
        problems = []
        for point in x:
            row = np.concatenate([g.reshape(-1) for _, g in model.score_batch(point[None])])
            problems += fd_problems(model, point[None], row)
        return [problems]

    def headline(self, state, op_s):
        return "fim_probe_s", op_s, "s"


def walkthrough(seed):
    """The README CLI walkthrough, steps 1-7, seeded from the benchmark seed."""
    s = str(seed)
    return [
        ["gen-data", "--dist", "two_moons", "--n", "3000", "--out", "runs/moons",
         "--seed", str(dataset_seed(seed, 0))],
        ["gen-data", "--dist", "uniform_square", "--n", "1500", "--param", "side=4.0",
         "--out", "runs/square", "--seed", str(dataset_seed(seed, 1))],
        ["train", "--data", "runs/moons", "--model", "flow", "--epochs", "40",
         "--batch-size", "128", "--learning-rate", "3e-3", "--n-blocks", "4",
         "--hidden", "16", "--out", "runs/flow", "--seed", s],
        ["features", "--model", "runs/flow/model.json", "--data",
         "runs/flow/fit_split.dmat", "--batch-size", "5", "--out", "runs/feats_fit.csv"],
        ["fit", "--features", "runs/feats_fit.csv", "--out", "runs/detector.json"],
        ["features", "--model", "runs/flow/model.json", "--data",
         "runs/square/eval.dmat", "--batch-size", "5", "--out", "runs/feats_sq.csv"],
        ["score", "--detector", "runs/detector.json", "--features",
         "runs/feats_sq.csv", "--out", "runs/scores.csv"],
        ["eval", "--train", "moons=runs/flow/model.json:runs/flow/fit_split.dmat",
         "--eval", "moons=runs/moons/eval.dmat", "--eval", "square=runs/square/eval.dmat",
         "--batch-sizes", "1,5", "--n-batches", "50", "--out", "runs/report",
         "--seed", s],
        ["fim-probe", "--model", "runs/flow/model.json", "--n", "1024",
         "--out", "runs/fim", "--seed", s],
        ["invariance-check", "--model", "runs/flow/model.json", "--transform", "exp",
         "--n-points", "20", "--out", "runs/inv.json", "--seed", s],
        ["tv-volume", "--alpha", "102.9", "--d", "784", "--out", "runs/tv.json"],
    ]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def startup_seconds(cwd):
    """Wall time of one process that only imports ``fimscore.cli``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import fimscore.cli"], cwd=cwd,
                          stdin=subprocess.DEVNULL, capture_output=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"importing fimscore.cli failed:\n{proc.stderr.decode()}")
    return elapsed


class CliWalkthrough(Workload):
    """The README walkthrough as 11 ``fimscore`` processes in a fresh directory."""

    name = "cli_walkthrough"
    items_per_op = 11
    rss_of_children = True

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def setup(self, seed):
        work = self.scratch / f"cli-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        startup_seconds(work)
        return {"seed": seed, "work": work, "commands": walkthrough(seed)}

    def run(self, state):
        exits = []
        for argv in state["commands"]:
            proc = subprocess.run([sys.executable, "-m", "fimscore.cli", *argv],
                                  cwd=state["work"], stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True)
            exits.append((proc.returncode, proc.stderr))
        return exits

    def run_traced(self, state, region):
        """The same commands through ``cli.main`` in this process, each in
        ``region('cli.<subcommand>')``."""
        exits = []
        here = os.getcwd()
        os.chdir(state["work"])
        try:
            for argv in state["commands"]:
                err = io.StringIO()
                with region(f"cli.{argv[0]}"), \
                        contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
                exits.append((code, err.getvalue()))
        finally:
            os.chdir(here)
        return exits

    def check(self, state, exits):
        work = state["work"]
        items, artifacts = [], []
        for argv, (code, err) in zip(state["commands"], exits):
            items.append([f"{argv[0]} exited with {code}: {err.strip()[-300:]}"]
                         if code != 0 else [])
            if code != 0:
                continue
            out = work / argv[argv.index("--out") + 1]
            manifest = out / "manifest.json" if out.is_dir() else \
                Path(str(out) + ".manifest.json")
            try:
                with open(manifest, encoding="utf-8") as fh:
                    recorded = json.load(fh)
                entries = {**recorded["inputs"], **recorded["artifacts"]}
                stale = [p for p, h in entries.items() if _sha256(work / p) != h]
                if argv[0] == "invariance-check":
                    with open(out / "invariance.json", encoding="utf-8") as fh:
                        if not json.load(fh)["pass"]:
                            items[-1].append("invariance-check reported FAIL")
            except (OSError, ValueError, KeyError) as exc:
                items[-1].append(f"{argv[0]}: cannot read its outputs: {exc}")
                continue
            items[-1] += [f"{argv[0]}: manifest sha256 mismatch for {p}" for p in stale]
            artifacts.append(sorted(recorded["artifacts"].items()))
        items += [["command missing"]] * (self.items_per_op - len(exits))
        shutil.rmtree(work / "runs", ignore_errors=True)
        return items, artifacts

    def extra_layer_metrics(self, state):
        return {"cli.startup_ms": 1e3 * statistics.median(
            startup_seconds(state["work"]) for _ in range(STARTUP_SAMPLES))}

    def close(self, state):
        shutil.rmtree(state["work"], ignore_errors=True)

    def headline(self, state, op_s):
        return "cli_walkthrough_s", op_s, "s"


def make(name, scratch):
    if name == "cli_walkthrough":
        return CliWalkthrough(scratch)
    return {"train_golden": TrainGolden, "pairing_grid": PairingGrid,
            "fim_probe": FimProbe}[name]()
