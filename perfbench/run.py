"""Benchmark entry point for fimscore.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, and the run stops with exit code 2 if it is
not there or reference.json is missing, and with exit code 1 if an
output check fails. ``--trace 0`` reports the end-to-end metrics: set-up time
and operation time, each the median over the run of its ratio to a
calibration kernel timed just before it, scaled to seconds at
CAL_REF_S; and peak resident memory. The raw wall times are printed.
``--trace 1`` reports the per-layer metrics of tracer.PER_LAYER from a
separate traced phase, with the tracing overhead. The last line of
standard output is the JSON result; the lines before it restate the
environment and every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_runs"

# BLAS threads, pinned before numpy loads; subprocesses inherit them.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_OPS = 3
# Times are reported at the speed where the calibration kernel takes
# CAL_REF_S, about its time on a quiet 2-core VM.
CAL_REF_S = 0.025
CAL_REPEATS = 3
MIN_TRACED_OPS = 3
WORKLOADS = ("train_golden", "pairing_grid", "cli_walkthrough", "fim_probe")
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Pin the BLAS threads, then import fimscore from this checkout's
    src/ and nowhere else."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    package = SRC / "fimscore"
    if not (package / "__init__.py").is_file():
        _fail(f"no fimscore package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import fimscore
    if Path(fimscore.__file__).resolve().parent != package.resolve():
        _fail(f"imported fimscore from {fimscore.__file__}, not {package}")


def _commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    """Versions, BLAS, cores, thread settings and source identity."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "fimscore").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": int(BLAS_THREADS),
        "commit": _commit(),
        "src_sha256": src_hash.hexdigest(),
    }


class Tally:
    """Checked items attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, items):
        for problems in items:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)


def _operate(wl, state, run, tally, fingerprints):
    """One timed operation, then its checks; returns the wall time."""
    from fimscore.errors import FimscoreError
    t0 = time.perf_counter()
    try:
        result = run(state)
    except FimscoreError as exc:
        elapsed = time.perf_counter() - t0
        tally.add([[f"raised {type(exc).__name__}: {exc}"]] * wl.items_per_op)
        return elapsed
    elapsed = time.perf_counter() - t0
    items, fingerprint = wl.check(state, result)
    if fingerprints:
        items.append([] if fingerprint == fingerprints[0]
                     else ["output differs from the first operation"])
    fingerprints.append(fingerprint)
    tally.add(items)
    return elapsed


def _peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def calibration_seconds():
    """Fastest of CAL_REPEATS runs of a fixed kernel of fimscore's kind of
    work (small dense products, elementwise maths, a Python loop). It runs
    no fimscore code, so only the machine's current speed moves it."""
    import numpy as np
    rng = np.random.default_rng(0)
    x, w, v = (rng.standard_normal(shape) for shape in ((128, 1), (32, 1), (2, 32)))
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(1000):
            g = (np.tanh(x @ w.T + 0.1) @ v.T * 0.5) @ v
            acc += float(np.sum(g * g))
            for j in range(20):
                acc += j * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def _untraced(wl, seed, seconds, tally):
    # Every operation gets a set-up of its own and a calibration just
    # before both, and each time is divided by that calibration: a shared
    # machine's speed can drift by 2x over minutes, and the ratio cancels
    # the drift that a median or minimum of raw times cannot.
    fingerprints, cals, setup_times, times = [], [], [], []
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start < seconds:
        cals.append(calibration_seconds())
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        times.append(_operate(wl, state, wl.run, tally, fingerprints))
    tally.add(wl.oracle(state))

    def at_reference_speed(raw):
        return CAL_REF_S * statistics.median(t / c for t, c in zip(raw, cals))

    op_s = at_reference_speed(times)
    metrics = {
        "setup_s": at_reference_speed(setup_times),
        "op_s": op_s,
        "peak_rss_mb": _peak_rss_mb(wl.rss_of_children),
    }
    name, value, unit = wl.headline(state, op_s)
    notes = [f"{len(times)} set-ups and operations",
             f"{name} {value:.6g} {unit} (from op_s)",
             f"raw wall time: median set-up {statistics.median(setup_times):.6g} s, "
             f"median operation {statistics.median(times):.6g} s, "
             f"fastest {min(times):.6g} s, median calibration "
             f"{statistics.median(cals):.6g} s"]
    return state, metrics, notes


def _traced(wl, seed, seconds, tally, env):
    import tracer as tr
    rec = tr.Tracer()
    targets = tr.targets()
    with tr.installed(rec, targets):
        state = wl.setup(seed)
    setup_spans = rec.take()

    def plain(st):
        return wl.run_traced(st, lambda name: contextlib.nullcontext())

    def traced(st):
        return wl.run_traced(st, rec.region)

    # untraced and traced operations alternate, each after a calibration
    # as in the untraced run, so that drift in the machine's speed falls
    # on both sides alike
    fingerprints, plain_ratios, traced_ratios, per_op = [], [], [], []
    start = time.perf_counter()
    while len(traced_ratios) < MIN_TRACED_OPS or time.perf_counter() - start < seconds:
        cal = calibration_seconds()
        plain_ratios.append(_operate(wl, state, plain, tally, fingerprints) / cal)
        cal = calibration_seconds()
        with tr.installed(rec, targets):
            traced_ratios.append(_operate(wl, state, traced, tally, fingerprints) / cal)
        per_op.append(rec.take())
    tally.add(wl.oracle(state))

    metrics = tr.median_metrics([tr.layer_metrics(spans) for spans in per_op])
    metrics["data.generate.ms"] += tr.layer_metrics(setup_spans)["data.generate.ms"]
    metrics["trace.overhead_ms"] = 1e3 * CAL_REF_S * (
        statistics.median(traced_ratios) - statistics.median(plain_ratios))
    metrics.update(wl.extra_layer_metrics(state))

    TRACE_OUT.mkdir(exist_ok=True)
    with open(TRACE_OUT / f"trace-{wl.name}-seed{seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed, "env": env,
                   "setup_spans": setup_spans, "op_spans": per_op}, fh)
    notes = [f"{len(plain_ratios)} untraced and {len(traced_ratios)} traced operations"]
    return state, metrics, notes


def run_one(name, seed, seconds, trace):
    import_program()
    import tracer as tr
    import workloads
    try:
        workloads.load_reference()
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {workloads.REFERENCE_FILE}: {exc}")
    env = environment()
    wl = workloads.make(name, SCRATCH)
    tally = Tally()
    if trace:
        state, metrics, notes = _traced(wl, seed, seconds, tally, env)
        units = dict(tr.PER_LAYER)
    else:
        state, metrics, notes = _untraced(wl, seed, seconds, tally)
        units = dict(END_TO_END)
    wl.close(state)
    with contextlib.suppress(OSError):
        SCRATCH.rmdir()
    if hasattr(wl, "reference") and not workloads.has_reference(name, seed):
        notes.append(f"reference check not run: {workloads.REFERENCE_FILE.name} "
                     f"has no entry for seed {seed}")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {name} seed {seed} trace {int(trace)}: " + "; ".join(notes))
    for metric, value in metrics.items():
        print(f"  {metric:<50} {value:.6g} {units[metric]}")
    ratio = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"  failed_ratio {ratio:.6g} ({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}", file=sys.stderr)
    correct = tally.attempted > 0 and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in metrics},
    }))
    return correct


def run_all(seed, seconds, trace):
    """Every workload in its own process; prints each one's report."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdin=subprocess.DEVNULL, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            results[name] = None
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return all(r is not None and r["correct"] for r in results.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload != "all":
        return 0 if run_one(args.workload, args.seed, args.seconds, args.trace) else 1
    return 0 if run_all(args.seed, args.seconds, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
