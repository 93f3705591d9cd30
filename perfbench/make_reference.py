"""Record the outputs the benchmark checks later runs against.

    python3 perfbench/make_reference.py

For each seed of workloads.REFERENCE_SEEDS this runs one operation of
train_golden, pairing_grid and fim_probe with every output check and
oracle, and stores the final mean log-likelihood of train_golden and
every pairing_grid AUROC cell in reference.json beside this file,
replacing the whole file. Run it only on a commit whose outputs are
trusted, from the root of a source checkout; it stops with exit code 1,
leaving the file as it was, if any check fails.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    run.import_program()
    import workloads

    # workloads.REFERENCE stays empty, so no check compares against the
    # file this replaces
    seeds = workloads.REFERENCE_SEEDS
    reference = {"train_golden": {}, "pairing_grid": {}}
    failures = 0
    for seed in seeds:
        for wl in (workloads.TrainGolden(), workloads.PairingGrid(),
                   workloads.FimProbe()):
            state = wl.setup(seed)
            result = wl.run(state)
            items, _ = wl.check(state, result)
            problems = [p for item in items + wl.oracle(state) for p in item]
            for problem in problems:
                print(f"seed {seed} {wl.name}: {problem}", file=sys.stderr)
            failures += len(problems)
            if wl.name in reference:
                reference[wl.name][str(seed)] = wl.reference(result)
        print(f"seed {seed} done", flush=True)
    if failures:
        return 1
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"seeds": [seeds[0], seeds[-1]], **reference}, fh,
                  indent=None, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
