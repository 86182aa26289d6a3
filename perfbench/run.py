"""Benchmark of momentcp: time to a fitted model, memory, and mean recovery.

Run from the root of a momentcp checkout:

    python3 perfbench/run.py --workload tall-lbfgs --seed 1 --seconds 20 --trace 0

The run makes the workload's input file from ``--seed``, runs the self-tests
of its correctness checks, then measures a fixed number of rounds.  Each
round is a fresh ``python3 perfbench/child.py`` process that imports
momentcp, sets up, fits a multistart and saves the solution; each fitted
model is then checked with the benchmark's own code.  The last line of
standard output is one JSON object: medians over the rounds of the
end-to-end metrics (``--trace 0``) or of the per-layer metrics taken from
spans (``--trace 1``).  BLAS and OpenMP run on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the thread pin must be in place before numpy loads its BLAS
os.environ.update(PIN)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import selftest  # noqa: E402
from workloads import WORKLOADS, make_inputs, write_input  # noqa: E402


class Reference:
    """What the checks compare one round's fitted model against."""

    def __init__(self, w, inputs):
        self.w = w
        self.inputs = inputs
        self.nu = np.full(w.p, 1.0 / w.p)
        V = inputs.V
        if w.dense_check:
            self.X_dense = checks.dense_tensor(V, self.nu, w.d)
        if w.solver == "cli":
            self.alpha = checks.data_norm_sq(V, self.nu, w.d)
            self.truth_f = checks.gram_objective(
                V, self.nu, inputs.weights, inputs.means, w.d, self.alpha
            )[0]

    def check(self, solution):
        """All checks that apply to the workload; returns (ok, score, details)."""
        w, V = self.w, self.inputs.V
        lam = np.asarray(solution["lam"])
        A = np.asarray(solution["A_row_major"]).reshape(w.n, w.r)
        f = solution["final_f"]
        ok, detail, score = checks.check_recovery(self.inputs.means, A, w.threshold)
        results = [(ok, detail)]
        if w.solver != "adam":
            results.append(checks.check_stationary(
                V, self.nu, lam, A, w.d, f, solution["grad_inf_norm"],
                None if w.steps else w.pgtol, solution["alpha"],
            ))
        if w.dense_check:
            results.append(checks.check_dense(self.X_dense, lam, A, w.d, f))
        if w.solver == "cli":
            results.append(checks.check_exact_residual(
                V, self.nu, lam, A, w.d, f, self.alpha, self.truth_f
            ))
        return all(ok for ok, _ in results), score, [d for _, d in results]


def run_round(spec_path, env):
    """Run one child; returns (wall seconds, exit code, stderr)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            env=env, capture_output=True, text=True, timeout=150,
        )
    except subprocess.TimeoutExpired as exc:
        return time.perf_counter() - t0, -1, f"timed out after {exc.timeout} s"
    return time.perf_counter() - t0, proc.returncode, proc.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "momentcp", "__init__.py")):
        print(f"error: {root} is not a momentcp checkout (no src/momentcp)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    failures = selftest.run()
    if failures:
        print("error: benchmark self-tests failed:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1

    w = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench", f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    input_path = os.path.join(work, f"input.{w.fmt}")
    env = dict(os.environ, PYTHONPATH=src, **PIN)
    rounds = w.rounds(args.seconds)
    samples: dict[str, list[float]] = {}
    correct, failed = True, 0
    inputs = None
    for i in range(rounds):
        if inputs is None or w.fresh_input:
            inputs = make_inputs(w, args.seed, i)
            write_input(input_path, w, inputs.V)
            reference = Reference(w, inputs)
        spec = {
            "workload": w.name,
            "input": input_path,
            "start_seed": 1000 * args.seed + i,
            "trace": args.trace,
            "solution": os.path.join(work, f"solution{i}.json"),
            "result": os.path.join(work, f"result{i}.json"),
            "spans": os.path.join(work, f"spans{i}.csv"),
        }
        spec_path = os.path.join(work, f"round{i}.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        wall_s, code, stderr = run_round(spec_path, env)
        if code != 0:
            failed += 1
            print(f"round {i}: child exited with {code}:\n{stderr}", file=sys.stderr)
            continue
        with open(spec["result"]) as fh:
            result = json.load(fh)
        with open(spec["solution"]) as fh:
            ok, score, details = reference.check(json.load(fh))
        print(f"round {i}: {'ok' if ok else 'WRONG'}: " + "; ".join(details), file=sys.stderr)
        correct = correct and ok
        if result.get("missing"):
            print(f"round {i}: trace targets missing: {result['missing']}", file=sys.stderr)
        values = result.get("per_layer") if args.trace else {
            "wall_s": wall_s,
            "setup_s": result["setup_s"],
            "fit_s": result["fit_s"],
            "peak_mem_mb": result["peak_mem_mb"],
            "recovery_score": score,
        }
        for name, value in values.items():
            samples.setdefault(name, []).append(value)

    os.remove(input_path)
    if not samples:
        print("error: every round failed", file=sys.stderr)
        return 1
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": correct,
        "attempted": rounds,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
