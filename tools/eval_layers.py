"""Time one objective evaluation of each benchmark shape layer by layer,
with two checkouts' ``momentcp``, and one L-BFGS step's bookkeeping.

The shapes are the four ``perfbench`` workloads' on their seed-1 round-0
inputs (``perfbench/workloads.py``'s ``make_inputs``): ``tall-lbfgs``,
``small-d4`` and ``wide-cli`` evaluate ``fg.project`` of
``packed_fg_implicit`` on the whole sample (``wide-cli`` as its polish
does), ``tall-adam`` evaluates ``fg`` on one 100-column mini-batch.  The
layers are timed from outside the package, on the evaluator's own calls:

* ``forward_gemm``: ``V_b.T @ A`` over the TTSV's column blocks;
* ``back_gemm``: the two GEMMs fused block by block as the TTSV makes them,
  ``V_b @ (V_b.T @ A)``, less the forward GEMM, so ``V_b`` comes from cache
  as it does in the TTSV;
* ``power_weighting``: the TTSV (``objective._ttsv``, called with the
  arguments the evaluator gave it) less the two fused GEMMs: the
  elementwise power, the weighting and the block loop;
* ``gram_tail``: ``objective._finish`` on the evaluator's arguments, the
  ``r x r`` solve for ``lam*`` included;
* ``evaluation``: the whole call, and ``rest`` what it spends outside the
  TTSV and the tail (the factor's copy, packing);
* ``lbfgs_bookkeeping_per_step``: an L-BFGS run of ``STEPS`` steps from an
  rrf start less the time inside its evaluations (``fg.project``) and less
  the timing wrappers' own cost, per accepted step; Adam has none.

Each figure is the median over ``REPEATS`` of ``time.process_time`` over a
batch of calls, in microseconds per call; the repeats interleave all shapes
and layers in one process.  ``--side SRC`` times one checkout and prints
JSON; otherwise the two checkouts run in alternating order, ``--pairs``
times, each in a fresh process on one BLAS thread::

    git archive PARENT | tar -x -C /tmp/parent
    python tools/eval_layers.py --parent /tmp/parent/src --change src --pairs 10 \\
        --out layers.json

``BENCH_hot_path.json`` holds such a table under ``eval_layers``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from switch_table import ONE_THREAD, machine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 11
BATCH_S = 0.02  # process time one timed batch of calls aims at
STEPS = 20  # accepted steps of the bookkeeping run
LAYERS = ("forward_gemm", "power_weighting", "back_gemm", "gram_tail", "evaluation", "rest",
          "lbfgs_bookkeeping_per_step")


def per_call_us(fn, calls: int) -> float:
    c0 = time.process_time()
    for _ in range(calls):
        fn()
    return 1e6 * (time.process_time() - c0) / calls


def calls_for(fn) -> int:
    """Calls of ``fn`` that take about ``BATCH_S`` of process time."""
    return max(1, int(BATCH_S / max(per_call_us(fn, 3) * 1e-6, 1e-7)))


class Shape:
    """One workload's evaluator, its captured kernel calls and timed pieces."""

    def __init__(self, name: str):
        from workloads import ADAM_BATCH, WORKLOADS, make_inputs

        import momentcp.objective as objective
        from momentcp.dense import ObservationSet
        from momentcp.gmm import rrf_init
        from momentcp.implicit import _column_blocks
        from momentcp.optimize import pack

        w = WORKLOADS[name]
        V = np.asfortranarray(make_inputs(w, 1, 0).V)  # one observation a column, as read
        rng = np.random.default_rng(0)
        if w.solver == "adam":
            V = V[:, rng.integers(0, w.p, size=ADAM_BATCH)]  # as adam_minimize draws a batch
        self.obs = obs = ObservationSet(V)
        self.name, self.r = name, w.r
        self.fg = objective.packed_fg_implicit(obs, w.d, w.r)
        self.x = pack(np.full(w.r, 1.0 / w.r), rrf_init(obs, w.r, rng))
        self.evaluate = (lambda: self.fg(self.x)) if w.solver == "adam" else \
            (lambda: self.fg.project(self.x))
        self.lbfgs = w.solver != "adam"
        # the evaluator's own calls of the TTSV and the Gram tail
        seen = {}
        real = {k: getattr(objective, k) for k in ("_ttsv", "_finish")}

        def capture(name):
            def call(*args):
                seen.setdefault(name, args)
                return real[name](*args)
            return call

        for k in real:
            setattr(objective, k, capture(k))
        try:
            self.evaluate()
        finally:
            for k, fn in real.items():
                setattr(objective, k, fn)
        A = seen["_ttsv"][2]
        blocks = [V[:, b] for b in _column_blocks(V)]
        self.pieces = {"forward_gemm": lambda: [Vb.T @ A for Vb in blocks],
                       "gemms": lambda: [Vb @ (Vb.T @ A) for Vb in blocks],
                       "ttsv": lambda: real["_ttsv"](*seen["_ttsv"]),
                       "gram_tail": lambda: real["_finish"](*seen["_finish"]),
                       "evaluation": self.evaluate}
        self.calls = {k: calls_for(fn) for k, fn in self.pieces.items()}
        self.x0 = pack(np.full(w.r, 1.0 / w.r), rrf_init(obs, w.r, np.random.default_rng(1)))

    def time_pieces(self) -> dict:
        return {k: per_call_us(fn, self.calls[k]) for k, fn in self.pieces.items()}

    def bookkeeping(self, wrapper_us: float) -> float:
        """Microseconds per accepted step of an L-BFGS run outside its evaluations."""
        from momentcp.optimize import OptConfig, lbfgs_minimize

        inside = [0.0, 0]

        def timed(fn):
            def call(*args):
                c0 = time.process_time()
                try:
                    return fn(*args)
                finally:
                    inside[0] += time.process_time() - c0
                    inside[1] += 1
            return call

        real = self.fg.project
        self.fg.project = timed(real)
        try:
            c0 = time.process_time()
            rep = lbfgs_minimize(self.fg, self.x0, OptConfig(max_iters=STEPS), (self.obs.n, self.r))
            total = time.process_time() - c0
        finally:
            self.fg.project = real
        steps = max(rep.n_steps, 1)
        return 1e6 * (total - inside[0]) / steps - wrapper_us * inside[1] / steps


def wrapper_cost_us() -> float:
    """Process time one timing wrapper adds to a call, measured on a no-op."""
    def noop():
        return None

    def wrapped():
        c0 = time.process_time()
        try:
            return noop()
        finally:
            time.process_time() - c0

    return statistics.median(per_call_us(wrapped, 20_000) - per_call_us(noop, 20_000)
                             for _ in range(5))


def time_side() -> dict:
    """Every shape's layer medians in microseconds, repeats interleaved."""
    shapes = [Shape(name) for name in ("tall-lbfgs", "tall-adam", "small-d4", "wide-cli")]
    wrapper_us = wrapper_cost_us()
    samples = {s.name: {k: [] for k in LAYERS} for s in shapes}
    for _ in range(REPEATS):
        for s in shapes:
            t = s.time_pieces()
            t["back_gemm"] = t["gemms"] - t["forward_gemm"]
            t["power_weighting"] = t["ttsv"] - t["gemms"]
            t["rest"] = t["evaluation"] - t["ttsv"] - t["gram_tail"]
            t["lbfgs_bookkeeping_per_step"] = s.bookkeeping(wrapper_us) if s.lbfgs else None
            for k in LAYERS:
                samples[s.name][k].append(t[k])
    return {name: {k: None if v[0] is None else statistics.median(v) for k, v in layers.items()}
            for name, layers in samples.items()}


def run_side(src: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--side", src],
        env={**os.environ, **ONE_THREAD}, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def table(runs: list[dict]) -> dict:
    """Per shape and layer: both sides' medians over the pairs, their ratio
    and the pairs the change won."""
    out = {}
    for name in runs[0]["parent"]:
        out[name] = {}
        for k in LAYERS:
            a = [run["parent"][name][k] for run in runs]
            b = [run["change"][name][k] for run in runs]
            if a[0] is None:
                continue
            pa, pb = statistics.median(a), statistics.median(b)
            out[name][k] = {"parent_us": round(pa, 2), "change_us": round(pb, 2),
                            "ratio": round(pb / pa, 3) if pa > 0 else None,
                            "change_faster_pairs": sum(y < x for x, y in zip(a, b))}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--side", help="time this source directory alone and print JSON")
    ap.add_argument("--parent", help="source directory of the parent checkout")
    ap.add_argument("--change", help="source directory of the changed checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="output JSON path")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    if args.side:
        sys.path.insert(0, os.path.abspath(args.side))
        json.dump(time_side(), sys.stdout)
        return 0
    if not (args.parent and args.change):
        ap.error("give --side, or --parent and --change")
    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {side: run_side(getattr(args, side)) for side in order}
        runs.append(run)
        print(f"pair {i}: small-d4 evaluation {run['parent']['small-d4']['evaluation']:.1f} -> "
              f"{run['change']['small-d4']['evaluation']:.1f} us", file=sys.stderr)
    result = {"machine": machine(), "repeats": REPEATS, "pairs": args.pairs, "steps": STEPS,
              "layers_us": table(runs), "runs": runs}
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
