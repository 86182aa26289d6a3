"""One measured round of a workload, in a fresh interpreter.

``run.py`` starts this script once per round with the thread pin in its
environment and ``src`` on ``PYTHONPATH``:

    python3 perfbench/child.py ROUND.json

``ROUND.json`` names the workload, the input file, the multistart seed,
where to write the solution and results, and whether to trace.  The script
imports momentcp, sets up, fits, saves the solution through
``SolutionRecord.save`` and writes its timings next to the solution.
"""

import functools
import json
import resource
import sys
import time

import numpy as np

from workloads import ADAM_BATCH, MAX_EVALS, WORKLOADS


def require_every_start(best, starts):
    """Fail the round unless every start of the multistart finished:
    ``multistart`` drops a start that raises and returns the best of the
    rest, which would pass the checks with less work done."""
    if best.failures or len(best.runs) != starts:
        raise SystemExit(
            f"{len(best.runs)} of {starts} starts finished: " + "; ".join(best.failures)
        )


def fit_library(w, spec, optimize, gmm, io):
    """Set-up, fit and save through the library; returns (setup_s, fit_s)."""
    t0 = time.perf_counter()
    obs = io.read_observations(spec["input"])
    t1 = time.perf_counter()
    lam0 = np.full(w.r, 1.0 / w.r)

    def init(rng):
        return optimize.pack(lam0, gmm.rrf_init(obs, w.r, rng))

    if w.solver == "lbfgs":
        fg = optimize.packed_fg_implicit(obs, w.d, w.r)
        cfg = optimize.OptConfig(
            pgtol=w.pgtol, max_total_iters=MAX_EVALS, seed=spec["start_seed"]
        )

        def minimize(x0, rng):
            return optimize.lbfgs_minimize(fg, x0, cfg, shape=(w.n, w.r))
    else:
        acfg = optimize.AdamConfig(batch=ADAM_BATCH)

        def minimize(x0, rng):
            return optimize.adam_minimize(obs, w.d, w.r, x0, acfg, rng)

    best = optimize.multistart(w.starts, init, minimize, spec["start_seed"])
    t2 = time.perf_counter()
    require_every_start(best, w.starts)
    record = io.SolutionRecord(
        d=w.d, n=obs.n, p=obs.p, r_hat=w.r,
        lam=[float(v) for v in best.lam],
        A_row_major=[float(v) for v in best.A.ravel(order="C")],
        final_f=float(best.f), alpha=0.0,
        grad_inf_norm=float(best.grad_inf_norm),
        iterations=int(sum(rp.n_fg for rp in best.runs)),
        wall_time_s=t2 - t1, seed=spec["start_seed"],
        tool_version=spec["tool_version"],
    )
    record.save(spec["solution"])
    return t1 - t0, t2 - t1


def fit_cli(w, spec, cli):
    """``momentcp decompose`` through ``momentcp.cli.main``; returns (setup_s, fit_s).

    The multistart the CLI calls is timed and kept by a wrapper, since the
    solution file records the wall time of the best start only and does not
    say whether a start failed.  The CLI has no flag
    for the number of steps, so its ``OptConfig`` gets the workload's.
    """
    cli.OptConfig = functools.partial(cli.OptConfig, max_iters=w.steps)
    clock, reports = [], []
    multistart = cli.multistart

    def timed_multistart(*args, **kwargs):
        clock.append(time.perf_counter())
        try:
            reports.append(multistart(*args, **kwargs))
            return reports[-1]
        finally:
            clock.append(time.perf_counter())

    cli.multistart = timed_multistart
    argv = [
        "decompose", "--input", spec["input"], "--order", str(w.d),
        "--rank", str(w.r), "--starts", str(w.starts), "--init", "rrf",
        "--pgtol", repr(w.pgtol), "--alpha", "exact",
        "--seed", str(spec["start_seed"]), "--output", spec["solution"],
    ]
    t0 = time.perf_counter()
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"momentcp decompose exited with {code}")
    require_every_start(reports[0], w.starts)
    return clock[0] - t0, clock[1] - clock[0]


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    w = WORKLOADS[spec["workload"]]
    t0 = time.perf_counter()
    import momentcp
    import momentcp.cli as cli
    from momentcp import gmm, io, optimize

    import_s = time.perf_counter() - t0
    spec["tool_version"] = momentcp.__version__

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if w.solver == "cli":
        setup_s, fit_s = fit_cli(w, spec, cli)
    else:
        setup_s, fit_s = fit_library(w, spec, optimize, gmm, io)

    result = {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.import_s"] = import_s
        result["per_layer"] = layers
        result["missing"] = tracer.missing
        tracer.write(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
