"""How far evaluation counts and fit time move when only rounding changes.

Fits round 0 of an L-BFGS workload twice in this process, through the
library and with the workload's stopping rule: once from the starts the
benchmark uses, once from the same starts scaled by ``1 + 1e-15``.  Prints
the evaluations of every start and the change in their sum and in the fit
time.  From the root of a checkout:

    PYTHONPATH=src python3 perfbench/perturb.py --workload tall-lbfgs --seed 1
"""

from __future__ import annotations

import argparse
import os
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402

from workloads import MAX_EVALS, WORKLOADS, make_inputs  # noqa: E402


def fit(w, obs, seed, scale):
    from momentcp import OptConfig, lbfgs_minimize, multistart, pack, rrf_init
    from momentcp.optimize import packed_fg_implicit

    fg = packed_fg_implicit(obs, w.d, w.r)
    steps = {"max_iters": w.steps} if w.steps else {}
    cfg = OptConfig(pgtol=w.pgtol, max_total_iters=MAX_EVALS, seed=seed, **steps)
    lam0 = np.full(w.r, 1.0 / w.r)
    t0 = time.perf_counter()
    best = multistart(
        w.starts, lambda rng: pack(lam0, rrf_init(obs, w.r, rng)) * scale,
        lambda x0, rng: lbfgs_minimize(fg, x0, cfg, shape=(w.n, w.r)), seed,
    )
    return time.perf_counter() - t0, [(rp.n_fg, rp.wall_time) for rp in best.runs]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="tall-lbfgs",
                        choices=[n for n, w in WORKLOADS.items() if w.solver != "adam"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    from momentcp import ObservationSet

    w = WORKLOADS[args.workload]
    obs = ObservationSet(make_inputs(w, args.seed, 0).V)
    start_seed = 1000 * args.seed
    base_s, base = fit(w, obs, start_seed, 1.0)
    pert_s, pert = fit(w, obs, start_seed, 1.0 + 1e-15)
    print("start  evals  evals(1+1e-15)  change")
    for i, ((e0, _), (e1, _)) in enumerate(zip(base, pert)):
        print(f"{i:5d}  {e0:5d}  {e1:14d}  {(e1 - e0) / e0:+.1%}")
    e0, e1 = sum(e for e, _ in base), sum(e for e, _ in pert)
    print(f"sum    {e0:5d}  {e1:14d}  {(e1 - e0) / e0:+.1%}")
    print(f"fit_s  {base_s:.3f}  {pert_s:.3f}  {(pert_s - base_s) / base_s:+.1%}")


if __name__ == "__main__":
    main()
