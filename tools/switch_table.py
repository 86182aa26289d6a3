"""Fit the switch-table shapes with two checkouts' ``momentcp.cli.fit`` and
compare them fit by fit.

The shapes are those of the old ``4 r_hat <= n`` switch of ``cli.fit``:
seven at or below it and fifteen past it (``4 r > n``), in two tables,
sigma 0.1 with seeds 21-24 and sigma 0.01 with seeds 11-14.  Twenty of
them are on the unfolding side of the subspace stage's rule
``k**(d-1) <= p``, ``k = min(2 r, n, p)``, and two, ``n = 100`` at
``r = 36`` and ``r = 40``, on its matrix-free side.  Each
(table, seed) is fitted in one process per checkout, the two alternating
which runs first, on one BLAS thread::

    git archive PARENT | tar -x -C /tmp/parent
    python tools/switch_table.py --parent /tmp/parent/src --change src \\
        --pgtol 1e-8 --out BENCH_one_route_matched.json

``--side SRC --sigma S --seed N --pgtol P`` fits one checkout alone and
prints its fits as JSON.  The data and the similarity score are made here
with numpy and scipy, not with ``momentcp.gmm``, so that both checkouts fit
the same arrays and are scored the same way.  Each row of the output has
BENCH_one_route.json's layout: per seed, both sides' wall and CPU time (the
medians of ``REPEATS`` fits by ``perf_counter`` and ``process_time``, the
basis included), best ``f``, score against the true means, summed
evaluations and the number of starts polished (runs whose ``reason`` is not
``"grouped with run j"``).  Each side also records, per start after the
first, the relative squared distance ``||M_i - M_j||^2 / max(||M_i||^2,
||M_j||^2)`` from its subspace solution to the nearest earlier start's
(read off its subspace stage's ``lbfgs_minimize`` call, the one without
the ``first_direction`` that every polish passes), so the
summary's decade counts show where ``cli.SAME_BASIN_TOL`` falls among the
distances that occur.  The gate marks a fit whose changed best ``f``
is above the parent's by more than ``F_RTOL`` (relative), or, where
``r <= n``, whose score is more than ``SCORE_TOL`` from the parent's; four
means in three dimensions are not identifiable, so ``r > n`` is gated on
``f`` alone.  The summary takes the same-code spread of the time ratios
from the shapes whose fits are bit-identical on both sides (all of them
when ``--parent`` and ``--change`` name one checkout), for wall and CPU time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

F_RTOL = 1e-6
SCORE_TOL = 1e-3
REPEATS = 3
CONGRUENCE = 0.5
TABLES = {0.1: (21, 22, 23, 24), 0.01: (11, 12, 13, 14)}
# (d, n, r, p, starts)
SHAPES = [
    (3, 100, 10, 5000, 6), (4, 40, 5, 2000, 50), (3, 100, 20, 5000, 6), (3, 20, 5, 2000, 6),
    (3, 24, 6, 2000, 6), (3, 40, 10, 2000, 6), (3, 60, 15, 2000, 6),
    (3, 100, 30, 5000, 6), (3, 30, 10, 2000, 6), (3, 60, 20, 2000, 6), (3, 100, 36, 5000, 6),
    (3, 40, 15, 2000, 6), (3, 80, 30, 5000, 6), (3, 26, 10, 2000, 6), (3, 20, 8, 2000, 6),
    (3, 50, 20, 2000, 6), (3, 100, 40, 5000, 6), (3, 12, 5, 2000, 6), (3, 16, 7, 2000, 6),
    (3, 11, 5, 2000, 6), (3, 3, 4, 2000, 6), (3, 8, 4, 2000, 6),
]
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def mixture(n: int, r: int, p: int, sigma: float, seed: int):
    """``(means, V)``: ``r`` unit-norm means with pairwise inner products
    ``CONGRUENCE`` (random unit-norm columns when ``r > n``) and ``p``
    observations split evenly over them, with noise ``sigma``."""
    ss_means, ss_data = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(ss_means)
    if r <= n:
        gram = np.full((r, r), CONGRUENCE)
        np.fill_diagonal(gram, 1.0)
        basis, _ = np.linalg.qr(rng.standard_normal((n, r)))
        means = basis @ np.linalg.cholesky(gram).T
    else:
        means = rng.standard_normal((n, r))
        means /= np.linalg.norm(means, axis=0)
    labels = np.arange(p) * r // p
    V = means[:, labels] + sigma * np.random.default_rng(ss_data).standard_normal((n, p))
    return means, V


def score(means: np.ndarray, A: np.ndarray) -> float:
    """Mean absolute cosine of the best matching of ``A``'s columns to the means."""
    from scipy.optimize import linear_sum_assignment

    cos = np.abs((means / np.linalg.norm(means, axis=0)).T @ (A / np.linalg.norm(A, axis=0)))
    rows, cols = linear_sum_assignment(cos, maximize=True)
    return float(cos[rows, cols].sum() / min(cos.shape))


def nearest_distances(subs: list[tuple[np.ndarray, np.ndarray]], d: int) -> list[float]:
    """Per start after the first, the relative squared model distance from
    its ``(lam, B)`` to the nearest earlier start's, by the Gram identity."""
    def inner(a, b):
        return float(a[0] @ (a[1].T @ b[1]) ** d @ b[0])

    def distance(a, b):
        scale = max(inner(a, a), inner(b, b))
        return (inner(a, a) + inner(b, b) - 2.0 * inner(a, b)) / scale if scale else 0.0

    return [min(distance(a, b) for b in subs[:i]) for i, a in enumerate(subs) if i]


def fit_side(sigma: float, seed: int, pgtol: float) -> list[dict]:
    """Every shape fitted by the ``momentcp`` on ``sys.path``."""
    import momentcp.cli as cli
    from momentcp.dense import ObservationSet

    subs = []  # the subspace stages' reports, in start order
    lbfgs_minimize = cli.lbfgs_minimize

    def kept(*args, **kwargs):
        rep = lbfgs_minimize(*args, **kwargs)
        if "first_direction" not in kwargs:
            subs.append(rep)
        return rep

    cli.lbfgs_minimize = kept
    fits = []
    for d, n, r, p, starts in SHAPES:
        means, V = mixture(n, r, p, sigma, seed)
        obs = ObservationSet(V)
        wall, cpu = [], []
        for _ in range(REPEATS):
            subs.clear()
            t0, c0 = time.perf_counter(), time.process_time()
            best = cli.fit(obs, d, r, cli.OptConfig(pgtol=pgtol), starts, seed)
            wall.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
        bits = hashlib.sha256()
        for rep in best.runs:
            bits.update(np.array([rep.f, rep.n_fg, *(f for f, _ in rep.trace)]).tobytes())
            bits.update(rep.lam.tobytes() + rep.A.tobytes())
        fits.append({
            "d": d, "n": n, "r": r, "p": p, "starts": starts,
            "time_s": statistics.median(wall), "cpu_s": statistics.median(cpu),
            "best_f": float(best.f), "score": score(means, best.A),
            "evals": int(sum(rep.n_fg for rep in best.runs)),
            "polished": sum(not rep.reason.startswith("grouped with run") for rep in best.runs),
            "nearest": nearest_distances([(rep.lam, rep.A) for rep in subs], d),
            "sha256": bits.hexdigest()[:16],
        })
    return fits


def run_side(src: str, sigma: float, seed: int, pgtol: float) -> list[dict]:
    """``fit_side`` in a fresh process on the checkout whose sources are ``src``."""
    out = subprocess.run(
        [sys.executable, __file__, "--side", src, "--sigma", repr(sigma), "--seed", str(seed),
         "--pgtol", repr(pgtol)],
        env={**os.environ, **ONE_THREAD}, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def rows(parent: dict, change: dict, order: dict) -> list[dict]:
    """One row per shape from the sides' fits, keyed by seed."""
    table = []
    for i, (d, n, r, p, starts) in enumerate(SHAPES):
        per_seed = []
        for seed in parent:
            a, b = parent[seed][i], change[seed][i]
            f_rel = (b["best_f"] - a["best_f"]) / abs(a["best_f"])
            per_seed.append({
                "seed": seed, "order": order[seed],
                "time_ratio": round(b["time_s"] / a["time_s"], 3),
                "cpu_ratio": round(b["cpu_s"] / a["cpu_s"], 3),
                "parent": {k: a[k] for k in ("time_s", "cpu_s", "best_f", "score", "evals", "polished")},
                "change": {k: b[k] for k in ("time_s", "cpu_s", "best_f", "score", "evals", "polished")},
                "nearest_distances": [float(f"{x:.2g}") for x in b["nearest"]],
                "best_f_rel_diff": f_rel,
                "f_ok": f_rel <= F_RTOL,
                "score_ok": abs(b["score"] - a["score"]) <= SCORE_TOL if r <= n else None,
                "bits_identical": a["sha256"] == b["sha256"],
            })
        table.append({
            "d": d, "n": n, "r": r, "p": p, "starts": starts,
            "k_over_n": round(min(2 * r, n) / n, 3),
            "unfolded": min(2 * r, n, p) ** (d - 1) <= p,
            "bits_identical": all(s["bits_identical"] for s in per_seed),
            "median_time_ratio": round(statistics.median(s["time_ratio"] for s in per_seed), 3),
            "median_cpu_ratio": round(statistics.median(s["cpu_ratio"] for s in per_seed), 3),
            "polished": {side: [s[side]["polished"] for s in per_seed] for side in ("parent", "change")},
            f"best_f_within_{F_RTOL:g}_rel": all(s["f_ok"] for s in per_seed),
            f"score_within_{SCORE_TOL:g}": all(s["score_ok"] for s in per_seed) if r <= n else None,
            "per_seed": per_seed,
        })
    return table


def summary(table: list[dict]) -> dict:
    same = [row for row in table if row["bits_identical"]]
    fits = [s for row in table for s in row["per_seed"]]
    scored = [s for s in fits if s["score_ok"] is not None]
    decades = {}
    for s in fits:
        for x in s["nearest_distances"]:
            key = "0" if x <= 0 else f"1e{int(np.floor(np.log10(x)))}"
            decades[key] = decades.get(key, 0) + 1
    return {
        "same_code_median_time_ratio_range":
            [min(r["median_time_ratio"] for r in same), max(r["median_time_ratio"] for r in same)]
            if same else None,
        "same_code_median_cpu_ratio_range":
            [min(r["median_cpu_ratio"] for r in same), max(r["median_cpu_ratio"] for r in same)]
            if same else None,
        "changed_median_time_and_cpu_ratios": {
            f"d={row['d']},n={row['n']},r={row['r']}":
                [row["median_time_ratio"], row["median_cpu_ratio"]]
            for row in table if not row["bits_identical"]
        },
        "fits": len(fits),
        "fits_f_ok": sum(s["f_ok"] for s in fits),
        "fits_scored": len(scored),
        "fits_score_ok": sum(s["score_ok"] for s in scored),
        "max_best_f_rel_diff": max(s["best_f_rel_diff"] for s in fits),
        "max_abs_score_diff": max(abs(s["change"]["score"] - s["parent"]["score"])
                                  for s in scored),
        "starts": sum(row["starts"] for row in table for _ in row["per_seed"]),
        "starts_polished": {side: sum(s[side]["polished"] for s in fits)
                            for side in ("parent", "change")},
        "fits_with_a_grouped_start": {
            side: sum(s[side]["polished"] < row["starts"] for row in table for s in row["per_seed"])
            for side in ("parent", "change")},
        "nearest_distance_decades": dict(sorted(decades.items(), key=lambda kv: float(kv[0]))),
    }


def machine() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "vcpus": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": int(ONE_THREAD["OPENBLAS_NUM_THREADS"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pgtol", type=float, required=True)
    ap.add_argument("--parent", help="source directory of the parent checkout")
    ap.add_argument("--change", help="source directory of the changed checkout")
    ap.add_argument("--out", help="output JSON path")
    ap.add_argument("--side", help="fit this source directory alone and print JSON")
    ap.add_argument("--sigma", type=float)
    ap.add_argument("--seed", type=int)
    args = ap.parse_args(argv)
    if args.side:
        sys.path.insert(0, os.path.abspath(args.side))
        json.dump(fit_side(args.sigma, args.seed, args.pgtol), sys.stdout)
        return 0
    if not (args.parent and args.change and args.out):
        ap.error("--parent, --change and --out are needed unless --side is given")
    result = {"pgtol": args.pgtol, "repeats": REPEATS, "machine": machine(),
              "gate": {"f_rtol": F_RTOL, "score_tol": SCORE_TOL}, "tables": {}}
    for sigma, seeds in TABLES.items():
        fits = {"parent": {}, "change": {}}
        order = {}
        for j, seed in enumerate(seeds):
            sides = ["parent", "change"] if j % 2 == 0 else ["change", "parent"]
            order[seed] = f"{sides[0]} first"
            for side in sides:
                src = args.parent if side == "parent" else args.change
                fits[side][seed] = run_side(src, sigma, seed, args.pgtol)
                print(f"sigma {sigma} seed {seed} {side} done", file=sys.stderr)
        table = rows(fits["parent"], fits["change"], order)
        result["tables"][f"sigma_{sigma:g}"] = {"sigma": sigma, "seeds": list(seeds),
                                                "summary": summary(table), "rows": table}
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
