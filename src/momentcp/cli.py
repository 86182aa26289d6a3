"""Command-line surface: decompose, bench (explicit vs implicit), gmm sweep.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  All reported
timings cover optimization only; data generation, moment-tensor formation,
and file I/O are excluded.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass

import numpy as np

import momentcp
from momentcp.dense import ObservationSet, build_moment, element_cap, ttsv_batch_dense
from momentcp.gmm import (
    GmmSpec,
    correlated_means,
    gaussian_init,
    rrf_init,
    sample_gmm,
    similarity_score,
)
from momentcp.implicit import data_norm_sq, ttsv_batch
from momentcp.io import ParseError, SolutionRecord, read_observations
from momentcp.objective import packed_fg
from momentcp.optimize import (
    AdamConfig,
    OptConfig,
    adam_minimize,
    lbfgs_minimize,
    multistart,
    pack,
    packed_fg_implicit,
)

PAIRED_CHECK_RTOL = 1e-10
PAIRED_CHECK_POINTS = 10


@dataclass
class BenchScenario:
    """One timing scenario: uniform(0,1) observations, both evaluation routes."""

    d: int
    n: int
    p: int
    r: int
    runs: int = 10
    pgtol: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n, self.p, self.r, self.runs) < 1 or self.d < 2:
            raise ValueError(f"need positive dimensions and order >= 2, got {self}")


def _stats(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation; NaN for a route that did not run."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0


def run_bench(scenario: BenchScenario) -> dict:
    """Optimize the same random instances via both routes and compare timings.

    Per run: one shared initial guess, a full L-BFGS optimization with each
    evaluation route (both minimize the reduced objective over ``A``), and a
    paired check of that objective at factor matrices sampled from the
    implicit run's evaluations (both routes must agree to
    ``PAIRED_CHECK_RTOL``).
    The explicit route is skipped with a notice when n**d exceeds the element
    cap.
    """
    sc = scenario
    rng = np.random.default_rng(sc.seed)
    obs = ObservationSet(rng.random((sc.n, sc.p)))
    explicit_ok = sc.n**sc.d <= element_cap()
    points: list[np.ndarray] = []  # every A the implicit route evaluates

    def ttsv_recorded(A):
        points.append(A)
        return ttsv_batch(obs, A, sc.d)

    fg_imp = packed_fg(ttsv_recorded, sc.n, sc.r, sc.d)
    fg_exp = None
    if explicit_ok:
        X = build_moment(obs, sc.d)
        fg_exp = packed_fg(lambda A: ttsv_batch_dense(X, A), sc.n, sc.r, sc.d)

    cfg = OptConfig(pgtol=sc.pgtol, seed=sc.seed)
    children = np.random.SeedSequence(sc.seed).spawn(sc.runs)
    times = {"implicit": [], "explicit": []}
    iters = {"implicit": [], "explicit": []}
    max_paired_rel = 0.0
    max_final_abs = 0.0
    for i in range(sc.runs):
        run_rng = np.random.default_rng(children[i])
        x0 = pack(np.full(sc.r, 1.0 / sc.r), gaussian_init(sc.n, sc.r, run_rng))

        points.clear()
        rep_imp = lbfgs_minimize(fg_imp, x0, cfg, shape=(sc.n, sc.r))
        times["implicit"].append(rep_imp.wall_time)
        iters["implicit"].append(rep_imp.n_fg)

        if not explicit_ok:
            continue
        rep_exp = lbfgs_minimize(fg_exp, x0, cfg, shape=(sc.n, sc.r))
        times["explicit"].append(rep_exp.wall_time)
        iters["explicit"].append(rep_exp.n_fg)
        max_final_abs = max(max_final_abs, abs(rep_exp.f - rep_imp.f))

        picks = np.unique(
            np.linspace(0, len(points) - 1, PAIRED_CHECK_POINTS).astype(int)
        )
        for idx in picks:
            x = pack(np.zeros(sc.r), points[idx])
            f_i, _ = fg_imp.reduced(x)
            f_e, _ = fg_exp.reduced(x)
            rel = abs(f_e - f_i) / max(1.0, abs(f_e), abs(f_i))
            max_paired_rel = max(max_paired_rel, rel)
            if rel > PAIRED_CHECK_RTOL:
                raise RuntimeError(
                    f"explicit/implicit objective mismatch at shared iterate: "
                    f"{f_e!r} vs {f_i!r} (rel {rel:.3e})"
                )

    report = {
        "d": sc.d, "n": sc.n, "p": sc.p, "r": sc.r,
        "runs": sc.runs, "pgtol": sc.pgtol,
        "explicit_skipped": not explicit_ok,
        "max_paired_rel_fdiff": max_paired_rel if explicit_ok else float("nan"),
        "max_final_abs_fdiff": max_final_abs if explicit_ok else float("nan"),
    }
    for method in ("explicit", "implicit"):
        t, its = times[method], iters[method]
        report[f"{method}_time_per_iter_s"] = sum(t) / sum(its) if t else float("nan")
        _, report[f"{method}_time_per_iter_std_s"] = _stats([a / b for a, b in zip(t, its)])
        report[f"{method}_total_time_mean_s"], report[f"{method}_total_time_std_s"] = _stats(t)
        report[f"{method}_iters_mean"], report[f"{method}_iters_std"] = _stats(its)
    return report


_BENCH_COLUMNS = [
    "d", "n", "p", "r", "runs", "pgtol",
    "explicit_time_per_iter_s", "explicit_time_per_iter_std_s",
    "implicit_time_per_iter_s", "implicit_time_per_iter_std_s",
    "explicit_total_time_mean_s", "explicit_total_time_std_s",
    "implicit_total_time_mean_s", "implicit_total_time_std_s",
    "explicit_iters_mean", "explicit_iters_std",
    "implicit_iters_mean", "implicit_iters_std",
    "max_paired_rel_fdiff", "max_final_abs_fdiff", "explicit_skipped",
]


def write_bench_csv(path: str, report: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_BENCH_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerow(report)


def run_gmm_sweep(
    n: int,
    r: int,
    sigma: float,
    d: int,
    rank_min: int,
    rank_max: int,
    starts: int,
    seed: int,
    pgtol: float = 1e-4,
    threads: int = 1,
    congruence: float = 0.5,
) -> list[dict]:
    """Generate mixture data and fit each rank in ``[rank_min, rank_max]``.

    Per rank: a multistart fit (range-finder initialization), the relative
    error ``||X - M|| / ||X||`` computed entirely matrix-free, the similarity
    score against the true means, and the summed optimization time.
    """
    if rank_min < 1 or rank_max < rank_min:
        raise ValueError(f"bad rank range [{rank_min}, {rank_max}]")
    spec = GmmSpec(n=n, r=r, sigma=sigma, congruence=congruence)  # checks 1 <= r <= n
    ranks = list(range(rank_min, rank_max + 1))
    ss_means, ss_data, *ss_runs = np.random.SeedSequence(seed).spawn(2 + len(ranks))
    means = correlated_means(n, r, congruence, np.random.default_rng(ss_means))
    obs = sample_gmm(means, sigma, spec.p, np.random.default_rng(ss_data))
    norm_x_sq = data_norm_sq(obs, d)

    rows = []
    for j, r_hat in enumerate(ranks):
        fg = packed_fg_implicit(obs, d, r_hat)
        cfg = OptConfig(pgtol=pgtol, seed=seed)

        # initial weights at the uniform-mixture scale; weights of 1 would
        # start the model far too large and distort the early trajectory
        def init(rng, r_hat=r_hat):
            return pack(np.full(r_hat, 1.0 / r_hat), rrf_init(obs, r_hat, rng))

        def minimize(x0, rng, fg=fg, r_hat=r_hat):
            return lbfgs_minimize(fg, x0, cfg, shape=(n, r_hat))

        best = multistart(starts, init, minimize, ss_runs[j], threads=threads)
        rel_err = float(np.sqrt(max(best.f + norm_x_sq, 0.0) / norm_x_sq))
        rows.append({
            "r_hat": r_hat,
            "rel_err": rel_err,
            "score": similarity_score(means, best.A).score,
            "best_f": best.f,
            "total_time_s": sum(rp.wall_time for rp in best.runs),
        })
    return rows


def write_gmm_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["r_hat", "rel_err", "score", "best_f", "total_time_s"]
        )
        writer.writeheader()
        writer.writerows(rows)


def _write_trace_csv(path: str, runs) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "iteration", "f", "time_s"])
        for rep in runs:
            for it, (f, t) in enumerate(rep.trace):
                writer.writerow([rep.run_index, it, repr(float(f)), repr(float(t))])


def cmd_decompose(args, parser) -> int:
    if args.method == "lbfgs" and args.batch is not None:
        parser.error("--batch only applies to --method adam")
    obs = read_observations(args.input)
    d, r_hat = args.order, args.rank
    alpha = data_norm_sq(obs, d) if args.alpha == "exact" else 0.0

    lam0 = np.full(r_hat, 1.0 / r_hat)

    def init(rng):
        if args.init == "rrf":
            return pack(lam0, rrf_init(obs, r_hat, rng))
        return pack(lam0, gaussian_init(obs.n, r_hat, rng))

    if args.method == "lbfgs":
        fg = packed_fg_implicit(obs, d, r_hat, alpha)
        cfg = OptConfig(pgtol=args.pgtol, seed=args.seed)

        def minimize(x0, rng):
            return lbfgs_minimize(fg, x0, cfg, shape=(obs.n, r_hat))
    else:
        acfg = AdamConfig(batch=args.batch if args.batch is not None else 100)

        def minimize(x0, rng):
            return adam_minimize(obs, d, r_hat, x0, acfg, rng)

    best = multistart(args.starts, init, minimize, args.seed, threads=args.threads)
    final_f, grad_inf_norm = best.f, best.grad_inf_norm
    if args.method == "adam":
        # Adam reports its shifted estimate on a subset: evaluate the full objective
        final_f, g = packed_fg_implicit(obs, d, r_hat, alpha)(pack(best.lam, best.A))
        grad_inf_norm = np.abs(g).max()
    record = SolutionRecord(
        d=d,
        n=obs.n,
        p=obs.p,
        r_hat=r_hat,
        lam=[float(v) for v in best.lam],
        A_row_major=[float(v) for v in best.A.ravel(order="C")],
        final_f=float(final_f),
        alpha=float(alpha),
        grad_inf_norm=float(grad_inf_norm),
        iterations=int(sum(rp.n_fg for rp in best.runs)),
        wall_time_s=float(sum(rp.wall_time for rp in best.runs)),
        seed=args.seed,
        tool_version=momentcp.__version__,
    )
    record.save(args.output)
    if args.trace:
        _write_trace_csv(args.trace, best.runs)
    print(
        f"best of {args.starts} run(s): f={final_f:.6e} "
        f"grad_inf={grad_inf_norm:.3e} ({best.reason}) -> {args.output}"
    )
    return 0


def cmd_bench(args, parser) -> int:
    scenario = BenchScenario(
        d=args.order, n=args.dim, p=args.samples, r=args.rank,
        runs=args.runs, pgtol=args.pgtol, seed=args.seed,
    )
    if scenario.n**scenario.d > element_cap():
        print(
            f"notice: n**d = {scenario.n**scenario.d} exceeds the element cap "
            f"({element_cap()}); explicit route skipped",
            file=sys.stderr,
        )
    report = run_bench(scenario)
    if args.output:
        write_bench_csv(args.output, report)
    for method in ("explicit", "implicit"):
        per = report[f"{method}_time_per_iter_s"]
        tot = report[f"{method}_total_time_mean_s"]
        its = report[f"{method}_iters_mean"]
        print(f"{method:9s} time/iter {per:.3e} s  total {tot:.3f} s  iters {its:.0f}")
    print(
        f"paired objective agreement: max rel diff {report['max_paired_rel_fdiff']:.3e}, "
        f"max final |df| {report['max_final_abs_fdiff']:.3e}"
    )
    return 0


def cmd_gmm(args, parser) -> int:
    rows = run_gmm_sweep(
        n=args.n, r=args.r, sigma=args.sigma, d=args.order,
        rank_min=args.rank_min, rank_max=args.rank_max,
        starts=args.starts, seed=args.seed, pgtol=args.pgtol,
        threads=args.threads,
    )
    if args.output:
        write_gmm_csv(args.output, rows)
    for row in rows:
        print(
            f"r_hat={row['r_hat']:3d}  rel_err={row['rel_err']:.3e}  "
            f"score={row['score']:.4f}  time={row['total_time_s']:.2f} s"
        )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentcp",
        description="Symmetric CP decomposition of empirical moment tensors "
        "without forming them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="fit a rank-r model to an observation file")
    p_dec.add_argument("--input", required=True, help="observation file (CSV or MOMV binary)")
    p_dec.add_argument("--order", type=int, required=True, help="moment order d")
    p_dec.add_argument("--rank", type=_positive_int, required=True, help="target rank r")
    p_dec.add_argument("--starts", type=_positive_int, default=10)
    p_dec.add_argument("--init", choices=["rrf", "gaussian"], default="rrf")
    p_dec.add_argument("--pgtol", type=float, default=1e-4)
    p_dec.add_argument("--alpha", choices=["zero", "exact"], default="zero",
                       help="objective constant: 0 (shifted) or the data norm")
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--method", choices=["lbfgs", "adam"], default="lbfgs")
    p_dec.add_argument("--batch", type=_positive_int, default=None, help="sample size per step (adam)")
    p_dec.add_argument("--output", required=True, help="solution JSON path")
    p_dec.add_argument("--trace", default=None, help="optional per-run trace CSV path")
    p_dec.add_argument("--threads", type=_positive_int, default=1)
    p_dec.set_defaults(handler=cmd_decompose)

    p_bench = sub.add_parser("bench", help="time explicit vs implicit evaluation")
    p_bench.add_argument("--order", "-d", type=int, required=True)
    p_bench.add_argument("--dim", "-n", type=int, required=True)
    p_bench.add_argument("--samples", "-p", type=int, required=True)
    p_bench.add_argument("--rank", "-r", type=int, required=True)
    p_bench.add_argument("--runs", type=int, default=10)
    p_bench.add_argument("--pgtol", type=float, default=0.05)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output", default=None, help="report CSV path")
    p_bench.set_defaults(handler=cmd_bench)

    p_gmm = sub.add_parser("gmm", help="mixture recovery sweep over candidate ranks")
    p_gmm.add_argument("--n", type=int, required=True)
    p_gmm.add_argument("--r", type=int, required=True)
    p_gmm.add_argument("--sigma", type=float, required=True)
    p_gmm.add_argument("--order", type=int, required=True)
    p_gmm.add_argument("--rank-min", type=int, required=True)
    p_gmm.add_argument("--rank-max", type=int, required=True)
    p_gmm.add_argument("--starts", type=_positive_int, default=10)
    p_gmm.add_argument("--seed", type=int, default=0)
    p_gmm.add_argument("--pgtol", type=float, default=1e-4)
    p_gmm.add_argument("--threads", type=_positive_int, default=1)
    p_gmm.add_argument("--output", default=None, help="sweep CSV path")
    p_gmm.set_defaults(handler=cmd_gmm)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (ParseError, OSError, ValueError, RuntimeError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
