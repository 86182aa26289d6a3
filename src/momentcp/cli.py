"""Command-line surface: decompose, bench (explicit vs implicit), gmm sweep.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Reported timings
cover the optimization and, for ``fit``'s L-BFGS starts, the subspace basis
and the compressed moment's unfolding (``decompose``'s ``wall_time_s`` and
``gmm``'s ``total_time_s`` count them); data generation, dense moment-tensor
formation and file I/O are excluded.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

import momentcp
from momentcp.dense import ObservationSet, build_moment, element_cap, ttsv_batch_dense
from momentcp.gmm import correlated_means, gaussian_init, rrf_init, sample_gmm, similarity_score
from momentcp.implicit import data_norm_sq, principal_basis, ttsv_batch
from momentcp.io import ParseError, SolutionRecord, read_observations
from momentcp.objective import (
    lift_direction, pack, packed_fg, packed_fg_compressed, packed_fg_implicit,
)
from momentcp.optimize import (
    AdamConfig, OptConfig, RunReport, adam_minimize, lbfgs_minimize, multistart,
)

PAIRED_CHECK_RTOL = 1e-10
PAIRED_CHECK_POINTS = 10
# relative squared model distance at or below which a start's subspace
# solution is in the basin of an earlier, polished start
SAME_BASIN_TOL = 1e-9
# the gmm sweep's mixture: observations per component and the pairwise inner
# product of its unit-norm means
GMM_SAMPLES_PER_COMPONENT = 250
GMM_CONGRUENCE = 0.5


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
            f_i, f_e = fg_imp.project(x)[1], fg_exp.project(x)[1]
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


def _write_csv(path: str, fieldnames: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


class _Basins:
    """The polished starts of one fit, each with its subspace solution, in start order.

    ``runs`` holds ``(lam, B, run)``, appended once a start's polish has
    returned, so a start whose polish raised is no basin.  ``twin(lam, B)``
    returns the first of those runs whose subspace model is within
    ``SAME_BASIN_TOL`` of ``(lam, B)``'s, or ``None``; a start with a twin
    ends in a copy of the twin's run instead of a polish.  The test is
    ``||M_i - M_j||^2 <= SAME_BASIN_TOL * max(||M_i||^2, ||M_j||^2)``
    through the Gram identity ``<M_i, M_j> = lam_i' (B_i'B_j)^d lam_j``,
    O(k r^2) a pair.  The starts run in start order, so a decision reads
    only earlier starts.

    Grouping acts where the subspace stage runs to a tight ``pgtol``.  At
    1e-8 (``tools/switch_table.py``) and 1e-12 (``wide-cli``), starts that
    reach one minimum end 1e-16 to 1e-10 apart, and every fit groups some
    of its starts.  At ``pgtol`` 1e-4 they end 1e-8 to 1e-4 apart, and the
    switch table groups none of its 1,408 starts (``BENCH_one_line.json``).
    """

    def __init__(self, d: int) -> None:
        self.d, self.runs = d, []

    def _inner(self, lam_a, B_a, lam_b, B_b) -> float:
        return float(lam_a @ (B_a.T @ B_b) ** self.d @ lam_b)

    def twin(self, lam: np.ndarray, B: np.ndarray) -> RunReport | None:
        norm_sq = self._inner(lam, B, lam, B)
        for lam_j, B_j, run in self.runs:
            nsq = self._inner(lam_j, B_j, lam_j, B_j)
            dist_sq = norm_sq + nsq - 2.0 * self._inner(lam, B, lam_j, B_j)
            if dist_sq <= SAME_BASIN_TOL * max(norm_sq, nsq):
                return run
        return None


def fit(
    obs: ObservationSet, d: int, r_hat: int, cfg: OptConfig | AdamConfig, starts: int,
    seed: int | np.random.SeedSequence, *, init: str = "rrf", alpha: float = 0.0,
) -> RunReport:
    """Fit a rank-``r_hat`` model to the order-``d`` moment of ``obs`` from
    ``starts`` seeded starts; returns :func:`multistart`'s best run.

    Each start has weights ``1/r_hat`` and factors from ``rrf_init`` (or
    ``gaussian_init`` for ``init="gaussian"``).  An ``AdamConfig`` runs Adam
    on the full data, any other config L-BFGS in two stages.  The set-up
    takes ``U``, the top ``k = min(2 r_hat, n, p)`` eigenvectors of
    ``V diag(nu) V'`` (:func:`~momentcp.implicit.principal_basis`), once for
    all starts.  Each start is then drawn and fitted on the compressed data
    ``U'V`` (so ``rrf_init`` draws from the ``k x k`` factor of
    ``U'V V'U``, made at the first draw), whose objective at ``B`` is the
    full one at ``A = UB``, lifted to ``UB`` and polished by L-BFGS on the
    full data with what is left of ``cfg``'s step and evaluation caps (a
    spent budget leaves one evaluation at the lift), so a start keeps
    ``OptConfig``'s bounds over both stages.
    The polish opens with the Gauss-Newton direction ``-1/2 G_A K^{-1}`` of
    :func:`~momentcp.objective.lift_direction` at step 1: off ``range(U)``,
    which holds every column of the lift, ``J'J`` is exactly ``K (x) I_n``,
    and the subspace stage has made the gradient's part in ``range(U)``,
    ``U' G_A``, small.  A singular ``K`` or a failed search falls back to
    steepest descent; every later step is plain L-BFGS.  Its report is the
    polish's, with ``n_fg``, ``n_steps`` and ``wall_time`` summed over both
    stages and the subspace stage's ``trace`` rows first.  The polish is
    made once per basin: in start order, a start whose subspace model is
    within ``SAME_BASIN_TOL`` (relative squared distance) of that of an
    earlier start whose polish returned makes no full-data evaluation: its
    run has that start's ``lam``, ``A``, ``f`` and ``grad_inf_norm``, its
    subspace stage's counts, time and ``trace``, and ``reason``
    ``"grouped with run j"`` naming that start's ``run_index``
    (:class:`_Basins`; clustering multistart, Rinnooy Kan & Timmer, 1987).
    Every start has its run in ``runs``; a grouped one is never the best.
    The starts run one after another in the
    calling thread (:func:`~momentcp.optimize.multistart`).  Where
    ``k^(d-1) <= p`` the set-up also forms the ``k x k^(d-1)`` unfolding of
    the compressed moment, once, and the subspace stage evaluates from it
    in O(k^d r) instead of O(p k r)
    (:func:`~momentcp.objective.packed_fg_compressed`).  The best report's
    ``setup_time`` is the time of the basis and the unfolding, which no
    start's ``wall_time`` counts, and 0 for Adam.  The report's ``f`` and
    ``grad_inf_norm`` are the full objective with ``alpha`` at its ``lam``
    and ``A``: Adam's own are a shifted estimate on a subset, so they are
    evaluated afresh.
    """
    # initial weights at the uniform-mixture scale; weights of 1 would
    # start the model far too large and distort the early trajectory
    lam0 = np.full(r_hat, 1.0 / r_hat)
    full = packed_fg_implicit(obs, d, r_hat, alpha)
    adam = isinstance(cfg, AdamConfig)
    space, setup = obs, 0.0  # the starts are drawn in space, U' obs for L-BFGS
    if not adam:
        t0 = time.perf_counter()
        U = principal_basis(obs, 2 * r_hat)
        space = ObservationSet(U.T @ obs.V, obs.nu)
        comp = packed_fg_compressed(space, d, r_hat, alpha)
        # the subspace stage leaves the polish at least one evaluation of the budget
        sub_cfg = replace(cfg, max_total_iters=max(cfg.max_total_iters - 1, 1))
        setup = time.perf_counter() - t0

    basins = _Basins(d)

    def lift_step(x, g):
        return lift_direction(x, g, (obs.n, r_hat), d)

    def start(rng):
        if init == "rrf":
            return pack(lam0, rrf_init(space, r_hat, rng))
        return pack(lam0, gaussian_init(space.n, r_hat, rng))

    def minimize(x0, rng):
        if adam:
            return adam_minimize(obs, d, r_hat, x0, cfg, rng)
        sub = lbfgs_minimize(comp, x0, sub_cfg, shape=(space.n, r_hat))
        twin = basins.twin(sub.lam, sub.A)
        if twin is not None:  # multistart set twin's run_index when it returned
            return replace(sub, lam=twin.lam.copy(), A=twin.A.copy(), f=twin.f,
                           grad_inf_norm=twin.grad_inf_norm,
                           reason=f"grouped with run {twin.run_index}")
        steps, evals = cfg.max_iters - sub.n_steps, cfg.max_total_iters - sub.n_fg
        if min(steps, evals) < 1:  # one evaluation at the lift, no step
            steps, evals = 1, 1
        rep = lbfgs_minimize(full, pack(sub.lam, U @ sub.A),
                             replace(cfg, max_iters=steps, max_total_iters=evals),
                             shape=(obs.n, r_hat), first_direction=lift_step)
        basins.runs.append((sub.lam, sub.A, rep))
        rep.n_fg += sub.n_fg
        rep.n_steps += sub.n_steps
        rep.trace = sub.trace + [(f, t + sub.wall_time) for f, t in rep.trace]
        rep.wall_time += sub.wall_time
        return rep

    best = multistart(starts, start, minimize, seed)
    best.setup_time = setup
    if adam:
        best.f, g = full(pack(best.lam, best.A))
        best.grad_inf_norm = float(np.abs(g).max())
    return best


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
) -> list[dict]:
    """Generate mixture data and fit each rank in ``[rank_min, rank_max]``.

    The data are ``GMM_SAMPLES_PER_COMPONENT * r`` draws from ``r`` unit-norm
    means in dimension ``n`` whose pairwise inner products are
    ``GMM_CONGRUENCE``, with covariance ``sigma**2 * I``.

    Per rank: a multistart fit (range-finder initialization), the relative
    error ``||X - M|| / ||X||`` computed entirely matrix-free, the similarity
    score against the true means, and the summed optimization time.
    """
    if rank_min < 1 or rank_max < rank_min:
        raise ValueError(f"bad rank range [{rank_min}, {rank_max}]")
    ranks = list(range(rank_min, rank_max + 1))
    ss_means, ss_data, *ss_runs = np.random.SeedSequence(seed).spawn(2 + len(ranks))
    means = correlated_means(n, r, GMM_CONGRUENCE, np.random.default_rng(ss_means))
    obs = sample_gmm(means, sigma, GMM_SAMPLES_PER_COMPONENT * r, np.random.default_rng(ss_data))
    norm_x_sq = data_norm_sq(obs, d)

    rows = []
    for j, r_hat in enumerate(ranks):
        best = fit(obs, d, r_hat, OptConfig(pgtol=pgtol), starts, ss_runs[j])
        rel_err = float(np.sqrt(max(best.f + norm_x_sq, 0.0) / norm_x_sq))
        rows.append({
            "r_hat": r_hat,
            "rel_err": rel_err,
            "score": similarity_score(means, best.A).score,
            "best_f": best.f,
            "total_time_s": best.setup_time + sum(rp.wall_time for rp in best.runs),
        })
    return rows


def cmd_decompose(args, parser) -> int:
    if args.method == "lbfgs" and args.batch is not None:
        parser.error("--batch only applies to --method adam")
    obs = read_observations(args.input)
    d, r_hat = args.order, args.rank
    alpha = 0.0
    if args.alpha == "exact":
        # overflow is reported below, as a norm that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            alpha = data_norm_sq(obs, d)
        if not np.isfinite(alpha):
            raise ValueError(
                f"the data norm ||X||^2 of the order-{d} moment is not finite ({alpha}) "
                "at this data scale; rescale the data"
            )
    if args.method == "lbfgs":
        cfg = OptConfig(pgtol=args.pgtol, seed=args.seed)
    else:
        cfg = AdamConfig(batch=args.batch if args.batch is not None else 100)
    best = fit(obs, d, r_hat, cfg, args.starts, args.seed,
               init=args.init, alpha=alpha)
    record = SolutionRecord(
        d=d,
        n=obs.n,
        p=obs.p,
        r_hat=r_hat,
        lam=[float(v) for v in best.lam],
        A_row_major=[float(v) for v in best.A.ravel(order="C")],
        final_f=float(best.f),
        alpha=float(alpha),
        grad_inf_norm=float(best.grad_inf_norm),
        iterations=int(sum(rp.n_fg for rp in best.runs)),
        wall_time_s=float(best.setup_time + sum(rp.wall_time for rp in best.runs)),
        seed=args.seed,
        tool_version=momentcp.__version__,
    )
    record.save(args.output)
    if args.trace:
        _write_csv(args.trace, ["run", "iteration", "f", "time_s"], [
            {"run": rep.run_index, "iteration": it, "f": float(f), "time_s": float(t)}
            for rep in best.runs for it, (f, t) in enumerate(rep.trace)
        ])
    print(
        f"best of {args.starts} run(s): f={best.f:.6e} "
        f"grad_inf={best.grad_inf_norm:.3e} ({best.reason}) -> {args.output}"
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
        _write_csv(args.output, _BENCH_COLUMNS, [report])
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
    if args.rank_max < args.rank_min:
        parser.error("--rank-max must be >= --rank-min")
    rows = run_gmm_sweep(
        n=args.n, r=args.r, sigma=args.sigma, d=args.order,
        rank_min=args.rank_min, rank_max=args.rank_max,
        starts=args.starts, seed=args.seed, pgtol=args.pgtol,
    )
    if args.output:
        _write_csv(args.output, ["r_hat", "rel_err", "score", "best_f", "total_time_s"], rows)
    for row in rows:
        print(
            f"r_hat={row['r_hat']:3d}  rel_err={row['rel_err']:.3e}  "
            f"score={row['score']:.4f}  time={row['total_time_s']:.2f} s"
        )
    return 0


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


_positive_int, _moment_order, _seed = _int_at_least(1), _int_at_least(2), _int_at_least(0)


def _tolerance(text: str) -> float:
    value = float(text)
    if not value > 0:  # also rejects NaN; inf stops at once
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
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
    p_dec.add_argument("--order", type=_moment_order, required=True, help="moment order d")
    p_dec.add_argument("--rank", type=_positive_int, required=True, help="target rank r")
    p_dec.add_argument("--starts", type=_positive_int, default=10)
    p_dec.add_argument("--init", choices=["rrf", "gaussian"], default="rrf")
    p_dec.add_argument("--pgtol", type=_tolerance, default=1e-4)
    p_dec.add_argument("--alpha", choices=["zero", "exact"], default="zero",
                       help="objective constant: 0 (shifted) or the data norm")
    p_dec.add_argument("--seed", type=_seed, default=0)
    p_dec.add_argument("--method", choices=["lbfgs", "adam"], default="lbfgs")
    p_dec.add_argument("--batch", type=_positive_int, default=None, help="sample size per step (adam)")
    p_dec.add_argument("--output", required=True, help="solution JSON path")
    p_dec.add_argument("--trace", default=None, help="optional per-run trace CSV path")
    p_dec.set_defaults(handler=cmd_decompose)

    p_bench = sub.add_parser("bench", help="time explicit vs implicit evaluation")
    p_bench.add_argument("--order", "-d", type=_moment_order, required=True)
    p_bench.add_argument("--dim", "-n", type=_positive_int, required=True)
    p_bench.add_argument("--samples", "-p", type=_positive_int, required=True)
    p_bench.add_argument("--rank", "-r", type=_positive_int, required=True)
    p_bench.add_argument("--runs", type=_positive_int, default=10)
    p_bench.add_argument("--pgtol", type=_tolerance, default=0.05)
    p_bench.add_argument("--seed", type=_seed, default=0)
    p_bench.add_argument("--output", default=None, help="report CSV path")
    p_bench.set_defaults(handler=cmd_bench)

    p_gmm = sub.add_parser("gmm", help="mixture recovery sweep over candidate ranks")
    p_gmm.add_argument("--n", type=_positive_int, required=True)
    p_gmm.add_argument("--r", type=_positive_int, required=True)
    p_gmm.add_argument("--sigma", type=float, required=True)
    p_gmm.add_argument("--order", type=_moment_order, required=True)
    p_gmm.add_argument("--rank-min", type=_positive_int, required=True)
    p_gmm.add_argument("--rank-max", type=_positive_int, required=True)
    p_gmm.add_argument("--starts", type=_positive_int, default=10)
    p_gmm.add_argument("--seed", type=_seed, default=0)
    p_gmm.add_argument("--pgtol", type=_tolerance, default=1e-4)
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
