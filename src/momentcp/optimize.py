"""First-order solvers: limited-memory BFGS, an epoch-based Adam, multistart.

The solvers operate on a flat variable vector ``x = pack(lam, A)`` (weights
first, then the factor matrix column-major); gradients are packed the same
way.  ``lbfgs_minimize`` is a plain two-loop L-BFGS with a strong-Wolfe line
search and an infinity-norm gradient stopping rule; on a moment objective it
eliminates ``lam`` (variable projection), searching over ``A`` alone and
reporting ``lam = G^{-1} w``.  Adam does not.  ``adam_minimize`` runs
stochastic gradients in fixed-length epochs with a monitored function
estimate that triggers one learning-rate reduction and then termination.
``multistart`` fans a solver out over independently seeded initial guesses
and keeps the run with the lowest final objective.

All routines are deterministic given (seed, config, data) for a fixed BLAS
build and thread count; randomness only enters through explicitly passed
generators.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from momentcp.dense import ObservationSet
from momentcp.implicit import _ttsv
from momentcp.objective import FgCallback, pack, packed_fg, packed_fg_implicit, unpack  # noqa: F401


@dataclass
class OptConfig:
    """L-BFGS settings; defaults follow common practice for this problem class."""

    memory: int = 5
    pgtol: float = 1e-4
    max_iters: int = 10_000
    max_total_iters: int = 50_000
    sufficient_decrease: float = 1e-4
    curvature: float = 0.9
    max_line_steps: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.pgtol > 0:  # also rejects NaN; inf stops at once
            raise ValueError(f"pgtol must be > 0, got {self.pgtol}")
        if self.memory < 1:
            raise ValueError(f"memory must be >= 1, got {self.memory}")


@dataclass
class AdamConfig:
    """Epoch-based Adam settings.

    The step size drops from ``step_size`` to ``reduced_step_size`` the first
    time the per-epoch function estimate fails to decrease; the second
    failure terminates the run.  The estimate is computed on a fixed random
    subset of ``estimate_samples`` observations so values are comparable
    across epochs.
    """

    step_size: float = 0.01
    reduced_step_size: float = 0.001
    epoch_len: int = 100
    batch: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    estimate_samples: int = 1000
    max_epochs: int = 1000

    def __post_init__(self) -> None:
        if self.epoch_len < 1:
            raise ValueError(f"epoch_len must be >= 1, got {self.epoch_len}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")


@dataclass
class RunReport:
    """Outcome of one optimization run (or the best of a multistart batch).

    ``trace`` rows are ``(f, seconds_since_start)`` at the initial point and
    after every accepted step (for Adam: after every epoch).  ``n_fg`` counts
    inner iterations, i.e. function/gradient evaluations, the final ``lam``
    solve of a reduced L-BFGS run included (for Adam: mini-batch gradient
    steps).
    """

    lam: np.ndarray
    A: np.ndarray
    f: float
    grad_inf_norm: float
    n_fg: int
    n_steps: int
    wall_time: float
    reason: str
    seed: int | None = None
    trace: list[tuple[float, float]] = field(default_factory=list)
    run_index: int | None = None
    runs: list["RunReport"] | None = None
    failures: list[str] = field(default_factory=list)


def two_loop_direction(
    g: np.ndarray,
    s_list: list[np.ndarray],
    y_list: list[np.ndarray],
    gamma: float,
) -> np.ndarray:
    """L-BFGS two-loop recursion: returns ``-H @ g`` for the implicit inverse
    Hessian built from the stored ``(s, y)`` pairs on top of ``gamma * I``."""
    q = g.copy()
    alphas = []
    rhos = [1.0 / float(y @ s) for s, y in zip(s_list, y_list)]
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rhos)):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rhos), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def _quad_interp(a_lo, f_lo, d_lo, a_hi, f_hi):
    denom = f_hi - f_lo - d_lo * (a_hi - a_lo)
    if denom == 0 or not np.isfinite(denom):
        return None
    cand = a_lo - 0.5 * d_lo * (a_hi - a_lo) ** 2 / denom
    return cand if np.isfinite(cand) else None


def _wolfe_line_search(fg, x, f0, g0, direction, step0, c1, c2, max_trials):
    """Strong-Wolfe line search (bracket + zoom with safeguarded interpolation).

    Returns ``(x_new, f_new, g_new, evals)`` on success, or the best point
    satisfying sufficient decrease if the trial budget runs out with the
    curvature condition unmet, or ``(None, ..., evals)`` if no acceptable
    step was found at all.
    """
    d0 = float(g0 @ direction)
    evals = 0
    best = None  # best trial satisfying sufficient decrease: (a, f, g, x)

    def trial(a):
        nonlocal evals, best
        xa = x + a * direction
        fa, ga = fg(xa)
        evals += 1
        if np.isfinite(fa) and fa <= f0 + c1 * a * d0:
            if best is None or fa < best[1]:
                best = (a, fa, ga, xa)
        return fa, ga, xa

    # bracketing phase
    a_prev, f_prev, d_prev = 0.0, f0, d0
    a = step0
    lo = hi = None
    for _ in range(max_trials):
        fa, ga, xa = trial(a)
        da = float(ga @ direction) if np.isfinite(fa) else np.nan
        armijo_fail = not np.isfinite(fa) or fa > f0 + c1 * a * d0 or (
            a_prev > 0.0 and fa >= f_prev
        )
        if armijo_fail:
            lo = (a_prev, f_prev, d_prev)
            hi = (a, fa, da)
            break
        if abs(da) <= -c2 * d0:
            return xa, fa, ga, evals
        if da >= 0.0:
            lo = (a, fa, da)
            hi = (a_prev, f_prev, d_prev)
            break
        a_prev, f_prev, d_prev = a, fa, da
        a = min(2.0 * a, 1e20)

    # zoom phase, when the bracketing phase found an interval
    while lo is not None and evals < max_trials:
        a_lo, f_lo, d_lo = lo
        a_hi, f_hi, _ = hi
        width = a_hi - a_lo
        cand = _quad_interp(a_lo, f_lo, d_lo, a_hi, f_hi) if np.isfinite(f_hi) else None
        lo_bound = a_lo + 0.1 * width
        hi_bound = a_hi - 0.1 * width
        if cand is None or not (min(lo_bound, hi_bound) <= cand <= max(lo_bound, hi_bound)):
            cand = a_lo + 0.5 * width
        fa, ga, xa = trial(cand)
        da = float(ga @ direction) if np.isfinite(fa) else np.nan
        if not np.isfinite(fa) or fa > f0 + c1 * cand * d0 or fa >= f_lo:
            hi = (cand, fa, da)
        else:
            if abs(da) <= -c2 * d0:
                return xa, fa, ga, evals
            if da * (a_hi - a_lo) >= 0.0:
                hi = lo
            lo = (cand, fa, da)
        if abs(hi[0] - lo[0]) < 1e-16 * max(1.0, abs(lo[0])):
            break
    if best is not None:
        return best[3], best[1], best[2], evals
    return None, f0, g0, evals


def lbfgs_minimize(
    fg: FgCallback,
    x0: np.ndarray,
    cfg: OptConfig,
    shape: tuple[int, int],
) -> RunReport:
    """Minimize a smooth function with limited-memory BFGS.

    Parameters
    ----------
    fg:
        Callback returning ``(f, gradient)`` at a packed point.  One from
        :func:`~momentcp.objective.packed_fg` is minimized over ``A`` alone
        on its reduced route, ignoring ``x0``'s weights; the report carries
        ``lam = G^{-1} w`` at the final ``A``, with ``f`` and the full
        gradient's norm there.
    x0:
        Starting point; ``fg`` must be finite there.
    cfg:
        Solver settings; the run stops when the gradient infinity norm drops
        to ``cfg.pgtol``, when an iteration cap is hit, or when the line
        search cannot make progress.
    shape:
        ``(n, r)`` used to unpack the final iterate into the report.
    """
    start = time.perf_counter()
    project = getattr(fg, "project", None)
    search = fg if project is None else fg.reduced
    x = np.asarray(x0, dtype=float).copy()
    f, g = search(x)
    n_fg = 1
    if not (np.isfinite(f) and np.isfinite(g).all()):
        raise ValueError("objective is not finite at the starting point")
    trace = [(f, time.perf_counter() - start)]

    s_hist: deque[np.ndarray] = deque(maxlen=cfg.memory)
    y_hist: deque[np.ndarray] = deque(maxlen=cfg.memory)
    n_steps = 0
    reason = "iteration cap"
    while True:
        if float(np.abs(g).max()) <= cfg.pgtol:
            reason = "tolerance"
            break
        if n_steps >= cfg.max_iters or n_fg >= cfg.max_total_iters:
            reason = "iteration cap"
            break

        if s_hist:
            y_last = y_hist[-1]
            gamma = float(s_hist[-1] @ y_last) / float(y_last @ y_last)
            direction = two_loop_direction(g, list(s_hist), list(y_hist), gamma)
            step0 = 1.0
        else:
            direction = -g
            step0 = min(1.0, 1.0 / max(float(np.abs(g).sum()), 1e-12))
        if float(direction @ g) >= 0.0:
            # rounding produced a non-descent direction: restart from steepest descent
            s_hist.clear()
            y_hist.clear()
            direction = -g
            step0 = min(1.0, 1.0 / max(float(np.abs(g).sum()), 1e-12))

        budget = min(cfg.max_line_steps, cfg.max_total_iters - n_fg)
        x_new, f_new, g_new, evals = _wolfe_line_search(
            search, x, f, g, direction, step0,
            cfg.sufficient_decrease, cfg.curvature, budget,
        )
        n_fg += evals
        if x_new is None:
            # distinguish a genuinely failed search from one starved by the
            # evaluation budget
            reason = "iteration cap" if n_fg >= cfg.max_total_iters else "line-search failure"
            break

        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
        x, f, g = x_new, f_new, g_new
        n_steps += 1
        trace.append((f, time.perf_counter() - start))

    if project is not None:
        x, f, g = project(x)
        n_fg += 1
    lam, A = unpack(x, *shape)
    return RunReport(
        lam=lam,
        A=A,
        f=f,
        grad_inf_norm=float(np.abs(g).max()),
        n_fg=n_fg,
        n_steps=n_steps,
        wall_time=time.perf_counter() - start,
        reason=reason,
        seed=cfg.seed,
        trace=trace,
    )


def adam_minimize(
    obs: ObservationSet,
    d: int,
    r_hat: int,
    x0: np.ndarray,
    cfg: AdamConfig,
    rng: np.random.Generator,
) -> RunReport:
    """Stochastic minimization of the shifted objective with Adam.

    Every inner iteration draws a fresh ``cfg.batch``-observation sample (the
    draw :func:`~momentcp.objective.sample_observations` makes) and takes one
    bias-corrected Adam step.  Uniform weights are checked once, here.  After
    each epoch the objective is estimated on a fixed subset; a non-decreasing
    estimate first reduces the step size (rewinding to the prior epoch's
    iterate and restarting the moment accumulators), and on a second
    occurrence the run terminates with the prior epoch's iterate.
    """
    start = time.perf_counter()
    n, p = obs.V.shape
    if not obs.has_uniform_weights():
        raise ValueError("stochastic optimization requires uniform weights")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (r_hat + n * r_hat,):
        raise ValueError(f"x0 has length {x.size}, expected {r_hat + n * r_hat}")

    est_idx = rng.choice(p, size=min(cfg.estimate_samples, p), replace=False)
    estimate = packed_fg_implicit(ObservationSet(obs.V[:, est_idx]), d, r_hat)
    # each step rebinds V_batch to its sample, which batch_fg reads at call time
    V_batch = None
    nu_batch = np.full(cfg.batch, 1.0 / cfg.batch)
    batch_fg = packed_fg(lambda A: _ttsv(V_batch, nu_batch, A, d), n, r_hat, d)
    f_best, _ = estimate(x)
    x_best = x.copy()
    trace = [(f_best, time.perf_counter() - start)]

    lr = cfg.step_size
    m1 = np.zeros_like(x)
    m2 = np.zeros_like(x)
    t = 0
    n_iter = 0
    increases = 0
    reason = "iteration cap"
    for _ in range(cfg.max_epochs):
        for _ in range(cfg.epoch_len):
            V_batch = obs.V[:, rng.integers(0, p, size=cfg.batch)]
            _, grad = batch_fg(x)
            t += 1
            m1 = cfg.beta1 * m1 + (1.0 - cfg.beta1) * grad
            m2 = cfg.beta2 * m2 + (1.0 - cfg.beta2) * grad * grad
            m1_hat = m1 / (1.0 - cfg.beta1**t)
            m2_hat = m2 / (1.0 - cfg.beta2**t)
            x = x - lr * m1_hat / (np.sqrt(m2_hat) + cfg.eps)
            n_iter += 1
        f_est, _ = estimate(x)
        trace.append((f_est, time.perf_counter() - start))
        if f_est < f_best:
            f_best = f_est
            x_best = x.copy()
        else:
            increases += 1
            x = x_best.copy()
            m1[:] = 0.0
            m2[:] = 0.0
            t = 0
            if increases == 1:
                lr = cfg.reduced_step_size
            else:
                reason = "learning-rate exhausted"
                break

    _, g_final = estimate(x_best)
    lam, A = unpack(x_best, n, r_hat)
    return RunReport(
        lam=lam,
        A=A,
        f=f_best,
        grad_inf_norm=float(np.abs(g_final).max()),
        n_fg=n_iter,
        n_steps=n_iter,
        wall_time=time.perf_counter() - start,
        reason=reason,
        trace=trace,
    )


def multistart(
    k: int,
    init: Callable[[np.random.Generator], np.ndarray],
    minimize: Callable[[np.ndarray, np.random.Generator], RunReport],
    seed: int,
    threads: int = 1,
) -> RunReport:
    """Run ``minimize`` from ``k`` independently seeded starts; keep the best.

    Each run gets its own generator derived from ``(seed, run index)``;
    ``init(rng)`` produces the starting point and the same generator is then
    handed to ``minimize`` for any in-run randomness.  The returned report is
    the run with the lowest final ``f`` (ties broken by run index), with all
    individual reports attached in ``runs``.  Runs that raise are collected;
    if every run fails, a ``RuntimeError`` aggregating the messages is raised.
    """
    if k < 1:
        raise ValueError(f"number of starts must be >= 1, got {k}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(k)

    def one(i: int) -> RunReport | str:
        try:
            rng = np.random.default_rng(children[i])
            report = minimize(init(rng), rng)
        except Exception as exc:  # noqa: BLE001 - aggregated below
            return f"run {i}: {exc}"
        report.run_index = i
        return report

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(k)))
    else:
        # stay in the calling thread so that Ctrl-C stops a run at once
        results = list(map(one, range(k)))

    successes = [r for r in results if not isinstance(r, str)]
    errors = [r for r in results if isinstance(r, str)]
    if not successes:
        raise RuntimeError("all multistart runs failed: " + "; ".join(errors))
    best = min(successes, key=lambda rp: (rp.f, rp.run_index))
    best.runs = successes
    best.failures = errors
    best.seed = seed if isinstance(seed, int) else None
    return best
