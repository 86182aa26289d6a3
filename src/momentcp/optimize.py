"""First-order solvers: limited-memory BFGS, an epoch-based Adam, multistart.

The solvers operate on a flat variable vector ``x = pack(lam, A)`` (weights
first, then the factor matrix column-major); gradients are packed the same
way.  ``lbfgs_minimize`` runs scipy's L-BFGS-B without bounds, stopping on
the gradient's infinity norm; on a moment objective it eliminates ``lam``
(variable projection), searching over ``A`` alone and reporting
``lam = G^{-1} w``.  Adam does not.  ``adam_minimize`` runs
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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from momentcp.dense import ObservationSet
from momentcp.implicit import _ttsv
from momentcp.objective import FgCallback, pack, packed_fg, packed_fg_implicit, unpack  # noqa: F401


@dataclass
class OptConfig:
    """L-BFGS settings, each passed to scipy's L-BFGS-B as the option named.

    ``memory`` (``maxcor``) is the number of stored correction pairs;
    ``pgtol`` (``gtol``) bounds the gradient's infinity norm at a solution;
    ``max_iters`` (``maxiter``) caps iterations and ``max_total_iters``
    (``maxfun``) function/gradient evaluations; ``max_line_steps``
    (``maxls``) caps the evaluations of one line search.  The evaluation cap
    is checked between iterations, so a run makes at most
    ``max_total_iters + max_line_steps`` evaluations, plus one for the final
    ``lam`` solve of a reduced run.  ``seed`` is only recorded in the report.
    """

    memory: int = 5
    pgtol: float = 1e-4
    max_iters: int = 10_000
    max_total_iters: int = 50_000
    max_line_steps: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.pgtol > 0:  # also rejects NaN; inf stops at once
            raise ValueError(f"pgtol must be > 0, got {self.pgtol}")
        for name in ("memory", "max_iters", "max_total_iters", "max_line_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


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


def lbfgs_minimize(
    fg: FgCallback,
    x0: np.ndarray,
    cfg: OptConfig,
    shape: tuple[int, int],
) -> RunReport:
    """Minimize a smooth function with scipy's L-BFGS-B, without bounds.

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
        search cannot make progress.  A non-finite ``f`` counts as ``+inf``,
        which ends the run at the last finite iterate.
    shape:
        ``(n, r)`` used to unpack the final iterate into the report.
    """
    start = time.perf_counter()
    project = getattr(fg, "project", None)
    search = fg if project is None else fg.reduced
    trace: list[tuple[float, float]] = []
    n_fg = 0

    def fun(x):
        nonlocal n_fg
        f, g = search(x)
        n_fg += 1
        if not trace:
            if not (np.isfinite(f) and np.isfinite(g).all()):
                raise ValueError("objective is not finite at the starting point")
            trace.append((f, time.perf_counter() - start))
        return (f if np.isfinite(f) else np.inf), g

    def callback(intermediate_result):
        trace.append((intermediate_result.fun, time.perf_counter() - start))

    res = minimize(
        fun, np.asarray(x0, dtype=float), jac=True, method="L-BFGS-B", callback=callback,
        options={
            "maxcor": cfg.memory, "gtol": cfg.pgtol, "ftol": 0.0, "maxiter": cfg.max_iters,
            "maxfun": cfg.max_total_iters, "maxls": cfg.max_line_steps,
        },
    )
    x, f, g = res.x, float(res.fun), res.jac
    if project is not None:
        x, f, g = project(x)
        n_fg += 1
    grad_inf_norm = float(np.abs(g).max())
    if grad_inf_norm <= cfg.pgtol:
        reason = "tolerance"
    else:
        reason = "iteration cap" if res.status == 1 else "line-search failure"
    lam, A = unpack(x, *shape)
    return RunReport(
        lam=lam,
        A=A,
        f=f,
        grad_inf_norm=grad_inf_norm,
        n_fg=n_fg,
        n_steps=res.nit,
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
