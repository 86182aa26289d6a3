"""First-order solvers: limited-memory BFGS, an epoch-based Adam, multistart.

The solvers operate on a flat variable vector ``x = pack(lam, A)`` (weights
first, then the factor matrix column-major); gradients are packed the same
way.  ``lbfgs_minimize`` is a two-loop L-BFGS (Liu & Nocedal, 1989) with a
strong-Wolfe line search under L-BFGS-B's constants and stopping rules
(Byrd, Lu, Nocedal & Zhu, 1995), stopping on the gradient's infinity norm;
it takes packed evaluators only and eliminates ``lam`` (variable projection),
searching over ``A`` alone and reporting ``lam = G^{-1} w``.  Adam does not.
``adam_minimize`` runs stochastic gradients in fixed-length epochs, drawing
each epoch's samples at once and updating its moments in place, with a
monitored function estimate that triggers one learning-rate reduction and
then termination.
``multistart`` runs a solver from independently seeded initial guesses, one
after another in the calling thread, and keeps the run with the lowest final
objective.

All routines are deterministic given (seed, config, data) for a fixed BLAS
build and thread count; randomness only enters through explicitly passed
generators.  L-BFGS takes inner products by ``.dot``: ``@``'s BLAS ``ddot``
at half the call overhead.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from momentcp.dense import ObservationSet
from momentcp.implicit import _ttsv
from momentcp.objective import FgCallback, pack, packed_fg, packed_fg_implicit, unpack  # noqa: F401


# L-BFGS-B's line-search constants (Byrd, Lu, Nocedal & Zhu, SISC 1995):
# sufficient decrease, curvature, and the relative bracket width that ends a
# zoom (dcsrch's ftol, gtol and xtol)
_SUFFICIENT_DECREASE = 1e-3
_CURVATURE = 0.9
_XTOL = 0.1
_EPS = float(np.finfo(float).eps)
# a trial that fails sufficient decrease with |f - f0| at most this many eps of
# f's rounding scale is a rounding stall, which ends its search
_STALL_EPS = 4.0
# correction pairs L-BFGS stores
MEMORY = 5
# trials one line search may make; every trial is one evaluation
MAX_LINE_STEPS = 20
# Adam's moment decay rates and denominator offset (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Adam's schedule (see adam_minimize)
ADAM_STEP_SIZE = 0.01
ADAM_REDUCED_STEP_SIZE = 0.001
ADAM_EPOCH_LEN = 100
ADAM_ESTIMATE_SAMPLES = 1000
ADAM_MAX_EPOCHS = 1000
# both solvers' error for a start whose objective overflows
_NONFINITE_START = ("objective is not finite at the starting point at this data scale; "
                    "rescale the data")


@dataclass
class OptConfig:
    """L-BFGS settings.

    ``pgtol`` bounds the gradient's infinity norm at a solution; the integers
    ``max_iters`` and ``max_total_iters`` cap accepted steps and evaluations.
    The evaluation cap is checked between iterations, so a run makes at most
    ``max_total_iters + MAX_LINE_STEPS`` evaluations.  ``seed`` is only
    recorded in the report.
    """

    pgtol: float = 1e-4
    max_iters: int = 10_000
    max_total_iters: int = 50_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.pgtol > 0:  # also rejects NaN; inf stops at once
            raise ValueError(f"pgtol must be > 0, got {self.pgtol}")
        for name in ("max_iters", "max_total_iters"):
            cap = getattr(self, name)
            if not (isinstance(cap, (int, np.integer)) and cap >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {cap!r}")


@dataclass
class AdamConfig:
    """Adam's one setting: ``batch``, the observations each step samples.

    The rest of the schedule is the module's ``ADAM_*`` constants, read when
    :func:`adam_minimize` is called.
    """

    batch: int = 100

    def __post_init__(self) -> None:
        if not (isinstance(self.batch, (int, np.integer)) and self.batch >= 1):
            raise ValueError(f"batch must be an integer >= 1, got {self.batch!r}")


@dataclass
class RunReport:
    """Outcome of one optimization run (or the best of a multistart batch).

    ``trace`` rows are ``(f, seconds_since_start)`` at the initial point and
    after every accepted step (for Adam: after every epoch).  ``n_fg`` counts
    inner iterations: for L-BFGS the evaluations, at the starting point and
    at every line-search trial, so each full-data one is one pass over ``V``
    (for Adam: mini-batch gradient steps).  ``setup_time`` is the time a
    multistart fit spent before its starts on work they share
    (:func:`momentcp.cli.fit`'s subspace basis and compressed moment
    unfolding); no run's ``wall_time`` includes it.  ``fit`` ends a start in
    the basin of run ``j`` in a copy of run ``j``'s model, with its own
    subspace stage's counts and ``reason`` ``"grouped with run j"``.
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
    setup_time: float = 0.0


def two_loop_direction(g: np.ndarray, pairs: Sequence[tuple], gamma: float) -> np.ndarray:
    """L-BFGS two-loop recursion: returns ``-H @ g`` for the implicit inverse
    Hessian built from the stored pairs ``(s, y, rho)``, oldest first, with
    ``rho = 1 / (s'y)`` kept with each, on top of ``gamma * I``."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s.dot(q))
        q -= a * y
        alphas.append(a)
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y.dot(q))) * s
    return -q


def _zoom_step(lo: tuple, hi: tuple) -> float:
    """Next trial step inside the bracket whose ends are ``(step, f, slope,
    point)``: the minimizer of the cubic through both ends' ``f`` and slope
    (Nocedal & Wright, eq. 3.59), held at least 0.1 of the bracket from
    either end, or the midpoint when the cubic has no minimizer or an end is
    not finite."""
    a_lo, f_lo, d_lo, a_hi, f_hi, d_hi = np.array([*lo[:3], *hi[:3]])
    width = a_hi - a_lo
    with np.errstate(all="ignore"):
        d1 = d_lo + d_hi - 3.0 * (f_hi - f_lo) / width
        d2 = np.copysign(np.sqrt(d1 * d1 - d_lo * d_hi), width)
        t = 1.0 - (d_hi + d2 - d1) / (d_hi - d_lo + 2.0 * d2)
    return float(a_lo + width * (min(max(t, 0.1), 0.9) if np.isfinite(t) else 0.5))


def _line_search(trial, f0, d0, step, max_trials, scale):
    """Strong-Wolfe line search (Nocedal & Wright, Algorithms 3.5 and 3.6)
    along ``trial(t) -> (f, slope, point)``, one evaluation a trial, from
    ``f0`` and slope ``d0`` at step 0, where ``scale`` is ``f0``'s rounding
    scale.

    Doubles the step from ``step`` until the objective turns up, then zooms
    into the bracket with :func:`_zoom_step`.  Returns ``(t, point,
    trials)`` with ``t`` a step that meets both Wolfe conditions and
    ``point`` its trial's; or the best step so far with its point once the
    bracket is narrower than ``_XTOL`` of its upper end or a trial that
    fails sufficient decrease lies within ``_STALL_EPS * eps * scale`` of
    ``f0`` (a rounding stall; a non-finite trial is none), which is
    ``(0.0, None, trials)`` when no step met sufficient decrease; or
    ``(None, None, max_trials)`` when ``max_trials`` trials found neither.
    """
    # (step, f, slope, point) at the bracket's ends; lo is the best step
    lo, hi = (0.0, f0, d0, None), None
    a = step
    for evals in range(1, max_trials + 1):
        fa, da, pa = trial(a)
        if not (fa <= f0 + _SUFFICIENT_DECREASE * a * d0 and fa < lo[1]):  # NaN fails too
            if abs(fa - f0) <= _STALL_EPS * _EPS * scale:  # rounding stall
                return lo[0], lo[3], evals
            hi = (a, fa, da, pa)
        else:
            if abs(da) <= -_CURVATURE * d0:
                return a, pa, evals
            # f rises from a towards the far end (+inf while bracketing): the
            # minimum lies between a and the previous best step
            if da * ((np.inf if hi is None else hi[0]) - a) >= 0.0:
                hi = lo
            lo = (a, fa, da, pa)
        if hi is None:
            a *= 2.0
        elif abs(hi[0] - lo[0]) < _XTOL * max(lo[0], hi[0]):
            return lo[0], lo[3], evals
        else:
            a = _zoom_step(lo, hi)
    return None, None, max_trials


def lbfgs_minimize(
    fg: FgCallback,
    x0: np.ndarray,
    cfg: OptConfig,
    shape: tuple[int, int],
    first_direction: Callable[[np.ndarray, np.ndarray], np.ndarray | None] | None = None,
) -> RunReport:
    """Minimize a packed evaluator's objective over ``A`` with limited-memory BFGS.

    Parameters
    ----------
    fg:
        A packed evaluator (:func:`~momentcp.objective.packed_fg`, or a
        wrapper keeping its ``project``), minimized over ``A``
        alone, ignoring ``x0``'s weights; the report carries ``lam = G^{-1}
        w`` at the final ``A``, with ``f`` and the full gradient's norm
        there, all from the evaluation of that ``A``.  Each line search
        evaluates ``fg.project`` once at every trial step and hands back the
        accepted trial's evaluation, and ends on a rounding stall measured
        against ``f``'s rounding scale ``3 |f|``.
    x0:
        Starting point; ``fg`` must be finite there.
    cfg:
        Solver settings; the run stops when the gradient infinity norm drops
        to ``cfg.pgtol``, when an iteration cap is hit, when a line search
        ends with no step that meets sufficient decrease, or when a
        steepest-descent line search fails.  A non-finite ``f`` fails
        sufficient decrease, so the run ends at its last finite iterate.
    shape:
        ``(n, r)`` used to unpack the final iterate into the report.
    first_direction:
        Optional ``(x, g) -> direction`` for the first iteration, called once
        with the starting point (with ``lam*`` in its weight slots) and the
        gradient there.  Its direction is searched from step 1 in place of
        ``-g`` from ``1/||g||``; ``None`` from it, or a failed search along
        it, leaves that steepest-descent step.  Every later iteration is
        plain L-BFGS.
    """
    start = time.perf_counter()
    r = shape[1]  # the weight slots the search leaves out

    def evaluate(xt):  # (xt, x_star, f, full gradient, search gradient with 0 weight slots)
        x_star, f, g = fg.project(xt)
        return xt, x_star, f, g, np.concatenate([np.zeros(r), g[r:]])

    def trial(t):  # along the current direction from the current iterate
        point = evaluate(x + t * direction)
        return point[2], float(point[4].dot(direction)), point

    x, x_star, f, g_full, g = evaluate(np.asarray(x0, dtype=float).copy())
    n_fg = 1
    if not (np.isfinite(f) and np.isfinite(g).all()):
        raise ValueError(_NONFINITE_START)
    trace = [(f, time.perf_counter() - start)]

    pairs: deque[tuple] = deque(maxlen=MEMORY)  # (s, y, 1 / (s'y)), oldest first
    n_steps = 0
    reason = "line-search failure"
    while float(np.abs(g).max()) > cfg.pgtol:
        if n_steps >= cfg.max_iters or n_fg >= cfg.max_total_iters:
            reason = "iteration cap"
            break
        guided = False  # a search along first_direction's direction
        if pairs:
            direction, step = two_loop_direction(g, pairs, gamma), 1.0
        else:
            if first_direction is not None:
                direction, first_direction = first_direction(x_star, g), None
                guided = direction is not None
            if guided:
                step = 1.0
            else:
                direction, step = -g, 1.0 / float(np.linalg.norm(g))
        t, slope = None, float(g.dot(direction))
        if slope < 0.0:
            t, point, evals = _line_search(trial, f, slope, step, MAX_LINE_STEPS, 3.0 * abs(f))
            n_fg += evals
        if t is None:
            if not (pairs or guided):
                break
            # a failed search (or a direction that does not descend): drop
            # the pairs and retry once along -g
            pairs.clear()
            continue
        if point is None:  # no step lowered f
            break
        x_new, x_star, f, g_full, g_new = point
        s, y = x_new - x, g_new - g
        # L-BFGS-B's curvature test: a pair with too small an s'y could make H indefinite
        sy = float(s.dot(y))
        if sy > _EPS * -float(g.dot(s)):
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / float(y.dot(y))
        x, g = x_new, g_new
        n_steps += 1
        trace.append((f, time.perf_counter() - start))

    grad_inf_norm = float(np.abs(g_full).max())
    if grad_inf_norm <= cfg.pgtol:
        reason = "tolerance"
    lam, A = unpack(x_star, *shape)
    return RunReport(
        lam=lam,
        A=A,
        f=f,
        grad_inf_norm=grad_inf_norm,
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

    Every inner iteration takes a fresh ``cfg.batch``-observation sample (the
    draw :func:`~momentcp.objective.sample_observations` makes, drawn for a
    whole epoch of ``ADAM_EPOCH_LEN`` steps at once) and one bias-corrected
    Adam step of size ``ADAM_STEP_SIZE``, in place with the bits of Kingma &
    Ba's Algorithm 1.  Uniform weights are checked once.  After each epoch
    the objective is estimated on a fixed subset of ``ADAM_ESTIMATE_SAMPLES``
    observations (all of them when there are fewer); a non-decreasing
    estimate first reduces the step size to ``ADAM_REDUCED_STEP_SIZE``
    (rewinding to the prior epoch's iterate and restarting the moment
    accumulators), and on a second occurrence the run terminates with the
    prior epoch's iterate.  ``ADAM_MAX_EPOCHS`` caps the epochs.  The
    ``ADAM_*`` constants are read at call time.  A start or an epoch whose
    estimates are not finite (a data scale that overflows) raises ``ValueError``.
    """
    start = time.perf_counter()
    n, p = obs.V.shape
    if not obs.has_uniform_weights():
        raise ValueError("stochastic optimization requires uniform weights")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (r_hat + n * r_hat,):
        raise ValueError(f"x0 has length {x.size}, expected {r_hat + n * r_hat}")

    est_idx = rng.choice(p, size=min(ADAM_ESTIMATE_SAMPLES, p), replace=False)
    estimate = packed_fg_implicit(ObservationSet(obs.V[:, est_idx]), d, r_hat)
    # each step rebinds V_batch to its sample, of one shape, which batch_fg reads at call time
    V_batch = None
    W = np.full((cfg.batch, r_hat), 1.0 / cfg.batch)
    batch_fg = packed_fg(lambda A: _ttsv(V_batch, W, A, d), n, r_hat, d)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked below
        f_best, g_best = estimate(x)
    if not np.isfinite(f_best):
        raise ValueError(_NONFINITE_START)
    x_best = x.copy()
    trace = [(f_best, time.perf_counter() - start)]

    lr, b1, b2 = ADAM_STEP_SIZE, ADAM_BETA1, ADAM_BETA2
    m1, m2, tmp, den = (np.zeros_like(x) for _ in range(4))
    t = 0
    n_iter = 0
    increases = 0
    reason = "iteration cap"
    for _ in range(ADAM_MAX_EPOCHS):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked below
            for idx in rng.integers(0, p, size=(ADAM_EPOCH_LEN, cfg.batch)):
                V_batch = obs.V[:, idx]
                _, grad = batch_fg(x)
                t += 1
                # m1 = b1*m1 + (1-b1)*grad and m2 = b2*m2 + (1-b2)*grad*grad
                m1 *= b1
                np.multiply(grad, 1.0 - b1, out=tmp)
                m1 += tmp
                m2 *= b2
                np.multiply(grad, 1.0 - b2, out=tmp)
                tmp *= grad
                m2 += tmp
                # x = x - lr * (m1/c1) / (sqrt(m2/c2) + eps), c_i = 1 - b_i**t
                np.divide(m1, 1.0 - b1**t, out=tmp)
                tmp *= lr
                np.divide(m2, 1.0 - b2**t, out=den)
                np.sqrt(den, out=den)
                den += ADAM_EPS
                tmp /= den
                x -= tmp
                n_iter += 1
            f_est, g_est = estimate(x)
        if not (np.isfinite(f_est) and np.isfinite(m2).all()):
            raise ValueError("Adam's estimates are not finite at this data scale; rescale the data")
        trace.append((f_est, time.perf_counter() - start))
        if f_est < f_best:
            f_best, g_best = f_est, g_est
            x_best = x.copy()
        else:
            increases += 1
            x[:] = x_best
            m1[:] = 0.0
            m2[:] = 0.0
            t = 0
            if increases == 1:
                lr = ADAM_REDUCED_STEP_SIZE
            else:
                reason = "learning-rate exhausted"
                break

    lam, A = unpack(x_best, n, r_hat)
    return RunReport(
        lam=lam,
        A=A,
        f=f_best,
        grad_inf_norm=float(np.abs(g_best).max()),
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
) -> RunReport:
    """Run ``minimize`` from ``k`` independently seeded starts; keep the best.

    Each run gets its own generator derived from ``(seed, run index)``: run
    ``i``'s is seeded with the ``i``-th child this call spawns from ``seed``.
    ``init(rng)`` produces the starting point and the same generator is then
    handed to ``minimize`` for any in-run randomness.  The runs go in run
    order, one after another, in the calling thread.  The returned report is
    the run with the lowest final ``f`` (ties broken by run index), with all
    individual reports attached in ``runs``.  Runs that raise are collected;
    if every run fails, a ``RuntimeError`` aggregating the messages is raised.
    """
    if k < 1:
        raise ValueError(f"number of starts must be >= 1, got {k}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    successes, errors = [], []
    for i, child in enumerate(root.spawn(k)):
        try:
            rng = np.random.default_rng(child)
            report = minimize(init(rng), rng)
        except Exception as exc:  # noqa: BLE001 - aggregated below
            errors.append(f"run {i}: {exc}")
            continue
        report.run_index = i
        successes.append(report)
    if not successes:
        raise RuntimeError("all multistart runs failed: " + "; ".join(errors))
    best = min(successes, key=lambda rp: (rp.f, rp.run_index))
    best.runs = successes
    best.failures = errors
    best.seed = seed if isinstance(seed, int) else None
    return best
