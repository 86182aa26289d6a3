"""Self-tests of the benchmark's correctness checks.

The independent objective must agree with momentcp's ``fg_implicit`` and
with dense tensors at random points, every check must pass on a converged
fit, and every check must fail on a wrong answer: perturbed factors,
truncated factors or weights, a misreported objective or gradient.
``run.py`` runs these before every measurement; to run them alone, from the
root of a checkout:

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import numpy as np

import checks


def _agreement(failures, rng):
    from momentcp import ObservationSet, fg_implicit

    for d, n, p, r in [(3, 7, 50, 3), (4, 5, 40, 2), (3, 12, 200, 4)]:
        obs = ObservationSet(rng.standard_normal((n, p)), nu=rng.random(p) + 0.1)
        for _ in range(3):
            lam, A, alpha = rng.standard_normal(r), rng.standard_normal((n, r)), rng.random()
            ref = fg_implicit(obs, lam, A, d, alpha)
            f, g_lam, g_A, scale, _ = checks.gram_objective(obs.V, obs.nu, lam, A, d, alpha)
            g_scale = max(np.abs(ref.g_A).max(), np.abs(ref.g_lam).max())
            if not (abs(f - ref.f) <= 1e-12 * scale
                    and np.allclose(g_lam, ref.g_lam, rtol=0, atol=1e-12 * g_scale)
                    and np.allclose(g_A, ref.g_A, rtol=0, atol=1e-12 * g_scale)):
                failures.append(f"gram_objective disagrees with fg_implicit at d={d}, n={n}")
            X = checks.dense_tensor(obs.V, obs.nu, d)
            M = checks.dense_tensor(A, lam, d)
            f_dense = alpha + np.vdot(M, M) - 2.0 * np.vdot(X, M)
            if abs(f_dense - f) > 1e-12 * scale:
                failures.append(f"gram_objective disagrees with dense tensors at d={d}, n={n}")
            if not np.isclose(checks.data_norm_sq(obs.V, obs.nu, d, block=16), np.vdot(X, X),
                              rtol=1e-12, atol=0):
                failures.append(f"data_norm_sq disagrees with the dense norm at d={d}, n={n}")


def _fitted(rng):
    """A small mixture and a converged fit of it:
    (means, V, nu, weights, lam, A, f, gradient inf-norm, pgtol)."""
    from momentcp import ObservationSet, OptConfig, lbfgs_minimize, multistart, pack
    from momentcp.optimize import packed_fg_implicit

    n, r, d, p = 6, 2, 3, 400
    means, _ = np.linalg.qr(rng.standard_normal((n, r)))
    labels = np.arange(p) % r
    V = means[:, labels] + 0.01 * rng.standard_normal((n, p))
    obs = ObservationSet(V)
    fg = packed_fg_implicit(obs, d, r)
    cfg = OptConfig(pgtol=1e-8)
    best = multistart(
        3, lambda g: pack(np.full(r, 1.0 / r), V[:, g.integers(0, p, r)]),
        lambda x0, g: lbfgs_minimize(fg, x0, cfg, shape=(n, r)), 0,
    )
    return (means, V, obs.nu, np.full(r, 1.0 / r), best.lam, best.A, best.f,
            best.grad_inf_norm, cfg.pgtol)


def _checks_fail_on_wrong_answers(failures, rng):
    means, V, nu, weights, lam, A, f, g_inf, pgtol = _fitted(rng)
    d = 3
    alpha = checks.data_norm_sq(V, nu, d)
    truth_f = checks.gram_objective(V, nu, weights, means, d, alpha)[0]
    X = checks.dense_tensor(V, nu, d)

    def all_checks(lam_, A_, f_, g_):
        """Result of each check on the answer (lam_, A_) reporting shifted
        objective f_ and gradient inf-norm g_."""
        return {
            "recovery": checks.check_recovery(means, A_, 0.99)[0],
            "stationary": checks.check_stationary(V, nu, lam_, A_, d, f_, g_, pgtol)[0],
            "dense": checks.check_dense(X, lam_, A_, d, f_)[0],
            "exact residual": checks.check_exact_residual(
                V, nu, lam_, A_, d, f_ + alpha, alpha, truth_f)[0],
        }

    for name, ok in all_checks(lam, A, f, g_inf).items():
        if not ok:
            failures.append(f"check '{name}' fails on a converged fit")

    scale = abs(f)
    truncated_A = A.copy()
    truncated_A[:, -1] = A[:, 0]
    truncated_lam = lam.copy()
    truncated_lam[-1] = 0.0
    wrong = {
        "perturbed factors": (lam, A + 1e-3 * rng.standard_normal(A.shape), f, g_inf),
        "truncated factors": (lam, truncated_A, f, g_inf),
        "truncated weights": (truncated_lam, A, f, g_inf),
        "misreported f": (lam, A, f + 1e-6 * scale, g_inf),
    }
    expect_fail = {
        "perturbed factors": ["stationary", "dense", "exact residual"],
        "truncated factors": ["recovery", "stationary", "dense", "exact residual"],
        "truncated weights": ["stationary", "dense", "exact residual"],
        "misreported f": ["stationary", "dense", "exact residual"],
    }
    for case, answer in wrong.items():
        results = all_checks(*answer)
        for name in expect_fail[case]:
            if results[name]:
                failures.append(f"check '{name}' passes on {case}")

    # Each clause of the stationarity and residual checks must fail by itself:
    # every answer below breaks that clause and keeps the others.
    perturbed_A = A + 1e-3 * rng.standard_normal(A.shape)
    f_p, g_lam_p, g_A_p, _, _ = checks.gram_objective(V, nu, lam, perturbed_A, d)
    g_p = max(float(np.abs(g_lam_p).max()), float(np.abs(g_A_p).max()))
    residual = f + alpha  # final_f of the converged fit, below truth_f
    low_alpha = alpha - 2.0 * residual  # makes the recomputed final_f -residual
    f_truncated = checks.gram_objective(V, nu, lam, truncated_A, d, alpha)[0]
    alone = {
        "stationary: f as recomputed": checks.check_stationary(
            V, nu, lam, A, d, f + 1e-6 * scale, g_inf, pgtol),
        # wide-cli checks with pgtol=None, where this clause is the only
        # gradient check
        "stationary: gradient norm as recomputed": checks.check_stationary(
            V, nu, lam, A, d, f, g_inf + 1e-6, None),
        "stationary: gradient norm within pgtol": checks.check_stationary(
            V, nu, lam, perturbed_A, d, f_p, g_p, pgtol),
        "exact residual: final_f >= 0": checks.check_exact_residual(
            V, nu, lam, A, d, f + low_alpha, low_alpha, truth_f),
        "exact residual: final_f as recomputed": checks.check_exact_residual(
            V, nu, lam, A, d, (residual + truth_f) / 2.0, alpha, truth_f),
        "exact residual: final_f within the true mixture's": checks.check_exact_residual(
            V, nu, lam, truncated_A, d, f_truncated, alpha, truth_f),
    }
    for clause, (ok, _) in alone.items():
        if ok:
            failures.append(f"check {clause}: passes when only this clause is broken")


def run() -> list[str]:
    """Run every self-test; returns the failures, empty when all pass."""
    failures: list[str] = []
    rng = np.random.default_rng(20191108)
    _agreement(failures, rng)
    _checks_fail_on_wrong_answers(failures, rng)
    return failures


if __name__ == "__main__":
    problems = run()
    print("\n".join(problems) if problems else "all benchmark self-tests pass")
    sys.exit(1 if problems else 0)
