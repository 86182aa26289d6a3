"""Acceptance suite: one test per gate criterion, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.

Tolerance convention for route-vs-oracle comparisons: "relative" error is
measured against the magnitude of the accumulated terms (the same kernel
evaluated on absolute-valued inputs) plus the reference value.  That is the
scale at which any floating-point evaluation rounds; entries that cancel
catastrophically carry no more correct digits in the dense oracle than in
the matrix-free route, so a pure value-relative comparison would test
nothing but the conditioning of the instance.
"""

import time

import numpy as np

from momentcp import (
    AdamConfig,
    ObservationSet,
    OptConfig,
    adam_minimize,
    build_moment,
    correlated_means,
    data_norm_sq,
    fg_explicit,
    fg_implicit,
    gaussian_init,
    inner,
    kruskal_norm_sq,
    kruskal_to_dense,
    lbfgs_minimize,
    model_data_inner,
    multistart,
    pack,
    rrf_init,
    sample_gmm,
    sample_observations,
    similarity_score,
    ttsv_all_but_one,
    ttsv_batch,
    SymKruskal,
)
from momentcp.cli import BenchScenario, run_bench, run_gmm_sweep
from momentcp.optimize import packed_fg_implicit


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_instance(rng):
    n = int(rng.integers(1, 7))
    p = int(rng.integers(1, 9))
    r = int(rng.integers(1, 4))
    d = int(rng.choice([2, 3, 4]))
    obs = ObservationSet(rng.standard_normal((n, p)), rng.random(p) + 0.5)
    lam = rng.standard_normal(r)
    A = rng.standard_normal((n, r))
    return obs, lam, A, d


def _term_scales(obs, lam, A, d, alpha):
    """Accumulated-term magnitudes for f, g_lam, g_A (see module docstring)."""
    obs_abs = ObservationSet(np.abs(obs.V), obs.nu)
    lam_a, A_a = np.abs(lam), np.abs(A)
    Y_abs = ttsv_batch(obs_abs, A_a, d)
    B = A_a.T @ A_a
    C = B.copy()
    for _ in range(d - 2):
        C *= B
    u = (B * C) @ lam_a
    w = np.einsum("ij,ij->j", A_a, Y_abs)
    f_scale = abs(alpha) + float(lam_a @ u) + 2.0 * float(w @ lam_a)
    gl_scale = 2.0 * (w + u)
    gA_scale = 2.0 * d * (Y_abs + (A_a * lam_a) @ C) * lam_a
    return f_scale, gl_scale, gA_scale, Y_abs


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_fg = 0.0
    worst_kernel = 0.0
    for _ in range(500):
        obs, lam, A, d = _random_instance(rng)
        alpha = float(rng.standard_normal())
        X = build_moment(obs, d)
        re = fg_explicit(X, lam, A, alpha)
        ri = fg_implicit(obs, lam, A, d, alpha)
        f_scale, gl_scale, gA_scale, Y_abs = _term_scales(obs, lam, A, d, alpha)
        worst_fg = max(worst_fg, abs(re.f - ri.f) / (f_scale + abs(re.f) + 1e-300))
        worst_fg = max(
            worst_fg,
            float((np.abs(re.g_lam - ri.g_lam) / (gl_scale + np.abs(re.g_lam) + 1e-300)).max()),
            float((np.abs(re.g_A - ri.g_A) / (gA_scale + np.abs(re.g_A) + 1e-300)).max()),
        )

        # matrix-free kernels against the dense oracle
        model = SymKruskal(d, lam, A)
        M = kruskal_to_dense(model)
        Y_dense = np.column_stack(
            [ttsv_all_but_one(X, A[:, j]) for j in range(lam.size)]
        )
        Y_imp = ttsv_batch(obs, A, d)
        worst_kernel = max(
            worst_kernel,
            float((np.abs(Y_dense - Y_imp) / (Y_abs + np.abs(Y_dense) + 1e-300)).max()),
        )
        obs_abs = ObservationSet(np.abs(obs.V), obs.nu)
        ks, ks_o = kruskal_norm_sq(model), inner(M, M)
        ks_s = kruskal_norm_sq(SymKruskal(d, np.abs(lam), np.abs(A)))
        worst_kernel = max(worst_kernel, abs(ks - ks_o) / (ks_s + abs(ks_o) + 1e-300))
        ds, ds_o = data_norm_sq(obs, d), inner(X, X)
        ds_s = data_norm_sq(obs_abs, d)
        worst_kernel = max(worst_kernel, abs(ds - ds_o) / (ds_s + abs(ds_o) + 1e-300))
        _, val = model_data_inner(Y_imp, A, lam)
        _, val_s = model_data_inner(Y_abs, np.abs(A), np.abs(lam))
        val_o = inner(X, M)
        worst_kernel = max(worst_kernel, abs(val - val_o) / (val_s + abs(val_o) + 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst_fg <= 1e-10 and worst_kernel <= 1e-12 and elapsed < 60
    _report(
        1, "oracle equivalence", ok,
        f"500 instances: fg rel {worst_fg:.2e} (tol 1e-10), "
        f"kernels rel {worst_kernel:.2e} (tol 1e-12), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(4096)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(2, 9))
        r = int(rng.integers(1, 4))
        d = int(rng.choice([2, 3, 4]))
        obs = ObservationSet(rng.standard_normal((n, p)))
        lam = rng.uniform(0.5, 1.5, r) * rng.choice([-1.0, 1.0], r)
        A = rng.standard_normal((n, r))
        A /= np.linalg.norm(A, axis=0)
        fg = packed_fg_implicit(obs, d, r)
        x = pack(lam, A)
        _, g = fg(x)
        fd = np.empty_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (fg(x + e)[0] - fg(x - e)[0]) / (2.0 * h)
        scale = np.maximum(np.abs(g), np.abs(g).max())
        worst = max(worst, float((np.abs(fd - g) / np.maximum(scale, 1e-300)).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 60
    _report(
        2, "gradient correctness", ok,
        f"100 instances, central differences h=1e-6: rel {worst:.2e} (tol 1e-5), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_gmm_recovery_d3():
    start = time.perf_counter()
    rows = run_gmm_sweep(
        n=100, r=3, sigma=1e-3, d=3, rank_min=2, rank_max=3,
        starts=10, seed=42, pgtol=1e-4,
    )
    err_below, err_true = rows[0]["rel_err"], rows[1]["rel_err"]
    score = rows[1]["score"]
    elapsed = time.perf_counter() - start
    ok = score >= 0.99 and err_true <= err_below / 10.0 and elapsed < 300
    _report(
        3, "gmm recovery d=3", ok,
        f"score {score:.4f} (>= 0.99), rel err {err_true:.2e} at true rank vs "
        f"{err_below:.2e} one below (ratio {err_below / max(err_true, 1e-300):.0f}x >= 10x), "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_criterion_4_gmm_recovery_d4():
    start = time.perf_counter()
    rows = run_gmm_sweep(
        n=50, r=3, sigma=1e-3, d=4, rank_min=3, rank_max=3,
        starts=10, seed=42, pgtol=1e-4,
    )
    score = rows[0]["score"]
    elapsed = time.perf_counter() - start
    ok = score >= 0.99 and elapsed < 300
    _report(
        4, "gmm recovery d=4", ok,
        f"score {score:.4f} (>= 0.99), {elapsed:.1f}s (< 300s)",
    )


def test_criterion_5_speedup_ordering():
    start = time.perf_counter()
    report = run_bench(BenchScenario(d=4, n=40, p=2000, r=5, runs=3, pgtol=0.05, seed=0))
    imp = report["implicit_time_per_iter_s"]
    exp = report["explicit_time_per_iter_s"]
    elapsed = time.perf_counter() - start
    ok = imp <= exp / 3.0 and elapsed < 600
    _report(
        5, "speedup ordering", ok,
        f"time/iter implicit {imp:.2e}s vs explicit {exp:.2e}s "
        f"({exp / imp:.1f}x, need >= 3x), paired rel fdiff "
        f"{report['max_paired_rel_fdiff']:.1e}, {elapsed:.1f}s (< 600s)",
    )


def test_criterion_6_rrf_vs_random_init():
    start = time.perf_counter()
    n, r, sigma, d = 200, 3, 1e-3, 3
    means = correlated_means(n, r, 0.5, np.random.default_rng(1000))
    obs = sample_gmm(means, sigma, 750, np.random.default_rng(2000))
    fg = packed_fg_implicit(obs, d, r)
    cfg = OptConfig(pgtol=1e-4)

    def finals(init_fn, seed_tag):
        out = []
        for child in np.random.SeedSequence(seed_tag).spawn(20):
            rng = np.random.default_rng(child)
            x0 = pack(np.full(r, 1.0 / r), init_fn(rng))
            out.append(lbfgs_minimize(fg, x0, cfg, shape=(n, r)).f)
        return np.array(out)

    f_rrf = finals(lambda rng: rrf_init(obs, r, rng), 100)
    f_rand = finals(lambda rng: gaussian_init(n, r, rng), 200)
    best = min(f_rrf.min(), f_rand.min())
    rrf_successes = int((f_rrf <= best + 0.01).sum())
    rand_successes = int((f_rand <= best + 0.01).sum())
    elapsed = time.perf_counter() - start
    ok = rrf_successes >= rand_successes and rrf_successes >= 16 and elapsed < 600
    _report(
        6, "rrf vs random init", ok,
        f"rrf {rrf_successes}/20 successes (>= 16) vs random {rand_successes}/20, "
        f"{elapsed:.1f}s (< 600s)",
    )


def test_criterion_7_stochastic_path():
    start = time.perf_counter()

    # (a) unbiasedness of the sampled TTSV matrix
    rng = np.random.default_rng(777)
    obs_small = ObservationSet(rng.standard_normal((3, 5)))
    A = rng.standard_normal((3, 2))
    d, s, trials = 3, 4, 100_000
    exact = ttsv_batch(obs_small, A, d)
    draws = np.empty((trials,) + exact.shape)
    for t in range(trials):
        draws[t] = ttsv_batch(sample_observations(obs_small, s, rng), A, d)
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(trials)
    unbiased = bool(np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12))
    max_sigmas = float((np.abs(mean - exact) / se).max())

    # (b) Adam on a large-p mixture: quality and speed against the
    # full-data method from the same starting points
    means = correlated_means(100, 10, 0.5, np.random.default_rng(1))
    obs = sample_gmm(means, 0.1, 50_000, np.random.default_rng(2))
    r_hat = 10

    def init(run_rng):
        return pack(np.full(r_hat, 1.0 / r_hat), rrf_init(obs, r_hat, run_rng))

    acfg = AdamConfig(batch=100)
    best_adam = multistart(
        2, init, lambda x0, run_rng: adam_minimize(obs, 3, r_hat, x0, acfg, run_rng), 7
    )
    adam_time = sum(rp.wall_time for rp in best_adam.runs)
    adam_score = similarity_score(means, best_adam.A).score

    fg = packed_fg_implicit(obs, 3, r_hat)
    cfg = OptConfig(pgtol=1e-4)
    best_std = multistart(
        2, init, lambda x0, run_rng: lbfgs_minimize(fg, x0, cfg, shape=(100, r_hat)), 7
    )
    std_time = sum(rp.wall_time for rp in best_std.runs)

    elapsed = time.perf_counter() - start
    ok = unbiased and adam_score >= 0.97 and adam_time < std_time and elapsed < 900
    _report(
        7, "stochastic path", ok,
        f"unbiased within {max_sigmas:.2f} standard errors (<= 3); "
        f"adam score {adam_score:.4f} (>= 0.97), adam {adam_time:.1f}s < "
        f"standard {std_time:.1f}s, {elapsed:.1f}s (< 900s)",
    )


def test_criterion_8_declared_not_reproducible():
    detail = (
        "full-scale wall-clock tables, the reported best shifted objective, and "
        "the n=500/p=500,000 problem sizes are machine- and instance-specific; "
        "the property-based criteria above stand in for them"
    )
    _report(8, "declared not reproducible at desk scale", True, detail)
