"""The two-stage L-BFGS route of ``cli.fit``: starts fitted on the compressed
data ``U'V`` of the top-``min(2 r, n, p)`` basis ``U``, lifted to ``U B`` and
polished on the full data."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from momentcp import (
    AdamConfig,
    ObservationSet,
    OptConfig,
    SolutionRecord,
    SymKruskal,
    build_moment,
    fg_explicit,
    gaussian_init,
    kruskal_to_dense,
    lbfgs_minimize,
    pack,
    packed_fg_implicit,
    rrf_init,
    unpack,
    write_observations_csv,
)
from momentcp.cli import SAME_BASIN_TOL, fit, main
from momentcp.gmm import correlated_means, sample_gmm
from momentcp.implicit import moment_unfolding, principal_basis
from momentcp.objective import lift_direction, packed_fg_compressed
from momentcp.optimize import MAX_LINE_STEPS


def _weighted(n, p, seed):
    rng = np.random.default_rng(seed)
    return ObservationSet(rng.standard_normal((n, p)), rng.uniform(0.5, 2.0, p) / p)


def _mixture(n, p, r, seed, sigma=1e-2):
    rng = np.random.default_rng(seed)
    return sample_gmm(correlated_means(n, r, 0.5, rng), sigma, p, rng)


def _sketch_init(space, r, rng):
    """The range-finder draw as a ``p x r`` sketch, ``V @ Omega`` with Gaussian
    ``Omega``, columns normalized: the starts the basin fixtures below were
    chosen with.  ``rrf_init`` draws from the same distribution with other bits."""
    A0 = space.V @ rng.standard_normal((space.p, r))
    return A0 / np.linalg.norm(A0, axis=0)


def _basins(subs, d):
    """``fit``'s grouping rule on dense tensors: for each subspace solution
    ``(lam, B)`` in start order, the first earlier polished start whose model
    is within ``SAME_BASIN_TOL`` of relative squared distance, or ``None``
    for a start that is polished."""
    polished, joined = [], []
    for i, (lam, B) in enumerate(subs):
        M = kruskal_to_dense(SymKruskal(d, lam, B)).entries
        j = next((j for j, Mj in polished if np.sum((M - Mj) ** 2)
                  <= SAME_BASIN_TOL * max(np.sum(M * M), np.sum(Mj * Mj))), None)
        if j is None:
            polished.append((i, M))
        joined.append(j)
    return joined


class TestPrincipalBasis:
    @pytest.mark.parametrize("n, p, k", [(7, 40, 3), (7, 40, 7), (40, 7, 3), (40, 7, 10)])
    def test_orthonormal_top_eigenvectors(self, n, p, k):
        obs = _weighted(n, p, 1)
        U = principal_basis(obs, k)
        m = min(k, n, p)
        assert U.shape == (n, m)
        assert np.allclose(U.T @ U, np.eye(m), atol=1e-13)
        # U spans the top-m eigenvectors of V diag(nu) V'
        _, vecs = np.linalg.eigh((obs.V * obs.nu) @ obs.V.T)
        top = vecs[:, ::-1][:, :m]
        assert np.allclose(np.abs(top.T @ U), np.eye(m), atol=1e-10)

    def test_blocked_second_moment(self, monkeypatch):
        # a block split of the columns gives the basis of one block to rounding
        obs = _weighted(6, 50, 2)
        whole = principal_basis(obs, 3)
        monkeypatch.setattr("momentcp.implicit.MOMENT_BLOCK", 7)
        assert np.allclose(np.abs(whole.T @ principal_basis(obs, 3)), np.eye(3), atol=1e-12)

    def test_rejects_empty_basis(self):
        with pytest.raises(ValueError):
            principal_basis(_weighted(4, 10, 3), 0)


class TestCompressedObjective:
    """On ``U'V`` the objective at ``B`` is the full one at ``A = U B``."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_full_and_dense_oracle(self, d):
        n, r, alpha = 6, 2, 0.7
        obs = _weighted(n, 45, 10 + d)
        U = principal_basis(obs, 2 * r)
        comp = packed_fg_implicit(ObservationSet(U.T @ obs.V, obs.nu), d, r)
        full = packed_fg_implicit(obs, d, r)
        rng = np.random.default_rng(d)
        lam, B = rng.standard_normal(r), rng.standard_normal((2 * r, r))
        A = U @ B
        f_comp, g_comp = comp(pack(lam, B))
        f_full, g_full = full(pack(lam, A))
        oracle = fg_explicit(build_moment(obs, d), lam, A, alpha)
        scale = max(1.0, abs(oracle.f))
        assert abs(f_comp - f_full) <= 1e-12 * scale
        assert abs(alpha + f_comp - oracle.f) <= 1e-12 * scale
        # g_lam agrees, and g_B = U' g_A
        g_A = g_full[r:].reshape((n, r), order="F")
        g_B = g_comp[r:].reshape((2 * r, r), order="F")
        gscale = max(1.0, float(np.abs(g_full).max()))
        assert np.abs(g_comp[:r] - g_full[:r]).max() <= 1e-12 * gscale
        assert np.abs(g_B - U.T @ g_A).max() <= 1e-12 * gscale
        assert np.abs(g_full[:r] - oracle.g_lam).max() <= 1e-12 * gscale
        assert np.abs(g_A - oracle.g_A).max() <= 1e-12 * gscale

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fit_meets_full_pgtol_with_full_values(self, d):
        mixture = _mixture(9, 200, 2, 20 + d, sigma=0.1)
        obs = ObservationSet(mixture.V, _weighted(1, 200, d).nu)
        cfg = OptConfig(pgtol=1e-7)
        best = fit(obs, d, 2, cfg, 2, 5)
        f, g = packed_fg_implicit(obs, d, 2)(pack(best.lam, best.A))
        assert best.reason == "tolerance"
        assert best.grad_inf_norm <= cfg.pgtol
        assert best.f == f and best.grad_inf_norm == float(np.abs(g).max())


class TestTwoStage:
    """The stages of one start, read off ``cli.lbfgs_minimize`` as ``fit`` calls it."""

    @staticmethod
    def _spy(monkeypatch):
        """Per start, ``[subspace call, polish call or None]``, each call
        ``(x0, cfg, shape, report)``: every polish passes ``first_direction``
        and no subspace stage does."""
        import dataclasses

        import momentcp.cli as cli

        starts = []

        def spy(fg, x0, cfg, shape, **kwargs):
            rep = lbfgs_minimize(fg, x0, cfg, shape, **kwargs)
            # fit adds the first stage's counts to the second's report in place
            call = (x0.copy(), cfg, shape, dataclasses.replace(rep, trace=list(rep.trace)))
            if "first_direction" in kwargs:
                starts[-1][1] = call
            else:
                starts.append([call, None])
            return rep

        monkeypatch.setattr(cli, "lbfgs_minimize", spy)
        return starts

    @pytest.mark.parametrize("init", ["rrf", "gaussian"])
    def test_stages_compose(self, monkeypatch, init):
        # n = 8 = 4 r_hat, with an int seed
        self._check_stages_compose(monkeypatch, init, 8, lambda: 9)

    @pytest.mark.parametrize("n, seed", [
        (4, lambda: 9), (4, lambda: np.random.SeedSequence(9)),
        (7, lambda: 9), (7, lambda: np.random.SeedSequence(9)),
        (8, lambda: np.random.SeedSequence(9)),
    ], ids=["4-int", "4-SeedSequence", "7-int", "7-SeedSequence", "8-SeedSequence"])
    @pytest.mark.parametrize("init", ["rrf", "gaussian"])
    def test_stages_compose_other_n_and_seed(self, monkeypatch, init, n, seed):
        # at n = 4 the basis is all of R^n (k = n); n = 7 is below 4 r_hat
        self._check_stages_compose(monkeypatch, init, n, seed)

    def _check_stages_compose(self, monkeypatch, init, n, seed):
        r = 2
        obs = _mixture(n, 300, r, 40)
        cfg = OptConfig(pgtol=1e-7)
        starts = self._spy(monkeypatch)
        best = fit(obs, 3, r, cfg, 3, seed(), init=init)
        assert len(starts) == 3 and len(best.runs) == 3
        U = principal_basis(obs, 2 * r)
        k = U.shape[1]
        assert k == min(2 * r, n)
        space = ObservationSet(U.T @ obs.V, obs.nu)
        joined = _basins([(sub[3].lam, sub[3].A) for sub, _ in starts], 3)
        for i, (run, child) in enumerate(zip(best.runs, np.random.SeedSequence(9).spawn(3))):
            (x_sub, cfg_sub, shape_sub, sub), polish = starts[i]
            # the start is drawn on U'V and fitted there
            rng = np.random.default_rng(child)
            A0 = rrf_init(space, r, rng) if init == "rrf" else gaussian_init(k, r, rng)
            assert np.array_equal(x_sub, pack(np.full(r, 1.0 / r), A0))
            assert shape_sub == (k, r) and cfg_sub.pgtol == cfg.pgtol
            assert run.run_index == i
            if joined[i] is None:
                # lifted to U B and polished with what the subspace stage left of the budget
                x_pol, cfg_pol, shape_pol, pol = polish
                assert shape_pol == (n, r) and cfg_pol.pgtol == cfg.pgtol
                assert np.array_equal(x_pol, pack(sub.lam, U @ sub.A))
                assert cfg_pol.max_iters == cfg.max_iters - sub.n_steps
                assert cfg_pol.max_total_iters == cfg.max_total_iters - sub.n_fg
                # the run is the polish, with counts and time summed and traces joined
                assert np.array_equal(run.lam, pol.lam) and np.array_equal(run.A, pol.A)
                assert (run.f, run.grad_inf_norm, run.reason) == (pol.f, pol.grad_inf_norm, pol.reason)
                assert run.n_fg == sub.n_fg + pol.n_fg and run.n_steps == sub.n_steps + pol.n_steps
                assert run.wall_time == pol.wall_time + sub.wall_time
                assert [f for f, _ in run.trace] == [f for f, _ in sub.trace + pol.trace]
                times = [t for _, t in run.trace]
                assert times == sorted(times) and times[len(sub.trace)] >= sub.wall_time
            else:
                # a start in a polished start's basin makes no full-data call: its
                # run is a copy of that start's, with its own subspace stage's
                # counts, time and trace
                assert polish is None
                twin = best.runs[joined[i]]
                assert np.array_equal(run.lam, twin.lam) and np.array_equal(run.A, twin.A)
                assert run.lam is not twin.lam and run.A is not twin.A
                assert (run.f, run.grad_inf_norm, run.reason) == \
                    (twin.f, twin.grad_inf_norm, f"grouped with run {joined[i]}")
                assert (run.n_fg, run.n_steps, run.wall_time) == (sub.n_fg, sub.n_steps, sub.wall_time)
                assert run.trace == sub.trace
        # the best polished run, lowest f first and then lowest index, is the
        # full objective at its lam and A
        i_best = min((i for i in range(3) if joined[i] is None), key=lambda i: (best.runs[i].f, i))
        assert best is best.runs[i_best]
        assert (best.run_index, best.seed) == (i_best, 9 if isinstance(seed(), int) else None)
        f, g = packed_fg_implicit(obs, 3, r)(pack(best.lam, best.A))
        assert best.f == f and best.grad_inf_norm == float(np.abs(g).max())
        assert best.setup_time > 0.0

    # uncapped, the subspace stages take 22 and 15 steps (34 and 19
    # evaluations); start 1's solution is in start 0's basin, so only start 0
    # is polished, in 30 steps (44 evaluations); the last two caps stop that polish
    @pytest.mark.parametrize("max_iters, max_total_iters", [
        (3, 50_000), (10_000, 6), (10_000, 1), (8, 14), (25, 50_000), (10_000, 40),
    ])
    def test_caps_bound_both_stages_together(self, monkeypatch, max_iters, max_total_iters):
        obs = _mixture(8, 300, 2, 41, sigma=0.1)
        cfg = OptConfig(pgtol=1e-12, max_iters=max_iters, max_total_iters=max_total_iters)
        starts = self._spy(monkeypatch)
        best = fit(obs, 3, 2, cfg, 2, 3)
        full = packed_fg_implicit(obs, 3, 2)
        joined = _basins([(sub[3].lam, sub[3].A) for sub, _ in starts], 3)
        for i, run in enumerate(best.runs):
            assert run.n_steps <= cfg.max_iters
            assert run.n_fg <= cfg.max_total_iters + MAX_LINE_STEPS
            if joined[i] is None:
                assert run.reason in ("iteration cap", "line-search failure")
            else:
                assert run.reason == f"grouped with run {joined[i]}"
            f, g = full(pack(run.lam, run.A))
            assert run.f == f and run.grad_inf_norm == float(np.abs(g).max())
            (*_, sub), polish = starts[i]
            if joined[i] is not None:
                # a start in a polished basin makes no full-data call
                assert polish is None
            elif sub.n_steps == cfg.max_iters or sub.n_fg >= cfg.max_total_iters:
                # a spent budget leaves one evaluation at the lift
                assert (polish[3].n_fg, polish[3].n_steps) == (1, 0)

    def test_setup_time_in_reported_totals(self, tmp_path, monkeypatch):
        import momentcp.cli as cli

        reports = []

        def kept_fit(*args, **kwargs):
            reports.append(fit(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "fit", kept_fit)
        data, out = tmp_path / "obs.csv", tmp_path / "sol.json"
        write_observations_csv(str(data), _mixture(8, 200, 2, 42))
        assert main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "2",
            "--starts", "2", "--output", str(out),
        ]) == 0
        best = reports[0]
        assert best.setup_time > 0.0
        assert SolutionRecord.load(str(out)).wall_time_s == \
            best.setup_time + sum(rp.wall_time for rp in best.runs)
        # gmm builds a basis per rank and counts each in its rank's time
        reports.clear()
        rows = cli.run_gmm_sweep(8, 2, 0.01, 3, 1, 2, 2, 0)
        assert [rp.setup_time > 0.0 for rp in reports] == [True, True]
        assert [row["total_time_s"] for row in rows] == \
            [rp.setup_time + sum(r.wall_time for r in rp.runs) for rp in reports]


class TestFitEdges:
    def test_wide_data_forms_no_n_by_n_array(self):
        n, p = 2000, 30
        obs = _mixture(n, p, 2, 31)
        tracemalloc.start()
        try:
            best = fit(obs, 3, 2, OptConfig(pgtol=1e-6), 2, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(best.f)
        # V is 0.48 MB; an n x n float64 array would be 32 MB
        assert peak < 4 * obs.V.nbytes

    @pytest.mark.parametrize("p, unfolded", [(216, True), (215, False)])
    def test_rule_edge_forms_no_large_array(self, monkeypatch, p, unfolded):
        # k = 6 at d = 4: the stage takes the unfolding while k^3 = 216 <= p
        import momentcp.objective as objective

        calls = []
        monkeypatch.setattr(objective, "moment_unfolding",
                            lambda space, d: calls.append(d) or moment_unfolding(space, d))
        obs = _mixture(1000, p, 3, 35)
        tracemalloc.start()
        try:
            best = fit(obs, 4, 3, OptConfig(pgtol=1e-6), 2, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(best.f) and calls == ([4] if unfolded else [])
        # V is 1.7 MB, T 10 KB; a Kronecker block 0.4 MB
        assert peak < 4 * obs.V.nbytes

    @pytest.mark.parametrize("solver, p, formed", [
        ("lbfgs", 300, 1), ("lbfgs", 15, 0), ("adam", 300, 0),
    ], ids=["unfolded", "matrix-free", "adam"])
    def test_unfolding_formed_once_per_fit(self, monkeypatch, solver, p, formed):
        # k = 4 at d = 3: the rule k^2 <= p holds at p = 300, not at p = 15
        import momentcp.objective as objective

        shapes = []
        monkeypatch.setattr(objective, "moment_unfolding",
                            lambda space, d: shapes.append(space.V.shape) or moment_unfolding(space, d))
        if solver == "adam":
            import momentcp.optimize as optimize

            monkeypatch.setattr(optimize, "ADAM_EPOCH_LEN", 10)
            monkeypatch.setattr(optimize, "ADAM_ESTIMATE_SAMPLES", 100)
            monkeypatch.setattr(optimize, "ADAM_MAX_EPOCHS", 2)
            cfg = AdamConfig(batch=20)
        else:
            cfg = OptConfig(pgtol=1e-6)
        best = fit(_mixture(8, p, 2, 36), 3, 2, cfg, 3, 0)
        assert len(best.runs) == 3 and shapes == [(4, p)] * formed

    # with r_hat = 2, k = 2 r_hat is clamped to n at (3, 20) and to p at (6, 3)
    @pytest.mark.parametrize("n, p", [(8, 20), (20, 6), (3, 20), (6, 3)])
    def test_all_zero_data_is_runtime_error(self, tmp_path, capsys, n, p):
        obs = ObservationSet(np.zeros((n, p)))
        with pytest.raises(RuntimeError):
            fit(obs, 3, 2, OptConfig(), 2, 0)
        data, out = tmp_path / "zero.csv", tmp_path / "sol.json"
        write_observations_csv(str(data), obs)
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "2",
            "--starts", "2", "--output", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_rank_above_n_succeeds(self, tmp_path):
        data, out = tmp_path / "obs.csv", tmp_path / "sol.json"
        write_observations_csv(str(data), _weighted(3, 60, 32))
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "4",
            "--starts", "2", "--alpha", "exact", "--output", str(out),
        ])
        assert code == 0
        rec = SolutionRecord.load(str(out))
        assert rec.r_hat == 4 and rec.n == 3
        assert np.isfinite(rec.lam + rec.A_row_major + [rec.final_f]).all()


class TestBasins:
    """``fit`` polishes one start per basin of the subspace solutions."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_grouped_run_reports_its_lift(self, monkeypatch, d):
        # at d = 2 a grouped start's lift is 1.1e-15 below the polished
        # start's f; a grouped run takes its polished start's f instead
        obs = ObservationSet(_mixture(9, 200, 2, 22, sigma=0.1).V, _weighted(1, 200, 2).nu)
        starts = TestTwoStage._spy(monkeypatch)
        best = fit(obs, d, 2, OptConfig(pgtol=1e-7), 3, 5)
        assert len(best.runs) == 3
        full = packed_fg_implicit(obs, d, 2)
        joined = _basins([(sub[3].lam, sub[3].A) for sub, _ in starts], d)
        assert joined == [None, 0, 0]
        for i in (1, 2):
            run, ((*_, sub), polish) = best.runs[i], starts[i]
            f, g = full(pack(run.lam, run.A))
            assert run.f == f and run.grad_inf_norm == float(np.abs(g).max())
            assert polish is None and np.array_equal(run.A, best.runs[0].A)
            assert run.n_fg == sub.n_fg and run.n_steps == sub.n_steps
            assert run.trace == sub.trace
            assert run.reason == "grouped with run 0"
        assert best is best.runs[0] and best.reason == "tolerance"
        assert best.grad_inf_norm <= 1e-7 and best.seed == 5

    def test_fit_returns_the_multistart_report(self, monkeypatch):
        # as perfbench's fit_cli does, a caller may keep the report multistart
        # returns; fit hands back that report, with every run
        import momentcp.cli as cli

        kept, multistart = [], cli.multistart
        monkeypatch.setattr(cli, "multistart",
                            lambda *args: kept.append(multistart(*args)) or kept[-1])
        obs = ObservationSet(_mixture(9, 200, 2, 22, sigma=0.1).V, _weighted(1, 200, 2).nu)
        best = fit(obs, 2, 2, OptConfig(pgtol=1e-7), 3, 5)
        assert len(kept) == 1 and best is kept[0]
        assert len(best.runs) == 3 and best.failures == []

    def test_distinct_basins_match_polishing_every_start(self, monkeypatch):
        # starts 0 and 1 stop near f = -0.218, at points of that flat basin
        # farther apart than SAME_BASIN_TOL, and start 2 near -0.250
        import momentcp.cli as cli

        monkeypatch.setattr(cli, "rrf_init", _sketch_init)
        obs, cfg = _mixture(40, 2000, 5, 7), OptConfig(pgtol=1e-6)
        got = fit(obs, 4, 5, cfg, 3, 7)
        monkeypatch.setattr(cli, "SAME_BASIN_TOL", -np.inf)
        want = fit(obs, 4, 5, cfg, 3, 7)
        assert max(rp.f for rp in got.runs) - min(rp.f for rp in got.runs) > 0.03
        assert np.array_equal(got.lam, want.lam) and np.array_equal(got.A, want.A)
        assert (got.f, got.run_index) == (want.f, want.run_index)
        assert [[f for f, _ in rp.trace] for rp in got.runs] == \
            [[f for f, _ in rp.trace] for rp in want.runs]
        assert [(rp.n_fg, rp.reason) for rp in got.runs] == \
            [(rp.n_fg, rp.reason) for rp in want.runs]
        assert not any(rp.reason.startswith("grouped") for rp in got.runs)

    @pytest.mark.parametrize("failed", [1, 2])
    @pytest.mark.parametrize("stage", ["init", "subspace", "polish"])
    def test_failed_start_does_not_block_later_starts(self, monkeypatch, stage, failed):
        # a start that fails, in any stage, is no basin, so later starts group without it
        import momentcp.cli as cli

        fails = []  # whether each start fails, in start order

        def rrf_init(space, r, rng):
            A0 = _sketch_init(space, r, rng)
            fails.append(rng.bit_generator.seed_seq.spawn_key[-1] < failed)
            if fails[-1] and stage == "init":
                raise ValueError("no start")
            if fails[-1] and stage == "subspace":
                A0[0, 0] = np.nan  # the subspace stage raises at its first point
            return A0

        def lbfgs(fg, x0, cfg, shape, **kwargs):
            if fails[-1] and stage == "polish" and "first_direction" in kwargs:
                raise MemoryError("no room")  # multistart catches it as it would a ValueError
            return lbfgs_minimize(fg, x0, cfg, shape, **kwargs)

        monkeypatch.setattr(cli, "rrf_init", rrf_init)
        monkeypatch.setattr(cli, "lbfgs_minimize", lbfgs)
        best = fit(_mixture(8, 300, 2, 40), 3, 2, OptConfig(pgtol=1e-8), 3, 0)
        assert [msg.split(": ")[0] for msg in best.failures] == \
            [f"run {i}" for i in range(failed)]
        assert [rp.run_index for rp in best.runs] == list(range(failed, 3))
        assert [rp.reason for rp in best.runs] == \
            ["tolerance", f"grouped with run {failed}"][:3 - failed]
        assert best.reason == "tolerance"

    def test_grouped_runs_named_by_this_fits_indices(self):
        # a second fit from one SeedSequence draws other starts and still
        # names its runs from 0
        obs, seed = _mixture(8, 300, 2, 40), np.random.SeedSequence(5)
        fits = [fit(obs, 3, 2, OptConfig(pgtol=1e-8), 3, seed) for _ in range(2)]
        assert not np.array_equal(fits[0].runs[1].A, fits[1].runs[1].A)
        for best in fits:
            assert [(rp.run_index, rp.reason) for rp in best.runs] == \
                [(0, "tolerance"), (1, "grouped with run 0"), (2, "grouped with run 0")]

    def test_decompose_imports_no_scipy(self, tmp_path):
        # scipy takes longer to import than a small fit takes; the grouping
        # test must not reach for gmm.similarity_score
        data, out = tmp_path / "obs.csv", tmp_path / "sol.json"
        write_observations_csv(str(data), _mixture(8, 300, 2, 40))
        argv = ["decompose", "--input", str(data), "--order", "3", "--rank", "2",
                "--starts", "3", "--pgtol", "1e-8", "--output", str(out)]
        code = (
            "import sys, momentcp.cli as cli\n"
            "fit, runs = cli.fit, []\n"
            "cli.fit = lambda *a, **k: runs.append(fit(*a, **k)) or runs[-1]\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print([rp.reason for rp in runs[0].runs])\n"
            "print([m for m in sys.modules if m.startswith('scipy')])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reasons, modules = proc.stdout.splitlines()[-2:]  # after decompose's summary line
        assert reasons == str(["tolerance"] + ["grouped with run 0"] * 2)
        assert modules == "[]"


def _model_jacobian(lam, A, d):
    """Dense Jacobian of ``kruskal_to_dense``'s entries with respect to
    ``pack(lam, A)``: along one coordinate the model is a polynomial of
    degree at most 4, on which the five-point stencil with step 1 is exact."""
    x0 = pack(lam, A)
    n, r = A.shape

    def model(x):
        return kruskal_to_dense(SymKruskal(d, *unpack(x, n, r))).entries.ravel()

    cols = []
    for e in np.eye(x0.size):
        cols.append((8.0 * (model(x0 + e) - model(x0 - e))
                     - (model(x0 + 2 * e) - model(x0 - 2 * e))) / 12.0)
    return np.stack(cols, axis=1)


class TestLiftDirection:
    """The polish's first direction, the Gauss-Newton step off ``range(U)``."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_block_identity_against_dense_jacobian(self, d):
        n, r, k = 8, 2, 4
        obs = _weighted(n, 40, 60 + d)
        U = principal_basis(obs, k)
        Q = np.linalg.qr(U, mode="complete")[0][:, k:]  # orthonormal, orthogonal to U
        rng = np.random.default_rng(d)
        lam, A = np.array([1.3, -0.6]), U @ rng.standard_normal((k, r))
        J = _model_jacobian(lam, A, d)
        JtJ = J.T @ J
        K = d * np.outer(lam, lam) * (A.T @ A) ** (d - 1)
        # packed coordinates of the lam directions, the in-range and the off-range ones
        P_lam = np.eye(r + n * r)[:, :r]
        P_in = np.vstack([np.zeros((r, k * r)), np.kron(np.eye(r), U)])
        P_off = np.vstack([np.zeros((r, (n - k) * r)), np.kron(np.eye(r), Q)])
        scale = np.abs(JtJ).max()
        off = P_off.T @ JtJ @ P_off
        assert np.abs(off - np.kron(K, np.eye(n - k))).max() <= 1e-8 * scale
        assert np.abs(P_off.T @ JtJ @ P_lam).max() <= 1e-8 * scale
        assert np.abs(P_off.T @ JtJ @ P_in).max() <= 1e-8 * scale
        # the first direction's off-range part is the dense Gauss-Newton step
        # for f = ||X - M||^2, whose gradient is 2 J'(M - X) and Hessian model 2 J'J
        M = kruskal_to_dense(SymKruskal(d, lam, A)).entries.ravel()
        g_dense = 2.0 * J.T @ (M - build_moment(obs, d).entries.ravel())
        _, g = packed_fg_implicit(obs, d, r)(pack(lam, A))
        assert np.abs(g - g_dense).max() <= 1e-12 * np.abs(g_dense).max()
        step = lift_direction(pack(lam, A), g, (n, r), d)
        dense = -0.5 * np.linalg.solve(off, P_off.T @ g)
        assert np.abs(step[:r]).max() == 0.0
        assert np.abs(P_off.T @ step - dense).max() <= 1e-8 * np.abs(dense).max()
        assert np.allclose(step[r:].reshape((n, r), order="F") @ K,
                           -0.5 * g[r:].reshape((n, r), order="F"), rtol=1e-12, atol=0.0)

    @staticmethod
    def _lift(n, r):
        obs = _mixture(n, 300, r, 44, sigma=0.1)
        U = principal_basis(obs, 2 * r)
        return obs, U @ np.random.default_rng(5).standard_normal((2 * r, r))

    def test_zero_weight_has_no_direction(self):
        n, r = 8, 2
        obs, A = self._lift(n, r)
        x = pack(np.array([0.8, 0.0]), A)
        _, g = packed_fg_implicit(obs, 3, r)(x)
        assert np.isfinite(g).all()
        assert lift_direction(x, g, (n, r), 3) is None

    @pytest.mark.parametrize("kind", ["zero column", "duplicate columns"])
    def test_singular_block_falls_back_to_steepest_descent(self, kind):
        # a zero column has lam* = 0, a zero weight, on the reduced route
        n, r = 8, 2
        obs, A = self._lift(n, r)
        fg = packed_fg_implicit(obs, 3, r)
        A[:, 1] = 0.0 if kind == "zero column" else A[:, 0]
        x0 = pack(np.array([0.5, 0.5]), A)
        seen = []

        def first(x, g):
            seen.append(lift_direction(x, g, (n, r), 3))
            return seen[-1]

        cfg = OptConfig(pgtol=1e-8, max_iters=40)
        got = lbfgs_minimize(fg, x0, cfg, (n, r), first_direction=first)
        want = lbfgs_minimize(fg, x0, cfg, (n, r))
        assert seen == [None]
        assert np.array_equal(got.lam, want.lam) and np.array_equal(got.A, want.A)
        assert (got.f, got.n_fg, got.n_steps) == (want.f, want.n_fg, want.n_steps)
        assert [f for f, _ in got.trace] == [f for f, _ in want.trace]
        assert np.isfinite(got.f) and got.n_steps > 0

    def test_failed_first_search_retries_steepest_descent(self):
        # an ascent direction fails at once and leaves the run's bits as they were
        obs = _mixture(8, 300, 2, 45, sigma=0.1)
        full = packed_fg_implicit(obs, 3, 2)
        x0 = pack(np.full(2, 0.5), rrf_init(obs, 2, np.random.default_rng(6)))
        cfg = OptConfig(pgtol=1e-8)
        seen = []

        def ascent(x, g):
            seen.append(x.copy())
            return g

        got = lbfgs_minimize(full, x0, cfg, (8, 2), first_direction=ascent)
        want = lbfgs_minimize(full, x0, cfg, (8, 2))
        assert np.array_equal(got.A, want.A) and (got.f, got.n_fg) == (want.f, want.n_fg)
        # called once, at the start with lam* in place of x0's weights
        assert len(seen) == 1 and np.array_equal(seen[0], full.project(x0)[0])
        assert not np.array_equal(seen[0][:2], x0[:2])

    def test_only_the_polish_first_direction_changes(self, monkeypatch):
        import momentcp.cli as cli

        n, r, d = 12, 3, 3
        obs = _mixture(n, 400, r, 46, sigma=0.05)
        cfg = OptConfig(pgtol=1e-8)
        starts = TestTwoStage._spy(monkeypatch)
        spy, kwargs = cli.lbfgs_minimize, []

        def keep(fg, x0, cfg, shape, **kw):
            kwargs.append(kw)
            return spy(fg, x0, cfg, shape, **kw)

        monkeypatch.setattr(cli, "lbfgs_minimize", keep)
        fit(obs, d, r, cfg, 2, 7)
        U = principal_basis(obs, 2 * r)
        comp = packed_fg_compressed(ObservationSet(U.T @ obs.V, obs.nu), d, r)
        full = packed_fg_implicit(obs, d, r)
        # start 1's subspace solution is in start 0's basin: fit does not
        # polish it, so its polish is run here from its lift and budget
        assert _basins([(sub[3].lam, sub[3].A) for sub, _ in starts], d) == [None, 0]
        # the subspace stages pass no first direction, start 0's polish does
        assert [set(kw) for kw in kwargs] == [set(), {"first_direction"}, set()]
        polish_evals = []
        for i in range(2):
            (x_sub, cfg_sub, shape_sub, sub), polish = starts[i]
            # the subspace stage is plain L-BFGS, bit for bit
            want = lbfgs_minimize(comp, x_sub, cfg_sub, shape_sub)
            assert np.array_equal(sub.A, want.A) and np.array_equal(sub.lam, want.lam)
            assert (sub.f, sub.n_fg, sub.n_steps) == (want.f, want.n_fg, want.n_steps)
            assert [f for f, _ in sub.trace] == [f for f, _ in want.trace]
            budget = replace(cfg, max_iters=cfg.max_iters - sub.n_steps,
                             max_total_iters=cfg.max_total_iters - sub.n_fg)
            if i == 0:
                x_pol, cfg_pol, shape_pol, pol = polish
                assert cfg_pol == budget
            else:
                assert polish is None
                x_pol, shape_pol = pack(sub.lam, U @ sub.A), (n, r)
            # the polish is L-BFGS opened by the lift's Gauss-Newton direction
            gn = lbfgs_minimize(full, x_pol, budget, shape_pol,
                                first_direction=lambda x, g: lift_direction(x, g, (n, r), d))
            if i == 0:
                assert np.array_equal(pol.A, gn.A) and (pol.f, pol.n_fg) == (gn.f, gn.n_fg)
            plain = lbfgs_minimize(full, x_pol, budget, shape_pol)
            assert gn.reason == plain.reason == "tolerance"
            assert abs(gn.f - plain.f) <= 1e-12 * abs(plain.f)
            polish_evals.append((gn.n_fg, plain.n_fg))
        assert all(a < b for a, b in polish_evals), polish_evals
