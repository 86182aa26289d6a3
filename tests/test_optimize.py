"""Solvers: packing, L-BFGS behavior, Adam epoch protocol, multistart."""

import copy
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from momentcp import (
    AdamConfig,
    ObservationSet,
    OptConfig,
    adam_minimize,
    lbfgs_minimize,
    multistart,
    pack,
    rrf_init,
    unpack,
)
from momentcp.gmm import correlated_means, sample_gmm
from momentcp import data_norm_sq, fg_implicit, packed_fg, sample_observations, ttsv_batch
from momentcp.implicit import _column_blocks, _ttsv
from momentcp.optimize import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, MAX_LINE_STEPS, _line_search, packed_fg_implicit,
    two_loop_direction,
)


class TestPacking:
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(30)
        lam = rng.standard_normal(3)
        A = rng.standard_normal((4, 3))
        lam2, A2 = unpack(pack(lam, A), 4, 3)
        assert np.array_equal(lam, lam2)
        assert np.array_equal(A, A2)

    def test_documented_layout(self):
        x = pack(np.array([3.0]), np.array([[1.0], [2.0]]))
        assert np.array_equal(x, [3.0, 1.0, 2.0])

    def test_column_major_factor_order(self):
        A = np.array([[1.0, 3.0], [2.0, 4.0]])
        x = pack(np.array([9.0, 8.0]), A)
        assert np.array_equal(x, [9.0, 8.0, 1.0, 2.0, 3.0, 4.0])

    def test_unpack_length_check(self):
        with pytest.raises(ValueError):
            unpack(np.zeros(5), 2, 2)

    def test_gradient_packing_mirrors_variables(self):
        # finite differences computed directly in packed coordinates must
        # line up with the packed analytic gradient
        rng = np.random.default_rng(31)
        obs = ObservationSet(rng.standard_normal((3, 5)))
        r, d, h = 2, 3, 1e-6
        fg = packed_fg_implicit(obs, d, r)
        x = pack(rng.uniform(0.5, 1.5, r), rng.standard_normal((3, r)))
        _, g = fg(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd = (fg(x + e)[0] - fg(x - e)[0]) / (2.0 * h)
            assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-7 * max(1.0, np.abs(g).max()))


class TestLbfgs:
    def test_convex_quadratic(self):
        rng = np.random.default_rng(32)
        c = rng.standard_normal(6)

        def fg(x):
            return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

        rep = lbfgs_minimize(fg, rng.standard_normal(6), OptConfig(pgtol=1e-9), shape=(5, 1))
        assert np.linalg.norm(pack(rep.lam, rep.A) - c) <= 1e-6
        assert rep.n_steps <= 50
        assert rep.reason == "tolerance"

    def test_rank_one_exact_fit(self):
        rng = np.random.default_rng(33)
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        obs = ObservationSet(v[:, None], np.array([1.0]))
        fg = packed_fg_implicit(obs, 3, 1, alpha=1.0)  # alpha = ||X||^2 = 1
        x0 = pack(np.array([1.0]), rrf_init(obs, 1, rng))
        rep = lbfgs_minimize(fg, x0, OptConfig(pgtol=1e-10), shape=(5, 1))
        assert rep.f <= 1e-8

    def test_infinite_pgtol_returns_immediately(self):
        def fg(x):
            return float(x @ x), 2.0 * x

        rep = lbfgs_minimize(fg, np.ones(3), OptConfig(pgtol=np.inf), shape=(2, 1))
        assert np.array_equal(pack(rep.lam, rep.A), np.ones(3))
        assert rep.reason == "tolerance"
        assert rep.n_steps == 0
        assert rep.n_fg == 1

    def test_trace_nonincreasing(self):
        rng = np.random.default_rng(34)
        obs = ObservationSet(rng.standard_normal((4, 6)))
        fg = packed_fg_implicit(obs, 3, 2)
        x0 = pack(np.ones(2), rng.standard_normal((4, 2)))
        rep = lbfgs_minimize(fg, x0, OptConfig(pgtol=1e-6), shape=(4, 2))
        fs = [f for f, _ in rep.trace]
        assert all(b <= a for a, b in zip(fs, fs[1:]))
        ts = [t for _, t in rep.trace]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_iteration_caps_respected(self):
        rng = np.random.default_rng(35)
        obs = ObservationSet(rng.standard_normal((4, 6)))
        fg = packed_fg_implicit(obs, 3, 2)
        x0 = pack(np.ones(2), rng.standard_normal((4, 2)))
        cfg = OptConfig(pgtol=1e-14, max_iters=3, max_total_iters=50_000)
        rep = lbfgs_minimize(fg, x0, cfg, shape=(4, 2))
        assert rep.reason == "iteration cap"
        assert rep.n_steps <= 3

    def test_deterministic(self):
        rng = np.random.default_rng(36)
        obs = ObservationSet(rng.standard_normal((4, 6)))
        fg = packed_fg_implicit(obs, 3, 2)
        x0 = pack(np.ones(2), rng.standard_normal((4, 2)))
        rep1 = lbfgs_minimize(fg, x0, OptConfig(pgtol=1e-8), shape=(4, 2))
        rep2 = lbfgs_minimize(fg, x0, OptConfig(pgtol=1e-8), shape=(4, 2))
        assert np.array_equal(rep1.lam, rep2.lam)
        assert np.array_equal(rep1.A, rep2.A)
        assert [f for f, _ in rep1.trace] == [f for f, _ in rep2.trace]

    def test_reduced_route_reports_lam_star(self):
        rng = np.random.default_rng(37)
        n, r, d = 6, 3, 3
        obs = ObservationSet(rng.standard_normal((n, 40)))
        fg = packed_fg_implicit(obs, d, r)
        A0 = rng.standard_normal((n, r))
        rep = lbfgs_minimize(fg, pack(np.ones(r), A0), OptConfig(pgtol=1e-8), shape=(n, r))
        assert rep.reason == "tolerance"
        G = (rep.A.T @ rep.A) ** d
        w = np.einsum("ij,ij->j", rep.A, ttsv_batch(obs, rep.A, d))
        assert np.allclose(rep.lam, np.linalg.solve(G, w), rtol=1e-10, atol=0.0)
        ref = fg_implicit(obs, rep.lam, rep.A, d)
        assert rep.f == ref.f
        full_inf = max(np.abs(ref.g_lam).max(), np.abs(ref.g_A).max())
        assert rep.grad_inf_norm == pytest.approx(full_inf, rel=1e-12)
        assert rep.grad_inf_norm <= 1e-8
        # lam is eliminated: the starting weights do not matter
        again = lbfgs_minimize(fg, pack(-5.0 * np.ones(r), A0), OptConfig(pgtol=1e-8), shape=(n, r))
        assert np.array_equal(again.lam, rep.lam) and np.array_equal(again.A, rep.A)

    def test_nonfinite_start_rejected(self):
        def fg(x):
            return np.inf, np.zeros_like(x)

        with pytest.raises(ValueError):
            lbfgs_minimize(fg, np.ones(2), OptConfig(pgtol=1e-6), shape=(1, 1))

    def test_nonfinite_beyond_wall_ends_at_last_finite_iterate(self):
        # the quadratic's minimum at 5 lies beyond a wall at |x| = 2 where
        # the objective returns NaN: the run stops short of the wall with a
        # finite report that agrees with fg at the reported point
        def fg(x):
            if np.abs(x).max() >= 2.0:
                return np.nan, np.full_like(x, np.nan)
            return 0.5 * float((x - 5.0) @ (x - 5.0)), x - 5.0

        cfg = OptConfig(pgtol=1e-8)
        rep = lbfgs_minimize(fg, np.zeros(3), cfg, shape=(2, 1))
        x = pack(rep.lam, rep.A)
        f, g = fg(x)
        assert np.isfinite(rep.f) and rep.f == f
        assert rep.grad_inf_norm == np.abs(g).max()
        assert rep.reason == "line-search failure"
        assert rep.n_fg <= cfg.max_total_iters + MAX_LINE_STEPS

    def test_evaluation_cap(self):
        rng = np.random.default_rng(35)
        obs = ObservationSet(rng.standard_normal((4, 6)))
        fg = packed_fg_implicit(obs, 3, 2)
        x0 = pack(np.ones(2), rng.standard_normal((4, 2)))
        cfg = OptConfig(pgtol=1e-14, max_total_iters=5)
        rep = lbfgs_minimize(fg, x0, cfg, shape=(4, 2))
        assert rep.reason == "iteration cap"
        # the cap is checked between iterations
        assert cfg.max_total_iters <= rep.n_fg <= cfg.max_total_iters + MAX_LINE_STEPS

    def test_rounding_stall_ends_run(self):
        # with alpha the exact data norm, f cancels to rounding near the fit
        # and pgtol=1e-14 is out of reach: the run must end on its own, soon
        # after the last step that lowered f
        rng = np.random.default_rng(43)
        n, r, d = 6, 2, 3
        obs = sample_gmm(correlated_means(n, r, 0.3, rng), 0.01, 200, rng)
        fg = packed_fg_implicit(obs, d, r, alpha=data_norm_sq(obs, d))
        real_project, values = fg.project, []

        def counted_project(x):
            x_star, f, g = real_project(x)
            values.append(f)
            return x_star, f, g

        fg.project = counted_project
        cfg = OptConfig(pgtol=1e-14)
        x0 = pack(np.full(r, 0.5), rrf_init(obs, r, rng))
        rep = lbfgs_minimize(fg, x0, cfg, shape=(n, r))
        assert rep.reason == "line-search failure"
        assert rep.n_steps < cfg.max_iters
        assert rep.n_fg == len(values)  # the reported lam* comes from one of them
        last_accepted = values.index(rep.trace[-1][0])
        assert len(values) - 1 - last_accepted <= 2 * MAX_LINE_STEPS

    @pytest.mark.parametrize("caps", [{"pgtol": 1e-8}, {"pgtol": 1e-14, "max_iters": 3}])
    def test_report_from_search_evaluations(self, caps):
        # the reduced route's report is fg.project at the final A, kept from
        # the search's evaluations: every TTSV pass is an evaluation it counts
        rng = np.random.default_rng(37)
        n, r, d = 6, 3, 3
        obs = ObservationSet(rng.standard_normal((n, 40)))
        calls = []

        def recording_ttsv(A):
            calls.append(A)
            return ttsv_batch(obs, A, d)

        fg = packed_fg(recording_ttsv, n, r, d)
        cfg = OptConfig(**caps)
        rep = lbfgs_minimize(fg, pack(np.ones(r), rng.standard_normal((n, r))), cfg, shape=(n, r))
        assert rep.reason == ("tolerance" if cfg.pgtol == 1e-8 else "iteration cap")
        assert len(calls) == rep.n_fg
        assert len({A.tobytes() for A in calls}) == len(calls)  # no point evaluated twice
        x_star, f, g = fg.project(pack(np.zeros(r), rep.A))
        assert np.array_equal(x_star, pack(rep.lam, rep.A))
        assert f == rep.f and float(np.abs(g).max()) == rep.grad_inf_norm

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_every_trial_is_one_pass(self, monkeypatch, blocks):
        # on a V of one TTSV block or several, every trial is one pass over
        # V, with the bits of the plain packed evaluator over the same kernel
        rng = np.random.default_rng(44)
        n, r, d = 20, 3, 3
        obs = sample_gmm(correlated_means(n, r, 0.5, rng), 0.01, 1000, rng)
        monkeypatch.setattr("momentcp.implicit.TTSV_BLOCK_BYTES", obs.V.nbytes // blocks)
        assert len(_column_blocks(obs.V)) == blocks
        fg = packed_fg_implicit(obs, d, r)
        passes = []

        def counted_ttsv(A):
            passes.append(A)
            return _ttsv(obs.V, obs.nu[:, None], A, d)

        plain = packed_fg(counted_ttsv, n, r, d)
        x0 = pack(np.full(r, 1.0 / r), rrf_init(obs, r, rng))
        cfg = OptConfig(pgtol=1e-9)
        one, two = lbfgs_minimize(fg, x0, cfg, (n, r)), lbfgs_minimize(plain, x0, cfg, (n, r))
        assert np.array_equal(one.lam, two.lam) and np.array_equal(one.A, two.A)
        assert one.f == two.f and one.grad_inf_norm == two.grad_inf_norm
        assert (one.n_fg, one.n_steps) == (two.n_fg, two.n_steps) == (len(passes), two.n_steps)
        assert [f for f, _ in one.trace] == [f for f, _ in two.trace]

    @staticmethod
    def _count_passes(monkeypatch):
        """Record the factor matrix of every pass over ``V`` of the
        matrix-free evaluator."""
        import momentcp.objective as objective

        passes, real_ttsv = [], objective._ttsv
        monkeypatch.setattr(objective, "_ttsv", lambda *a: passes.append(a[2]) or real_ttsv(*a))
        return passes

    def test_rounding_stall_ends_run_multi_block(self, monkeypatch):
        # test_rounding_stall_ends_run on a V of two TTSV blocks: every
        # evaluation is one pass over V, and the stall test still ends the run
        rng = np.random.default_rng(50)
        n, r, d = 60, 3, 3
        obs = sample_gmm(correlated_means(n, r, 0.3, rng), 0.01, 3000, rng)
        assert len(_column_blocks(obs.V)) == 2
        fg = packed_fg_implicit(obs, d, r, alpha=data_norm_sq(obs, d))
        passes = self._count_passes(monkeypatch)
        cfg = OptConfig(pgtol=1e-14)
        x0 = pack(np.full(r, 0.5), rrf_init(obs, r, rng))
        rep = lbfgs_minimize(fg, x0, cfg, shape=(n, r))
        assert rep.reason == "line-search failure"
        assert rep.n_steps < cfg.max_iters
        assert rep.n_fg == len(passes)  # the start and every trial
        # the pass at the last accepted step: the report's A
        last_accepted = max(i for i, A in enumerate(passes) if np.array_equal(A, rep.A))
        assert len(passes) - 1 - last_accepted <= 2 * MAX_LINE_STEPS

    @pytest.mark.parametrize("caps", [{"pgtol": 1e-8}, {"pgtol": 1e-14, "max_iters": 3}])
    def test_report_from_search_evaluations_multi_block(self, monkeypatch, caps):
        # test_report_from_search_evaluations on a V of two TTSV blocks: n_fg
        # counts the passes over V, and the report is fg.project at the final A
        rng = np.random.default_rng(46)
        n, r, d = 60, 3, 3
        obs = ObservationSet(rng.standard_normal((n, 3000)))
        assert len(_column_blocks(obs.V)) == 2
        fg = packed_fg_implicit(obs, d, r)
        passes = self._count_passes(monkeypatch)
        cfg = OptConfig(**caps)
        rep = lbfgs_minimize(fg, pack(np.ones(r), rng.standard_normal((n, r))), cfg, shape=(n, r))
        assert rep.reason == ("tolerance" if cfg.pgtol == 1e-8 else "iteration cap")
        assert rep.n_fg == len(passes)
        assert len({A.tobytes() for A in passes}) == len(passes)  # no point evaluated twice
        x_star, f, g = fg.project(pack(np.zeros(r), rep.A))
        assert np.array_equal(x_star, pack(rep.lam, rep.A))
        assert f == rep.f and float(np.abs(g).max()) == rep.grad_inf_norm

    def test_failed_search_resets_then_ends(self, monkeypatch):
        # a search that fails with pairs stored clears them and is retried
        # along -g with length 1/||g||; when that retry fails too, the run ends
        import momentcp.optimize as optimize

        real_search = optimize._line_search
        calls, fail = [], set()
        scale = np.array([1.0, 10.0, 100.0])

        def scripted(trial, f0, d0, step, max_trials, f_scale):
            # (g, x - g, x + direction, step) at the search, from the trial
            # points at steps 0 and 1: (x, x_star, f, g_full, g)
            x, *_, g = trial(0.0)[2]
            calls.append((g, x - g, trial(1.0)[2][0], step))
            if len(calls) in fail:
                return None, None, max_trials
            return real_search(trial, f0, d0, step, max_trials, f_scale)

        monkeypatch.setattr(optimize, "_line_search", scripted)

        def fg(x):
            return 0.5 * float(x @ (scale * x)), scale * x

        for failing, reason in (({3}, "tolerance"), ({3, 4}, "line-search failure")):
            calls.clear()
            fail = failing
            rep = lbfgs_minimize(fg, np.ones(3), OptConfig(pgtol=1e-8), shape=(2, 1))
            assert rep.reason == reason
            for i in (0, 3):  # the first search and the retry: steepest descent
                g, descent, moved, step = calls[i]
                assert np.array_equal(moved, descent) and step == 1.0 / np.linalg.norm(g)
            assert calls[2][3] == 1.0  # a quasi-Newton step starts at length 1
        assert len(calls) == 4


class _ScriptedLine:
    """A search line whose trials return ``(f, slope)`` from a script, in
    order, each with a point of its own, and record their steps and points."""

    def __init__(self, *script):
        self.script, self.steps, self.points = list(script), [], []

    def __call__(self, t):
        self.steps.append(t)
        self.points.append(object())
        return (*self.script[len(self.steps) - 1], self.points[-1])


class TestLineSearch:
    """``_line_search``'s rounding stall: a trial that fails sufficient
    decrease within ``4 eps * scale`` of ``f0``, ``scale`` being ``f0``'s
    rounding scale."""

    F0, D0, SCALE = 1.0, -1.0, 8.0
    EPS = float(np.finfo(float).eps)

    def search(self, line):
        return _line_search(line, self.F0, self.D0, 1.0, MAX_LINE_STEPS, self.SCALE)

    @pytest.mark.parametrize("k", [-4, -1, 0, 1, 4])
    def test_trial_within_the_band_ends_at_the_best_step(self, k):
        band = self.EPS * self.SCALE  # 8 eps, a multiple of f0's spacing
        # at once, with no step taken
        assert self.search(_ScriptedLine((self.F0 + k * band, -0.5))) == (0.0, None, 1)
        # after a step that lowered f but was too steep to stop at: its own point
        line = _ScriptedLine((self.F0 - 0.01, -0.95), (self.F0 + k * band, 0.5))
        t, point, trials = self.search(line)
        assert (t, trials) == (1.0, 2) and line.steps == [1.0, 2.0]
        assert point is line.points[0]

    def test_trial_just_outside_the_band_goes_on(self):
        outside = self.F0 + 4.0 * self.EPS * self.SCALE + self.EPS  # the next double up
        line = _ScriptedLine((outside, 0.5), (self.F0 - 0.3, 0.0))
        t, point, trials = self.search(line)
        assert trials == 2 and 0.0 < t < 1.0 and t == line.steps[1]
        assert point is line.points[1]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_trial_is_no_stall(self, bad):
        # the band comes from f0, so a trial at inf or NaN fails and the
        # search zooms into the bracket's midpoint
        line = _ScriptedLine((bad, bad), (self.F0 - 0.3, 0.0))
        t, point, trials = self.search(line)
        assert (t, trials) == (0.5, 2) and line.steps == [1.0, 0.5]
        assert point is line.points[1]


def dense_bfgs_direction(g, s_list, y_list, gamma):
    """Reference direction: apply the BFGS inverse-Hessian updates densely."""
    m = g.size
    H = gamma * np.eye(m)
    for s, y in zip(s_list, y_list):
        rho = 1.0 / float(y @ s)
        Vm = np.eye(m) - rho * np.outer(s, y)
        H = Vm @ H @ Vm.T + rho * np.outer(s, s)
    return -H @ g


class TestTwoLoop:
    def test_matches_dense_bfgs_on_quadratic(self):
        # histories generated by gradient steps on a 3-dim convex quadratic;
        # with full memory (m=5 >= k) the two-loop must reproduce the dense
        # BFGS direction at every one of the first m iterations
        rng = np.random.default_rng(37)
        for _ in range(10):
            Q = rng.standard_normal((3, 3))
            Q = Q @ Q.T + 3.0 * np.eye(3)
            b = rng.standard_normal(3)
            x = rng.standard_normal(3)
            # each pair's 1 / (s'y) is stored with it, as lbfgs_minimize does
            s_list, y_list, rhos = [], [], []
            for _ in range(5):
                g = Q @ x - b
                step = -rng.uniform(0.05, 0.2) * g
                s_list.append(step)
                y_list.append(Q @ step)
                rhos.append(1.0 / float(s_list[-1] @ y_list[-1]))
                x = x + step
                g_new = Q @ x - b
                gamma = float(s_list[-1] @ y_list[-1]) / float(y_list[-1] @ y_list[-1])
                got = two_loop_direction(g_new, list(zip(s_list, y_list, rhos)), gamma)
                want = dense_bfgs_direction(g_new, s_list, y_list, gamma)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_import_loads_no_scipy():
    # scipy costs about half a second to import and only scoring uses it
    code = "import sys, momentcp, momentcp.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _adam_schedule(monkeypatch, **constants):
    """Set Adam's schedule constants for one test: ``ADAM_EPOCH_LEN=4`` sets
    ``optimize.ADAM_EPOCH_LEN`` to 4."""
    import momentcp.optimize as optimize

    for name, value in constants.items():
        monkeypatch.setattr(optimize, name, value)


def _adam_problem(rng, n=6, r=2, p=40):
    means = correlated_means(n, r, 0.3, rng)
    obs = sample_gmm(means, 0.0, p, rng)
    x0 = pack(np.full(r, 1.0 / r), rrf_init(obs, r, rng))
    return obs, x0, r


class TestAdam:
    def test_zero_epochs_returns_start(self, monkeypatch):
        rng = np.random.default_rng(38)
        obs, x0, r = _adam_problem(rng)
        _adam_schedule(monkeypatch, ADAM_MAX_EPOCHS=0)
        cfg = AdamConfig(batch=8)
        rep = adam_minimize(obs, 3, r, x0, cfg, rng)
        lam0, A0 = unpack(x0, obs.n, r)
        assert np.array_equal(rep.lam, lam0)
        assert np.array_equal(rep.A, A0)
        assert rep.n_fg == 0

    def test_estimate_decreases_on_exact_data(self, monkeypatch):
        rng = np.random.default_rng(39)
        obs, x0, r = _adam_problem(rng)
        _adam_schedule(monkeypatch, ADAM_MAX_EPOCHS=1, ADAM_ESTIMATE_SAMPLES=40)
        cfg = AdamConfig(batch=30)
        rep = adam_minimize(obs, 3, r, x0, cfg, rng)
        fs = [f for f, _ in rep.trace]
        assert fs[1] < fs[0]

    def test_reset_returns_prior_epoch_iterate_bitwise(self, monkeypatch):
        # a wildly large step makes every epoch worse: the run must reduce
        # the rate once, then stop, handing back the starting point untouched
        rng = np.random.default_rng(40)
        obs, x0, r = _adam_problem(rng)
        _adam_schedule(monkeypatch, ADAM_STEP_SIZE=5.0, ADAM_REDUCED_STEP_SIZE=5.0,
                       ADAM_EPOCH_LEN=10, ADAM_ESTIMATE_SAMPLES=40, ADAM_MAX_EPOCHS=50)
        cfg = AdamConfig(batch=8)
        rep = adam_minimize(obs, 3, r, x0.copy(), cfg, rng)
        lam0, A0 = unpack(x0, obs.n, r)
        assert rep.reason == "learning-rate exhausted"
        assert np.array_equal(rep.lam, lam0)
        assert np.array_equal(rep.A, A0)

    def test_step_gradient_matches_sample_observations(self, monkeypatch):
        # record every mini-batch gradient Adam takes, then replay the same
        # draws from a copied generator through sample_observations
        import momentcp.optimize as optimize

        steps = []
        real_packed_fg = optimize.packed_fg

        def recording_packed_fg(*args, **kwargs):
            fg = real_packed_fg(*args, **kwargs)

            def recorded(x):
                f, g = fg(x)
                steps.append((x.copy(), g))
                return f, g

            return recorded

        monkeypatch.setattr(optimize, "packed_fg", recording_packed_fg)
        rng = np.random.default_rng(42)
        obs, x0, r = _adam_problem(rng, n=40, r=5, p=400)
        # column-major, as the file readers give it: then a change in the
        # layout of A changes the gradient's bits at this size
        obs = ObservationSet(np.asfortranarray(obs.V))
        _adam_schedule(monkeypatch, ADAM_EPOCH_LEN=4, ADAM_ESTIMATE_SAMPLES=100, ADAM_MAX_EPOCHS=3)
        cfg = AdamConfig(batch=50)
        replay = copy.deepcopy(rng)
        rep = adam_minimize(obs, 3, r, x0, cfg, rng)
        assert len(steps) == rep.n_fg > 0

        replay.choice(obs.p, size=optimize.ADAM_ESTIMATE_SAMPLES, replace=False)
        for x, g in steps:
            lam, A = unpack(x, obs.n, r)
            ref = fg_implicit(sample_observations(obs, cfg.batch, replay), lam, A, 3)
            assert np.array_equal(g, pack(ref.g_lam, ref.g_A))

    def test_steps_match_textbook_update(self, monkeypatch):
        # record every (x_t, g_t) of a run with one rewind, then recompute
        # each x_{t+1} with Algorithm 1's out-of-place expressions: the
        # in-place update must give the same bits at every step
        import momentcp.optimize as optimize

        steps = []
        real_packed_fg = optimize.packed_fg

        def recording_packed_fg(*args, **kwargs):
            fg = real_packed_fg(*args, **kwargs)

            def recorded(x):
                f, g = fg(x)
                steps.append((x.copy(), g.copy()))
                return f, g

            return recorded

        monkeypatch.setattr(optimize, "packed_fg", recording_packed_fg)
        rng = np.random.default_rng(46)
        obs, x0, r = _adam_problem(rng, p=200)
        _adam_schedule(monkeypatch, ADAM_STEP_SIZE=0.1, ADAM_REDUCED_STEP_SIZE=0.01,
                       ADAM_EPOCH_LEN=5, ADAM_ESTIMATE_SAMPLES=50, ADAM_MAX_EPOCHS=6)
        cfg = AdamConfig(batch=10)
        rep = adam_minimize(obs, 3, r, x0, cfg, rng)
        epoch_len = optimize.ADAM_EPOCH_LEN
        assert rep.reason == "iteration cap" and len(steps) == 6 * epoch_len

        b1, b2, lr = ADAM_BETA1, ADAM_BETA2, optimize.ADAM_STEP_SIZE
        m1 = m2 = np.zeros_like(x0)
        t, x_next, x_best, f_best, rewinds = 0, x0, x0, rep.trace[0][0], 0
        for epoch in range(6):
            for x, g in steps[epoch * epoch_len : (epoch + 1) * epoch_len]:
                assert np.array_equal(x, x_next)
                t += 1
                m1 = b1 * m1 + (1.0 - b1) * g
                m2 = b2 * m2 + (1.0 - b2) * g * g
                m1_hat = m1 / (1.0 - b1**t)
                m2_hat = m2 / (1.0 - b2**t)
                x_next = x - lr * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)
            f_est = rep.trace[epoch + 1][0]
            if f_est < f_best:
                f_best, x_best = f_est, x_next
            else:  # rewind, restart the moments, reduce the step size
                rewinds += 1
                x_next, m1, m2, t, lr = (x_best, np.zeros_like(x0), np.zeros_like(x0), 0,
                                         optimize.ADAM_REDUCED_STEP_SIZE)
        assert rewinds == 1
        assert np.array_equal(pack(rep.lam, rep.A), x_best)

    def test_estimate_once_per_trace_row(self, monkeypatch):
        # the final report reuses the gradient kept when x_best was accepted,
        # so the subset estimate runs once per trace row and no more
        import momentcp.optimize as optimize

        calls = []
        real_packed_fg_implicit = optimize.packed_fg_implicit

        def counting_packed_fg_implicit(*args, **kwargs):
            fg = real_packed_fg_implicit(*args, **kwargs)

            def counted(x):
                f, g = fg(x)
                calls.append((x.copy(), f, g))
                return f, g

            return counted

        monkeypatch.setattr(optimize, "packed_fg_implicit", counting_packed_fg_implicit)
        rng = np.random.default_rng(47)
        obs, x0, r = _adam_problem(rng, p=200)
        _adam_schedule(monkeypatch, ADAM_EPOCH_LEN=5, ADAM_ESTIMATE_SAMPLES=50, ADAM_MAX_EPOCHS=5)
        cfg = AdamConfig(batch=10)
        rep = adam_minimize(obs, 3, r, x0, cfg, rng)
        assert len(calls) == len(rep.trace) > 2
        # the report's f and gradient norm are those of the call at its iterate
        [(_, f, g)] = [c for c in calls if np.array_equal(c[0], pack(rep.lam, rep.A))]
        assert rep.f == f and rep.grad_inf_norm == np.abs(g).max()

    def test_requires_uniform_weights(self):
        rng = np.random.default_rng(41)
        V = rng.standard_normal((3, 4))
        obs = ObservationSet(V, np.array([0.4, 0.2, 0.2, 0.2]))
        with pytest.raises(ValueError):
            adam_minimize(obs, 3, 1, np.zeros(4), AdamConfig(batch=2), rng)


class TestMultistart:
    def _setup(self):
        rng = np.random.default_rng(42)
        obs = ObservationSet(rng.standard_normal((4, 10)))
        fg = packed_fg_implicit(obs, 3, 2)
        cfg = OptConfig(pgtol=1e-6)

        def init(r):
            return pack(np.full(2, 0.5), rrf_init(obs, 2, r))

        def minimize(x0, r):
            return lbfgs_minimize(fg, x0, cfg, shape=(4, 2))

        return init, minimize

    def test_single_start_matches_direct_run(self):
        init, minimize = self._setup()
        rep = multistart(1, init, minimize, seed=5)
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
        direct = minimize(init(rng), rng)
        assert rep.f == direct.f
        assert np.array_equal(rep.A, direct.A)

    def test_best_of_k_no_worse_than_single(self):
        init, minimize = self._setup()
        rep_k = multistart(5, init, minimize, seed=5)
        rep_1 = multistart(1, init, minimize, seed=5)
        assert rep_k.f <= rep_1.f
        assert len(rep_k.runs) == 5
        assert [r.run_index for r in rep_k.runs] == list(range(5))

    def test_deterministic_repeat(self):
        init, minimize = self._setup()
        rep1 = multistart(4, init, minimize, seed=9)
        rep2 = multistart(4, init, minimize, seed=9)
        assert rep1.f == rep2.f
        assert np.array_equal(rep1.lam, rep2.lam)
        assert np.array_equal(rep1.A, rep2.A)
        for a, b in zip(rep1.runs, rep2.runs):
            assert [f for f, _ in a.trace] == [f for f, _ in b.trace]

    def test_failed_run_is_collected(self):
        init, minimize = self._setup()
        bad_x0 = init(np.random.default_rng(np.random.SeedSequence(11).spawn(4)[2]))

        def flaky(x0, rng):
            if np.array_equal(x0, bad_x0):
                raise ValueError("start 2 dies")
            return minimize(x0, rng)

        every = multistart(4, init, minimize, seed=11)
        rep = multistart(4, init, flaky, seed=11)
        assert rep.failures == ["run 2: start 2 dies"]
        assert [rp.run_index for rp in rep.runs] == [0, 1, 3]
        assert [(rp.f, rp.n_fg) for rp in rep.runs] == \
            [(rp.f, rp.n_fg) for rp in every.runs if rp.run_index != 2]

    def test_runs_in_order_on_calling_thread(self):
        init, minimize = self._setup()
        calls = []

        def traced(stage, fn):
            def call(*args):  # the generator is the last argument of both
                calls.append((stage, args[-1].bit_generator.seed_seq.spawn_key,
                              threading.get_ident()))
                return fn(*args)
            return call

        multistart(5, traced("init", init), traced("minimize", minimize), seed=8)
        assert calls == [(stage, (i,), threading.get_ident())
                         for i in range(5) for stage in ("init", "minimize")]

    def test_all_failures_aggregate(self):
        def init(rng):
            return np.zeros(2)

        def minimize(x0, rng):
            raise ValueError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            multistart(3, init, minimize, seed=0)

    def test_partial_failures_keep_successes(self):
        calls = {"i": 0}

        def init(rng):
            return np.zeros(2)

        def minimize(x0, rng):
            calls["i"] += 1
            if calls["i"] == 1:
                raise ValueError("first run dies")
            from momentcp.optimize import RunReport

            return RunReport(
                lam=np.zeros(1), A=np.zeros((1, 1)), f=float(calls["i"]),
                grad_inf_norm=0.0, n_fg=1, n_steps=1, wall_time=0.0,
                reason="tolerance",
            )

        rep = multistart(3, init, minimize, seed=0)
        assert rep.f == 2.0
        assert len(rep.failures) == 1


class TestConfigs:
    def test_optconfig_validation(self):
        with pytest.raises(ValueError):
            OptConfig(pgtol=0.0)
        with pytest.raises(ValueError):
            OptConfig(pgtol=float("nan"))
        for name in ("max_iters", "max_total_iters"):
            with pytest.raises(ValueError, match=name):
                OptConfig(**{name: 0})

    def test_adamconfig_validation(self):
        for value in (0, -1):
            with pytest.raises(ValueError, match="batch"):
                AdamConfig(batch=value)
        # the edge of the range is accepted
        AdamConfig(batch=1)

    @pytest.mark.parametrize("name", ["batch"])
    def test_adamconfig_counts_are_integers(self, name):
        with pytest.raises(ValueError, match=name):
            AdamConfig(**{name: 2.5})
        with pytest.raises(ValueError, match=name):
            AdamConfig(**{name: 2.0})
        assert getattr(AdamConfig(**{name: np.int64(3)}), name) == 3
        assert getattr(AdamConfig(**{name: 3}), name) == 3
