"""Objective/gradient evaluation: explicit vs implicit vs finite differences."""

import numpy as np
import pytest

from momentcp import (
    ObservationSet,
    build_moment,
    fg_explicit,
    fg_implicit,
    inner,
    kruskal_to_dense,
    sample_observations,
    ttsv_batch,
    SymKruskal,
)
from momentcp.dense import ttsv_batch_dense
from momentcp.objective import packed_fg
from momentcp.optimize import pack, packed_fg_implicit


def random_instance(rng):
    n = int(rng.integers(1, 7))
    p = int(rng.integers(1, 9))
    r = int(rng.integers(1, 4))
    d = int(rng.choice([2, 3, 4]))
    obs = ObservationSet(rng.standard_normal((n, p)), rng.random(p) + 0.5)
    lam = rng.standard_normal(r)
    A = rng.standard_normal((n, r))
    return obs, lam, A, d


class TestFgExplicit:
    def test_exact_fit_is_global_minimum(self):
        rng = np.random.default_rng(20)
        obs = ObservationSet(rng.standard_normal((4, 3)), rng.random(3) + 0.5)
        X = build_moment(obs, 3)
        alpha = inner(X, X)
        res = fg_explicit(X, obs.nu, obs.V, alpha)
        assert abs(res.f) <= 1e-10
        assert np.abs(res.g_lam).max() <= 1e-10
        assert np.abs(res.g_A).max() <= 1e-10

    def test_zero_weights(self):
        rng = np.random.default_rng(21)
        obs, _, A, d = _small(rng)
        X = build_moment(obs, d)
        res = fg_explicit(X, np.zeros(A.shape[1]), A, 0.0)
        Y = ttsv_batch(obs, A, d)
        w = np.einsum("ij,ij->j", A, Y)
        assert res.f == 0.0
        assert np.allclose(res.g_lam, -2.0 * w, rtol=1e-12, atol=1e-14)
        assert np.array_equal(res.g_A, np.zeros_like(A))

    def test_matches_dense_residual(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            obs, lam, A, d = random_instance(rng)
            X = build_moment(obs, d)
            alpha = float(rng.standard_normal())
            res = fg_explicit(X, lam, A, alpha)
            M = kruskal_to_dense(SymKruskal(d, lam, A))
            diff = X.entries - M.entries
            want = alpha - inner(X, X) + float(np.dot(diff.ravel(), diff.ravel()))
            assert res.f == pytest.approx(want, rel=1e-10, abs=1e-10 * max(1.0, abs(want)))

    def test_rejects_nonfinite_variables(self):
        obs = ObservationSet(np.ones((2, 2)))
        X = build_moment(obs, 3)
        lam = np.array([np.nan])
        with pytest.raises(ValueError):
            fg_explicit(X, lam, np.ones((2, 1)), 0.0)
        with pytest.raises(ValueError):
            fg_explicit(X, np.ones(1), np.ones((2, 1)), np.inf)

    @pytest.mark.parametrize("lam, A_shape, message", [
        (np.ones(2), (3, 2), "A must have 2 rows"),
        (np.ones(2), (2, 3), "inconsistent shapes"),
        (np.ones((2, 1)), (2, 2), "inconsistent shapes"),
    ])
    def test_rejects_bad_shapes(self, lam, A_shape, message):
        obs = ObservationSet(np.ones((2, 4)))
        with pytest.raises(ValueError, match=message):
            fg_explicit(build_moment(obs, 3), lam, np.ones(A_shape))
        with pytest.raises(ValueError, match=message):
            fg_implicit(obs, lam, np.ones(A_shape), 3)


def _small(rng):
    n = int(rng.integers(2, 5))
    p = int(rng.integers(2, 6))
    r = int(rng.integers(1, 3))
    d = int(rng.choice([2, 3, 4]))
    obs = ObservationSet(rng.standard_normal((n, p)))
    lam = rng.standard_normal(r)
    A = rng.standard_normal((n, r))
    return obs, lam, A, d


class TestFgImplicit:
    def test_agrees_with_explicit(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            obs, lam, A, d = random_instance(rng)
            alpha = float(rng.standard_normal())
            X = build_moment(obs, d)
            re = fg_explicit(X, lam, A, alpha)
            ri = fg_implicit(obs, lam, A, d, alpha)
            assert ri.f == pytest.approx(re.f, rel=1e-10, abs=1e-10 * max(1.0, abs(re.f)))
            scale = max(1.0, float(np.abs(re.g_lam).max()))
            assert np.allclose(ri.g_lam, re.g_lam, rtol=1e-10, atol=1e-10 * scale)
            scale = max(1.0, float(np.abs(re.g_A).max()))
            assert np.allclose(ri.g_A, re.g_A, rtol=1e-10, atol=1e-10 * scale)

    def test_zero_weights(self):
        rng = np.random.default_rng(24)
        obs, _, A, d = _small(rng)
        res = fg_implicit(obs, np.zeros(A.shape[1]), A, d, 0.0)
        assert res.f == 0.0
        assert np.array_equal(res.g_A, np.zeros_like(A))

    def test_rank_one_unit_exact_fit(self):
        v = np.array([0.6, 0.8])  # unit norm
        obs = ObservationSet(v[:, None], np.array([1.0]))
        res = fg_implicit(obs, np.array([1.0]), v[:, None], 3, alpha=1.0)
        assert abs(res.f) <= 1e-14

    def test_alpha_shift_only_moves_f(self):
        rng = np.random.default_rng(25)
        obs, lam, A, d = _small(rng)
        r0 = fg_implicit(obs, lam, A, d, 0.0)
        r1 = fg_implicit(obs, lam, A, d, 7.25)
        assert r1.f - r0.f == pytest.approx(7.25, rel=1e-12, abs=1e-12 * max(1.0, abs(r0.f)))
        assert np.array_equal(r0.g_lam, r1.g_lam)
        assert np.array_equal(r0.g_A, r1.g_A)


class TestGradients:
    def test_finite_differences(self):
        rng = np.random.default_rng(27)
        h = 1e-6
        for _ in range(25):
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
            assert np.all(np.abs(fd - g) <= 1e-5 * np.maximum(scale, 1e-12))


def packed_instance(rng, n=40, p=200, r=5):
    # V column-major, as the file readers give it: at this size a change
    # in the layout of A changes the GEMMs' bits
    V = np.asfortranarray(rng.standard_normal((n, p)))
    obs = ObservationSet(V, rng.random(p) + 0.5)
    return obs, rng.standard_normal(r), rng.standard_normal((n, r)), n, r


class TestPackedEvaluator:
    """The one packed evaluator must give the per-point routes' bits."""

    _instance = staticmethod(packed_instance)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_implicit_bitwise(self, d):
        rng = np.random.default_rng(100 + d)
        obs, lam, A, _, r = self._instance(rng)
        fg = packed_fg_implicit(obs, d, r, alpha=2.5)
        for _ in range(3):
            ref = fg_implicit(obs, lam, A, d, alpha=2.5)
            f, g = fg(pack(lam, A))
            assert f == ref.f
            assert np.array_equal(g, pack(ref.g_lam, ref.g_A))
            lam, A = rng.standard_normal(lam.shape), rng.standard_normal(A.shape)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dense_oracle_bitwise(self, d):
        rng = np.random.default_rng(110 + d)
        obs, lam, A, n, r = self._instance(rng, n=7, p=60, r=3)
        X = build_moment(obs, d)
        f, g = packed_fg(lambda B: ttsv_batch_dense(X, B), n, r, d, alpha=-1.5)(pack(lam, A))
        ref = fg_explicit(X, lam, A, alpha=-1.5)
        assert f == ref.f
        assert np.array_equal(g, pack(ref.g_lam, ref.g_A))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_point_raises(self, bad):
        rng = np.random.default_rng(120)
        obs, lam, A, _, r = self._instance(rng)
        x = pack(lam, A)
        x[4] = bad
        with pytest.raises(ValueError):
            packed_fg_implicit(obs, 3, r)(x)

    def test_problem_checked_when_built(self):
        obs = ObservationSet(np.ones((2, 3)))
        for d, r, alpha in [(1, 2, 0.0), (3, 0, 0.0), (3, 2, np.nan), (3, 2, np.inf)]:
            with pytest.raises(ValueError):
                packed_fg_implicit(obs, d, r, alpha)


def _term_scale(obs, x, d, r, alpha):
    """``|alpha| + |lam'G lam| + 2|w'lam|`` at ``x``'s ``A`` and its ``lam*``,
    the objective's rounding yardstick in ``perfbench/checks.py``."""
    A = x[r:].reshape((obs.n, r), order="F")
    G = (A.T @ A) ** d
    w = np.einsum("ij,ij->j", A, ttsv_batch(obs, A, d))
    lam = np.linalg.solve(G, w)
    return abs(alpha) + abs(lam @ G @ lam) + 2.0 * abs(w @ lam)


class TestReducedRoute:
    """Variable projection: ``lam`` eliminated as ``lam* = G^{-1} w``."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_finite_differences_over_A(self, d):
        rng = np.random.default_rng(130 + d)
        n, r, h = 6, 3, 1e-6
        obs = ObservationSet(rng.standard_normal((n, 40)))
        project = packed_fg_implicit(obs, d, r).project
        for _ in range(5):
            A = rng.standard_normal((n, r))
            A /= np.linalg.norm(A, axis=0)
            x = pack(np.zeros(r), A)
            g = project(x)[2][r:]
            fd = np.zeros_like(g)
            for i in range(g.size):
                e = np.zeros_like(x)
                e[r + i] = h
                fd[i] = (project(x + e)[1] - project(x - e)[1]) / (2.0 * h)
            assert np.abs(fd - g).max() <= 1e-5 * np.abs(g).max()

    def test_lam_ignored(self):
        rng = np.random.default_rng(140)
        obs, lam, A, _, r = packed_instance(rng)
        project = packed_fg_implicit(obs, 3, r).project
        x_star, f, g = project(pack(lam, A))
        x2, f2, g2 = project(pack(-3.0 * lam, A))
        assert f2 == f and np.array_equal(x2, x_star) and np.array_equal(g2, g)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_per_point_route_at_lam_star(self, d):
        rng = np.random.default_rng(150 + d)
        obs, lam, A, _, r = packed_instance(rng)
        fg = packed_fg_implicit(obs, d, r, alpha=2.5)
        x_star, f, g = fg.project(pack(lam, A))
        lam_star = x_star[:r]
        assert np.array_equal(x_star[r:], pack(lam, A)[r:])
        ref = fg_implicit(obs, lam_star, A, d, alpha=2.5)
        assert f == ref.f
        assert np.array_equal(g, pack(ref.g_lam, ref.g_A))
        # lam* is the optimum: the full gradient's lam part vanishes there
        assert np.abs(ref.g_lam).max() <= 1e-10 * np.abs(ref.g_A).max()
        # G is well conditioned, so lam* comes from the Cholesky factor
        G = (A.T @ A) ** d
        w = np.einsum("ij,ij->j", A, ttsv_batch(obs, A, d))
        assert np.linalg.cond(G) < 10.0
        lam_ref = np.linalg.solve(G, w)
        assert np.linalg.norm(lam_star - lam_ref) <= 1e-12 * np.linalg.norm(lam_ref)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -3.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rounding_scale_from_f_and_alpha(self, d, alpha):
        # G lam* = w, so |alpha| + 3|f - alpha| is the Gram terms' scale at lam*
        rng = np.random.default_rng(155 + d)
        obs, lam, A, _, r = packed_instance(rng)
        fg = packed_fg_implicit(obs, d, r, alpha)
        x = pack(lam, A)
        f = fg.project(x)[1]
        want = _term_scale(obs, x, d, r, alpha)
        assert fg.alpha == alpha
        assert abs(abs(fg.alpha) + 3.0 * abs(f - fg.alpha) - want) <= 1e-12 * want

    @pytest.mark.parametrize("delta", [0.0, 1e-10, None])
    def test_degenerate_columns(self, delta):
        # G is singular to working precision: a duplicate column (Cholesky
        # fails), one 1e-10 away (Cholesky passes on rounding, with a pivot
        # below the floor) or a zero column.  The minimum-norm weights give
        # the objective of the model without the redundant column.
        rng = np.random.default_rng(160)
        n, d = 5, 3
        obs = ObservationSet(rng.standard_normal((n, 30)))
        A2 = rng.standard_normal((n, 2))
        if delta is None:
            extra = np.zeros((n, 1))
        else:
            extra = A2[:, :1] + delta * rng.standard_normal((n, 1))
        A3 = np.hstack([A2, extra])
        x_star, f3, g3 = packed_fg_implicit(obs, d, 3).project(pack(np.ones(3), A3))
        _, f2, _ = packed_fg_implicit(obs, d, 2).project(pack(np.ones(2), A2))
        assert np.isfinite(x_star).all() and np.isfinite(g3).all()
        assert f3 == pytest.approx(f2, rel=1e-9)
        lam3 = x_star[:3]
        G = (A3.T @ A3) ** d
        w = np.einsum("ij,ij->j", A3, ttsv_batch(obs, A3, d))
        assert np.abs(G @ lam3 - w).max() <= 1e-10 * np.abs(w).max()

    def test_overflow_gives_nonfinite_f(self):
        # lbfgs_minimize ends a run at its last finite iterate on such a point
        rng = np.random.default_rng(165)
        obs = ObservationSet(rng.standard_normal((5, 30)))
        x = pack(np.ones(2), 1e80 * rng.standard_normal((5, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            _, f, _ = packed_fg_implicit(obs, 3, 2).project(x)
        assert not np.isfinite(f)

    @pytest.mark.parametrize("r", [3, 4])
    def test_rank_above_dimension_is_flat(self, r):
        # at n=2, d=2 the symmetric matrices have dimension 3: three generic
        # rank-1 terms span them (G nonsingular), four make G singular; either
        # way every A fits X exactly, so the reduced objective is flat
        rng = np.random.default_rng(170 + r)
        obs = ObservationSet(rng.standard_normal((2, 10)))
        A = rng.standard_normal((2, r))
        _, f, g = packed_fg_implicit(obs, 2, r).project(pack(np.zeros(r), A))
        g = g[r:]
        x_norm_sq = float(np.sum(build_moment(obs, 2).entries ** 2))
        assert np.isfinite(g).all()
        assert f == pytest.approx(-x_norm_sq, rel=1e-10)
        assert np.abs(g).max() <= 1e-10 * x_norm_sq


class _FixedDrawRng:
    """Stub generator whose integer draws return 0..p-1 in order."""

    def __init__(self, p):
        self.p = p

    def integers(self, low, high, size):
        assert low == 0 and high == self.p and size == self.p
        return np.arange(self.p)


class TestSampleObservations:
    def test_identity_draw_reproduces_input(self):
        rng = np.random.default_rng(28)
        obs = ObservationSet(rng.standard_normal((3, 5)))
        sampled = sample_observations(obs, obs.p, _FixedDrawRng(obs.p))
        assert np.array_equal(sampled.V, obs.V)
        assert np.array_equal(sampled.nu, obs.nu)

    def test_single_observation_any_sample_size(self):
        v = np.array([[1.5], [-0.5]])
        obs = ObservationSet(v)
        sampled = sample_observations(obs, 7, np.random.default_rng(0))
        assert sampled.p == 7
        assert np.array_equal(sampled.V, np.repeat(v, 7, axis=1))
        A = np.array([[1.0], [2.0]])
        Y_exact = ttsv_batch(obs, A, 3)
        Y_sample = ttsv_batch(sampled, A, 3)
        assert np.allclose(Y_sample, Y_exact, rtol=1e-14)

    def test_unbiased_mean(self):
        rng = np.random.default_rng(29)
        obs = ObservationSet(rng.standard_normal((3, 6)))
        A = rng.standard_normal((3, 2))
        d, s, trials = 3, 4, 20_000
        exact = ttsv_batch(obs, A, d)
        acc = np.zeros((trials,) + exact.shape)
        for t in range(trials):
            acc[t] = ttsv_batch(sample_observations(obs, s, rng), A, d)
        mean = acc.mean(axis=0)
        se = acc.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12)

    def test_requires_uniform_weights(self):
        obs = ObservationSet(np.ones((2, 3)), np.array([0.5, 0.25, 0.25]))
        with pytest.raises(ValueError):
            sample_observations(obs, 2, np.random.default_rng(0))

    def test_rejects_bad_sample_size(self):
        obs = ObservationSet(np.ones((2, 3)))
        with pytest.raises(ValueError):
            sample_observations(obs, 0, np.random.default_rng(0))
