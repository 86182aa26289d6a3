"""Mixture generation, initialization, and the matched-cosine score."""

import itertools

import numpy as np
import pytest

import momentcp.cli as cli
import momentcp.dense as dense
from momentcp import (
    ObservationSet,
    correlated_means,
    gaussian_init,
    rrf_init,
    sample_gmm,
    similarity_score,
)
from momentcp.io import read_observations_binary, write_observations_binary
from momentcp.cli import main, run_gmm_sweep


def brute_force_score(A_true, A_hat):
    """Maximum mean |cosine| over every injective assignment, by enumeration."""
    T = A_true / np.linalg.norm(A_true, axis=0)
    H = A_hat / np.linalg.norm(A_hat, axis=0)
    C = np.abs(T.T @ H)
    r, rh = C.shape
    m = min(r, rh)
    best = -np.inf
    if rh >= r:
        for pi in itertools.permutations(range(rh), r):
            best = max(best, sum(C[i, pi[i]] for i in range(r)))
    else:
        for pi in itertools.permutations(range(r), rh):
            best = max(best, sum(C[pi[j], j] for j in range(rh)))
    return best / m


class TestCorrelatedMeans:
    def test_zero_congruence_is_orthonormal(self):
        M = correlated_means(10, 4, 0.0, np.random.default_rng(50))
        assert np.allclose(M.T @ M, np.eye(4), atol=1e-12)

    def test_pair_at_sixty_degrees(self):
        M = correlated_means(8, 2, 0.5, np.random.default_rng(51))
        cos_angle = float(M[:, 0] @ M[:, 1])
        assert cos_angle == pytest.approx(0.5, abs=1e-12)
        assert np.degrees(np.arccos(cos_angle)) == pytest.approx(60.0, abs=1e-9)

    def test_gram_property_over_grid(self):
        rng = np.random.default_rng(52)
        for n, r in [(3, 2), (50, 10), (500, 10), (500, 3)]:
            for c in (0.0, 0.5, 0.9):
                M = correlated_means(n, r, c, rng)
                G = M.T @ M
                want = np.full((r, r), c)
                np.fill_diagonal(want, 1.0)
                assert np.abs(G - want).max() <= 1e-10

    def test_rejects_indefinite_gram(self):
        with pytest.raises(ValueError):
            correlated_means(10, 3, -0.6, np.random.default_rng(0))  # needs c > -1/2

    def test_rejects_r_above_n(self):
        with pytest.raises(ValueError):
            correlated_means(2, 3, 0.1, np.random.default_rng(0))


class TestSampleGmm:
    def test_zero_noise_columns_equal_means(self):
        rng = np.random.default_rng(53)
        means = correlated_means(6, 3, 0.5, rng)
        obs = sample_gmm(means, 0.0, 9, rng)
        assert np.array_equal(obs.V, means[:, np.repeat(np.arange(3), [3, 3, 3])])

    def test_zero_noise_single_component(self):
        rng = np.random.default_rng(54)
        means = correlated_means(4, 1, 0.0, rng)
        obs = sample_gmm(means, 0.0, 5, rng)
        assert np.array_equal(obs.V, np.repeat(means, 5, axis=1))

    def test_round_robin_remainder(self):
        # the remainder goes to the first components, and samples come in component order
        rng = np.random.default_rng(55)
        means = correlated_means(4, 3, 0.0, rng)
        obs = sample_gmm(means, 0.0, 7, rng)
        assert np.array_equal(obs.V, means[:, np.repeat(np.arange(3), [3, 2, 2])])

    def test_uniform_weights(self):
        rng = np.random.default_rng(56)
        means = correlated_means(4, 2, 0.0, rng)
        obs = sample_gmm(means, 0.5, 10, rng)
        assert obs.has_uniform_weights()

    def test_empirical_component_means(self):
        rng = np.random.default_rng(57)
        means = correlated_means(4, 2, 0.5, rng)
        sigma, per = 0.3, 100_000
        obs = sample_gmm(means, sigma, per * 2, rng)
        labels = np.repeat(np.arange(2), [per, per])
        for j in range(2):
            emp = obs.V[:, labels == j].mean(axis=1)
            assert np.all(np.abs(emp - means[:, j]) <= 4.0 * sigma / np.sqrt(per))


class TestInits:
    def test_rrf_unit_columns(self):
        rng = np.random.default_rng(58)
        obs = ObservationSet(rng.standard_normal((6, 20)))
        A0 = rrf_init(obs, 3, rng)
        assert np.allclose(np.linalg.norm(A0, axis=0), 1.0, atol=1e-13)

    def test_rrf_columns_in_data_range(self):
        rng = np.random.default_rng(59)
        V = rng.standard_normal((10, 3))  # rank-3 data in 10 dims
        obs = ObservationSet(V)
        A0 = rrf_init(obs, 2, rng)
        Q, _ = np.linalg.qr(V)
        residual = A0 - Q @ (Q.T @ A0)
        assert np.abs(residual).max() <= 1e-10

    def test_rrf_rejects_zero_data(self):
        obs = ObservationSet(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            rrf_init(obs, 2, np.random.default_rng(0))

    def test_gaussian_unit_columns_and_reproducible(self):
        A0 = gaussian_init(7, 3, np.random.default_rng(60))
        A1 = gaussian_init(7, 3, np.random.default_rng(60))
        assert np.allclose(np.linalg.norm(A0, axis=0), 1.0, atol=1e-13)
        assert np.array_equal(A0, A1)

    def test_gaussian_mean_absolute_cosine(self):
        # |cos| of a random unit vector against a fixed direction in R^n
        # has mean sqrt(2 / (pi n)) for large n
        n, trials = 100, 4000
        rng = np.random.default_rng(61)
        mu = np.zeros(n)
        mu[0] = 1.0
        vals = np.abs(gaussian_init(n, trials, rng).T @ mu)
        expected = np.sqrt(2.0 / (np.pi * n))
        assert vals.mean() == pytest.approx(expected, rel=0.05)

    def test_rrf_aligns_with_means_better_than_random(self):
        # low-noise mixture data: range-finder starts should overlap the
        # means far more than random directions do
        rng = np.random.default_rng(62)
        means = correlated_means(100, 3, 0.5, rng)
        obs = sample_gmm(means, 1e-3, 750, rng)
        stats = {"rrf": [], "random": []}
        for seed in range(100):
            r1 = np.random.default_rng(1000 + seed)
            r2 = np.random.default_rng(2000 + seed)
            overlap = lambda A0: np.abs(means.T @ A0).max(axis=0).min()
            stats["rrf"].append(overlap(rrf_init(obs, 3, r1)))
            stats["random"].append(overlap(gaussian_init(100, 3, r2)))
        assert np.mean(stats["rrf"]) > 2.0 * np.mean(stats["random"])


def _sketch(V, r, rng):
    """The range finder's sketch ``V @ Omega``, Gaussian ``Omega``, columns normalized."""
    A0 = V @ rng.standard_normal((V.shape[1], r))
    return A0 / np.linalg.norm(A0, axis=0)


class TestRangeFactor:
    """``rrf_init`` draws ``F @ z`` from one factor ``F F' = V V'`` per set."""

    def test_tall_data_draws_the_sketch_bitwise(self):
        rng = np.random.default_rng(80)
        V = rng.standard_normal((30, 7)) * 3.0
        obs = ObservationSet(V)
        for seed in range(20):
            got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(rrf_init(obs, 4, got), _sketch(V, 4, ref))
            assert got.bit_generator.state == ref.bit_generator.state
        assert obs.range_factor is obs.V

    @pytest.mark.parametrize("n, p", [(6, 6), (12, 400), (100, 5000)])
    def test_full_rank_draws_from_the_cholesky_factor(self, n, p):
        rng = np.random.default_rng(81)
        V = rng.standard_normal((n, p)) + 2.0
        obs = ObservationSet(V)
        F = obs.range_factor
        G = V @ V.T
        assert F.shape == (n, n) and np.array_equal(F, np.tril(F))
        assert np.abs(F @ F.T - G).max() <= 1e-13 * np.abs(G).max()
        got, ref = np.random.default_rng(3), np.random.default_rng(3)
        A0 = rrf_init(obs, 5, got)
        assert np.array_equal(A0, _sketch(F, 5, ref))  # F @ z from exactly n * r normals
        assert got.bit_generator.state == ref.bit_generator.state
        assert np.allclose(np.linalg.norm(A0, axis=0), 1.0, atol=1e-13)

    def test_rank_deficient_wide_data_falls_back_to_v(self):
        rng = np.random.default_rng(82)
        V = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 40))  # rank 3, n <= p
        obs = ObservationSet(V)
        A0 = rrf_init(obs, 2, np.random.default_rng(4))
        assert obs.range_factor is obs.V
        assert np.array_equal(A0, _sketch(V, 2, np.random.default_rng(4)))

    @pytest.mark.parametrize("exponent", [600, -527, -600])
    @pytest.mark.parametrize("shape", [(6, 40), (40, 6)], ids=["wide", "tall"])
    def test_extreme_scales_give_unit_columns_in_range(self, exponent, shape):
        # V V' overflows or underflows: the draw is the sketch, normalized
        # without overflow or underflow.  At 2^-527 the wide V V' is
        # subnormal, and its rounding passes the pivot test of this rank-3 V.
        rng = np.random.default_rng(83)
        V = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
        obs = ObservationSet(np.ldexp(V, exponent))
        A0 = rrf_init(obs, 2, np.random.default_rng(5))
        assert obs.range_factor is obs.V
        assert np.isfinite(A0).all()
        assert np.allclose(np.linalg.norm(A0, axis=0), 1.0, atol=1e-13)
        Q, _ = np.linalg.qr(V[:, :3])
        assert np.abs(A0 - Q @ (Q.T @ A0)).max() <= 1e-10
        assert np.array_equal(A0, _sketch(V, 2, np.random.default_rng(5)))

    def test_factor_is_formed_once_at_the_first_draw(self, tmp_path, monkeypatch):
        calls = []
        real = dense._cholesky
        monkeypatch.setattr(dense, "_cholesky", lambda G: calls.append(G.shape) or real(G))
        V = np.random.default_rng(84).standard_normal((8, 300))
        path = str(tmp_path / "obs.momv")
        write_observations_binary(path, ObservationSet(V))
        for obs in (ObservationSet(V), read_observations_binary(path)):
            assert "range_factor" not in vars(obs) and calls == []
        rng = np.random.default_rng(6)
        draws = [rrf_init(obs, 3, rng) for _ in range(4)]
        assert calls == [(8, 8)] and vars(obs)["range_factor"].shape == (8, 8)
        assert not any(np.array_equal(draws[0], A) for A in draws[1:])

    def test_zero_tall_data_raises(self):
        # TestInits covers n <= p, where the zero V V' has no factor
        with pytest.raises(ValueError, match="projection produced a zero column"):
            rrf_init(ObservationSet(np.zeros((4, 3))), 2, np.random.default_rng(0))


class TestSimilarityScore:
    def test_identity(self):
        rng = np.random.default_rng(63)
        A = rng.standard_normal((6, 4))
        assert similarity_score(A, A).score == pytest.approx(1.0, abs=1e-12)

    def test_permutation_and_sign_invariance(self):
        rng = np.random.default_rng(64)
        A = rng.standard_normal((6, 4))
        perm = rng.permutation(4)
        signs = rng.choice([-1.0, 1.0], 4)
        B = A[:, perm] * signs
        assert similarity_score(A, B).score == pytest.approx(1.0, abs=1e-12)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(65)
        A = rng.standard_normal((5, 3))
        B = rng.standard_normal((5, 3))
        s0 = similarity_score(A, B).score
        scales = rng.uniform(0.1, 10.0, 3)
        assert similarity_score(A * scales, B).score == pytest.approx(s0, rel=1e-12)
        assert similarity_score(A, B * scales).score == pytest.approx(s0, rel=1e-12)

    def test_single_pair_cosine(self):
        e1 = np.array([[1.0], [0.0]])
        diag = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert similarity_score(e1, diag).score == pytest.approx(
            1.0 / np.sqrt(2.0), rel=1e-12
        )

    def test_bounds(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            A = rng.standard_normal((5, int(rng.integers(1, 5))))
            B = rng.standard_normal((5, int(rng.integers(1, 5))))
            s = similarity_score(A, B).score
            assert 0.0 <= s <= 1.0 + 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(67)
        for r, rh in [(1, 1), (2, 2), (3, 5), (5, 3), (4, 4), (2, 6)]:
            A = rng.standard_normal((7, r))
            B = rng.standard_normal((7, rh))
            got = similarity_score(A, B).score
            want = brute_force_score(A, B)
            assert got == pytest.approx(want, rel=1e-12)

    def test_beats_random_injective_maps(self):
        rng = np.random.default_rng(68)
        A = rng.standard_normal((8, 4))
        B = rng.standard_normal((8, 6))
        res = similarity_score(A, B)
        C = np.abs(
            (A / np.linalg.norm(A, axis=0)).T @ (B / np.linalg.norm(B, axis=0))
        )
        total = res.score * 4
        for _ in range(1000):
            pi = rng.choice(6, size=4, replace=False)
            assert total >= sum(C[i, pi[i]] for i in range(4)) - 1e-12

    def test_matching_is_injective(self):
        rng = np.random.default_rng(69)
        res = similarity_score(rng.standard_normal((6, 4)), rng.standard_normal((6, 7)))
        hat_cols = res.matching[:, 1]
        assert len(set(hat_cols)) == len(hat_cols)

    def test_zero_column_rejected(self):
        A = np.ones((3, 2))
        B = np.ones((3, 2))
        B[:, 1] = 0.0
        with pytest.raises(ValueError):
            similarity_score(A, B)


class TestGmmSpec:
    """The mixture that ``run_gmm_sweep`` draws: ``250 r`` observations from
    ``r`` unit-norm means with pairwise inner products 0.5."""

    def test_defaults(self, monkeypatch):
        drawn = []

        def recorded(means, sigma, p, rng):
            drawn.append((means, sigma, p))
            return sample_gmm(means, sigma, p, rng)

        monkeypatch.setattr(cli, "sample_gmm", recorded)
        run_gmm_sweep(n=6, r=3, sigma=0.1, d=3, rank_min=1, rank_max=1, starts=1, seed=0)
        (means, sigma, p), = drawn
        assert (means.shape, sigma, p) == ((6, 3), 0.1, 750)
        want = np.full((3, 3), 0.5)
        np.fill_diagonal(want, 1.0)
        assert np.abs(means.T @ means - want).max() <= 1e-12

    def test_validation(self, capsys):
        with pytest.raises(ValueError, match="r <= n"):
            run_gmm_sweep(n=3, r=4, sigma=0.1, d=3, rank_min=1, rank_max=1, starts=1, seed=0)
        with pytest.raises(ValueError):
            correlated_means(10, 2, 1.0, np.random.default_rng(0))
        code = main(["gmm", "--n", "3", "--r", "5", "--sigma", "0.1", "--order", "3",
                     "--rank-min", "1", "--rank-max", "1"])
        assert code == 1
        assert "r <= n" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
    def test_sigma_must_be_finite_and_nonnegative(self, capsys, sigma):
        # NaN compares false with everything, so a plain sigma < 0 test lets it through
        means = correlated_means(4, 2, 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            sample_gmm(means, sigma, 10, np.random.default_rng(0))
        code = main(["gmm", "--n", "4", "--r", "1", "--sigma", repr(sigma), "--order", "3",
                     "--rank-min", "1", "--rank-max", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: sigma must be finite and >= 0")
