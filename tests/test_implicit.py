"""Matrix-free kernels verified against the dense oracle."""

import tracemalloc

import numpy as np
import pytest

from momentcp import (
    ObservationSet,
    SymKruskal,
    build_moment,
    data_norm_sq,
    inner,
    kruskal_norm_sq,
    kruskal_to_dense,
    model_data_inner,
    ttsv_all_but_one,
    ttsv_batch,
)
from momentcp.dense import ttsv_batch_dense
from momentcp.implicit import _column_blocks, _elementwise_power, _ttsv, kr_power, moment_unfolding
from momentcp.objective import pack, packed_fg_implicit


def random_instance(rng, d_choices=(2, 3, 4)):
    n = int(rng.integers(1, 7))
    p = int(rng.integers(1, 9))
    r = int(rng.integers(1, 4))
    d = int(rng.choice(d_choices))
    obs = ObservationSet(rng.standard_normal((n, p)), rng.random(p) + 0.5)
    lam = rng.standard_normal(r)
    A = rng.standard_normal((n, r))
    return obs, lam, A, d


class TestTtsvBatch:
    def test_single_observation_example(self):
        obs = ObservationSet(np.array([[1.0], [2.0]]), np.array([1.0]))
        Y = ttsv_batch(obs, np.array([[1.0], [1.0]]), 3)
        assert np.allclose(Y, np.array([[9.0], [18.0]]), rtol=1e-14)

    def test_zero_factors(self):
        obs = ObservationSet(np.random.default_rng(0).standard_normal((3, 4)))
        assert np.array_equal(ttsv_batch(obs, np.zeros((3, 2)), 3), np.zeros((3, 2)))

    def test_matches_dense_oracle_columnwise(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            obs, _, A, d = random_instance(rng)
            X = build_moment(obs, d)
            Y = ttsv_batch(obs, A, d)
            for j in range(A.shape[1]):
                want = ttsv_all_but_one(X, A[:, j])
                scale = max(float(np.abs(want).max()), 1.0)
                assert np.allclose(Y[:, j], want, rtol=1e-12, atol=1e-12 * scale)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(11)
        obs, _, A, d = random_instance(rng)
        doubled = ObservationSet(obs.V, 2.0 * obs.nu)
        assert np.array_equal(ttsv_batch(doubled, A, d), 2.0 * ttsv_batch(obs, A, d))

    def test_observation_permutation_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            obs, _, A, d = random_instance(rng)
            perm = rng.permutation(obs.p)
            shuffled = ObservationSet(obs.V[:, perm], obs.nu[perm])
            Y0 = ttsv_batch(obs, A, d)
            Y1 = ttsv_batch(shuffled, A, d)
            scale = max(float(np.abs(Y0).max()), 1e-30)
            assert np.allclose(Y0, Y1, rtol=1e-14, atol=1e-14 * scale)
            n0 = data_norm_sq(obs, d)
            n1 = data_norm_sq(shuffled, d)
            assert n1 == pytest.approx(n0, rel=1e-14, abs=1e-14 * max(1.0, n0))

    def test_shape_mismatch(self):
        obs = ObservationSet(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ttsv_batch(obs, np.ones((3, 2)), 3)


def assert_matches_oracle(Y, obs, A, d):
    """Column ``j`` of ``Y`` is the dense TTSV against ``A[:, j]``, at the
    tolerances of ``test_matches_dense_oracle_columnwise``."""
    X = build_moment(obs, d)
    for j in range(A.shape[1]):
        want = ttsv_all_but_one(X, A[:, j])
        scale = max(float(np.abs(want).max()), 1.0)
        assert np.allclose(Y[:, j], want, rtol=1e-12, atol=1e-12 * scale)


def count_block_powers(monkeypatch):
    """The list to which each power ``_ttsv`` takes appends its block's column count."""
    blocks = []

    def power(M, k):
        blocks.append(M.shape[0])
        return _elementwise_power(M, k)

    monkeypatch.setattr("momentcp.implicit._elementwise_power", power)
    return blocks


class TestBlockedTtsv:
    """``_ttsv`` sums over column blocks of ``V`` once ``V`` outgrows the budget."""

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_many_uneven_blocks(self, monkeypatch, d, order):
        rng = np.random.default_rng(20 + d)
        n, p, r = 5, 103, 3
        V = np.asarray(rng.standard_normal((n, p)), order=order)
        obs = ObservationSet(V, rng.random(p) + 0.5)
        A = rng.standard_normal((n, r))
        one_block = ttsv_batch(obs, A, d)
        budget = 8 * n * 7
        k = V.nbytes // budget
        assert k > 1 and p % k != 0
        monkeypatch.setattr("momentcp.implicit.TTSV_BLOCK_BYTES", budget)
        Y = ttsv_batch(obs, A, d)
        assert_matches_oracle(Y, obs, A, d)
        scale = float(np.abs(one_block).max())
        assert np.allclose(Y, one_block, rtol=1e-13, atol=1e-13 * scale)

    def test_more_blocks_than_columns(self, monkeypatch):
        # 8 bytes a block asks for n * p blocks; the split stops at one column each
        rng = np.random.default_rng(24)
        obs = ObservationSet(rng.standard_normal((4, 3)), rng.random(3) + 0.5)
        A = rng.standard_normal((4, 2))
        monkeypatch.setattr("momentcp.implicit.TTSV_BLOCK_BYTES", 8)
        blocks = count_block_powers(monkeypatch)
        Y = ttsv_batch(obs, A, 3)
        assert blocks == [1, 1, 1]
        assert_matches_oracle(Y, obs, A, 3)

    def test_one_block_runs_through_the_loop(self, monkeypatch):
        # a V under the budget is one block, which takes the block loop's one power
        rng = np.random.default_rng(24)
        obs = ObservationSet(rng.standard_normal((4, 3)), rng.random(3) + 0.5)
        A = rng.standard_normal((4, 2))
        assert len(_column_blocks(obs.V)) == 1
        blocks = count_block_powers(monkeypatch)
        Y = ttsv_batch(obs, A, 3)
        assert blocks == [3]
        assert_matches_oracle(Y, obs, A, 3)

    def test_one_block_is_bitwise_the_unblocked_product(self):
        rng = np.random.default_rng(25)
        cases = [random_instance(rng) for _ in range(20)]
        # 40 x 3000 doubles is 960 KB, just under two blocks' worth
        big = ObservationSet(rng.standard_normal((40, 3000)), rng.random(3000) + 0.5)
        cases.append((big, None, rng.standard_normal((40, 5)), 4))
        for obs, _, A, d in cases:
            V, nu = obs.V, obs.nu
            want = V @ (nu[:, None] * _elementwise_power(V.T @ A, d - 1))
            assert np.array_equal(_ttsv(V, nu[:, None], A, d), want)

    def test_memory_bounded_in_p(self):
        # the p x r product and its power take 4 MB each; blocks take B x r
        rng = np.random.default_rng(26)
        n, p, r, d = 100, 50_000, 10, 3
        obs = ObservationSet(rng.standard_normal((n, p)) / np.sqrt(n))
        A = rng.standard_normal((n, r))
        tracemalloc.start()
        try:
            Y = ttsv_batch(obs, A, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        want = obs.V @ (obs.nu[:, None] * _elementwise_power(obs.V.T @ A, d - 1))
        assert np.allclose(Y, want, rtol=1e-13, atol=1e-13 * float(np.abs(want).max()))

    def test_evaluator_memory_bounded_in_p(self):
        # the evaluator holds the weights as a p x r array, 4 MB here, made
        # once; an evaluation adds B x r blocks and n x r arrays to it
        rng = np.random.default_rng(26)
        n, p, r, d = 100, 50_000, 10, 3
        obs = ObservationSet(rng.standard_normal((n, p)) / np.sqrt(n))
        x = pack(np.ones(r), rng.standard_normal((n, r)))
        tracemalloc.start()
        try:
            fg = packed_fg_implicit(obs, d, r)
            fg.project(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * p * r + 1e6

    @pytest.mark.parametrize("blocked", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_row_weights_match_column_weights_bitwise(self, monkeypatch, d, blocked):
        # the evaluators' p x r weights scale each block as nu[:, None] does
        rng = np.random.default_rng(40 + d)
        n, p, r = 5, 103, 3
        V = rng.standard_normal((n, p))
        nu = rng.random(p) + 0.5
        A = rng.standard_normal((n, r))
        if blocked:
            monkeypatch.setattr("momentcp.implicit.TTSV_BLOCK_BYTES", 8 * n * 7)
        assert (len(_column_blocks(V)) > 1) == blocked
        W = np.repeat(nu, r).reshape(p, r)
        Y = _ttsv(V, W, A, d)
        assert np.array_equal(Y, _ttsv(V, nu[:, None], A, d))
        if not blocked:  # one block is the unblocked product
            assert np.array_equal(Y, V @ (nu[:, None] * _elementwise_power(V.T @ A, d - 1)))

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_power_is_a_new_array(self, k):
        # callers scale the power in place, which must leave M as it was
        M = np.random.default_rng(27).standard_normal((6, 3))
        kept = M.copy()
        P = _elementwise_power(M, k)
        assert P is not M and not np.shares_memory(P, M)
        P *= 3.0
        assert np.array_equal(M, kept)


class TestMomentUnfolding:
    """``T @ KR_{d-1}(A)`` with the moment's mode-1 unfolding ``T`` is the TTSV."""

    def test_kr_power_columns_are_kronecker_powers(self):
        B = np.random.default_rng(40).standard_normal((3, 4))
        assert kr_power(B, 1) is B
        K = kr_power(B, 3)
        for j in range(4):
            assert np.array_equal(K[:, j], np.kron(np.kron(B[:, j], B[:, j]), B[:, j]))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_dense_oracle_and_matrix_free(self, d):
        rng = np.random.default_rng(40 + d)
        n, p, r = 5, 37, 3
        obs = ObservationSet(rng.standard_normal((n, p)), rng.uniform(0.5, 2.0, p))
        A = rng.standard_normal((n, r))
        T = moment_unfolding(obs, d)
        assert T.shape == (n, n ** (d - 1))
        Y = T @ kr_power(A, d - 1)
        for want in (ttsv_batch_dense(build_moment(obs, d), A), ttsv_batch(obs, A, d)):
            assert np.abs(Y - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_block_split_does_not_matter(self, monkeypatch, d):
        rng = np.random.default_rng(50 + d)
        obs = ObservationSet(rng.standard_normal((4, 29)), rng.uniform(0.5, 2.0, 29))
        monkeypatch.setattr("momentcp.implicit.UNFOLD_BLOCK", 29)
        T = moment_unfolding(obs, d)
        for block in (1, 7):
            monkeypatch.setattr("momentcp.implicit.UNFOLD_BLOCK", block)
            assert np.abs(moment_unfolding(obs, d) - T).max() <= 1e-12 * np.abs(T).max()


class TestKruskalNormSq:
    def test_rank_one_value(self):
        model = SymKruskal(3, np.array([2.0]), np.array([[1.0], [1.0]]))
        assert kruskal_norm_sq(model) == pytest.approx(32.0, rel=1e-14)

    def test_zero_weights(self):
        model = SymKruskal(3, np.zeros(2), np.ones((3, 2)))
        assert kruskal_norm_sq(model) == 0.0

    def test_matches_dense_inner(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            _, lam, A, d = random_instance(rng)
            model = SymKruskal(d, lam, A)
            M = kruskal_to_dense(model)
            want = inner(M, M)
            assert kruskal_norm_sq(model) == pytest.approx(
                want, rel=1e-12, abs=1e-12 * max(1.0, abs(want))
            )


class TestDataNormSq:
    def test_scalar_observation(self):
        obs = ObservationSet(np.array([[2.0]]), np.array([1.0]))
        assert data_norm_sq(obs, 3) == pytest.approx(64.0, rel=1e-14)

    def test_zero_observations(self):
        obs = ObservationSet(np.zeros((3, 2)))
        assert data_norm_sq(obs, 3) == 0.0

    def test_matches_dense_inner(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            obs, _, _, d = random_instance(rng)
            X = build_moment(obs, d)
            want = inner(X, X)
            assert data_norm_sq(obs, d) == pytest.approx(
                want, rel=1e-12, abs=1e-12 * max(1.0, abs(want))
            )


    def test_memory_bounded_in_p(self):
        # the whole p x p Gram matrix takes 8 p^2 bytes; blocks take a fraction
        rng = np.random.default_rng(15)
        n, p, d = 50, 4000, 3
        obs = ObservationSet(rng.standard_normal((n, p)) / np.sqrt(n))
        tracemalloc.start()
        try:
            got = data_norm_sq(obs, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * p * p / 4
        X = build_moment(obs, d)
        assert got == pytest.approx(inner(X, X), rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_many_row_blocks_match_dense(self, monkeypatch, d):
        # blocks of 3 rows: diagonal blocks, off-diagonal blocks and a short last block
        monkeypatch.setattr("momentcp.implicit.NORM_BLOCK", 3)
        rng = np.random.default_rng(16 + d)
        for p in (1, 3, 7, 11):
            obs = ObservationSet(rng.standard_normal((4, p)), rng.random(p) + 0.5)
            X = build_moment(obs, d)
            want = inner(X, X)
            assert data_norm_sq(obs, d) == pytest.approx(
                want, rel=1e-12, abs=1e-12 * max(1.0, abs(want))
            )


class TestModelDataInner:
    def test_zero_weights_give_zero_value(self):
        Y = np.ones((3, 2))
        A = np.ones((3, 2))
        w, value = model_data_inner(Y, A, np.zeros(2))
        assert value == 0.0
        assert np.allclose(w, [3.0, 3.0])

    def test_single_observation_example(self):
        w, value = model_data_inner(
            np.array([[9.0], [18.0]]), np.array([[1.0], [1.0]]), np.array([1.0])
        )
        assert np.allclose(w, [27.0])
        assert value == pytest.approx(27.0, rel=1e-14)

    def test_matches_dense_inner(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            obs, lam, A, d = random_instance(rng)
            X = build_moment(obs, d)
            M = kruskal_to_dense(SymKruskal(d, lam, A))
            Y = ttsv_batch(obs, A, d)
            _, value = model_data_inner(Y, A, lam)
            want = inner(X, M)
            assert value == pytest.approx(want, rel=1e-12, abs=1e-12 * max(1.0, abs(want)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            model_data_inner(np.ones((3, 2)), np.ones((3, 3)), np.ones(3))
        with pytest.raises(ValueError):
            model_data_inner(np.ones((3, 2)), np.ones((3, 2)), np.ones(3))


class TestSymKruskal:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            SymKruskal(3, np.ones(2), np.ones((3, 3)))
        with pytest.raises(ValueError):
            SymKruskal(1, np.ones(2), np.ones((3, 2)))

    def test_rejects_nonfinite(self):
        A = np.ones((2, 2))
        A[0, 0] = np.inf
        with pytest.raises(ValueError):
            SymKruskal(3, np.ones(2), A)

    def test_norm_sq_method(self):
        model = SymKruskal(3, np.array([2.0]), np.array([[1.0], [1.0]]))
        assert kruskal_norm_sq(model) == pytest.approx(32.0, rel=1e-14)
