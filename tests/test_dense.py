"""Dense tensor operations checked against direct enumeration."""

import itertools
import math

import numpy as np
import pytest

from momentcp import (
    CapExceededError,
    DenseSymTensor,
    ObservationSet,
    SymKruskal,
    build_moment,
    inner,
    kruskal_to_dense,
    outer_power,
    ttsv_all,
    ttsv_all_but_one,
)
from momentcp.dense import FINITE_BLOCK

# check_symmetric is exhaustive below this entry count, sampled above it
_EXHAUSTIVE_SYMMETRY_LIMIT = 1_000_000
_SYMMETRY_SAMPLES = 100_000


def check_symmetric(X: DenseSymTensor, tol: float) -> bool:
    """True iff entries are invariant (within ``tol``) under index permutations.

    Exhaustive over all ``d!`` permutations up to 10**6 entries; above that,
    a fixed random sample of permuted index pairs is compared instead.
    """
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    d = X.order
    E = X.entries
    if E.size <= _EXHAUSTIVE_SYMMETRY_LIMIT:
        for perm in itertools.permutations(range(d)):
            if np.abs(E - np.transpose(E, perm)).max() > tol:
                return False
        return True
    rng = np.random.default_rng(0)  # fixed stream: the check must be repeatable
    idx = rng.integers(0, X.dim, size=(_SYMMETRY_SAMPLES, d))
    perm = rng.permuted(np.broadcast_to(np.arange(d), idx.shape).copy(), axis=1)
    permuted = np.take_along_axis(idx, perm, axis=1)
    base = E[tuple(idx.T)]
    swapped = E[tuple(permuted.T)]
    return bool(np.abs(base - swapped).max() <= tol)


def unique_entries(n: int, d: int) -> int:
    """Number of distinct entries of a d-way n-dimensional symmetric tensor."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    return math.comb(n + d - 1, d)


def brute_outer_power(a, d):
    """Entrywise product over every multiindex, straight from the definition."""
    n = a.size
    T = np.empty((n,) * d)
    for idx in itertools.product(range(n), repeat=d):
        v = 1.0
        for i in idx:
            v *= a[i]
        T[idx] = v
    return T


class TestOuterPower:
    def test_basis_vector_single_entry(self):
        T = outer_power(np.array([1.0, 0.0]), 3)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        assert np.array_equal(T.entries, expected)

    def test_order_two_is_rank_one_matrix(self):
        T = outer_power(np.array([1.0, 2.0]), 2)
        assert np.array_equal(T.entries, np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_entry_is_index_product(self):
        # entry (2,2,1) in 1-based indexing: 2 * 2 * 1
        T = outer_power(np.array([1.0, 2.0]), 3)
        assert T.entries[1, 1, 0] == 4.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            d = int(rng.choice([2, 3, 4]))
            a = rng.standard_normal(n)
            T = outer_power(a, d)
            assert np.allclose(T.entries, brute_outer_power(a, d), rtol=1e-12, atol=0)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            outer_power(np.array([1.0, 2.0]), 1)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("MOMENTCP_ELEMENT_CAP", "10")
        with pytest.raises(CapExceededError) as exc:
            outer_power(np.ones(4), 3)
        assert "GB" in str(exc.value)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("MOMENTCP_ELEMENT_CAP", "10")
        with pytest.raises(CapExceededError):
            outer_power(np.ones(3), 3)
        outer_power(np.ones(2), 3)  # 8 <= 10


class TestBuildMoment:
    def test_single_scalar_observation(self):
        obs = ObservationSet(np.array([[2.0]]), np.array([1.0]))
        X = build_moment(obs, 3)
        assert X.entries.reshape(-1)[0] == 8.0

    def test_order_two_is_weighted_gram(self):
        rng = np.random.default_rng(1)
        V = rng.standard_normal((3, 5))
        obs = ObservationSet(V)
        X = build_moment(obs, 2)
        assert np.allclose(X.entries, V @ V.T / 5.0, rtol=1e-14, atol=1e-15)

    def test_two_basis_observations(self):
        obs = ObservationSet(np.eye(2), np.array([0.5, 0.5]))
        X = build_moment(obs, 3)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 0.5
        expected[1, 1, 1] = 0.5
        assert np.array_equal(X.entries, expected)

    def test_symmetric_at_zero_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            p = int(rng.integers(1, 8))
            d = int(rng.choice([2, 3, 4]))
            obs = ObservationSet(rng.standard_normal((n, p)), rng.random(p) + 0.1)
            assert check_symmetric(build_moment(obs, d), 0.0)


class TestKruskalToDense:
    def test_single_component_equals_outer_power(self):
        a = np.array([1.0, 0.0])
        model = SymKruskal(3, np.array([1.0]), a[:, None])
        assert np.array_equal(
            kruskal_to_dense(model).entries, outer_power(a, 3).entries
        )

    def test_zero_weights_give_zero_tensor(self):
        model = SymKruskal(3, np.zeros(2), np.eye(2))
        assert np.array_equal(kruskal_to_dense(model).entries, np.zeros((2, 2, 2)))

    def test_moment_tensor_is_kruskal(self):
        obs = ObservationSet(np.eye(2), np.array([0.5, 0.5]))
        model = SymKruskal(3, np.array([0.5, 0.5]), np.eye(2))
        assert np.array_equal(
            kruskal_to_dense(model).entries, build_moment(obs, 3).entries
        )

    def test_symmetric_at_zero_tolerance(self):
        rng = np.random.default_rng(3)
        model = SymKruskal(4, rng.standard_normal(3), rng.standard_normal((5, 3)))
        assert check_symmetric(kruskal_to_dense(model), 0.0)


class TestInner:
    def test_orthogonal_rank_one_factors(self):
        X = outer_power(np.array([1.0, 0.0]), 3)
        Y = outer_power(np.array([0.0, 1.0]), 3)
        assert inner(X, Y) == 0.0

    def test_self_inner_of_rank_one(self):
        X = outer_power(np.array([1.0, 2.0]), 3)
        assert inner(X, X) == pytest.approx(125.0, rel=1e-14)

    def test_zero_tensor(self):
        X = outer_power(np.array([1.0, 2.0]), 3)
        Z = DenseSymTensor(3, 2, np.zeros((2, 2, 2)))
        assert inner(X, Z) == 0.0

    def test_rank_one_inner_product_reduction(self):
        # <a^d, b^d> = <a, b>^d
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            d = int(rng.choice([2, 3, 4]))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            got = inner(outer_power(a, d), outer_power(b, d))
            want = float(a @ b) ** d
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_shape_mismatch(self):
        X = outer_power(np.array([1.0, 2.0]), 3)
        Y = outer_power(np.array([1.0, 2.0]), 2)
        with pytest.raises(ValueError):
            inner(X, Y)


class TestTtsv:
    def test_rank_one_all_modes(self):
        # b^d contracted with a in all modes gives <a, b>^d
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            d = int(rng.choice([2, 3, 4]))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            got = ttsv_all(outer_power(b, d), a)
            assert got == pytest.approx(float(a @ b) ** d, rel=1e-12, abs=1e-12)

    def test_rank_one_all_but_one(self):
        # b^d contracted in all modes but one gives <a, b>^(d-1) * b
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            d = int(rng.choice([2, 3, 4]))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            got = ttsv_all_but_one(outer_power(b, d), a)
            want = float(a @ b) ** (d - 1) * b
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_small_example_values(self):
        X = outer_power(np.array([1.0, 2.0]), 3)
        a = np.array([1.0, 1.0])
        assert ttsv_all(X, a) == pytest.approx(27.0, rel=1e-14)
        assert np.allclose(ttsv_all_but_one(X, a), [9.0, 18.0], rtol=1e-14)

    def test_zero_vector(self):
        X = outer_power(np.array([1.0, 2.0]), 3)
        assert ttsv_all(X, np.zeros(2)) == 0.0
        assert np.array_equal(ttsv_all_but_one(X, np.zeros(2)), np.zeros(2))

    def test_all_modes_consistent_with_all_but_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, 9))
            d = int(rng.choice([2, 3, 4]))
            obs = ObservationSet(rng.standard_normal((n, p)))
            X = build_moment(obs, d)
            a = rng.standard_normal(n)
            got = ttsv_all(X, a)
            want = float(ttsv_all_but_one(X, a) @ a)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_length_mismatch(self):
        X = outer_power(np.array([1.0, 2.0]), 3)
        with pytest.raises(ValueError):
            ttsv_all(X, np.ones(3))
        with pytest.raises(ValueError):
            ttsv_all_but_one(X, np.ones(3))


class TestCheckSymmetric:
    def test_perturbed_entry_detected(self):
        obs = ObservationSet(np.eye(2), np.array([0.5, 0.5]))
        X = build_moment(obs, 3)
        entries = X.entries.copy()
        entries[0, 1, 0] += 1.0
        broken = DenseSymTensor(3, 2, entries)
        assert not check_symmetric(broken, 0.5)

    def test_outer_power_passes(self):
        T = outer_power(np.array([0.3, -1.2, 2.0]), 4)
        assert check_symmetric(T, 0.0)

    def test_sampled_path_above_limit(self):
        # 11**6 > 10**6 entries triggers the sampled check
        T = outer_power(np.linspace(0.1, 1.0, 11), 6)
        assert check_symmetric(T, 1e-12)

    def test_negative_tolerance_rejected(self):
        T = outer_power(np.array([1.0, 2.0]), 3)
        with pytest.raises(ValueError):
            check_symmetric(T, -1.0)


class TestUniqueEntries:
    def test_values(self):
        assert unique_entries(2, 3) == 4
        assert unique_entries(1, 7) == 1
        assert unique_entries(4, 4) == 35

    def test_bounds(self):
        for n in range(1, 6):
            assert unique_entries(n, 1) == n
            for d in range(1, 5):
                assert unique_entries(n, d) <= n**d

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            unique_entries(0, 3)
        with pytest.raises(ValueError):
            unique_entries(3, 0)


class TestObservationSet:
    def test_default_weights_uniform(self):
        obs = ObservationSet(np.ones((2, 4)))
        assert np.array_equal(obs.nu, np.full(4, 0.25))
        assert obs.has_uniform_weights()

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            ObservationSet(np.ones((2, 2)), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ObservationSet(np.ones((2, 2)), np.array([1.0, -1.0]))

    def test_rejects_nonfinite_observations(self):
        V = np.ones((2, 2))
        V[0, 1] = np.nan
        with pytest.raises(ValueError):
            ObservationSet(V)

    @pytest.mark.parametrize("layout", ["F", "C", "strided"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scan_reaches_every_block(self, layout, bad):
        # more entries than one scan block, with the bad one last in memory
        n, p = 7, 3 * FINITE_BLOCK // 7 + 5
        if layout == "strided":
            V = np.ones((n, 2 * p), order="F")[:, ::2]
        else:
            V = np.ones((n, p), order=layout)
        assert ObservationSet(V).V is V
        V[-1, -1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ObservationSet(V)

    def test_scan_makes_no_full_size_temporary(self):
        import tracemalloc

        V = np.ones((50, 20000), order="F")
        tracemalloc.start()
        try:
            ObservationSet(V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < V.size // 4  # a whole-array scan holds V.size booleans

    def test_rejects_weight_shape_mismatch(self):
        with pytest.raises(ValueError):
            ObservationSet(np.ones((2, 3)), np.ones(2))


class TestDenseSymTensor:
    def test_entry_count_validated(self):
        with pytest.raises(ValueError):
            DenseSymTensor(3, 2, np.zeros(7))

    def test_order_bound(self):
        with pytest.raises(ValueError):
            DenseSymTensor(1, 2, np.zeros(2))

    def test_norm_sq(self):
        X = outer_power(np.array([1.0, 2.0]), 3)
        assert inner(X, X) == pytest.approx(125.0, rel=1e-14)
