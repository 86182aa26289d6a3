"""Dense symmetric tensors and the weighted observation sets they are built from.

This module is the explicit, brute-force side of the package: every tensor is
stored as a full d-way numpy array of shape ``(n,) * d``, laid out row-major
(C order) on the multiindex ``(i1, ..., id)``.  It exists to be simple and
obviously correct, so that the matrix-free kernels in :mod:`momentcp.implicit`
can be checked against it entry by entry.  It is only meant for desk-scale
problems; an element cap refuses constructions that would allocate more
than ``element_cap()`` entries (``MOMENTCP_ELEMENT_CAP`` sets it).

Entry values produced by the constructors here depend only on the *multiset*
of indices: products are accumulated over the sorted multiindex, so the
outputs are symmetric to the bit, not merely up to roundoff.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import _umath_linalg as _gufunc  # np.linalg's LAPACK gufuncs

if TYPE_CHECKING:
    from momentcp.implicit import SymKruskal

DEFAULT_ELEMENT_CAP = 100_000_000
ELEMENT_CAP_ENV = "MOMENTCP_ELEMENT_CAP"

# entries of V that ObservationSet tests for finiteness at a time
FINITE_BLOCK = 1 << 16

# least share of its diagonal entry that a Cholesky pivot may keep
_PIVOT_FLOOR = float(np.sqrt(np.finfo(float).eps))


class CapExceededError(RuntimeError):
    """A dense construction would exceed the configured element cap."""


def element_cap() -> int:
    """Current element cap; the ``MOMENTCP_ELEMENT_CAP`` env var overrides the default."""
    raw = os.environ.get(ELEMENT_CAP_ENV)
    return int(raw) if raw else DEFAULT_ELEMENT_CAP


def _check_cap(n: int, d: int) -> None:
    limit = element_cap()
    count = n**d
    if count > limit:
        gib = count * 8 / 1e9
        raise CapExceededError(
            f"dense order-{d} tensor with n={n} has {count} elements "
            f"(approx {gib:.3g} GB); cap is {limit} elements "
            f"(override via {ELEMENT_CAP_ENV})"
        )


def _all_finite(V: np.ndarray) -> bool:
    """Whether every entry of the 2-D ``V`` is finite, tested
    ``FINITE_BLOCK`` entries at a time along its memory, so that the
    temporary is a small block of booleans rather than one per entry."""
    cols = V if abs(V.strides[0]) <= abs(V.strides[1]) else V.T
    step = max(1, FINITE_BLOCK // cols.shape[0])
    return all(np.isfinite(cols[:, j:j + step]).all() for j in range(0, cols.shape[1], step))


def _cholesky(G: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of ``G``, or ``None`` when ``G`` is not
    finite or not positive definite to working precision: a pivot keeps at
    most ``sqrt(eps)`` of its diagonal entry.  It is ``np.linalg.cholesky``'s
    gufunc without the wrapper, whose checks and error-state switch cost as
    much as the factorization at ``r <= 10``; a factorization that fails is
    all NaN, and a non-finite entry of ``G`` gives a NaN or infinite pivot,
    either of which fails the pivot test."""
    with np.errstate(all="ignore"):
        L = _gufunc.cholesky_lo(G, signature="d->d")
        return L if (L.diagonal() ** 2 > _PIVOT_FLOOR * G.diagonal()).all() else None


@dataclass
class ObservationSet:
    """A set of ``p`` weighted observations of an ``n``-vector.

    Parameters
    ----------
    V:
        Observation matrix, shape ``(n, p)``; column ``l`` is observation ``v_l``.
        A float64 array is kept as it is, not copied, so ``V`` may be a
        read-only view (a MOMV read maps its file); ``np.array(obs.V)``
        gives a writable copy.
    nu:
        Strictly positive weight vector of length ``p``.  Defaults to the
        uniform weights ``1/p``.

    The range-finder starts draw from :attr:`range_factor`, made from ``V``
    at the first draw and kept: ``n^2`` floats where it is the ``n x n``
    Cholesky factor, which is at most ``np``.  ``V`` is not to be changed
    in place after that.
    """

    V: np.ndarray
    nu: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.V = np.asarray(self.V, dtype=float)
        if self.V.ndim != 2:
            raise ValueError(f"V must be a 2-D matrix, got ndim={self.V.ndim}")
        n, p = self.V.shape
        if n < 1 or p < 1:
            raise ValueError(f"V must be at least 1x1, got shape {self.V.shape}")
        if not _all_finite(self.V):
            raise ValueError("V contains non-finite entries")
        if self.nu is None:
            self.nu = np.full(p, 1.0 / p)
        else:
            self.nu = np.asarray(self.nu, dtype=float)
            if self.nu.shape != (p,):
                raise ValueError(
                    f"nu must have length p={p}, got shape {self.nu.shape}"
                )
            if not np.isfinite(self.nu).all() or np.any(self.nu <= 0.0):
                raise ValueError("nu entries must be finite and strictly positive")

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def p(self) -> int:
        return self.V.shape[1]

    @cached_property
    def range_factor(self) -> np.ndarray:
        """An ``F`` with ``F F' = V V'``, from which the range finder draws
        ``F @ z``, ``N(0, V V')`` in each column, at ``O(n r)`` normals a draw.

        Where ``n <= p`` and ``V V'`` (one syrk, ``O(n^2 p)``) has normal
        (not underflowed) diagonal entries and is finite and positive
        definite to working precision (:func:`_cholesky`'s pivot test), it is
        the ``n x n`` lower Cholesky factor of ``V V'``.  Otherwise it is
        ``V``: ``n > p``, a rank-deficient ``V``, whose rounded ``V V'``
        could give draws outside ``range(V)``, and a ``V V'`` that
        overflows or underflows.
        """
        if self.n <= self.p:
            with np.errstate(all="ignore"):
                G = self.V @ self.V.T
            if G.diagonal().min() >= np.finfo(float).tiny:
                L = _cholesky(G)
                if L is not None:
                    return L
        return self.V

    def has_uniform_weights(self) -> bool:
        return bool(np.allclose(self.nu, 1.0 / self.p, rtol=1e-14, atol=0.0))


@dataclass
class DenseSymTensor:
    """A dense d-way symmetric tensor of dimension ``n``.

    ``entries`` has shape ``(dim,) * order`` with row-major (C) linearization
    over the multiindex ``(i1, ..., id)``.  Symmetry is an expectation, not
    an enforced invariant.
    """

    order: int
    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        _check_cap(self.dim, self.order)
        self.entries = np.asarray(self.entries, dtype=float)
        expected = (self.dim,) * self.order
        if self.entries.size != self.dim**self.order:
            raise ValueError(
                f"entry count {self.entries.size} != dim**order = {self.dim**self.order}"
            )
        self.entries = self.entries.reshape(expected)


@lru_cache(maxsize=8)
def _multiset_index(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-multiindex bookkeeping for an order-``d`` dim-``n`` grid.

    Returns ``(parts, inverse)``: ``parts[k]`` holds the k-th (ascending)
    component of each unique sorted multiindex, and ``inverse`` maps every
    flat position of the full C-ordered grid to its row in ``parts``.
    Transient memory is O(d * n**d), so this is only used at desk scale.
    """
    idx = np.indices((n,) * d).reshape(d, -1)
    idx.sort(axis=0)
    key = np.zeros(idx.shape[1], dtype=np.int64)
    for k in range(d):
        key *= n
        key += idx[k]
    unique_keys, inverse = np.unique(key, return_inverse=True)
    parts = np.empty((d, unique_keys.size), dtype=np.int64)
    rem = unique_keys
    for k in range(d - 1, -1, -1):
        parts[k] = rem % n
        rem = rem // n
    return parts, inverse


def _multiset_products(vec: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Products of ``vec`` over each sorted multiindex, multiplied left to right."""
    vals = vec[parts[0]].copy()
    for k in range(1, parts.shape[0]):
        vals *= vec[parts[k]]
    return vals


def outer_power(a: np.ndarray, d: int) -> DenseSymTensor:
    """d-way symmetric outer power of a vector.

    Entry ``(i1, ..., id)`` is ``a[i1] * a[i2] * ... * a[id]``, the rank-1
    building block of every tensor in this package.

    Parameters
    ----------
    a:
        Vector of length ``n``.
    d:
        Order, at least 2.

    Returns
    -------
    DenseSymTensor of order ``d`` and dimension ``n``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("a must be a nonempty 1-D vector")
    if d < 2:
        raise ValueError(f"order must be >= 2, got {d}")
    return _sum_outer_powers(a[:, None], np.ones(1), d)


def build_moment(obs: ObservationSet, d: int) -> DenseSymTensor:
    """Weighted d-th moment tensor ``sum_l nu_l * v_l^{outer d}`` of an observation set.

    Accumulation runs in a fixed sequential order over observations, so
    repeated calls are bit-identical and the result is exactly symmetric.
    """
    if d < 2:
        raise ValueError(f"order must be >= 2, got {d}")
    return _sum_outer_powers(obs.V, obs.nu, d)


def kruskal_to_dense(model: "SymKruskal") -> DenseSymTensor:
    """Expand a symmetric Kruskal model ``sum_j lam_j * a_j^{outer d}`` to dense form."""
    return _sum_outer_powers(model.A, model.lam, model.order)


def _sum_outer_powers(M: np.ndarray, w: np.ndarray, d: int) -> DenseSymTensor:
    """``sum_j w[j] * M[:, j]^{outer d}``, accumulated in column order."""
    n = M.shape[0]
    _check_cap(n, d)
    parts, inverse = _multiset_index(n, d)
    acc = np.zeros(parts.shape[1])
    for j in range(M.shape[1]):
        acc += w[j] * _multiset_products(M[:, j], parts)
    return DenseSymTensor(d, n, acc[inverse])


def inner(X: DenseSymTensor, Y: DenseSymTensor) -> float:
    """Tensor inner product: sum over all multiindices of elementwise products."""
    if X.order != Y.order or X.dim != Y.dim:
        raise ValueError(
            f"shape mismatch: ({X.order}, {X.dim}) vs ({Y.order}, {Y.dim})"
        )
    return float(np.dot(X.entries.ravel(), Y.entries.ravel()))


def ttsv_all_but_one(X: DenseSymTensor, a: np.ndarray) -> np.ndarray:
    """Contract ``X`` with the same vector in all modes but one.

    Component ``i`` of the result sums ``X[i, i2, ..., id] * a[i2] * ... * a[id]``
    over the remaining indices.  By symmetry it does not matter which mode is
    left out.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (X.dim,):
        raise ValueError(f"vector length {a.size} != tensor dim {X.dim}")
    out = X.entries
    for _ in range(X.order - 1):
        out = out @ a
    return out


def ttsv_batch_dense(X: DenseSymTensor, A: np.ndarray) -> np.ndarray:
    """:func:`ttsv_all_but_one` against every column of ``A``, in O(r n^d):
    the dense counterpart of ``momentcp.implicit.ttsv_batch``."""
    Y = np.empty_like(A)
    for j in range(A.shape[1]):
        Y[:, j] = ttsv_all_but_one(X, A[:, j])
    return Y


def ttsv_all(X: DenseSymTensor, a: np.ndarray) -> float:
    """Contract ``X`` with the same vector in all modes (scalar result)."""
    a = np.asarray(a, dtype=float)
    if a.shape != (X.dim,):
        raise ValueError(f"vector length {a.size} != tensor dim {X.dim}")
    return float(np.dot(ttsv_all_but_one(X, a), a))
