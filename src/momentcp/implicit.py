"""Matrix-free kernels over observation sets and symmetric Kruskal models.

Everything here works from the observation matrix ``V`` and weights ``nu``
(or from the model factors) alone; the dense moment tensor is never formed.
The identities these kernels rely on reduce tensor contractions to small
matrix products:

* batched TTSV:      ``Y = V @ diag(nu) @ (V.T @ A) ** (d-1)``
* model norm:        ``||M||^2 = lam.T @ (A.T @ A) ** d @ lam``
* data norm:         ``||X||^2 = nu.T @ (V.T @ V) ** d @ nu``
* data-model inner:  ``<X, M> = w.T @ lam`` with ``w_j = y_j.T @ a_j``

where ``**`` is the elementwise integer power.  Each kernel is verified
against its dense counterpart in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from momentcp.dense import ObservationSet

NORM_BLOCK = 256  # rows of V'V per block in data_norm_sq; a few blocks live at once


@dataclass
class SymKruskal:
    """Symmetric Kruskal model: ``M = sum_j lam[j] * A[:, j]^{outer d}``.

    ``lam`` may carry any sign, and columns of ``A`` are not normalized at
    rest; normalization, where needed, is an operation on the side.
    """

    order: int
    lam: np.ndarray
    A: np.ndarray

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        self.lam = np.asarray(self.lam, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        if self.lam.ndim != 1 or self.lam.size < 1:
            raise ValueError("lam must be a nonempty 1-D vector")
        if self.A.ndim != 2 or self.A.shape[0] < 1:
            raise ValueError("A must be a 2-D matrix with at least one row")
        if self.A.shape[1] != self.lam.size:
            raise ValueError(
                f"A has {self.A.shape[1]} columns but lam has length {self.lam.size}"
            )
        if not (np.isfinite(self.lam).all() and np.isfinite(self.A).all()):
            raise ValueError("model variables must be finite")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def rank(self) -> int:
        return self.lam.size

    def norm_sq(self) -> float:
        return kruskal_norm_sq(self)


def _elementwise_power(M: np.ndarray, k: int) -> np.ndarray:
    """Elementwise integer power by repeated multiplication (exact for small k)."""
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    if k == 0:
        return np.ones_like(M)
    out = M.copy()
    for _ in range(k - 1):
        out *= M
    return out


def ttsv_batch(obs: ObservationSet, A: np.ndarray, d: int) -> np.ndarray:
    """All TTSVs of the weighted moment tensor against the columns of ``A``.

    Column ``j`` of the result equals the order-``d`` moment tensor of
    ``obs`` contracted with ``A[:, j]`` in all modes but one, computed in
    O(n p r) as ``V @ diag(nu) @ (V.T @ A) ** (d-1)``.
    """
    A = np.asarray(A, dtype=float)
    if d < 2:
        raise ValueError(f"order must be >= 2, got {d}")
    if A.ndim != 2 or A.shape[0] != obs.n:
        raise ValueError(f"A must be {obs.n} x r, got shape {A.shape}")
    return _ttsv(obs.V, obs.nu, A, d)


def _ttsv(V: np.ndarray, nu: np.ndarray, A: np.ndarray, d: int) -> np.ndarray:
    """The kernel of :func:`ttsv_batch` on arguments the caller has checked."""
    return V @ (nu[:, None] * _elementwise_power(V.T @ A, d - 1))


def kruskal_norm_sq(model: SymKruskal) -> float:
    """Squared norm of a symmetric Kruskal tensor in O(n r^2)."""
    G = _elementwise_power(model.A.T @ model.A, model.order)
    return float(model.lam @ G @ model.lam)


def data_norm_sq(obs: ObservationSet, d: int) -> float:
    """Squared norm of the order-``d`` weighted moment tensor in O(n p^2) time
    and O(NORM_BLOCK p) memory: ``V.T @ V`` is formed a row block at a time."""
    if d < 2:
        raise ValueError(f"order must be >= 2, got {d}")
    V, nu = obs.V, obs.nu
    total = 0.0
    for i in range(0, obs.p, NORM_BLOCK):
        G = _elementwise_power(V[:, i : i + NORM_BLOCK].T @ V, d)
        total += float(nu[i : i + NORM_BLOCK] @ G @ nu)
    return total


def model_data_inner(
    Y: np.ndarray, A: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, float]:
    """Per-component contractions ``w_j = a_j.T y_j`` and their weighted sum.

    When ``Y`` comes from :func:`ttsv_batch`, the returned value is the inner
    product between the data tensor and the model.
    """
    Y = np.asarray(Y, dtype=float)
    A = np.asarray(A, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if Y.shape != A.shape:
        raise ValueError(f"Y shape {Y.shape} != A shape {A.shape}")
    if lam.shape != (A.shape[1],):
        raise ValueError(f"lam must have length {A.shape[1]}, got {lam.shape}")
    w = np.einsum("ij,ij->j", A, Y)
    return w, float(w @ lam)

