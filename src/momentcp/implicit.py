"""Matrix-free kernels over observation sets and symmetric Kruskal models.

Everything here works from the observation matrix ``V`` and weights ``nu``
(or from the model factors) alone; the dense moment tensor is never formed.
The identities these kernels rely on reduce tensor contractions to small
matrix products:

* batched TTSV:      ``Y = V @ diag(nu) @ (V.T @ A) ** (d-1)``
* model norm:        ``||M||^2 = lam.T @ (A.T @ A) ** d @ lam``
* data norm:         ``||X||^2 = nu.T @ (V.T @ V) ** d @ nu``
* data-model inner:  ``<X, M> = w.T @ lam`` with ``w_j = y_j.T @ a_j``
* compression:       the moment of ``U.T @ V`` is that of ``V`` contracted
  with ``U.T`` in every mode, so for an orthonormal ``U`` the objective at
  ``B`` on ``U.T @ V`` is the one at ``U @ B`` on ``V``
* unfolding:         ``Y = T @ KR_{d-1}(A)``, where ``T = V @ diag(nu) @
  KR_{d-1}(V).T`` is the moment's ``n x n^(d-1)`` mode-1 unfolding and
  ``KR_m`` the column-wise Kronecker power (:func:`kr_power`)

where ``**`` is the elementwise integer power.  Each kernel is verified
against its dense counterpart in the test suite.

When the rank ``r`` is small, both GEMMs of the TTSV are narrow and bound by
memory bandwidth, not arithmetic.  The TTSV therefore walks every ``V``, a
small one as a single block, in column blocks of about ``TTSV_BLOCK_BYTES``,
cut on each call from ``V``'s shape: each block goes through the forward
GEMM, the power and the back GEMM while it is still in cache, so ``V`` is
read from memory once per call, and the temporaries take ``O(B r)`` memory
for a block of ``B`` columns, not ``O(p r)``.  Each block's power is a new
array, scaled in place by the weights: a ``p x 1`` column, or the ``p x r``
array the evaluators hold, whose same-shape rows scale 2-4x faster at
small ``r``, with the same bits.  The data norm forms
``V.T @ V`` a row block at a time and, since it is symmetric, only the
blocks on and right of the diagonal.  The unfolding is summed over column
blocks of ``V`` too, so its ``n^(d-1) x B`` Kronecker powers stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from momentcp.dense import ObservationSet

NORM_BLOCK = 256  # rows of V'V per block in data_norm_sq; a few blocks live at once
# bytes of V per column block in _ttsv: a block and its B x r temporaries stay
# in a 2 MiB L2 cache; a V under twice this size is one block
TTSV_BLOCK_BYTES = 512 * 1024
MOMENT_BLOCK = 1024  # columns of V per block of the second moment in principal_basis
# columns of V per block in moment_unfolding: fewer make slow GEMMs at large
# n^(d-1) (a 512 KiB block took 183 ms against 76 at n=60, p=5000, d=3 on one
# thread of a 2-vCPU Xeon); the block's n^(d-1) x B Kronecker power is 2 KiB a row
UNFOLD_BLOCK = 256


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


def _elementwise_power(M: np.ndarray, k: int) -> np.ndarray:
    """Elementwise integer power by repeated multiplication (exact for small k)."""
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    if k == 0:
        return np.ones_like(M)
    out = M * M if k > 1 else M.copy()  # a new array, which callers scale in place
    for _ in range(k - 2):
        out *= M
    return out


def ttsv_batch(obs: ObservationSet, A: np.ndarray, d: int) -> np.ndarray:
    """All TTSVs of the weighted moment tensor against the columns of ``A``.

    Column ``j`` of the result equals the order-``d`` moment tensor of
    ``obs`` contracted with ``A[:, j]`` in all modes but one, computed in
    O(n p r) time as ``V @ diag(nu) @ (V.T @ A) ** (d-1)``, summed over
    column blocks of ``V`` (see :func:`_ttsv`), with O(n r + B r) memory
    besides ``V`` for blocks of ``B`` columns.
    """
    A = np.asarray(A, dtype=float)
    if d < 2:
        raise ValueError(f"order must be >= 2, got {d}")
    if A.ndim != 2 or A.shape[0] != obs.n:
        raise ValueError(f"A must be {obs.n} x r, got shape {A.shape}")
    return _ttsv(obs.V, obs.nu[:, None], A, d)


def _column_blocks(V: np.ndarray) -> list[slice]:
    """The column blocks of ``V`` that :func:`_ttsv` walks: ``k = min(p,
    max(1, V.nbytes // TTSV_BLOCK_BYTES))`` near-equal blocks cut at ``j * p // k``."""
    p = V.shape[1]
    k = min(p, max(1, V.nbytes // TTSV_BLOCK_BYTES))
    return [slice(j * p // k, (j + 1) * p // k) for j in range(k)]


def _ttsv(V: np.ndarray, W: np.ndarray, A: np.ndarray, d: int) -> np.ndarray:
    """The kernel of :func:`ttsv_batch` on arguments the caller has checked.

    ``W`` is the weights ``nu`` as a ``p x 1`` column or repeated as a
    ``p x r`` array.  ``V`` is split into the column blocks ``V_b`` of
    :func:`_column_blocks`, and ``Y = sum_b V_b @ (W_b * (V_b.T @ A) **
    (d-1))``: each block is read from memory once and reused from cache by
    the back GEMM, and the temporaries are ``B x r`` for a block of ``B``
    columns.  ``Y``'s bits depend on the split, and the split only on
    ``V``'s shape, so a call is deterministic.  A ``V`` under ``2 *
    TTSV_BLOCK_BYTES`` is one block, the view ``V[:, 0:p]`` with ``V``'s own
    strides, so its ``Y`` is the unblocked product's bit for bit.
    """
    Y = None
    for b in _column_blocks(V):
        Vb = V[:, b]
        P = _elementwise_power(Vb.T @ A, d - 1)
        P *= W[b]
        Yb = Vb @ P
        if Y is None:
            Y = Yb
        else:
            Y += Yb
    return Y


def kr_power(B: np.ndarray, m: int) -> np.ndarray:
    """The column-wise Kronecker power ``KR_m(B)`` of an ``n x r`` matrix:
    the ``n^m x r`` matrix whose column ``j`` is ``b_j (x) ... (x) b_j``
    (``m >= 1`` factors, the first varying slowest); ``KR_1(B)`` is ``B``."""
    out = B
    for _ in range(m - 1):
        out = (out[:, None, :] * B[None, :, :]).reshape(-1, B.shape[1])
    return out


def moment_unfolding(obs: ObservationSet, d: int) -> np.ndarray:
    """The mode-1 unfolding ``T = sum_l nu_l v_l (v_l^{(x)(d-1)})'`` of the
    order-``d`` moment of ``obs``, an ``n x n^(d-1)`` matrix with
    ``T @ kr_power(A, d - 1) == ttsv_batch(obs, A, d)`` up to rounding.

    Made in O(p n^d) time by GEMMs over blocks ``V_b`` of ``UNFOLD_BLOCK``
    columns, ``T = sum_b (V_b diag(nu_b)) KR_{d-1}(V_b)'``, in
    O(n^d + n^(d-1) B) memory for blocks of ``B`` columns.  Where
    ``n^(d-1) <= p``, ``T`` has no more entries than ``V`` and a TTSV from it
    costs O(n^d r), against the matrix-free O(p n r).
    """
    if d < 2:
        raise ValueError(f"order must be >= 2, got {d}")
    V, nu = obs.V, obs.nu
    T = np.zeros((obs.n, obs.n ** (d - 1)))
    for i in range(0, obs.p, UNFOLD_BLOCK):
        b = slice(i, i + UNFOLD_BLOCK)
        T += (V[:, b] * nu[b]) @ kr_power(V[:, b], d - 1).T
    return T


def kruskal_norm_sq(model: SymKruskal) -> float:
    """Squared norm of a symmetric Kruskal tensor in O(n r^2)."""
    G = _elementwise_power(model.A.T @ model.A, model.order)
    return float(model.lam @ G @ model.lam)


def data_norm_sq(obs: ObservationSet, d: int) -> float:
    """Squared norm of the order-``d`` weighted moment tensor in O(n p^2) time
    and O(NORM_BLOCK p) memory.

    ``V.T @ V`` is formed a row block at a time, and only its upper block
    triangle: row block ``i`` forms ``V_i.T @ V[:, i:]``, whose diagonal block
    counts once and the rest twice, by the symmetry of ``V.T @ V``.  That
    halves the flops of forming ``V.T @ V``.
    """
    if d < 2:
        raise ValueError(f"order must be >= 2, got {d}")
    V, nu = obs.V, obs.nu
    total = 0.0
    for i in range(0, obs.p, NORM_BLOCK):
        b = slice(i, i + NORM_BLOCK)
        G = _elementwise_power(V[:, b].T @ V[:, i:], d)
        B = G.shape[0]
        total += float(nu[b] @ G[:, :B] @ nu[b])
        total += 2.0 * float(nu[b] @ G[:, B:] @ nu[i + B :])
    return total


def principal_basis(obs: ObservationSet, k: int) -> np.ndarray:
    """Orthonormal ``n x min(k, n, p)`` basis of the top-``k`` eigenvectors of
    the weighted second moment ``S = V diag(nu) V'``, in descending order.

    For ``n <= p``, ``S`` is summed over ``MOMENT_BLOCK``-column blocks
    ``W = V_b diag(nu_b)^(1/2)`` as ``W @ W.T`` (a syrk), so the temporaries
    are ``n x MOMENT_BLOCK`` and ``n x n``.  For ``n > p`` the basis comes
    from the ``p x p`` side: the top eigenvectors ``z`` of
    ``diag(nu)^(1/2) V'V diag(nu)^(1/2)`` map to ``V diag(nu)^(1/2) z``,
    orthonormalized by QR, so no ``n x n`` array is made.  Columns beyond
    the rank of ``V`` span an arbitrary orthonormal complement.
    """
    if k < 1:
        raise ValueError(f"basis size must be >= 1, got {k}")
    V, root = obs.V, np.sqrt(obs.nu)
    n, p = V.shape
    if n <= p:
        S = np.zeros((n, n))
        for i in range(0, p, MOMENT_BLOCK):
            W = V[:, i : i + MOMENT_BLOCK] * root[i : i + MOMENT_BLOCK]
            S += W @ W.T
        return np.linalg.eigh(S)[1][:, ::-1][:, :k].copy()
    Z = np.linalg.eigh((V.T @ V) * np.outer(root, root))[1][:, ::-1][:, :k]
    return np.linalg.qr(V @ (Z * root[:, None]))[0]


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

