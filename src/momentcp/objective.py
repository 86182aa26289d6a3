"""Function and gradient evaluation for the symmetric CP least-squares fit.

The objective is ``f(lam, A) = alpha + ||M||^2 - 2 <X, M>`` where
``M = sum_j lam_j a_j^{outer d}``.  With ``alpha = ||X||^2`` this is exactly
the squared error ``||X - M||^2``; with the default ``alpha = 0`` it is the
same function shifted by a constant, which leaves the gradients (and hence
any optimizer trajectory) untouched while avoiding the cost of the data
norm.

Every route shares one algebraic tail and differs only in how the TTSV
matrix ``Y`` is produced: from a dense tensor (explicit, the oracle), from
the observation matrix (implicit), from the moment's mode-1 unfolding
(small compressed data, :func:`packed_fg_compressed`), or from a random
subsample of observations (stochastic, an unbiased estimator of the
implicit route).
The solvers call one packed evaluator, :func:`packed_fg`, which checks the
problem once when it is built and then only that each point is finite;
:func:`fg_explicit` and :func:`fg_implicit` build it for one point and
return its value and gradient blocks as an :class:`FgResult`.  The
matrix-free one, :func:`packed_fg_implicit`, makes ``V``'s TTSV blocks and
the weights in the blocks' ``p x r`` shape once, when it is built.

For fixed ``A`` the objective is quadratic in ``lam``, minimized by
``lam* = G^{-1} w`` with ``G = (A'A)^d`` (elementwise) and ``w_j = a_j'y_j``,
solved by ``G``'s Cholesky factor.
The packed evaluator also has a reduced route over ``A`` alone (variable
projection): ``f(lam*(A), A)`` and, by the envelope theorem, ``g_A`` at
``(lam*, A)``.  L-BFGS minimizes it, one evaluation per line-search
trial; Adam, whose sampled ``lam`` gradients must stay unbiased, keeps the
full ``(lam, A)`` route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg as _gufunc  # np.linalg's LAPACK gufuncs

from momentcp.dense import DenseSymTensor, ObservationSet, _cholesky, ttsv_batch_dense
from momentcp.implicit import (
    _column_blocks, _elementwise_power, _ttsv, kr_power, moment_unfolding, ttsv_batch,
)

FgCallback = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class FgResult:
    """Objective value and gradients at one point ``(lam, A)``."""

    f: float
    g_lam: np.ndarray
    g_A: np.ndarray


def _finish(Y: np.ndarray, lam: np.ndarray | None, A: np.ndarray, d: int, alpha: float) -> tuple:
    """``(lam, f, pack(g_lam, g_A))`` from the TTSVs ``Y`` through the
    ``r x r`` Gram tail ``f = alpha + lam.T @ G @ lam - 2 w.T @ lam``, whose
    ``||M||^2 = lam.T @ G @ lam`` and ``<X, M> = w.T @ lam``, with
    ``w_j = a_j'y_j``, ``C = (A'A)^(d-1)`` and ``G = (A'A) * C``, which is
    ``(A'A)^d`` bit for bit.  With ``lam=None`` the weights are
    ``lam* = G^{-1} w``."""
    n, r = A.shape
    w = np.einsum("ij,ij->j", A, Y)  # w_j = a_j.T y_j, as in model_data_inner
    G = A.T @ A
    C = _elementwise_power(G, d - 1)  # a new array, so G is scaled in place
    G *= C
    if lam is None:
        lam = _lam_star(G, w)
    u = G @ lam
    f = alpha + float(lam @ u) - 2.0 * float(w @ lam)
    g = np.empty(r + n * r)  # both gradient blocks are written into their packed slots
    np.multiply(-2.0, np.subtract(w, u, out=u), out=g[:r])
    E = (A * lam) @ C
    np.subtract(Y, E, out=E)
    E *= -2.0 * d
    np.multiply(E, lam, out=g[r:].reshape((n, r), order="F"))
    return lam, f, g


def _lam_star(G: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``lam* = G^{-1} w`` for the positive semidefinite ``G = (A'A)^d``.

    Cholesky while every pivot keeps more than ``sqrt(eps)`` of its diagonal
    entry; otherwise ``G`` is singular to working precision (duplicate or
    zero columns, ``r`` above the dimension of the symmetric tensors) and the
    minimum-norm least-squares solution, which gives the same ``f``, is taken.
    An overflowed ``G`` or ``w`` gives NaN weights, hence a non-finite ``f``,
    which ends an L-BFGS run at its last finite iterate.  The factor's two
    solves call ``np.linalg.solve``'s gufunc directly (see :func:`_cholesky`).
    """
    if not (np.isfinite(G).all() and np.isfinite(w).all()):
        return np.full_like(w, np.nan)
    L = _cholesky(G)
    if L is not None:
        with np.errstate(all="ignore"):  # L is nonsingular; an overflow gives NaN weights
            return _gufunc.solve1(L.T, _gufunc.solve1(L, w, signature="dd->d"), signature="dd->d")
    return np.linalg.lstsq(G, w, rcond=None)[0]


def lift_direction(
    x: np.ndarray, g: np.ndarray, shape: tuple[int, int], d: int
) -> np.ndarray | None:
    """The Gauss-Newton direction off ``range(U)`` at a lift ``A = U B``.

    At ``x = pack(lam, A)`` the model-only Gauss-Newton matrix ``J'J`` of
    ``M = sum_j lam_j a_j^{outer d}`` has, on the directions orthogonal to
    ``range(A)``, the block ``K (x) I_n`` with the ``r x r`` matrix
    ``K = d (lam lam') * (A'A)^(d-1)`` (elementwise), and no cross terms
    with ``lam`` or ``range(A)``.  A lift's ``A`` lies in ``range(U)``, so
    on the directions orthogonal to ``U`` the Gauss-Newton step for the
    objective's ``2 J'J`` is exactly ``-1/2 G_A K^{-1}``, with ``G_A`` the
    ``A`` block of ``g``: one ``r x r`` Cholesky solve and no pass over the
    data.  Returns that direction packed with its ``lam`` slots 0, or
    ``None`` when ``K`` is not finite or not positive definite to working
    precision (a zero weight, duplicate columns).
    """
    n, r = shape
    lam, A = x[:r], x[r:].reshape((n, r), order="F")
    K = d * np.outer(lam, lam) * _elementwise_power(A.T @ A, d - 1)
    L = _cholesky(K) if np.isfinite(K).all() else None
    if L is None:
        return None
    G_A = g[r:].reshape((n, r), order="F")
    GK = np.linalg.solve(L.T, np.linalg.solve(L, G_A.T)).T  # G_A K^{-1}, K = L L'
    return np.concatenate([np.zeros(r), -0.5 * GK.ravel(order="F")])


def fg_explicit(
    X: DenseSymTensor, lam: np.ndarray, A: np.ndarray, alpha: float = 0.0
) -> FgResult:
    """Objective and gradients computed against a dense data tensor.

    The TTSVs cost O(r n^d); everything else is O(n r^2).  Serves as the
    reference route for :func:`fg_implicit`.
    """
    return _at_point(lambda B: ttsv_batch_dense(X, B), X.dim, X.order, lam, A, alpha)


def fg_implicit(
    obs: ObservationSet,
    lam: np.ndarray,
    A: np.ndarray,
    d: int,
    alpha: float = 0.0,
) -> FgResult:
    """Objective and gradients computed from ``(V, nu)`` alone, in O(p n r + n r^2).

    Identical contract to :func:`fg_explicit` with ``X = build_moment(obs, d)``,
    but no object of size n^d is ever formed.
    """
    return _at_point(lambda B: ttsv_batch(obs, B, d), obs.n, d, lam, A, alpha)


def _at_point(
    ttsv: Callable[[np.ndarray], np.ndarray], n: int, d: int,
    lam: np.ndarray, A: np.ndarray, alpha: float,
) -> FgResult:
    """:func:`packed_fg`, with its checks, at ``pack(lam, A)``, as an
    :class:`FgResult` whose gradients view the packed one."""
    x = pack(lam, A)  # checks that A is a matrix with one column per weight
    if np.shape(A)[0] != n:
        raise ValueError(f"A must have {n} rows, got shape {np.shape(A)}")
    r = np.size(lam)
    f, g = packed_fg(ttsv, n, r, d, alpha)(x)
    return FgResult(f, g[:r], g[r:].reshape((n, r), order="F"))


def pack(lam: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Flatten ``(lam, A)`` into one vector: lam first, then A column-major."""
    lam = np.asarray(lam, dtype=float)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or lam.ndim != 1 or A.shape[1] != lam.size:
        raise ValueError(f"inconsistent shapes: lam {lam.shape}, A {A.shape}")
    return np.concatenate([lam, A.ravel(order="F")])


def unpack(x: np.ndarray, n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack` for an ``n x r`` factor matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape != (r + n * r,):
        raise ValueError(f"expected packed length {r + n * r}, got {x.shape}")
    return x[:r].copy(), x[r:].reshape((n, r), order="F").copy()


def _factor(x: np.ndarray, n: int, r: int) -> np.ndarray:
    """The factor matrix of the finite packed point ``x``, copied C-contiguous
    as :func:`unpack` does: the GEMMs' bits depend on the layout."""
    # fail fast rather than letting NaN leak into a line search
    if not np.isfinite(x).all():
        raise ValueError("model variables must be finite")
    return x[r:].reshape((n, r), order="F").copy()


def packed_fg(
    ttsv: Callable[[np.ndarray], np.ndarray], n: int, r: int, d: int, alpha: float = 0.0
) -> FgCallback:
    """The objective as a callback ``x -> (f, pack(g_lam, g_A))`` on the float
    vector ``x = pack(lam, A)``, where ``ttsv(A)`` makes ``Y`` for an ``n x r``
    factor matrix.  The problem is checked here, once; a call raises
    ``ValueError`` on a non-finite ``x``, gives the per-point route's bits,
    makes ``Y``, ``A'A``, its powers and ``w`` once (:func:`_finish`) and
    returns a fresh packed gradient.  The reduced route ignores ``x``'s ``lam``:
    ``fg.project(x)`` gives ``(pack(lam*, A), f, gradient)`` at the optimal
    weights ``lam* = G^{-1} w``, and :func:`~momentcp.optimize.lbfgs_minimize`
    evaluates it once at every line-search trial.  ``fg.alpha`` is ``alpha``:
    on the reduced route ``G lam* = w``, so ``|alpha| + 3 |f - alpha|`` is
    ``f``'s rounding scale ``|alpha| + lam*'G lam* + 2 |w'lam*|``, which the
    search's stall test reads.
    """
    if min(n, r) < 1 or d < 2 or not np.isfinite(alpha):
        raise ValueError(f"need n, r >= 1, d >= 2 and a finite alpha, got {n}, {r}, {d}, {alpha}")

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        A = _factor(x, n, r)
        _, f, g = _finish(ttsv(A), x[:r], A, d, alpha)
        return f, g

    def project(x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        A = _factor(x, n, r)
        lam, f, g = _finish(ttsv(A), None, A, d, alpha)
        return np.concatenate([lam, x[r:]]), f, g

    fg.project, fg.alpha = project, alpha
    return fg


def packed_fg_implicit(
    obs: ObservationSet, d: int, r: int, alpha: float = 0.0
) -> FgCallback:
    """:func:`packed_fg` on the matrix-free TTSVs of ``obs``: every
    evaluation is one pass over ``V`` (:func:`~momentcp.implicit._ttsv`),
    with ``V``'s column blocks and the weights in the blocks' ``p x r``
    shape made here, once."""
    V, blocks = obs.V, _column_blocks(obs.V)
    W = np.repeat(obs.nu, r).reshape(obs.p, r)  # the weights in the TTSV blocks' shape
    return packed_fg(lambda A: _ttsv(V, W, A, d, blocks), obs.n, r, d, alpha)


def packed_fg_compressed(
    obs: ObservationSet, d: int, r: int, alpha: float = 0.0
) -> FgCallback:
    """The evaluator of ``cli.fit``'s subspace stage on the compressed data
    ``obs``, its route chosen by flop count.

    Where ``n^(d-1) <= p`` it is :func:`packed_fg` on ``T @ KR_{d-1}(A)``,
    with the unfolding ``T`` (:func:`~momentcp.implicit.moment_unfolding`)
    made here, once, in O(p n^d): a TTSV then costs O(n^d r) and reads no
    ``V``.  Otherwise it is :func:`packed_fg_implicit`, at O(p n r) a TTSV.
    """
    if obs.n ** (d - 1) > obs.p:
        return packed_fg_implicit(obs, d, r, alpha)
    T = moment_unfolding(obs, d)
    return packed_fg(lambda A: T @ kr_power(A, d - 1), obs.n, r, d, alpha)


def sample_observations(
    obs: ObservationSet, s: int, rng: np.random.Generator
) -> ObservationSet:
    """Draw ``s`` observations uniformly with replacement, reweighted to ``1/s``.

    The moment tensor of the sample is an unbiased estimator of the moment
    tensor of ``obs``, so feeding the result to :func:`fg_implicit` yields
    unbiased stochastic gradients.  Only uniformly weighted inputs are
    supported; resampling under general weights is out of scope here.
    """
    if s < 1:
        raise ValueError(f"sample size must be >= 1, got {s}")
    if not obs.has_uniform_weights():
        raise ValueError("sampling requires uniform observation weights")
    return ObservationSet(obs.V[:, rng.integers(0, obs.p, size=s)])
