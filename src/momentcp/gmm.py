"""Spherical Gaussian mixtures, initialization strategies, and factor scoring.

Data generation produces mixtures with unit-norm, pairwise-correlated means
(a deliberately non-orthogonal test bed).  Initialization offers a plain
normalized-Gaussian guess and a range-finder guess ``A0 = V @ Omega`` that
keeps the starting factors inside the span of the data - which matters,
since a random guess in high dimension is nearly orthogonal to everything
and stalls the optimizer at tiny gradients.  The similarity score matches
estimated factor columns to true means by maximum absolute cosine over all
injective assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from momentcp.dense import ObservationSet


@dataclass
class ScoreResult:
    """Matched-cosine similarity between two factor matrices.

    ``matching`` holds ``(true_column, estimated_column)`` index pairs for
    the optimal injective assignment; ``score`` is the mean of their absolute
    cosines.
    """

    score: float
    matching: np.ndarray


def correlated_means(
    n: int, r: int, c: float, rng: np.random.Generator
) -> np.ndarray:
    """Unit-norm mean vectors with all pairwise inner products equal to ``c``.

    A random orthonormal basis is multiplied by the upper-triangular square
    root of the target Gram matrix (unit diagonal, off-diagonal ``c``), so
    the column geometry is exact up to roundoff.
    """
    if r > n:
        raise ValueError(f"need r <= n, got r={r}, n={n}")
    if not abs(c) < 1:
        raise ValueError(f"|c| must be < 1, got {c}")
    if r > 1 and c <= -1.0 / (r - 1):
        raise ValueError(
            f"Gram matrix not positive definite: need c > {-1.0 / (r - 1):.4g} for r={r}"
        )
    gram = np.full((r, r), c)
    np.fill_diagonal(gram, 1.0)
    upper = np.linalg.cholesky(gram).T
    basis, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return basis @ upper


def sample_gmm(
    means: np.ndarray, sigma: float, p: int, rng: np.random.Generator
) -> ObservationSet:
    """Draw ``p`` observations from the spherical mixture with the given means.

    Samples are divided proportionally across components and ordered by
    component (any remainder is assigned round-robin to the first
    components); weights are uniform.
    """
    means = np.asarray(means, dtype=float)
    n, r = means.shape
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    counts = np.full(r, p // r)
    counts[: p % r] += 1
    V = means[:, np.repeat(np.arange(r), counts)] + sigma * rng.standard_normal((n, p))
    return ObservationSet(V)


def rrf_init(
    obs: ObservationSet, r_hat: int, rng: np.random.Generator
) -> np.ndarray:
    """Range-finder initial guess: ``V @ Omega`` with Gaussian ``Omega``, columns normalized.

    Every column lies in the column space of the observations, so inner
    products with the data start at a useful magnitude instead of the
    near-zero values a random direction would give.
    """
    if r_hat < 1:
        raise ValueError(f"r_hat must be >= 1, got {r_hat}")
    omega = rng.standard_normal((obs.p, r_hat))
    A0 = obs.V @ omega
    norms = np.linalg.norm(A0, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("projection produced a zero column (is V zero?)")
    return A0 / norms


def gaussian_init(n: int, r_hat: int, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal initial guess with normalized columns."""
    if r_hat < 1:
        raise ValueError(f"r_hat must be >= 1, got {r_hat}")
    A0 = rng.standard_normal((n, r_hat))
    norms = np.linalg.norm(A0, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("degenerate zero column in random initialization")
    return A0 / norms


def similarity_score(A_true: np.ndarray, A_hat: np.ndarray) -> ScoreResult:
    """Mean absolute cosine between matched columns, maximized over injective matchings.

    Columns of both arguments are normalized first; the assignment of the
    smaller side into the larger is solved exactly (maximum-weight bipartite
    matching), and the score is the matched-cosine sum divided by
    ``min(r, r_hat)``.  The score is invariant under column permutations,
    sign flips, and positive rescaling of either argument.
    """
    A_true = np.asarray(A_true, dtype=float)
    A_hat = np.asarray(A_hat, dtype=float)
    if A_true.ndim != 2 or A_hat.ndim != 2 or A_true.shape[0] != A_hat.shape[0]:
        raise ValueError(
            f"factor matrices must share their row dimension, got "
            f"{A_true.shape} and {A_hat.shape}"
        )
    tn = np.linalg.norm(A_true, axis=0)
    hn = np.linalg.norm(A_hat, axis=0)
    if np.any(tn == 0.0) or np.any(hn == 0.0):
        raise ValueError("cannot score a zero column")
    cos = np.abs((A_true / tn).T @ (A_hat / hn))
    # imported here: scoring is the only use of scipy, and the fit path stays free of it
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cos, maximize=True)
    return ScoreResult(
        score=float(cos[rows, cols].sum() / min(cos.shape)),
        matching=np.stack([rows, cols], axis=1),
    )
