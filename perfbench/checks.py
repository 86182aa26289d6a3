"""Correctness checks on fitted models, written without momentcp's code.

The objective, its gradient, the data norm and the dense moment tensor are
computed here from the observations alone, so a fault in momentcp's kernels
cannot also hide in the check.  Every check returns ``(ok, detail)``;
``selftest.py`` shows that each one fails on a wrong answer.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

# agreement between a reported objective and its recomputation, relative to
# the largest term of the objective
F_RTOL = 1e-9


def gram_objective(V, nu, lam, A, d, alpha=0.0):
    """``(f, g_lam, g_A, scale, g_scale)`` of ``alpha + ||M||^2 - 2 <X, M>``
    from the Gram identities.

    ``X`` is the weighted order-``d`` moment of the columns of ``V`` and
    ``M = sum_j lam_j a_j^(outer d)``.  ``scale`` and ``g_scale`` are the
    magnitudes of the largest terms of ``f`` and of a gradient entry, the
    yardsticks for rounding.
    """
    G = V.T @ A  # (v_l' a_j)
    Gd1 = np.power(G, d - 1)
    data_term = np.einsum("l,lj,lj->j", nu, Gd1, G)  # <X, a_j^(outer d)>
    Y = V @ (Gd1 * nu[:, None])  # X contracted with a_j in all modes but one
    H = np.power(A.T @ A, d - 1)
    model_term = (H * (A.T @ A)) @ lam  # <M, a_j^(outer d)>
    f = alpha + lam @ model_term - 2.0 * data_term @ lam
    g_lam = 2.0 * (model_term - data_term)
    g_A = 2.0 * d * (A @ (H * lam[:, None]) - Y) * lam[None, :]
    scale = abs(alpha) + abs(lam @ model_term) + 2.0 * abs(data_term @ lam)
    g_terms = np.abs(A) @ np.abs(H * lam[:, None]) + np.abs(V) @ np.abs(Gd1 * nu[:, None])
    g_scale = 2.0 * d * float((g_terms * np.abs(lam)[None, :]).max())
    return float(f), g_lam, g_A, float(scale), g_scale


def data_norm_sq(V, nu, d, block=256):
    """``||X||^2 = sum_lm nu_l nu_m (v_l' v_m)^d``, one ``block x p`` row strip at a time.

    Only the strips' parts on and right of the diagonal are formed; by
    symmetry the part right of the diagonal block counts twice.
    """
    total = 0.0
    for i in range(0, V.shape[1], block):
        b = min(block, V.shape[1] - i)
        rows = nu[i:i + b] @ np.power(V[:, i:i + b].T @ V[:, i:], d)
        total += float(rows[:b] @ nu[i:i + b]) + 2.0 * float(rows[b:] @ nu[i + b:])
    return total


def dense_tensor(F, weights, d):
    """``sum_l weights_l f_l^(outer d)`` as a dense ``n^d`` array.

    Built as ``K1 diag(weights) K2'`` with ``K1``, ``K2`` the column-wise
    Kronecker products of the first ``d - d//2`` and the last ``d//2`` modes,
    each formed with einsum, so the contraction over ``l`` runs in one GEMM.
    """
    def khatri_rao(k):
        out = F
        for _ in range(k - 1):
            out = np.einsum("il,jl->ijl", out, F).reshape(-1, F.shape[1])
        return out

    left, right = khatri_rao(d - d // 2), khatri_rao(d // 2)
    return ((left * weights) @ right.T).reshape((F.shape[0],) * d)


def recovery_score(means, A):
    """Mean absolute cosine between true means and fitted columns, matched one to one."""
    Mn = means / np.linalg.norm(means, axis=0)
    An = A / np.linalg.norm(A, axis=0)
    cos = np.abs(Mn.T @ An)
    rows, cols = linear_sum_assignment(cos, maximize=True)
    return float(cos[rows, cols].sum() / min(cos.shape))


def check_recovery(means, A, threshold):
    score = recovery_score(means, A)
    return score >= threshold, f"recovery score {score:.6f} (>= {threshold})", score


def check_stationary(V, nu, lam, A, d, f_reported, grad_reported, pgtol=None, alpha=0.0):
    """At ``(lam, A)``, ``f_reported`` and ``grad_reported`` (the gradient's
    infinity norm) are what the recomputation gives, and that norm is within
    ``pgtol`` when the run stopped on it."""
    f, g_lam, g_A, scale, g_scale = gram_objective(V, nu, lam, A, d, alpha)
    g_inf = max(float(np.abs(g_lam).max()), float(np.abs(g_A).max()))
    ok = (abs(f - f_reported) <= F_RTOL * scale
          and abs(g_inf - grad_reported) <= F_RTOL * g_scale
          and (pgtol is None or g_inf <= pgtol * (1.0 + 1e-6)))
    return ok, (
        f"recomputed gradient inf-norm {g_inf:.6e} (reported {grad_reported:.6e}"
        + ("" if pgtol is None else f", <= {pgtol:g}")
        + f"); f {f_reported!r} vs recomputed {f!r}"
    )


def check_dense(X_dense, lam, A, d, f_reported):
    """``f_reported`` equals ``||M||^2 - 2 <X, M>`` evaluated on dense tensors."""
    M = dense_tensor(A, lam, d)
    f = float(np.vdot(M, M) - 2.0 * np.vdot(X_dense, M))
    scale = float(np.vdot(M, M)) + 2.0 * abs(float(np.vdot(X_dense, M)))
    return abs(f - f_reported) <= F_RTOL * scale, f"f {f_reported!r} vs dense {f!r}"


def check_exact_residual(V, nu, lam, A, d, final_f, alpha, truth_f):
    """``final_f`` is ``||X - M||^2``: non-negative, equal to the recomputation,
    and no larger than the residual of the true mixture, which is set by the
    noise level (``truth_f``)."""
    f, _, _, scale, _ = gram_objective(V, nu, lam, A, d, alpha)
    ok = final_f >= 0.0 and abs(f - final_f) <= F_RTOL * scale and final_f <= truth_f
    rel, rel_truth = np.sqrt(max(final_f, 0.0) / alpha), np.sqrt(truth_f / alpha)
    return ok, (
        f"final_f {final_f!r} vs recomputed {f!r}; relative error {rel:.4e} "
        f"(true mixture {rel_truth:.4e})"
    )
