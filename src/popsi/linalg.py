"""Sparse subspace kernels: truncated SVD, orthogonal-complement projection, QR cleanup."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

ORTHO_TOL = 1e-10
RANK_REL_TOL = 1e-10
OVERSAMPLE = 10  # columns of the iterated block beyond the rank
POWER_ITERS = 4  # power steps before the stop rule is read
SVD_TOL = 1e-10  # projector movement of the leading r columns that counts as converged
MAX_ITERS = 60  # power steps at most


def _qr(Y, report: dict) -> tuple[np.ndarray | None, np.ndarray]:
    """Y = Q R (Q orthonormal, R upper triangular) for an array Y; R alone, with Q None,
    for the Y stacked from the row blocks that each call of a function Y() yields anew.

    Two CholeskyQR passes (Fukaya et al., ScalA 2014), each Q <- Q L^-T with
    L = chol(Q^T Q), where Q^T Q is summed over the row blocks: the second pass
    recomputes each block of the first pass's Q, so neither Y nor that Q is held
    whole. When a Cholesky fails or the first pass leaves Q^T Q far from I
    (cond(Y) beyond ~1e8), Householder QR of the whole Y instead, counted in
    report["qr_fallbacks"].
    """
    blocks = Y if callable(Y) else lambda: [Y]
    try:
        L = np.linalg.cholesky(sum(B.T @ B for B in blocks()))
        T = np.tril(np.linalg.inv(L)).T
        G = 0
        for Q in blocks():
            Q = Q @ T  # frees the block of Y: at most two blocks are held
            G = G + Q.T @ Q
        if np.linalg.norm(G - np.eye(len(G))) <= 0.5:
            L2 = np.linalg.cholesky(G)
            return (None if callable(Y) else Q @ np.tril(np.linalg.inv(L2)).T), L2.T @ L.T
    except np.linalg.LinAlgError:
        pass
    report["qr_fallbacks"] += 1
    whole = np.concatenate(list(blocks()))
    return (None, np.linalg.qr(whole, mode="r")) if callable(Y) else np.linalg.qr(whole)


def _power_step(A: sp.csr_matrix, At: sp.csr_matrix, Q: np.ndarray) -> np.ndarray:
    """A @ (At @ Q), 32 columns at a time so that At @ Q is never held whole; a
    sparse-dense product treats each column alone, so the result is bit-equal."""
    Y = np.empty((A.shape[0], Q.shape[1]))
    for j in range(0, Q.shape[1], 32):
        Y[:, j : j + 32] = A @ (At @ Q[:, j : j + 32])
    return Y


def truncated_svd_left(A: sp.spmatrix, r: int, seed: int = 0, log: dict | None = None) -> np.ndarray:
    """Orthonormal basis of the dominant-r left singular subspace of sparse A.

    Randomized subspace iteration (Halko, Martinsson & Tropp 2011, sec. 4.5):
    each power step applies A A^T and orthonormalizes only the short m x ell
    block. Steps continue past POWER_ITERS until the projector stops moving
    (SVD_TOL) or MAX_ITERS is hit. The Ritz step takes the R factor of A^T Q
    from its row blocks, each a quarter of a power step's 32-column chunk.
    Every QR is CholeskyQR2, with Householder QR for blocks too
    ill-conditioned for it. Deterministic for a fixed seed. When `log` is
    given it is filled with the iteration count, the stop reason, the final
    residual, the gap sigma_r / sigma_{r+1} (None when r = min(dims) or
    sigma_{r+1} = 0), the Householder fallbacks and the call's `seconds`.
    """
    start = time.perf_counter()
    m, n = A.shape
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank must be >= 1, got {r}" if r < 1 else
                         f"rank {r} exceeds min(dims) = {min(m, n)}")
    if A.nnz == 0:
        raise ValueError("matrix has no entries")

    rng = np.random.default_rng(seed)
    ell = min(r + OVERSAMPLE, min(m, n))
    A = A.tocsr()
    At = A.T.tocsr()
    report = {"qr_fallbacks": 0}  # blocks that took Householder QR

    Q, _ = _qr(A @ rng.standard_normal((n, ell)), report)
    residual = np.inf
    stalled = 0
    for it in range(1, MAX_ITERS + 1):
        Q_new, _ = _qr(_power_step(A, At, Q), report)
        prev = residual
        # projector movement of the leading r columns between iterations; first
        # read (as prev) at step POWER_ITERS
        if it >= POWER_ITERS - 1:
            lead = Q_new[:, :r]
            moved = Q[:, :r] @ (Q[:, :r].T @ lead)
            residual = np.linalg.norm(np.subtract(lead, moved, out=moved))
        Q = Q_new
        if it < POWER_ITERS:
            continue
        if residual <= SVD_TOL:
            stop = "converged"
            break
        # decay slower than 2x per step means the spectrum has no usable gap
        # at r; further power steps cannot meaningfully improve the basis
        stalled = stalled + 1 if residual > 0.5 * prev else 0
        if stalled >= 2:
            stop = "stalled"
            break
    else:
        raise RuntimeError(f"subspace iteration did not converge: residual {residual:.3e} "
                           f"after {MAX_ITERS} iterations")
    # Q^T A = R^T Z^T with Z orthonormal, so the left singular vectors of
    # Q^T A are those of the ell x ell factor R^T. A block holds at most n x 8
    # entries, so the two that CholeskyQR2 holds stay below a power step's chunk
    rows = max(1, 8 * n // ell)
    _, R = _qr(lambda: (At[i : i + rows] @ Q for i in range(0, n, rows)), report)
    Ub, s, _ = np.linalg.svd(R.T)
    basis = np.ascontiguousarray(Q @ Ub[:, :r])
    if log is not None:
        log.update(report, iterations=it, stop=stop, residual=float(residual),
                   sigma_gap=float(s[r - 1] / s[r]) if len(s) > r and s[r] > 0 else None,
                   seconds=time.perf_counter() - start)
    return basis


def project_out(H: np.ndarray, P: sp.spmatrix) -> np.ndarray:
    """H minus its projection onto range(P), for the sparse one-hot P of
    `build_popularity_features`: H - P (P^T P)^-1 P^T H, where P^T P is the
    diagonal of column counts. Empty columns of P are dropped first.
    """
    if P.shape[0] != H.shape[0]:
        raise ValueError(f"row mismatch: P has {P.shape[0]}, H has {H.shape[0]}")
    Pd = P.toarray()
    counts = Pd.sum(axis=0)
    Pd, counts = Pd[:, counts > 0], counts[counts > 0]
    return H - Pd @ ((Pd.T @ H) / counts[:, None])


def orthonormalize(H: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(H); numerically rank-deficient directions are dropped."""
    if H.ndim != 2 or H.shape[1] < 1:
        raise ValueError("H must have at least one column")
    U, s, _ = np.linalg.svd(H, full_matrices=False)
    if s.size == 0 or not s[0] > 0:  # s is NaN when H holds an inf or a NaN
        raise ValueError("cannot orthonormalize an all-zero or non-finite matrix")
    return np.ascontiguousarray(U[:, s > RANK_REL_TOL * s[0]])

