"""Sparse subspace kernels: truncated SVD, orthogonal-complement projection, QR cleanup."""

from __future__ import annotations

import time
from contextlib import contextmanager
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
GRAM_GAP = 1e-6  # (lambda_r - lambda_{r+1}) / lambda_1 of the Ritz Gram at or below which TSQR runs


@contextmanager
def _timed(seconds: dict, name: str):
    """Add the wall time of the `with` body to seconds[name]."""
    start = time.perf_counter()
    yield
    seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start


def _qr(Y: np.ndarray, report: dict) -> np.ndarray:
    """Orthonormal Q of Y = Q R (R upper triangular).

    Two CholeskyQR passes (Fukaya et al., ScalA 2014), each Q <- Q L^-T with
    L = chol(Q^T Q). When a Cholesky fails or the first pass leaves Q^T Q far
    from I (cond(Y) beyond ~1e8), Householder QR instead, counted in
    report["qr_fallbacks"].
    """
    try:
        Q = Y @ np.tril(np.linalg.inv(np.linalg.cholesky(Y.T @ Y))).T
        G = Q.T @ Q
        if np.linalg.norm(G - np.eye(len(G))) <= 0.5:
            return Q @ np.tril(np.linalg.inv(np.linalg.cholesky(G))).T
    except np.linalg.LinAlgError:
        pass
    report["qr_fallbacks"] += 1
    return np.linalg.qr(Y)[0]


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
    (SVD_TOL) or MAX_ITERS is hit; each of their QRs is CholeskyQR2, with
    Householder QR for blocks too ill-conditioned for it. The Ritz step reads A^T Q
    once, in row blocks of n x 8 entries, and takes the eigenvectors of their summed
    Gram, or, when its r-th gap is below GRAM_GAP * lambda_1, the left singular vectors
    of R^T for the R of a Householder TSQR of the blocks. Deterministic for a fixed
    seed. When `log` is given it is filled with the iteration count, the stop reason,
    the final residual, the gap sigma_r / sigma_{r+1} (None when r = min(dims) or
    sigma_{r+1} = 0), the Householder fallbacks and the call's `seconds`.
    """
    report = {"qr_fallbacks": 0}  # QRs and Ritz steps that took Householder
    with _timed(report, "seconds"):
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

        Q = _qr(A @ rng.standard_normal((n, ell)), report)
        residual = np.inf
        stalled = 0
        for it in range(1, MAX_ITERS + 1):
            Q_new = _qr(_power_step(A, At, Q), report)
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
        # Q^T A = Z^T: its left singular vectors are the eigenvectors of the Gram Z^T Z, summed
        # over row blocks of at most n x 8 entries. Rounding moves the Gram by ~eps * lambda_1, so
        # a narrower r-th gap takes R from a Householder TSQR of the blocks (Demmel et al. 2012)
        rows = max(1, 8 * n // ell)
        blocks = lambda: (At[i : i + rows] @ Q for i in range(0, n, rows))
        lam, Ub = np.linalg.eigh(sum(Z.T @ Z for Z in blocks()))
        lam, Ub = lam[::-1], Ub[:, ::-1]
        s = np.sqrt(np.maximum(lam, 0))
        if lam[r - 1] - (lam[r] if ell > r else 0) <= GRAM_GAP * lam[0]:
            report["qr_fallbacks"] += 1
            R = np.concatenate([np.linalg.qr(Z, mode="r") for Z in blocks()])
            Ub, s, _ = np.linalg.svd(np.linalg.qr(R, mode="r").T)
        basis = np.ascontiguousarray(Q @ Ub[:, :r])
    if log is not None:
        log.update(report, iterations=it, stop=stop, residual=float(residual),
                   sigma_gap=float(s[r - 1] / s[r]) if len(s) > r and s[r] > 0 else None)
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

