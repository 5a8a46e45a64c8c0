"""Sparse subspace kernels: truncated SVD, orthogonal-complement projection, QR cleanup."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

ORTHO_TOL = 1e-10
RANK_REL_TOL = 1e-10


class SvdConvergenceError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"subspace iteration did not converge: residual {residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SvdOptions:
    rank: int
    oversample: int = 10
    power_iters: int = 4
    rng_seed: int = 0
    tol: float = 1e-10
    max_iters: int = 60

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.oversample < 0:
            raise ValueError("oversample must be >= 0")


def truncated_svd_left(A: sp.spmatrix, opts: SvdOptions, log: dict | None = None) -> np.ndarray:
    """Orthonormal basis of the dominant-r left singular subspace of sparse A.

    Randomized subspace iteration (Halko, Martinsson & Tropp 2011, sec. 4.5):
    each power step applies A A^T and orthonormalizes only the short m x ell
    block. Steps continue past `power_iters` until the projector stops moving
    (opts.tol) or `max_iters` is hit. Deterministic for a fixed seed. When
    `log` is given it is filled with the iteration count, the stop reason,
    the final residual and the gap sigma_r / sigma_{r+1} (None when ell = r
    or sigma_{r+1} = 0).
    """
    m, n = A.shape
    r = opts.rank
    if r > min(m, n):
        raise ValueError(f"rank {r} exceeds min(dims) = {min(m, n)}")
    if A.nnz == 0:
        raise ValueError("matrix has no entries")

    rng = np.random.default_rng(opts.rng_seed)
    ell = min(r + opts.oversample, min(m, n))
    A = A.tocsr()
    At = A.T.tocsr()

    G = rng.standard_normal((n, ell))
    Q, _ = np.linalg.qr(A @ G)
    residual = np.inf
    stalled = 0
    for it in range(1, opts.max_iters + 1):
        Q_new, _ = np.linalg.qr(A @ (At @ Q))
        # projector movement of the leading r columns between iterations
        lead = Q_new[:, :r]
        prev = residual
        residual = np.linalg.norm(lead - Q[:, :r] @ (Q[:, :r].T @ lead))
        Q = Q_new
        if it < opts.power_iters:
            continue
        if residual <= opts.tol:
            stop = "converged"
            break
        # decay slower than 2x per step means the spectrum has no usable gap
        # at r; further power steps cannot meaningfully improve the basis
        stalled = stalled + 1 if residual > 0.5 * prev else 0
        if stalled >= 2:
            stop = "stalled"
            break
    else:
        raise SvdConvergenceError(residual, opts.max_iters)

    # Rayleigh-Ritz: Q^T A = R^T Z^T with Z orthonormal, so the left singular
    # vectors of Q^T A are those of the ell x ell factor R^T
    R = np.linalg.qr(At @ Q, mode="r")
    Ub, s, _ = np.linalg.svd(R.T)
    if log is not None:
        log.update(
            iterations=it,
            stop=stop,
            residual=float(residual),
            sigma_gap=float(s[r - 1] / s[r]) if ell > r and s[r] > 0 else None,
        )
    return np.ascontiguousarray(Q @ Ub[:, :r])


def project_out(H: np.ndarray, P: sp.spmatrix | np.ndarray) -> np.ndarray:
    """H minus its projection onto range(P): H - P (P^T P)^-1 P^T H.

    Empty columns of P are dropped first; if every column is empty the
    projection is the identity.
    """
    if P.shape[0] != H.shape[0]:
        raise ValueError(f"row mismatch: P has {P.shape[0]}, H has {H.shape[0]}")
    Pd = np.asarray(P.todense()) if sp.issparse(P) else np.asarray(P, dtype=float)
    nonempty = np.abs(Pd).sum(axis=0) > 0
    Pd = Pd[:, nonempty]
    if Pd.shape[1] == 0:
        return H.copy()
    G = Pd.T @ Pd
    # one-hot feature matrices give a diagonal Gram matrix; invert it directly
    diag = np.diag(G)
    if not np.allclose(G, np.diag(diag)):
        raise ValueError("P^T P must be diagonal (one-hot feature columns)")
    if np.any(diag <= 0):
        raise ValueError("P^T P is singular")
    return H - Pd @ ((Pd.T @ H) / diag[:, None])


def orthonormalize(H: np.ndarray, rel_tol: float = RANK_REL_TOL) -> np.ndarray:
    """Orthonormal basis of range(H); numerically rank-deficient directions are dropped."""
    if H.ndim != 2 or H.shape[1] < 1:
        raise ValueError("H must have at least one column")
    U, s, _ = np.linalg.svd(H, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise ValueError("cannot orthonormalize an all-zero matrix")
    keep = s > rel_tol * s[0]
    if not np.any(keep):
        raise ValueError("cannot orthonormalize an all-zero matrix")
    return np.ascontiguousarray(U[:, keep])

