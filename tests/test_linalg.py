import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import gapped_sparse_matrix, random_orthonormal, subspace_angle_sin
from popsi.linalg import (
    MAX_ITERS,
    ORTHO_TOL,
    OVERSAMPLE,
    POWER_ITERS,
    SVD_TOL,
    _power_step,
    _qr,
    orthonormalize,
    project_out,
    truncated_svd_left,
)
from popsi.model import build_popularity_features


def two_qr_svd_left(A, r, seed):
    """Reference kernel: orthonormalizes both A^T Q and A Z in every power step and
    takes the Ritz vectors from an SVD of the ell x n block Q^T A.
    Returns the basis and the number of power steps."""
    m, n = A.shape
    rng = np.random.default_rng(seed)
    ell = min(r + OVERSAMPLE, min(m, n))
    A = A.tocsr()
    At = A.T.tocsr()
    Q, _ = np.linalg.qr(A @ rng.standard_normal((n, ell)))
    residual = np.inf
    stalled = 0
    for it in range(1, MAX_ITERS + 1):
        Z, _ = np.linalg.qr(At @ Q)
        Q_new, _ = np.linalg.qr(A @ Z)
        lead = Q_new[:, :r]
        prev = residual
        residual = np.linalg.norm(lead - Q[:, :r] @ (Q[:, :r].T @ lead))
        Q = Q_new
        if it < POWER_ITERS:
            continue
        if residual <= SVD_TOL:
            break
        stalled = stalled + 1 if residual > 0.5 * prev else 0
        if stalled >= 2:
            break
    else:
        raise RuntimeError(f"subspace iteration did not converge: residual {residual:.3e} "
                           f"after {MAX_ITERS} iterations")
    Ub, _, _ = np.linalg.svd((At @ Q).T, full_matrices=False)
    return Q @ Ub[:, :r], it


def graded_matrix(rng, m, n, r, ratio, gap):
    """sigma_1..sigma_r log-spaced from 1 down to `ratio`, then sigma_r / sigma_{r+1} = gap."""
    k = min(m, n)
    head = np.logspace(0, np.log10(ratio), r)
    s = np.concatenate([head, head[-1] / gap * np.logspace(0, -3, k - r)])
    U = random_orthonormal(rng, m, k)
    V = random_orthonormal(rng, n, k)
    return sp.csr_matrix(U @ np.diag(s) @ V.T)


def sparse_binary(rng, m, n, density):
    return sp.random(m, n, density=density, random_state=rng, data_rvs=np.ones, format="csr")


def graded_block(rng, m, n, kappa):
    """Dense m x n block whose singular values are log-spaced from 1 down to 1/kappa."""
    s = np.logspace(0, -np.log10(kappa), n)
    return random_orthonormal(rng, m, n) @ np.diag(s) @ random_orthonormal(rng, n, n).T


def orthonormality_error(Q):
    return np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1]))


def test_svd_rejects_rank_zero():
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        truncated_svd_left(sp.identity(4, format="csr"), 0)


def test_cholesky_qr2_matches_householder():
    Y = graded_block(np.random.default_rng(0), 2000, 60, 1e4)
    report = {"qr_fallbacks": 0}
    Q, R = _qr(Y, report)
    Qh, _ = np.linalg.qr(Y)
    # same nested column spans as Householder, column by column
    for k in range(1, 61):
        assert subspace_angle_sin(Q[:, :k], Qh[:, :k]) <= 1e-10
    assert orthonormality_error(Q) <= 1e-13
    assert np.array_equal(R, np.triu(R))
    assert np.linalg.norm(Q @ R - Y) <= 1e-13 * np.linalg.norm(Y)
    # Y given as one row block: no Q, and the same R, bit for bit
    no_q, R_only = _qr(lambda: [Y], report)
    assert no_q is None and np.array_equal(R_only, R)
    # R from row blocks (the Ritz step's form) sums the blocks' Gram matrices:
    # the same R but for rounding
    no_q, R_blocks = _qr(lambda: np.array_split(Y, 7), report)
    assert no_q is None and np.linalg.norm(R_blocks - R) <= 1e-13 * np.linalg.norm(R)
    assert report["qr_fallbacks"] == 0


def test_cholesky_qr2_declines_or_is_orthonormal():
    # past cond ~1e8 the first pass may factor but leave Q^T Q far from I, and a
    # second pass from there can end short of orthonormal (in this sweep at
    # 1e10.25 and 1e10.75); the QR must fall back to Householder on those blocks
    report = {"qr_fallbacks": 0}
    for kappa in 10 ** np.arange(9, 11.01, 0.25):
        for seed in range(10):
            Q, _ = _qr(graded_block(np.random.default_rng(seed), 200, 10, kappa), report)
            assert orthonormality_error(Q) <= 1e-13
    assert report["qr_fallbacks"] > 0


def test_cholesky_qr2_declines_repeated_columns():
    col = np.random.default_rng(1).standard_normal((100, 1))
    Y = np.repeat(col, 5, axis=1)
    report = {"qr_fallbacks": 0}
    Q, R = _qr(Y, report)
    assert report["qr_fallbacks"] == 1
    Qh, Rh = np.linalg.qr(Y)
    assert np.array_equal(Q, Qh) and np.array_equal(R, Rh)
    # the same when the block is given in row blocks, with R alone
    no_q, R_blocks = _qr(lambda: np.array_split(Y, 3), report)
    assert report["qr_fallbacks"] == 2
    assert no_q is None and np.array_equal(R_blocks, Rh)


def test_svd_falls_back_on_repeated_columns():
    # rank 2 with ell = 12: every block of the iteration is rank-deficient
    B = sparse_binary(np.random.default_rng(3), 40, 2, 0.5).toarray()
    A = sp.csr_matrix(np.tile(B, (1, 8)))
    log = {}
    Q = truncated_svd_left(A, 2, 0, log)
    assert log["qr_fallbacks"] >= 1
    assert orthonormality_error(Q) <= 1e-12
    assert subspace_angle_sin(Q, np.linalg.svd(B, full_matrices=False)[0]) <= 1e-8


def test_svd_falls_back_on_ill_conditioned_block():
    # ell = n = 15 and sigma_1 / sigma_15 = 1e12: the Gaussian start block is
    # beyond CholeskyQR2; once Q aligns with the singular vectors the blocks are
    # only column-graded, which Cholesky QR is invariant to
    A = sp.csr_matrix(graded_block(np.random.default_rng(4), 120, 15, 1e12))
    log = {}
    Q = truncated_svd_left(A, 5, 0, log)
    assert log["qr_fallbacks"] >= 1
    assert orthonormality_error(Q) <= 1e-12
    dense = np.linalg.svd(A.toarray(), full_matrices=False)[0][:, :5]
    assert subspace_angle_sin(Q, dense) <= 1e-8


@pytest.mark.parametrize("order", ["C", "F"])
def test_power_step_bit_equals_one_shot_product(order):
    """Column chunks of A (A^T Q) (45 = 32 + 13 columns) are the one-shot product's bits."""
    rng = np.random.default_rng(31)
    A = sparse_binary(rng, 70, 150, 0.1) + sp.random(70, 150, density=0.05, random_state=3)
    At = A.T.tocsr()
    Q = np.asarray(rng.standard_normal((70, 45)), order=order)
    assert np.array_equal(_power_step(A, At, Q), A @ (At @ Q))


def test_svd_diagonal_matrix():
    A = sp.csr_matrix(np.diag([3.0, 2.0, 1.0]))
    Q = truncated_svd_left(A, 2)
    # columns equal +-e1, +-e2
    assert np.allclose(np.abs(Q), np.eye(3)[:, :2], atol=1e-12)


def test_svd_identity_full_rank():
    A = sp.identity(4, format="csr")
    Q = truncated_svd_left(A, 4)
    assert np.max(np.abs(Q @ Q.T - np.eye(4))) <= 1e-10


def test_svd_matches_dense_oracle():
    rng = np.random.default_rng(5)
    A = gapped_sparse_matrix(rng, 50, 80, r=5)
    Q = truncated_svd_left(A, 5, 1)
    ref = np.linalg.svd(A.toarray(), full_matrices=False)[0][:, :5]
    assert subspace_angle_sin(Q, ref) <= 1e-8


def test_svd_rank_too_large():
    A = sp.identity(4, format="csr")
    with pytest.raises(ValueError):
        truncated_svd_left(A, 5)


def test_svd_empty_matrix():
    A = sp.csr_matrix((4, 4))
    with pytest.raises(ValueError):
        truncated_svd_left(A, 2)


def test_svd_deterministic():
    rng = np.random.default_rng(9)
    A = gapped_sparse_matrix(rng, 30, 40, r=4)
    Q1 = truncated_svd_left(A, 4, 77)
    Q2 = truncated_svd_left(A, 4, 77)
    assert np.array_equal(Q1, Q2)


@pytest.mark.parametrize(
    "make, r, bound, oracle",
    [
        pytest.param(
            lambda: gapped_sparse_matrix(np.random.default_rng(5), 50, 80, r=5),
            5, 1e-12, True, id="gapped",
        ),
        # rounding of A (A^T q_r) alone moves the basis by about eps * sigma_1 / sigma_r
        # (2e-10 here) in either kernel; both stop ~4e-11 from the dense oracle
        pytest.param(
            lambda: graded_matrix(np.random.default_rng(6), 120, 90, 8, 1e-6, 2.0),
            8, 1e-9, True, id="graded",
        ),
        # m > n, like the target slice fitted without side information; no gap at r,
        # so neither kernel's basis is the oracle's
        pytest.param(
            lambda: sparse_binary(np.random.default_rng(7), 300, 80, 0.1),
            10, 1e-12, False, id="tall",
        ),
        # m << n with ell = 50: the Ritz step reads A^T Q in seven row blocks of 480
        pytest.param(
            lambda: gapped_sparse_matrix(np.random.default_rng(12), 60, 3000, r=40),
            40, 1e-12, True, id="wide",
        ),
    ],
)
def test_svd_matches_two_qr_reference(make, r, bound, oracle):
    A = make()
    dense = np.linalg.svd(A.toarray(), full_matrices=False)[0][:, :r]
    for seed in range(3):
        log = {}
        Q = truncated_svd_left(A, r, seed, log)
        ref, iterations = two_qr_svd_left(A, r, seed)
        assert subspace_angle_sin(Q, ref) <= bound
        assert log["iterations"] == iterations
        if oracle:
            assert subspace_angle_sin(Q, dense) <= bound


def test_svd_never_holds_a_second_n_by_ell_block():
    """The Gaussian start block is n x ell; the Ritz step reads A^T Q in row blocks
    of n x 8 entries, so no second n x ell product joins it."""
    A = sp.random(150, 40_000, density=0.01, random_state=np.random.default_rng(13), format="csr")
    tracemalloc.start()
    try:
        truncated_svd_left(A, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 40_000 * (100 + OVERSAMPLE) * 8


# a lone call times itself
SVD_LOG_KEYS = {"iterations", "stop", "residual", "sigma_gap", "qr_fallbacks", "seconds"}


def test_svd_log_converged_on_gap():
    A = gapped_sparse_matrix(np.random.default_rng(5), 50, 80, r=5)
    log = {}
    truncated_svd_left(A, 5, 1, log)
    assert set(log) == SVD_LOG_KEYS and log["seconds"] >= 0
    assert log["stop"] == "converged" and log["qr_fallbacks"] == 0
    assert log["iterations"] == 4 and log["residual"] <= 1e-10
    s = np.linalg.svd(A.toarray(), compute_uv=False)
    assert log["sigma_gap"] == pytest.approx(s[4] / s[5], rel=0.05)


def test_svd_log_stalled_without_gap():
    A = sparse_binary(np.random.default_rng(8), 200, 150, 0.05)
    log = {}
    truncated_svd_left(A, 5, 0, log)
    assert set(log) == SVD_LOG_KEYS and log["seconds"] >= 0
    assert log["stop"] == "stalled" and log["qr_fallbacks"] == 0
    assert log["residual"] > 1e-10 and log["sigma_gap"] < 1.05


def test_svd_log_gap_null_without_oversampling():
    log = {}
    truncated_svd_left(sp.identity(4, format="csr"), 4, log=log)
    assert set(log) == SVD_LOG_KEYS and log["seconds"] >= 0
    assert log["sigma_gap"] is None and log["stop"] == "converged"


def test_project_out_group_mean():
    P = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    h = np.array([[3.0], [1.0], [5.0]])
    out = project_out(h, P)
    assert np.allclose(out.ravel(), [0.0, -2.0, 2.0], atol=1e-12)


def test_project_out_fixed_point():
    rng = np.random.default_rng(0)
    P = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    # h orthogonal to both columns of P: zero group sums
    h = np.array([[0.0], [1.0], [-1.0]])
    assert np.allclose(project_out(h, P), h, atol=1e-14)


def test_project_out_idempotent():
    rng = np.random.default_rng(3)
    P = sp.csr_matrix((np.ones(20), (np.arange(20), rng.integers(0, 2, 20))), shape=(20, 2))
    H = rng.standard_normal((20, 5))
    once = project_out(H, P)
    twice = project_out(once, P)
    assert np.max(np.abs(twice - once)) <= 1e-12


def test_project_out_empty_columns_identity():
    P = sp.csr_matrix((5, 2))
    H = np.random.default_rng(1).standard_normal((5, 3))
    assert np.array_equal(project_out(H, P), H)


@pytest.mark.parametrize("p", [0.1, 0.2, 0.5, 0.9999])
def test_project_out_is_the_gram_formula_on_popularity_features(p):
    rng = np.random.default_rng(5)
    m2 = 60
    P = build_popularity_features(rng.integers(0, 20, m2), p).P
    H = random_orthonormal(rng, m2, 7)
    # the general formula H - P (P^T P)^-1 P^T H on P's nonempty columns
    dense = P.toarray()
    Pd = dense[:, dense.sum(axis=0) > 0]
    gram = Pd.T @ Pd
    assert np.array_equal(gram, np.diag(np.diag(gram)))  # one-hot columns
    assert Pd.shape[1] == (1 if p == 0.9999 else 2)  # every item popular: column 1 is empty
    assert np.array_equal(project_out(H, P), H - Pd @ ((Pd.T @ H) / np.diag(gram)[:, None]))


def test_project_out_row_mismatch():
    P = sp.csr_matrix((4, 2))
    with pytest.raises(ValueError):
        project_out(np.zeros((5, 2)), P)


def test_orthonormalize_axis_columns():
    H = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
    Q = orthonormalize(H)
    assert Q.shape == (3, 2)
    # span is {e1, e3}; column order is free
    assert np.allclose(Q @ Q.T, np.diag([1.0, 0.0, 1.0]), atol=1e-12)


def test_orthonormalize_drops_duplicate_column():
    rng = np.random.default_rng(2)
    col = rng.standard_normal((10, 1))
    Q = orthonormalize(np.hstack([col, col]))
    assert Q.shape == (10, 1)


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(4)
    H = rng.standard_normal((100, 8))
    Q = orthonormalize(H)
    assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1]))) <= ORTHO_TOL
    assert np.max(np.abs(Q @ (Q.T @ H) - H)) <= 1e-10


def test_orthonormalize_rejects_zero():
    with pytest.raises(ValueError, match="all-zero or non-finite matrix"):
        orthonormalize(np.zeros((4, 2)))


def test_orthonormalize_rejects_non_finite():
    # the SVD of a matrix holding an inf has NaN singular values
    H = np.ones((4, 2))
    H[0, 0] = np.inf
    with pytest.raises(ValueError, match="all-zero or non-finite matrix"):
        orthonormalize(H)


def test_projector_self_adjoint_probe():
    rng = np.random.default_rng(11)
    P = sp.csr_matrix((np.ones(30), (np.arange(30), rng.integers(0, 2, 30))), shape=(30, 2))
    x = rng.standard_normal((30, 1))
    y = rng.standard_normal((30, 1))
    # <proj x, y> == <x, proj y>
    lhs = (project_out(x, P).T @ y).item()
    rhs = (x.T @ project_out(y, P)).item()
    assert abs(lhs - rhs) <= 1e-10
