import numpy as np
import pytest
import scipy.sparse as sp

from conftest import gapped_sparse_matrix, random_orthonormal, subspace_angle_sin
from popsi.linalg import (
    ORTHO_TOL,
    SvdConvergenceError,
    SvdOptions,
    orthonormalize,
    project_out,
    truncated_svd_left,
)


def two_qr_svd_left(A, opts):
    """Reference kernel: orthonormalizes both A^T Q and A Z in every power step and
    takes the Ritz vectors from an SVD of the ell x n block Q^T A.
    Returns the basis and the number of power steps."""
    m, n = A.shape
    r = opts.rank
    rng = np.random.default_rng(opts.rng_seed)
    ell = min(r + opts.oversample, min(m, n))
    A = A.tocsr()
    At = A.T.tocsr()
    Q, _ = np.linalg.qr(A @ rng.standard_normal((n, ell)))
    residual = np.inf
    stalled = 0
    for it in range(1, opts.max_iters + 1):
        Z, _ = np.linalg.qr(At @ Q)
        Q_new, _ = np.linalg.qr(A @ Z)
        lead = Q_new[:, :r]
        prev = residual
        residual = np.linalg.norm(lead - Q[:, :r] @ (Q[:, :r].T @ lead))
        Q = Q_new
        if it < opts.power_iters:
            continue
        if residual <= opts.tol:
            break
        stalled = stalled + 1 if residual > 0.5 * prev else 0
        if stalled >= 2:
            break
    else:
        raise SvdConvergenceError(residual, opts.max_iters)
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


def test_svd_diagonal_matrix():
    A = sp.csr_matrix(np.diag([3.0, 2.0, 1.0]))
    Q = truncated_svd_left(A, SvdOptions(rank=2))
    # columns equal +-e1, +-e2
    assert np.allclose(np.abs(Q), np.eye(3)[:, :2], atol=1e-12)


def test_svd_identity_full_rank():
    A = sp.identity(4, format="csr")
    Q = truncated_svd_left(A, SvdOptions(rank=4))
    assert np.max(np.abs(Q @ Q.T - np.eye(4))) <= 1e-10


def test_svd_matches_dense_oracle():
    rng = np.random.default_rng(5)
    A = gapped_sparse_matrix(rng, 50, 80, r=5)
    Q = truncated_svd_left(A, SvdOptions(rank=5, rng_seed=1))
    ref = np.linalg.svd(A.toarray(), full_matrices=False)[0][:, :5]
    assert subspace_angle_sin(Q, ref) <= 1e-8


def test_svd_rank_too_large():
    A = sp.identity(4, format="csr")
    with pytest.raises(ValueError):
        truncated_svd_left(A, SvdOptions(rank=5))


def test_svd_empty_matrix():
    A = sp.csr_matrix((4, 4))
    with pytest.raises(ValueError):
        truncated_svd_left(A, SvdOptions(rank=2))


def test_svd_deterministic():
    rng = np.random.default_rng(9)
    A = gapped_sparse_matrix(rng, 30, 40, r=4)
    opts = SvdOptions(rank=4, rng_seed=77)
    Q1 = truncated_svd_left(A, opts)
    Q2 = truncated_svd_left(A, opts)
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
    ],
)
def test_svd_matches_two_qr_reference(make, r, bound, oracle):
    A = make()
    dense = np.linalg.svd(A.toarray(), full_matrices=False)[0][:, :r]
    for seed in range(3):
        opts = SvdOptions(rank=r, rng_seed=seed)
        log = {}
        Q = truncated_svd_left(A, opts, log)
        ref, iterations = two_qr_svd_left(A, opts)
        assert subspace_angle_sin(Q, ref) <= bound
        assert log["iterations"] == iterations
        if oracle:
            assert subspace_angle_sin(Q, dense) <= bound


def test_svd_log_converged_on_gap():
    A = gapped_sparse_matrix(np.random.default_rng(5), 50, 80, r=5)
    log = {}
    truncated_svd_left(A, SvdOptions(rank=5, rng_seed=1), log)
    assert log["stop"] == "converged"
    assert log["iterations"] == 4 and log["residual"] <= 1e-10
    s = np.linalg.svd(A.toarray(), compute_uv=False)
    assert log["sigma_gap"] == pytest.approx(s[4] / s[5], rel=0.05)


def test_svd_log_stalled_without_gap():
    A = sparse_binary(np.random.default_rng(8), 200, 150, 0.05)
    log = {}
    truncated_svd_left(A, SvdOptions(rank=5, rng_seed=0), log)
    assert log["stop"] == "stalled"
    assert log["residual"] > 1e-10 and log["sigma_gap"] < 1.05


def test_svd_log_gap_null_without_oversampling():
    log = {}
    truncated_svd_left(sp.identity(4, format="csr"), SvdOptions(rank=4), log)
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


def test_project_out_rejects_overlapping_columns():
    P = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        project_out(np.ones((3, 1)), P)


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
    with pytest.raises(ValueError):
        orthonormalize(np.zeros((4, 2)))


def test_projector_self_adjoint_probe():
    rng = np.random.default_rng(11)
    P = sp.csr_matrix((np.ones(30), (np.arange(30), rng.integers(0, 2, 30))), shape=(30, 2))
    x = rng.standard_normal((30, 1))
    y = rng.standard_normal((30, 1))
    # <proj x, y> == <x, proj y>
    lhs = (project_out(x, P).T @ y).item()
    rhs = (x.T @ project_out(y, P)).item()
    assert abs(lhs - rhs) <= 1e-10
