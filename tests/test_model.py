import re
import struct
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import block_binary_tensor, random_binary_tensor, random_orthonormal, with_metadata
from popsi.data import InteractionTensor, ParsedLog, build_tensor
from popsi.linalg import ORTHO_TOL, truncated_svd_left
from popsi.model import (
    FeatureSpaces,
    build_popularity_features,
    debias_item_space,
    estimate_subspaces,
    fit,
    load_model,
    rank_items,
    refold,
    save_model,
    score_user,
    unfold,
)


def tensor_from_entries(m1, m2, per_slice):
    slices = []
    for entries in per_slice:
        if entries:
            rows, cols = zip(*entries)
        else:
            rows, cols = [], []
        slices.append(sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m1, m2)))
    return InteractionTensor(m1, m2, slices, [f"b{k}" for k in range(len(per_slice))])


# --- unfolding ---


def test_unfold_mode1_index_map():
    # 1-based: X^1 nonzero at (1,1), X^2 at (2,2) -> X_(1) nonzeros (1,1) and (2,4)
    tensor = tensor_from_entries(2, 2, [[(0, 0)], [(1, 1)]])
    u = unfold(tensor, 1).tocoo()
    assert sorted(zip(u.row.tolist(), u.col.tolist())) == [(0, 0), (1, 3)]


def test_unfold_mode2_index_map():
    tensor = tensor_from_entries(2, 2, [[(0, 0)], [(1, 1)]])
    u = unfold(tensor, 2).tocoo()
    assert sorted(zip(u.row.tolist(), u.col.tolist())) == [(0, 0), (1, 3)]


def test_unfold_single_slice_identity():
    tensor = tensor_from_entries(3, 4, [[(0, 1), (2, 3)]])
    assert (unfold(tensor, 1) != tensor.target).nnz == 0


def test_tensor_slices_round_trip():
    rng = np.random.default_rng(1)
    slices = [sp.csr_matrix((rng.random((6, 4)) < p).astype(float)) for p in (0.4, 0.0, 0.7)]
    tensor = InteractionTensor(6, 4, slices, ["a", "b", "c"])
    assert tensor.nnz() == sum(s.nnz for s in slices)
    for a, b in zip(tensor.slices, slices):
        assert a.shape == b.shape and (a != b).nnz == 0 and a.has_canonical_format
    assert tensor.target is tensor.slices[0]


def test_tensor_rejects_mismatched_slices():
    with pytest.raises(ValueError, match=r"one 2 x 2 slice per behavior label, got shapes "
                                         r"\[\(2, 2\), \(2, 2\)\] for labels \['a'\]"):
        InteractionTensor(2, 2, [sp.csr_matrix((2, 2))] * 2, ["a"])
    with pytest.raises(ValueError, match=r"got shapes \[\(3, 2\)\]"):
        InteractionTensor(2, 2, [sp.csr_matrix((3, 2))], ["a"])


def test_unfold_bad_mode():
    tensor = tensor_from_entries(2, 2, [[(0, 0)]])
    with pytest.raises(ValueError):
        unfold(tensor, 3)
    with pytest.raises(ValueError, match="mode must be 1 or 2, got 3"):
        refold(unfold(tensor, 1), 3, tensor.dims)


@settings(deadline=None, max_examples=30)
@given(
    m1=st.integers(2, 6),
    m2=st.integers(2, 6),
    n=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    mode=st.sampled_from([1, 2]),
)
def test_unfold_refold_roundtrip(m1, m2, n, seed, mode):
    rng = np.random.default_rng(seed)
    tensor = random_binary_tensor(rng, m1, m2, n, density=0.3)
    u = unfold(tensor, mode)
    assert u.nnz == tensor.nnz()
    back = refold(u, mode, tensor.dims)
    for a, b in zip(tensor.slices, back):
        assert (a != b).nnz == 0


def per_slice_unfold(slices, mode):
    """The unfolding as [X^1 ... X^n] or [X^1T ... X^nT], stacked slice by slice."""
    return sp.hstack([s if mode == 1 else s.T for s in slices], format="csr")


@pytest.mark.parametrize("mode", [1, 2])
def test_unfold_from_entries_matches_per_slice_hstack(mode):
    rng = np.random.default_rng(5)
    m1, m2, n = 7, 5, 3
    slices = [sp.csr_matrix((rng.random((m1, m2)) < 0.3).astype(float)) for _ in range(n)]
    slices[1] = sp.csr_matrix((m1, m2))  # a behavior without entries
    e = np.concatenate([np.column_stack(s.nonzero() + (np.full(s.nnz, k),))
                        for k, s in enumerate(slices)])
    # unsorted, with repeats: build_tensor sorts them and drops the repeats
    shuffled = np.concatenate([e, e[::2]])[rng.permutation(len(e) + len(e[::2]))]
    log = ParsedLog(shuffled, [f"u{u}" for u in range(m1)], [f"i{v}" for v in range(m2)], 0, 0)
    tensor = build_tensor(log, ["b0", "b1", "b2"])
    assert tensor.nnz() == len(e)
    got, want = unfold(tensor, mode), per_slice_unfold(slices, mode)
    assert got.shape == want.shape and (got != want).nnz == 0
    assert got.has_canonical_format and np.all(got.data == 1.0)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m1, m2, n, empty", [(5, 5, 1, None), (6, 4, 3, 1), (3, 9, 2, 0),
                                              (8, 7, 4, 3)],
                         ids=["one-slice", "empty-middle", "empty-target", "empty-last"])
@pytest.mark.parametrize("mode", [1, 2])
def test_unfold_stores_entries_sorted_by_row_then_column(mode, m1, m2, n, empty, seed):
    """The SVDs' bits follow the unfolding's stored order, so a scipy whose `hstack`
    stores entries in another order fails here instead of changing model.bin."""
    rng = np.random.default_rng(seed)
    per_slice = [[] if k == empty else [(u, v) for u in range(m1) for v in range(m2)
                                        if rng.random() < 0.4] for k in range(n)]
    tensor = tensor_from_entries(m1, m2, per_slice)
    u, v, k = tensor.entries.T.astype(np.int64)
    rows, cols, n_rows = (u, m2 * k + v, m1) if mode == 1 else (v, m1 * k + u, m2)
    order = np.lexsort((cols, rows))
    got = unfold(tensor, mode)
    assert got.has_sorted_indices
    assert np.array_equal(got.indptr, np.r_[0, np.cumsum(np.bincount(rows, minlength=n_rows))])
    assert np.array_equal(got.indices, cols[order])
    assert np.array_equal(got.data, np.ones(len(rows)))


# --- popularity features ---


def test_popularity_features_sort_and_cut():
    feats = build_popularity_features(np.array([5, 2, 7, 1]), p=0.25)
    P = feats.P.toarray()
    assert P[:, 0].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert P[2].tolist() == [1.0, 0.0]
    assert np.all(P.sum(axis=1) == 1)


def test_popularity_features_tie_rule():
    feats = build_popularity_features(np.array([3, 3, 3, 3]), p=0.5)
    assert feats.P.toarray()[:, 0].tolist() == [1.0, 1.0, 0.0, 0.0]


def test_popularity_features_default_fraction():
    feats = build_popularity_features(np.arange(10), p=0.2)
    assert feats.P.toarray()[:, 0].sum() == 2  # ceil(0.2 * 10)


def test_popularity_features_invalid_p():
    with pytest.raises(ValueError):
        build_popularity_features(np.array([1, 2]), p=0.0)
    with pytest.raises(ValueError):
        build_popularity_features(np.array([1, 2]), p=1.0)


# --- subspaces and debias ---


def test_estimate_subspaces_rank1():
    tensor = tensor_from_entries(4, 4, [[(1, 2)]])
    spaces = estimate_subspaces(tensor, 1)
    assert np.allclose(np.abs(spaces.W.ravel()), [0, 1, 0, 0], atol=1e-10)
    assert np.allclose(np.abs(spaces.H.ravel()), [0, 0, 1, 0], atol=1e-10)


def test_estimate_subspaces_single_slice_is_matrix_svd():
    rng = np.random.default_rng(1)
    tensor = block_binary_tensor(rng, [6, 4, 2], [5, 4, 3], 1, noise=4)
    spaces = estimate_subspaces(tensor, 3, 5)
    U, s, Vt = np.linalg.svd(tensor.target.toarray(), full_matrices=False)
    assert np.max(np.abs(spaces.W @ spaces.W.T - U[:, :3] @ U[:, :3].T)) <= 1e-8


def test_estimate_subspaces_equals_sequential_svds():
    """The overlapped SVDs give the bases and reports of two lone calls, bit for bit;
    ell = 47 is no multiple of the power step's column chunk."""
    tensor = random_binary_tensor(np.random.default_rng(21), 80, 60, 3, density=0.2)
    log = {}
    spaces = estimate_subspaces(tensor, 37, 4, log)
    for mode, got, seed in [(1, spaces.W, 4), (2, spaces.H, 5)]:
        want_log = {}
        want = truncated_svd_left(unfold(tensor, mode), 37, seed, want_log)
        assert np.array_equal(got, want)
        assert log[f"mode{mode}"].pop("seconds") >= 0 and want_log.pop("seconds") >= 0
        assert log[f"mode{mode}"] == want_log


@pytest.mark.parametrize("m1, m2", [(10, 4), (4, 10), (4, 3)],
                         ids=["mode2-only", "mode1-only", "both"])
def test_estimate_subspaces_failure_is_the_sequential_one(m1, m2):
    """r above m2 fails in mode 2, above m1 in mode 1; when both fail, mode 1's
    error wins, as when the SVDs ran one after the other. No worker thread
    outlives the call."""
    tensor = random_binary_tensor(np.random.default_rng(22), m1, m2, 2, density=0.5)
    with pytest.raises(ValueError) as want:
        for mode in (1, 2):
            truncated_svd_left(unfold(tensor, mode), 5)
    threads = threading.active_count()
    with pytest.raises(ValueError) as got:
        estimate_subspaces(tensor, 5)
    assert str(got.value) == str(want.value)
    assert threading.active_count() == threads


def test_debias_removes_popularity_direction():
    rng = np.random.default_rng(2)
    m2, r = 20, 4
    feats = build_popularity_features(rng.integers(0, 50, m2), p=0.2)
    # first column of H is exactly the popular-indicator direction
    pop_col = feats.P.toarray()[:, :1]
    pop_col /= np.linalg.norm(pop_col)
    rest = random_orthonormal(rng, m2, r - 1)
    rest -= pop_col @ (pop_col.T @ rest)
    H = np.hstack([pop_col, np.linalg.qr(rest)[0]])
    W = random_orthonormal(rng, 15, r)
    refined = debias_item_space(FeatureSpaces(W, H), feats.P)
    assert refined.H.shape[1] == r - 1
    assert np.max(np.abs(feats.P.T @ refined.H)) <= ORTHO_TOL


def test_debias_fixed_point_projector():
    rng = np.random.default_rng(3)
    m2, r = 30, 3
    feats = build_popularity_features(rng.integers(0, 9, m2), p=0.3)
    H0 = random_orthonormal(rng, m2, r)
    # make H0 already orthogonal to range(P)
    from popsi.linalg import orthonormalize, project_out

    H0 = orthonormalize(project_out(H0, feats.P))
    spaces = FeatureSpaces(random_orthonormal(rng, 10, r), H0)
    refined = debias_item_space(spaces, feats.P)
    assert np.max(np.abs(refined.H @ refined.H.T - H0 @ H0.T)) <= 1e-10


# --- fit / scoring ---


def test_fit_identity_bases_recover_slice():
    # dense full-rank square tensor: rank-m bases make S^1 reproduce X^1
    rng = np.random.default_rng(4)
    tensor = random_binary_tensor(rng, 6, 6, 2, density=0.5)
    model = fit(tensor, r=6, p=0.2, use_si=True, use_pop=False)
    W, H = model.spaces.W, model.spaces.H
    recon = W @ model.cores[0] @ H.T
    assert np.max(np.abs(recon - tensor.target.toarray())) <= 1e-8


def test_fit_cores_match_least_squares_oracle():
    rng = np.random.default_rng(5)
    tensor = random_binary_tensor(rng, 12, 10, 3, density=0.25)
    r = 4
    model = fit(tensor, r=r, use_si=True, use_pop=False, seed=2)
    W, H = model.spaces.W, model.spaces.H
    for k, Xk in enumerate(tensor.slices):
        # brute-force normal equations on the Kronecker system
        design = np.kron(H, W)
        s_opt, *_ = np.linalg.lstsq(design, Xk.toarray().ravel(order="F"), rcond=None)
        S_opt = s_opt.reshape(model.cores[k].shape, order="F")
        res_model = np.linalg.norm(W @ model.cores[k] @ H.T - Xk.toarray())
        res_opt = np.linalg.norm(W @ S_opt @ H.T - Xk.toarray())
        assert res_model <= res_opt + 1e-8


def test_fit_matrix_variant_is_truncated_svd_reconstruction():
    rng = np.random.default_rng(6)
    tensor = block_binary_tensor(rng, [7, 5, 3], [6, 4, 2], 3, noise=5)
    r = 3
    model = fit(tensor, r=r, use_si=False, use_pop=False, seed=3)
    assert len(model.cores) == 1
    U, s, Vt = np.linalg.svd(tensor.target.toarray(), full_matrices=False)
    expected = U[:, :r] @ np.diag(s[:r]) @ Vt[:r]
    scores = np.vstack([score_user(model, u) for u in range(tensor.m1)])
    assert np.max(np.abs(scores - expected)) <= 1e-8


def test_fit_with_pop_orthogonality():
    rng = np.random.default_rng(7)
    tensor = random_binary_tensor(rng, 20, 16, 2, density=0.25)
    model = fit(tensor, r=5, p=0.25, use_si=True, use_pop=True)
    pop = np.asarray(tensor.target.sum(axis=0)).ravel()
    feats = build_popularity_features(pop, 0.25)
    assert np.max(np.abs(feats.P.T @ model.spaces.H)) <= ORTHO_TOL
    assert model.spaces.H.shape[1] >= 3


def test_score_rotation_invariance():
    rng = np.random.default_rng(8)
    tensor = random_binary_tensor(rng, 10, 8, 2, density=0.3)
    r = 3
    model = fit(tensor, r=r, use_si=True, use_pop=False, seed=4)
    R1 = random_orthonormal(rng, r, r)
    r2 = model.spaces.H.shape[1]
    R2 = random_orthonormal(rng, r2, r2)
    W2, H2 = model.spaces.W @ R1, model.spaces.H @ R2
    cores2 = [W2.T @ Xk.toarray() @ H2 for Xk in tensor.slices]
    for u in range(10):
        rotated = (W2[u] @ cores2[0]) @ H2.T
        assert np.max(np.abs(rotated - score_user(model, u))) <= 1e-8


def test_score_zero_user():
    tensor = tensor_from_entries(4, 4, [[(1, 2), (2, 3), (1, 1)]])
    model = fit(tensor, r=2, use_si=False, use_pop=False)
    # user 0 has no interactions anywhere; its W row is zero
    assert np.allclose(score_user(model, 0), 0.0, atol=1e-10)


def test_score_user_out_of_range():
    tensor = tensor_from_entries(3, 3, [[(0, 0), (1, 1), (2, 2)]])
    model = fit(tensor, r=1, use_si=False, use_pop=False)
    with pytest.raises(IndexError):
        score_user(model, 3)


def test_score_user_block_matches_rows():
    rng = np.random.default_rng(10)
    tensor = random_binary_tensor(rng, 10, 8, 2, density=0.3)
    model = fit(tensor, r=3, use_si=True, use_pop=False)
    users = np.array([4, 0, 9, 4])
    block = score_user(model, users, 1)
    assert block.shape == (4, 8)
    for row, u in zip(block, users):
        assert np.max(np.abs(row - score_user(model, int(u), 1))) <= 1e-12
    with pytest.raises(IndexError):
        score_user(model, np.array([0, 10]))


def exclusion(m1, m2, pairs):
    """A one-slice training tensor whose target entries are `pairs`."""
    rows, cols = zip(*pairs) if pairs else ((), ())
    target = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m1, m2))
    return InteractionTensor(m1, m2, [target], ["target"])


def test_top_k_ordering_and_exclusion():
    scores = np.array([[0.1, 0.9, 0.5]])
    none = exclusion(1, 3, [])
    assert rank_items(scores, [0], 2, none, {})[0].tolist() == [[1, 2]]
    assert rank_items(scores, [0], 2, exclusion(1, 3, [(0, 1)]), {})[0].tolist() == [[2, 0]]
    # an all-zero row ties at its K-th score, so it takes a whole-row sort
    log = {}
    assert rank_items(np.zeros((1, 3)), [0], 2, none, log)[0].tolist() == [[0, 1]]
    assert log == {"zero_score_users": 1, "whole_row_sorts": 1}
    # a K above the item count gives lists m2 long, padded where items were left out
    items, top = rank_items(scores, [0], 5, exclusion(1, 3, [(0, 1)]), log)
    assert items.tolist() == [[2, 0, -1]]
    assert top.tolist() == [[0.5, 0.1, -np.inf]]
    assert log == {"zero_score_users": 1, "whole_row_sorts": 1}
    with pytest.raises(ValueError):
        rank_items(scores, [0], 0, none, {})


def test_rank_items_masks_a_float_block_where_it_lies():
    """A float64 block comes back with each row's left-out items at -inf; an int block
    or a list is converted and left as given. The zero-score count reads the scores
    before the mask: a row whose only nonzero score is left out is not all zero."""
    exclude = exclusion(3, 3, [(0, 1), (1, 2), (2, 0)])
    given = [[0, 2, 0], [0, 0, 0], [1, 3, 2]]
    block = np.array(given, dtype=float)
    log = {}
    items, _ = rank_items(block, [0, 1, 2], 2, exclude, log)
    assert block.tolist() == [[0, -np.inf, 0], [0, 0, -np.inf], [-np.inf, 3, 2]]
    assert log["zero_score_users"] == 1  # row 1 alone
    for scores in (np.array(given), given):
        again = {}
        assert np.array_equal(rank_items(scores, [0, 1, 2], 2, exclude, again)[0], items)
        assert np.array_equal(scores, given) and again == log


@pytest.mark.parametrize("K", [1, 2, 9])
def test_rank_items_counts_the_rows_all_zero_as_given(K):
    """`zero_score_users` counts the rows of the block as given that hold no nonzero,
    whatever was left out of them, and whatever their best kept score."""
    # user 0 leaves out nothing, user 1 item 1, user 2 items 0 and 2, user 3 every item
    exclude = exclusion(4, 4, [(1, 1), (2, 0), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)])
    rows = [
        (0, [0, 0, 0, 0]),  # all zero
        (1, [0, 0, 0, 0]),  # all zero, with an item left out
        (3, [0, 0, 0, 0]),  # all zero, with every item left out
        (0, [0, -1, 0, -2]),  # best kept score 0, beside negative scores
        (2, [0, -1, -3, 0]),  # best kept score 0, a negative one left out
        (2, [0, -1, 0, 0]),  # best kept score 0, the left-out scores 0
        (1, [0, 5, 0, 0]),  # the only nonzero score left out
        (2, [2, 0, -1, 0]),  # every nonzero score left out
        (3, [0, 0, 1, 0]),  # every item left out, one nonzero
        (0, [1, 0, 0, 0]),
    ]
    users = np.array([u for u, _ in rows])
    block = np.array([scores for _, scores in rows], dtype=float)
    given = block.copy()
    log = {}
    rank_items(block, users, K, exclude, log)
    assert log["zero_score_users"] == (~given.any(axis=1)).sum() == 3


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rank_items_matches_full_stable_sort(seed):
    rng = np.random.default_rng(seed)
    m1, m2 = int(rng.integers(1, 8)), int(rng.integers(1, 12))
    target = sp.csr_matrix((rng.random((m1, m2)) < rng.random()).astype(float))
    # the auxiliary slice of the training tensor excludes nothing
    aux = sp.csr_matrix((rng.random((m1, m2)) < 0.5).astype(float))
    exclude = InteractionTensor(m1, m2, [target, aux], ["target", "aux"])
    users = rng.integers(0, m1, int(rng.integers(0, 6)))
    # integer scores in a small range tie often; some rows are all zero
    scores = rng.integers(-2, 3, (len(users), m2)).astype(float)
    if rng.random() < 0.3:  # and some blocks have no ties
        scores += rng.random(scores.shape)
    scores[rng.random(len(users)) < 0.3] = 0.0
    K = int(rng.integers(1, m2 + 3))
    log = {}
    items, top = rank_items(scores.copy(), users, K, exclude, log)  # the copy is masked
    assert items.shape == top.shape == (len(users), min(K, m2)) and items.dtype == np.int64
    assert log["zero_score_users"] == int(np.sum(~scores.any(axis=1)))
    dense = target.toarray()
    for got, got_scores, u, row in zip(items, top, users, scores):
        candidates = np.flatnonzero(dense[u] == 0)
        want = candidates[np.argsort(-row[candidates], kind="stable")][:K]
        pad = min(K, m2) - len(want)
        assert got.tolist() == want.tolist() + [-1] * pad
        assert got_scores.tolist() == row[want].tolist() + [-np.inf] * pad



def test_model_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    tensor = random_binary_tensor(rng, 12, 10, 2, density=0.3)
    model = fit(tensor, r=3, p=0.3, use_si=True, use_pop=True)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.spaces.W, model.spaces.W)
    assert np.array_equal(back.spaces.H, model.spaces.H)
    for a, b in zip(back.cores, model.cores):
        assert np.array_equal(a, b)
    assert back.behavior_labels == model.behavior_labels
    assert (back.p, back.use_si, back.use_pop) == (model.p, model.use_si, model.use_pop)
    # bit-exact file round trip
    save_model(back, tmp_path / "model2.bin")
    assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "model2.bin").read_bytes()
    # files written while the metadata still carried `debiased` load the same arrays
    path.write_bytes(with_metadata(path.read_bytes(), lambda m: m.update(debiased=True)))
    assert np.array_equal(load_model(path).spaces.H, model.spaces.H)
    # and so do files without the `trained_on` record
    path.write_bytes(with_metadata(path.read_bytes(), lambda m: m.pop("trained_on")))
    assert load_model(path).trained_on is None


@pytest.mark.parametrize("key", ["p", "use_pop", "behavior_labels", "r_refined", "core_shapes"])
def test_model_without_a_metadata_key(tmp_path, key):
    tensor = random_binary_tensor(np.random.default_rng(12), 8, 6, 1, density=0.4)
    path = tmp_path / "model.bin"
    save_model(fit(tensor, r=2, use_pop=False), path)
    path.write_bytes(with_metadata(path.read_bytes(), lambda m: m.pop(key)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: model metadata has no key "
                                         f"'{key}'$"):
        load_model(path)


def _split_record(edit):
    return lambda m: edit(m["trained_on"]["split"])


@pytest.mark.parametrize("edit", [
    lambda m: m.update(p="x"),
    lambda m: m.update(use_si=1),
    lambda m: m.update(use_pop=None),
    lambda m: m.update(behavior_labels=[3, 4]),
    lambda m: m["behavior_labels"].append("extra"),
    lambda m: m.update(core_shapes=[s[::-1] for s in m["core_shapes"]]),
    lambda m: m.update(trained_on=[m["trained_on"]]),
    _split_record(lambda s: s.update(ratios=["0.8", "0.1", "0.1"])),
    _split_record(lambda s: s.update(rng_seed=1.0)),
    lambda m: m["trained_on"].update(train_sha256=7),
], ids=["p-string", "use_si-int", "use_pop-null", "labels-int", "one-label-too-many",
        "core_shapes-swapped", "trained_on-list", "ratios-strings", "rng_seed-float",
        "sha-int"])
def test_model_with_a_mistyped_metadata_field(tmp_path, edit):
    tensor = random_binary_tensor(np.random.default_rng(12), 8, 6, 2, density=0.4)
    model = fit(tensor, r=5)
    assert model.spaces.H.shape[1] == 4  # r_refined differs from r, so a swap shows
    model.trained_on = {"split": {"ratios": [0.8, 0.1, 0.1], "rng_seed": 1},
                        "train_sha256": "0" * 64}
    path = tmp_path / "model.bin"
    save_model(model, path)
    assert load_model(path).trained_on == model.trained_on
    path.write_bytes(with_metadata(path.read_bytes(), edit))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_model(path)


def test_model_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_model(path)


def test_model_unsupported_version(tmp_path):
    tensor = random_binary_tensor(np.random.default_rng(12), 8, 6, 1, density=0.4)
    path = tmp_path / "model.bin"
    save_model(fit(tensor, r=2, use_pop=False), path)
    data = path.read_bytes()
    path.write_bytes(data[:8] + struct.pack("<I", 2) + data[12:])
    with pytest.raises(ValueError, match="unsupported model version 2"):
        load_model(path)


def test_model_truncated_file(tmp_path):
    rng = np.random.default_rng(12)
    tensor = random_binary_tensor(rng, 8, 6, 1, density=0.4)
    path = tmp_path / "model.bin"
    save_model(fit(tensor, r=2, use_pop=False), path)
    data = path.read_bytes()
    for cut in (10, 20, len(data) - 12, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)


def test_model_trailing_bytes(tmp_path):
    rng = np.random.default_rng(13)
    tensor = random_binary_tensor(rng, 8, 6, 1, density=0.4)
    path = tmp_path / "model.bin"
    save_model(fit(tensor, r=2, use_pop=False), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_model(path)


def test_fit_reuses_the_svd_pair_of_the_last_fit_on_a_tensor(monkeypatch):
    """Fits on one tensor that differ only in p or use_pop estimate one SVD pair and equal
    fresh fits bit for bit; another r, seed or use_si estimates again."""
    import popsi.model

    def make():  # the same entries in a new tensor, on which no fit has run
        return random_binary_tensor(np.random.default_rng(5), 12, 9, 2, density=0.4)

    estimate, calls = popsi.model.estimate_subspaces, []

    def counted(t, r, seed, log=None):
        calls.append((t.n, r, seed))
        return estimate(t, r, seed, log)

    monkeypatch.setattr("popsi.model.estimate_subspaces", counted)
    tensor = make()
    variants = [{"p": 0.2}, {"p": 0.4}, {"p": 0.4, "use_pop": False}]
    logs = [{} for _ in variants]
    models = [fit(tensor, r=3, seed=1, log=log, **kw) for kw, log in zip(variants, logs)]
    assert calls == [(2, 3, 1)]
    assert ["svd" in log for log in logs] == [True, False, False]
    for kw, model in zip(variants, models):
        fresh = fit(make(), r=3, seed=1, **kw)
        for got, want in zip([model.spaces.W, model.spaces.H, *model.cores],
                             [fresh.spaces.W, fresh.spaces.H, *fresh.cores]):
            assert np.array_equal(got, want)
    calls.clear()
    fit(tensor, r=2, seed=1)
    fit(tensor, r=2, seed=2)
    fit(tensor, r=2, use_si=False, seed=2)
    fit(tensor, r=2, p=0.4, seed=2)  # the tensor's last pair
    fit(tensor, r=2, use_si=False, use_pop=False, seed=2)
    assert calls == [(2, 2, 1), (2, 2, 2), (1, 2, 2)]


def test_fit_rejects_bad_p_before_the_svds(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("estimate_subspaces ran before p was checked")

    monkeypatch.setattr("popsi.model.estimate_subspaces", no_svd)
    tensor = random_binary_tensor(np.random.default_rng(5), 12, 9, 2, density=0.4)
    with pytest.raises(ValueError, match="popular fraction p must lie in"):
        fit(tensor, r=3, p=1.5)
    with pytest.raises(AssertionError):  # without the debias step p is never read
        fit(tensor, r=3, p=1.5, use_pop=False)
