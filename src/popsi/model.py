"""Core algorithm: unfoldings, subspace estimation, popularity debias, per-slice cores, scoring."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from popsi.data import InteractionTensor, _read_container, _write_container, item_popularity
from popsi.linalg import ORTHO_TOL, _timed, orthonormalize, project_out, truncated_svd_left

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_RANK = 200
DEFAULT_POPULAR_FRACTION = 0.2
# training tensor -> {use_si: ((r, seed), spaces)}: `fit`'s last SVD pair per use_si on it
_LAST_SPACES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass
class PopularityFeatures:
    P: sp.csr_matrix  # m2 x 2 one-hot: column 0 popular, column 1 less popular


@dataclass
class FeatureSpaces:
    W: np.ndarray  # m1 x r, orthonormal columns
    H: np.ndarray  # m2 x r' (r' <= r after refinement)
    r = property(lambda self: self.W.shape[1])  # the rank, W's width; not a field


@dataclass
class PreferenceModel:
    spaces: FeatureSpaces
    cores: list[np.ndarray]  # one r x r' core per slice (single core when use_si is off)
    behavior_labels: list[str]
    p: float
    use_si: bool
    use_pop: bool
    trained_on: dict | None = None  # the split and a digest of the training entries
    Ht = cached_property(lambda self: np.ascontiguousarray(self.spaces.H.T))  # not a field


def unfold(tensor: InteractionTensor, mode: int) -> sp.csr_matrix:
    """Mode-1 unfolding [X^1 ... X^n] (m1 x m2*n) or mode-2 [X^1T ... X^nT] (m2 x m1*n)."""
    import scipy.sparse as sp

    if mode not in (1, 2):
        raise ValueError(f"unfolding mode must be 1 or 2, got {mode}")
    return sp.hstack([s if mode == 1 else s.T for s in tensor.slices], format="csr")


def refold(unfolded: sp.spmatrix, mode: int, dims: tuple[int, int, int]) -> list[sp.csr_matrix]:
    """Inverse of `unfold`; returns the frontal slices."""
    m1, m2, n = dims
    u = unfolded.tocsc()
    if mode == 1:
        return [u[:, k * m2 : (k + 1) * m2].tocsr() for k in range(n)]
    if mode == 2:
        return [u[:, k * m1 : (k + 1) * m1].T.tocsr() for k in range(n)]
    raise ValueError(f"unfolding mode must be 1 or 2, got {mode}")


def build_popularity_features(pop_counts: np.ndarray, p: float) -> PopularityFeatures:
    """Label the top ceil(p*m2) items by interaction count as popular; ties by item index."""
    import scipy.sparse as sp

    if not 0 < p < 1:
        raise ValueError(f"popular fraction p must lie in (0,1), got {p}")
    m2 = len(pop_counts)
    order = np.lexsort((np.arange(m2), -np.asarray(pop_counts)))
    n_popular = int(np.ceil(p * m2))
    cols = np.ones(m2, dtype=np.int64)
    cols[order[:n_popular]] = 0
    P = sp.csr_matrix((np.ones(m2), (np.arange(m2), cols)), shape=(m2, 2))
    return PopularityFeatures(P)


def estimate_subspaces(
    tensor: InteractionTensor, r: int, seed: int = 0, log: dict | None = None
) -> FeatureSpaces:
    """User/item bases from the dominant left singular subspaces of the two unfoldings.

    Mode 2's `truncated_svd_left` runs on a worker thread beside mode 1's; each
    array operation is that of a lone call, so the bases do not depend on the
    overlap. When `log` is given, each SVD's report goes under `mode1` and `mode2`.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads logging, so only on this path

    log = {} if log is None else log
    A1, A2 = unfold(tensor, 1), unfold(tensor, 2)
    with ThreadPoolExecutor(max_workers=1) as pool:
        mode2 = pool.submit(truncated_svd_left, A2, r, seed + 1, log.setdefault("mode2", {}))
        W = truncated_svd_left(A1, r, seed, log.setdefault("mode1", {}))
    return FeatureSpaces(W, mode2.result())


def debias_item_space(
    spaces: FeatureSpaces, P: sp.spmatrix, log: dict | None = None
) -> FeatureSpaces:
    """Project the item basis onto the orthogonal complement of range(P), then re-orthonormalize.

    Repeats the projection if rounding reintroduces a popularity component,
    so the returned basis always satisfies max|P^T H| <= ORTHO_TOL. When `log`
    is given it gets the rounds run (`rounds`) and the final max|P^T H|
    (`max_abs_pth`).
    """
    H = spaces.H
    for rounds in range(1, 4):
        H = orthonormalize(project_out(H, P))
        max_abs_pth = float(np.max(np.abs(P.T @ H)))
        if max_abs_pth <= ORTHO_TOL:
            break
    else:
        raise RuntimeError("debias projection failed to reach orthogonality tolerance")
    if log is not None:
        log.update(rounds=rounds, max_abs_pth=max_abs_pth)
    return FeatureSpaces(spaces.W, H)


def fit(
    tensor: InteractionTensor,
    r: int = DEFAULT_RANK,
    p: float = DEFAULT_POPULAR_FRACTION,
    use_si: bool = True,
    use_pop: bool = True,
    seed: int = 0,
    log: dict | None = None,
) -> PreferenceModel:
    """Full fitting pipeline; ablation flags drop side information and/or the debias step.

    Without side information only the target slice of `tensor` is fitted.
    Items are labelled popular by their target-slice counts. p and the debias
    step act only after the SVDs, so a fit that repeats r and the seed of the
    last fit on `tensor` with its `use_si` reuses that SVD pair. When `log` is
    given it gets the seconds of each step run (`seconds{svd, debias, cores}`),
    the refined width, the two SVD reports (`svd.mode1`, `svd.mode2`, when the
    SVDs ran) and the debias report (`debias`, None when `use_pop` is off).
    """
    last = _LAST_SPACES.setdefault(tensor, {})
    if not use_si:
        entries = tensor.entries[tensor.entries[:, 2] == 0]
        tensor = InteractionTensor.from_entries(tensor.m1, tensor.m2, entries,
                                                tensor.behavior_labels[:1])
    log = {} if log is None else log
    log["seconds"] = seconds = {}
    log["debias"] = debias_log = {} if use_pop else None
    # built before the SVDs, so that a bad p fails before them
    features = build_popularity_features(item_popularity(tensor), p) if use_pop else None
    key, spaces = last.get(use_si, (None, None))
    if key != (r, seed):
        with _timed(seconds, "svd"):
            spaces = estimate_subspaces(tensor, r, seed, log.setdefault("svd", {}))
        spaces.W.flags.writeable = spaces.H.flags.writeable = False  # shared by later fits
        last[use_si] = ((r, seed), spaces)
    if use_pop:
        with _timed(seconds, "debias"):
            spaces = debias_item_space(spaces, features.P, debias_log)
    with _timed(seconds, "cores"):
        cores = [(Xk.T @ spaces.W).T @ spaces.H for Xk in tensor.slices]
    log.update(r=r, r_refined=spaces.H.shape[1])
    return PreferenceModel(spaces, cores, list(tensor.behavior_labels), p, use_si, use_pop)


def score_user(model: PreferenceModel, users, k: int = 0) -> np.ndarray:
    """Rows `users` of W W^T X^k H H^T, computed as (W[users] S^k) H^T.

    An int gives one score vector; an index array gives a block with one row per user.
    """
    W = model.spaces.W
    idx = np.asarray(users)
    bad = idx[(idx < 0) | (idx >= W.shape[0])]
    if bad.size:
        raise IndexError(f"user index {bad.flat[0]} out of range [0, {W.shape[0]})")
    return (W[idx] @ model.cores[k]) @ model.Ht


def rank_items(scores: np.ndarray, users, K: int, exclude: InteractionTensor,
               log: dict) -> tuple[np.ndarray, np.ndarray]:
    """Top-K items of every row of a score block, as an n x min(K, m2) int64 matrix
    padded with -1 (rows with fewer candidates), and their scores, padded with -inf.

    Row i belongs to user users[i]. `exclude` is the training tensor, whose
    target entries of users[i] are dropped from row i. Each list is the head
    of a stable descending sort of its row, so ties break by ascending item
    index. A row whose K-th score ties with an item left out takes that
    whole-row sort; `log` counts these rows in `whole_row_sorts`, and the rows
    whose scores are all zero in `zero_score_users`. A float64 block comes
    back with each row's left-out items set to -inf; other input is converted.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    users = np.asarray(users)
    masked = np.asarray(scores, dtype=float)
    n_rows, m2 = masked.shape
    indptr, indices = exclude.target_rows
    starts = indptr[users]
    counts = indptr[users + 1] - starts
    at = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    left = np.repeat(np.arange(n_rows), counts), indices[at]  # each left-out (row, item)
    zeros_left = counts - np.bincount(left[0][masked[left] != 0], minlength=n_rows)
    masked[left] = -np.inf
    k = min(K, m2)  # a longer list could only be padding
    # the k best items of each row and, when an item is left out, the best one left out
    width = min(k + 1, m2)
    chosen = np.sort(np.argpartition(masked, m2 - width, axis=1)[:, m2 - width :], axis=1)
    rows = np.arange(n_rows)[:, None]
    # in index order, so a stable sort by descending score breaks ties by ascending index
    chosen = chosen[rows, np.argsort(-masked[rows, chosen], axis=1, kind="stable")]
    values = masked[rows, chosen]
    # all zero: no kept score above 0, and no nonzero but the -inf over a left-out zero
    maybe = np.flatnonzero(values[:, 0] <= 0)
    zero = int(np.count_nonzero(np.count_nonzero(masked[maybe], axis=1) == zeros_left[maybe]))
    items, top = chosen[:, :k], values[:, :k]
    # the K-th best ties with an item left out, which may have the lower index
    ties = (np.flatnonzero((values[:, k - 1] == values[:, k]) & (values[:, k] > -np.inf))
            if width > k else [])
    for i in ties:
        best = np.argsort(-masked[i], kind="stable")[:k]
        items[i], top[i] = best, masked[i, best]
    items[top == -np.inf] = -1
    log["zero_score_users"] = log.get("zero_score_users", 0) + zero
    log["whole_row_sorts"] = log.get("whole_row_sorts", 0) + len(ties)
    return items, top


# --- model container (`popsi.data`'s layout): row-major float64 W, H, then the cores ---


def save_model(model: PreferenceModel, path) -> None:
    meta = {
        "m1": model.spaces.W.shape[0],
        "m2": model.spaces.H.shape[0],
        "r": model.spaces.r,
        "r_refined": model.spaces.H.shape[1],
        "p": model.p,
        "use_si": model.use_si,
        "use_pop": model.use_pop,
        "behavior_labels": model.behavior_labels,
        "n_cores": len(model.cores),
        "core_shapes": [list(c.shape) for c in model.cores],
        "trained_on": model.trained_on,
    }
    arrays = [model.spaces.W, model.spaces.H, *model.cores]
    _write_container(path, "model", meta, [np.asarray(a, dtype="<f8") for a in arrays])


def load_model(path) -> PreferenceModel:
    """Read what `save_model` writes; any other file or metadata is a ValueError naming `path`."""
    def build(m, a):
        def kinds(x):  # JSON `x` with each scalar replaced by its type
            return ({k: kinds(v) for k, v in x.items()} if type(x) is dict
                    else [kinds(v) for v in x] if type(x) is list else type(x))

        fields = [m["behavior_labels"], m["p"], m["use_si"], m["use_pop"], m.get("trained_on")]
        record = {"split": {"ratios": [float] * 3, "rng_seed": int}, "train_sha256": str}
        want = [[str] * m["n_cores"], float, bool, bool, record if fields[4] else type(None)]
        if kinds(fields) != want or m["core_shapes"] != [[m["r"], m["r_refined"]]] * m["n_cores"]:
            raise ValueError("model metadata of other types or shapes than save_model writes")
        return PreferenceModel(FeatureSpaces(*a[:2]), a[2:], *fields)

    return _read_container(path, "model", lambda m: [
        ("<f8", s) for s in [(m["m1"], m["r"]), (m["m2"], m["r_refined"]), *m["core_shapes"]]],
        build)
