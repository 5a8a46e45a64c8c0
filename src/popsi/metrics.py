"""Ranking metrics: Recall@K, NDCG@K, Spearman correlation, and the PRI bias score."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from popsi.data import InteractionTensor
from popsi.model import rank_items

SCORE_BLOCK = 1 << 20  # scores per evaluation block: 8 MB of float64


@dataclass
class EvalReport:
    recall: dict[int, float]
    ndcg: dict[int, float]
    pri: float | None
    users_evaluated: int
    users_skipped_pri: int
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {}
        for k in sorted(self.recall):
            out[f"recall_at_{k}"] = self.recall[k]
        for k in sorted(self.ndcg):
            out[f"ndcg_at_{k}"] = self.ndcg[k]
        out["pri"] = self.pri
        out["users_evaluated"] = self.users_evaluated
        out["users_skipped_pri"] = self.users_skipped_pri
        out["config"] = self.config
        return out


def recall_at_k(
    rec_lists: Mapping[int, Sequence[int]],
    test_positives: Mapping[int, Sequence[int]],
    n_users: int,
) -> float:
    """Mean over all n_users of |R_u@K ∩ T_u| / |T_u|; empty-T_u users contribute 0."""
    if n_users < 1:
        raise ValueError("need at least one user")
    total = 0.0
    for u, positives in test_positives.items():
        if not positives:
            continue
        hits = len(set(rec_lists.get(u, ())) & set(positives))
        total += hits / len(positives)
    return total / n_users


def ndcg_at_k(
    rec_lists: Mapping[int, Sequence[int]],
    test_positives: Mapping[int, Sequence[int]],
    n_users: int,
    K: int,
) -> float:
    """Mean NDCG@K with binary relevance; IDCG uses min(|T_u|, K) leading ones."""
    if n_users < 1:
        raise ValueError("need at least one user")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    discounts = 1.0 / np.log2(np.arange(2, K + 2))
    total = 0.0
    for u, positives in test_positives.items():
        if not positives:
            continue
        pos = set(positives)
        rel = np.array([1.0 if v in pos else 0.0 for v in rec_lists.get(u, ())[:K]])
        dcg = float(np.sum(rel * discounts[: len(rel)]))
        ideal = min(len(pos), K)
        idcg = float(np.sum(discounts[:ideal]))
        total += dcg / idcg
    return total / n_users


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, ties sharing the mean of their positions."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.r_[True, xs[1:] != xs[:-1]]
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = ((starts + ends + 1) / 2)[np.cumsum(first) - 1]
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("spearman needs two equal-length vectors of length >= 2")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValueError("spearman is undefined for a constant vector")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def avg_rank_quantiles(
    users: np.ndarray, items: np.ndarray, scores: np.ndarray
) -> dict[int, float]:
    """Average rank-position quantile of each item within the Pos_u sets containing it.

    Triple i says that items[i] is in Pos_{users[i]} with score scores[i]; a
    (user, item) pair appears at most once. Rank is 1-based among Pos_u under
    descending score (ties by ascending item index); quantile = rank / |Pos_u|.
    Users with fewer than two positives carry no ranking signal and are skipped.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    order = np.lexsort((items, -np.asarray(scores, dtype=float), users))
    users, items = users[order], items[order]
    _, starts, sizes = np.unique(users, return_index=True, return_counts=True)
    n = np.repeat(sizes, sizes)
    rank = np.arange(len(users)) - np.repeat(starts, sizes) + 1
    keep = n >= 2
    # bincount adds in array order, i.e. user by user as a per-user loop would
    sums = np.bincount(items[keep], weights=rank[keep] / n[keep])
    counts = np.bincount(items[keep])
    rated = np.flatnonzero(counts)
    return dict(zip(rated.tolist(), (sums[rated] / counts[rated]).tolist()))


def pri(quantiles: Mapping[int, float], pop_counts: np.ndarray) -> float:
    """Negative Spearman correlation between item popularity and average rank quantile."""
    items = sorted(quantiles)
    if len(items) < 2:
        raise ValueError("PRI needs at least 2 items with rank quantiles")
    pops = [float(pop_counts[v]) for v in items]
    ranks = [quantiles[v] for v in items]
    return -spearman(pops, ranks)


def evaluate(
    score_fn: Callable[[np.ndarray], np.ndarray],
    test_positives: Mapping[int, Sequence[int]],
    n_users: int,
    pop_counts: np.ndarray,
    k_values: Sequence[int] = (20, 50),
    exclude: InteractionTensor | None = None,
    config: dict | None = None,
) -> EvalReport:
    """Run the full metric suite for one block scorer against held-out positives.

    `score_fn(users)` returns one score row per user of an index array; the
    test users are scored once, in blocks of about SCORE_BLOCK scores, and
    the top-K lists and the PRI rank quantiles come from the same block.
    The target entries of each user in `exclude` (the training tensor) are
    removed from the user's candidates before ranking (PRI ranks only within
    Pos_u and ignores it).
    """
    k_max = max(k_values)
    test_users = np.array(sorted(test_positives), dtype=np.int64)
    rows = max(1, SCORE_BLOCK // len(pop_counts))
    rec_lists: dict[int, list[int]] = {}
    pri_users, pri_items, pri_scores = [], [], []  # one (user, item, score) per positive
    for start in range(0, len(test_users), rows):
        block = test_users[start : start + rows]
        scores = score_fn(block)
        for rec in rank_items(scores, block, k_max, exclude):
            rec_lists[rec.user] = rec.items
        for i, u in enumerate(block.tolist()):
            pos = sorted(set(test_positives[u]))
            pri_users += [u] * len(pos)
            pri_items += pos
            pri_scores += scores[i, pos].tolist()

    recall = {k: recall_at_k({u: r[:k] for u, r in rec_lists.items()}, test_positives, n_users)
              for k in k_values}
    ndcg = {k: ndcg_at_k(rec_lists, test_positives, n_users, k) for k in k_values}

    quantiles = avg_rank_quantiles(pri_users, pri_items, pri_scores)
    n_pri_users = sum(1 for pos in test_positives.values() if len(pos) >= 2)
    skipped = len(test_positives) - n_pri_users
    try:
        pri_value = pri(quantiles, pop_counts)
    except ValueError:
        pri_value = None
    return EvalReport(recall, ndcg, pri_value, n_users, skipped, config or {})
