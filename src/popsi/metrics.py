"""Ranking metrics: Recall@K, NDCG@K, Spearman correlation, and the PRI bias score."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from popsi.data import InteractionTensor, item_popularity
from popsi.model import _timed, rank_items

SCORE_BLOCK = 1 << 17  # scores per evaluation block (1 MB of float64) up to 4,096 items


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


def _user_mean(values: np.ndarray, n_users: int) -> float:
    total = 0.0
    for x in values.tolist():  # user by user, left to right, as acceptance 6's reference adds
        total += x
    return total / n_users


def _mean_metrics(items, pos_rows, pos_items, n_users: int, k_values: Sequence[int]):
    """Mean Recall@K and NDCG@K over n_users, as two dicts keyed by K.

    Row i of `items` ranks items for one user, padded at its end with -1;
    (pos_rows, pos_items) are the rows' sorted unique positives. Rows without
    positives and users without a row add 0.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    if min(k_values) < 1:
        raise ValueError(f"K must be >= 1, got {min(k_values)}")
    span = 1 + max(int(items.max(initial=0)), int(pos_items.max(initial=0)))
    # a sentinel above every query key keeps each searchsorted position in range
    keys = np.append(pos_rows * span + pos_items, len(items) * span)
    query = np.arange(len(items))[:, None] * span + items
    n_pos = np.bincount(pos_rows, minlength=len(items))
    rated = n_pos > 0
    hits = ((keys[np.searchsorted(keys, query)] == query) & (items >= 0))[rated]
    n_pos, lengths = n_pos[rated], np.count_nonzero(items[rated] >= 0, axis=1)
    most = int(n_pos.max(initial=0))
    width = max(items.shape[1], most)  # a longer K reads the same numbers as this one
    recall, ndcg = {}, {}
    for k in k_values:
        discounts = 1.0 / np.log2(np.arange(2, min(k, width) + 2))
        ideal = np.array([np.sum(discounts[:i]) for i in range(1, min(k, most) + 1)])
        gains = hits[:, :k] * discounts[: min(k, hits.shape[1])]
        lengths_k, dcg = np.minimum(lengths, k), np.empty(len(gains))
        # np.sum groups its additions by the length summed, so each row sums
        # over its own list, as a per-user np.sum would
        for n in np.flatnonzero(np.bincount(lengths_k)).tolist():
            dcg[lengths_k == n] = np.sum(gains[lengths_k == n, :n], axis=1)
        recall[k] = _user_mean(hits[:, :k].sum(axis=1) / n_pos, n_users)
        ndcg[k] = _user_mean(dcg / ideal[np.minimum(n_pos, k) - 1], n_users)
    return recall, ndcg


def _dict_metrics(rec_lists, test_positives, n_users: int, K: int) -> tuple[float, float]:
    """Recall@K and NDCG@K of per-user lists, in user order, through `_mean_metrics`."""
    users = sorted(test_positives)
    items = np.full((len(users), max(K, 0)), -1, dtype=np.int64)
    for row, u in zip(items, users):
        rec = list(rec_lists.get(u, ()))[:K]
        row[: len(rec)] = rec
    lists = [test_positives[u] for u in users]  # to sorted unique (row, item) pairs
    rows = np.repeat(np.arange(len(users)), [len(p) for p in lists])
    positives = np.fromiter(chain.from_iterable(lists), np.int64, len(rows))
    width = max(1, int(positives.max(initial=-1)) + 1)
    pairs = np.divmod(np.unique(rows * width + positives), width)
    recall, ndcg = _mean_metrics(items, *pairs, n_users, [K])
    return recall[K], ndcg[K]


def recall_at_k(
    rec_lists: Mapping[int, Sequence[int]],
    test_positives: Mapping[int, Sequence[int]],
    n_users: int,
) -> float:
    """Mean over all n_users of |R_u ∩ T_u| / |T_u|; empty-T_u users contribute 0."""
    unique = {u: list(dict.fromkeys(rec)) for u, rec in rec_lists.items()}
    return _dict_metrics(unique, test_positives, n_users, max([1, *map(len, unique.values())]))[0]


def ndcg_at_k(
    rec_lists: Mapping[int, Sequence[int]],
    test_positives: Mapping[int, Sequence[int]],
    n_users: int,
    K: int,
) -> float:
    """Mean NDCG@K with binary relevance; IDCG uses min(|T_u|, K) leading ones."""
    return _dict_metrics(rec_lists, test_positives, n_users, K)[1]


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


def ranked_blocks(score_fn: Callable[[np.ndarray], np.ndarray], users: np.ndarray, K: int,
                  train: InteractionTensor, log: dict) -> Iterator[tuple]:
    """Score and rank `users` in blocks of SCORE_BLOCK scores, or 16 to 32 users past 4,096 items.

    Yields `(start, scores, items, top)` for users[start : start + len(scores)]:
    their score rows from `score_fn`, each user's target entries in `train`
    set to -inf by `rank_items`, and their lists (at most m2 long). `log` gets
    `rank_items`'s counts, and the seconds spent scoring and ranking are
    added to `log["seconds"]["score"]` and `["rank"]`.
    """
    seconds = log.setdefault("seconds", {})
    rows = max(1, SCORE_BLOCK >> 13, SCORE_BLOCK // train.m2,  # per-call cost swamps tiny blocks
               min(SCORE_BLOCK >> 12, (SCORE_BLOCK << 2) // train.m2))  # 32 users up to 4 MB
    for start in range(0, len(users), rows):
        with _timed(seconds, "score"):
            scores = score_fn(users[start : start + rows])
        with _timed(seconds, "rank"):
            items, top = rank_items(scores, users[start : start + rows], K, train, log)
        yield start, scores, items, top


def evaluate(
    score_fn: Callable[[np.ndarray], np.ndarray],
    held: np.ndarray,
    train: InteractionTensor,
    k_values: Sequence[int],
    config: dict | None = None,
    log: dict | None = None,
) -> EvalReport:
    """Run the full metric suite for one block scorer against held-out entries.

    `held` holds N x 3 (u, v, k) entries, unique and sorted by (u, v), as
    `HoldoutSets.val`/`test` do; its users are scored once, by `ranked_blocks`,
    and the top-K lists and the PRI rank quantiles come from the same block.
    The training tensor `train` gives the rest: the means run over its m1
    users, PRI reads its target-slice item counts, and each user's target
    entries in it are removed from the user's candidates before ranking (PRI
    ranks only within Pos_u and ignores them). When `log` is given it gets the
    seconds spent in each stage (`seconds`), the zero-score users, the
    whole-row sorts and the users PRI skips.
    """
    seconds = dict.fromkeys(("score", "rank", "metrics", "pri"), 0.0)
    stats = {"zero_score_users": 0, "whole_row_sorts": 0, "seconds": seconds}
    test_users, pos_rows = np.unique(held[:, 0].astype(np.int64), return_inverse=True)
    pos_items = held[:, 1].astype(np.int64)
    items, pos_scores = np.empty((0, 0), dtype=np.int64), np.empty(len(pos_rows))
    blocks = ranked_blocks(score_fn, test_users, max(k_values), train, stats)
    for start, scores, ranked, _ in blocks:
        if start == 0:  # the lists' width is rank_items's to decide
            items = np.empty((len(test_users), ranked.shape[1]), dtype=np.int64)
        items[start : start + len(ranked)] = ranked
        a, b = np.searchsorted(pos_rows, [start, start + len(ranked)])
        pos_scores[a:b] = scores[pos_rows[a:b] - start, pos_items[a:b]]

    with _timed(seconds, "metrics"):
        recall, ndcg = _mean_metrics(items, pos_rows, pos_items, train.m1, k_values)
    with _timed(seconds, "pri"):
        quantiles = avg_rank_quantiles(test_users[pos_rows], pos_items, pos_scores)
        skipped = int(np.count_nonzero(np.bincount(pos_rows, minlength=len(test_users)) < 2))
        try:
            pri_value = pri(quantiles, item_popularity(train))
        except ValueError:
            pri_value = None
    if log is not None:
        log.update(stats, users_skipped_pri=skipped)
    return EvalReport(recall, ndcg, pri_value, train.m1, skipped, config or {})
