import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from popsi import metrics
from popsi.data import InteractionTensor
from popsi.metrics import (
    _average_ranks,
    avg_rank_quantiles,
    evaluate,
    ndcg_at_k,
    pri,
    ranked_blocks,
    recall_at_k,
    spearman,
)
from popsi.model import rank_items


# --- brute-force reference implementations, kept independent of the library ---


def ref_recall(rec_lists, positives, n_users):
    # a plain left-to-right loop: from Python 3.12 on, sum() of floats is compensated
    total = 0.0
    for u in range(n_users):
        t = positives.get(u, [])
        if t:
            total += sum(1 for v in rec_lists.get(u, []) if v in t) / len(t)
    return total / n_users


def ref_ndcg(rec_lists, positives, n_users, K):
    vals = []
    for u in range(n_users):
        t = positives.get(u, [])
        if not t:
            vals.append(0.0)
            continue
        dcg = 0.0
        for i, v in enumerate(rec_lists.get(u, [])[:K]):
            if v in t:
                dcg += (2**1 - 1) / math.log2(i + 2)
        idcg = sum(1.0 / math.log2(i + 2) for i in range(min(len(t), K)))
        vals.append(dcg / idcg)
    return sum(vals) / n_users


def ref_ranks_average_ties(xs):
    n = len(xs)
    ranks = [0.0] * n
    for i in range(n):
        less = sum(1 for x in xs if x < xs[i])
        equal = sum(1 for x in xs if x == xs[i])
        ranks[i] = less + (equal + 1) / 2
    return ranks


def ref_spearman(xs, ys):
    rx, ry = ref_ranks_average_ties(xs), ref_ranks_average_ties(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


# --- recall ---


def test_recall_perfect_hit():
    assert recall_at_k({0: [1, 2]}, {0: [1]}, 1) == 1.0


def test_recall_total_miss():
    assert recall_at_k({0: [3, 4]}, {0: [1, 2]}, 1) == 0.0


def test_recall_two_user_average():
    rec = {0: [1, 2], 1: [3, 9]}
    pos = {0: [1, 2], 1: [3, 4]}
    assert recall_at_k(rec, pos, 2) == pytest.approx(0.75)


def test_recall_empty_positives_count_in_denominator():
    # user 1 has no test positives but still divides the mean
    assert recall_at_k({0: [1]}, {0: [1], 1: []}, 2) == pytest.approx(0.5)


# --- ndcg ---


def test_ndcg_ideal_ranking():
    assert ndcg_at_k({0: [1, 2]}, {0: [1, 2]}, 1, K=2) == pytest.approx(1.0)


def test_ndcg_hand_example():
    # rel pattern [1,0,1] with |T|=2: (1 + 0.5) / (1 + 1/log2(3))
    value = ndcg_at_k({0: [5, 9, 6]}, {0: [5, 6]}, 1, K=3)
    expected = (1.0 + 1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))
    assert value == pytest.approx(expected, abs=1e-12)
    assert round(value, 4) == 0.9197


def test_ndcg_no_hits():
    assert ndcg_at_k({0: [7, 8]}, {0: [1]}, 1, K=2) == 0.0


def test_ndcg_moving_hit_earlier_never_decreases():
    worse = ndcg_at_k({0: [9, 9, 5]}, {0: [5]}, 1, K=3)
    better = ndcg_at_k({0: [5, 9, 9]}, {0: [5]}, 1, K=3)
    assert better >= worse


# --- spearman ---


def test_spearman_perfect_monotone():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_ties_match_oracle():
    xs, ys = [1.0, 1.0, 2.0], [3.0, 5.0, 4.0]
    assert spearman(xs, ys) == pytest.approx(ref_spearman(xs, ys), abs=1e-12)


def test_spearman_constant_vector_error():
    with pytest.raises(ValueError):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1, 2], [5])


@settings(deadline=None, max_examples=200)
@given(
    xs=st.one_of(
        st.lists(st.integers(-3, 3), min_size=1, max_size=60),
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=5).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
        ),
    )
)
def test_average_ranks_match_oracle_exactly(xs):
    # tied values share exact halves, so no rounding separates the two
    assert _average_ranks(np.asarray(xs, dtype=float)).tolist() == ref_ranks_average_ties(xs)


@settings(deadline=None, max_examples=60)
@given(
    xs=st.lists(st.integers(-20, 20), min_size=3, max_size=12),
    seed=st.integers(0, 10_000),
)
def test_spearman_monotone_transform_invariance(xs, seed):
    rng = np.random.default_rng(seed)
    ys = rng.standard_normal(len(xs)).tolist()
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return
    base = spearman(xs, ys)
    # strictly increasing transform of xs preserves ranks
    transformed = [math.exp(0.3 * x) + 2 * x for x in xs]
    assert spearman(transformed, ys) == pytest.approx(base, abs=1e-12)


# --- avg rank quantiles / pri ---


def quantiles_of(score_rows, positives):
    """avg_rank_quantiles triples for per-user score rows and positive lists."""
    users, items, scores = [], [], []
    for u, pos in positives.items():
        users += [u] * len(pos)
        items += pos
        scores += [score_rows[u][v] for v in pos]
    return avg_rank_quantiles(users, items, scores)


def test_avg_rank_quantiles_two_items():
    scores = np.array([0.0, 0.9, 0.1])
    q = quantiles_of({0: scores}, {0: [1, 2]})
    assert q == {1: pytest.approx(0.5), 2: pytest.approx(1.0)}


def test_avg_rank_quantiles_averages_across_users():
    by_user = {
        0: np.array([0.9, 0.5, 0.3, 0.1]),  # item 0 at quantile 1/4
        1: np.array([0.4, 0.5, 0.9, 0.1]),  # item 0 at quantile 3/4
    }
    q = quantiles_of(by_user, {0: [0, 1, 2, 3], 1: [0, 1, 2, 3]})
    assert q[0] == pytest.approx(0.5)


def test_avg_rank_quantiles_skips_singletons():
    scores = np.array([1.0, 2.0])
    assert quantiles_of({0: scores}, {0: [1]}) == {}


def ref_avg_rank_quantiles(score_rows, positives):
    """Per-user dict loop: rank each Pos_u by (-score, item) and average rank/|Pos_u|."""
    sums, counts = {}, {}
    for u in sorted(positives):
        pos = sorted(set(positives[u]))
        if len(pos) < 2:
            continue
        order = sorted(pos, key=lambda v: (-score_rows[u][v], v))
        for rank, v in enumerate(order, start=1):
            sums[v] = sums.get(v, 0.0) + rank / len(pos)
            counts[v] = counts.get(v, 0) + 1
    return {v: sums[v] / counts[v] for v in sums}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_avg_rank_quantiles_matches_dict_loop(seed):
    rng = np.random.default_rng(seed)
    n_users, n_items = int(rng.integers(1, 12)), int(rng.integers(1, 10))
    # integer scores in a small range: many exact ties at every rank
    score_rows = {u: rng.integers(0, 3, n_items).astype(float) for u in range(n_users)}
    positives = {
        u: sorted(rng.permutation(n_items)[: rng.integers(0, n_items + 1)].tolist())
        for u in rng.permutation(n_users).tolist()
    }
    # same additions in the same order: equal to the last bit, not just close
    assert quantiles_of(score_rows, positives) == ref_avg_rank_quantiles(score_rows, positives)


def test_pri_perfect_alignment():
    quantiles = {0: 0.2, 1: 0.5, 2: 0.9}
    pop = np.array([10, 5, 1])
    assert pri(quantiles, pop) == pytest.approx(1.0)
    quantiles_inv = {0: 0.9, 1: 0.5, 2: 0.2}
    assert pri(quantiles_inv, pop) == pytest.approx(-1.0)


def test_pri_requires_two_items():
    with pytest.raises(ValueError):
        pri({0: 0.5}, np.array([1, 2]))


def test_pri_reads_a_list_as_an_int_array():
    """The popularities are read with one index, whatever sequence holds them; the result
    is the float of a per-item lookup."""
    quantiles = {5: 0.5, 0: 0.3, 3: 0.1, 2: 0.7}
    pop = [4, 9, 1, 4, 7, 2]
    items = sorted(quantiles)
    per_item = -spearman([float(pop[v]) for v in items], [quantiles[v] for v in items])
    assert pri(quantiles, pop) == pri(quantiles, np.array(pop)) == per_item


def test_user_mean_adds_left_to_right():
    """Bit for bit the loop of the acceptance references, on values where np.sum's pairwise
    additions round otherwise; no values mean 0."""
    values = np.array([1.0] + [1e-16] * 15)
    total = 0.0
    for x in values.tolist():
        total += x
    assert np.sum(values) != total
    assert metrics._user_mean(values, 3) == total / 3
    assert metrics._user_mean(np.empty(0), 4) == 0.0


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 100_000))
def test_metrics_match_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(1, 11))
    n_items = int(rng.integers(2, 16))
    K = int(rng.integers(1, n_items + 1))
    rec_lists, positives = {}, {}
    for u in range(n_users):
        rec_lists[u] = rng.permutation(n_items)[:K].tolist()
        n_pos = int(rng.integers(0, min(5, n_items) + 1))
        positives[u] = sorted(rng.permutation(n_items)[:n_pos].tolist())
    r = recall_at_k(rec_lists, positives, n_users)
    assert r == ref_recall(rec_lists, positives, n_users)
    assert 0.0 <= r <= 1.0
    n = ndcg_at_k(rec_lists, positives, n_users, K)
    assert n == pytest.approx(ref_ndcg(rec_lists, positives, n_users, K), abs=1e-12)
    assert 0.0 <= n <= 1.0 + 1e-12


def ref_evaluate(scores, positives, train, n_users, pop, k_values):
    """evaluate's numbers computed user by user: lists from a stable sort of each
    whole row, recall from sets and each list's DCG from its own np.sum."""
    lists, triples = {}, ([], [], [])
    for u in sorted(positives):
        candidates = np.flatnonzero(train[u] == 0)
        order = np.argsort(-scores[u, candidates], kind="stable")
        lists[u] = candidates[order][: max(k_values)].tolist()
        pos = sorted(set(positives[u]))
        for part, values in zip(triples, ([u] * len(pos), pos, scores[u, pos].tolist())):
            part += values
    recall, ndcg = {}, {}
    for k in k_values:
        discounts = 1.0 / np.log2(np.arange(2, k + 2))
        total_r = total_n = 0.0
        for u in sorted(positives):
            pos = positives[u]
            if not pos:
                continue
            total_r += len(set(lists[u][:k]) & set(pos)) / len(pos)
            rel = np.array([1.0 if v in pos else 0.0 for v in lists[u][:k]])
            dcg = float(np.sum(rel * discounts[: len(rel)]))
            total_n += dcg / float(np.sum(discounts[: min(len(pos), k)]))
        recall[k], ndcg[k] = total_r / n_users, total_n / n_users
    try:
        pri_value = pri(avg_rank_quantiles(*triples), pop)
    except ValueError:
        pri_value = None
    return recall, ndcg, pri_value


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), block_rows=st.integers(1, 12))
def test_evaluate_matches_per_user_reference(seed, block_rows):
    rng = np.random.default_rng(seed)
    n_users, m2 = int(rng.integers(1, 25)), int(rng.integers(2, 40))
    # a few score levels make bitwise ties at the K-th score common
    levels = rng.standard_normal(int(rng.integers(1, 6)))
    scores = levels[rng.integers(0, len(levels), (n_users, m2))]
    scores[rng.random(n_users) < 0.2] = 0.0
    # some users keep fewer than K candidates after their training items go
    train = rng.random((n_users, m2)) < rng.random(n_users)[:, None]
    positives = {}
    for u in rng.permutation(n_users)[: int(rng.integers(0, n_users + 1))].tolist():
        free = np.flatnonzero(~train[u])
        positives[u] = rng.permutation(free)[: rng.integers(0, min(len(free), 6) + 1)].tolist()
    k_values = sorted({int(rng.integers(1, m2 + 5)), int(rng.integers(1, m2 + 5))})
    tensor = InteractionTensor(n_users, m2, [sp.csr_matrix(train.astype(float))], ["t"])
    pop = train.sum(axis=0)  # PRI reads the training tensor's item counts
    entries = sorted((u, v, 0) for u, vs in positives.items() for v in vs)
    held = np.array(entries, dtype=np.int32).reshape(-1, 3)  # sorted by (u, v), as a split's
    log = {}
    with mock.patch.object(metrics, "SCORE_BLOCK", block_rows * m2):
        report = evaluate(lambda users: scores[users], held, tensor, k_values, log=log)
    recall, ndcg, pri_value = ref_evaluate(scores, positives, train, n_users, pop, k_values)
    assert report.recall == recall
    assert report.ndcg == ndcg
    assert report.pri == pri_value
    # the held-out entries name the test users: one without an entry is not one
    skipped = sum(len(set(p)) == 1 for p in positives.values())
    assert report.users_skipped_pri == log["users_skipped_pri"] == skipped
    tested = sorted(u for u, p in positives.items() if p)
    assert log["zero_score_users"] == int(np.sum(~scores[tested].any(axis=1)))


def test_ranked_blocks_give_the_lists_of_one_rank_items_call():
    """For every block size, the blocks' rows, lists and counts are those of all users
    ranked at once, and each block comes back masked as that call masks its rows; the
    scorer is a lookup, so no product differs between block sizes."""
    rng = np.random.default_rng(5)
    n, m2, K = 9, 7, 4
    scores = rng.integers(-1, 2, (n, m2)).astype(float)  # bitwise ties are common
    scores[[2, 6]] = 0.0
    train = InteractionTensor(n, m2, [sp.csr_matrix(rng.random((n, m2)) < 0.3)], ["t"])
    users = rng.permutation(n)
    whole_log, masked = {}, scores[users]
    whole = rank_items(masked, users, K, train, whole_log)
    assert whole_log["zero_score_users"] == 2 and whole_log["whole_row_sorts"] > 0
    for rows in range(1, n + 1):
        log, starts = {}, []
        with mock.patch.object(metrics, "SCORE_BLOCK", rows * m2):
            blocks = list(ranked_blocks(lambda b: scores[b], users, K, train, log))
        for start, block, items, top in blocks:
            starts.append(start)
            assert np.array_equal(block, masked[start : start + len(block)])
            assert len(items) == len(top) == len(block) <= rows
        assert starts == list(range(0, n, rows))
        assert np.array_equal(np.concatenate([b[2] for b in blocks]), whole[0])
        assert np.array_equal(np.concatenate([b[3] for b in blocks]), whole[1])
        assert set(log.pop("seconds")) == {"score", "rank"}
        assert log == whole_log


def test_ranked_blocks_keep_32_users_past_4096_items():
    """At the default SCORE_BLOCK, 5,000 items would give blocks of 26 users; a block keeps
    32, so numpy's per-call cost does not swamp it. The lists are those of one call."""
    rng = np.random.default_rng(8)
    n, m2, K = 70, 5000, 5
    scores = rng.standard_normal((n, m2))
    train = InteractionTensor(n, m2, [sp.csr_matrix(rng.random((n, m2)) < 0.01)], ["t"])
    users = np.arange(n)
    blocks = list(ranked_blocks(lambda b: scores[b], users, K, train, {}))
    assert [len(block) for _, block, _, _ in blocks] == [32, 32, 6]
    whole = rank_items(scores, users, K, train, {})
    assert np.array_equal(np.concatenate([items for *_, items, _ in blocks]), whole[0])


@pytest.mark.parametrize("m2, sizes", [(20_000, [26, 8]), (40_000, [16, 16, 2])])
def test_ranked_blocks_hold_16_to_32_users_past_16384_items(m2, sizes):
    """Past 16,384 items 32 users outgrow 4 MB of scores: a block holds 4 MB of them, and
    never fewer than 16 users. The lists are those of one call."""
    rng = np.random.default_rng(9)
    n, K = sum(sizes), 5
    scores = rng.standard_normal((n, m2))
    train = InteractionTensor(n, m2, [sp.csr_matrix(rng.random((n, m2)) < 0.001)], ["t"])
    users = np.arange(n)
    blocks = list(ranked_blocks(lambda b: scores[b], users, K, train, {}))
    assert [len(block) for _, block, _, _ in blocks] == sizes
    whole = rank_items(scores, users, K, train, {})
    assert np.array_equal(np.concatenate([items for *_, items, _ in blocks]), whole[0])
