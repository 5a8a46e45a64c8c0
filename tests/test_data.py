import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popsi.data import (
    InteractionRecord,
    SplitSpec,
    build_tensor,
    item_popularity,
    parse_interactions,
    read_coordinate_triples,
    split_holdout,
    write_coordinate_triples,
)

LABELS = ["purchase", "click"]


def test_parse_basic_line():
    records, stats = parse_interactions(["u1,i1,purchase,100"], LABELS)
    assert records == [InteractionRecord("u1", "i1", "purchase", 100)]
    assert stats.n_malformed == 0 and stats.n_unknown_behavior == 0


def test_parse_empty_input():
    records, stats = parse_interactions([], LABELS)
    assert records == []
    assert stats.n_malformed == 0 and stats.n_unknown_behavior == 0


def test_parse_unknown_behavior_skipped():
    records, stats = parse_interactions(["u1,i1,swipe,5"], LABELS)
    assert records == []
    assert stats.n_unknown_behavior == 1


def test_parse_malformed_counted():
    records, stats = parse_interactions(["u1,i1", ",i1,purchase", "u2,i2,purchase"], LABELS)
    assert len(records) == 1
    assert stats.n_malformed == 2


def test_parse_header_and_delimiter():
    lines = ["user\titem\tbehavior", "u1\ti1\tclick"]
    records, _ = parse_interactions(lines, LABELS, delimiter="\t", has_header=True)
    assert records == [InteractionRecord("u1", "i1", "click", None)]


def test_build_tensor_binarizes_duplicates():
    records = [InteractionRecord("u1", "i1", "purchase")] * 3
    tensor, users, items = build_tensor(records, LABELS)
    assert tensor.target.nnz == 1
    assert tensor.target[0, 0] == 1.0


def test_build_tensor_dims_and_counts():
    records = [
        InteractionRecord("u1", "i1", "purchase"),
        InteractionRecord("u1", "i2", "click"),
        InteractionRecord("u2", "i1", "click"),
        InteractionRecord("u2", "i2", "purchase"),
    ]
    tensor, users, items = build_tensor(records, LABELS)
    assert tensor.dims == (2, 2, 2)
    assert tensor.nnz() == 4
    assert users.token_of(0) == "u1" and items.token_of(1) == "i2"


def test_build_tensor_rejects_empty():
    with pytest.raises(ValueError):
        build_tensor([], LABELS)


def _records_grid(n_users, n_items):
    recs = []
    for u in range(n_users):
        for v in range(n_items):
            recs.append(InteractionRecord(f"u{u}", f"i{v}", "purchase"))
    return recs


def test_split_counts_floor_rule():
    # 10 target entries at (.8,.1,.1) -> 8/1/1
    records = _records_grid(2, 5)
    tensor, _, _ = build_tensor(records, LABELS)
    hold = split_holdout(tensor, SplitSpec((0.8, 0.1, 0.1), rng_seed=7))
    n_val = sum(len(v) for v in hold.val_positives.values())
    n_test = sum(len(v) for v in hold.test_positives.values())
    assert (hold.train.target.nnz, n_val, n_test) == (8, 1, 1)


def test_split_degenerate_all_train():
    tensor, _, _ = build_tensor(_records_grid(2, 3), LABELS)
    hold = split_holdout(tensor, SplitSpec((1.0, 0.0, 0.0), rng_seed=0))
    assert hold.train.target.nnz == 6
    assert hold.val_positives == {} and hold.test_positives == {}


def test_split_deterministic():
    tensor, _, _ = build_tensor(_records_grid(3, 4), LABELS)
    spec = SplitSpec(rng_seed=42)
    a, b = split_holdout(tensor, spec), split_holdout(tensor, spec)
    assert (a.train.target != b.train.target).nnz == 0
    assert a.val_positives == b.val_positives
    assert a.test_positives == b.test_positives


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec((0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        SplitSpec((-0.1, 1.0, 0.1))


@settings(deadline=None, max_examples=40)
@given(
    entries=st.sets(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=3, max_size=40
    ),
    seed=st.integers(0, 1000),
)
def test_split_is_a_partition(entries, seed):
    records = [InteractionRecord(f"u{u}", f"i{v}", "purchase") for u, v in entries]
    tensor, _, _ = build_tensor(records, ["purchase"])
    hold = split_holdout(tensor, SplitSpec(rng_seed=seed))

    coo = tensor.target.tocoo()
    all_entries = set(zip(coo.row.tolist(), coo.col.tolist()))
    tr = hold.train.target.tocoo()
    train_set = set(zip(tr.row.tolist(), tr.col.tolist()))
    val_set = {(u, v) for u, vs in hold.val_positives.items() for v in vs}
    test_set = {(u, v) for u, vs in hold.test_positives.items() for v in vs}

    assert train_set | val_set | test_set == all_entries
    assert not (train_set & val_set) and not (train_set & test_set) and not (val_set & test_set)
    # binarity
    assert np.all(hold.train.target.data == 1.0)


def test_item_popularity_column_counts():
    records = [
        InteractionRecord("u1", "i1", "purchase"),
        InteractionRecord("u2", "i1", "purchase"),
        InteractionRecord("u3", "i1", "purchase"),
        InteractionRecord("u1", "i2", "purchase"),
    ]
    tensor, _, _ = build_tensor(records, ["purchase"])
    pop = item_popularity(tensor.target)
    assert pop.tolist() == [3, 1]
    assert pop.sum() == tensor.target.nnz


def test_coordinate_triple_roundtrip(tmp_path):
    tensor, _, _ = build_tensor(_records_grid(3, 3), LABELS)
    path = tmp_path / "tensor.txt"
    write_coordinate_triples(tensor, path)
    back = read_coordinate_triples(path)
    assert back.dims == tensor.dims
    assert back.behavior_labels == tensor.behavior_labels
    for a, b in zip(tensor.slices, back.slices):
        assert (a != b).nnz == 0


def test_build_tensor_rejects_repeated_or_empty_label():
    records = _records_grid(3, 3)
    with pytest.raises(ValueError, match="distinct"):
        build_tensor(records, ["purchase", "purchase", "click"])
    with pytest.raises(ValueError, match="non-empty"):
        build_tensor(records, ["purchase", "", "click"])


@pytest.fixture
def tensor_file(tmp_path):
    tensor, _, _ = build_tensor(_records_grid(3, 3), LABELS)
    path = tmp_path / "tensor.txt"
    write_coordinate_triples(tensor, path)
    return path


@pytest.mark.parametrize(
    "entry, message",
    [
        ("0 0 2", "outside dims"),  # behavior index = n
        ("999999 0 0", "outside dims"),
        ("0 -1 1", "outside dims"),
        ("0 0", "expected 'u v k' integers"),
    ],
    ids=["behavior", "row", "negative-col", "short"],
)
def test_read_triples_rejects_bad_entry(tensor_file, entry, message):
    path = tensor_file
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [entry]) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:{len(lines) + 1}: .*{message}"):
        read_coordinate_triples(path)


def test_read_triples_rejects_label_count_mismatch(tensor_file):
    path = tensor_file
    text = path.read_text().replace("# behaviors purchase click", "# behaviors purchase")
    path.write_text(text)
    message = "1 behavior labels for 2 behaviors"
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:2: {message}"):
        read_coordinate_triples(path)


def test_read_triples_rejects_entry_before_dims(tensor_file):
    path = tensor_file
    path.write_text("0 0 0\n" + path.read_text())
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:1: entry before"):
        read_coordinate_triples(path)
