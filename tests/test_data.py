import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popsi.data import (
    SplitSpec,
    build_tensor,
    item_popularity,
    parse_interactions,
    read_coordinate_triples,
    split_holdout,
    write_coordinate_triples,
)

LABELS = ["purchase", "click"]


def _tensor(lines, labels=LABELS):
    return build_tensor(parse_interactions(lines, labels), labels)


def test_parse_basic_line():
    log = parse_interactions(["u1,i1,purchase,100"], LABELS)
    assert log.entries.tolist() == [[0, 0, 0]]
    assert log.user_tokens == ["u1"] and log.item_tokens == ["i1"]
    assert log.malformed == 0 and log.unknown_behavior == 0


def test_parse_empty_input():
    log = parse_interactions([], LABELS)
    assert log.entries.shape == (0, 3)
    assert log.user_tokens == [] and log.item_tokens == []
    assert log.malformed == 0 and log.unknown_behavior == 0


def test_parse_unknown_behavior_skipped():
    log = parse_interactions(["u1,i1,swipe,5"], LABELS)
    assert len(log.entries) == 0 and log.user_tokens == []
    assert log.unknown_behavior == 1


def test_parse_malformed_counted():
    log = parse_interactions(["u1,i1", ",i1,purchase", "u2,i2,purchase"], LABELS)
    assert len(log.entries) == 1 and log.user_tokens == ["u2"]
    assert log.malformed == 2


def test_parse_header_and_delimiter():
    lines = ["user\titem\tbehavior", "u1\ti1\tclick"]
    log = parse_interactions(lines, LABELS, delimiter="\t", has_header=True)
    assert log.entries.tolist() == [[0, 0, 1]]
    assert log.user_tokens == ["u1"] and log.item_tokens == ["i1"]


def test_build_tensor_binarizes_duplicates():
    tensor = _tensor(["u1,i1,purchase"] * 3)
    assert tensor.target.nnz == 1
    assert tensor.target[0, 0] == 1.0


def test_build_tensor_dims_and_counts():
    log = parse_interactions(["u1,i1,purchase", "u1,i2,click", "u2,i1,click", "u2,i2,purchase"],
                             LABELS)
    tensor = build_tensor(log, LABELS)
    assert tensor.dims == (2, 2, 2)
    assert tensor.nnz() == 4
    assert log.user_tokens[0] == "u1" and log.item_tokens[1] == "i2"


def test_build_tensor_rejects_empty():
    with pytest.raises(ValueError):
        _tensor([])


def _lines_grid(n_users, n_items):
    return [f"u{u},i{v},purchase" for u in range(n_users) for v in range(n_items)]


# --- parse + build against a plain dict/set reading of the log ---

_FIELD = st.sampled_from(["u1", "u2", " u3 ", "i1", "i2", "", "  "])
_BEHAVIOR = st.sampled_from(["purchase", " click", "swipe", "", "Purchase"])
_TIMESTAMP = st.sampled_from(["100", " 7 ", "-3", "", " ", "x1", "1.5", "+4"])
_LINE = st.one_of(
    st.tuples(_FIELD, _FIELD, _BEHAVIOR).map(",".join),
    st.tuples(_FIELD, _FIELD, _BEHAVIOR, _TIMESTAMP).map(",".join),
    st.tuples(_FIELD, _FIELD, _BEHAVIOR, _TIMESTAMP, _FIELD).map(",".join),
    st.lists(_FIELD, max_size=2).map(",".join),  # short lines, blank lines
)


def _reference_parse(lines, labels):
    """Tokens in first-appearance order, skip counts and the set of (u, v) per label."""
    users, items = {}, {}
    slices = {b: set() for b in labels}
    malformed = unknown = 0
    for line in lines:
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 3 or not fields[0] or not fields[1]:
            malformed += 1
            continue
        if fields[2] not in slices:
            unknown += 1
            continue
        if len(fields) > 3 and fields[3]:
            try:
                int(fields[3])
            except ValueError:
                malformed += 1
                continue
        u = users.setdefault(fields[0], len(users))
        v = items.setdefault(fields[1], len(items))
        slices[fields[2]].add((u, v))
    return list(users), list(items), malformed, unknown, [slices[b] for b in labels]


@settings(deadline=None, max_examples=200)
@given(lines=st.lists(_LINE, max_size=30).flatmap(
    lambda base: st.lists(st.sampled_from(base), max_size=40) if base else st.just([])))
def test_parse_and_build_match_reference(lines):
    users, items, malformed, unknown, slices = _reference_parse(lines, LABELS)
    log = parse_interactions(lines, LABELS)
    assert (log.user_tokens, log.item_tokens) == (users, items)
    assert (log.malformed, log.unknown_behavior) == (malformed, unknown)
    if not users:
        with pytest.raises(ValueError, match="zero records"):
            build_tensor(log, LABELS)
        return
    tensor = build_tensor(log, LABELS)
    assert tensor.dims == (len(users), len(items), len(LABELS))
    for s, expected in zip(tensor.slices, slices):
        coo = s.tocoo()
        assert set(zip(coo.row.tolist(), coo.col.tolist())) == expected
        assert s.nnz == len(expected) and np.all(s.data == 1.0)


def test_split_counts_floor_rule():
    # 10 target entries at (.8,.1,.1) -> 8/1/1
    tensor = _tensor(_lines_grid(2, 5))
    hold = split_holdout(tensor, SplitSpec((0.8, 0.1, 0.1), rng_seed=7))
    n_val = sum(len(v) for v in hold.val_positives.values())
    n_test = sum(len(v) for v in hold.test_positives.values())
    assert (hold.train.target.nnz, n_val, n_test) == (8, 1, 1)


def test_split_degenerate_all_train():
    tensor = _tensor(_lines_grid(2, 3))
    hold = split_holdout(tensor, SplitSpec((1.0, 0.0, 0.0), rng_seed=0))
    assert hold.train.target.nnz == 6
    assert hold.val_positives == {} and hold.test_positives == {}


def test_split_deterministic():
    tensor = _tensor(_lines_grid(3, 4))
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
    tensor = _tensor([f"u{u},i{v},purchase" for u, v in entries], ["purchase"])
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
    tensor = _tensor(["u1,i1,purchase", "u2,i1,purchase", "u3,i1,purchase", "u1,i2,purchase"],
                     ["purchase"])
    pop = item_popularity(tensor.target)
    assert pop.tolist() == [3, 1]
    assert pop.sum() == tensor.target.nnz


def test_coordinate_triple_roundtrip(tmp_path):
    tensor = _tensor(_lines_grid(3, 3))
    path = tmp_path / "tensor.txt"
    write_coordinate_triples(tensor, path)
    back = read_coordinate_triples(path)
    assert back.dims == tensor.dims
    assert back.behavior_labels == tensor.behavior_labels
    for a, b in zip(tensor.slices, back.slices):
        assert (a != b).nnz == 0


def test_build_tensor_rejects_repeated_or_empty_label():
    log = parse_interactions(_lines_grid(3, 3), LABELS)
    with pytest.raises(ValueError, match="distinct"):
        build_tensor(log, ["purchase", "purchase", "click"])
    with pytest.raises(ValueError, match="non-empty"):
        build_tensor(log, ["purchase", "", "click"])
    with pytest.raises(ValueError, match="whitespace"):
        build_tensor(log, ["purchase", "add to cart"])


@pytest.fixture
def tensor_file(tmp_path):
    tensor = _tensor(_lines_grid(3, 3))
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
        ("0 0\n0 1 1 1", "expected 'u v k' integers"),  # 6 integers, but not 2 entries
    ],
    ids=["behavior", "row", "negative-col", "short", "short-then-long"],
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


def test_read_triples_accepts_comments_and_blank_lines(tensor_file):
    path = tensor_file
    want = read_coordinate_triples(path)
    dims, labels, *entries = path.read_text().splitlines()
    path.write_text("\n".join([labels, "# a comment", dims, ""] + entries[::-1]) + "\n\n")
    back = read_coordinate_triples(path)
    assert (back.dims, back.behavior_labels) == (want.dims, want.behavior_labels)
    for a, b in zip(want.slices, back.slices):
        assert (a != b).nnz == 0


@pytest.mark.filterwarnings("error")  # a valid file without entries reads without a warning
def test_read_triples_header_only(tmp_path):
    path = tmp_path / "tensor.txt"
    path.write_text("# dims 2 3 1\n# behaviors purchase\n")
    tensor = read_coordinate_triples(path)
    assert tensor.dims == (2, 3, 1) and tensor.nnz() == 0
