import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import with_metadata
from popsi import data as popsi_data
from popsi.data import (
    InteractionTensor,
    SplitSpec,
    _parse_regular,
    _sorted_unique,
    build_tensor,
    item_popularity,
    parse_interactions,
    read_coordinate_triples,
    read_tensor,
    split_holdout,
    write_coordinate_triples,
    write_tensor,
)

LABELS = ["purchase", "click"]


def _tensor(lines, labels=LABELS):
    return build_tensor(parse_interactions("\n".join(lines), labels), labels)


def test_parse_basic_line():
    log = parse_interactions("u1,i1,purchase,100", LABELS)
    assert log.entries.tolist() == [[0, 0, 0]]
    assert log.user_tokens == ["u1"] and log.item_tokens == ["i1"]
    assert log.malformed == 0 and log.unknown_behavior == 0


def test_parse_empty_input():
    log = parse_interactions("", LABELS)
    assert log.entries.shape == (0, 3)
    assert log.user_tokens == [] and log.item_tokens == []
    assert log.malformed == 0 and log.unknown_behavior == 0


def test_parse_unknown_behavior_skipped():
    log = parse_interactions("u1,i1,swipe,5", LABELS)
    assert len(log.entries) == 0 and log.user_tokens == []
    assert log.unknown_behavior == 1


def test_parse_malformed_counted():
    log = parse_interactions("\n".join(["u1,i1", ",i1,purchase", "u2,i2,purchase"]), LABELS)
    assert len(log.entries) == 1 and log.user_tokens == ["u2"]
    assert log.malformed == 2


def test_parse_header_and_delimiter():
    lines = ["user\titem\tbehavior", "u1\ti1\tclick"]
    log = parse_interactions("\n".join(lines), LABELS, delimiter="\t", has_header=True)
    assert log.entries.tolist() == [[0, 0, 1]]
    assert log.user_tokens == ["u1"] and log.item_tokens == ["i1"]


def test_build_tensor_binarizes_duplicates():
    tensor = _tensor(["u1,i1,purchase"] * 3)
    assert tensor.target.nnz == 1
    assert tensor.target[0, 0] == 1.0


def test_build_tensor_dims_and_counts():
    log = parse_interactions("\n".join(["u1,i1,purchase", "u1,i2,click", "u2,i1,click",
                                        "u2,i2,purchase"]), LABELS)
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
    log = _loop("\n".join(lines))
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


# --- the numpy fast path against the line loop ---


def _loop(text, labels=LABELS, **kwargs):
    """The line loop, the reference: `parse_interactions` with `_parse_regular` declining."""
    with mock.patch.object(popsi_data, "_parse_regular", return_value=None):
        return parse_interactions(text, labels, **kwargs)


def _assert_same_log(got, expected):
    assert got.entries.dtype == expected.entries.dtype == np.int64
    assert got.entries.shape == expected.entries.shape
    assert got.entries.tolist() == expected.entries.tolist()
    assert (got.user_tokens, got.item_tokens) == (expected.user_tokens, expected.item_tokens)
    assert (got.malformed, got.unknown_behavior) == (expected.malformed, expected.unknown_behavior)


_REGULAR = "u1,i1,purchase,100\nu2,i1,click,7\nu1,i2,click,42\n"


@pytest.mark.parametrize(
    "text, kwargs, regular",
    [
        (_REGULAR, {}, True),
        ("u1 ,i1,purchase,1\nu2, i2 ,click,2\n", {}, False),
        (_REGULAR.replace("\n", "\r\n"), {}, False),
        ("u\x0b1,i1,purchase,1\nu2,i1,click,2\n", {}, False),
        ("u\x1c1,i1,purchase,1\nu2,i1,click,2\n", {}, False),
        ("u\x851,i1,purchase,1\nu2,i1,click,2\n", {}, False),
        ("u1,i\xa01,purchase,1\nu2,i1,click,2\n", {}, False),
        ("u1,i1,purchase,1\n\nu2,i1,click,2\n", {}, False),
        ("user,item,behavior,time\n" + _REGULAR, {"has_header": True}, True),
        ("u1,i1,purchase\nu2,i1,click,2\n", {}, False),
        ("u1,i1,purchase,1,x\nu2,i1,click,2\n", {}, False),
        ("u1,i1,purchase,\nu2,i1,click,2\n", {}, True),
        ("u1,i1,purchase,+5\nu2,i1,click,2\n", {}, False),
        ("u1,i1,purchase,1_0\nu2,i1,click,2\n", {}, False),
        ("u1,i1,purchase,\xb2\nu2,i1,click,2\n", {}, False),
        ("u1,i1,purchase,\u0663\nu2,i1,click,2\n", {}, False),
        (_REGULAR.rstrip("\n"), {}, True),
        (_REGULAR.replace(",", "\t"), {"delimiter": "\t"}, True),
        (_REGULAR.replace(",", "::"), {"delimiter": "::"}, False),
        ("u1,i1,purchase,1\nu2,i1,swipe,2\n", {}, False),
        ("u1,i1,purchase,1\n,i1,click,2\n", {}, False),
        ("u1,i1,purchase,1\nu2,,click,2\n", {}, False),
        ("u1\ni1\npurchase\n1\n", {"delimiter": "\n"}, False),
        ("u1,i1,purchase\nu2,i1,click\nu1,i2,click\n", {}, True),
    ],
    ids=["regular", "spaces", "crlf", "vt", "fs", "nel", "nbsp", "blank-line", "header",
         "three-fields", "five-fields", "empty-timestamp", "plus-timestamp",
         "underscore-timestamp", "superscript-timestamp", "arabic-indic-timestamp",
         "no-final-newline", "tab", "two-char-delimiter", "unknown-behavior", "empty-user",
         "empty-item", "newline-delimiter", "regular-three-fields"],
)
def test_parse_text_matches_the_loop(text, kwargs, regular):
    expected = _loop(text, **kwargs)
    _assert_same_log(parse_interactions(text, LABELS, **kwargs), expected)
    body = text.partition("\n")[2] if kwargs.get("has_header") else text
    fast = _parse_regular(body, LABELS, kwargs.get("delimiter", ","))
    assert (fast is not None) == regular
    if regular:
        _assert_same_log(fast, expected)


def test_fast_path_matches_whole_labels():
    # numpy compares byte strings up to trailing zero bytes; the loop compares whole labels
    labels = ["purchase\x00", "click"]
    text = "u1,i1,purchase,1\nu2,i1,click,2\n"
    assert _parse_regular(text, labels, ",") is None
    _assert_same_log(parse_interactions(text, labels), _loop(text, labels))


_HAZARDS = ",\t \r\n\x00\x0b\x1c\x85\xa0\xb2\u0663+-_0123456789uvi"
_TOKEN = st.text(alphabet="uvi0123456789+-_", min_size=1, max_size=12)
_ROW4 = st.tuples(_TOKEN, _TOKEN, st.sampled_from(LABELS),
                  st.text(alphabet="0123456789", max_size=12)).map(list)
_ROW = st.one_of(_ROW4, _ROW4.map(lambda row: row[:3]))  # with a timestamp or without


@st.composite
def _row_with_a_hazard(draw):
    """A regular row with hazard characters inserted into one of its fields."""
    fields = draw(_ROW)
    f = draw(st.integers(0, len(fields) - 1))
    at = draw(st.integers(0, len(fields[f])))
    hazard = draw(st.text(alphabet=_HAZARDS, min_size=1, max_size=2))
    fields[f] = fields[f][:at] + hazard + fields[f][at:]
    return fields


_HAZARD_LINE = st.one_of(
    _ROW, _ROW, _ROW, _row_with_a_hazard(),
    st.lists(st.one_of(st.sampled_from(LABELS + ["swipe", ""]),
                       st.text(alphabet=_HAZARDS, max_size=10)), max_size=5),
)


@settings(deadline=None, max_examples=400)
@given(lines=st.lists(_HAZARD_LINE, max_size=12), delimiter=st.sampled_from([",", "\t"]),
       ends=st.sampled_from(["\n", "\r\n", ""]))
def test_fast_path_declines_or_matches_the_loop(lines, delimiter, ends):
    text = "\n".join(delimiter.join(fields) for fields in lines) + ends
    expected = _loop(text, delimiter=delimiter)
    fast = _parse_regular(text, LABELS, delimiter)
    if fast is not None:
        _assert_same_log(fast, expected)
    _assert_same_log(parse_interactions(text, LABELS, delimiter=delimiter), expected)


@settings(deadline=None, max_examples=200)
@given(
    rows=st.lists(_ROW4, min_size=1, max_size=30),
    fields=st.sampled_from([3, 4]),
    delimiter=st.sampled_from([",", "\t"]),
    final_newline=st.booleans(),
)
def test_fast_path_accepts_every_regular_log(rows, fields, delimiter, final_newline):
    # every line with a timestamp field, or every line without one
    text = "\n".join(delimiter.join(row[:fields]) for row in rows) + ("\n" if final_newline else "")
    fast = _parse_regular(text, LABELS, delimiter)
    assert fast is not None
    _assert_same_log(fast, _loop(text, delimiter=delimiter))


def test_split_counts_floor_rule():
    # 10 target entries at (.8,.1,.1) -> 8/1/1
    tensor = _tensor(_lines_grid(2, 5))
    hold = split_holdout(tensor, SplitSpec((0.8, 0.1, 0.1), rng_seed=7))
    assert (hold.train.target.nnz, len(hold.val), len(hold.test)) == (8, 1, 1)


def test_split_degenerate_all_train():
    tensor = _tensor(_lines_grid(2, 3))
    hold = split_holdout(tensor, SplitSpec((1.0, 0.0, 0.0), rng_seed=0))
    assert hold.train.target.nnz == 6
    assert hold.val.shape == hold.test.shape == (0, 3)
    assert hold.test_positives == {}


def test_split_deterministic():
    tensor = _tensor(_lines_grid(3, 4))
    spec = SplitSpec(rng_seed=42)
    a, b = split_holdout(tensor, spec), split_holdout(tensor, spec)
    assert (a.train.target != b.train.target).nnz == 0
    assert np.array_equal(a.val, b.val) and np.array_equal(a.test, b.test)
    assert a.test_positives == b.test_positives


def test_split_holds_sorted_held_out_entries():
    tensor = _tensor(_lines_grid(4, 5) + ["u0,i0,click", "u3,i4,click"])
    hold = split_holdout(tensor, SplitSpec((0.4, 0.3, 0.3), rng_seed=1))
    for held in (hold.val, hold.test):
        assert held.dtype == np.int32 and held.shape[1] == 3 and (held[:, 2] == 0).all()
        keys = held[:, 0] * tensor.m2 + held[:, 1]
        assert (np.diff(keys) > 0).all()  # unique and sorted by (u, v)
    # test_positives is the per-user form of `test`
    assert hold.test_positives == {
        u: [v for u2, v, _ in hold.test.tolist() if u2 == u] for u in set(hold.test[:, 0].tolist())
    }


def test_split_rejects_fewer_than_three_target_entries():
    tensor = _tensor(_lines_grid(1, 2))
    with pytest.raises(ValueError, match="target slice needs >= 3 entries to split, got 2"):
        split_holdout(tensor, SplitSpec())
    assert split_holdout(tensor, SplitSpec((1.0, 0.0, 0.0))).train.target.nnz == 2


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec((0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        SplitSpec((-0.1, 1.0, 0.1))
    with pytest.raises(ValueError, match="must lie in"):
        SplitSpec((float("nan"), 0.5, 0.5))


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
    val_set = {(u, v) for u, v, _ in hold.val.tolist()}
    test_set = {(u, v) for u, v, _ in hold.test.tolist()}

    assert train_set | val_set | test_set == all_entries
    assert not (train_set & val_set) and not (train_set & test_set) and not (val_set & test_set)
    # binarity
    assert np.all(hold.train.target.data == 1.0)


@settings(deadline=None, max_examples=40)
@given(
    entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)),
                     max_size=60),
    seed=st.integers(0, 1000),
)
def test_split_train_is_tensor_minus_held_out(entries, seed):
    labels = ["purchase", "click", "cart"]
    lines = ["u0,i0,purchase", "u0,i1,purchase", "u1,i0,purchase"]
    tensor = _tensor(lines + [f"u{u},i{v},{labels[k]}" for u, v, k in entries], labels)
    hold = split_holdout(tensor, SplitSpec(rng_seed=seed))

    held = {tuple(e) for e in np.concatenate([hold.val, hold.test]).tolist()}
    full = [tuple(e) for e in tensor.entries.tolist()]
    train = [tuple(e) for e in hold.train.entries.tolist()]
    assert full == sorted(set(full)) and held <= set(full)
    assert train == [e for e in full if e not in held]  # still unique and sorted
    assert hold.train.entries.dtype == np.int32 and hold.train.dims == tensor.dims


def test_item_popularity_column_counts():
    tensor = _tensor(["u1,i1,purchase", "u2,i1,purchase", "u3,i1,purchase", "u1,i2,purchase"],
                     ["purchase"])
    pop = item_popularity(tensor)
    assert pop.tolist() == [3, 1]
    assert pop.sum() == tensor.target.nnz


@pytest.mark.parametrize("seed", range(6))
def test_tensor_views_share_one_row_index(seed):
    rng = np.random.default_rng(seed)
    m1, m2, n = 12, 7, 3
    entries = np.column_stack([rng.integers(0, m1 - 3, 40), rng.integers(0, m2, 40),
                               rng.integers(0, n, 40)])
    # slice seed % n is empty (the target for seeds 0 and 3); the last 3 users have no entries
    entries = _sorted_unique(entries[entries[:, 2] != seed % n], (m1, m2, n))
    tensor = InteractionTensor.from_entries(m1, m2, entries, ["a", "b", "c"])
    indptr, indices = tensor.target_rows
    assert np.array_equal(indptr, tensor.target.indptr)
    assert np.array_equal(indices, tensor.target.indices)
    assert np.array_equal(item_popularity(tensor), np.ravel(tensor.target.sum(axis=0)))
    for k, s in enumerate(tensor.slices):
        coo = s.tocoo()
        expected = [(u, v) for u, v, b in entries.tolist() if b == k]
        assert sorted(zip(coo.row.tolist(), coo.col.tolist())) == expected
        assert s.shape == (m1, m2) and s.nnz == len(expected) and np.all(s.data == 1.0)


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
    log = parse_interactions("\n".join(_lines_grid(3, 3)), LABELS)
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
        ("# dims 3 x 2", "expected 'u v k' integers"),  # a header line in the body
    ],
    ids=["behavior", "row", "negative-col", "short", "short-then-long", "dims"],
)
def test_read_triples_rejects_bad_entry(tensor_file, entry, message):
    path = tensor_file
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [entry]) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{message}"):
        read_coordinate_triples(path)


def test_read_triples_names_the_first_entry_outside_dims(tensor_file):
    path = tensor_file
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["0 0 2", "5 0 0"] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: entry 0 0 2 outside dims 3 3 2"):
        read_coordinate_triples(path)


def test_read_triples_rejects_label_count_mismatch(tensor_file):
    path = tensor_file
    text = path.read_text().replace("# behaviors purchase click", "# behaviors purchase")
    path.write_text(text)
    message = "1 behavior labels for 2 behaviors"
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:2: {message}"):
        read_coordinate_triples(path)


def test_read_triples_rejects_missing_header(tensor_file):
    path = tensor_file
    path.write_text("0 0 0\n" + path.read_text())
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:1: expected '# dims m1 m2 n'"):
        read_coordinate_triples(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (["# behaviors purchase click", "# dims 3 3 2"], ":1: expected '# dims m1 m2 n'"),
        (["# dims 3 3 2"], ":2: expected '# behaviors' line"),
        (["# dims 3 3 2", "# behaviours purchase click"], ":2: expected '# behaviors' line"),
    ],
    ids=["swapped", "no-behaviors", "misspelt"],
)
def test_read_triples_rejects_bad_header(tensor_file, header, message):
    path = tensor_file
    entries = path.read_text().splitlines()[2:]
    path.write_text("\n".join(header + entries) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}{message}"):
        read_coordinate_triples(path)


@pytest.mark.parametrize("body", ["0 0\n1 1\n1 2\n", "0\n1\n2\n", "0 0 0 1\n1 1 1 0\n2 2 0 1\n"],
                         ids=["two-fields", "one-field", "four-fields"])
def test_read_triples_rejects_a_body_of_other_width(tmp_path, body):
    """Every line has the same field count, so `loadtxt` reads it: 6 or 12 integers
    are not 2 or 4 entries."""
    path = tmp_path / "tensor.txt"
    path.write_text("# dims 3 3 2\n# behaviors purchase click\n" + body)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: expected 'u v k' integers"):
        read_coordinate_triples(path)


def test_read_triples_rejects_a_comment_line(tensor_file):
    path = tensor_file
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["# a comment"] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: expected 'u v k' integers"):
        read_coordinate_triples(path)


def test_read_triples_skips_blank_lines(tensor_file):
    path = tensor_file
    want = read_coordinate_triples(path)
    dims, labels, *entries = path.read_text().splitlines()
    entries = entries[::-1]  # out of order: the reader sorts them
    path.write_text("\n".join([dims, labels, ""] + entries[:2] + ["", ""] + entries[2:]) + "\n\n")
    back = read_coordinate_triples(path)
    assert (back.dims, back.behavior_labels) == (want.dims, want.behavior_labels)
    assert back.entries.dtype == np.int32 and np.array_equal(back.entries, want.entries)


@settings(max_examples=100, deadline=None)
@given(
    m1=st.integers(1, 40),
    m2=st.integers(1, 40),
    labels=st.lists(st.text("abcxyz_", min_size=1, max_size=6), min_size=1, max_size=4,
                    unique=True),
    data=st.data(),
)
def test_coordinate_triples_round_trip_random(tmp_path_factory, m1, m2, labels, data):
    n = len(labels)
    triples = data.draw(st.lists(st.tuples(st.integers(0, m1 - 1), st.integers(0, m2 - 1),
                                           st.integers(0, n - 1)), max_size=200))
    entries = _sorted_unique(np.array(triples, dtype=np.int64).reshape(-1, 3), (m1, m2, n))
    path = tmp_path_factory.mktemp("triples") / "tensor.txt"
    write_coordinate_triples(InteractionTensor.from_entries(m1, m2, entries, labels), path)
    back = read_coordinate_triples(path)
    assert back.dims == (m1, m2, n) and back.behavior_labels == labels
    assert back.entries.dtype == np.int32 and np.array_equal(back.entries, entries)


def test_read_triples_rejects_dims_beyond_int32(tmp_path):
    path = tmp_path / "tensor.txt"
    path.write_text("# dims 3000000000 2 1\n# behaviors purchase\n2999999999 1 0\n")
    with pytest.raises(ValueError, match="tensor dims 3000000000 2 1 are too large"):
        read_coordinate_triples(path)


@pytest.mark.filterwarnings("error")  # a valid file without entries reads without a warning
def test_read_triples_header_only(tmp_path):
    path = tmp_path / "tensor.txt"
    path.write_text("# dims 2 3 1\n# behaviors purchase\n")
    tensor = read_coordinate_triples(path)
    assert tensor.dims == (2, 3, 1) and tensor.nnz() == 0


@settings(max_examples=100, deadline=None)
@given(
    m1=st.integers(1, 40),
    m2=st.integers(1, 40),
    labels=st.lists(st.text("abcxyz_", min_size=1, max_size=6), min_size=1, max_size=4,
                    unique=True),
    data=st.data(),
)
def test_tensor_container_round_trip_random(tmp_path_factory, m1, m2, labels, data):
    n = len(labels)
    triples = data.draw(st.lists(st.tuples(st.integers(0, m1 - 1), st.integers(0, m2 - 1),
                                           st.integers(0, n - 1)), max_size=200))
    entries = _sorted_unique(np.array(triples, dtype=np.int64).reshape(-1, 3), (m1, m2, n))
    path = tmp_path_factory.mktemp("container") / "tensor.bin"
    write_tensor(InteractionTensor.from_entries(m1, m2, entries, labels), path)
    back = read_tensor(path)
    assert back.dims == (m1, m2, n) and back.behavior_labels == labels
    assert back.entries.dtype == np.int32 and np.array_equal(back.entries, entries)


def _first_entries_edited(data: bytes, first: int, second: int) -> bytes:
    """A tensor container whose first two entries are entries `first` and `second` of
    `data`'s; the entries follow the 16-byte header and the metadata."""
    at = 16 + struct.unpack("<I", data[12:16])[0]
    return (data[:at] + data[at + 12 * first : at + 12 * first + 12]
            + data[at + 12 * second : at + 12 * second + 12] + data[at + 24 :])


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda d: b"POPSIMDL" + d[8:], r"not a tensor file \(bad magic b'POPSIMDL'\)"),
        (lambda d: d[:8] + struct.pack("<I", 2) + d[12:], "unsupported tensor version 2"),
        (lambda d: d[:20], r"truncated tensor file: wanted \d+ bytes, got 4"),  # metadata
        (lambda d: d[:-1], "truncated tensor file: wanted 108 bytes, got 107"),
        (lambda d: d + b"\0", "tensor file has trailing bytes after its arrays"),
        (lambda d: d[:-4] + struct.pack("<i", 2), "entry 2 2 2 outside dims 3 3 2"),
        (lambda d: _first_entries_edited(d, 1, 0),
         r"entries are not unique and sorted by \(u, v, k\)"),
        (lambda d: _first_entries_edited(d, 0, 0),
         r"entries are not unique and sorted by \(u, v, k\)"),
        (lambda d: with_metadata(d, lambda m: m.pop("dims")), "tensor metadata has no key 'dims'"),
        (lambda d: with_metadata(d, lambda m: m.pop("behavior_labels")),
         "tensor metadata has no key 'behavior_labels'"),
        (lambda d: with_metadata(d, lambda m: m.pop("entries")),
         "tensor metadata has no key 'entries'"),
        (lambda d: with_metadata(d, lambda m: m.update(dims=[3, 3])),
         r"expected 3 integer dims and n labels, got \[3, 3\] and \['purchase', 'click'\]"),
        (lambda d: with_metadata(d, lambda m: m.update(dims=[3.0, 3, 2])),
         r"expected 3 integer dims and n labels, got \[3.0, 3, 2\] and \['purchase', 'click'\]"),
        (lambda d: with_metadata(d, lambda m: m.update(behavior_labels=["purchase"])),
         r"expected 3 integer dims and n labels, got \[3, 3, 2\] and \['purchase'\]"),
        (lambda d: with_metadata(d, lambda m: m.update(entries="9")), ".+"),  # numpy's words
    ],
    ids=["magic", "version", "short-metadata", "truncated", "trailing", "outside-dims",
         "out-of-order", "repeated", "no-dims", "no-labels", "no-entries", "two-dims",
         "float-dims", "one-label", "string-entries"],
)
def test_read_tensor_rejects_a_damaged_file(tmp_path, damage, message):
    path = tmp_path / "tensor.bin"
    write_tensor(_tensor(_lines_grid(3, 3)), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        read_tensor(path)


@pytest.mark.parametrize("dims, message", [((-1, 2, 1), "are too large or negative"),
                                           ((3000000000, 2, 1), "are too large")],
                         ids=["negative", "beyond-int32"])
@pytest.mark.parametrize("write, read", [(write_coordinate_triples, read_coordinate_triples),
                                         (write_tensor, read_tensor)], ids=["text", "binary"])
def test_readers_name_the_file_for_bad_dims(tmp_path, dims, message, write, read):
    """Dims that are negative, with no entry to fall outside them, or beyond int32 are a
    ValueError naming the file in either reader."""
    path = tmp_path / "tensor"
    write(InteractionTensor.from_entries(*dims[:2], np.empty((0, 3), np.int32), ["a"]), path)
    message = f"^{re.escape(str(path))}: tensor dims {' '.join(map(str, dims))} {message}"
    with pytest.raises(ValueError, match=message):
        read(path)
