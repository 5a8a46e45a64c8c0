"""Interaction log parsing, sparse tensor construction, holdout splits, popularity counts."""

from __future__ import annotations

import json
import re
import struct
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


class InteractionTensor:
    """Binary 3-D interaction tensor; slice 0 is the target behavior.

    It is held as its (u, v, k) entries, an N x 3 int32 array, unique and
    sorted by (u, v, k). The CSR slices are built on first use, so only code
    that does sparse algebra imports scipy.
    """

    def __init__(self, m1: int, m2: int, slices: Sequence[sp.spmatrix], behavior_labels):
        """Tensor of sparse m1 x m2 slices, one per label; every stored nonzero is an entry."""
        shapes = [s.shape for s in slices]
        if len(slices) != len(behavior_labels) or any(s != (m1, m2) for s in shapes):
            raise ValueError(f"need one {m1} x {m2} slice per behavior label, got shapes "
                             f"{shapes} for labels {list(behavior_labels)}")
        parts = [np.empty((0, 3), dtype=np.int64)]
        for k, coo in enumerate(s.tocoo() for s in slices):
            parts.append(np.column_stack([coo.row, coo.col, np.full(coo.nnz, k)])[coo.data != 0])
        entries = _sorted_unique(np.concatenate(parts), (m1, m2, len(slices)))
        self._set(m1, m2, entries, behavior_labels)

    @classmethod
    def from_entries(cls, m1: int, m2: int, entries: np.ndarray, behavior_labels):
        """Tensor of N x 3 int32 (u, v, k) entries that are already unique and sorted."""
        tensor = cls.__new__(cls)
        tensor._set(m1, m2, entries, behavior_labels)
        return tensor

    def _set(self, m1, m2, entries, behavior_labels) -> None:
        self.m1, self.m2, self.entries = m1, m2, entries
        self.behavior_labels = list(behavior_labels)

    @property
    def n(self) -> int:
        return len(self.behavior_labels)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.n)

    @cached_property
    def slices(self) -> list[sp.csr_matrix]:
        import scipy.sparse as sp

        return [sp.csr_matrix((np.ones(len(v)), v, indptr), shape=(self.m1, self.m2))
                for indptr, v in map(self._rows, range(self.n))]

    @property
    def target(self) -> sp.csr_matrix:
        return self.slices[0]

    def nnz(self) -> int:
        return len(self.entries)

    @cached_property
    def target_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The target slice as CSR arrays (indptr, indices), without scipy."""
        return self._rows(0)

    def _rows(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Slice k as CSR arrays (indptr, indices); its entries are already in (u, v) order."""
        at = self.entries[:, 2] == k
        counts = np.bincount(self.entries[at, 0], minlength=self.m1)
        return np.r_[0, np.cumsum(counts)], self.entries[at, 1]


def _sorted_unique(entries: np.ndarray, dims: tuple, at: str = "", sort: bool = True) -> np.ndarray:
    """N x 3 (u, v, k) entries inside `dims` as int32, unique and sorted by (u, v, k): sorted
    ones are only converted, others sorted or, when `sort` is off, refused. Each ValueError
    starts with `at`, which names the file the entries come from."""
    m1, m2, n = dims
    if min(dims) < 0 or max(m1, m2) > np.iinfo(np.int32).max or m1 * m2 * n >= 2**63:
        raise ValueError(f"{at}tensor dims {m1} {m2} {n} are too large or negative")
    outside = (entries < 0) | (entries >= dims)
    if outside.any():
        u, v, k = entries[outside.argmax() // 3]
        raise ValueError(f"{at}entry {u} {v} {k} outside dims {m1} {m2} {n}")
    key = (entries[:, 0].astype(np.int64) * m2 + entries[:, 1]) * n + entries[:, 2]
    if (key[1:] > key[:-1]).all():
        return entries.astype(np.int32, copy=False)
    if not sort:
        raise ValueError(f"{at}entries are not unique and sorted by (u, v, k)")
    key = np.sort(key)
    key = key[np.r_[True, key[1:] != key[:-1]]]
    uv, k = np.divmod(key, n)
    u, v = np.divmod(uv, m2)
    return np.stack([u, v, k], axis=1).astype(np.int32)


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    rng_seed: int = 0

    def __post_init__(self):
        if any(not 0 <= r <= 1 for r in self.ratios):  # a NaN ratio too
            raise ValueError(f"split ratios must lie in [0,1], got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-12:
            raise ValueError(f"split ratios must sum to 1, got {self.ratios}")


@dataclass
class HoldoutSets:
    """A split's training tensor and its held-out target entries, each an N x 3 int32
    array of (u, v, 0) rows, unique and sorted by (u, v)."""

    train: InteractionTensor
    val: np.ndarray
    test: np.ndarray

    @property
    def test_positives(self) -> dict[int, list[int]]:
        """User -> held-out test items: the form `perfbench/check.py` reads."""
        users, starts = np.unique(self.test[:, 0], return_index=True)
        items = self.test[:, 1].tolist()
        bounds = starts.tolist() + [len(items)]
        return {u: items[a:b] for u, a, b in zip(users.tolist(), bounds, bounds[1:])}


@dataclass
class ParsedLog:
    """An interaction log as index columns: one (user, item, behavior) row per kept line."""

    entries: np.ndarray  # N x 3 int64; behavior indexes the labels given to the parser
    user_tokens: list[str]  # user index -> token, in order of first appearance
    item_tokens: list[str]
    malformed: int  # lines skipped as malformed
    unknown_behavior: int  # lines skipped for a behavior outside the labels


def parse_interactions(
    text: str,
    behavior_labels: Sequence[str],
    delimiter: str = ",",
    has_header: bool = False,
) -> ParsedLog:
    """Parse the `user,item,behavior[,timestamp]` lines of a log's text in one pass. Lines
    end at "\n" only, as in a file read in text mode; a regular text is read by `_parse_regular`.

    Users and items get dense indices in order of first appearance among the
    kept lines; blank lines are ignored. A line with fewer than three fields,
    an empty user or item, or a timestamp that is present but not an integer
    is malformed; a line whose behavior is not in `behavior_labels` is
    unknown. Both kinds are skipped and counted. The loop here is the reference.
    """
    if not delimiter:
        raise ValueError("delimiter must be a non-empty string")
    text = text.partition("\n")[2] if has_header else text
    if (log := _parse_regular(text, behavior_labels, delimiter)) is not None:
        return log
    label_pos = {b: k for k, b in enumerate(behavior_labels)}
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    columns = array("q")
    malformed = unknown = 0
    for match in re.finditer("[^\n]+", text):  # one line at a time, not a list of them all
        line = match[0].rstrip("\r")
        if not line.strip():
            continue
        parts = line.split(delimiter)
        user, item = (parts[0].strip(), parts[1].strip()) if len(parts) >= 3 else ("", "")
        if not user or not item:
            malformed += 1
            continue
        k = label_pos.get(parts[2].strip())
        if k is None:
            unknown += 1
            continue
        if len(parts) > 3 and parts[3].strip():
            try:
                int(parts[3])
            except ValueError:
                malformed += 1
                continue
        columns.extend((users.setdefault(user, len(users)), items.setdefault(item, len(items)), k))
    entries = np.frombuffer(columns, dtype=np.int64).reshape(-1, 3)
    return ParsedLog(entries, list(users), list(items), malformed, unknown)


def _parse_regular(text: str, behavior_labels: Sequence[str], delimiter: str) -> ParsedLog | None:
    """The log of an ASCII text whose every line is a non-empty user and item, a known behavior
    and, on every line or on none, an empty or all-digit timestamp, with no byte up to " " but
    "\n" and the delimiter."""
    if len(delimiter) != 1 or delimiter == "\n" or not text.isascii() or len(text) >= 2**30:
        return None
    raw = (text if text.endswith("\n") else text + "\n").encode() + bytes(8)
    b, sep = np.frombuffer(raw, np.uint8)[:-8], ord(delimiter)
    cuts = np.flatnonzero((b <= 32) | (b == sep)).astype(np.int32)  # field ends, or a stray
    f = int(np.argmax(b[cuts] != sep)) + 1  # the first line's field count
    if f not in (3, 4) or len(cuts) % f or (b[cuts].reshape(-1, f) != [sep] * (f - 1) + [10]).any():
        return None
    lens = (np.diff(cuts, prepend=-1) - 1).astype(np.int32).reshape(-1, f)
    words = np.ndarray(len(raw) - 7, "<u8", raw, strides=(1,))  # the 8 bytes at each offset
    starts, widths = cuts.reshape(-1, f) - lens, np.maximum(8, lens.max(0) + 7) // 8 * 8
    users, items, behaviors, *stamps = [  # each field's bytes, zero-padded to a multiple of 8
        words[np.minimum(s[:, None] + np.arange(0, w, 8), len(words) - 1)].view(np.uint8)
        * (np.arange(w) < n[:, None]) for s, n, w in zip(starts.T, lens.T, widths)]
    del raw, b, words, cuts, starts  # the bytes of the text, freed before the checks and sorts
    kinds, behaviors = np.full(len(lens), -1), behaviors.view(f"S{behaviors.shape[1]}").ravel()
    for k, label in enumerate(map(str.encode, behavior_labels)):
        kinds[(behaviors == label) & (lens[:, 2] == len(label))] = k
    bad_stamp = any(((t - 48 > 9) & (t > 0)).any() for t in stamps)  # neither empty nor digits
    if not lens[:, :2].all() or (kinds < 0).any() or bad_stamp:
        return None
    del behaviors, stamps  # freed before the sorts, or glibc keeps their heap resident
    ids, tokens = [], []
    for rows in (users, items):  # the zero padding is unambiguous: no token holds a zero byte
        keys = rows.view(np.uint64 if rows.shape[1] == 8 else f"S{rows.shape[1]}").ravel()
        by_key = np.argsort(keys)  # equal keys side by side, their lines in any order
        new = np.r_[True, keys[by_key[1:]] != keys[by_key[:-1]]]
        first = np.minimum.reduceat(by_key, np.flatnonzero(new))  # each key's first line
        order = np.argsort(first)  # keys numbered by first appearance
        ids.append(np.empty_like(by_key))
        ids[-1][by_key] = np.argsort(order)[np.cumsum(new) - 1]
        tokens.append([t.decode() for t in keys[first[order]].view(f"S{rows.shape[1]}").tolist()])
    return ParsedLog(np.column_stack([*ids, kinds]), *tokens, 0, 0)


def build_tensor(log: ParsedLog, behavior_labels: Sequence[str]) -> InteractionTensor:
    """Assemble the binary interaction tensor of a log parsed with `behavior_labels`;
    duplicate triples collapse to one entry."""
    labels = list(behavior_labels)
    if not labels:
        raise ValueError("behavior_labels must be non-empty")
    if not all(labels):
        raise ValueError(f"behavior labels must be non-empty strings, got {labels}")
    if any(b.split() != [b] for b in labels):
        raise ValueError(f"behavior labels must not contain whitespace, got {labels}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"behavior labels must be distinct, got {labels}")
    if not len(log.entries):
        raise ValueError("no records: cannot build a tensor from zero records")
    dims = (len(log.user_tokens), len(log.item_tokens), len(labels))
    return InteractionTensor.from_entries(*dims[:2], _sorted_unique(log.entries, dims), labels)


def split_holdout(tensor: InteractionTensor, spec: SplitSpec) -> HoldoutSets:
    """Split target-slice entries into train/val/test; auxiliary slices stay in train.

    Counts follow floor(r_train*N), floor(r_val*N), remainder to test;
    shuffle is driven by the spec seed, so results are deterministic.
    """
    target_at = np.flatnonzero(tensor.entries[:, 2] == 0)  # in (u, v) order
    n_entries = len(target_at)
    if n_entries < 3 and spec.ratios != (1.0, 0.0, 0.0):
        raise ValueError(f"target slice needs >= 3 entries to split, got {n_entries}")

    rng = np.random.default_rng(spec.rng_seed)
    perm = rng.permutation(n_entries)
    n_train = int(np.floor(spec.ratios[0] * n_entries))
    n_val = int(np.floor(spec.ratios[1] * n_entries))
    _, val, test = np.split(perm, [n_train, n_train + n_val])

    keep = np.ones(len(tensor.entries), dtype=bool)
    keep[target_at[perm[n_train:]]] = False
    train = InteractionTensor.from_entries(
        tensor.m1, tensor.m2, tensor.entries[keep], tensor.behavior_labels
    )
    held = [tensor.entries[target_at[np.sort(at)]] for at in (val, test)]
    return HoldoutSets(train, *held)


def item_popularity(tensor: InteractionTensor) -> np.ndarray:
    """Per-item entry count of the tensor's target slice."""
    return np.bincount(tensor.target_rows[1], minlength=tensor.m2)


# --- coordinate-triple text format: one `u v k` line per entry, 0-based, sorted ---


def write_coordinate_triples(tensor: InteractionTensor, path) -> None:
    with open(path, "w") as f:
        f.write(f"# dims {tensor.m1} {tensor.m2} {tensor.n}\n")
        f.write(f"# behaviors {' '.join(tensor.behavior_labels)}\n")
        f.write("%d %d %d\n" * tensor.nnz() % tuple(tensor.entries.ravel().tolist()))


def read_coordinate_triples(path) -> InteractionTensor:
    """Read the layout `write_coordinate_triples` writes, in which blank lines skip;
    any other file is a ValueError naming `path`."""
    with open(path) as f:
        dims_line, labels_line = f.readline().strip(), f.readline().strip()
        dims, labels = dims_line.split(), labels_line.split()
        try:
            m1, m2, n = map(int, dims[2:] if dims[:2] == ["#", "dims"] else ())
        except ValueError:
            raise ValueError(f"{path}:1: expected '# dims m1 m2 n', got {dims_line!r}") from None
        if labels[:2] != ["#", "behaviors"]:
            raise ValueError(f"{path}:2: expected '# behaviors' line, got {labels_line!r}")
        if len(labels) - 2 != n:
            raise ValueError(f"{path}:2: {len(labels) - 2} behavior labels "
                             f"for {n} behaviors in '# dims'")
        try:
            with warnings.catch_warnings():  # an empty body warns
                warnings.simplefilter("ignore", UserWarning)
                entries = np.loadtxt(f, dtype=np.int64, comments=None, ndmin=2)
            if entries.size and entries.shape[1] != 3:
                raise ValueError(f"{entries.shape[1]} fields per line")
        except ValueError as e:
            raise ValueError(f"{path}: expected 'u v k' integers after the header: {e}") from None
    entries = _sorted_unique(entries.reshape(-1, 3), (m1, m2, n), f"{path}: ")
    return InteractionTensor.from_entries(m1, m2, entries, labels[2:])


# --- container: magic, u32 version, u32 JSON metadata length + metadata, raw LE arrays ---

MAGIC = {"model": b"POPSIMDL", "tensor": b"POPSITNS"}
CONTAINER_VERSION = 1


def _write_container(path, kind: str, meta: dict, arrays: Sequence[np.ndarray]) -> None:
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(MAGIC[kind] + struct.pack("<II", CONTAINER_VERSION, len(meta_bytes)) + meta_bytes)
        f.writelines(array.tobytes() for array in arrays)


def _read_container(path, kind: str, layout, build):
    """`build(meta, arrays)` of a `kind` container, `layout(meta)` giving each array's
    (dtype, shape); any other file, or metadata they cannot use, is a ValueError naming `path`."""
    with open(path, "rb") as f:
        def take(n: int) -> bytes:
            buf = f.read(n)
            if len(buf) != n:
                raise ValueError(f"truncated {kind} file: wanted {n} bytes, got {len(buf)}")
            return buf

        try:
            if (magic := f.read(8)) != MAGIC[kind]:
                raise ValueError(f"not a {kind} file (bad magic {magic!r})")
            version, size = struct.unpack("<II", take(8))
            if version != CONTAINER_VERSION:
                raise ValueError(f"unsupported {kind} version {version}")
            meta = json.loads(take(size))
            arrays = [np.frombuffer(take(np.dtype(dtype).itemsize * int(np.prod(shape))), dtype)
                      .reshape(shape).copy() for dtype, shape in layout(meta)]
            if f.read(1):
                raise ValueError(f"{kind} file has trailing bytes after its arrays")
            return build(meta, arrays)
        except KeyError as e:
            raise ValueError(f"{path}: {kind} metadata has no key {e}") from None
        except (ValueError, TypeError) as e:
            raise ValueError(f"{path}: {e}") from None


def write_tensor(tensor: InteractionTensor, path) -> None:
    meta = {"dims": tensor.dims, "behavior_labels": tensor.behavior_labels, "entries": tensor.nnz()}
    _write_container(path, "tensor", meta, [tensor.entries.astype("<i4", copy=False)])


def read_tensor(path) -> InteractionTensor:
    """Read the container `write_tensor` writes; any other file is a ValueError naming `path`."""
    def build(meta, arrays):
        dims, labels = meta["dims"], meta["behavior_labels"]
        if [type(d) for d in dims] != [int] * 3 or [type(b) for b in labels] != [str] * dims[2]:
            raise ValueError(f"expected 3 integer dims and n labels, got {dims} and {labels}")
        entries = _sorted_unique(arrays[0], dims, sort=False)
        return InteractionTensor.from_entries(*dims[:2], entries, labels)

    return _read_container(path, "tensor", lambda m: [("<i4", (m["entries"], 3))], build)


def write_index(tokens: list[str], path) -> None:
    """One token per line; line i holds the token of index i."""
    with open(path, "w") as f:
        f.write("".join(token + "\n" for token in tokens))


def read_index(path, n: int) -> list[str]:
    """The tokens of an index file, in index order; a file of other than n tokens is refused."""
    with open(path) as f:
        tokens = [token for token in f.read().split("\n") if token]
    if len(tokens) != n:
        raise ValueError(f"{path} holds {len(tokens)} tokens, not the {n} of tensor.bin")
    return tokens
