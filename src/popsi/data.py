"""Interaction log parsing, sparse tensor construction, holdout splits, popularity counts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

DEFAULT_SCHEMA = ("user", "item", "behavior", "timestamp")


@dataclass(frozen=True)
class InteractionRecord:
    user_id: str
    item_id: str
    behavior: str
    timestamp: Optional[int] = None


@dataclass
class ParseStats:
    n_records: int = 0
    n_malformed: int = 0
    n_unknown_behavior: int = 0


class IdIndex:
    """Bijection between opaque tokens and dense 0-based indices, first-appearance order."""

    def __init__(self):
        self._forward: dict[str, int] = {}
        self._reverse: list[str] = []

    def add(self, token: str) -> int:
        idx = self._forward.get(token)
        if idx is None:
            idx = len(self._reverse)
            self._forward[token] = idx
            self._reverse.append(token)
        return idx

    def index_of(self, token: str) -> int:
        return self._forward[token]

    def token_of(self, idx: int) -> str:
        return self._reverse[idx]

    def __contains__(self, token: str) -> bool:
        return token in self._forward

    def __len__(self) -> int:
        return len(self._reverse)

    @property
    def tokens(self) -> list[str]:
        return list(self._reverse)


@dataclass
class InteractionTensor:
    """Binary 3-D interaction tensor as a list of sparse slices; slice 0 is the target behavior."""

    m1: int
    m2: int
    slices: list[sp.csr_matrix]
    behavior_labels: list[str]

    @property
    def n(self) -> int:
        return len(self.slices)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.n)

    @property
    def target(self) -> sp.csr_matrix:
        return self.slices[0]

    def nnz(self) -> int:
        return sum(int(s.nnz) for s in self.slices)


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    rng_seed: int = 0

    def __post_init__(self):
        if any(r < 0 or r > 1 for r in self.ratios):
            raise ValueError(f"split ratios must lie in [0,1], got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-12:
            raise ValueError(f"split ratios must sum to 1, got {self.ratios}")


@dataclass
class HoldoutSets:
    train: InteractionTensor
    val_positives: dict[int, list[int]]
    test_positives: dict[int, list[int]]


def parse_interactions(
    lines: Iterable[str],
    behavior_labels: Sequence[str],
    schema: Sequence[str] = DEFAULT_SCHEMA,
    delimiter: str = ",",
    has_header: bool = False,
) -> tuple[list[InteractionRecord], ParseStats]:
    """Parse delimited interaction lines into records.

    Malformed lines and lines with behaviors outside `behavior_labels` are
    skipped and tallied in the returned stats.
    """
    labels = set(behavior_labels)
    try:
        col = {name: i for i, name in enumerate(schema)}
        iu, ii, ib = col["user"], col["item"], col["behavior"]
    except KeyError as e:
        raise ValueError(f"schema must include user, item, behavior columns: {e}")
    it = col.get("timestamp")
    min_cols = max(iu, ii, ib) + 1

    records: list[InteractionRecord] = []
    stats = ParseStats()
    for raw in lines:
        if has_header:
            has_header = False
            continue
        line = raw.rstrip("\n\r")
        if not line.strip():
            continue
        parts = line.split(delimiter)
        if len(parts) < min_cols or not parts[iu].strip() or not parts[ii].strip():
            stats.n_malformed += 1
            continue
        behavior = parts[ib].strip()
        if behavior not in labels:
            stats.n_unknown_behavior += 1
            continue
        ts = None
        if it is not None and len(parts) > it and parts[it].strip():
            try:
                ts = int(parts[it].strip())
            except ValueError:
                stats.n_malformed += 1
                continue
        records.append(InteractionRecord(parts[iu].strip(), parts[ii].strip(), behavior, ts))
        stats.n_records += 1
    return records, stats


def build_tensor(
    records: Sequence[InteractionRecord],
    behavior_labels: Sequence[str],
) -> tuple[InteractionTensor, IdIndex, IdIndex]:
    """Assemble the binary interaction tensor; duplicate triples collapse to one entry."""
    if not behavior_labels:
        raise ValueError("behavior_labels must be non-empty")
    if not all(behavior_labels):
        raise ValueError(f"behavior labels must be non-empty strings, got {list(behavior_labels)}")
    if len(set(behavior_labels)) != len(behavior_labels):
        raise ValueError(f"behavior labels must be distinct, got {list(behavior_labels)}")
    if not records:
        raise ValueError("cannot build a tensor from zero records")
    labels = list(behavior_labels)
    label_pos = {b: k for k, b in enumerate(labels)}
    users, items = IdIndex(), IdIndex()
    coords: list[set[tuple[int, int]]] = [set() for _ in labels]
    for rec in records:
        k = label_pos.get(rec.behavior)
        if k is None:
            continue
        u = users.add(rec.user_id)
        v = items.add(rec.item_id)
        coords[k].add((u, v))
    if len(users) == 0:
        raise ValueError("no records matched the configured behavior labels")
    m1, m2 = len(users), len(items)
    slices = []
    for entry_set in coords:
        if entry_set:
            rows, cols = zip(*sorted(entry_set))
            data = np.ones(len(rows))
        else:
            rows, cols, data = [], [], []
        slices.append(sp.csr_matrix((data, (rows, cols)), shape=(m1, m2)))
    return InteractionTensor(m1, m2, slices, labels), users, items


def split_holdout(tensor: InteractionTensor, spec: SplitSpec) -> HoldoutSets:
    """Split target-slice entries into train/val/test; auxiliary slices stay in train.

    Counts follow floor(r_train*N), floor(r_val*N), remainder to test;
    shuffle is driven by the spec seed, so results are deterministic.
    """
    target = tensor.target.tocoo()
    entries = np.stack([target.row, target.col], axis=1)
    order = np.lexsort((entries[:, 1], entries[:, 0]))
    entries = entries[order]
    n_entries = len(entries)
    if n_entries < 3 and spec.ratios != (1.0, 0.0, 0.0):
        raise ValueError(f"target slice needs >= 3 entries to split, got {n_entries}")

    rng = np.random.default_rng(spec.rng_seed)
    perm = rng.permutation(n_entries)
    entries = entries[perm]

    n_train = int(np.floor(spec.ratios[0] * n_entries))
    n_val = int(np.floor(spec.ratios[1] * n_entries))
    train_e = entries[:n_train]
    val_e = entries[n_train : n_train + n_val]
    test_e = entries[n_train + n_val :]

    if len(train_e):
        train_target = sp.csr_matrix(
            (np.ones(len(train_e)), (train_e[:, 0], train_e[:, 1])),
            shape=(tensor.m1, tensor.m2),
        )
    else:
        train_target = sp.csr_matrix((tensor.m1, tensor.m2))
    train = InteractionTensor(
        tensor.m1,
        tensor.m2,
        [train_target] + [s.copy() for s in tensor.slices[1:]],
        list(tensor.behavior_labels),
    )

    def as_per_user(e: np.ndarray) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for u, v in sorted(map(tuple, e)):
            out.setdefault(int(u), []).append(int(v))
        return out

    return HoldoutSets(train, as_per_user(val_e), as_per_user(test_e))


def item_popularity(target_slice: sp.spmatrix) -> np.ndarray:
    """Per-item interaction count on the (binary) training target slice."""
    counts = np.asarray(target_slice.sum(axis=0)).ravel()
    return counts.astype(np.int64)


# --- coordinate-triple text format: one `u v k` line per entry, 0-based, sorted ---


def write_coordinate_triples(tensor: InteractionTensor, path) -> None:
    triples = []
    for k, s in enumerate(tensor.slices):
        coo = s.tocoo()
        triples.extend(zip(coo.row.tolist(), coo.col.tolist(), [k] * s.nnz))
    triples.sort()
    with open(path, "w") as f:
        f.write(f"# dims {tensor.m1} {tensor.m2} {tensor.n}\n")
        f.write(f"# behaviors {' '.join(tensor.behavior_labels)}\n")
        for u, v, k in triples:
            f.write(f"{u} {v} {k}\n")


def read_coordinate_triples(path) -> InteractionTensor:
    """Read the format `write_coordinate_triples` writes; an entry outside the
    `# dims` box, an entry before that header or a `# behaviors` line with other
    than n labels is an error naming `path:line`."""
    m1 = m2 = n = None
    labels: list[str] = []
    labels_line = 0
    entries: list[tuple[int, int, int]] = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("# dims"):
                try:
                    _, _, a, b, c = line.split()
                    m1, m2, n = int(a), int(b), int(c)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected '# dims m1 m2 n', "
                                     f"got {line!r}") from None
            elif line.startswith("# behaviors"):
                labels, labels_line = line.split()[2:], lineno
            elif not line.startswith("#"):
                if m1 is None:
                    raise ValueError(f"{path}:{lineno}: entry before the '# dims' header")
                try:
                    u, v, k = map(int, line.split())
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected 'u v k' integers, "
                                     f"got {line!r}") from None
                if not (0 <= u < m1 and 0 <= v < m2 and 0 <= k < n):
                    raise ValueError(f"{path}:{lineno}: entry {line!r} outside "
                                     f"dims {m1} {m2} {n}")
                entries.append((u, v, k))
    if m1 is None or not labels:
        raise ValueError(f"missing dims/behaviors header in {path}")
    if len(labels) != n:
        raise ValueError(f"{path}:{labels_line}: {len(labels)} behavior labels "
                         f"for {n} behaviors in '# dims'")
    slices = []
    for k in range(n):
        rows = [u for u, v, kk in entries if kk == k]
        cols = [v for u, v, kk in entries if kk == k]
        slices.append(
            sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m1, m2))
        )
    return InteractionTensor(m1, m2, slices, labels)


def write_index(index: IdIndex, path) -> None:
    with open(path, "w") as f:
        for token in index.tokens:
            f.write(token + "\n")


def read_index(path) -> IdIndex:
    idx = IdIndex()
    with open(path) as f:
        for line in f:
            tok = line.rstrip("\n")
            if tok:
                idx.add(tok)
    return idx
