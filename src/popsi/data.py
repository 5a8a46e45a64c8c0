"""Interaction log parsing, sparse tensor construction, holdout splits, popularity counts."""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp


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


@dataclass
class ParsedLog:
    """An interaction log as index columns: one (user, item, behavior) row per kept line."""

    entries: np.ndarray  # N x 3 int64; behavior indexes the labels given to the parser
    user_tokens: list[str]  # user index -> token, in order of first appearance
    item_tokens: list[str]
    malformed: int  # lines skipped as malformed
    unknown_behavior: int  # lines skipped for a behavior outside the labels


def parse_interactions(
    lines: Iterable[str],
    behavior_labels: Sequence[str],
    delimiter: str = ",",
    has_header: bool = False,
) -> ParsedLog:
    """Parse `user,item,behavior[,timestamp]` lines in one pass.

    Users and items get dense indices in order of first appearance among the
    kept lines; blank lines are ignored. A line with fewer than three fields,
    an empty user or item, or a timestamp that is present but not an integer
    is malformed; a line whose behavior is not in `behavior_labels` is
    unknown. Both kinds are skipped and counted.
    """
    label_pos = {b: k for k, b in enumerate(behavior_labels)}
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    columns = array("q")
    malformed = unknown = 0
    for raw in lines:
        if has_header:
            has_header = False
            continue
        line = raw.rstrip("\n\r")
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
        raise ValueError("cannot build a tensor from zero records")
    return _tensor(log.entries, (len(log.user_tokens), len(log.item_tokens), len(labels)), labels)


def _tensor(entries: np.ndarray, dims: tuple[int, int, int], labels: list[str]) -> InteractionTensor:
    """Tensor of N x 3 (u, v, k) entries, one CSR slice per behavior k."""
    m1, m2, n = dims
    slices = []
    for k in range(n):
        e = entries[entries[:, 2] == k]
        slices.append(_binary_csr(e[:, 0], e[:, 1], (m1, m2)))
    return InteractionTensor(m1, m2, slices, labels)


def _binary_csr(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR matrix with a 1 at every (row, col) given; a repeated pair counts once."""
    s = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)
    s.data[:] = 1.0
    return s


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

    train_target = _binary_csr(train_e[:, 0], train_e[:, 1], (tensor.m1, tensor.m2))
    train = InteractionTensor(
        tensor.m1,
        tensor.m2,
        [train_target] + [s.copy() for s in tensor.slices[1:]],
        list(tensor.behavior_labels),
    )

    def as_per_user(e: np.ndarray) -> dict[int, list[int]]:
        e = e[np.lexsort((e[:, 1], e[:, 0]))]
        users, starts = np.unique(e[:, 0], return_index=True)
        items = e[:, 1].tolist()
        bounds = starts.tolist() + [len(items)]
        return {u: items[a:b] for u, a, b in zip(users.tolist(), bounds, bounds[1:])}

    return HoldoutSets(train, as_per_user(val_e), as_per_user(test_e))


def item_popularity(target_slice: sp.spmatrix) -> np.ndarray:
    """Per-item interaction count on the (binary) training target slice."""
    counts = np.asarray(target_slice.sum(axis=0)).ravel()
    return counts.astype(np.int64)


# --- coordinate-triple text format: one `u v k` line per entry, 0-based, sorted ---


def write_coordinate_triples(tensor: InteractionTensor, path) -> None:
    parts = []
    for k, s in enumerate(tensor.slices):
        coo = s.tocoo()
        parts.append(np.column_stack([coo.row, coo.col, np.full(coo.nnz, k)]))
    e = np.concatenate(parts)
    e = e[np.lexsort((e[:, 2], e[:, 1], e[:, 0]))]
    with open(path, "w") as f:
        f.write(f"# dims {tensor.m1} {tensor.m2} {tensor.n}\n")
        f.write(f"# behaviors {' '.join(tensor.behavior_labels)}\n")
        f.write("%d %d %d\n" * len(e) % tuple(e.ravel().tolist()))


def read_coordinate_triples(path) -> InteractionTensor:
    """Read the format `write_coordinate_triples` writes; an entry outside the
    `# dims` box, an entry before that header or a `# behaviors` line with other
    than n labels is an error naming `path:line`.

    A file in the writer's layout (the two header lines, then `u v k` integer
    lines) is converted in one call; any other file, and any file that fails
    a check, is read again line by line, which names the first bad line.
    """
    with open(path) as f:
        try:
            dims, labels, _ = _scan_triples(path, [f.readline(), f.readline()])
            with warnings.catch_warnings():  # an empty body warns, then takes the slow path
                warnings.simplefilter("ignore", UserWarning)
                entries = np.loadtxt(f, dtype=np.int64, comments=None, ndmin=2)
            ok = entries.shape[1] == 3 and bool(((entries >= 0) & (entries < dims)).all())
        except ValueError:
            ok = False
        if not ok:
            f.seek(0)
            dims, labels, entries = _scan_triples(path, f)
    return _tensor(entries, dims, labels)


def _scan_triples(path, lines: Iterable[str]):
    """Dims, labels and N x 3 entries of coordinate-triple lines, checked line by line."""
    m1 = m2 = n = None
    labels: list[str] = []
    labels_line = 0
    entries: list[tuple[int, int, int]] = []
    for lineno, line in enumerate(lines, 1):
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
    return (m1, m2, n), labels, np.array(entries, dtype=np.int64).reshape(-1, 3)


def write_index(tokens: list[str], path) -> None:
    """One token per line; line i holds the token of index i."""
    with open(path, "w") as f:
        f.write("".join(token + "\n" for token in tokens))


def read_index(path) -> list[str]:
    """The tokens of an index file, in index order."""
    with open(path) as f:
        return [token for token in f.read().split("\n") if token]
