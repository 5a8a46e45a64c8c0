"""Seeded synthetic interaction logs in the CLI's `user,item,behavior,timestamp` format.

Each behavior slice keeps the globally highest-scoring user/item pairs of a
planted rank-5 model (the same construction as `popsi.synth`), and a few
"hyped" items gain preference-independent target entries. The scores are
built block by block, so memory stays at one block of users, not a dense
m1 x m2 array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LATENT_RANK = 5
BLOCK_USERS = 2000


@dataclass(frozen=True)
class LogSpec:
    users: int
    items: int
    densities: tuple[float, ...]  # per behavior; the target behavior comes first
    confound_item_fraction: float = 0.05
    confound_strength: float = 0.02

    @property
    def behaviors(self) -> list[str]:
        return ["purchase"] + [f"behavior_{k}" for k in range(1, len(self.densities))]


@dataclass
class Log:
    rows: np.ndarray  # user index per line
    cols: np.ndarray  # item index per line
    kinds: np.ndarray  # behavior index per line
    behaviors: list[str]

    @property
    def user_tokens(self) -> list[str]:
        """Tokens of the users that occur in the log, in ascending index order."""
        return [f"u{u}" for u in np.unique(self.rows).tolist()]


def _top_entries(left: np.ndarray, right: np.ndarray, n_keep: int):
    """(rows, cols) of the n_keep largest entries of left @ right.T, in row-major order.

    A threshold from a sample of rows keeps about four times n_keep
    candidates, one block of users at a time; the exact top n_keep is then
    chosen among them (the margin is widened in the rare case it falls short).
    """
    m1, m2 = left.shape[0], right.shape[0]
    sample = (left[:: max(1, m1 // 1000)] @ right.T).ravel()
    share = n_keep / (m1 * m2)
    while True:
        cut = np.quantile(sample, max(0.0, 1 - 4 * share))
        flat, vals = [], []
        for start in range(0, m1, BLOCK_USERS):
            scores = (left[start : start + BLOCK_USERS] @ right.T).ravel()
            idx = np.flatnonzero(scores >= cut)
            flat.append(start * m2 + idx)
            vals.append(scores[idx])
        flat, vals = np.concatenate(flat), np.concatenate(vals)
        if len(vals) >= n_keep:
            break
        share *= 4
    best = np.sort(flat[np.argpartition(vals, len(vals) - n_keep)[len(vals) - n_keep :]])
    return best // m2, best % m2


def generate(spec: LogSpec, seed: int) -> Log:
    rng = np.random.default_rng(seed)
    m1, m2 = spec.users, spec.items
    U = rng.standard_normal((m1, LATENT_RANK))
    V = rng.standard_normal((m2, LATENT_RANK))
    rows, cols, kinds = [], [], []
    for k, density in enumerate(spec.densities):
        core = np.eye(LATENT_RANK) + 0.2 * rng.standard_normal((LATENT_RANK, LATENT_RANK))
        r, c = _top_entries(U @ core, V, max(1, round(density * m1 * m2)))
        rows.append(r)
        cols.append(c)
        kinds.append(np.full(len(r), k))
    n_hype = max(1, round(spec.confound_item_fraction * m2))
    hype_items = rng.choice(m2, size=n_hype, replace=False)
    r, picked = np.nonzero(rng.random((m1, n_hype)) < spec.confound_strength)
    rows.append(r)
    cols.append(hype_items[picked])
    kinds.append(np.zeros(len(r), dtype=int))
    # shuffle the lines so token first-appearance order is not the index order
    order = rng.permutation(sum(len(r) for r in rows))
    return Log(
        np.concatenate(rows)[order],
        np.concatenate(cols)[order],
        np.concatenate(kinds)[order],
        spec.behaviors,
    )


def write_csv(log: Log, path, seed: int) -> None:
    """Write the log; timestamps are seeded noise, which the CLI parses and drops."""
    stamps = np.random.default_rng([seed, 1]).integers(
        1_600_000_000, 1_700_000_000, size=len(log.rows)
    )
    labels = log.behaviors
    with open(path, "w") as f:
        f.writelines(
            f"u{u},i{v},{labels[k]},{t}\n"
            for u, v, k, t in zip(
                log.rows.tolist(), log.cols.tolist(), log.kinds.tolist(), stamps.tolist()
            )
        )
