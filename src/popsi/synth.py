"""Synthetic multi-behavior tensors with a planted low-rank structure and popularity confound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from popsi.data import InteractionTensor, _sorted_unique


@dataclass(frozen=True)
class SynthConfig:
    m1: int = 300
    m2: int = 200
    latent_rank: int = 5
    # per-slice interaction densities; slice 0 is the target behavior
    densities: tuple[float, ...] = (0.025, 0.05, 0.08)
    # fraction of items turned into artificially hyped ones on the target slice
    confound_item_fraction: float = 0.1
    # per-user probability of a preference-independent interaction with each hyped item
    confound_strength: float = 0.05
    seed: int = 0


def generate(cfg: SynthConfig) -> InteractionTensor:
    """Binarized slice-rank-`latent_rank` tensor; hyped items gain extra target entries
    that are independent of the planted preferences."""
    rng = np.random.default_rng(cfg.seed)
    U = rng.standard_normal((cfg.m1, cfg.latent_rank))
    V = rng.standard_normal((cfg.m2, cfg.latent_rank))
    labels = [f"behavior_{k}" for k in range(len(cfg.densities))]
    labels[0] = "purchase"

    parts = []  # the (u, v, k) entries of each slice, then the hyped target entries
    for k, density in enumerate(cfg.densities):
        core = np.eye(cfg.latent_rank) + 0.2 * rng.standard_normal(
            (cfg.latent_rank, cfg.latent_rank)
        )
        scores = U @ core @ V.T
        n_keep = max(1, int(round(density * cfg.m1 * cfg.m2)))
        flat = np.argpartition(scores.ravel(), -n_keep)[-n_keep:]
        rows, cols = np.unravel_index(flat, scores.shape)
        parts.append(np.column_stack([rows, cols, np.full(n_keep, k)]))

    if cfg.confound_item_fraction > 0 and cfg.confound_strength > 0:
        n_hype = max(1, int(round(cfg.confound_item_fraction * cfg.m2)))
        hype_items = rng.choice(cfg.m2, size=n_hype, replace=False)
        hits = rng.random((cfg.m1, n_hype)) < cfg.confound_strength
        rows, picked = np.nonzero(hits)
        parts.append(np.column_stack([rows, hype_items[picked], np.zeros_like(rows)]))

    entries = _sorted_unique(np.concatenate(parts), (cfg.m1, cfg.m2, len(labels)))
    return InteractionTensor.from_entries(cfg.m1, cfg.m2, entries, labels)
