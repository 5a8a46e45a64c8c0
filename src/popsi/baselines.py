"""ItemPop baseline and named ablation variants of the main model."""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from popsi.data import HoldoutSets, InteractionTensor, SplitSpec, item_popularity, split_holdout
from popsi.metrics import EvalReport, evaluate
from popsi.model import fit, score_user

# variant name -> (use_si, use_pop); ItemPop has no fit flags
VARIANT_FLAGS = {
    "popsi_matrix": (False, False),
    "popsi_matrix_pop": (False, True),
    "popsi_tensor": (True, False),
    "popsi_full": (True, True),
}
VARIANT_NAMES = ("itempop",) + tuple(VARIANT_FLAGS)


def itempop_scores(pop_counts: np.ndarray, users) -> np.ndarray:
    """ItemPop score block: every user's row is the item popularity counts."""
    return np.tile(np.asarray(pop_counts, dtype=float), (len(users), 1))


def run_variant(
    name: str,
    tensor: InteractionTensor,
    split: SplitSpec,
    r: int,
    p: float,
    k_values: Sequence[int] = (20, 50),
    holdout: HoldoutSets | None = None,
) -> EvalReport:
    """Fit one named variant and evaluate it on the held-out positives.

    Variants run on one `holdout` share an SVD pair per `use_si` value (see `fit`).
    """
    if name not in VARIANT_NAMES:
        raise ValueError(f"unknown variant {name!r}; expected one of {VARIANT_NAMES}")
    if holdout is None:
        holdout = split_holdout(tensor, split)

    if name == "itempop":
        score_fn = partial(itempop_scores, item_popularity(holdout.train))
        use_si = use_pop = False
    else:
        use_si, use_pop = VARIANT_FLAGS[name]
        model = fit(holdout.train, r, p, use_si, use_pop, split.rng_seed)
        score_fn = partial(score_user, model)

    config = {"variant": name, "r": r, "p": p, "use_si": use_si, "use_pop": use_pop,
              "seed": split.rng_seed}
    return evaluate(score_fn, holdout.test, holdout.train, k_values, config)
