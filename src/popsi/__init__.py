"""Popularity-aware top-K recommendation from multi-behavior implicit feedback."""

from popsi.data import (
    HoldoutSets,
    InteractionTensor,
    ParsedLog,
    SplitSpec,
    build_tensor,
    item_popularity,
    parse_interactions,
    split_holdout,
)
from popsi.baselines import VARIANT_NAMES, itempop_recommend, run_variant
from popsi.linalg import SvdOptions, orthonormalize, project_out, truncated_svd_left
from popsi.model import (
    FeatureSpaces,
    PopularityFeatures,
    PreferenceModel,
    build_popularity_features,
    debias_item_space,
    estimate_subspaces,
    fit,
    load_model,
    rank_items,
    save_model,
    score_user,
    unfold,
)
from popsi.metrics import EvalReport, evaluate, ndcg_at_k, pri, recall_at_k, spearman

__version__ = "0.1.0"
