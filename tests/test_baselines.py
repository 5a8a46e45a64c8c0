import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_binary_tensor
from popsi.baselines import (
    VARIANT_FLAGS,
    itempop_scores,
    run_variant,
)
from popsi.data import InteractionTensor, SplitSpec, split_holdout
from popsi.model import rank_items


def nothing_excluded(m2):
    """A one-user training tensor without target entries."""
    return InteractionTensor(1, m2, [sp.csr_matrix((1, m2))], ["t"])


def test_itempop_sort_by_count():
    block = itempop_scores(np.array([5, 2, 7]), [0])
    items, top = rank_items(block, [0], 2, nothing_excluded(3), {})
    assert items.tolist() == [[2, 0]] and top.tolist() == [[7.0, 5.0]]


def test_itempop_exclusion():
    exclude = InteractionTensor(1, 3, [sp.csr_matrix(([1.0], ([0], [2])), shape=(1, 3))], ["t"])
    items, _ = rank_items(itempop_scores(np.array([5, 2, 7]), [0]), [0], 2, exclude, {})
    assert items.tolist() == [[0, 1]]


def test_itempop_zero_counts_tie_rule():
    items, _ = rank_items(itempop_scores(np.zeros(4), [0]), [0], 3, nothing_excluded(4), {})
    assert items.tolist() == [[0, 1, 2]]


def test_itempop_invalid_k():
    with pytest.raises(ValueError):
        rank_items(itempop_scores(np.array([1.0]), [0]), [0], 0, nothing_excluded(1), {})


def test_variant_flag_mapping():
    assert VARIANT_FLAGS["popsi_full"] == (True, True)
    assert VARIANT_FLAGS["popsi_matrix"] == (False, False)
    assert VARIANT_FLAGS["popsi_matrix_pop"] == (False, True)
    assert VARIANT_FLAGS["popsi_tensor"] == (True, False)


def test_run_variant_unknown_name():
    rng = np.random.default_rng(0)
    tensor = random_binary_tensor(rng, 10, 8, 2, density=0.3)
    with pytest.raises(ValueError):
        run_variant("bogus", tensor, SplitSpec(rng_seed=0), r=2, p=0.2)


def test_run_variant_reports_config():
    rng = np.random.default_rng(1)
    tensor = random_binary_tensor(rng, 20, 15, 2, density=0.3)
    report = run_variant("popsi_full", tensor, SplitSpec(rng_seed=3), r=3, p=0.2, k_values=[5])
    assert report.config["variant"] == "popsi_full"
    assert report.config["use_si"] and report.config["use_pop"]
    assert 0.0 <= report.recall[5] <= 1.0


def test_matrix_variant_matches_single_slice_full():
    # on a single-slice tensor, popsi_matrix and the flag pair (si off, pop off)
    # describe the same computation
    rng = np.random.default_rng(2)
    tensor = random_binary_tensor(rng, 25, 20, 1, density=0.25)
    split = SplitSpec(rng_seed=5)
    a = run_variant("popsi_matrix", tensor, split, r=3, p=0.2, k_values=[10])
    b = run_variant("popsi_tensor", tensor, split, r=3, p=0.2, k_values=[10])
    assert a.recall[10] == pytest.approx(b.recall[10], abs=1e-12)
    assert a.ndcg[10] == pytest.approx(b.ndcg[10], abs=1e-12)


def test_itempop_has_maximal_pri():
    from popsi.synth import SynthConfig, generate

    tensor = generate(SynthConfig(m1=150, m2=80, densities=(0.05, 0.08), seed=11))
    split = SplitSpec(rng_seed=11)
    reports = {
        name: run_variant(name, tensor, split, r=8, p=0.2, k_values=[20])
        for name in ("itempop", "popsi_tensor", "popsi_full")
    }
    assert reports["itempop"].pri >= reports["popsi_tensor"].pri
    assert reports["itempop"].pri >= reports["popsi_full"].pri


@pytest.mark.parametrize("name", sorted(VARIANT_FLAGS))
def test_run_variant_with_given_spaces_matches_refit(name, monkeypatch):
    """A variant run on a holdout whose SVD pair fit already holds, from the variant of the
    same use_si, estimates no pair and reports what the variant fitted on a split of its
    own does."""
    import popsi.model

    tensor = random_binary_tensor(np.random.default_rng(4), 30, 24, 3, density=0.25)
    split = SplitSpec(rng_seed=6)
    holdout = split_holdout(tensor, split)
    estimate, fitted_on = popsi.model.estimate_subspaces, []

    def counted(t, *args, **kwargs):
        fitted_on.append(t.n)
        return estimate(t, *args, **kwargs)

    monkeypatch.setattr("popsi.model.estimate_subspaces", counted)
    use_si = VARIANT_FLAGS[name][0]
    (sibling,) = [other for other, flags in VARIANT_FLAGS.items()
                  if flags[0] == use_si and other != name]
    run_variant(sibling, tensor, split, r=4, p=0.2, k_values=[5, 10], holdout=holdout)
    reused = run_variant(name, tensor, split, r=4, p=0.2, k_values=[5, 10], holdout=holdout)
    n_slices = 3 if use_si else 1
    assert fitted_on == [n_slices]  # the sibling's pair is the one the variant used
    assert reused == run_variant(name, tensor, split, r=4, p=0.2, k_values=[5, 10])
    assert fitted_on == [n_slices, n_slices]  # a split of its own estimates a pair again
