#!/usr/bin/env python3
"""Run the ablation grid (ItemPop + four model variants) on synthetic confounded data.

Prints one row per variant with Recall@20/50, NDCG@20/50 and PRI, averaged
over the requested seeds.
"""

import argparse

import numpy as np

from popsi.baselines import VARIANT_NAMES, run_variant
from popsi.data import SplitSpec, split_holdout
from popsi.synth import SynthConfig, generate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5, help="number of generator seeds")
    ap.add_argument("--r", type=int, default=16)
    ap.add_argument("--p", type=float, default=0.2)
    ap.add_argument("--users", type=int, default=300)
    ap.add_argument("--items", type=int, default=200)
    args = ap.parse_args()

    rows = {name: [] for name in VARIANT_NAMES}
    for seed in range(args.seeds):
        tensor = generate(SynthConfig(m1=args.users, m2=args.items, seed=seed))
        split = SplitSpec(rng_seed=seed)
        # one split for every variant, so that `fit` estimates one SVD pair per use_si value
        holdout = split_holdout(tensor, split)
        for name in VARIANT_NAMES:
            rep = run_variant(name, tensor, split, r=args.r, p=args.p, holdout=holdout)
            rows[name].append(
                [rep.recall[20], rep.recall[50], rep.ndcg[20], rep.ndcg[50], rep.pri]
            )

    header = f"{'variant':<18}{'R@20':>8}{'R@50':>8}{'N@20':>8}{'N@50':>8}{'PRI':>8}"
    print(header)
    print("-" * len(header))
    for name in VARIANT_NAMES:
        mean = np.mean(rows[name], axis=0)
        print(f"{name:<18}" + "".join(f"{v:>8.4f}" for v in mean))


if __name__ == "__main__":
    main()
