#!/usr/bin/env python3
"""Write a seeded sparse interaction log: users uniform, items Zipf(0.9), one label per line.

Unlike `make_synthetic_dataset.py`, which builds a dense users x items score
matrix, this draws every line on its own, so it scales to logs of tens of
thousands of users and items. Repeated (user, item, behavior) lines are kept;
`popsi ingest` counts each pair once.

    python scripts/make_large_log.py large.csv    # 40,000 x 50,000, 400k + 600k lines
    popsi ingest --input large.csv --behaviors purchase,click --out run/
"""

import argparse

import numpy as np

ZIPF = 0.9  # item i (0-based) is drawn with weight (i + 1) ** -ZIPF
LINES = {"purchase": 400_000, "click": 600_000}  # per behavior, the target first


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("output", help="path of the CSV file to write")
    ap.add_argument("--users", type=int, default=40_000)
    ap.add_argument("--items", type=int, default=50_000)
    ap.add_argument("--timestamp", action="store_true",
                    help="add a fourth field, the line's number")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    weights = np.cumsum(np.arange(1, args.items + 1, dtype=float) ** -ZIPF)
    n = 0
    with open(args.output, "w") as f:
        for label, count in LINES.items():
            users = rng.integers(0, args.users, count)
            items = np.searchsorted(weights, rng.random(count) * weights[-1])
            for u, v in zip(users.tolist(), items.tolist()):
                f.write(f"u{u},i{v},{label},{n}\n" if args.timestamp else f"u{u},i{v},{label}\n")
                n += 1
    print(f"wrote {n} lines ({args.users} users, {args.items} items) to {args.output}")
    print(f"behaviors: {','.join(LINES)} (target first)")


if __name__ == "__main__":
    main()
