"""Output checker: compares a popsi run directory against a plain numpy oracle.

The run directory is read through popsi's public `read_coordinate_triples`,
`split_holdout` and `load_model`, and its `effective_config.json` gives the
split seed and ratios and evaluate's K values; everything else (scores,
top-K lists, Recall/NDCG, PRI, fit invariants, subspace convergence) is
recomputed here without popsi.

    python3 perfbench/check.py RUN_DIR [--report FILE] [--recommend FILE]

exits 1 when any check fails and prints one line per failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # the CLI children score with one BLAS thread; so does the oracle
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import numpy as np
import scipy.sparse as sp

TOL = 1e-10  # fit invariants (orthonormality, debias, cores)
METRIC_TOL = 1e-9  # Recall/NDCG/PRI: summation order may differ from popsi's
SCORE_RTOL = 1e-5  # `recommend` prints scores with 6 significant digits
# W and H must be near a fixed point of subspace iteration: POWER_STEPS more
# steps may raise the energy their best rank-r subspace captures by at most
# ENERGY_GAIN_TOL (relative). popsi's fits of the benchmark workloads gain
# 1e-4 to 1.3e-3; the same fits cut to three power steps gain 1.4e-3 (r=32)
# and 4e-3 (r=200), cut to two 5e-3 and 8e-3.
POWER_STEPS = 2
ENERGY_GAIN_TOL = 3e-3


def read_tokens(path: Path) -> list[str]:
    return [line.rstrip("\n") for line in path.read_text().splitlines() if line.strip()]


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, ties sharing the mean of their positions."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.r_[True, xs[1:] != xs[:-1]]
    starts = np.nonzero(first)[0]
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = ((starts + ends + 1) / 2)[np.cumsum(first) - 1]
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float | None:
    if len(x) < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return None
    rx = average_ranks(x) - (len(x) + 1) / 2
    ry = average_ranks(y) - (len(y) + 1) / 2
    return float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))


def energy_gain(A: sp.csr_matrix, B: np.ndarray, r: int) -> float:
    """Relative rise of the energy ||Q^T A||_F^2 that the best rank-r subspace Q
    of range(B) captures, after POWER_STEPS subspace iterations on A A^T from B.

    A converged dominant subspace is a fixed point (0); a basis that stopped
    early, or is wrong, gains. B must have orthonormal columns.
    """
    At = A.T.tocsr()

    def energy(Q: np.ndarray) -> float:
        C = At @ Q
        return float(np.linalg.eigvalsh(C.T @ C)[-r:].sum())

    start = energy(B)
    Q = B
    for _ in range(POWER_STEPS):
        Q, _ = np.linalg.qr(A @ (At @ Q))
    return energy(Q) / start - 1


class RunChecker:
    """Oracle for one run directory; each `check_*` call appends (name, ok, detail) results."""

    def __init__(self, run_dir: Path):
        from popsi.data import SplitSpec, read_coordinate_triples, split_holdout
        from popsi.model import load_model

        run_dir = Path(run_dir)
        config = json.loads((run_dir / "effective_config.json").read_text())
        self.k_values: list[int] = config["k_values"]
        ratios = (config["train_ratio"], config["val_ratio"], config["test_ratio"])
        tensor = read_coordinate_triples(run_dir / "tensor.txt")
        holdout = split_holdout(tensor, SplitSpec(ratios, config["seed"]))
        self.model = load_model(run_dir / "model.bin")
        self.m1, self.m2 = tensor.m1, tensor.m2
        self.entries = tensor.nnz()
        self.train = [s.tocsr() for s in holdout.train.slices]
        self.test = holdout.test_positives
        self.pop = np.asarray(self.train[0].sum(axis=0)).ravel()
        self.users = read_tokens(run_dir / "users.txt")
        self.items = read_tokens(run_dir / "items.txt")
        self.results: list[tuple[str, bool, str]] = []
        # filled by check_report from one pass over the test users
        self._lists: dict[int, list[int]] = {}
        self.zero_score_users = 0
        self.pri: float | None = None
        self.energy_gains: dict[str, float] = {}  # filled by check_fit

    # --- oracle ---

    def scores(self, u: int) -> np.ndarray:
        W, H, S0 = self.model.spaces.W, self.model.spaces.H, self.model.cores[0]
        return (W[u] @ S0) @ H.T

    def top(self, u: int, K: int, scores: np.ndarray | None = None) -> list[int]:
        """K best items, train items excluded, stable descending sort (ties: ascending index).

        Only the items scoring at least the K-th best score, every tie at it
        included, are sorted: their stable order is that of the full sort.
        """
        s = self.scores(u) if scores is None else scores.copy()
        t = self.train[0]
        s[t.indices[t.indptr[u] : t.indptr[u + 1]]] = -np.inf
        K = min(K, len(s))
        kth = -np.partition(-s, K - 1)[K - 1]
        cand = np.flatnonzero((s >= kth) & (s > -np.inf))
        return cand[np.argsort(-s[cand], kind="stable")][:K].tolist()

    def _test_user_pass(self, k_max: int) -> None:
        """Top-k_max lists and PRI rank quantiles for every test user, from one scoring each."""
        sums, counts = np.zeros(self.m2), np.zeros(self.m2)
        for u, pos in self.test.items():
            s = self.scores(u)
            self.zero_score_users += int(not s.any())
            self._lists[u] = self.top(u, k_max, s)
            pos = np.array(sorted(set(pos)))
            if len(pos) >= 2:
                ordered = pos[np.lexsort((pos, -s[pos]))]
                sums[ordered] += np.arange(1, len(pos) + 1) / len(pos)
                counts[ordered] += 1
        rated = np.nonzero(counts)[0]
        corr = spearman(self.pop[rated].astype(float), sums[rated] / counts[rated])
        self.pri = None if corr is None else -corr

    # --- checks ---

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def check_report(self, report_text: str) -> None:
        """Recall/NDCG at every K, PRI and the user counts of an `evaluate` report."""
        try:
            report = json.loads(report_text)
        except json.JSONDecodeError as e:
            self.record("report.json", False, f"not JSON: {e}")
            return
        self._test_user_pass(max(self.k_values))
        expected: dict[str, float | int | None] = {
            "users_evaluated": self.m1,
            "users_skipped_pri": sum(1 for p in self.test.values() if len(p) < 2),
            "pri": self.pri,
        }
        for k in self.k_values:
            discounts = 1.0 / np.log2(np.arange(2, k + 2))
            recall = ndcg = 0.0
            for u, pos in self.test.items():
                pos = set(pos)
                rel = [v in pos for v in self._lists[u][:k]]
                recall += sum(rel) / len(pos)
                ndcg += float(discounts[: len(rel)] @ rel) / float(discounts[: min(len(pos), k)].sum())
            expected[f"recall_at_{k}"] = recall / self.m1
            expected[f"ndcg_at_{k}"] = ndcg / self.m1
        for key, want in expected.items():
            got = report.get(key, "missing")
            if want is None or isinstance(want, int):
                ok = got == want
            else:
                ok = isinstance(got, (int, float)) and abs(got - want) <= METRIC_TOL
            self.record(f"report.{key}", ok, f"report {got!r}, oracle {want!r}")

    def check_recommend(self, tokens: list[str], output: str, K: int) -> None:
        """One `recommend` call's stdout: K `user<TAB>item<TAB>score` lines per token."""
        lines: dict[str, list[tuple[str, float]]] = {}
        for line in output.splitlines():
            parts = line.split("\t")
            if len(parts) == 3:
                try:
                    lines.setdefault(parts[0], []).append((parts[1], float(parts[2])))
                except ValueError:
                    lines.setdefault(parts[0], []).append((parts[1], math.nan))
        user_index = {t: i for i, t in enumerate(self.users)}
        for token in tokens:
            got = lines.get(token, [])
            u = user_index.get(token)
            if u is None:
                self.record(f"recommend.{token}", False, "token not in users.txt")
                continue
            s = self.scores(u)
            want = self.top(u, K, s)
            ok = [g for g, _ in got] == [self.items[v] for v in want] and all(
                abs(score - s[v]) <= SCORE_RTOL * abs(s[v]) + 1e-12
                for (_, score), v in zip(got, want)
            )
            self.record(f"recommend.{token}", ok, f"got {got[:3]}..., oracle {[self.items[v] for v in want[:3]]}...")
        extra = set(lines) - set(tokens)
        if extra:
            self.record("recommend.extra_users", False, f"unrequested users {sorted(extra)[:3]}")

    def check_fit(self) -> None:
        """W, H orthonormal; P^T H = 0 after debias; every core equals W^T X^k H;
        W and H converged to the dominant subspaces of the two unfoldings."""
        W, H = self.model.spaces.W, self.model.spaces.H
        if W.shape[0] != self.m1 or H.shape[0] != self.m2:
            self.record("fit.dims", False, f"W {W.shape}, H {H.shape}, data {self.m1}x{self.m2}")
            return
        for name, B in (("W", W), ("H", H)):
            dev = np.abs(B.T @ B - np.eye(B.shape[1])).max()
            self.record(f"fit.{name}_orthonormal", dev <= TOL, f"max|B^T B - I| = {dev:.3e}")
        H_span = H
        if self.model.use_pop:
            n_popular = math.ceil(self.model.p * self.m2)
            popular = np.zeros(self.m2, dtype=bool)
            popular[np.lexsort((np.arange(self.m2), -self.pop))[:n_popular]] = True
            dev = max(abs(H[popular].sum(axis=0)).max(), abs(H[~popular].sum(axis=0)).max())
            self.record("fit.debias", dev <= TOL, f"max|P^T H| = {dev:.3e}")
            # debias projects the SVD's basis off range(P): [H, P] still spans it
            P = np.stack([popular, ~popular], axis=1) / np.sqrt([n_popular, self.m2 - n_popular])
            H_span = np.hstack([H, P])
        slices = self.train if self.model.use_si else self.train[:1]
        if len(slices) != len(self.model.cores):
            self.record("fit.cores", False, f"{len(self.model.cores)} cores, {len(slices)} slices")
            return
        for k, (X, S) in enumerate(zip(slices, self.model.cores)):
            dev = np.abs(W.T @ (X @ H) - S).max()
            self.record(f"fit.core_{k}", dev <= TOL, f"max|W^T X H - S| = {dev:.3e}")
        unfoldings = (("W", W, sp.hstack(slices, format="csr")),
                      ("H", H_span, sp.hstack([X.T for X in slices], format="csr")))
        for name, B, A in unfoldings:
            gain = energy_gain(A, B, self.model.spaces.r)
            self.energy_gains[name] = gain
            self.record(f"fit.{name}_converged", gain <= ENERGY_GAIN_TOL,
                        f"{POWER_STEPS} more power steps raise its captured energy by {gain:.3e}")

    @property
    def failures(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="check a popsi run directory against an oracle")
    ap.add_argument("run_dir", type=Path)
    ap.add_argument("--report", type=Path, help="report to check (RUN_DIR/report.json)")
    ap.add_argument("--recommend", type=Path,
                    help="saved stdout of one `recommend` call; its K is the most lines of a user")
    args = ap.parse_args(argv)

    checker = RunChecker(args.run_dir)
    checker.check_fit()
    report = args.report or args.run_dir / "report.json"
    checker.check_report(report.read_text())
    if args.recommend:
        text = args.recommend.read_text()
        users = [line.split("\t")[0] for line in text.splitlines() if line]
        counts = {u: users.count(u) for u in users}
        checker.check_recommend(list(counts), text, max(counts.values(), default=1))
    for name, _, detail in checker.failures:
        print(f"FAIL {name}: {detail}")
    print(f"{len(checker.results) - len(checker.failures)}/{len(checker.results)} checks passed")
    return 1 if checker.failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
