"""End-to-end acceptance suite; each test prints one PASS line when its criterion holds."""

import json
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    gapped_sparse_matrix,
    random_binary_tensor,
    random_orthonormal,
    subspace_angle_sin,
    tensor_to_log_lines,
)
from popsi.baselines import run_variant
from popsi.cli import main as cli_main
from popsi.data import SplitSpec
from popsi.linalg import project_out, truncated_svd_left
from popsi.metrics import avg_rank_quantiles, ndcg_at_k, pri, recall_at_k, spearman
from popsi.model import build_popularity_features, fit, score_user, unfold, refold
from popsi.synth import SynthConfig, generate
from test_metrics import ref_ndcg, ref_recall, ref_spearman


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_acceptance_01_svd_oracle():
    rng = np.random.default_rng(2024)
    # CPU time, so a busy host does not fail the bound; with several BLAS threads it
    # counts every thread's time, which is stricter than wall time
    start = time.process_time()
    for _ in range(50):
        m = int(rng.integers(20, 201))
        n = int(rng.integers(20, 201))
        r = int(rng.integers(2, 9))
        A = gapped_sparse_matrix(rng, m, n, r)
        Q = truncated_svd_left(A, r, int(rng.integers(1 << 30)))
        ref = np.linalg.svd(A.toarray(), full_matrices=False)[0][:, :r]
        assert subspace_angle_sin(Q, ref) <= 1e-8
    elapsed = time.process_time() - start
    assert elapsed < 5.0, f"SVD oracle suite took {elapsed:.2f}s of CPU time"
    report(1, "truncated SVD vs dense oracle")


def test_acceptance_02_closed_form_optimality():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m1 = int(rng.integers(5, 21))
        m2 = int(rng.integers(5, 21))
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, min(m1, m2, 5) + 1))
        tensor = random_binary_tensor(rng, m1, m2, n, density=0.3)
        if tensor.nnz() == 0:
            continue
        model = fit(
            tensor, r=r, use_si=True, use_pop=False,
            seed=int(rng.integers(1 << 30)),
        )
        W, H = model.spaces.W, model.spaces.H
        design = np.kron(H, W)
        for k, Xk in enumerate(tensor.slices):
            s_opt, *_ = np.linalg.lstsq(design, Xk.toarray().ravel(order="F"), rcond=None)
            S_opt = s_opt.reshape(model.cores[k].shape, order="F")
            res_model = np.linalg.norm(W @ model.cores[k] @ H.T - Xk.toarray())
            res_opt = np.linalg.norm(W @ S_opt @ H.T - Xk.toarray())
            assert res_model <= res_opt + 1e-8
    report(2, "closed-form cores attain the least-squares optimum")


def test_acceptance_03_debias_orthogonality():
    rng = np.random.default_rng(11)
    for trial in range(10):
        tensor = random_binary_tensor(
            rng, int(rng.integers(15, 40)), int(rng.integers(12, 30)), 2, density=0.2
        )
        if tensor.target.nnz == 0:
            continue
        p = float(rng.uniform(0.1, 0.4))
        model = fit(tensor, r=4, p=p, use_si=True, use_pop=True)
        pop = np.asarray(tensor.target.sum(axis=0)).ravel()
        P = build_popularity_features(pop, p).P
        assert np.max(np.abs(P.T @ model.spaces.H)) <= 1e-10
        # projector idempotence
        H = rng.standard_normal((tensor.m2, 4))
        once = project_out(H, P)
        assert np.max(np.abs(project_out(once, P) - once)) <= 1e-12
    report(3, "debias orthogonality and projector idempotence")


def test_acceptance_04_projector_invariance():
    rng = np.random.default_rng(13)
    tensor = random_binary_tensor(rng, 25, 18, 3, density=0.25)
    r = 5
    model = fit(tensor, r=r, use_si=True, use_pop=False, seed=1)
    W, H = model.spaces.W, model.spaces.H
    for _ in range(20):
        R1 = random_orthonormal(rng, W.shape[1], W.shape[1])
        R2 = random_orthonormal(rng, H.shape[1], H.shape[1])
        W2, H2 = W @ R1, H @ R2
        cores2 = [W2.T @ Xk.toarray() @ H2 for Xk in tensor.slices]
        u = int(rng.integers(0, tensor.m1))
        k = int(rng.integers(0, tensor.n))
        rotated = (W2[u] @ cores2[k]) @ H2.T
        assert np.max(np.abs(rotated - score_user(model, u, k))) <= 1e-8
    report(4, "scores invariant under orthogonal basis changes")


def test_acceptance_05_unfolding_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(100):
        tensor = random_binary_tensor(
            rng,
            int(rng.integers(2, 9)),
            int(rng.integers(2, 9)),
            int(rng.integers(1, 5)),
            density=0.3,
        )
        for mode in (1, 2):
            u = unfold(tensor, mode)
            assert u.nnz == tensor.nnz()
            for a, b in zip(tensor.slices, refold(u, mode, tensor.dims)):
                assert (a != b).nnz == 0
    # worked index-map examples: X^1 at (1,1), X^2 at (2,2) 1-based
    from popsi.data import InteractionTensor

    slices = [
        sp.csr_matrix((np.ones(1), ([0], [0])), shape=(2, 2)),
        sp.csr_matrix((np.ones(1), ([1], [1])), shape=(2, 2)),
    ]
    t = InteractionTensor(2, 2, slices, ["a", "b"])
    u1 = unfold(t, 1).tocoo()
    assert sorted(zip(u1.row.tolist(), u1.col.tolist())) == [(0, 0), (1, 3)]
    u2 = unfold(t, 2).tocoo()
    assert sorted(zip(u2.row.tolist(), u2.col.tolist())) == [(0, 0), (1, 3)]
    report(5, "unfold/refold round trip and index map")


def test_acceptance_06_metric_oracles():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n_users = int(rng.integers(1, 11))
        n_items = int(rng.integers(2, 16))
        K = int(rng.integers(1, n_items + 1))
        rec_lists, positives = {}, {}
        for u in range(n_users):
            rec_lists[u] = rng.permutation(n_items)[:K].tolist()
            n_pos = int(rng.integers(0, min(6, n_items) + 1))
            positives[u] = sorted(rng.permutation(n_items)[:n_pos].tolist())
        assert recall_at_k(rec_lists, positives, n_users) == ref_recall(
            rec_lists, positives, n_users
        )
        assert ndcg_at_k(rec_lists, positives, n_users, K) == pytest.approx(
            ref_ndcg(rec_lists, positives, n_users, K), abs=1e-12
        )
        xs = rng.integers(-5, 6, size=int(rng.integers(2, 12))).astype(float)
        ys = rng.integers(-5, 6, size=len(xs)).astype(float)
        if len(set(xs)) > 1 and len(set(ys)) > 1:
            assert spearman(xs, ys) == pytest.approx(ref_spearman(xs, ys), abs=1e-12)
            quantiles = dict(enumerate((np.argsort(np.argsort(ys)) + 1) / len(ys)))
            pops = xs - xs.min() + 1
            assert pri(quantiles, pops) == pytest.approx(
                -ref_spearman(pops.tolist(), [quantiles[i] for i in range(len(ys))]),
                abs=1e-12,
            )
    # NDCG hand example reproduces to 4 decimals
    assert round(ndcg_at_k({0: [5, 9, 6]}, {0: [5, 6]}, 1, K=3), 4) == 0.9197
    report(6, "metrics match brute-force references")


def test_acceptance_07_debias_lowers_pri_directionally():
    start = time.perf_counter()
    wins = 0
    rel_drops = []
    for seed in range(20):
        tensor = generate(SynthConfig(seed=seed))
        split = SplitSpec(rng_seed=seed)
        off = run_variant("popsi_tensor", tensor, split, r=16, p=0.2)
        on = run_variant("popsi_full", tensor, split, r=16, p=0.2)
        if on.pri < off.pri:
            wins += 1
        rel_drops.append((off.ndcg[50] - on.ndcg[50]) / off.ndcg[50])
    elapsed = time.perf_counter() - start
    assert wins >= 19, f"debias lowered PRI in only {wins}/20 runs"
    assert max(rel_drops) <= 0.25, f"NDCG@50 relative drop up to {max(rel_drops):.3f}"
    assert elapsed < 60.0, f"ablation suite took {elapsed:.1f}s"
    report(7, f"debias lowers PRI ({wins}/20), max NDCG drop {max(rel_drops):.3f}")


def test_acceptance_08_side_information_helps_directionally():
    wins = 0
    for seed in range(20):
        tensor = generate(
            SynthConfig(densities=(0.004, 0.05, 0.08), confound_item_fraction=0.0, seed=seed)
        )
        assert tensor.target.nnz / (tensor.m1 * tensor.m2) <= 0.005
        split = SplitSpec(rng_seed=seed)
        on = run_variant("popsi_tensor", tensor, split, r=8, p=0.2)
        off = run_variant("popsi_matrix", tensor, split, r=8, p=0.2)
        if on.ndcg[50] > off.ndcg[50]:
            wins += 1
    assert wins >= 19, f"side information improved NDCG@50 in only {wins}/20 runs"
    report(8, f"multi-behavior side information helps ({wins}/20)")


def test_acceptance_09_scalability():
    cfg = SynthConfig(
        m1=1463,
        m2=800,
        densities=(0.00142, 0.003, 0.003, 0.0035),
        confound_item_fraction=0.05,
        confound_strength=0.02,
        seed=0,
    )
    tensor = generate(cfg)
    assert 10_000 <= tensor.nnz() <= 16_000
    start = time.perf_counter()
    rep = run_variant("popsi_full", tensor, SplitSpec(rng_seed=0), r=200, p=0.2)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"full fit+evaluate took {elapsed:.1f}s"
    assert rep.ndcg[50] is not None
    report(9, f"Tmall-S-scale fit+evaluate in {elapsed:.1f}s")


def test_acceptance_10_end_to_end_determinism(tmp_path):
    tensor = generate(SynthConfig(m1=80, m2=50, densities=(0.05, 0.08), seed=4))
    log = tmp_path / "interactions.csv"
    log.write_text("\n".join(tensor_to_log_lines(tensor, ["purchase", "click"])) + "\n")

    reports = []
    for run_dir in ("run1", "run2"):
        out = tmp_path / run_dir
        base = [
            "--input", str(log), "--behaviors", "purchase,click",
            "--out", str(out), "--seed", "5", "--r", "6", "--k", "10", "--k", "20",
        ]
        assert cli_main(["ingest"] + base) == 0
        common = ["--out", str(out), "--seed", "5", "--r", "6", "--k", "10", "--k", "20"]
        assert cli_main(["fit"] + common) == 0
        assert cli_main(["evaluate"] + common) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    json.loads(reports[0])  # valid JSON
    report(10, "byte-identical evaluation reports across runs")
