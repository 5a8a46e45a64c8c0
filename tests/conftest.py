import os

# one BLAS thread, as CI runs tier-1: set before numpy loads, and a value already set wins
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")

import json
import struct

import numpy as np
import scipy.sparse as sp
import pytest

from popsi.data import InteractionTensor


def random_orthonormal(rng, m, r):
    Q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return Q


def gapped_sparse_matrix(rng, m, n, r, gap_low=5.0, gap_high=10.0, tail=0.05):
    """Sparse matrix with a planted spectral gap after the first r singular values."""
    U = random_orthonormal(rng, m, min(m, n))
    V = random_orthonormal(rng, n, min(m, n))
    s = rng.uniform(0.0, tail, size=min(m, n))
    s[:r] = np.sort(rng.uniform(gap_low, gap_high, size=r))[::-1]
    s = np.sort(s)[::-1]
    return sp.csr_matrix(U @ np.diag(s) @ V.T)


def random_binary_tensor(rng, m1, m2, n, density=0.15):
    slices = []
    for _ in range(n):
        mask = rng.random((m1, m2)) < density
        slices.append(sp.csr_matrix(mask.astype(float)))
    return InteractionTensor(m1, m2, slices, [f"b{k}" for k in range(n)])


def block_binary_tensor(rng, user_blocks, item_blocks, n, noise=0):
    """Binary tensor with community-block structure: a strong spectral gap at
    rank len(user_blocks), plus optional random extra entries."""
    m1, m2 = sum(user_blocks), sum(item_blocks)
    u_edges = np.cumsum([0] + list(user_blocks))
    v_edges = np.cumsum([0] + list(item_blocks))
    slices = []
    for _ in range(n):
        X = np.zeros((m1, m2))
        for g in range(len(user_blocks)):
            X[u_edges[g] : u_edges[g + 1], v_edges[g] : v_edges[g + 1]] = 1.0
        for _ in range(noise):
            X[rng.integers(0, m1), rng.integers(0, m2)] = 1.0
        slices.append(sp.csr_matrix(X))
    return InteractionTensor(m1, m2, slices, [f"b{k}" for k in range(n)])


def subspace_angle_sin(Q, ref):
    """sin of the largest principal angle between span(Q) and span(ref)."""
    resid = ref - Q @ (Q.T @ ref)
    return np.linalg.norm(resid, 2)


def with_metadata(data: bytes, edit) -> bytes:
    """A container (tensor.bin or model.bin) whose JSON metadata `edit` has changed in place;
    the metadata follows the 8-byte magic, the u32 version and its own u32 length."""
    (size,) = struct.unpack("<I", data[12:16])
    meta = json.loads(data[16 : 16 + size])
    edit(meta)
    new = json.dumps(meta, sort_keys=True).encode()
    return data[:12] + struct.pack("<I", len(new)) + new + data[16 + size :]


def tensor_to_log_lines(tensor, behaviors=None):
    """Render a tensor back into delimited interaction-log lines."""
    behaviors = behaviors or tensor.behavior_labels
    lines = []
    for k, s in enumerate(tensor.slices):
        coo = s.tocoo()
        for u, v in zip(coo.row, coo.col):
            lines.append(f"u{u},i{v},{behaviors[k]},{100 + u}")
    return lines
