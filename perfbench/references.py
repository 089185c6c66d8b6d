"""Serial references for the workloads' correctness checks.

Built only from ``repro.baselines.serial`` kernels and plain numpy, so a
defect in the distributed layers cannot hide in its own reference.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.baselines.serial import (
    fusedmm_a_serial,
    fusedmm_b_serial,
    sddmm_serial,
    spmm_a_serial,
    spmm_b_serial,
)
from repro.sparse.coo import CooMatrix


def rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    denom = float(np.linalg.norm(ref))
    return float(np.linalg.norm(x - ref)) / (denom if denom > 0 else 1.0)


def _cg(rhs, matvec, x0, iters):
    """Batched CG with per-row scalars (the ALS normal-equation solve)."""
    def rowdot(x, y):
        return np.einsum("ij,ij->i", x, y)

    x = x0.copy()
    rvec = rhs - matvec(x)
    pvec = rvec.copy()
    rs = rowdot(rvec, rvec)
    for _ in range(iters):
        q = matvec(pvec)
        denom = rowdot(pvec, q)
        alpha = np.where(denom > 1e-300, rs / np.maximum(denom, 1e-300), 0.0)
        x = x + alpha[:, None] * pvec
        rvec = rvec - alpha[:, None] * q
        rs_new = rowdot(rvec, rvec)
        beta = np.where(rs > 1e-300, rs_new / np.maximum(rs, 1e-300), 0.0)
        pvec = rvec + beta[:, None] * pvec
        rs = rs_new
    return x


def als_serial_loss(
    C: CooMatrix, r: int, outer_iters: int, cg_iters: int, lam: float,
    seed: int,
) -> float:
    """Final training loss of serial ALS with the distributed driver's
    initialization (same ``seed``), normal equations and CG schedule."""
    m, n = C.shape
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, r)) * 0.1
    B = rng.standard_normal((n, r)) * 0.1
    pattern = C.with_values(np.ones(C.nnz))
    loss = float("nan")
    for _ in range(outer_iters):
        A = _cg(spmm_a_serial(C, B),
                lambda X: fusedmm_a_serial(pattern, X, B) + lam * X, A, cg_iters)
        B = _cg(spmm_b_serial(C, A),
                lambda X: fusedmm_b_serial(pattern, A, X) + lam * X, B, cg_iters)
        loss = float(np.sum((C.vals - sddmm_serial(pattern, A, B).vals) ** 2))
    return loss


def als_topk(
    user_factors: np.ndarray, item_factors: np.ndarray, seen: CooMatrix,
    user: int, k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense top-k item scores of one user, seen items masked."""
    scores = item_factors @ user_factors[user]
    scores[seen.cols[seen.rows == user]] = -np.inf
    order = np.argsort(-scores, kind="stable")[:k]
    return order, scores[order]


def gat_edge_scores(
    adjacency: CooMatrix, H: np.ndarray, a_left: np.ndarray,
    a_right: np.ndarray, slope: float, node: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Attention scores of one node's out-edges:
    ``S_ij * LeakyReLU(<H_i, a_L> + <H_j, a_R>)``."""
    mask = adjacency.rows == node
    cols = adjacency.cols[mask]
    e = H[node] @ a_left + H[cols] @ a_right
    return cols, adjacency.vals[mask] * np.where(e >= 0, e, slope * e)
