"""Local SpMM kernels.

``SpMMA(S, B) = S @ B`` and ``SpMMB(S, A) = S.T @ A`` over a
:class:`~repro.sparse.coo.SparseBlock`.  The CSR structure of the block is
cached (paper-style amortized preprocessing); each call is a single SciPy
CSR matmul accumulated into the caller's output buffer.  The one-shot
:func:`spmm_scatter` over transient coordinates builds its CSR per call:
SciPy's O(nnz) COO-to-CSR conversion plus one CSR matmul beats a
gather/segment-sum formulation, which materializes an ``nnz x r``
contribution array.

When the caller's profile carries a compiled kernel backend
(``profile.kernels``), the CSR product runs through the backend's
row-partitioned jitted kernel on the same cached ``(indptr, indices,
data)`` arrays — bitwise-identical to the SciPy path, because both walk
each row's nonzeros in CSR index order (gated in
``tests/test_kernel_backends.py``).  Non-float64 operands always take
the SciPy path.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.kernels.sddmm import _f64, _kernel_impl
from repro.runtime.profile import RankProfile
from repro.sparse.coo import SparseBlock


def spmm_flops(nnz: int, r: int) -> int:
    """FLOPs of one SpMM over ``nnz`` nonzeros and width ``r``."""
    return 2 * nnz * r


def spmm_a_block(
    block: SparseBlock,
    B: np.ndarray,
    out: np.ndarray,
    values: Optional[np.ndarray] = None,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """``out += S_block @ B`` (output shaped like A's rows for this block).

    ``values`` overrides the block's stored values (e.g. an SDDMM result
    reusing the input's sparsity structure).
    """
    tracer = profile.tracer if profile is not None else None
    t0 = time.perf_counter() if tracer is not None else 0.0
    if block.nnz:
        impl = _kernel_impl(profile)
        if impl is not None and _f64(B, out):
            indptr, indices, data = block.csr_arrays(values)
            impl.spmm_csr_add(
                indptr, indices, data, np.ascontiguousarray(B), out
            )
        else:
            out += block.csr(values) @ B
    if profile is not None:
        profile.add_flops(spmm_flops(block.nnz, B.shape[1]))
        if tracer is not None:
            tracer.span("spmm-a", "kernel", t0, time.perf_counter())
    return out


def spmm_b_block(
    block: SparseBlock,
    A: np.ndarray,
    out: np.ndarray,
    values: Optional[np.ndarray] = None,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """``out += S_block.T @ A`` (output shaped like B's rows for this block)."""
    tracer = profile.tracer if profile is not None else None
    t0 = time.perf_counter() if tracer is not None else 0.0
    if block.nnz:
        impl = _kernel_impl(profile)
        if impl is not None and _f64(A, out):
            indptr, indices, data = block.csr_arrays(values, transpose=True)
            impl.spmm_csr_add(
                indptr, indices, data, np.ascontiguousarray(A), out
            )
        else:
            out += block.csr_t(values) @ A
    if profile is not None:
        profile.add_flops(spmm_flops(block.nnz, A.shape[1]))
        if tracer is not None:
            tracer.span("spmm-b", "kernel", t0, time.perf_counter())
    return out


def spmm_scatter(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    B: np.ndarray,
    out: np.ndarray,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """``out[rows] += vals * B[cols]`` on transient COO coordinates.

    Used for one-shot products on circulating sparse blocks, which visit
    a rank once per kernel call.  The numpy path builds a SciPy CSR for
    each call — the O(nnz) conversion costs a fraction of the product it
    enables — and accumulates ``out += csr @ B`` in CSR row order.
    Contributions of duplicate coordinates are summed.
    """
    nnz = len(rows)
    if nnz == 0:
        return out
    tracer = profile.tracer if profile is not None else None
    t0 = time.perf_counter() if tracer is not None else 0.0
    impl = _kernel_impl(profile)
    if impl is not None and _f64(vals, B, out):
        # the compiled kernel walks row segments of the row-sorted COO
        order = np.argsort(rows, kind="stable")
        r_sorted = rows[order]
        seg_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(r_sorted)) + 1, [nnz])
        ).astype(np.int64)
        impl.spmm_scatter_add(
            np.ascontiguousarray(r_sorted, dtype=np.int64),
            np.ascontiguousarray(cols[order], dtype=np.int64),
            np.ascontiguousarray(vals[order]),
            np.ascontiguousarray(B),
            out,
            seg_starts,
        )
    else:
        M = sp.csr_matrix((vals, (rows, cols)), shape=(out.shape[0], B.shape[0]))
        out += M @ B
    if profile is not None:
        profile.add_flops(spmm_flops(nnz, B.shape[1]))
        if tracer is not None:
            tracer.span("spmm-scatter", "kernel", t0, time.perf_counter())
    return out
