"""Local SpMM kernels.

``SpMMA(S, B) = S @ B`` and ``SpMMB(S, A) = S.T @ A`` over a
:class:`~repro.sparse.coo.SparseBlock`.  The CSR structure of the block is
cached (paper-style amortized preprocessing); each call is a single SciPy
CSR matmul accumulated into the caller's output buffer.  The one-shot
:func:`spmm_scatter` over transient coordinates builds its CSR per call
and runs one CSR matmul, which beats a gather/segment-sum formulation
(that materializes an ``nnz x r`` contribution array).  Its chunks
arrive in (row, col) order, so the build is a ``bincount`` of the rows,
not a COO-to-CSR conversion sort.

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


def _csr_indptr(
    major: np.ndarray, minor: np.ndarray, n_major: int, n_minor: int
) -> Optional[np.ndarray]:
    """CSR ``indptr`` of in-range coordinates in strict (major, minor)
    order — CSR order without duplicates — else ``None``."""
    if n_major * n_minor > np.iinfo(np.int64).max:
        return None
    if minor.min() < 0 or minor.max() >= n_minor:
        return None
    key = major.astype(np.int64, copy=False) * n_minor + minor
    if not (key[1:] > key[:-1]).all():
        return None
    if major[0] < 0 or major[-1] >= n_major:
        return None
    indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum(np.bincount(major, minlength=n_major), out=indptr[1:])
    return indptr


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

    Used for products on circulating sparse chunks, which visit a rank
    once per kernel call.  The numpy path accumulates ``out += M @ B``
    with ``M`` the SciPy CSR of the coordinates, built one of three ways,
    chosen from the input's own order:

    * ``(rows, cols)`` in strict (row, col) order — the order
      :func:`~repro.sparse.partition.partition_by_owner` gives every
      chunk: ``indptr`` from a ``bincount``, no conversion;
    * ``(cols, rows)`` in strict order — the SpMMB call
      ``spmm_scatter(lcols, rows, ...)`` on such a chunk: the CSR of the
      transpose from a ``bincount``, applied as ``M.T @ B``;
    * anything else (unsorted, or with duplicate coordinates): SciPy's
      COO-to-CSR conversion, which sorts and sums duplicates.

    Every path adds each output row's contributions in ascending column
    order, so for duplicate-free input all three are bitwise equal.
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
        nr, nc = out.shape[0], B.shape[0]
        indptr = _csr_indptr(rows, cols, nr, nc)
        if indptr is not None:
            M = sp.csr_matrix((vals, cols, indptr), shape=(nr, nc))
        else:
            indptr = _csr_indptr(cols, rows, nc, nr)
            if indptr is not None:
                # column-ordered (the SpMMB call over a row-ordered chunk):
                # the CSR of the transpose, applied transposed
                M = sp.csr_matrix((vals, rows, indptr), shape=(nc, nr)).T
            else:
                M = sp.csr_matrix((vals, (rows, cols)), shape=(nr, nc))
        out += M @ B
    if profile is not None:
        profile.add_flops(spmm_flops(nnz, B.shape[1]))
        if tracer is not None:
            tracer.span("spmm-scatter", "kernel", t0, time.perf_counter())
    return out
