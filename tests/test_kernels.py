"""Tests for the local kernels: SDDMM, SpMM and the fused local kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.fused import fusedmm_local, fusedmm_reference
from repro.kernels.sddmm import (
    GatScoreOp,
    _chunk_nnz,
    gat_edge_scores,
    make_gat_operands,
    sddmm_coo,
    sddmm_custom,
)
from repro.kernels.spmm import spmm_a_block, spmm_b_block, spmm_flops, spmm_scatter
from repro.runtime.profile import RankProfile
from repro.sparse.coo import SparseBlock
from repro.sparse.generate import erdos_renyi


def _chunked_case(r, delta, pad=0):
    """COO coordinates spanning three SDDMM chunks at width ``r``, plus
    ``delta`` nonzeros, over dense operands of width ``r + pad``."""
    nnz = 3 * _chunk_nnz(r) + delta
    rng = np.random.default_rng(nnz)
    m, n = 97, 89
    rows = rng.integers(0, m, nnz)
    cols = rng.integers(0, n, nnz)
    A = rng.standard_normal((m, r + pad))
    B = rng.standard_normal((n, r + pad))
    return rows, cols, A, B


def _dense_dots(A, B, rows, cols):
    """Reference SDDMM dots read off the dense product ``A @ B.T``."""
    return (A @ B.T)[rows, cols]


def _assert_dots_close(got, ref, r):
    """Reduction-order agreement: ``O(r * eps)`` of unit-scale products."""
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=r * 1e-14)


@pytest.fixture
def problem(rng):
    m, n, r = 40, 35, 12
    S = erdos_renyi(m, n, 5, seed=11)
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((n, r))
    blk = SparseBlock(S.rows, S.cols, S.vals, S.shape)
    ref_dots = np.einsum("ij,ij->i", A[S.rows], B[S.cols])
    return S, A, B, blk, ref_dots


class TestSddmm:
    def test_matches_dense_reference(self, problem):
        S, A, B, blk, ref = problem
        got = sddmm_coo(A, B, S.rows, S.cols)
        np.testing.assert_allclose(got, ref)

    def test_values_multiply(self, problem):
        S, A, B, blk, ref = problem
        got = sddmm_coo(A, B, S.rows, S.cols, s_vals=S.vals)
        np.testing.assert_allclose(got, S.vals * ref)

    def test_accumulate_into_out(self, problem):
        S, A, B, blk, ref = problem
        out = np.ones(S.nnz)
        sddmm_coo(A, B, S.rows, S.cols, out=out, accumulate=True)
        np.testing.assert_allclose(out, 1.0 + ref)

    def test_out_without_accumulate_overwrites(self, problem):
        S, A, B, blk, ref = problem
        out = np.full(S.nnz, 99.0)
        sddmm_coo(A, B, S.rows, S.cols, out=out, accumulate=False)
        np.testing.assert_allclose(out, ref)

    def test_col_range_partials_sum_to_total(self, problem):
        S, A, B, blk, ref = problem
        r = A.shape[1]
        acc = np.zeros(S.nnz)
        for k0 in range(0, r, 4):
            sddmm_coo(A, B, S.rows, S.cols, out=acc, accumulate=True, col_range=(k0, k0 + 4))
        np.testing.assert_allclose(acc, ref)

    def test_chunking_path(self):
        rows, cols, A, B = _chunked_case(r=64, delta=5)
        got = sddmm_coo(A, B, rows, cols)
        _assert_dots_close(got, _dense_dots(A, B, rows, cols), 64)

    def test_chunk_sizes_follow_byte_budget(self):
        # two float64 rows per nonzero fill 512 KiB, floored at 256
        assert [_chunk_nnz(r) for r in (2, 16, 32, 64, 128, 1024)] == [
            16384, 2048, 1024, 512, 256, 256,
        ]

    def test_zero_width_operands(self):
        idx = np.array([0, 2, 1], dtype=np.int64)
        got = sddmm_coo(np.zeros((3, 0)), np.zeros((3, 0)), idx, idx)
        np.testing.assert_array_equal(got, 0.0)

    @pytest.mark.parametrize("r", [2, 32, 64, 128])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_boundaries(self, r, delta):
        """nnz at 3 chunks - 1 / exactly / + 1, with s_vals, accumulate and
        a col_range strip of width r (the width that sizes the chunks)."""
        rows, cols, A, B = _chunked_case(r, delta, pad=3)
        rng = np.random.default_rng(r)
        s_vals = rng.standard_normal(len(rows))
        out = rng.standard_normal(len(rows))
        start = out.copy()
        sddmm_coo(A, B, rows, cols, s_vals=s_vals, out=out, accumulate=True,
                  col_range=(1, r + 1))
        strip = _dense_dots(A[:, 1 : r + 1], B[:, 1 : r + 1], rows, cols)
        _assert_dots_close(out, (start + strip) * s_vals, r)
        # the full width, overwriting a stale out
        out = np.full(len(rows), 7.0)
        sddmm_coo(A, B, rows, cols, out=out)
        _assert_dots_close(out, _dense_dots(A, B, rows, cols), r + 3)

    def test_flop_accounting(self, problem):
        S, A, B, blk, _ = problem
        prof = RankProfile()
        sddmm_coo(A, B, S.rows, S.cols, profile=prof)
        assert prof.total().flops == 2 * S.nnz * A.shape[1]

    def test_empty_nnz(self, rng):
        A = rng.standard_normal((4, 3))
        e = np.empty(0, np.int64)
        out = sddmm_coo(A, A, e, e)
        assert out.shape == (0,)

    @given(r=st.integers(1, 20), seed=st.integers(0, 1 << 16))
    @settings(max_examples=50, deadline=None)
    def test_property_sddmm_is_bilinear(self, r, seed):
        rng = np.random.default_rng(seed)
        m, n = 15, 12
        S = erdos_renyi(m, n, 3, seed=seed)
        A1 = rng.standard_normal((m, r))
        A2 = rng.standard_normal((m, r))
        B = rng.standard_normal((n, r))
        lhs = sddmm_coo(A1 + A2, B, S.rows, S.cols)
        rhs = sddmm_coo(A1, B, S.rows, S.cols) + sddmm_coo(A2, B, S.rows, S.cols)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestSddmmCustom:
    @pytest.mark.parametrize("r", [2, 32, 64, 128])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_boundaries(self, r, delta):
        rows, cols, A, B = _chunked_case(r, delta)
        got = sddmm_custom(A, B, rows, cols, lambda a, b: np.einsum("ij,ij->i", a, b))
        _assert_dots_close(got, _dense_dots(A, B, rows, cols), r)
        rng = np.random.default_rng(r)
        op = GatScoreOp(rng.standard_normal(r), rng.standard_normal(r), 0.2)
        raw = (A @ op.a_row)[rows] + (B @ op.a_col)[cols]
        ref = np.where(raw >= 0, raw, 0.2 * raw)
        _assert_dots_close(sddmm_custom(A, B, rows, cols, op), ref, r)

    def test_custom_dot_equals_plain(self, problem):
        S, A, B, blk, ref = problem
        got = sddmm_custom(
            A, B, S.rows, S.cols, lambda a, b: np.einsum("ij,ij->i", a, b)
        )
        np.testing.assert_allclose(got, ref)

    def test_gat_edge_scores(self, rng):
        S = erdos_renyi(20, 20, 3, seed=0)
        uL = rng.standard_normal(20)
        uR = rng.standard_normal(20)
        got = gat_edge_scores(uL, uR, S.rows, S.cols, negative_slope=0.2)
        raw = uL[S.rows] + uR[S.cols]
        ref = np.where(raw >= 0, raw, 0.2 * raw)
        np.testing.assert_allclose(got, ref)

    def test_gat_operands_reduce_to_sddmm(self, rng):
        """The paper's claim: GAT scores are an SDDMM with width-2 operands."""
        S = erdos_renyi(25, 25, 4, seed=1)
        uL = rng.standard_normal(25)
        uR = rng.standard_normal(25)
        A2, B2 = make_gat_operands(uL, uR)
        via_sddmm = sddmm_coo(A2, B2, S.rows, S.cols)
        np.testing.assert_allclose(via_sddmm, uL[S.rows] + uR[S.cols])


class TestSpmm:
    def test_spmm_a(self, problem):
        S, A, B, blk, _ = problem
        out = np.zeros((S.nrows, B.shape[1]))
        spmm_a_block(blk, B, out)
        np.testing.assert_allclose(out, S.to_scipy() @ B)

    def test_spmm_a_accumulates(self, problem):
        S, A, B, blk, _ = problem
        out = np.ones((S.nrows, B.shape[1]))
        spmm_a_block(blk, B, out)
        np.testing.assert_allclose(out, 1.0 + S.to_scipy() @ B)

    def test_spmm_b(self, problem):
        S, A, B, blk, _ = problem
        out = np.zeros((S.ncols, A.shape[1]))
        spmm_b_block(blk, A, out)
        np.testing.assert_allclose(out, S.to_scipy().T @ A)

    def test_value_override(self, problem):
        S, A, B, blk, _ = problem
        alt = np.arange(S.nnz, dtype=float)
        out = np.zeros((S.nrows, B.shape[1]))
        spmm_a_block(blk, B, out, values=alt)
        ref = S.with_values(alt).to_scipy() @ B
        np.testing.assert_allclose(out, ref)

    def test_spmm_scatter(self, problem):
        S, A, B, blk, _ = problem
        out = np.zeros((S.nrows, B.shape[1]))
        spmm_scatter(S.rows, S.cols, S.vals, B, out)
        np.testing.assert_allclose(out, S.to_scipy() @ B)

    def test_spmm_scatter_empty(self, rng):
        out = np.zeros((3, 2))
        e = np.empty(0, np.int64)
        spmm_scatter(e, e, np.empty(0), rng.standard_normal((3, 2)), out)
        np.testing.assert_allclose(out, 0)

    def test_spmm_scatter_duplicate_rows_sum(self, rng):
        B = rng.standard_normal((4, 3))
        rows = np.array([1, 1, 1], dtype=np.int64)
        cols = np.array([0, 2, 3], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0])
        out = np.zeros((2, 3))
        spmm_scatter(rows, cols, vals, B, out)
        np.testing.assert_allclose(out[1], B[0] + 2 * B[2] + 3 * B[3])
        np.testing.assert_allclose(out[0], 0)

    def test_spmm_scatter_float32_vals_integer_b(self, problem, rng):
        S, _, _, _, _ = problem
        vals = S.vals.astype(np.float32)
        B = rng.integers(-5, 6, size=(S.ncols, 4))
        out = np.zeros((S.nrows, 4))
        spmm_scatter(S.rows, S.cols, vals, B, out)
        ref = S.with_values(vals.astype(np.float64)).to_scipy() @ B.astype(np.float64)
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_spmm_scatter_operands_taller_than_coordinates(self, rng):
        rows = np.array([0, 2, 2, 1], dtype=np.int64)
        cols = np.array([3, 0, 3, 1], dtype=np.int64)
        vals = np.array([1.0, -2.0, 0.5, 4.0])
        B = rng.standard_normal((9, 3))  # rows 4..8 are never referenced
        out = np.ones((6, 3))  # rows 3..5 receive nothing
        spmm_scatter(rows, cols, vals, B, out)
        ref = np.ones((6, 3))
        for i, j, v in zip(rows, cols, vals):
            ref[i] += v * B[j]
        np.testing.assert_allclose(out, ref, rtol=1e-14)
        np.testing.assert_array_equal(out[3:], 1.0)

    def test_spmm_scatter_repeatable_bitwise(self, rng):
        rows = rng.integers(0, 50, 4000)
        cols = rng.integers(0, 60, 4000)
        vals = rng.standard_normal(4000)
        B = rng.standard_normal((60, 16))
        first, second = np.zeros((50, 16)), np.zeros((50, 16))
        spmm_scatter(rows, cols, vals, B, first)
        spmm_scatter(rows, cols, vals, B, second)
        np.testing.assert_array_equal(first, second)

    def test_flops(self):
        assert spmm_flops(100, 8) == 1600


class TestFusedLocal:
    def test_matches_two_step_reference(self, problem):
        S, A, B, blk, _ = problem
        out = np.zeros((S.nrows, B.shape[1]))
        fusedmm_local(A, B, blk, out)
        ref = fusedmm_reference(S.rows, S.cols, S.vals, A, B, S.shape, "a")
        np.testing.assert_allclose(out, ref)

    def test_returns_sddmm_when_asked(self, problem):
        S, A, B, blk, ref_dots = problem
        out = np.zeros((S.nrows, B.shape[1]))
        r_vals = fusedmm_local(A, B, blk, out, return_sddmm=True)
        np.testing.assert_allclose(r_vals, S.vals * ref_dots)

    def test_pattern_only(self, problem):
        S, A, B, blk, ref_dots = problem
        out = np.zeros((S.nrows, B.shape[1]))
        r_vals = fusedmm_local(A, B, blk, out, use_values=False, return_sddmm=True)
        np.testing.assert_allclose(r_vals, ref_dots)

    def test_empty_block(self, rng):
        e = np.empty(0, np.int64)
        blk = SparseBlock(e, e, np.empty(0), (3, 3))
        out = np.zeros((3, 2))
        assert fusedmm_local(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), blk, out) is None

    def test_fusedmm_reference_variant_b(self, problem):
        S, A, B, blk, ref_dots = problem
        got = fusedmm_reference(S.rows, S.cols, S.vals, A, B, S.shape, "b")
        R = S.with_values(S.vals * ref_dots)
        np.testing.assert_allclose(got, R.to_scipy().T @ A)

    def test_fusedmm_reference_bad_variant(self, problem):
        S, A, B, blk, _ = problem
        with pytest.raises(ValueError):
            fusedmm_reference(S.rows, S.cols, S.vals, A, B, S.shape, "c")
