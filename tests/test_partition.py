"""Tests for block partitioning utilities, including hypothesis
properties on the invariants every distribution relies on."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DistributionError
from repro.sparse.partition import (
    block_of,
    block_ranges,
    block_size,
    cyclic_block_index,
    global_to_local_map,
    group_offsets,
    partition_by_owner,
    partition_coo_2d,
    partition_coo_rows,
)


class TestBlockRanges:
    def test_even_split(self):
        np.testing.assert_array_equal(block_ranges(12, 4), [0, 3, 6, 9, 12])

    def test_ragged_split_front_loaded(self):
        np.testing.assert_array_equal(block_ranges(10, 4), [0, 3, 6, 8, 10])

    def test_more_blocks_than_items(self):
        offs = block_ranges(2, 5)
        assert offs[-1] == 2
        sizes = np.diff(offs)
        assert sizes.sum() == 2 and sizes.max() <= 1

    def test_zero_total(self):
        np.testing.assert_array_equal(block_ranges(0, 3), [0, 0, 0, 0])

    def test_invalid_args(self):
        with pytest.raises(DistributionError):
            block_ranges(5, 0)
        with pytest.raises(DistributionError):
            block_ranges(-1, 2)

    @given(total=st.integers(0, 10_000), nblocks=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_property_cover_and_balance(self, total, nblocks):
        offs = block_ranges(total, nblocks)
        sizes = np.diff(offs)
        assert offs[0] == 0 and offs[-1] == total
        assert len(offs) == nblocks + 1
        assert (sizes >= 0).all()
        assert sizes.max() - sizes.min() <= 1 if total else (sizes == 0).all()
        assert (np.diff(offs) >= 0).all()


class TestBlockOf:
    def test_lookup(self):
        offs = block_ranges(10, 3)  # [0,4,7,10]
        idx = np.array([0, 3, 4, 6, 7, 9])
        np.testing.assert_array_equal(block_of(idx, offs), [0, 0, 1, 1, 2, 2])

    @given(total=st.integers(1, 500), nblocks=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_property_consistent_with_ranges(self, total, nblocks):
        offs = block_ranges(total, nblocks)
        idx = np.arange(total)
        b = block_of(idx, offs)
        assert (idx >= offs[b]).all()
        assert (idx < offs[b + 1]).all()

    def test_block_size(self):
        offs = block_ranges(10, 3)
        assert [block_size(offs, k) for k in range(3)] == [4, 3, 3]


class TestCyclic:
    def test_cyclic_block_index(self):
        offs = block_ranges(8, 4)  # blocks [0,2),[2,4),[4,6),[6,8)
        np.testing.assert_array_equal(cyclic_block_index(offs, 2, 0), [0, 1, 4, 5])
        np.testing.assert_array_equal(cyclic_block_index(offs, 2, 1), [2, 3, 6, 7])

    def test_cyclic_partition_is_disjoint_cover(self):
        offs = block_ranges(23, 6)
        parts = [cyclic_block_index(offs, 3, v) for v in range(3)]
        joined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(joined, np.arange(23))

    def test_global_to_local_map(self):
        owned = np.array([4, 7, 9])
        loc = global_to_local_map(12, owned)
        assert loc[4] == 0 and loc[7] == 1 and loc[9] == 2
        assert loc[0] == -1 and loc[11] == -1


class TestGroupOffsets:
    def test_grouping(self):
        fine = block_ranges(10, 4)
        np.testing.assert_array_equal(group_offsets(fine, 2), [0, 6, 10])

    def test_group_must_divide(self):
        with pytest.raises(DistributionError):
            group_offsets(block_ranges(10, 4), 3)

    @given(total=st.integers(0, 1000), nfine=st.integers(1, 8), group=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_property_alignment(self, total, nfine, group):
        nblocks = nfine * group
        fine = block_ranges(total, nblocks)
        coarse = group_offsets(fine, group)
        # every coarse block is the union of `group` consecutive fine blocks
        assert len(coarse) == nfine + 1
        for u in range(nfine):
            assert coarse[u] == fine[u * group]
        assert coarse[-1] == total


class TestPartitionCoo:
    def test_2d_partition_localizes_and_covers(self):
        rows = np.array([0, 5, 9, 2, 7])
        cols = np.array([1, 3, 8, 8, 0])
        vals = np.arange(5.0)
        ro = block_ranges(10, 2)
        co = block_ranges(9, 3)
        parts = partition_coo_2d(rows, cols, vals, ro, co)
        total = sum(len(q[0]) for q in parts.values())
        assert total == 5
        for (bi, bj), (lr, lc, lv, gi) in parts.items():
            np.testing.assert_array_equal(rows[gi] - ro[bi], lr)
            np.testing.assert_array_equal(cols[gi] - co[bj], lc)
            np.testing.assert_array_equal(vals[gi], lv)
            assert (lr >= 0).all() and (lr < ro[bi + 1] - ro[bi]).all()
            assert (lc >= 0).all() and (lc < co[bj + 1] - co[bj]).all()

    def test_2d_partition_empty(self):
        e = np.empty(0, np.int64)
        assert partition_coo_2d(e, e, np.empty(0), block_ranges(4, 2), block_ranges(4, 2)) == {}

    def test_2d_partition_length_mismatch(self):
        with pytest.raises(DistributionError):
            partition_coo_2d(
                np.zeros(2, np.int64), np.zeros(1, np.int64), np.zeros(2),
                block_ranges(4, 2), block_ranges(4, 2),
            )

    def test_rows_partition_keeps_global_columns(self):
        rows = np.array([0, 3, 3])
        cols = np.array([7, 2, 5])
        vals = np.ones(3)
        parts = partition_coo_rows(rows, cols, vals, block_ranges(4, 2))
        assert set(parts) == {0, 1}
        np.testing.assert_array_equal(parts[1][1], [2, 5])  # global cols

    def test_partition_by_owner(self):
        rows = np.arange(6, dtype=np.int64)
        cols = np.arange(6, dtype=np.int64)
        vals = np.arange(6.0)
        owner = np.array([2, 0, 2, 1, 0, 2])
        parts = partition_by_owner(rows, cols, vals, owner, 3)
        assert sorted(parts) == [0, 1, 2]
        np.testing.assert_array_equal(parts[0][3], [1, 4])  # gidx
        np.testing.assert_array_equal(parts[2][0], [0, 2, 5])

    def test_partition_by_owner_orders_parts_past_int64_key(self):
        """Coordinates too large for the combined int64 sort key still
        come back in (row, col) order (the lexsort fallback)."""
        big = np.int64(1) << 40
        rows = np.array([big, 3, big, 3, 0], dtype=np.int64)
        cols = np.array([5, big, 2, 7, big], dtype=np.int64)
        owner = np.array([1, 0, 1, 1, 0])
        parts = partition_by_owner(rows, cols, np.arange(5.0), owner, 2)
        np.testing.assert_array_equal(parts[0][3], [4, 1])
        np.testing.assert_array_equal(parts[1][3], [3, 2, 0])
        np.testing.assert_array_equal(parts[1][0], [3, big, big])
        np.testing.assert_array_equal(parts[1][1], [7, 2, 5])

    def test_partition_by_owner_bad_rank(self):
        one = np.zeros(1, np.int64)
        with pytest.raises(DistributionError):
            partition_by_owner(one, one, np.zeros(1), np.array([5]), 2)

    @given(
        nnz=st.integers(0, 300),
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        nb=st.integers(1, 5),
        mb=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_2d_partition_is_a_bijection(self, nnz, m, n, nb, mb, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, m, nnz).astype(np.int64)
        cols = rng.integers(0, n, nnz).astype(np.int64)
        vals = rng.standard_normal(nnz)
        parts = partition_coo_2d(rows, cols, vals, block_ranges(m, mb), block_ranges(n, nb))
        gidx_all = np.concatenate([q[3] for q in parts.values()]) if parts else np.empty(0)
        assert len(gidx_all) == nnz
        if nnz:
            np.testing.assert_array_equal(np.sort(gidx_all), np.arange(nnz))
