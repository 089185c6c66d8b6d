"""Tests for the sparse-aware communication subsystem.

Covers the three layers of :mod:`repro.comm_sparse` — plan accounting,
neighborhood collectives, need-list planners — plus the generic
``alltoallv`` primitive, the plan cache, and the contract that a
:class:`CommPlan`'s static word counts equal the traffic a
:class:`RankProfile` measures during real kernel runs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algorithms.registry import make_algorithm
from repro.baselines.serial import sddmm_serial
from repro.comm_sparse import (
    CommPlan,
    PeerExchange,
    clear_plan_cache,
    plan_cache_stats,
    plan_sparse_replicate_25d,
    plan_sparse_shift_15d,
    sparse_allgatherv,
    sparse_reduce_scatterv,
)
from repro.errors import CommError
from repro.runtime.spmd import run_spmd
from repro.sparse.coo import CooMatrix
from repro.sparse.generate import erdos_renyi, random_permutation, rmat
from repro.sparse.partition import block_of, partition_by_owner
from repro.types import Mode, Phase


def ix(*vals):
    return np.asarray(vals, dtype=np.int64)


# ----------------------------------------------------------------------
# plan accounting
# ----------------------------------------------------------------------


class TestCommPlan:
    def make_plan(self):
        peers = (
            PeerExchange(peer=1, send_rows=ix(0, 2), recv_rows=ix(1), send_width=4, recv_width=4),
            PeerExchange(peer=2, send_rows=ix(), recv_rows=ix(3, 4, 5), send_width=4, recv_width=2),
        )
        return CommPlan(key="test", size=3, rank=0, peers=peers)

    def test_word_counts(self):
        plan = self.make_plan()
        assert plan.send_words() == 2 * 4
        assert plan.recv_words() == 1 * 4 + 3 * 2
        assert plan.send_messages() == 1  # empty leg to peer 2 is skipped
        assert plan.recv_messages() == 2

    def test_reversed_swaps_roles(self):
        plan = self.make_plan()
        rev = plan.reversed()
        assert rev.send_words() == plan.recv_words()
        assert rev.recv_words() == plan.send_words()
        assert rev.send_messages() == plan.recv_messages()
        # double reversal is the identity on the accounting
        assert rev.reversed().recv_words() == plan.recv_words()

    def test_self_peer_rejected(self):
        bad = PeerExchange(peer=0, send_rows=ix(0), recv_rows=ix(0), send_width=1, recv_width=1)
        with pytest.raises(CommError):
            CommPlan(key="bad", size=2, rank=0, peers=(bad,))

    def test_out_of_range_peer_rejected(self):
        bad = PeerExchange(peer=5, send_rows=ix(), recv_rows=ix(), send_width=1, recv_width=1)
        with pytest.raises(CommError):
            CommPlan(key="bad", size=2, rank=0, peers=(bad,))


# ----------------------------------------------------------------------
# alltoallv primitive
# ----------------------------------------------------------------------


class TestAlltoallv:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_values(self, p):
        def body(comm):
            bufs = [np.array([comm.rank * 100 + k]) for k in range(p)]
            got = comm.alltoallv(bufs)
            return [int(g[0]) for g in got]

        results, _ = run_spmd(p, body)
        for r in range(p):
            assert results[r] == [src * 100 + r for src in range(p)]

    def test_traffic_is_sum_of_addressed_blocks(self):
        p = 4

        def body(comm):
            # rank s sends a block of (dest + 1) words to each dest
            bufs = [np.zeros(k + 1) for k in range(p)]
            with comm.profile.track(Phase.PROPAGATION):
                comm.alltoallv(bufs)

        _, report = run_spmd(p, body)
        for r, prof in enumerate(report.per_rank):
            ctr = prof.counters[Phase.PROPAGATION]
            assert ctr.words_received == (p - 1) * (r + 1)
            assert ctr.messages_received == p - 1

    def test_wrong_buffer_count_raises(self):
        def body(comm):
            with pytest.raises(CommError):
                comm.alltoallv([np.zeros(1)])

        run_spmd(2, body)


# ----------------------------------------------------------------------
# neighborhood collectives on hand-built plans
# ----------------------------------------------------------------------


def star_plans(p, width):
    """Every rank needs row ``k`` of peer ``k``'s 2-row buffer."""
    plans = []
    for r in range(p):
        peers = tuple(
            PeerExchange(
                peer=k,
                send_rows=ix(r % 2),
                recv_rows=ix(k),
                send_width=width,
                recv_width=width,
            )
            for k in range(p)
            if k != r
        )
        plans.append(CommPlan(key="star", size=p, rank=r, peers=peers))
    return plans


class TestSparseCollectives:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_allgatherv_places_needed_rows(self, p):
        width = 3
        plans = star_plans(p, width)

        def body(comm):
            r = comm.rank
            mine = np.stack([np.full(width, 10.0 * r), np.full(width, 10.0 * r + 1)])
            out = np.zeros((p, width))
            out[r] = mine[r % 2]
            sparse_allgatherv(comm, plans[r], mine, out)
            return out

        results, _ = run_spmd(p, body)
        for r in range(p):
            for k in range(p):
                np.testing.assert_allclose(results[r][k], np.full(width, 10.0 * k + (k % 2)))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_reduce_scatterv_sums_contributions(self, p):
        width = 2
        plans = star_plans(p, width)

        def body(comm):
            r = comm.rank
            # contrib[k] is this rank's partial for row k's owner; the
            # reversed star plan ships contrib[k] to owner k and sums the
            # incoming contributions onto this rank's own partial
            contrib = np.arange(p * width, dtype=float).reshape(p, width) + 100.0 * r
            out = np.zeros((2, width))
            out[r % 2] = contrib[r]
            sparse_reduce_scatterv(comm, plans[r].reversed(), contrib, out)
            return out[r % 2]

        results, _ = run_spmd(p, body)
        for r in range(p):
            row = np.arange(r * width, (r + 1) * width, dtype=float)
            total = sum(row + 100.0 * src for src in range(p))
            np.testing.assert_allclose(results[r], total)

    def test_plan_comm_mismatch_raises(self):
        plans = star_plans(3, 1)

        def body(comm):
            with pytest.raises(CommError):
                sparse_allgatherv(comm, plans[(comm.rank + 1) % 3], np.zeros((2, 1)), np.zeros((3, 1)))

        run_spmd(3, body)

    def test_empty_legs_send_no_messages(self):
        p = 3
        empty = [
            CommPlan(
                key="empty",
                size=p,
                rank=r,
                peers=tuple(
                    PeerExchange(peer=k, send_rows=ix(), recv_rows=ix(), send_width=5, recv_width=5)
                    for k in range(p)
                    if k != r
                ),
            )
            for r in range(p)
        ]

        def body(comm):
            with comm.profile.track(Phase.REPLICATION):
                sparse_allgatherv(comm, empty[comm.rank], np.zeros((1, 5)), np.zeros((3, 5)))
            return comm.profile.total().messages_received

        results, _ = run_spmd(p, body)
        assert results == [0] * p


# ----------------------------------------------------------------------
# planners
# ----------------------------------------------------------------------


class TestPlanner15D:
    def setup_method(self):
        self.S = erdos_renyi(40, 52, 3, seed=11)
        self.alg = make_algorithm("1.5d-sparse-shift", 8, 4)
        self.plan = self.alg.plan(40, 52, 12)
        self.cplans = plan_sparse_shift_15d(self.plan, self.S)

    def test_need_lists_cover_layer_rows(self):
        """Every row a layer's nonzeros touch is either owned or received."""
        c = 4
        layer_v = block_of(self.S.cols, self.plan.col_fine) % c
        for rank, cp in enumerate(self.cplans):
            u, v = self.alg.grid.coords(rank)
            needed = np.unique(self.S.rows[layer_v == v])
            owned = self.plan.rows_a_of_fiber[v]
            received = np.concatenate([px.recv_rows for px in cp.gather.peers] or [ix()])
            covered = np.union1d(owned, received)
            assert np.all(np.isin(needed, covered))

    def test_send_recv_legs_are_globally_consistent(self):
        for rank, cp in enumerate(self.cplans):
            u, v = self.alg.grid.coords(rank)
            for px in cp.gather.peers:
                peer_rank = self.alg.grid.rank_of(u, px.peer)
                peer_leg = next(
                    q for q in self.cplans[peer_rank].gather.peers if q.peer == v
                )
                assert len(px.recv_rows) == len(peer_leg.send_rows)
                assert px.recv_width == peer_leg.send_width

    def test_reduce_is_gather_mirror(self):
        for cp in self.cplans:
            assert cp.reduce.recv_words() == cp.gather.send_words()
            assert cp.reduce.send_words() == cp.gather.recv_words()

    def test_moves_fewer_words_than_dense_ring(self):
        for rank, cp in enumerate(self.cplans):
            u, v = self.alg.grid.coords(rank)
            sw = self.plan.strip_width(u)
            dense = sum(
                len(self.plan.rows_a_of_fiber[w]) * sw for w in range(4) if w != v
            )
            assert cp.gather.recv_words() <= dense


class TestChunkOrder15D:
    """The 1.5D sparse-shift chunks are in (row, col) order — the order
    ``spmm_scatter`` builds its CSR from without a conversion — on a
    permuted matrix whose own COO order is not, and the orders of
    ``distribute_sparse`` and the planner stay aligned."""

    def setup_method(self):
        self.S = random_permutation(rmat(8, edge_factor=6, seed=5), seed=6)
        self.alg = make_algorithm("1.5d-sparse-shift", 8, 2)
        self.plan = self.alg.plan(*self.S.shape, 12)
        n = self.S.shape[1]
        assert np.any(np.diff(self.S.rows * n + self.S.cols) < 0)

    def test_partition_parts_are_row_col_ordered(self):
        S, plan = self.S, self.plan
        owner = block_of(S.rows, plan.row_chunks) * 2 + (
            block_of(S.cols, plan.col_fine) % 2
        )
        parts = partition_by_owner(S.rows, S.cols, S.vals, owner, 8)
        assert sum(len(part[3]) for part in parts.values()) == S.nnz
        for rank, (rows, cols, vals, gidx) in parts.items():
            assert np.all(np.diff(rows * S.shape[1] + cols) > 0)
            np.testing.assert_array_equal(owner[gidx], rank)
            np.testing.assert_array_equal(S.rows[gidx], rows)
            np.testing.assert_array_equal(S.cols[gidx], cols)
            np.testing.assert_array_equal(S.vals[gidx], vals)

    def test_planner_home_chunks_align_with_distribution(self):
        locals_ = self.alg.distribute_sparse(self.plan, self.S)
        cplans = plan_sparse_shift_15d(self.plan, self.S)
        for loc, cp in zip(locals_, cplans):
            np.testing.assert_array_equal(
                cp.home_rows_packed, cp.index.positions(loc.S_rows)
            )
            np.testing.assert_array_equal(
                cp.home_cols_local, loc.loc_b[loc.S_cols]
            )

    @pytest.mark.parametrize("comm", ["dense", "sparse"])
    def test_sddmm_values_come_back_in_s_order(self, comm, rng):
        S = self.S
        A = rng.standard_normal((S.shape[0], 12))
        B = rng.standard_normal((S.shape[1], 12))
        with repro.plan(
            S, 12, p=8, c=2, algorithm="1.5d-sparse-shift", comm=comm
        ) as sess:
            got, _ = sess.sddmm(A, B)
        ref = sddmm_serial(S, A, B)
        np.testing.assert_array_equal(got.rows, S.rows)
        np.testing.assert_array_equal(got.cols, S.cols)
        np.testing.assert_allclose(got.vals, ref.vals, rtol=1e-12, atol=1e-12)


class TestPlanner25D:
    def setup_method(self):
        self.S = erdos_renyi(36, 30, 2, seed=13)
        self.alg = make_algorithm("2.5d-sparse-replicate", 8, 2)
        self.plan = self.alg.plan(36, 30, 10)
        self.cplans = plan_sparse_replicate_25d(self.plan, self.S)

    def test_windows_tile_the_strip(self):
        for rank, cp in enumerate(self.cplans):
            x, y, z = self.alg.grid.coords(rank)
            windows = [cp.my_window] + [px.recv_cols for px in cp.gather_a.peers]
            windows.sort()
            assert windows[0][0] == 0
            assert windows[-1][1] == cp.strip_width
            for (a0, a1), (b0, b1) in zip(windows, windows[1:]):
                assert a1 == b0

    def test_send_recv_legs_are_globally_consistent(self):
        q = self.alg.grid.q
        for rank, cp in enumerate(self.cplans):
            x, y, z = self.alg.grid.coords(rank)
            for px in cp.gather_a.peers:
                peer_rank = self.alg.grid.rank_of(x, px.peer, z)
                peer_leg = next(
                    pq for pq in self.cplans[peer_rank].gather_a.peers if pq.peer == y
                )
                assert len(px.recv_rows) == len(peer_leg.send_rows)
            for px in cp.gather_b.peers:
                peer_rank = self.alg.grid.rank_of(px.peer, y, z)
                peer_leg = next(
                    pq for pq in self.cplans[peer_rank].gather_b.peers if pq.peer == x
                )
                assert len(px.recv_rows) == len(peer_leg.send_rows)

    def test_fiber_replicas_share_need_lists(self):
        """Plans differ across z only in chunk windows, not in row sets."""
        g = self.alg.grid
        for x in range(g.q):
            for y in range(g.q):
                r0 = g.rank_of(x, y, 0)
                r1 = g.rank_of(x, y, 1)
                for a, b in zip(self.cplans[r0].gather_a.peers, self.cplans[r1].gather_a.peers):
                    np.testing.assert_array_equal(a.recv_rows, b.recv_rows)


class TestPlanCache:
    def test_build_is_amortized(self):
        clear_plan_cache()
        S = erdos_renyi(30, 30, 2, seed=3)
        alg = make_algorithm("1.5d-sparse-shift", 4, 2)
        plan = alg.plan(30, 30, 8)
        first = alg.build_comm_plans(plan, S)
        again = alg.build_comm_plans(plan, S)
        assert again is first  # cache hit returns the same plan objects
        stats = plan_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_structure_change_misses(self):
        clear_plan_cache()
        alg = make_algorithm("1.5d-sparse-shift", 4, 2)
        plan = alg.plan(30, 30, 8)
        a = alg.build_comm_plans(plan, erdos_renyi(30, 30, 2, seed=3))
        b = alg.build_comm_plans(plan, erdos_renyi(30, 30, 2, seed=4))
        assert a is not b

    def test_values_do_not_matter(self):
        clear_plan_cache()
        S = erdos_renyi(30, 30, 2, seed=3)
        S2 = S.with_values(np.arange(S.nnz, dtype=float))
        alg = make_algorithm("1.5d-sparse-shift", 4, 2)
        plan = alg.plan(30, 30, 8)
        assert alg.build_comm_plans(plan, S2) is alg.build_comm_plans(plan, S)


# ----------------------------------------------------------------------
# plan word counts == measured RankProfile traffic
# ----------------------------------------------------------------------


def run_mode(alg, plan, S, A, B, mode, cplans):
    locals_ = alg.distribute(plan, S, A, B)

    def body(comm):
        ctx = alg.make_context(comm)
        alg.rank_kernel(ctx, plan, locals_[comm.rank], mode, sparse_plan=cplans[comm.rank])

    return run_spmd(alg.p, body)


class TestPlanMatchesMeasuredTraffic:
    @pytest.mark.parametrize("mode", [Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B])
    def test_15d_replication_traffic(self, mode):
        m, n, r = 44, 60, 12
        S = erdos_renyi(m, n, 3, seed=9)
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((m, r)), rng.standard_normal((n, r))
        alg = make_algorithm("1.5d-sparse-shift", 8, 4)
        plan = alg.plan(m, n, r)
        cplans = alg.build_comm_plans(plan, S)
        _, report = run_mode(alg, plan, S, A, B, mode, cplans)
        for rank, prof in enumerate(report.per_rank):
            ctr = prof.counters[Phase.REPLICATION]
            expect = cplans[rank].kernel_recv_words[mode.value]
            assert ctr.words_received == expect
            cplan = cplans[rank].reduce if mode == Mode.SPMM_A else cplans[rank].gather
            assert ctr.messages_received == cplan.recv_messages()

    @pytest.mark.parametrize("mode", [Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B])
    def test_25d_propagation_traffic(self, mode):
        m, n, r = 38, 46, 8
        S = erdos_renyi(m, n, 2, seed=21)
        rng = np.random.default_rng(1)
        A, B = rng.standard_normal((m, r)), rng.standard_normal((n, r))
        alg = make_algorithm("2.5d-sparse-replicate", 18, 2)
        plan = alg.plan(m, n, r)
        cplans = alg.build_comm_plans(plan, S)
        _, report = run_mode(alg, plan, S, A, B, mode, cplans)
        for rank, prof in enumerate(report.per_rank):
            ctr = prof.counters[Phase.PROPAGATION]
            assert ctr.words_received == cplans[rank].kernel_recv_words[mode.value]
