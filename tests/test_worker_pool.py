"""Lifecycle tests for the persistent SPMD worker pool and its session.

The pool's guarantees, each asserted here:

* an exception in one rank aborts the siblings and is re-raised in the
  driver, and the pool stays **reusable** afterwards;
* ``close()`` joins every rank thread (no leaks) and is idempotent;
* dispatch after close raises;
* pooled sessions produce **bitwise** the same kernel outputs as the
  spawn-per-call wrappers across families x comm modes, while building
  their contexts exactly once per orientation;
* a pool with more ranks than cores runs at most one computation region
  per core at a time, and a rank waiting for a core is idle, not
  computing.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.errors import ReproError
from repro.runtime.profile import RankProfile
from repro.runtime.spmd import KERNEL_SLOTS, NCORES, WorkerPool, run_spmd
from repro.types import Phase

from repro.sparse.generate import erdos_renyi


def make_problem(m, n, r, nnz_per_row, seed=0):
    gen = np.random.default_rng(seed)
    S = erdos_renyi(m, n, nnz_per_row, seed=seed)
    return S, gen.standard_normal((m, r)), gen.standard_normal((n, r))


class TestPoolBasics:
    def test_results_in_rank_order(self):
        with WorkerPool(6) as pool:
            results, _ = pool.run(lambda comm: comm.rank * 10)
            assert results == [r * 10 for r in range(6)]

    def test_items_reuse_resident_world(self):
        """Subcommunicators split by one item stay valid for the next."""
        p = 8
        pool = WorkerPool(p)
        ctxs = [None] * p

        def build(comm):
            ctxs[comm.rank] = comm.split(color=comm.rank % 2, key=comm.rank)

        pool.run(build)

        def use(comm):
            layer = ctxs[comm.rank]
            return layer.allreduce_scalar(float(comm.rank))

        results, _ = pool.run(use)
        evens, odds = sum(range(0, p, 2)), sum(range(1, p, 2))
        assert results == [evens if r % 2 == 0 else odds for r in range(p)]
        pool.close()

    def test_matches_run_spmd_bitwise(self):
        def body(comm):
            parts = comm.allgather(np.arange(4) + comm.rank)
            return np.concatenate(parts)

        one_shot, _ = run_spmd(4, body)
        with WorkerPool(4) as pool:
            pooled, _ = pool.run(body)
        for a, b in zip(one_shot, pooled):
            np.testing.assert_array_equal(a, b)

    def test_profiles_rebound_per_item(self):
        """Each item accounts into the profiles passed for that item."""
        pool = WorkerPool(2)

        def body(comm):
            comm.allgather(np.zeros(8))

        first = [RankProfile() for _ in range(2)]
        second = [RankProfile() for _ in range(2)]
        pool.run(body, profiles=first)
        pool.run(body, profiles=second)
        pool.close()
        for prof in (*first, *second):
            assert prof.counters[Phase.OTHER].words_received == 8

    def test_single_rank_runs_inline(self):
        base = threading.active_count()
        with WorkerPool(1) as pool:
            assert threading.active_count() == base
            results, _ = pool.run(lambda comm: comm.allreduce_scalar(3.0))
            assert results == [3.0]


class TestPoolFailure:
    def test_error_aborts_siblings_and_pool_stays_usable(self):
        p = 6
        pool = WorkerPool(p)

        def bad(comm):
            if comm.rank == 3:
                raise ValueError("boom")
            # siblings block on a collective and must unwind via abort
            return comm.allreduce_scalar(1.0)

        with pytest.raises(RuntimeError, match="rank 3 failed.*boom"):
            pool.run(bad)
        # the pool recovered: same ranks, clean world, correct results
        for _ in range(2):
            results, _ = pool.run(lambda comm: comm.allreduce_scalar(1.0))
            assert results == [float(p)] * p
        pool.close()

    def test_lowest_failing_rank_reported(self):
        pool = WorkerPool(4)

        def bad(comm):
            raise RuntimeError(f"r{comm.rank}")

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            pool.run(bad)
        pool.close()

    def test_failure_does_not_leak_messages_into_next_item(self):
        """Undelivered sends from an aborted item must not be received
        by a later item on the same channel."""
        pool = WorkerPool(2)

        def bad(comm):
            if comm.rank == 0:
                comm.send(1, np.array([666.0]), tag=9)
                raise ValueError("after send")
            return None  # rank 1 never receives

        with pytest.raises(RuntimeError):
            pool.run(bad)

        def good(comm):
            if comm.rank == 0:
                comm.send(1, np.array([1.0]), tag=9)
                return 0.0
            return float(comm.recv(0, tag=9)[0])

        results, _ = pool.run(good)
        assert results[1] == 1.0
        pool.close()


def _free_kernel_slots() -> int:
    """Kernel slots free right now (taken and handed straight back)."""
    n = 0
    while KERNEL_SLOTS.acquire(blocking=False):
        n += 1
    for _ in range(n):
        KERNEL_SLOTS.release()
    return n


class TestKernelAdmission:
    """Ranks beyond the core count queue for a core before computing."""

    HOLD = 0.1

    def _compute_body(self, state, nested=False):
        """Each rank holds a computation region (optionally with a nested
        one inside) for ``HOLD`` s, recording the concurrency high-water
        mark and its own timings."""

        def body(comm):
            prof = comm.profile
            before = time.perf_counter()
            with prof.track(Phase.COMPUTATION):
                inside = time.perf_counter()
                with state["lock"]:
                    state["now"] += 1
                    state["high"] = max(state["high"], state["now"])
                if nested:  # an inner region takes no second slot
                    with prof.track(Phase.COMPUTATION):
                        time.sleep(self.HOLD)
                else:
                    time.sleep(self.HOLD)
                with state["lock"]:
                    state["now"] -= 1
                left = time.perf_counter()
            return before, inside, left

        return body

    @staticmethod
    def _state():
        return {"lock": threading.Lock(), "now": 0, "high": 0}

    @staticmethod
    def _run(pool, fn, timeout=30.0):
        """``pool.run(fn)`` from a helper thread joined with a timeout, so
        a wedged admission fails the test instead of hanging it."""
        out = {}

        def drive():
            try:
                out["value"] = pool.run(fn)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                out["error"] = exc

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        driver.join(timeout)
        assert not driver.is_alive(), "pool.run did not finish"
        if "error" in out:
            raise out["error"]
        return out["value"]

    def test_concurrent_compute_capped_at_cores(self):
        state = self._state()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(NCORES + 2) as pool:
                for _ in range(3):
                    self._run(pool, self._compute_body(state, nested=True))
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= state["high"] <= NCORES
        assert _free_kernel_slots() == NCORES

    def test_nested_region_takes_one_slot(self):
        def body(comm):
            if comm.rank == 0:
                with comm.profile.track(Phase.COMPUTATION):
                    with comm.profile.track(Phase.COMPUTATION):
                        return _free_kernel_slots()

        with WorkerPool(NCORES + 1) as pool:
            results, _ = self._run(pool, body)
        assert results[0] == NCORES - 1

    def test_raise_in_compute_frees_every_slot(self):
        def bad(comm):
            with comm.profile.track(Phase.COMPUTATION):
                if comm.rank == 0:
                    raise ValueError("boom")
                time.sleep(0.01)

        state = self._state()
        with WorkerPool(NCORES + 2) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                self._run(pool, bad)
            assert _free_kernel_slots() == NCORES
            results, _ = self._run(pool, self._compute_body(state))
        assert len(results) == NCORES + 2
        assert state["high"] <= NCORES

    def test_slot_wait_is_not_compute_time(self):
        state = self._state()
        with WorkerPool(NCORES + 2) as pool:
            results, report = self._run(pool, self._compute_body(state))
        waits = [inside - before for before, inside, _ in results]
        # two ranks more than cores: some rank queued for a whole hold
        assert max(waits) >= 0.5 * self.HOLD
        for (_, inside, left), prof in zip(results, report.per_rank):
            compute = prof.counters[Phase.COMPUTATION].seconds
            assert compute <= (left - inside) + 0.02

    def test_slots_attached_only_past_core_count(self):
        for nranks, slots in ((NCORES, None), (NCORES + 1, KERNEL_SLOTS)):
            with WorkerPool(nranks) as pool:
                _, report = pool.run(lambda comm: None)
            assert all(prof.slots is slots for prof in report.per_rank)


class TestPoolClose:
    def test_close_joins_all_threads(self):
        base = threading.active_count()
        pool = WorkerPool(8)
        assert threading.active_count() == base + 8
        pool.run(lambda comm: comm.barrier())
        pool.close()
        assert threading.active_count() == base

    def test_double_close_is_idempotent(self):
        pool = WorkerPool(3)
        pool.close()
        pool.close()

    def test_dispatch_after_close_raises(self):
        pool = WorkerPool(3)
        pool.close()
        with pytest.raises(ReproError, match="closed"):
            pool.run(lambda comm: None)


@pytest.mark.parametrize(
    "name,p,c,comm",
    [
        ("1.5d-dense-shift", 8, 2, "dense"),
        ("1.5d-sparse-shift", 8, 4, "dense"),
        ("1.5d-sparse-shift", 8, 4, "sparse"),
        ("2.5d-dense-replicate", 8, 2, "dense"),
        ("2.5d-sparse-replicate", 8, 2, "sparse"),
    ],
    ids=lambda v: str(v),
)
class TestPoolSessionEquivalence:
    """Pooled sessions vs spawn-per-call sessions: bitwise equal."""

    ELISION = {
        "1.5d-dense-shift": "local-kernel-fusion",
        "1.5d-sparse-shift": "replication-reuse",
        "2.5d-dense-replicate": "none",
        "2.5d-sparse-replicate": "none",
    }

    def test_fused_calls_bitwise(self, name, p, c, comm):
        S, A, B = make_problem(96, 80, 16, 5, seed=11)
        elision = self.ELISION[name]
        kw = dict(p=p, c=c, algorithm=name, elision=elision, comm=comm)
        with repro.plan(S, 16, **kw) as warm, repro.plan(
            S, 16, persistent=False, **kw
        ) as cold:
            for _ in range(3):
                out_w, _ = warm.fusedmm_b(A, B)
                out_c, _ = cold.fusedmm_b(A, B)
                np.testing.assert_array_equal(out_w, out_c)
                out_w, _ = warm.fusedmm_a(A, B)
                out_c, _ = cold.fusedmm_a(A, B)
                np.testing.assert_array_equal(out_w, out_c)

    def test_contexts_built_once_per_orientation(self, name, p, c, comm):
        S, A, B = make_problem(96, 80, 16, 5, seed=11)
        elision = self.ELISION[name]
        with repro.plan(
            S, 16, p=p, c=c, algorithm=name, elision=elision, comm=comm
        ) as sess:
            for _ in range(4):
                sess.fusedmm_a(A, B)
                sess.fusedmm_b(A, B)
            # one make_context per rank per resident orientation, no
            # matter how many kernel calls ran
            assert all(count == p for count in sess.context_builds.values())
            assert 1 <= len(sess.context_builds) <= 2


class TestSessionPoolLifecycle:
    def test_exception_in_kernel_leaves_session_usable(self):
        """A raising edge_op aborts the dispatch; the session (and its
        pool) recover and later calls still produce correct results."""
        S, A, B = make_problem(64, 64, 8, 4, seed=5)
        ref, _ = repro.sddmm(S, A, B, p=4, c=2)
        with repro.plan(S, 8, p=4, c=2, algorithm="1.5d-dense-shift") as sess:
            out, _ = sess.sddmm(A, B)
            np.testing.assert_array_equal(out.vals, ref.vals)

            def bad_edge(t_rows, b_cols):
                raise ValueError("edge explosion")

            with pytest.raises(RuntimeError, match="edge explosion"):
                sess.sddmm(A, B, edge_op=bad_edge)
            out, _ = sess.sddmm(A, B)
            np.testing.assert_array_equal(out.vals, ref.vals)

    def test_close_joins_pool_threads_and_is_idempotent(self):
        S, A, B = make_problem(64, 64, 8, 4, seed=5)
        base = threading.active_count()
        sess = repro.plan(S, 8, p=4, c=2, algorithm="1.5d-dense-shift")
        sess.sddmm(A, B)
        assert threading.active_count() == base + 4
        sess.close()
        sess.close()
        assert threading.active_count() == base
        with pytest.raises(ReproError, match="closed"):
            sess.sddmm(A, B)

    def test_abandoned_session_is_collectable(self):
        """Workers must not pin the last work item: its rank_fn closure
        references the session, and a live thread frame is a GC root —
        an abandoned (never-closed) session must still be collected and
        its __del__ must join the pool threads."""
        import gc
        import weakref

        S, A, B = make_problem(64, 64, 8, 4, seed=5)
        base = threading.active_count()
        sess = repro.plan(S, 8, p=4, c=2, algorithm="1.5d-dense-shift")
        sess.sddmm(A, B)
        ref = weakref.ref(sess)
        del sess
        gc.collect()
        assert ref() is None, "worker threads kept the abandoned session alive"
        assert threading.active_count() == base

    def test_one_shot_wrappers_leak_no_threads(self):
        S, A, B = make_problem(64, 64, 8, 4, seed=5)
        base = threading.active_count()
        repro.fusedmm_a(S, A, B, p=4, c=2, algorithm="1.5d-dense-shift")
        repro.sddmm(S, A, B, p=4, c=2)
        assert threading.active_count() == base
