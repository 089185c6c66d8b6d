"""SPMD launchers: the thread worker pool and the backend-generic factory.

This layer plays the role of ``mpiexec -n p`` for the default
``backend="threads"``: :class:`WorkerPool` creates a
:class:`~repro.runtime.backend.World`, gives every rank its own
:class:`~repro.runtime.comm.Communicator` and
:class:`~repro.runtime.profile.RankProfile`, and runs the rank bodies on
threads (NumPy releases the GIL inside kernels, so local computation runs
genuinely in parallel, mirroring the paper's hybrid MPI+OpenMP model).
Under ``backend="mpi"`` the launcher role is played by ``mpirun`` itself
and the pool becomes the rank-resident
:class:`~repro.runtime.backend_mpi.MpiWorkerPool`; the
:func:`make_worker_pool` factory is the seam sessions construct through,
and the :attr:`WorkerPool.spans_processes` flag is how callers learn
whether rank-local mutations need cross-process synchronization.

Launch shapes on the thread backend:

* :class:`WorkerPool` — one resident :class:`World` plus ``p`` long-lived
  rank threads blocked on per-rank dispatch queues.  Repeated
  :meth:`WorkerPool.run` calls reuse the warm threads, the persistent
  per-rank communicators and (through them) any subcommunicators /
  contexts a previous item built — the paper's iterative workloads (ALS
  sweeps, GAT epochs) amortize all of that across calls, exactly like the
  persistent sparse-communication setup of SpComm3D.
* :func:`run_spmd` — the historical one-shot launcher, now a thin
  spawn-once wrapper over a throwaway pool (of either backend).

Failure handling on the thread pool: if any rank raises, the world is
aborted so sibling ranks blocked on receives unwind promptly
(:class:`SpmdAbort`), the first error is re-raised in the caller, and the
world is reset afterwards so the resident ranks stay usable for the next
work item.  The MPI pool has no cross-process recovery — see
:mod:`repro.runtime.backend_mpi` for its (stricter) semantics.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ReproError, SpmdAbort, SpmdTimeout
from repro.runtime.backend import World, validate_backend_name
from repro.runtime.comm import Communicator
from repro.runtime.profile import RankProfile, RunReport

RankFn = Callable[[Communicator], Any]


#: cores this process may run on (its CPU affinity set), read at import
NCORES = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

#: process-wide kernel admission: one slot per core, shared by every
#: thread pool whose ranks outnumber the cores, so at most ``NCORES``
#: local kernels run at once however many ranks and sessions exist
KERNEL_SLOTS = threading.BoundedSemaphore(NCORES)


def _chained(error: BaseException, cause: BaseException) -> BaseException:
    """Attach ``cause`` as the explicit chain of ``error``.

    The driver-side wrapper chains the originating rank exception, so the
    root-cause traceback — including the failing rank's own frames —
    survives into the caller instead of being flattened into a ``repr``
    string.
    """
    error.__cause__ = cause
    return error


def _format_dump(dump) -> str:
    """Render a blocked-state dump as indented report lines (or '')."""
    if not dump:
        return ""
    lines = ["", "blocked ranks at expiry:"]
    for entry in dump:
        span = entry.get("last_span")
        lines.append(
            f"  rank {entry['rank']}: waiting {entry['waited_s']:.3f}s for "
            f"comm rank {entry['waiting_for_comm_rank']} "
            f"(tag {entry['tag']}, comm {entry['comm_id']}), "
            f"phase={entry['phase']}"
            + (f", last span={span!r}" if span else "")
        )
    return "\n".join(lines)


class _Latch:
    """Count-down latch: the driver waits until all ranks finished an item."""

    def __init__(self, n: int) -> None:
        self._n = n
        self._cond = threading.Condition()

    def count_down(self) -> None:
        with self._cond:
            self._n -= 1
            if self._n <= 0:
                self._cond.notify_all()

    def wait(self) -> None:
        with self._cond:
            while self._n > 0:
                self._cond.wait()


class _WorkItem:
    """One dispatched SPMD body plus its completion/error state."""

    __slots__ = (
        "fn",
        "profiles",
        "results",
        "errors",
        "errors_lock",
        "latch",
        "label",
        "post_ts",
    )

    def __init__(
        self, fn: RankFn, profiles: List[RankProfile], nranks: int, label: str = ""
    ) -> None:
        self.fn = fn
        self.profiles = profiles
        self.results: List[Any] = [None] * nranks
        self.errors: List[Tuple[int, BaseException]] = []
        self.errors_lock = threading.Lock()
        self.latch = _Latch(nranks)
        self.label = label
        self.post_ts = time.perf_counter()


class WorkerPool:
    """Persistent SPMD worker pool: one world, ``p`` resident rank threads.

    Construction spawns the threads (blocked on their dispatch queues) and
    one :class:`Communicator` per rank that persists across work items —
    so communicator splits, grid contexts and buffer pools built by one
    item remain valid for the next.  ``nranks == 1`` runs items inline on
    the driver thread (no thread is spawned), matching the historical
    single-rank fast path.

    Discipline: one driver thread dispatches items sequentially
    (:meth:`run` serializes itself); rank bodies follow normal SPMD
    discipline on the persistent communicators (every rank performs the
    same collective/split sequence).

    Failure semantics match :func:`run_spmd`: the first raising rank
    aborts the world, siblings unwind via :class:`SpmdAbort`, and the
    driver re-raises ``RuntimeError``.  Afterwards the pool *recovers* —
    the abort flag is cleared, undelivered messages are dropped and the
    per-rank split counters are realigned — so the pool stays usable.
    """

    #: all ranks live in this process — rank-local mutations are globally
    #: visible, so sessions skip the cross-process locals sync
    spans_processes = False

    def __init__(
        self,
        nranks: int,
        name: str = "spmd-pool",
        faults=None,
        deadline_ms: Optional[float] = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"worker pool needs at least one rank, got {nranks}")
        self.nranks = nranks
        self.name = name
        #: default per-item deadline (:meth:`run` may override per call);
        #: ``None`` disables the watchdog
        self.deadline_ms = deadline_ms
        self.world = World(nranks, faults=faults)
        # more rank threads than cores: bound concurrent kernels to the
        # cores, so ranks do not time-slice each other inside a kernel
        self._slots = KERNEL_SLOTS if nranks > NCORES else None
        # one rank-bound fault view per rank, attached to each item's
        # profile at dispatch so rank-agnostic sites (phase tracking,
        # buffer pools) can fire rank-scoped faults
        self._rank_faults = (
            [faults.rank_view(r) for r in range(nranks)]
            if faults is not None
            else None
        )
        self._comms = [
            Communicator.world_comm(self.world, r) for r in range(nranks)
        ]
        self._queues: List[queue.SimpleQueue] = [
            queue.SimpleQueue() for _ in range(nranks)
        ]
        self._run_lock = threading.Lock()
        self._closed = False
        self._threads: List[threading.Thread] = []
        if nranks > 1:
            self._threads = [
                threading.Thread(
                    target=self._worker,
                    args=(r,),
                    name=f"{name}-rank-{r}",
                    daemon=True,
                )
                for r in range(nranks)
            ]
            for t in self._threads:
                t.start()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def _worker(self, r: int) -> None:
        comm = self._comms[r]
        while True:
            item = self._queues[r].get()
            if item is None:  # shutdown sentinel
                return
            profile = item.profiles[r]
            if self._rank_faults is not None:
                profile.faults = self._rank_faults[r]
            profile.slots = self._slots
            comm.profile = profile
            self.world.active_profiles[r] = profile
            tracer = profile.tracer
            if tracer is not None:
                run_start = time.perf_counter()
                tracer.span(
                    f"queue-wait {item.label}".rstrip(), "pool", item.post_ts, run_start
                )
            try:
                item.results[r] = item.fn(comm)
            except SpmdAbort:
                pass  # a sibling failed first; its error is reported instead
            except BaseException as exc:  # noqa: BLE001 - must not hang siblings
                with item.errors_lock:
                    item.errors.append((r, exc))
                self.world.abort()
            finally:
                if tracer is not None:
                    tracer.span(
                        f"run {item.label}".rstrip(), "pool", run_start,
                        time.perf_counter(),
                    )
                # Drop the item reference *before* blocking on the next
                # get(): the worker's frame is a GC root, and the item's
                # rank_fn closure typically references the owning session
                # — holding it would keep an abandoned session (and this
                # pool's threads) alive forever, defeating __del__.
                latch = item.latch
                del item, profile, tracer
                latch.count_down()
                del latch

    # ------------------------------------------------------------------
    # driver side
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def comm(self, rank: int) -> Communicator:
        """The persistent communicator of ``rank`` (for introspection)."""
        return self._comms[rank]

    def run(
        self,
        rank_fn: RankFn,
        profiles: Optional[List[RankProfile]] = None,
        label: str = "",
        deadline_ms: Optional[float] = None,
    ) -> Tuple[List[Any], RunReport]:
        """Dispatch ``rank_fn(comm)`` to every resident rank and wait.

        Same contract as :func:`run_spmd`: returns ``(results, report)``,
        re-raises the lowest-rank error as ``RuntimeError`` after all
        ranks finished unwinding and the pool recovered — except deadline
        expiries, which re-raise as :class:`~repro.errors.SpmdTimeout`
        carrying the per-rank blocked-state dump.  ``deadline_ms``
        overrides the pool's default watchdog horizon for this item.  On a
        single-rank pool the item runs inline (no threads exist) and
        errors propagate raw, matching the historical fast path.
        """
        if self._closed:
            raise ReproError("worker pool is closed; dispatch is not possible")
        if profiles is None:
            profiles = [RankProfile() for _ in range(self.nranks)]
        if len(profiles) != self.nranks:
            raise ValueError("profiles must have one entry per rank")
        if deadline_ms is None:
            deadline_ms = self.deadline_ms

        if self.nranks == 1:
            with self._run_lock:
                comm = self._comms[0]
                comm.profile = profiles[0]
                if self._rank_faults is not None:
                    profiles[0].faults = self._rank_faults[0]
                self.world.active_profiles[0] = profiles[0]
                tracer = profiles[0].tracer
                if tracer is not None:
                    with tracer.region(f"run {label}".rstrip(), "pool"):
                        result = rank_fn(comm)  # errors propagate raw
                else:
                    result = rank_fn(comm)  # errors propagate raw
                return [result], RunReport(per_rank=profiles, label=label)

        with self._run_lock:
            item = _WorkItem(rank_fn, profiles, self.nranks, label)
            if deadline_ms is not None:
                self.world.deadline = time.perf_counter() + deadline_ms / 1e3
            for q in self._queues:
                q.put(item)
            item.latch.wait()
            self.world.deadline = None
            if not item.errors:
                return item.results, RunReport(per_rank=profiles, label=label)
            rank, exc = min(item.errors, key=lambda e: e[0])
            self._recover()
        if isinstance(exc, SpmdTimeout):
            # deadline expiries stay typed, carrying the blocked-state
            # dump taken at the moment the watchdog fired
            raise _chained(
                SpmdTimeout(
                    f"SPMD rank {rank} timed out: {exc}" + _format_dump(exc.dump),
                    dump=exc.dump,
                ),
                exc,
            )
        raise _chained(RuntimeError(f"SPMD rank {rank} failed: {exc!r}"), exc)

    def _recover(self) -> None:
        """Return the pool to a clean state after a failed item.

        Every rank has already finished the item (the latch was waited
        on), so no thread is blocked in the transport: clear the abort
        flag, drop undelivered messages, and realign the per-rank split
        counters to their maximum so the next collective split sequence
        derives consistent, never-before-used communicator ids even when
        ranks failed at different depths of a split sequence.
        """
        self.world.reset()
        top = max(c._split_counter for c in self._comms)
        for c in self._comms:
            c._split_counter = top

    def close(self, timeout: float = 30.0) -> None:
        """Drain the queues, join every rank thread, and seal the pool.

        Idempotent.  ``timeout`` bounds the per-thread join.  Raises
        :class:`ReproError` if a thread fails to join (e.g. a rank body
        deadlocked in a mismatched collective); the message names each
        stuck rank together with the receive it is blocked on, its open
        phase, and its last completed trace span, and the pool is *not*
        marked closed, so a retry attempts the join again instead of
        silently leaking the threads.
        """
        if self._closed:
            return
        for q in self._queues:
            q.put(None)
        for t in self._threads:
            t.join(timeout=timeout)
        alive = [t for t in self._threads if t.is_alive()]
        if alive:
            raise ReproError(
                f"worker threads failed to join after {timeout:g}s: "
                + "; ".join(self._describe_stuck(t) for t in alive)
            )
        self._threads = []
        self._closed = True

    def _describe_stuck(self, thread: threading.Thread) -> str:
        """One-line diagnosis of a rank thread that refused to join."""
        try:
            rank = int(thread.name.rsplit("-", 1)[1])
        except (IndexError, ValueError):  # pragma: no cover - name is ours
            return thread.name
        desc = f"rank {rank}"
        blocked = self.world.blocked.get(rank)
        if blocked is not None:
            (comm_id, src, tag), since = blocked
            desc += (
                f" blocked {time.perf_counter() - since:.3f}s on a receive "
                f"from comm rank {src} (tag {tag}, comm {comm_id})"
            )
        else:
            desc += " not blocked in the transport (busy or wedged in a kernel)"
        profile = self.world.active_profiles.get(rank)
        if profile is not None:
            desc += f", phase={profile.phase.value}"
            tracer = profile.tracer
            if tracer is not None:
                span = tracer.latest()
                if span:
                    desc += f", last span={span!r}"
        return desc

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"WorkerPool(nranks={self.nranks}, {state})"


def make_worker_pool(
    backend: str,
    nranks: int,
    name: str = "spmd-pool",
    faults=None,
    deadline_ms: Optional[float] = None,
):
    """Construct the worker pool for a (validated or raw) backend name.

    This is the factory sessions build through: ``"threads"`` returns a
    :class:`WorkerPool`, ``"mpi"`` lazily imports
    :mod:`repro.runtime.backend_mpi` and returns an
    :class:`~repro.runtime.backend_mpi.MpiWorkerPool` (raising the typed
    :class:`~repro.errors.BackendUnavailableError` when mpi4py is
    missing).  Unknown names raise
    :class:`~repro.errors.UnknownBackendError`.
    """
    backend = validate_backend_name(backend)
    if backend == "mpi":
        from repro.runtime.backend_mpi import MpiWorkerPool

        return MpiWorkerPool(
            nranks, name=name, faults=faults, deadline_ms=deadline_ms
        )
    return WorkerPool(nranks, name=name, faults=faults, deadline_ms=deadline_ms)


def run_spmd(
    nranks: int,
    rank_fn: RankFn,
    profiles: Optional[List[RankProfile]] = None,
    label: str = "",
    deadline_ms: Optional[float] = None,
    faults=None,
    backend: str = "threads",
) -> Tuple[List[Any], RunReport]:
    """Execute ``rank_fn(comm)`` on ``nranks`` fresh ranks and collect results.

    This is the one-shot launcher: a throwaway :class:`WorkerPool` is
    spawned, the single item runs, and the pool is joined before
    returning.  Iterative callers should hold a :class:`WorkerPool` (the
    session API does) so the spawn cost is paid once, not per call.

    Parameters
    ----------
    nranks:
        Number of virtual ranks (the paper's ``p``).
    rank_fn:
        The SPMD body.  It receives a communicator whose ``rank`` and
        ``size`` identify the calling rank; per-rank input data is usually
        captured in a closure and indexed by ``comm.rank``.
    profiles:
        Optional pre-existing per-rank profiles, so several SPMD launches
        (e.g. the paper's "5 FusedMM calls") accumulate into one report.
    deadline_ms:
        Optional watchdog horizon for the launch; expiry raises
        :class:`~repro.errors.SpmdTimeout` with a blocked-state dump.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` armed on the
        throwaway world (thread backend only).
    backend:
        Execution backend (``"threads"``, the default, or ``"mpi"``).
        Under ``"mpi"`` the body runs for the calling process's resident
        rank and results are allgathered, so every replicated driver
        returns the full results list — see
        :mod:`repro.runtime.backend_mpi`.

    Returns
    -------
    (results, report):
        ``results[r]`` is rank ``r``'s return value; ``report`` aggregates
        the per-rank cost profiles.
    """
    if profiles is not None and len(profiles) != nranks:
        raise ValueError("profiles must have one entry per rank")
    pool = make_worker_pool(
        backend, nranks, name="spmd", faults=faults, deadline_ms=deadline_ms
    )
    try:
        return pool.run(rank_fn, profiles=profiles, label=label)
    finally:
        pool.close()
