"""Per-rank cost accounting: wall time, traffic and FLOPs per phase.

The paper reports three cost phases for its FusedMM algorithms (Figure 5 /
Figure 9): *replication* (fiber-axis all-gathers and reduce-scatters),
*propagation* (cyclic shifts within a grid layer) and *computation* (local
kernels).  Every distributed algorithm in this library wraps its work in
``with profile.track(Phase.X):`` blocks; the communicator attributes message
and word counts to whichever phase is active on the calling rank.

Two complementary views hang off the same tracked regions: **counters**
(this module) accumulate per-phase totals — seconds, words, messages,
FLOPs, the hidden/exposed overlap split — while **spans** (an optional
:class:`~repro.runtime.trace.Tracer` attached to the profile when the
``trace="on"`` knob is set) record each region's begin/end timestamps for
timeline export and occupancy analysis.  Counters are always on and feed
:class:`RunReport`; spans are off by default and cost nothing when off.

Counting convention (matches the paper's analysis): one *word* is one matrix
element or one index, i.e. 8 bytes.  A COO nonzero in flight therefore costs
3 words (row, column, value); a dense block of ``k`` elements costs ``k``
words.  Collective costs follow from the ring implementations in
:mod:`repro.runtime.comm`, which realize the textbook (Chan et al.) costs
the paper assumes: an all-gather over ``c`` ranks of a length-``W`` result
delivers ``(c-1)/c * W`` words to each rank in ``c-1`` messages.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field
from typing import Dict, Iterable, Iterator, Optional

from repro.types import Phase


@dataclass
class PhaseCounters:
    """Accumulated cost of a single phase on a single rank.

    ``seconds`` is wall time spent *inside* the phase's tracked blocks —
    for communication phases under the overlap pipeline that is the
    **exposed** time (blocking waits).  ``hidden_seconds`` is transfer
    time that completed while the rank was computing (a nonblocking
    exchange was in flight behind a local kernel); it is accounted by the
    waitable handles in :mod:`repro.runtime.comm` and never overlaps with
    ``seconds``.
    """

    seconds: float = 0.0
    words_sent: int = 0
    words_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    flops: int = 0
    hidden_seconds: float = 0.0

    def merge(self, other: "PhaseCounters") -> None:
        self.seconds += other.seconds
        self.words_sent += other.words_sent
        self.words_received += other.words_received
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received
        self.flops += other.flops
        self.hidden_seconds += other.hidden_seconds


class RankProfile:
    """Mutable cost log owned by one SPMD rank.

    Not thread safe by design: each rank owns exactly one profile and only
    that rank's thread writes to it.
    """

    def __init__(self) -> None:
        self.phase: Phase = Phase.OTHER
        self.counters: Dict[Phase, PhaseCounters] = {p: PhaseCounters() for p in Phase}
        #: high-water mark of resident panel-buffer bytes (gather panels,
        #: partial-output accumulators) reported by the rank's BufferPool
        self.peak_buffer_bytes: int = 0
        #: optional :class:`repro.runtime.trace.Tracer`; ``None`` (tracing
        #: off) keeps every instrumentation site a single attribute check
        self.tracer = None
        #: optional :class:`repro.runtime.faults.RankFaults` view bound to
        #: this rank by the worker pool; ``None`` (faults off) keeps the
        #: hook sites on the same zero-cost disabled path as the tracer
        self.faults = None
        #: optional compiled kernel backend (e.g.
        #: :class:`repro.kernels.backend_numba.NumbaKernels`) attached by
        #: the session when ``kernels != "numpy"``; ``None`` keeps every
        #: local kernel on its inline numpy path at one attribute read
        self.kernels = None
        #: optional process-wide kernel-admission semaphore (one slot per
        #: core) attached by a thread worker pool that has more ranks
        #: than cores; ``None`` admits every compute region at once
        self.slots = None

    @contextmanager
    def track(self, phase: Phase) -> Iterator[None]:
        """Attribute wall time and traffic inside the block to ``phase``.

        Phase entry is a fault-injection site: an armed ``crash`` or
        ``straggler`` trigger naming this phase fires here.  Entry to an
        outermost computation region takes a kernel slot when the rank
        carries :attr:`slots`; the wait comes before the timer starts,
        so it counts as idle time, not computation.
        """
        if self.faults is not None:
            self.faults.on_phase(phase.value)
        previous = self.phase
        slots = self.slots
        if phase is not Phase.COMPUTATION or previous is Phase.COMPUTATION:
            slots = None  # only an outermost computation region takes one
        if slots is not None:
            # Admission rule: a computation region runs local kernels
            # only and never blocks on a peer (sends, receives and waits
            # live in the communication phases), so no rank waits for a
            # peer while holding a slot and the bounded wait here cannot
            # deadlock the ring.
            slots.acquire()
        self.phase = phase
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if slots is not None:
                slots.release()
            self.counters[phase].seconds += end - start
            self.phase = previous
            if self.tracer is not None:
                self.tracer.span(phase.value, "phase", start, end)

    # -- hooks used by the communicator and the local kernels ------------

    def on_send(self, words: int) -> None:
        ctr = self.counters[self.phase]
        ctr.words_sent += words
        ctr.messages_sent += 1

    def on_recv(self, words: int) -> None:
        ctr = self.counters[self.phase]
        ctr.words_received += words
        ctr.messages_received += 1

    def add_flops(self, flops: int) -> None:
        self.counters[self.phase].flops += flops

    def on_hidden(self, seconds: float) -> None:
        """Record transfer time hidden behind computation (overlap)."""
        if seconds > 0.0:
            self.counters[self.phase].hidden_seconds += seconds

    def note_buffer_bytes(self, resident_bytes: int) -> None:
        """Record the current resident panel-buffer footprint; keeps the max."""
        if resident_bytes > self.peak_buffer_bytes:
            self.peak_buffer_bytes = int(resident_bytes)

    # -- cross-process sync (mpi backend) ---------------------------------

    def counter_state(self):
        """Picklable snapshot of the accumulated counters.

        Process backends ship this across rank boundaries (tracers and
        fault views are deliberately excluded — they are local-process
        objects), so every replicated driver holds identical per-rank
        totals after a call.  Restore with :meth:`set_counter_state`.
        """
        return (
            {ph.value: astuple(ctr) for ph, ctr in self.counters.items()},
            self.peak_buffer_bytes,
        )

    def set_counter_state(self, state) -> None:
        """Overwrite the counters with a :meth:`counter_state` snapshot
        taken by this rank's authoritative process."""
        phase_state, peak = state
        for ph in Phase:
            values = phase_state.get(ph.value)
            if values is not None:
                self.counters[ph] = PhaseCounters(*values)
        self.peak_buffer_bytes = int(peak)

    # -- convenience ------------------------------------------------------

    def total(self) -> PhaseCounters:
        out = PhaseCounters()
        for ctr in self.counters.values():
            out.merge(ctr)
        return out


@dataclass
class RunReport:
    """Aggregated cost report for one distributed run.

    ``per_rank`` holds the individual :class:`RankProfile` objects.  The
    reduction methods implement the paper's convention: *communication cost*
    is the maximum over ranks of time spent sending and receiving, so all
    maxima here are per-rank maxima, not sums.
    """

    per_rank: list = field(default_factory=list)
    label: str = ""
    #: the resolved communication mode of the run ("dense" / "sparse"),
    #: so ``comm="auto"`` decisions are observable from the report
    comm_mode: str = ""
    #: the resolved kernel backend the local kernels ran on ("numpy" /
    #: "numba"), so ``kernels="auto"`` decisions are observable too
    kernel_backend: str = ""

    # -- raw reductions ---------------------------------------------------

    def max_over_ranks(self, phase: Phase, attr: str) -> float:
        """Maximum of one counter attribute over all ranks for ``phase``."""
        if not self.per_rank:
            return 0.0
        return max(getattr(p.counters[phase], attr) for p in self.per_rank)

    def phase_words(self, phase: Phase) -> int:
        """Max words *received* by any rank during ``phase``."""
        return int(self.max_over_ranks(phase, "words_received"))

    def phase_messages(self, phase: Phase) -> int:
        return int(self.max_over_ranks(phase, "messages_received"))

    def phase_seconds(self, phase: Phase) -> float:
        return self.max_over_ranks(phase, "seconds")

    def phase_flops(self, phase: Phase) -> int:
        return int(self.max_over_ranks(phase, "flops"))

    @property
    def comm_words(self) -> int:
        """Max per-rank words received over all communication phases."""
        if not self.per_rank:
            return 0
        return int(
            max(
                p.counters[Phase.REPLICATION].words_received
                + p.counters[Phase.PROPAGATION].words_received
                + p.counters[Phase.OTHER].words_received
                for p in self.per_rank
            )
        )

    @property
    def comm_messages(self) -> int:
        if not self.per_rank:
            return 0
        return int(
            max(
                p.counters[Phase.REPLICATION].messages_received
                + p.counters[Phase.PROPAGATION].messages_received
                + p.counters[Phase.OTHER].messages_received
                for p in self.per_rank
            )
        )

    @property
    def peak_buffer_bytes(self) -> int:
        """Max per-rank panel-buffer high-water mark (memory footprint)."""
        if not self.per_rank:
            return 0
        return int(max(p.peak_buffer_bytes for p in self.per_rank))

    @property
    def compute_seconds(self) -> float:
        return self.phase_seconds(Phase.COMPUTATION)

    # -- exposed/hidden communication split (overlap pipeline) ------------

    _COMM_PHASES = (Phase.REPLICATION, Phase.PROPAGATION, Phase.OTHER)

    @property
    def exposed_comm_seconds(self) -> float:
        """Max per-rank wall time spent *blocked* on communication.

        Under ``overlap="off"`` this is the whole communication time; under
        the overlap pipeline it is what the pipeline failed to hide.
        """
        if not self.per_rank:
            return 0.0
        return max(
            sum(p.counters[ph].seconds for ph in self._COMM_PHASES)
            for p in self.per_rank
        )

    @property
    def hidden_comm_seconds(self) -> float:
        """Max per-rank transfer time that completed behind local compute."""
        if not self.per_rank:
            return 0.0
        return max(
            sum(p.counters[ph].hidden_seconds for ph in self._COMM_PHASES)
            for p in self.per_rank
        )

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of the perfectly-hideable communication actually hidden.

        The optimistic overlap model bounds the saving by
        ``min(comm, compute)`` (communication cannot hide more than the
        computation running beside it); this property measures how much of
        that bound the executed pipeline captured:
        ``hidden / min(exposed + hidden, compute)``, clipped to [0, 1].
        Zero for synchronous runs (nothing was hidden).

        This is a *per-rank concurrency* measure — the fraction of each
        exchange's post-to-completion lifetime that ran behind the rank's
        own kernels — matching the per-rank convention of every other
        report metric.  Turning hidden per-rank time into end-to-end
        speedup additionally requires hardware parallelism: a simulator
        host time-slicing all ranks on one core can capture the full
        bound here while total wall time, pinned by serialized compute,
        does not improve.
        """
        hidden = self.hidden_comm_seconds
        if hidden <= 0.0:
            return 0.0
        comm = self.exposed_comm_seconds + hidden
        bound = min(comm, self.compute_seconds)
        if bound <= 0.0:
            return 0.0
        return min(1.0, hidden / bound)

    @property
    def flops(self) -> int:
        if not self.per_rank:
            return 0
        return int(max(p.total().flops for p in self.per_rank))

    # -- modeled times -----------------------------------------------------

    def modeled_comm_seconds(self, machine, phase: Optional[Phase] = None) -> float:
        """alpha-beta time of the communication measured in this run.

        ``machine`` is a :class:`repro.runtime.cost.MachineParams`.  With
        ``phase=None`` all communication phases are included.
        """
        phases: Iterable[Phase]
        if phase is None:
            phases = (Phase.REPLICATION, Phase.PROPAGATION, Phase.OTHER)
        else:
            phases = (phase,)

        def rank_time(p: RankProfile) -> float:
            t = 0.0
            for ph in phases:
                ctr = p.counters[ph]
                t += machine.alpha * ctr.messages_received
                t += machine.beta * ctr.words_received
            return t

        return max(rank_time(p) for p in self.per_rank)

    def modeled_compute_seconds(self, machine) -> float:
        """gamma time of the FLOPs measured in this run."""
        return max(p.total().flops for p in self.per_rank) * machine.gamma

    def modeled_total_seconds(
        self, machine, measured_compute: bool = False, overlap: bool = False
    ) -> float:
        """Total modeled runtime: communication (alpha-beta) + computation.

        With ``measured_compute=True``, wall-clock local-kernel time from
        this process is used instead of ``gamma * flops``.

        ``overlap=True`` models the paper's future-work optimization of
        overlapping the *propagation* phase with local computation (e.g.
        via one-sided MPI / RDMA): the propagation and computation terms
        contribute ``max`` instead of sum, while replication collectives
        remain synchronous.  This is an optimistic bound — perfect overlap
        with no interference.
        """
        compute = (
            self.compute_seconds
            if measured_compute
            else self.modeled_compute_seconds(machine)
        )
        if not overlap:
            return self.modeled_comm_seconds(machine) + compute
        repl = self.modeled_comm_seconds(machine, Phase.REPLICATION)
        other = self.modeled_comm_seconds(machine, Phase.OTHER)
        prop = self.modeled_comm_seconds(machine, Phase.PROPAGATION)
        return repl + other + max(prop, compute)

    def with_model(self, machine, measured_compute: bool = False) -> "ModeledTimes":
        """Model view of this run: synchronous total, optimistic overlap
        bound, *and* the measured exposed/hidden communication split.

        Historically ``modeled_total_seconds(overlap=True)`` silently
        *replaced* the synchronous total with the optimistic perfect-overlap
        bound; this view reports both, next to what the executed pipeline
        actually achieved, so "modeled if we overlapped" and "measured how
        much we overlapped" can no longer be conflated.
        """
        return ModeledTimes(
            synchronous_seconds=self.modeled_total_seconds(
                machine, measured_compute=measured_compute
            ),
            overlap_bound_seconds=self.modeled_total_seconds(
                machine, measured_compute=measured_compute, overlap=True
            ),
            measured_exposed_seconds=self.exposed_comm_seconds,
            measured_hidden_seconds=self.hidden_comm_seconds,
            overlap_efficiency=self.overlap_efficiency,
        )

    # -- structured export -------------------------------------------------

    def to_dict(self, per_rank: bool = False) -> Dict[str, object]:
        """Structured metrics record: one JSON-ready dict per run.

        This is the schema benchmarks and serving consumers share instead
        of hand-rolled field sets.  All reductions follow the paper's
        per-rank-maximum convention; ``per_rank=True`` additionally
        inlines the raw per-rank counter tables.
        """
        out: Dict[str, object] = {
            "label": self.label,
            "comm_mode": self.comm_mode,
            "kernel_backend": self.kernel_backend,
            "nranks": len(self.per_rank),
            "phases": {
                ph.value: {
                    "seconds": self.phase_seconds(ph),
                    "words": self.phase_words(ph),
                    "messages": self.phase_messages(ph),
                    "flops": self.phase_flops(ph),
                    "hidden_seconds": self.max_over_ranks(ph, "hidden_seconds"),
                }
                for ph in Phase
            },
            "comm_words": self.comm_words,
            "comm_messages": self.comm_messages,
            "compute_seconds": self.compute_seconds,
            "exposed_comm_seconds": self.exposed_comm_seconds,
            "hidden_comm_seconds": self.hidden_comm_seconds,
            "overlap_efficiency": self.overlap_efficiency,
            "peak_buffer_bytes": self.peak_buffer_bytes,
            "flops": self.flops,
        }
        if per_rank:
            out["per_rank"] = [
                {
                    "rank": r,
                    "peak_buffer_bytes": p.peak_buffer_bytes,
                    "phases": {
                        ph.value: {
                            "seconds": p.counters[ph].seconds,
                            "words_sent": p.counters[ph].words_sent,
                            "words_received": p.counters[ph].words_received,
                            "messages_sent": p.counters[ph].messages_sent,
                            "messages_received": p.counters[ph].messages_received,
                            "flops": p.counters[ph].flops,
                            "hidden_seconds": p.counters[ph].hidden_seconds,
                        }
                        for ph in Phase
                    },
                }
                for r, p in enumerate(self.per_rank)
            ]
        return out

    def to_json(self, per_rank: bool = False, indent: Optional[int] = None) -> str:
        """:meth:`to_dict` serialized with :func:`json.dumps`."""
        return json.dumps(self.to_dict(per_rank=per_rank), indent=indent)

    # -- merging (for multi-call benchmarks, e.g. "5 FusedMM calls") ------

    def merged_with(self, other: "RunReport") -> "RunReport":
        if len(self.per_rank) != len(other.per_rank):
            raise ValueError("cannot merge reports with different rank counts")
        merged = RunReport(
            per_rank=[RankProfile() for _ in self.per_rank],
            label=self.label,
            # keep the mode only when both reports agree; a dense+sparse
            # merge has no single honest answer, so report none
            comm_mode=self.comm_mode if self.comm_mode == other.comm_mode else "",
            kernel_backend=(
                self.kernel_backend
                if self.kernel_backend == other.kernel_backend
                else ""
            ),
        )
        for dst, a, b in zip(merged.per_rank, self.per_rank, other.per_rank):
            for ph in Phase:
                dst.counters[ph].merge(a.counters[ph])
                dst.counters[ph].merge(b.counters[ph])
            dst.peak_buffer_bytes = max(a.peak_buffer_bytes, b.peak_buffer_bytes)
        return merged

    def summary(self) -> str:
        """Human-readable per-phase summary table."""
        lines = [f"RunReport({self.label or 'unnamed'})"]
        for ph in Phase:
            lines.append(
                f"  {ph.value:<12} time={self.phase_seconds(ph):9.4f}s"
                f" words={self.phase_words(ph):>12d}"
                f" msgs={self.phase_messages(ph):>6d}"
                f" flops={self.phase_flops(ph):>14d}"
            )
        if self.comm_mode:
            lines.append(f"  comm mode    {self.comm_mode}")
        if self.kernel_backend:
            lines.append(f"  kernels      {self.kernel_backend}")
        if self.hidden_comm_seconds > 0.0:
            lines.append(
                f"  overlap      hidden={self.hidden_comm_seconds:.4f}s"
                f" exposed={self.exposed_comm_seconds:.4f}s"
                f" efficiency={self.overlap_efficiency:.1%}"
            )
        if self.peak_buffer_bytes:
            lines.append(f"  peak buffers {self.peak_buffer_bytes} bytes/rank")
        return "\n".join(lines)


@dataclass(frozen=True)
class ModeledTimes:
    """Modeled totals of a run next to its measured overlap split.

    ``synchronous_seconds`` is the plain alpha-beta + gamma total;
    ``overlap_bound_seconds`` is the optimistic perfect-overlap bound
    (propagation and computation contribute ``max`` instead of sum);
    the ``measured_*`` fields are what the executed pipeline achieved.
    """

    synchronous_seconds: float
    overlap_bound_seconds: float
    measured_exposed_seconds: float
    measured_hidden_seconds: float
    overlap_efficiency: float

    @property
    def modeled_hideable_seconds(self) -> float:
        """What perfect overlap would save on the modeled machine."""
        return self.synchronous_seconds - self.overlap_bound_seconds
