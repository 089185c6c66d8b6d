"""Shared pieces of the end-to-end benchmark: what each metric means, the
result record, the benchmark-side span recorder and small statistics helpers.

Nothing here imports numpy or repro, so ``run.py`` can pin the BLAS/OpenMP
thread pools before either is loaded.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median  # noqa: F401  (shared with the workloads)
from typing import Any, Dict, Iterator, List, Tuple

#: environment variables pinned to one thread before numpy loads: the four
#: rank threads of every workload already cover both cores, and a BLAS
#: pool per rank thread oversubscribes them
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: what each end-to-end metric of ``BENCHMARK.json`` means on each
#: workload (names, units and directions live in ``BENCHMARK.json``).
#: Every timing is CPU time of the whole process (all threads,
#: ``time.process_time``): the guest kernel leaves out the time the host
#: takes its vCPUs away, which on a shared 2-vCPU host moves wall time by
#: up to ~1.6x between runs.  The wall-clock figures users know by name
#: (call_ms_p50, train_s, ...) are printed beside them.
E2E_MEANING: Dict[str, Dict[str, str]] = {
    "fusedmm-uniform": {
        "setup_s": "CPU s of plan -> first fusedmm_a result "
        "(cold, median of reps)",
        "cpu_ms_p50": "CPU ms of one Session.fusedmm_a call, median",
        "cpu_ms_tail": "CPU ms of one Session.fusedmm_a call, p90",
        "ops_per_cpu_s": "calls per CPU second of the closed loop",
    },
    "als-powerlaw": {
        "setup_s": "CPU s of plan of the job's pattern distribution -> "
        "first SpMM result (cold comm-plan cache, median of reps)",
        "cpu_ms_p50": "CPU ms of one ALS training job, median",
        "cpu_ms_tail": "CPU ms of the costliest ALS training job",
        "ops_per_cpu_s": "training jobs per CPU second",
    },
}

#: for each per-layer metric of ``BENCHMARK.json``: the end-to-end metric
#: and workload it should move.  A layer a workload bypasses reports 0 on
#: that workload.  The serve layer and the serving kernels are measured
#: by the serve probe inside the traced als-powerlaw run.
_SERVE = "serve probe (traced als-powerlaw run)"
LAYER_MOVES: Dict[str, str] = {
    "kernels.fusedmm_local.ms":
        "call_ms_p50/cpu_ms_p50/useful_gflops on fusedmm-uniform; not serving",
    "kernels.fusedmm_local.gflops":
        "call_ms_p50/cpu_ms_p50/useful_gflops on fusedmm-uniform",
    "kernels.fusedmm_local.flop_per_byte":
        "call_ms_p50/cpu_ms_p50 on fusedmm-uniform (computed bytes)",
    "kernels.sddmm_coo.ms": "train_s on als-powerlaw",
    "kernels.sddmm_coo.gflops": "train_s on als-powerlaw",
    "kernels.spmm_scatter.ms": "train_s on als-powerlaw; not fusedmm-uniform",
    "kernels.spmm_scatter.gflops": "train_s on als-powerlaw",
    "kernels.sddmm_custom.ms": f"served rps of the {_SERVE}",
    "kernels.spmm_a_block.ms": f"served rps of the {_SERVE}",
    "runtime.comm.shift_small_us":
        f"train_s on als-powerlaw; request latency of the {_SERVE}",
    "runtime.comm.shift_large_gbps": "call_ms_p50 on fusedmm-uniform",
    "runtime.spmd.dispatch_us":
        f"request latency of the {_SERVE}; ~none on als-powerlaw",
    "runtime.buffers.peak_bytes": "memory, every workload",
    "algorithms.replication_s": "call_ms_*/train_s",
    "algorithms.propagation_s": "call_ms_*/train_s",
    "algorithms.computation_s": "call_ms_*/train_s",
    "algorithms.other_s": "train_s (CG allreduce)",
    "algorithms.exposed_comm_s": "call_ms_*/train_s",
    "algorithms.hidden_comm_s": "call_ms_*/train_s",
    "algorithms.idle_frac":
        "call_ms_*/train_s (als-powerlaw: the job's pattern session)",
    "algorithms.compute_frac":
        "call_ms_*/train_s (als-powerlaw: the job's pattern session)",
    "algorithms.exposed_comm_frac":
        "call_ms_*/train_s (als-powerlaw: the job's pattern session)",
    "algorithms.comm_words": "exact count per call or job",
    "algorithms.comm_messages": "exact count per call or job",
    "algorithms.flops": "exact count per call or job",
    "comm_sparse.replication_words":
        "train_s on als-powerlaw; 0 on fusedmm-uniform",
    "comm_sparse.replication_s":
        "train_s on als-powerlaw; 0 on fusedmm-uniform",
    "session.plan_ms": "setup_s",
    "session.distribute_ms": "setup_s",
    "session.bind_ms": "call_ms_p50 on fusedmm-uniform, train_s",
    "session.driver_ms": "call_ms_p50 on fusedmm-uniform, train_s "
        "(als-powerlaw: per CG dispatch)",
    "session.bind_count": "exact count per session window or job",
    "session.bind_skips": "exact count per session window or job",
    "session.plan_builds": "exact count per session window or job",
    "session.context_builds": "exact count per session window or job",
    "serve.queue_ms_p50": f"request latency and served rps of the {_SERVE}",
    "serve.service_ms_p50": f"request latency and served rps of the {_SERVE}",
    "serve.batch_size_mean": f"served rps of the {_SERVE}",
    "serve.generator_late_ms_max": f"validity of the {_SERVE} load generator",
    "tracing.untraced_op_ms": "tracing overhead baseline (op = call or job)",
    "tracing.traced_op_ms": "tracing overhead (op = call or job)",
    "tracing.overhead_frac": "tracing overhead",
}

@dataclass
class Result:
    """Everything one workload run reports."""

    workload: str
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: user-facing numbers by the names users know them by: name -> (value, unit)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: correctness checks: (name, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    decisions: Dict[str, Any] = field(default_factory=dict)
    counts: Dict[str, Any] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str) -> None:
        """Record one correctness check; a failed check is a failed op."""
        self.checks.append((name, bool(passed), detail))
        self.attempted += 1
        if not passed:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


class Spans:
    """Benchmark-side span recorder, kept in memory until the run ends.

    A span records its name, layer, start, end and the index of the span
    that was open when it began (its cause); every span of one run shares
    the run's trace id.  :meth:`self_seconds` subtracts each span's
    children, giving per-layer self time.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []  # the single load thread's open spans

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        stack = self._open
        parent = stack[-1] if stack else None
        idx = len(self.records)
        rec = {"name": name, "layer": layer, "parent": parent,
               "t0": time.perf_counter(), "t1": None}
        self.records.append(rec)
        stack.append(idx)
        try:
            yield
        finally:
            rec["t1"] = time.perf_counter()
            stack.pop()

    def self_seconds(self) -> Dict[str, float]:
        child: List[float] = [0.0] * len(self.records)
        for rec in self.records:
            if rec["parent"] is not None and rec["t1"] is not None:
                child[rec["parent"]] += rec["t1"] - rec["t0"]
        out: Dict[str, float] = {}
        for i, rec in enumerate(self.records):
            if rec["t1"] is None:
                continue
            dur = rec["t1"] - rec["t0"] - child[i]
            out[rec["layer"]] = out.get(rec["layer"], 0.0) + dur
        return out

    def to_dict(self) -> Dict[str, Any]:
        base = self.records[0]["t0"] if self.records else 0.0
        return {
            "trace_id": self.trace_id,
            "self_seconds_by_layer": self.self_seconds(),
            "spans": [
                {**rec, "t0": rec["t0"] - base,
                 "t1": None if rec["t1"] is None else rec["t1"] - base}
                for rec in self.records
            ],
        }


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    vals = sorted(values)
    if not vals:
        raise ValueError("quantile of no samples")
    pos = q * (len(vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def repeat_timed(fn, min_reps: int, min_seconds: float) -> List[float]:
    """Call ``fn()`` at least ``min_reps`` times and for at least
    ``min_seconds``; returns the per-call seconds."""
    out: List[float] = []
    t_end = time.perf_counter() + min_seconds
    while len(out) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def write_json(path: str, doc: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, default=str)


def environment_record() -> Dict[str, Any]:
    """Thread pinning, core count and library versions (call after numpy
    and scipy are importable)."""
    import numpy as np
    import scipy

    blas: Dict[str, Any] = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }
