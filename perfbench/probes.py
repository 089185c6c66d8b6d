"""Per-layer probes for the traced run.

Each probe calls one layer's public functions directly, on operands
shaped like the per-rank blocks of the workload that uses that layer:

* ``kernels`` — the local kernels (``repro.kernels``) on a block cut from
  the workload's own sparse matrix, sized like one rank's block;
* ``runtime.comm`` / ``runtime.spmd`` — ``Communicator.shift`` inside
  ``WorkerPool.run`` bodies, and empty ``WorkerPool.run`` round trips;
* ``session`` / ``algorithms`` — knob resolution, distribution, dense
  binds, and the phase split of a traced session window.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.kernels import (
    GatScoreOp,
    fusedmm_local,
    sddmm_coo,
    sddmm_custom,
    spmm_a_block,
    spmm_scatter,
)
from repro.runtime.spmd import WorkerPool
from repro.sparse.coo import CooMatrix, SparseBlock
from repro.types import Phase

from core import Spans, median, repeat_timed

#: every probe repeats its operation at least this often and this long
PROBE_REPS = 5
PROBE_SECONDS = 0.25


def cut_block(S: CooMatrix, nrows: int, ncols: int) -> SparseBlock:
    """The ``S[:nrows, :ncols]`` corner as a local block: one rank's block
    under a row/column block partition of that shape."""
    keep = (S.rows < nrows) & (S.cols < ncols)
    return SparseBlock(S.rows[keep], S.cols[keep], S.vals[keep], (nrows, ncols))


def _kernel_ms(fn) -> float:
    fn()  # warm caches (CSR structure, allocator)
    return median(repeat_timed(fn, PROBE_REPS, PROBE_SECONDS)) * 1e3


def probe_fusedmm_local(block: SparseBlock, r: int, rng) -> Dict[str, float]:
    A_rep = rng.standard_normal((block.nrows, r))
    B_cur = rng.standard_normal((block.ncols, r))
    out = np.zeros((block.nrows, r))
    ms = _kernel_ms(lambda: fusedmm_local(A_rep, B_cur, block, out))
    flops = 4 * block.nnz * r
    # computed bytes: dense inputs once, the output read and written, the
    # COO triple and the transient SDDMM values
    nbytes = (
        A_rep.nbytes + B_cur.nbytes + 2 * out.nbytes
        + block.nnz * (8 + 8 + 8 + 8)
    )
    return {
        "kernels.fusedmm_local.ms": ms,
        "kernels.fusedmm_local.gflops": flops / (ms * 1e-3) / 1e9,
        "kernels.fusedmm_local.flop_per_byte": flops / nbytes,
    }


def probe_sparse_shift_kernels(
    block: SparseBlock, width: int, rng
) -> Dict[str, float]:
    """``sddmm_coo`` and the SpMMB-form ``spmm_scatter`` of the sparse-
    shifting family on one circulating chunk (r-strip of ``width``)."""
    T = rng.standard_normal((block.nrows, width))
    B_loc = rng.standard_normal((block.ncols, width))
    acc = np.zeros(block.nnz)
    out = np.zeros((block.ncols, width))
    sd_ms = _kernel_ms(
        lambda: sddmm_coo(T, B_loc, block.rows, block.cols, out=acc,
                          accumulate=True)
    )
    sc_ms = _kernel_ms(
        lambda: spmm_scatter(block.cols, block.rows, block.vals, T, out)
    )
    flops = 2 * block.nnz * width
    return {
        "kernels.sddmm_coo.ms": sd_ms,
        "kernels.sddmm_coo.gflops": flops / (sd_ms * 1e-3) / 1e9,
        "kernels.spmm_scatter.ms": sc_ms,
        "kernels.spmm_scatter.gflops": flops / (sc_ms * 1e-3) / 1e9,
    }


def probe_serve_kernels(
    gat_block: SparseBlock, gat_rows: np.ndarray, head, slope: float,
    als_block: SparseBlock, batch_width: int, rng,
) -> Dict[str, float]:
    """The GAT edge-score SDDMM and the ALS scoring SpMM on one rank's
    block of each serving session."""
    op = GatScoreOp(head.a_left, head.a_right, slope)
    Q = np.ascontiguousarray(gat_rows[: gat_block.nrows])
    H = np.ascontiguousarray(gat_rows[: gat_block.ncols])
    panel = rng.standard_normal((als_block.ncols, batch_width))
    out = np.zeros((als_block.nrows, batch_width))
    return {
        "kernels.sddmm_custom.ms": _kernel_ms(
            lambda: sddmm_custom(Q, H, gat_block.rows, gat_block.cols, op)
        ),
        "kernels.spmm_a_block.ms": _kernel_ms(
            lambda: spmm_a_block(als_block, panel, out)
        ),
    }


# -- runtime: transport and pool dispatch ------------------------------


def _shift_body(payload, steps: int):
    def body(comm):
        comm.shift(payload)  # warm the mailbox path
        t0 = time.perf_counter()
        for _ in range(steps):
            comm.shift(payload)
        return time.perf_counter() - t0

    return body


def _noop(comm) -> None:
    return None


def probe_runtime(p: int, panel_words: int, spans: Spans) -> Dict[str, float]:
    """alpha (small ring shift), beta (panel-sized ring shift) and the
    empty dispatch round trip, on a dedicated ``p``-rank pool."""
    small_steps, large_steps = 400, 10
    small = np.zeros(8)
    large = np.zeros(panel_words)
    with WorkerPool(p, name="perfbench-probe") as pool:
        with spans.span("runtime.comm.shift_small", "runtime.comm"):
            smalls = [
                max(pool.run(_shift_body(small, small_steps))[0]) / small_steps
                for _ in range(3)
            ]
        with spans.span("runtime.comm.shift_large", "runtime.comm"):
            larges = [
                max(pool.run(_shift_body(large, large_steps))[0]) / large_steps
                for _ in range(3)
            ]
        with spans.span("runtime.spmd.dispatch", "runtime.spmd"):
            pool.run(_noop)
            rtts = repeat_timed(lambda: pool.run(_noop), 200, 0.2)
    return {
        "runtime.comm.shift_small_us": median(smalls) * 1e6,
        "runtime.comm.shift_large_gbps": large.nbytes / median(larges) / 1e9,
        "runtime.spmd.dispatch_us": median(rtts) * 1e6,
    }


# -- session and algorithm layers ---------------------------------------


def probe_distribution(sess, S: CooMatrix, spans: Spans) -> Dict[str, float]:
    """Driver-side distribution work of one orientation, timed through the
    session's algorithm instance: layout plan, COO partition and (on the
    sparse-comm path) the need-list comm plans."""
    from repro.comm_sparse.planner import clear_plan_cache

    alg = sess.alg
    times: List[float] = []
    for _ in range(3):
        clear_plan_cache()
        t0 = time.perf_counter()
        with spans.span("session.distribute", "sparse"):
            layout = alg.plan(S.nrows, S.ncols, sess.r)
            alg.distribute_sparse(layout, S)
            if sess.comm_mode.value == "sparse":
                with spans.span("comm_sparse.build_comm_plans", "comm_sparse"):
                    alg.build_comm_plans(layout, S)
        times.append(time.perf_counter() - t0)
    return {"session.distribute_ms": median(times) * 1e3}


def time_plan(plan_fn, spans: Spans) -> Dict[str, float]:
    """Knob resolution and session construction (``model`` layer work):
    ``plan_fn()`` builds a lazily distributed session, closed at once."""
    from repro.comm_sparse.planner import clear_plan_cache

    times: List[float] = []
    for _ in range(3):
        clear_plan_cache()
        t0 = time.perf_counter()
        with spans.span("session.plan", "model"):
            sess = plan_fn()
        times.append(time.perf_counter() - t0)
        sess.close()
    return {"session.plan_ms": median(times) * 1e3}


def pool_run_seconds(sessions: Sequence, label: str = "") -> List[float]:
    """Per call, the longest rank-side ``run`` span of the pool (from the
    sessions' tracers; calls are matched in order, sessions concatenated).
    Only calls whose label starts with ``label`` count."""
    prefix = f"run {label}".rstrip()
    out: List[float] = []
    for sess in sessions:
        per_rank = [
            [ev[4] - ev[3] for ev in tr.events
             if ev[0] == "span" and ev[2] == "pool" and ev[1].startswith(prefix)]
            for tr in sess.tracers()
        ]
        ncalls = min(len(x) for x in per_rank)
        out.extend(max(x[i] for x in per_rank) for i in range(ncalls))
    return out


def algorithm_metrics(
    report, n_ops: int, timeline=None
) -> Dict[str, float]:
    """Phase split (max over ranks), exposed/hidden comm and exact counts
    per op from a ``RunReport`` covering ``n_ops`` ops; occupancy
    fractions from a traced ``TimelineStats`` when given."""
    d = report.to_dict()
    ph = d["phases"]
    out = {
        f"algorithms.{p.value}_s": ph[p.value]["seconds"] / n_ops
        for p in Phase
    }
    out.update({
        "algorithms.exposed_comm_s": d["exposed_comm_seconds"] / n_ops,
        "algorithms.hidden_comm_s": d["hidden_comm_seconds"] / n_ops,
        "algorithms.comm_words": d["comm_words"] / n_ops,
        "algorithms.comm_messages": d["comm_messages"] / n_ops,
        "algorithms.flops": d["flops"] / n_ops,
        "runtime.buffers.peak_bytes": float(d["peak_buffer_bytes"]),
    })
    if report.comm_mode == "sparse":
        out["comm_sparse.replication_words"] = (
            ph[Phase.REPLICATION.value]["words"] / n_ops
        )
        out["comm_sparse.replication_s"] = (
            ph[Phase.REPLICATION.value]["seconds"] / n_ops
        )
    if timeline is not None:
        out["algorithms.idle_frac"] = timeline.idle_fraction
        out["algorithms.compute_frac"] = timeline.compute_fraction
        out["algorithms.exposed_comm_frac"] = timeline.exposed_comm_fraction
    return out


def session_counts(sessions: Sequence) -> Dict[str, float]:
    return {
        "session.bind_count": float(sum(
            sum(s.dense_bind_counts.values()) for s in sessions)),
        "session.bind_skips": float(sum(
            sum(s.dense_bind_skips.values()) for s in sessions)),
        "session.plan_builds": float(sum(s.plan_builds for s in sessions)),
        "session.context_builds": float(sum(
            sum(s.context_builds.values()) for s in sessions)),
    }


def decisions(sess) -> Dict[str, Any]:
    """The resolved knobs, as the session's repr shows them."""
    return {
        "algorithm": sess.algorithm,
        "c": sess.c,
        "comm": sess.comm_mode.value,
        "overlap": sess.overlap_mode,
        "kernels": sess.kernels,
        "elision": sess.elision.value,
    }


def tracing_overhead(untraced: List[float], traced: List[float]) -> Dict[str, float]:
    u, t = median(untraced) * 1e3, median(traced) * 1e3
    return {
        "tracing.untraced_op_ms": u,
        "tracing.traced_op_ms": t,
        "tracing.overhead_frac": (t - u) / u,
    }
