"""Workload ``fusedmm-uniform``: a closed loop of FusedMM calls on a
resident session over a uniform (Erdős–Rényi) matrix.

``erdos_renyi(16384, 16384, 32)``, r=64 (phi ~0.5), p=4, c=2,
``1.5d-dense-shift`` with local kernel fusion and dense comm.  Each call
is ``Session.fusedmm_a(A_i, B)``: ``A_i`` cycles through a few
pre-generated operands while ``B`` stays fixed — the iterative-embedding
pattern.  Kernel-bound (``fusedmm_local`` dominates rank time), uniform
load, large dense panels, no ``comm_sparse``.

Each call is timed in both wall and process CPU time; the end-to-end
metrics are the CPU figures, the wall ones are printed by name.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.baselines.serial import fusedmm_a_serial
from repro.comm_sparse.planner import clear_plan_cache

import probes
from core import Result, Spans, median, quantile
from references import rel_err

N, NNZ_PER_ROW, R, P, C = 16384, 32, 64, 4, 2
N_OPERANDS = 3
SETUP_REPS = 7
WARMUP_CALLS = 2
TRACED_CALLS = 10
TOL = 1e-10


def _inputs(seed: int):
    S = repro.erdos_renyi(N, N, NNZ_PER_ROW, seed=seed)
    rng = np.random.default_rng(seed + 1)
    As = [rng.standard_normal((N, R)) for _ in range(N_OPERANDS)]
    B = rng.standard_normal((N, R))
    return S, As, B


def _plan(S, trace: str = "off"):
    return repro.plan(
        S, R, p=P, c=C, algorithm="1.5d-dense-shift",
        elision="local-kernel-fusion", comm="dense", kernels="numpy",
        trace=trace,
    )


def _check(res: Result, name: str, S, A, B, out) -> None:
    err = rel_err(out, fusedmm_a_serial(S, A, B))
    res.check(name, err <= TOL, f"relative error {err:.3g} (limit {TOL:g})")


def _setup(S, As, B, res: Result):
    """Cold set-up, repeated: plan -> first result.  Returns the last
    (open) session, which the timed loop reuses."""
    cpus, walls = [], []
    sess = None
    for i in range(SETUP_REPS):
        if sess is not None:
            sess.close()
        clear_plan_cache()
        c0, t0 = time.process_time(), time.perf_counter()
        sess = _plan(S)
        out, _ = sess.fusedmm_a(As[0], B)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if i == 0:
            _check(res, "setup output vs serial fusedmm_a", S, As[0], B, out)
    res.e2e["setup_s"] = median(cpus)
    res.named["setup_wall_s"] = (median(walls), "s")
    res.notes["setup_reps"] = SETUP_REPS
    return sess


def run(seed: int, seconds: float, trace: bool, spans: Spans) -> Result:
    res = Result("fusedmm-uniform")
    S, As, B = _inputs(seed)
    flops_per_call = 4 * S.nnz * R
    if trace:
        return _run_traced(S, As, B, spans, res)

    sess = _setup(S, As, B, res)
    with sess:
        for i in range(WARMUP_CALLS):
            sess.fusedmm_a(As[i % N_OPERANDS], B)
        sess.reset_profile()
        calls, cpus = [], []
        i = 0
        c_start, t_start = time.process_time(), time.perf_counter()
        while True:
            a_idx = i % N_OPERANDS
            c0, t0 = time.process_time(), time.perf_counter()
            out, _ = sess.fusedmm_a(As[a_idx], B)
            t1, c1 = time.perf_counter(), time.process_time()
            calls.append(t1 - t0)
            cpus.append(c1 - c0)
            i += 1
            if t1 - t_start >= seconds:
                break
        wall = time.perf_counter() - t_start
        cpu = time.process_time() - c_start
        res.attempted += len(calls)
        _check(res, "last timed output vs serial fusedmm_a", S, As[a_idx], B, out)
        report = sess.report()
        res.decisions = probes.decisions(sess)
        res.counts = {
            "comm_words_per_call": report.comm_words / len(calls),
            "comm_messages_per_call": report.comm_messages / len(calls),
            "flops_per_call": report.flops / len(calls),
            **{k: int(v) for k, v in probes.session_counts([sess]).items()},
        }

    cpu_ms = [c * 1e3 for c in cpus]
    res.e2e["cpu_ms_p50"] = median(cpu_ms)
    res.e2e["cpu_ms_tail"] = quantile(cpu_ms, 0.9)
    res.e2e["ops_per_cpu_s"] = len(calls) / cpu
    ms = [c * 1e3 for c in calls]
    res.named.update({
        "call_ms_p50": (median(ms), "ms"),
        "call_ms_p90": (quantile(ms, 0.9), "ms"),
        "useful_gflops": (flops_per_call * len(calls) / wall / 1e9, "GFLOP/s"),
        "calls_per_s": (len(calls) / wall, "1/s"),
    })
    res.notes.update({"calls": len(calls), "nnz": S.nnz,
                      "phi": S.nnz / (N * R)})
    return res


def _run_traced(S, As, B, spans: Spans, res: Result) -> Result:
    rng = np.random.default_rng(0)
    layers = {}
    with spans.span("session.plan", "session"):
        layers.update(probes.time_plan(lambda: _plan(S), spans))
    with _plan(S) as plain, _plan(S, trace="on") as traced_sess:
        for sess in (plain, traced_sess):
            for i in range(WARMUP_CALLS):
                sess.fusedmm_a(As[i % N_OPERANDS], B)
        # the tracing-overhead pair: untraced and traced calls alternate
        untraced, traced = [], []
        for i in range(TRACED_CALLS):
            for sess, out_ in ((plain, untraced), (traced_sess, traced)):
                t0 = time.perf_counter()
                sess.fusedmm_a(As[i % N_OPERANDS], B)
                out_.append(time.perf_counter() - t0)
        # the traced window: consecutive calls, so rank timelines hold
        # nothing but this session's work
        traced_sess.reset_profile()
        walls = []
        for i in range(TRACED_CALLS):
            a_idx = i % N_OPERANDS
            t0 = time.perf_counter()
            with spans.span("session.fusedmm_a", "session"):
                out, _ = traced_sess.fusedmm_a(As[a_idx], B)
            walls.append(time.perf_counter() - t0)
        res.attempted += TRACED_CALLS
        _check(res, "last traced output vs serial fusedmm_a", S, As[a_idx], B, out)
        report = traced_sess.report()
        timeline = traced_sess.timeline()
        layers.update(probes.algorithm_metrics(report, TRACED_CALLS, timeline))
        rank_side = probes.pool_run_seconds([traced_sess])
        layers["session.driver_ms"] = median(
            [(w - r) * 1e3 for w, r in zip(walls, rank_side)]
        )
        layers.update(probes.session_counts([traced_sess]))
        res.decisions = probes.decisions(traced_sess)
        res.notes.update({"report": report.to_dict(),
                          "timeline": timeline.to_dict(),
                          "metrics": traced_sess.metrics()})

        with spans.span("session.distribute", "session"):
            layers.update(probes.probe_distribution(plain, S, spans))
        binds = []
        for i in range(6):
            t0 = time.perf_counter()
            with spans.span("session.bind", "session"):
                plain.bind(As[i % N_OPERANDS], B)
            binds.append(time.perf_counter() - t0)
        layers["session.bind_ms"] = median(binds) * 1e3
    layers.update(probes.tracing_overhead(untraced, traced))

    # one rank's block: coarse row block (m*c/p rows) x fine column block
    with spans.span("kernels.fusedmm_local", "kernels"):
        blk = probes.cut_block(S, N * C // P, N // P)
        layers.update(probes.probe_fusedmm_local(blk, R, rng))
    # a panel-sized payload: one rank's fine block of B
    layers.update(probes.probe_runtime(P, (N // P) * R, spans))
    res.layers = layers
    return res
