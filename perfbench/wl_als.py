"""Workload ``als-powerlaw``: whole ALS training jobs on a power-law matrix.

``random_permutation(rmat(14, edge_factor=8))`` (~120k nnz, phi ~0.11 at
r=64), ``DistributedALS(p=4, c=2, algorithm="1.5d-sparse-shift",
comm="sparse", cg_iters=10).run(C, 64, outer_iters=2)`` — one training
job per repetition, each with a cold comm-plan cache (users pay need-list
planning once per graph).  Exercises need-list ``comm_sparse``, the
sparse-shift ``sddmm_coo``/``spmm_scatter`` kernels, rank-side CG with a
layer allreduce (the OTHER phase) and the transposed sibling distribution.

A run makes a fixed number of jobs, set by ``--seconds`` alone, so the
median and the costliest job are taken over the same sample count however
fast the jobs are.  Each job is timed in both wall and process CPU time;
the end-to-end metrics are the CPU figures, ``train_s`` the wall one.  The traced run traces the training jobs themselves
(:class:`KeptALS`), interleaved with untraced ones.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.apps.als import DistributedALS
from repro.comm_sparse.planner import clear_plan_cache

import probes
import serve_probe
from core import Result, Spans, median
from references import als_serial_loss

SCALE, EDGE_FACTOR, R, P, C = 14, 8, 64, 4, 2
OUTER_ITERS, CG_ITERS, LAM = 2, 10, 0.1
SETUP_REPS = 7
#: nominal seconds per job: a run makes ``seconds // JOB_BUDGET_S`` jobs
#: (at least ``MIN_JOBS``), a count that does not depend on job speed
JOB_BUDGET_S, MIN_JOBS = 6.0, 3
#: the traced run's jobs: untraced (False) and traced (True), in an
#: order that cancels a linear drift out of the overhead pair
TRACED_ORDER = (False, True, True, False)
#: relative tolerance of the final loss against the serial reference.  The
#: distributed CG reduces row dots over r-strips, in another order than
#: the serial one; reordering only those sums in the serial reference
#: moves its loss by ~5e-9 after two sweeps, while a wrong matvec moves
#: it by orders of magnitude more
LOSS_TOL = 1e-6
CG_LABEL = "als/cg/"


def _inputs(seed: int):
    return repro.random_permutation(
        repro.rmat(SCALE, edge_factor=EDGE_FACTOR, seed=seed), seed=seed + 1
    )


_DRIVER_ARGS = dict(
    p=P, c=C, algorithm="1.5d-sparse-shift", comm="sparse",
    cg_iters=CG_ITERS, lam=LAM, kernels="numpy",
)


class KeptALS(DistributedALS):
    """The workload's ALS driver, with its two sessions planned in the
    given ``trace`` mode and kept for reading after the job.

    It also times each ``plan`` of the job and each ``bind`` on the
    pattern session (the CG solves' operand binds), each in a span."""

    def __init__(self, trace: str, spans: Spans) -> None:
        super().__init__(**_DRIVER_ARGS)
        self.trace, self.spans = trace, spans
        self.sessions = ()
        self.plan_s, self.bind_s = [], []

    def _sessions(self, C_obs, r):
        out = []
        for S in (C_obs, C_obs.with_values(np.ones(C_obs.nnz))):
            t0 = time.perf_counter()
            with self.spans.span("session.plan", "model"):
                out.append(repro.plan(
                    S, r, p=self.p, c=self.c, algorithm=self.algorithm,
                    elision=self.elision, comm=self.comm,
                    kernels=self.kernels, trace=self.trace,
                ))
            self.plan_s.append(time.perf_counter() - t0)
        pattern = out[1]
        bind = pattern.bind

        def timed_bind(*args, **kw):
            t0 = time.perf_counter()
            try:
                with self.spans.span("session.bind", "session"):
                    return bind(*args, **kw)
            finally:
                self.bind_s.append(time.perf_counter() - t0)

        pattern.bind = timed_bind
        self.sessions = tuple(out)
        return self.sessions


def _plan_pattern(C_obs):
    """A session planned exactly like the ALS driver's pattern session."""
    pattern = C_obs.with_values(np.ones(C_obs.nnz))
    return repro.plan(
        pattern, R, p=P, c=C, algorithm="1.5d-sparse-shift",
        elision="replication-reuse", comm="sparse", kernels="numpy",
    )


def _job(driver: DistributedALS, C_obs, seed: int, spans: Spans):
    """One cold training job; returns ``(wall_s, cpu_s, result)``."""
    clear_plan_cache()
    c0, t0 = time.process_time(), time.perf_counter()
    with spans.span("apps.als.run", "apps"):
        result = driver.run(C_obs, R, outer_iters=OUTER_ITERS, seed=seed)
    return time.perf_counter() - t0, time.process_time() - c0, result


def _check_losses(res: Result, C_obs, seed: int, losses) -> None:
    ref = als_serial_loss(C_obs, R, OUTER_ITERS, CG_ITERS, LAM, seed)
    for i, loss in enumerate(losses):
        err = abs(loss - ref) / abs(ref)
        res.check(f"job {i} final loss vs serial ALS", err <= LOSS_TOL,
                  f"loss {loss:.12g} vs {ref:.12g} (rel {err:.3g})")
    spread = max(losses) - min(losses)
    res.check("final loss identical across jobs", spread == 0.0,
              f"max-min {spread:.3g}")


def run(seed: int, seconds: float, trace: bool, spans: Spans) -> Result:
    res = Result("als-powerlaw")
    C_obs = _inputs(seed)
    res.notes.update({"nnz": C_obs.nnz, "phi": C_obs.nnz / (C_obs.ncols * R)})
    if trace:
        return _run_traced(C_obs, seed, spans, res)

    # set-up: the job's pattern distribution, plan -> first SpMM, cold
    B0 = np.random.default_rng(seed + 2).standard_normal((C_obs.ncols, R)) * 0.1
    cpus, walls = [], []
    for _ in range(SETUP_REPS):
        clear_plan_cache()
        c0, t0 = time.process_time(), time.perf_counter()
        sess = _plan_pattern(C_obs)
        sess.spmm_a(B0)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        res.decisions = probes.decisions(sess)
        # the job's own bind/plan/context counts are in the traced run
        res.counts = {f"setup.{k}": int(v)
                      for k, v in probes.session_counts([sess]).items()}
        sess.close()
    res.e2e["setup_s"] = median(cpus)
    res.named["setup_wall_s"] = (median(walls), "s")

    jobs, job_cpus, losses = [], [], []
    for _ in range(max(MIN_JOBS, int(seconds // JOB_BUDGET_S))):
        dt, cpu, result = _job(DistributedALS(**_DRIVER_ARGS), C_obs, seed,
                               spans)
        jobs.append(dt)
        job_cpus.append(cpu)
        losses.append(result.loss_history[-1])
    res.attempted += len(jobs)
    report = result.report
    res.counts.update({
        "comm_words_per_job": report.comm_words,
        "comm_messages_per_job": report.comm_messages,
        "flops_per_job": report.flops,
    })
    _check_losses(res, C_obs, seed, losses)

    res.e2e["cpu_ms_p50"] = median(job_cpus) * 1e3
    res.e2e["cpu_ms_tail"] = max(job_cpus) * 1e3
    res.e2e["ops_per_cpu_s"] = len(job_cpus) / sum(job_cpus)
    res.named.update({
        "train_s": (median(jobs), "s"),
        "train_s_max": (max(jobs), "s"),
        "jobs_per_s": (len(jobs) / sum(jobs), "1/s"),
        "final_loss": (losses[-1], "sq-err"),
    })
    res.notes["jobs"] = len(jobs)
    return res


def _driver_ms(sess) -> float:
    """Median over the CG dispatches of ``run_rank`` wall (the session's
    metrics record) minus the longest rank-side ``run`` span."""
    walls = [m["wall_ms"] for m in sess.metrics()
             if m["label"].startswith(CG_LABEL)]
    rank_side = probes.pool_run_seconds([sess], CG_LABEL)
    return median([w - r * 1e3 for w, r in zip(walls, rank_side)])


def _run_traced(C_obs, seed, spans: Spans, res: Result) -> Result:
    rng = np.random.default_rng(0)
    layers = {}
    walls = {False: [], True: []}
    losses = []
    for traced in TRACED_ORDER:
        driver = KeptALS("on" if traced else "off", spans)
        dt, _, result = _job(driver, C_obs, seed, spans)
        walls[traced].append(dt)
        losses.append(result.loss_history[-1])
        if traced:
            kept, kept_result = driver, result
    res.attempted += len(TRACED_ORDER)
    _check_losses(res, C_obs, seed, losses)
    layers.update(probes.tracing_overhead(walls[False], walls[True]))

    # the last traced job: its report (both sessions), and the pattern
    # session, which runs every CG solve and the loss SDDMMs
    sess_val, sess_pat = kept.sessions
    report = kept_result.report
    timeline = sess_pat.timeline()
    layers.update(probes.algorithm_metrics(report, 1, timeline))
    layers.update(probes.session_counts(kept.sessions))
    layers["session.plan_ms"] = median(kept.plan_s) * 1e3
    layers["session.bind_ms"] = median(kept.bind_s) * 1e3
    layers["session.driver_ms"] = _driver_ms(sess_pat)
    with spans.span("session.distribute", "session"):
        layers.update(probes.probe_distribution(sess_pat, sess_pat.S, spans))
    res.decisions = probes.decisions(sess_pat)
    res.notes.update({"report": report.to_dict(),
                      "timeline": timeline.to_dict(),
                      "metrics": sess_pat.metrics()})

    # one circulating chunk of the sparse-shift family: row chunk m/(p/c)
    # x the n/c columns a layer owns, on an r/(p/c) strip
    nl = P // C
    with spans.span("kernels.sparse_shift", "kernels"):
        blk = probes.cut_block(C_obs, C_obs.nrows // nl, C_obs.ncols // C)
        layers.update(probes.probe_sparse_shift_kernels(blk, R // nl, rng))
    layers.update(probes.probe_runtime(P, (C_obs.ncols // P) * R, spans))
    # the serve layer rides on this workload's traced run: serving is not
    # steady enough on a shared 2-core host to be a gated workload
    with spans.span("serve.layers", "serve"):
        layers.update(serve_probe.serve_layers(seed, spans, res))
    res.layers = layers
    return res
