"""Serve-layer probe: a background ``repro.Server`` with two models under
a short open loop of Poisson traffic, and the serving kernels.

Models: ``AlsServeModel`` with two tenants (tenant switches force
``Session.update_values`` writes between reads) and ``GatServeModel``.
Traffic is degree-weighted R-MAT, as ``repro.serve.bench.build_workloads``
generates it, at n_users=4096, n_items=2048, d=32, batch_width=16; half
the requests are ALS top-k, half GAT edge scores.

Seeded Poisson arrivals at ``RATE_RPS`` come from this single generator
thread.  Each request is timed from its *due* time to its settlement, so
a generator stall is charged to the requests it delays, and the
generator's lateness is reported.  Only requests due inside the measured
window count; traffic continues for ``COOLDOWN_S`` after it so that
counted requests are settled by live traffic, not by the final drain.  A
request that settles later than ``LIMIT_MS`` after its due time, is not
ok, or is rejected at admission is a failed operation.

This runs inside the traced ``als-powerlaw`` run (:func:`serve_layers`);
serving is not an end-to-end workload of its own, because on a shared
2-core host its latencies move with the host's steal time.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

import repro
from repro.apps.als import AlsServeModel
from repro.errors import ServeOverload
from repro.serve import AlsTopKRequest, GatEdgeScoreRequest
from repro.serve.bench import build_workloads
from repro.sparse.coo import CooMatrix

import probes
from core import Result, Spans, median
from references import als_topk, gat_edge_scores

N_USERS, N_ITEMS, D, BATCH_WIDTH, P, K = 4096, 2048, 32, 16, 4, 10
#: size of build_workloads' degree-weighted user and node samples, which
#: the traffic draws from
POOL_REQUESTS = 2048
#: the offered rate sits well below the knee: with 50/50 tenants at 1000
#: rps the single dispatcher saturates and the backlog grows for the whole
#: run, and near the knee run-to-run spread doubles
RATE_RPS = 300.0
TENANT_B_SHARE = 0.2  # of ALS requests; the rest go to tenant "a"
LIMIT_MS = 250.0
WINDOW_MS = 2.0
MAX_QUEUE = 8192
WARMUP_S, COOLDOWN_S = 0.5, 0.3  # cool-down >= LIMIT_MS
CHECK_SAMPLES = 64
OPEN_S = 3.0
TOL = 1e-9


class Traffic:
    """Seeded request generator: half ALS (two tenants), half GAT."""

    def __init__(self, seed: int, users: np.ndarray, nodes: np.ndarray) -> None:
        self.rng = np.random.default_rng(seed)
        self.users, self.nodes = users, nodes

    def gaps(self, n: int) -> np.ndarray:
        return self.rng.exponential(1.0 / RATE_RPS, size=n)

    def request(self):
        if self.rng.random() < 0.5:
            tenant = "b" if self.rng.random() < TENANT_B_SHARE else "a"
            user = int(self.users[self.rng.integers(len(self.users))])
            return AlsTopKRequest(model_id="als", tenant_id=tenant, user=user, k=K)
        node = int(self.nodes[self.rng.integers(len(self.nodes))])
        return GatEdgeScoreRequest(model_id="gat", node=node)


def _models(seed: int):
    built = build_workloads(
        n_users=N_USERS, n_items=N_ITEMS, d=D, p=P, batch_width=BATCH_WIDTH,
        n_requests=POOL_REQUESTS, seed=seed,
    )
    als0, als_reqs = built["als"]
    gat, gat_reqs = built["gat"]
    rng = np.random.default_rng(seed + 3)
    tenants = {
        "a": als0.item_factors,
        "b": rng.standard_normal(als0.item_factors.shape),
    }
    als = AlsServeModel(
        als0.user_factors, als0.item_factors, seen=als0.seen, p=P,
        batch_width=BATCH_WIDTH, tenants=tenants, kernels="numpy",
    )
    users = np.array([r.user for r in als_reqs])
    nodes = np.array([r.node for r in gat_reqs])
    return als, gat, tenants, users, nodes


def _open_loop(srv, traffic: Traffic, measure_s: float, spans: Spans):
    """Warm-up, measured window and cool-down of Poisson arrivals.

    Returns ``(measured, lateness_s, rejected)`` where ``measured`` holds
    ``(due, submitted, future)`` per counted request."""
    total_s = WARMUP_S + measure_s + COOLDOWN_S
    gaps = traffic.gaps(int(total_s * RATE_RPS * 1.5) + 16)
    measured: List[Tuple[float, float, object]] = []
    late: List[float] = []
    rejected = 0
    t0 = time.perf_counter()
    lo, hi = t0 + WARMUP_S, t0 + WARMUP_S + measure_s
    due = t0
    with spans.span("serve.open_loop", "serve"):
        for gap in gaps:
            due += gap
            if due >= t0 + total_s:
                break
            req = traffic.request()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t_sub = time.perf_counter()
            counted = lo <= due < hi
            try:
                fut = srv.submit(req)
            except ServeOverload:
                rejected += counted
                continue
            if counted:
                measured.append((due, t_sub, fut))
                late.append(t_sub - due)
        srv.drain()
    return measured, late, rejected


def _check_samples(res: Result, comps, models) -> None:
    als, gat, tenants = models
    als_c = [c for c in comps if c.ok and c.request.model_id == "als"]
    gat_c = [c for c in comps if c.ok and c.request.model_id == "gat"]
    worst_als = worst_gat = 0.0
    items_ok = True
    for comp in als_c[:CHECK_SAMPLES]:
        req = comp.request
        items, vals = comp.value
        ref_items, ref_vals = als_topk(
            als.user_factors, tenants[req.tenant_id], als.seen, req.user, req.k
        )
        worst_als = max(worst_als, float(np.max(np.abs(vals - ref_vals))))
        items_ok &= set(items.tolist()) == set(ref_items.tolist())
    for comp in gat_c[:CHECK_SAMPLES]:
        cols, scores = comp.value
        ref_cols, ref_scores = gat_edge_scores(
            gat.adjacency, gat.H, gat.head.a_left, gat.head.a_right,
            gat.negative_slope, comp.request.node,
        )
        same = np.array_equal(cols, ref_cols)
        items_ok &= same
        if same and len(cols):
            worst_gat = max(worst_gat, float(np.max(np.abs(scores - ref_scores))))
    n_als, n_gat = min(len(als_c), CHECK_SAMPLES), min(len(gat_c), CHECK_SAMPLES)
    res.check(
        "sampled ALS top-k vs dense reference",
        n_als > 0 and items_ok and worst_als <= TOL,
        f"{n_als} samples, max |score diff| {worst_als:.3g}",
    )
    res.check(
        "sampled GAT edge scores vs dense reference",
        n_gat > 0 and items_ok and worst_gat <= TOL,
        f"{n_gat} samples, max |score diff| {worst_gat:.3g}",
    )


def _start(als, gat, spans: Spans):
    """``Server(...)`` -> first ALS and GAT results; returns the running
    server and the two completions."""
    with spans.span("serve.setup", "serve"):
        srv = repro.Server([als, gat], window_ms=WINDOW_MS, max_queue=MAX_QUEUE)
        futs = [
            srv.submit(AlsTopKRequest(model_id="als", tenant_id="a", user=0, k=K)),
            srv.submit(GatEdgeScoreRequest(model_id="gat", node=0)),
        ]
        srv.drain()
        comps = [f.result(timeout=60) for f in futs]
    return srv, comps


def _request_ms(measured) -> Tuple[List[float], list]:
    ms, comps = [], []
    for due, t_sub, fut in measured:
        comp = fut.result(timeout=0)
        comps.append(comp)
        ms.append((t_sub - due) * 1e3 + comp.latency_ms)
    return ms, comps


def _dense_coo(F: np.ndarray) -> CooMatrix:
    n, d = F.shape
    return CooMatrix(
        np.repeat(np.arange(n), d), np.tile(np.arange(d), n), F.ravel(),
        (n, d), dedupe=False,
    )


def serve_layers(seed: int, spans: Spans, res: Result) -> Dict[str, float]:
    """The serve layer's per-layer numbers: one server under a short open
    loop (its completion records), and the serving kernels on one rank's
    block of each model.  Requests and checks are added to ``res``."""
    als, gat, tenants, users, nodes = _models(seed)
    traffic = Traffic(seed + 4, users, nodes)
    rng = np.random.default_rng(0)
    srv, comps0 = _start(als, gat, spans)
    res.check("set-up requests settle ok", all(c.ok for c in comps0),
              ", ".join(c.outcome for c in comps0))
    with srv:
        measured, late, rejected = _open_loop(srv, traffic, OPEN_S, spans)
    ms, comps = _request_ms(measured)
    res.attempted += len(measured) + rejected
    res.failed += rejected + sum(
        1 for c, x in zip(comps, ms) if not c.ok or x > LIMIT_MS
    )
    _check_samples(res, comps, (als, gat, tenants))
    layers = {
        "serve.queue_ms_p50": median([c.queue_ms for c in comps]),
        "serve.service_ms_p50": median([c.service_ms for c in comps]),
        "serve.batch_size_mean": float(np.mean([c.batch_size for c in comps])),
        "serve.generator_late_ms_max": max(late) * 1e3,
    }
    with spans.span("kernels.serve", "kernels"):
        nl = P  # c=1: one rank's block is (n/p) x (n/p) of each matrix
        gat_blk = probes.cut_block(gat.adjacency, gat.adjacency.nrows // nl,
                                   gat.adjacency.ncols // nl)
        als_blk = probes.cut_block(_dense_coo(als.item_factors),
                                   N_ITEMS // nl, D // nl)
        layers.update(probes.probe_serve_kernels(
            gat_blk, gat.H, gat.head, gat.negative_slope, als_blk,
            BATCH_WIDTH, rng,
        ))
    return layers
