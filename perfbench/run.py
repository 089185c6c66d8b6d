"""End-to-end benchmark of the repro system.

Run from the repository root::

    python3 perfbench/run.py --workload fusedmm-uniform --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (all p=4 rank threads, ``kernels="numpy"``, ``overlap`` left at
its default ``"auto"``, one load-generating thread, inputs made from
``--seed``):

* ``fusedmm-uniform`` — closed loop of ``Session.fusedmm_a`` calls on a
  uniform matrix (kernel-bound, large panels, no sparse comm);
* ``als-powerlaw`` — whole ``DistributedALS`` training jobs on a permuted
  R-MAT matrix (need-list comm, sparse-shift kernels, rank-side CG).

Serving has no workload of its own: on a shared 2-vCPU host its numbers
move with the host's steal time (p50 and served rps changed by ~2x within
minutes), so it cannot gate.  Its serve layer is measured by a probe
(``serve_probe.py``) inside the traced ``als-powerlaw`` run.

Metric names, units and directions are read from ``BENCHMARK.json`` at
the repository root; ``core.py`` holds what each one means.

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
timings are CPU time of the whole process (all threads): on a shared
2-vCPU host the wall time of the same run moves by up to ~1.6x with
what the host's other tenants do, while CPU time, from which the guest
kernel leaves out the time the host takes the vCPUs away, stays within a
few percent.  The wall-clock figures (call_ms_p50/p90, useful_gflops,
train_s) are printed beside them.
``--trace 1`` is a separate traced run giving the per-layer split
(session ``trace="on"`` timelines, reports, per-call metrics,
completion records, and spans recorded here around each layer's public
functions); its span log and records are written under
``perfbench/out/``.  Both print readable lines first — every metric by
name with its unit, the resolved decisions, exact counts, the
failed-operation share, the correctness checks and the environment — and
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

BLAS/OpenMP pools are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("fusedmm-uniform", "als-powerlaw")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _load_workload(name: str):
    if name == "fusedmm-uniform":
        import wl_fusedmm as mod
    else:
        import wl_als as mod
    return mod


def _metric_table(key: str):
    """``(name, unit)`` of every ``BENCHMARK.json`` metric under ``key``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[key]]


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def _run_one(core, w: str, args):
    """Run one workload, print its readable block; returns the result and
    its metrics record."""
    trace_id = f"{w}-seed{args.seed}-trace{args.trace}"
    spans = core.Spans(trace_id)
    t0 = time.perf_counter()
    res = _load_workload(w).run(args.seed, args.seconds, bool(args.trace), spans)
    wall = time.perf_counter() - t0

    print(f"== {w}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}  wall={wall:.1f}s")
    print(f"environment: {json.dumps(core.environment_record())}")
    print(f"decisions: {json.dumps(res.decisions)}")
    if res.counts:
        print(f"counts: {json.dumps(res.counts)}")
    for name, (value, unit) in res.named.items():
        print(f"  {name} = {_fmt(value)} {unit}")
    for name, ok, detail in res.checks:
        print(f"  check [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    share = res.failed / max(res.attempted, 1)
    print(f"  failed operations: {res.failed}/{res.attempted} ({share:.2%})")

    metrics = {}
    if args.trace:
        for name, unit in _metric_table("per_layer"):
            value = float(res.layers.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print(f"  layer {name} = {_fmt(value)} {unit}   "
                  f"[{w}; moves {core.LAYER_MOVES[name]}]")
        core.write_json(
            os.path.join(HERE, "out", f"{trace_id}.json"),
            {"spans": spans.to_dict(), "layers": res.layers,
             "decisions": res.decisions, "notes": res.notes},
        )
    else:
        for name, unit in _metric_table("end_to_end"):
            value = float(res.e2e[name])
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} = {_fmt(value)} {unit}   "
                  f"[{core.E2E_MEANING[w][name]}]")
        print(f"notes: {json.dumps(res.notes, default=str)}")
    return res, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: repro sources not found under {src}", file=sys.stderr)
        return 2
    # pin before numpy (and its BLAS) loads: the rank threads already
    # occupy the cores
    import core

    for var in core.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [(w, *_run_one(core, w, args)) for w in names]
    if len(results) == 1:
        metrics = results[0][2]
    else:  # one record for the whole set, metrics keyed by workload
        metrics = {f"{w}.{k}": v for w, _, m in results for k, v in m.items()}
    print(json.dumps({
        "correct": all(res.correct for _, res, _ in results),
        "attempted": sum(int(res.attempted) for _, res, _ in results),
        "failed": sum(int(res.failed) for _, res, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
