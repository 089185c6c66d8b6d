"""Per-host kernel-backend calibration for ``kernels="auto"``.

The paper's cost model prices local compute at an *assumed* machine flop
rate (``MachineParams.gamma``).  With more than one kernel backend that
assumption breaks twice over: the backends differ from each other, and
both differ from the modeled machine.  This module measures what each
available backend actually sustains on *this* host — a short fixed-seed
SDDMM + SpMM microbenchmark per backend — and caches the result per
host, so ``kernels="auto"``:

* picks the backend with the lowest measured seconds-per-FLOP, and
* hands that measured rate to the model as ``compute_gamma``, so
  ``choose_comm_mode`` / ``overlap_gain_seconds`` cost the compute term
  at the rate the chosen kernels really run, not the assumed one.

The cache is a JSON file keyed by a host fingerprint (hostname, CPU
architecture, core count, numpy/numba versions, kernel revision).  Default location:
``~/.cache/repro/kernel_calibration.json``; override with the
``REPRO_KERNEL_CALIBRATION`` environment variable (point it at a
per-job path on shared filesystems).  A stale or unwritable cache is
never fatal — calibration re-measures in memory and continues.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.kernels.registry import available_kernel_backends, get_kernel_backend
from repro.runtime.profile import RankProfile

#: environment variable overriding the cache file location
CALIBRATION_ENV = "REPRO_KERNEL_CALIBRATION"

#: microbenchmark shape: n x n sparse with ~AVG_DEG nnz/row, width r.
#: Small enough to calibrate in tens of milliseconds per backend, large
#: enough that per-call overhead does not dominate the measured rate.
_N = 2048
_AVG_DEG = 16
_R = 64
_REPEATS = 3

#: revision of the measured kernels' formulations, part of the host
#: fingerprint: bump it whenever a change makes a kernel faster or slower
#: so caches measured against the old code are re-measured (2: per-call
#: CSR ``spmm_scatter`` and byte-budgeted SDDMM chunks; 3: conversion-free
#: ``spmm_scatter`` on (row, col)-ordered chunks and ``sddmm_coo``
#: gathering into per-call buffers)
_KERNEL_REVISION = 3

#: in-memory memo: calibration runs at most once per process per cache
_MEMO: Dict[str, dict] = {}


def calibration_path() -> Path:
    """The cache file this host's calibration persists to."""
    override = os.environ.get(CALIBRATION_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "kernel_calibration.json"


def host_key() -> str:
    """Fingerprint of everything the measured rates depend on."""
    try:
        import numba

        numba_ver = numba.__version__
    except ImportError:
        numba_ver = "none"
    return "|".join(
        (
            platform.node(),
            platform.machine(),
            str(os.cpu_count()),
            f"numpy-{np.__version__}",
            f"numba-{numba_ver}",
            f"kernels-{_KERNEL_REVISION}",
        )
    )


def _workload():
    """Fixed-seed synthetic operands shared by every backend's probe."""
    rng = np.random.default_rng(0)
    nnz = _N * _AVG_DEG
    rows = np.sort(rng.integers(0, _N, size=nnz)).astype(np.int64)
    cols = rng.integers(0, _N, size=nnz).astype(np.int64)
    vals = rng.standard_normal(nnz)
    A = rng.standard_normal((_N, _R))
    B = rng.standard_normal((_N, _R))
    return rows, cols, vals, A, B


def _measure_backend(name: str) -> dict:
    """Best-of-N seconds-per-FLOP of one backend on the probe workload."""
    from repro.kernels.sddmm import sddmm_coo
    from repro.kernels.spmm import spmm_scatter

    backend = get_kernel_backend(name)
    if backend is not None:
        backend.warmup()
    profile = RankProfile()
    profile.kernels = backend
    rows, cols, vals, A, B = _workload()
    nnz = len(rows)
    flops_each = 2.0 * nnz * _R
    out_spmm = np.zeros((_N, _R))

    def probe(fn) -> float:
        best = float("inf")
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_sddmm = probe(lambda: sddmm_coo(A, B, rows, cols, profile=profile))
    t_spmm = probe(lambda: spmm_scatter(rows, cols, vals, B, out_spmm, profile=profile))
    gamma = (t_sddmm + t_spmm) / (2.0 * flops_each)
    return {
        "gamma": gamma,
        "gflops": 1e-9 / gamma if gamma > 0 else 0.0,
        "sddmm_ms": t_sddmm * 1e3,
        "spmm_ms": t_spmm * 1e3,
    }


def calibrate(force: bool = False) -> dict:
    """Measured per-backend rates for this host, cached per host.

    Returns ``{"host": <fingerprint>, "backends": {name: {"gamma": s/flop,
    "gflops": ..., "sddmm_ms": ..., "spmm_ms": ...}}}``.  The result is
    memoized in-process and persisted to :func:`calibration_path`; a
    cached file is reused only when its host fingerprint matches and it
    covers every currently-available backend (installing numba after a
    numpy-only calibration triggers a re-measure).
    """
    path = calibration_path()
    memo_key = str(path)
    if not force and memo_key in _MEMO:
        return _MEMO[memo_key]
    key = host_key()
    backends = available_kernel_backends()
    if not force and path.is_file():
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            doc = None
        if (
            doc is not None
            and doc.get("host") == key
            and all(b in doc.get("backends", {}) for b in backends)
        ):
            _MEMO[memo_key] = doc
            return doc
    doc = {"host": key, "backends": {b: _measure_backend(b) for b in backends}}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n")
    except OSError:
        pass  # read-only home: keep the in-memory result
    _MEMO[memo_key] = doc
    return doc


def choose_kernel_backend(force: bool = False) -> Tuple[str, Optional[float]]:
    """The ``kernels="auto"`` policy: fastest measured available backend.

    Returns ``(name, gamma)`` where ``gamma`` is the backend's measured
    seconds-per-FLOP — the value sessions thread into the cost model as
    ``compute_gamma``.
    """
    doc = calibrate(force=force)
    name, entry = min(doc["backends"].items(), key=lambda kv: kv[1]["gamma"])
    return name, entry["gamma"]
