"""Session fleet: resident replicas per model with synchronous dispatch.

One :class:`SessionFleet` owns ``replicas`` resident
:class:`~repro.session.Session`\\ s for a single model.  Batches are
dispatched round-robin; each batch is one synchronous session call
(``spmm_a`` / ``sddmm``) and is settled as soon as that call returns.
The batched-inference win comes from coalescing many requests into one
panel, not from overlapping consecutive calls.  Because every batch goes
through the session's ordinary call path, the session's retry and
graceful-degradation machinery (``retries=``) applies to served batches
exactly as to direct kernel calls, and the call's outcome (``"ok"`` /
``"retried"`` / ``"degraded"``) is what the batch's completions report.

Multi-tenancy rides on ``Session.update_values``: all tenants of a model
share one planned sparse *structure* (comm plans and packed indexes stay
valid); when the dispatched batch's tenant differs from the session's
currently-bound tenant, only the values are rebound in place.

Per-request deadlines propagate onto the pool watchdog: the batch's
session call is armed with the largest remaining member budget
(``Session.set_deadline``), and members whose own budget lapsed by
settle time are completed with outcome ``"timeout"`` — the rest of the
batch settles normally.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.errors import ReproError, SpmdTimeout
from repro.serve.model import ServeModel
from repro.serve.request import Completion, Envelope, batch_deadline_ms
from repro.session import Session

__all__ = ["SessionFleet"]


class SessionFleet:
    """Round-robin fleet of resident sessions for one model."""

    def __init__(
        self,
        model: ServeModel,
        replicas: int = 1,
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> None:
        if replicas < 1:
            raise ReproError("a fleet needs at least one session replica")
        self.model = model
        self.on_complete = on_complete or (lambda completion: None)
        self.sessions: List[Session] = [
            model.make_session() for _ in range(replicas)
        ]
        self._bound_tenant = ["default"] * replicas
        self._rr = 0
        self._closed = False

    def dispatch(self, batch: List[Envelope]) -> None:
        """Run one coalesced batch on the next round-robin session and
        deliver every member's completion through ``on_complete``."""
        if self._closed:
            raise ReproError("fleet is closed")
        if not batch:
            return
        idx = self._rr
        self._rr = (self._rr + 1) % len(self.sessions)
        sess = self.sessions[idx]
        requests = [env.request for env in batch]
        now = time.perf_counter()
        for env in batch:
            env.t_dispatch = now
        error: Optional[BaseException] = None
        results: List = []
        try:
            tenant = requests[0].tenant_id
            if tenant != self._bound_tenant[idx]:
                vals = self.model.tenant_values(tenant)
                if vals is not None:
                    sess.update_values(vals)
                self._bound_tenant[idx] = tenant
            sess.set_deadline(batch_deadline_ms(batch, now))
            raw, _report = self.model.dispatch(sess, self.model.encode(requests))
            results = self.model.decode(raw, requests)
        except Exception as exc:  # noqa: BLE001 - classified below
            error = exc
        now = time.perf_counter()
        retries = 0
        if error is not None:
            batch_outcome = "timeout" if isinstance(error, SpmdTimeout) else "failed"
        else:
            # the session's own record of this call carries its
            # retry/degradation outcome
            last = sess._metrics[-1]
            batch_outcome = last["outcome"]
            retries = int(last["retries"])
        for i, env in enumerate(batch):
            if error is None and env.expired(now):
                outcome = "timeout"
                value = None
                err_msg: Optional[str] = (
                    f"request deadline of {env.request.deadline_ms}ms "
                    "lapsed before settlement"
                )
            else:
                outcome = batch_outcome
                value = results[i] if error is None else None
                err_msg = repr(error) if error is not None else None
            completion = Completion(
                request=env.request,
                outcome=outcome,
                value=value,
                error=err_msg,
                queue_ms=(env.t_dispatch - env.t_submit) * 1e3,
                service_ms=(now - env.t_dispatch) * 1e3,
                latency_ms=(now - env.t_submit) * 1e3,
                batch_size=len(batch),
                session_index=idx,
                retries=retries,
            )
            env.future._settle(completion)
            self.on_complete(completion)

    def session_metrics(self) -> List[dict]:
        """Per-call metrics records of every replica, tagged with the
        session index."""
        records: List[dict] = []
        for idx, sess in enumerate(self.sessions):
            for rec in sess.metrics():
                records.append({**rec, "session_index": idx})
        return records

    def close(self) -> None:
        """Drain and join every session (thread-leak gated by the
        sessions' counter-asserted pool join)."""
        if self._closed:
            return
        for sess in self.sessions:
            sess.close()
        self._closed = True
