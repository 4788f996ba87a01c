"""In-process micro-batching predictor server, hardened for chaos.

Clients — any number of threads — submit plans for any registered database
and get a :class:`PredictionRequest` handle back immediately.  A single
*supervised* batcher thread coalesces queued requests into micro-batches on
a deadline/size trigger (whichever fires first), routes every request to a
compatible model deployment by database fingerprint, featurizes each batch
through the shared vectorized pipeline and predicts through
``predict_runtimes`` — i.e. the PR-1 graph-free ``forward_inference`` fast
path.  The design follows what learned-cost-model serving needs in systems
like BRAD: multi-model routing, bounded latency, bounded memory — and,
since the fleet is only as deployable as its worst failure mode, explicit
handling for everything the fault plane (:mod:`repro.robustness.faults`)
can throw.

The request/route/cache/hardening logic lives in the transport-agnostic
:class:`~repro.serving.core.ServingCore`, and the ingress (plan digest,
trace context) plus the client helpers in
:class:`~repro.serving.core.RequestFrontend`; this module owns only the
thread transport around them (bounded queue, deadline/size trigger,
supervised batcher thread).  :mod:`repro.serving.fleet` drives the same
core from forked worker processes.

Guarantees:

* **Bit-identical predictions** — for any request mix, the value a ``DONE``
  request receives equals a direct ``predict_runtimes`` call on the same
  model for that plan, bit for bit, regardless of which other requests
  shared its micro-batch — and regardless of retries, bisections, batcher
  restarts or hot-swaps along the way.  This rests on the row-stable
  inference kernels (:func:`repro.nn.row_stable_matmul`): per-plan outputs
  are a pure function of the plan, so micro-batch composition — and
  therefore scheduling nondeterminism — cannot leak into results, and
  cached values stay exact under every later composition.
* **One bad plan fails alone** — a model-path failure (featurization or
  inference) is retried with exponential backoff (``max_retries`` /
  ``retry_backoff_ms``); a group that keeps failing is *bisected* until
  the poisoned request is isolated, so its micro-batch neighbours complete
  normally.  ``request_timeout_ms`` bounds how long any request may be
  retried before it fails with a typed :class:`DeadlineExceededError`.
* **The batcher survives crashes** — the batcher thread runs under
  supervision: an unexpected crash of the loop machinery is detected, the
  in-flight micro-batch is re-enqueued **exactly once** (unfinished
  requests return to the queue head in order; finished ones are never
  duplicated) and a replacement thread takes over.  No request is lost, no
  request is answered twice.
* **Graceful degradation, never silent** — a per-deployment circuit
  breaker counts consecutive model-path failures; past
  ``breaker_threshold`` it opens and requests are answered by the
  analytical :class:`~repro.optimizer.AnalyticalCostModel` baseline,
  explicitly flagged ``DEGRADED`` (degraded values never enter the result
  cache, and blocking :meth:`predict` refuses them unless the caller opts
  in).  After ``breaker_reset_ms`` the breaker half-opens and probes the
  model path; a success closes it.
* **Repeat plans are cache hits** — a bounded result cache keyed on
  ``(checkpoint, plan fingerprint)`` (the PR-2 content fingerprints, so
  equal-but-distinct plan objects hit) answers repeats without touching
  the queue.  Keys include the serving checkpoint, so a hot-swap can never
  serve a stale model's value.
* **Zero-downtime hot-swap** — the batcher compares the registry's
  generation counter before each batch (one int read) and re-resolves its
  routes only when the registry changed; in-flight batches finish on the
  model they started with.  A deployment whose checkpoint fails hydration
  is quarantined by the registry and the route re-resolves to the previous
  good version (see :mod:`repro.serving.registry`).
* **Bounded queue, explicit shedding** — when the queue is full, a
  non-blocking submit returns a request in ``SHED`` state instead of
  queueing unboundedly (``block=True`` opts into backpressure instead).
* **Clean shutdown** — :meth:`stop` drains the queue (every pending handle
  resolves) or, with ``drain=False``, fails queued requests with a typed
  :class:`ServerClosedError`.  Handles never hang.

Observability: ``serve.batch.*`` / ``serve.cache.*`` / ``serve.shed.*`` /
``serve.swap.*`` counters as before, plus ``serve.fault.*`` (model-path
failures, bisections, batcher crashes, re-enqueues, deadline expiries),
``serve.retry.*`` (backoff retries) and ``serve.degraded.*`` (degraded
responses, breaker opens/half-opens/closes), and
:meth:`PredictorServer.stats` (batch-size histogram, queue high-water mark,
per-status request counts, breaker states).
"""

from __future__ import annotations

import threading
import time
from collections import deque

from .. import perfstats
from ..robustness import faults
from .core import (DeadlineExceededError, DegradedResponseError,
                   PredictionRequest, RequestFrontend, RequestPriority,
                   RequestShedError, RequestStatus, ServerClosedError,
                   ServerConfig, ServingCore, ServingRecord)
from .registry import RoutingError

__all__ = ["PredictorServer", "ServerConfig", "PredictionRequest",
           "RequestStatus", "RequestPriority", "RequestShedError",
           "RoutingError", "DeadlineExceededError", "DegradedResponseError",
           "ServerClosedError", "ServingRecord"]


class PredictorServer(RequestFrontend):
    """Thread-based online prediction service over a model registry.

    ``dbs`` maps database names to :class:`~repro.storage.Database` objects
    the server accepts requests for.  Use as a context manager (starts and
    stops the batcher thread)::

        with PredictorServer(registry, {"imdb": db}) as server:
            request = server.submit(plan, "imdb")
            runtime_ms = request.result()
    """

    def __init__(self, registry, dbs, config=None, estimator_cache=None,
                 core=None):
        self.core = core or ServingCore(registry, dbs, config=config,
                                        estimator_cache=estimator_cache)
        super().__init__(self.core.dbs, self.core.config)
        self.registry = self.core.registry
        # The transport lock guards the queue, the in-flight batch and the
        # high-water mark; all serving state lives behind the core's lock.
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._queue = deque()
        self._inflight = []
        self._running = False
        self._accepting = True  # False only after stop(); start() restores
        self._thread = None
        self._queue_high_water = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._running = True
        self._accepting = True
        self._thread = threading.Thread(target=self._batcher_main,
                                        name="repro-predictor", daemon=True)
        self._thread.start()
        return self

    def stop(self, drain=True):
        """Stop the batcher; every pending handle resolves, none hangs.

        ``drain=True`` (default): requests already queued are processed
        before the batcher exits.  ``drain=False``: queued requests fail
        immediately with a typed :class:`ServerClosedError` instead of
        being processed.  Submissions from this point on (including blocked
        backpressure waiters) are shed.  :meth:`start` re-opens admission.
        """
        with self._lock:
            if self._thread is None:
                return
            self._running = False
            self._accepting = False
            if not drain:
                error = ServerClosedError(
                    "server stopped without draining")
                dropped = list(self._queue)
                self._queue.clear()
            else:
                dropped = []
            self._not_empty.notify_all()
            self._not_full.notify_all()
        if dropped:
            self.core.count("failed", len(dropped))
        for request in dropped:
            request._finish(RequestStatus.FAILED, error=error)
        # The batcher may crash and be replaced while we wait: join
        # whatever thread is current until it is both dead and current.
        while True:
            with self._lock:
                thread = self._thread
            if thread is None:
                return
            thread.join(timeout=5.0)
            with self._lock:
                if self._thread is thread and not thread.is_alive():
                    self._thread = None
                    return

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, plan, db_name, block=False, timeout=None,
               priority=RequestPriority.NORMAL, deadline_ms=None):
        """Submit one plan; returns a :class:`PredictionRequest` handle.

        Repeat plans (by content fingerprint, under the currently routed
        checkpoint) complete immediately from the result cache.  When the
        bounded queue is full, ``block=False`` sheds the request
        (``status == SHED``); ``block=True`` waits for space
        (backpressure), shedding only once ``timeout`` (a total bound, not
        per-wakeup) elapses.  Admission is priority-classed: each
        :class:`RequestPriority` sheds at its own queue bound (see
        :func:`~repro.serving.core.admission_limit`; with the default
        config NORMAL and HIGH share the full queue).  Unlike the fleet
        router, the thread server sheds over-limit LOW traffic rather
        than browning it out.  ``deadline_ms`` sets this request's age
        cap, overriding ``request_timeout_ms``.  Submissions after
        :meth:`stop` are shed (nothing would ever process them);
        submissions *before* :meth:`start` queue up normally.
        """
        core = self.core
        core.maybe_swap()
        request = self._ingress(plan, db_name, priority, deadline_ms)
        core.count("requests")
        route = core.route_for(db_name)
        if route is None:
            core.count("failed")
            request._finish(RequestStatus.FAILED, error=RoutingError(
                f"no deployment serves {db_name!r} and the registry "
                "has no default model"))
            return request
        if core.answer_cached(route, request, stage_proc="server"):
            return request
        with self._lock:
            admitted = self._has_room(request, lambda: len(self._queue),
                                      block, timeout)
            if admitted:
                self._queue.append(request)
                self._queue_high_water = max(self._queue_high_water,
                                             len(self._queue))
                self._not_empty.notify()
        if not admitted:
            core.count("shed")
            self._shed(request)
        return request

    def refresh(self):
        """Force re-resolution of routes from the registry (e.g. after a
        cross-process registry change plus ``registry.refresh()``)."""
        self.core.resolve_routes()

    # ------------------------------------------------------------------
    # Batcher (supervised)
    # ------------------------------------------------------------------
    def _batcher_main(self):
        """Supervision wrapper: detect a crash of the serve loop, re-enqueue
        the in-flight micro-batch exactly once, and hand over to a
        replacement thread."""
        try:
            self._serve_loop()
        except Exception:  # noqa: BLE001 — crash path must survive anything
            perfstats.increment("serve.fault.batcher_crash")
            self.core.count("batcher_crashes")
            with self._lock:
                # Exactly-once re-enqueue: unfinished in-flight requests go
                # back to the queue head in their original order; finished
                # ones are never duplicated.
                pending = [r for r in self._inflight if not r.done()]
                self._inflight = []
                for request in reversed(pending):
                    if request.trace is not None:
                        request.trace.annotate("requeued")
                    self._queue.appendleft(request)
                perfstats.increment("serve.fault.requeued", len(pending))
                replacement = threading.Thread(target=self._batcher_main,
                                               name="repro-predictor",
                                               daemon=True)
                self._thread = replacement
                self._not_empty.notify_all()
            self.core.count("requeued", len(pending))
            # Started outside the lock; stop() joins whichever thread is
            # current, so the handover is always observed.
            replacement.start()

    def _serve_loop(self):
        max_delay_s = self.config.max_delay_ms / 1e3
        while True:
            with self._lock:
                while not self._queue and self._running:
                    self._not_empty.wait()
                if not self._queue:
                    break  # stopped and drained
                # Deadline/size trigger: dispatch when the oldest request
                # has waited max_delay_ms or max_batch_size are queued.
                deadline = self._queue[0].submitted_at + max_delay_s
                while (self._running
                       and len(self._queue) < self.config.max_batch_size):
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._not_empty.wait(remaining)
                count = min(len(self._queue), self.config.max_batch_size)
                batch = [self._queue.popleft() for _ in range(count)]
                self._inflight = batch
                self._not_full.notify_all()
            if self._tracer is not None:
                dispatched = time.perf_counter()
                for request in batch:
                    if request.trace is not None:
                        request.trace.add_stage("queue", request.submitted_at,
                                                dispatched, "server")
            # The batcher-loop injection point: a raise here unwinds into
            # _batcher_main's crash handler with the batch still in-flight
            # — exactly the torn state the supervisor must recover.
            faults.check("serve.batcher")
            try:
                self.core.process_batch(batch)
            except Exception as exc:  # noqa: BLE001 — the loop must survive
                # A surprise error outside the hardened group path fails
                # this batch's requests instead of killing the batcher and
                # stranding every future request.
                unfinished = [request for request in batch
                              if not request.done()]
                self.core.count("failed", len(unfinished))
                for request in unfinished:
                    request._finish(RequestStatus.FAILED, error=exc)
            finally:
                with self._lock:
                    self._inflight = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self):
        """Request/batch/cache/swap/fault counters, batch-size histogram,
        and per-deployment breaker states."""
        stats = self.core.stats()
        with self._lock:
            queue_high_water = self._queue_high_water
        # Keep the key order stable: queue_high_water sits between
        # mean_batch_size and result_cache_entries, as it always has.
        breakers = stats.pop("breakers")
        cache_entries = stats.pop("result_cache_entries")
        stats["queue_high_water"] = queue_high_water
        stats["result_cache_entries"] = cache_entries
        stats["breakers"] = breakers
        return stats

    def __repr__(self):
        return (f"PredictorServer(dbs={sorted(self.core.dbs)}, "
                f"max_batch={self.config.max_batch_size}, "
                f"running={self._thread is not None})")
