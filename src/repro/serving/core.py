"""Transport-agnostic serving core: the logic every predictor shares.

:class:`ServingCore` is the part of the prediction service that does not
care how requests arrive: request/route/cache state, micro-batch
processing, the hardened model path (retry with backoff, poisoned-batch
bisection, per-request deadlines), the per-deployment circuit breaker with
analytical degradation, and hot-swap route resolution against the registry.

Two transports drive it today:

* :class:`~repro.serving.server.PredictorServer` — the in-process,
  thread-based micro-batcher (bounded queue, supervised batcher thread).
* :mod:`repro.serving.fleet` — forked worker processes whose loop feeds
  pipe-delivered request batches straight into :meth:`ServingCore.
  process_batch`, no thread transport at all.

Both inherit every robustness and equivalence guarantee documented on
:mod:`repro.serving.server`, because those guarantees live *here*: for any
request mix, a ``DONE`` value is bit-identical to a direct
``predict_runtimes`` call on the same model, and every departure from the
model path (degraded, failed, deadline-expired) is typed and flagged.

Both transports also share one ingress, :class:`RequestFrontend`: it checks
the database name, builds the :class:`PredictionRequest`, computes the
16-byte plan digest once (memoized per plan object — the service's only
``id(plan)`` memo) and opens the trace context.  From then on the digest
is a field of the request: the result cache, the fault keys, the
observation tap, the fleet's plan table and the featurization cache all
read ``request.digest`` and never re-hash the plan.

Thread-safety: one internal lock guards the result cache, the routes and
the counters.  Featurization and inference run outside it.  The
featurization/batch caches, the breakers and the analytical fallbacks are
touched only by the processing thread (the batcher thread in the server;
the worker main loop in the fleet), so they need no locking of their own.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict, deque, namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .. import perfstats
from ..obs.metrics import REGISTRY
from ..obs.trace import Tracer
from ..core.api import EstimatorCache, featurize_records
from ..core.training import predict_runtimes
from ..featurization import (BatchCache, FeaturizationCache, database_digest,
                             plan_fingerprint)
from ..optimizer.cost_model import AnalyticalCostModel
from ..robustness import faults
from .registry import RoutingError

__all__ = ["ServingCore", "RequestFrontend", "ServerConfig",
           "PredictionRequest", "RequestStatus", "RequestPriority",
           "admission_limit", "RequestShedError", "DeadlineExceededError",
           "DegradedResponseError", "ServerClosedError", "ServingRecord",
           "Observation", "ObservationTap"]

# The unit of serving work: featurize_records only reads .db_name and .plan,
# so this lightweight record stands in for an executed TraceRecord.
ServingRecord = namedtuple("ServingRecord", ["db_name", "plan"])

# One delivered model-path prediction, as seen by the observation tap:
# enough to recompute ground truth (db_name + plan), key the result
# (digest) and attribute the prediction to a deployment (served_by is the
# (model name, version) pair).  DEGRADED and FAILED deliveries are never
# observed — the tap watches the learned model, not the fallback.
# ``trace_id`` links the observation back to its request span tree when the
# delivery was traced (None otherwise), so controller decisions downstream
# can name the requests that fed them.
Observation = namedtuple(
    "Observation",
    ["db_name", "plan", "digest", "predicted_ms", "served_by", "trace_id"],
    defaults=(None,))


class ObservationTap:
    """Bounded, lock-protected queue feeding deliveries to a controller.

    The serving side calls :meth:`record` for every DONE/CACHED delivery;
    when the queue is full the *incoming* observation is dropped (counted,
    never blocking the batcher).  The consuming side reads with
    :meth:`peek` and acknowledges with :meth:`commit` — a consumer that
    crashes between the two re-reads the same observations on restart, so
    a controller crash loses nothing.
    """

    def __init__(self, max_pending=4096):
        self.max_pending = int(max_pending)
        self._lock = threading.Lock()
        self._items = deque()
        self.recorded = 0
        self.dropped = 0

    def record(self, observation):
        """Enqueue one observation; False (and a counter) when full."""
        with self._lock:
            if len(self._items) >= self.max_pending:
                self.dropped += 1
                perfstats.increment("controller.observe.dropped")
                return False
            self._items.append(observation)
            self.recorded += 1
        return True

    def peek(self, n=None):
        """Up to ``n`` oldest observations, without removing them."""
        with self._lock:
            if n is None:
                n = len(self._items)
            return [self._items[i] for i in range(min(n, len(self._items)))]

    def commit(self, n=1):
        """Acknowledge (remove) the ``n`` oldest observations."""
        with self._lock:
            for _ in range(min(n, len(self._items))):
                self._items.popleft()

    def __len__(self):
        with self._lock:
            return len(self._items)

    def stats(self):
        with self._lock:
            return {"pending": len(self._items), "recorded": self.recorded,
                    "dropped": self.dropped, "max_pending": self.max_pending}


class RequestStatus(Enum):
    PENDING = "pending"
    DONE = "done"        # predicted by a micro-batch
    CACHED = "cached"    # answered from the result cache
    DEGRADED = "degraded"  # answered by the analytical fallback (flagged)
    SHED = "shed"        # rejected by admission control
    FAILED = "failed"    # routing/featurization/prediction/deadline error


class RequestPriority(Enum):
    """Admission-control class for a submitted request.

    Lower values are more important.  Priorities gate *admission*, not
    execution order: a LOW request stops being admitted once the queue is
    ``brownout_fraction`` full (and, under brownout, may be answered by
    the analytical fallback instead of shed), a NORMAL request once the
    ``high_reserve_fraction`` headroom is all that remains, and only HIGH
    traffic may fill the queue to ``queue_depth``.  Already-admitted
    requests are served identically regardless of class — values never
    depend on priority.
    """

    HIGH = 0
    NORMAL = 1
    LOW = 2


def admission_limit(priority, queue_depth, config):
    """The effective queue bound for one priority class.

    HIGH may use the whole queue; NORMAL stops at ``queue_depth`` minus
    the reserved HIGH headroom (``high_reserve_fraction``, default 0 — no
    reservation unless configured); LOW stops at ``brownout_fraction`` of
    the queue.  Every class is always allowed at least one slot so tiny
    queues keep admitting.
    """
    if priority is RequestPriority.LOW:
        return max(1, int(queue_depth * config.brownout_fraction))
    if priority is RequestPriority.NORMAL:
        reserve = int(queue_depth * config.high_reserve_fraction)
        return max(1, queue_depth - reserve)
    return queue_depth


class RequestShedError(RuntimeError):
    """The bounded queue was full and the request was shed."""


class DeadlineExceededError(RuntimeError):
    """The request exceeded its per-request deadline before completing."""


class DegradedResponseError(RuntimeError):
    """A blocking ``predict`` received a DEGRADED (analytical-fallback)
    response and the caller did not opt in with ``allow_degraded=True``."""


class ServerClosedError(RuntimeError):
    """The server was stopped without draining; the request was dropped."""


class PredictionRequest:
    """Client-side handle for one submitted plan.

    The same handle class serves the in-process server and the fleet
    router: completion is an event the transport fires exactly once via
    :meth:`_finish`, whether the value was produced in this process or
    crossed a worker pipe.
    """

    __slots__ = ("db_name", "plan", "digest", "status", "value", "error",
                 "served_by", "submitted_at", "completed_at", "retries",
                 "priority", "deadline_ms", "trace", "_event")

    def __init__(self, db_name, plan, priority=RequestPriority.NORMAL,
                 deadline_ms=None, digest=None):
        self.db_name = db_name
        self.plan = plan
        # 16-byte plan content digest, computed once at ingress; keys the
        # result cache, the fleet's plan table and the featurization cache.
        self.digest = digest
        self.priority = RequestPriority(priority)
        self.deadline_ms = deadline_ms  # per-request age cap (ms), or None
        self.status = RequestStatus.PENDING
        self.value = None
        self.error = None
        self.served_by = None  # (model name, version) that produced value
        self.submitted_at = time.perf_counter()
        self.completed_at = None
        self.retries = 0
        self.trace = None  # opt-in obs.trace.TraceContext; None = untraced
        self._event = threading.Event()

    # -- completion (server side) --------------------------------------
    def _finish(self, status, value=None, error=None, served_by=None):
        self.value = value
        self.error = error
        self.served_by = served_by
        self.completed_at = time.perf_counter()
        self.status = status
        trace = self.trace
        if trace is not None and trace._tracer is not None:
            # Finalize only where a tracer is attached (the client-facing
            # transport); worker-side contexts just export their stages.
            trace.finalize(self.completed_at, status=status.value)
        self._event.set()

    # -- client side ----------------------------------------------------
    def done(self):
        return self._event.is_set()

    @property
    def degraded(self):
        """True when the value came from the analytical fallback."""
        return self.status is RequestStatus.DEGRADED

    def wait(self, timeout=None):
        return self._event.wait(timeout)

    def result(self, timeout=None):
        """The predicted runtime (ms); raises for shed/failed requests.

        A ``DEGRADED`` request returns its analytical-fallback value — the
        :attr:`status` / :attr:`degraded` flag is the explicit marker that
        the value did not come from the learned model.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("prediction still pending")
        if self.status is RequestStatus.SHED:
            raise RequestShedError(
                f"request for {self.db_name!r} was shed (queue full)")
        if self.status is RequestStatus.FAILED:
            raise self.error
        return self.value

    @property
    def latency_ms(self):
        if self.completed_at is None:
            return None
        return (self.completed_at - self.submitted_at) * 1e3

    def __repr__(self):
        return (f"PredictionRequest({self.db_name!r}, "
                f"status={self.status.value})")


@dataclass(frozen=True)
class ServerConfig:
    """Micro-batching, admission-control, routing and robustness knobs."""

    max_batch_size: int = 64     # size trigger: dispatch when this many queue
    max_delay_ms: float = 2.0    # deadline trigger: oldest request's max wait
    queue_depth: int = 1024      # admission control: shed beyond this
    result_cache_size: int = 4096  # 0 disables the result cache
    predict_batch_size: int = 256  # inference chunking inside one batch
    cards: str = "exact"         # cardinality source for featurization
    model_name: str | None = None  # pin every database to one model name
    # -- robustness ----------------------------------------------------
    request_timeout_ms: float | None = None  # per-request deadline (age cap)
    max_retries: int = 2         # extra model-path attempts per group
    retry_backoff_ms: float = 1.0  # backoff base; doubles per retry
    breaker_threshold: int = 3   # consecutive failures that open the breaker
    breaker_reset_ms: float = 50.0  # open -> half-open probe delay
    degraded_fallback: bool = True  # serve analytical predictions when open
    # -- priority-aware overload control --------------------------------
    high_reserve_fraction: float = 0.0  # queue headroom reserved for HIGH
    brownout_fraction: float = 0.5      # LOW admission cap (x queue_depth)
    brownout_degraded: bool = True      # LOW over the cap: analytical answer
    #    (honored by the fleet router; the thread server sheds LOW instead)
    # -- observability ---------------------------------------------------
    trace: bool = False          # per-request spans (obs.trace); off = free
    trace_sample_every: int = 1  # trace every N-th request when tracing


class _Route:
    """A database's resolved deployment with the loaded model."""

    __slots__ = ("deployment", "model")

    def __init__(self, deployment, model):
        self.deployment = deployment
        self.model = model

    @property
    def checkpoint_key(self):
        return self.deployment.checkpoint_key

    @property
    def served_by(self):
        return (self.deployment.name, self.deployment.version)


class _Breaker:
    """Per-deployment circuit breaker (processing-thread state only)."""

    __slots__ = ("state", "failures", "opened_at")

    def __init__(self):
        self.state = "closed"     # closed | open | half-open
        self.failures = 0
        self.opened_at = 0.0

    def allows_model_path(self, reset_s):
        """Closed: yes.  Open: only once the reset delay elapsed, as a
        half-open probe.  (Called only by the processing thread.)"""
        if self.state == "closed":
            return True
        if time.monotonic() - self.opened_at >= reset_s:
            if self.state != "half-open":
                self.state = "half-open"
                perfstats.increment("serve.degraded.half_open")
            return True
        return False

    def record_success(self):
        if self.state != "closed":
            perfstats.increment("serve.degraded.close")
        self.state = "closed"
        self.failures = 0

    def record_failure(self, threshold):
        self.failures += 1
        if self.state == "half-open" or self.failures >= threshold:
            if self.state != "open":
                perfstats.increment("serve.degraded.open")
            self.state = "open"
            self.opened_at = time.monotonic()


class ServingCore:
    """Routing, caching and hardened batch prediction, minus the transport.

    ``mmap=True`` hydrates checkpoints through the registry's
    memory-mapped path (:meth:`~repro.serving.registry.ModelRegistry.
    load_mmap`): parameter arrays are read-only views of the
    content-addressed on-disk checkpoint, so forked workers over one
    registry share a single page-cache copy instead of deserializing per
    process.
    """

    def __init__(self, registry, dbs, config=None, estimator_cache=None,
                 mmap=False):
        self.registry = registry
        self.config = config or ServerConfig()
        self.mmap = bool(mmap)
        self._dbs = dict(dbs)
        self._db_digests = {name: database_digest(db).hex()
                            for name, db in self._dbs.items()}
        # One lock guards the result cache, the routes and the counters.
        # Featurization and inference run outside it; the featurization/
        # batch caches, the breakers and the analytical fallbacks are
        # touched only by the processing thread.
        self._lock = threading.Lock()
        self._result_cache = OrderedDict()
        self._feat_cache = FeaturizationCache()
        self._batch_cache = BatchCache(max_entries=64)
        self._estimator_cache = estimator_cache or EstimatorCache()
        self._counts = Counter()
        self._batch_sizes = Counter()
        self._routes = {}
        self._breakers = {}     # checkpoint_key -> _Breaker
        self._analytical = {}   # db_name -> AnalyticalCostModel
        self._seen_generation = None
        self._observer = None   # opt-in ObservationTap (continuous learning)
        self.proc_label = "server"  # span proc tag; fleet workers relabel
        self.resolve_routes()

    # ------------------------------------------------------------------
    # Databases / counters
    # ------------------------------------------------------------------
    @property
    def dbs(self):
        return self._dbs

    def count(self, name, n=1):
        with self._lock:
            self._counts[name] += n

    # ------------------------------------------------------------------
    # Observation tap (continuous learning)
    # ------------------------------------------------------------------
    def attach_observer(self, tap):
        """Opt in to observation: every DONE/CACHED delivery is recorded
        to ``tap`` (an :class:`ObservationTap`).  One observer at a time;
        ``None`` detaches."""
        self._observer = tap
        return tap

    @property
    def observer(self):
        return self._observer

    def _observe(self, request, value, route):
        """Feed one model-path delivery to the attached tap (if any)."""
        observer = self._observer
        if observer is None:
            return
        trace = request.trace
        observer.record(Observation(
            request.db_name, request.plan, request.digest, float(value),
            route.served_by, trace.trace_id if trace is not None else None))

    # ------------------------------------------------------------------
    # Routing / hot-swap
    # ------------------------------------------------------------------
    def maybe_swap(self):
        if self.registry.generation != self._seen_generation:
            self.resolve_routes()

    def resolve_routes(self):
        """Re-resolve every database's deployment from the registry.

        Runs between batches (or at submit time); in-flight work keeps the
        route object it started with, so a promote/rollback is a
        zero-downtime swap.  A deployment whose checkpoint fails hydration
        is quarantined by the registry (which re-resolves its manifest to
        the previous good version), and resolution retries against the
        updated registry state — serving falls back to known-good
        checkpoints instead of wedging.
        """
        generation = self.registry.generation
        routes = {db_name: self._resolve_one(digest)
                  for db_name, digest in self._db_digests.items()}
        with self._lock:
            for db_name, route in routes.items():
                previous = self._routes.get(db_name)
                if (previous is not None and route is not None
                        and previous.checkpoint_key != route.checkpoint_key):
                    self._counts["swaps"] += 1
                    perfstats.increment("serve.swap.count")
            self._routes = routes
            self._seen_generation = generation

    def route_for(self, db_name):
        with self._lock:
            return self._routes.get(db_name)

    def _resolve_one(self, digest):
        """Route one database digest to a loaded model, surviving
        quarantines: every HydrationError re-resolves against the
        registry's updated manifest until a good version loads or nothing
        routable remains."""
        for _ in range(8):  # bounded: each retry consumed a quarantine
            try:
                if self.config.model_name is not None:
                    deployment = self.registry.active(self.config.model_name)
                else:
                    deployment = self.registry.route(digest)
            except RoutingError:
                return None
            if deployment is None:
                return None
            try:
                if self.mmap:
                    model = self.registry.load_mmap(deployment=deployment)
                else:
                    model = self.registry.load(deployment=deployment)
            except RoutingError:
                perfstats.increment("serve.fault.hydrate")
                with self._lock:
                    self._counts["hydrate_failures"] += 1
                continue
            return _Route(deployment, model)
        return None

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def answer_cached(self, route, request, stage_proc=None):
        """Complete ``request`` from the result cache if it holds
        ``(route checkpoint, request.digest)``; True when answered.

        A hit is counted, annotated and fed to the observation tap; a miss
        is counted at prediction time.  ``stage_proc`` also records the
        ``cache`` stage (submit to answer) on a traced request.
        """
        with self._lock:
            value = self._cache_get_locked(
                (route.checkpoint_key, request.digest))
            if value is not None:
                self._counts["cached"] += 1
        if value is None:
            return False
        perfstats.increment("serve.cache.hit")
        trace = request.trace
        if trace is not None:
            trace.annotate("cache.hit")
            if stage_proc is not None:
                trace.add_stage("cache", request.submitted_at,
                                time.perf_counter(), stage_proc)
        request._finish(RequestStatus.CACHED, value=value,
                        served_by=route.served_by)
        self._observe(request, value, route)
        return True

    def _cache_get_locked(self, key):
        if self.config.result_cache_size <= 0:
            return None
        value = self._result_cache.get(key)
        if value is not None:
            self._result_cache.move_to_end(key)
        return value

    def _cache_put_locked(self, key, value):
        if self.config.result_cache_size <= 0:
            return
        self._result_cache[key] = value
        while len(self._result_cache) > self.config.result_cache_size:
            self._result_cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Batch processing (hardened model path)
    # ------------------------------------------------------------------
    def process_batch(self, batch):
        """Serve one micro-batch of :class:`PredictionRequest` objects.

        Groups by database, routes each group, enforces deadlines, retries
        with backoff, bisects poisoned groups, degrades behind the circuit
        breaker — and completes every request in ``batch`` exactly once.
        Each request must carry its plan digest, which keys the result and
        featurization caches; a batch with a request lacking one is refused.
        """
        if any(request.digest is None for request in batch):
            raise ValueError("a request reached the serving core without "
                             "its plan digest")
        self.maybe_swap()
        perfstats.increment("serve.batch.count")
        perfstats.increment("serve.batch.requests", len(batch))
        with self._lock:
            self._batch_sizes[len(batch)] += 1
        started = time.perf_counter()
        by_db = {}
        for request in batch:
            by_db.setdefault(request.db_name, []).append(request)
        for db_name, requests in by_db.items():
            self._process_group(db_name, requests)
        finished = time.perf_counter()
        REGISTRY.observe("serve.batch_ms", (finished - started) * 1e3)
        for request in batch:
            if request.completed_at is not None and request.status in (
                    RequestStatus.DONE, RequestStatus.CACHED,
                    RequestStatus.DEGRADED):
                REGISTRY.observe(
                    "serve.latency_ms",
                    (request.completed_at - request.submitted_at) * 1e3)

    def _process_group(self, db_name, requests):
        route = self.route_for(db_name)
        if route is None:
            error = RoutingError(f"no deployment serves {db_name!r}")
            with self._lock:
                self._counts["failed"] += len(requests)
            for request in requests:
                request._finish(RequestStatus.FAILED, error=error)
            return
        # Late cache probe: a duplicate that was queued before its twin's
        # batch completed is answered here instead of re-predicted.
        pending = [request for request in requests
                   if not self.answer_cached(route, request)]
        if not pending:
            return
        perfstats.increment("serve.cache.miss", len(pending))
        breaker = self._breakers.setdefault(route.checkpoint_key, _Breaker())
        if not breaker.allows_model_path(self.config.breaker_reset_ms / 1e3):
            # Breaker open: the model path is known-bad; answer from the
            # analytical baseline (or fail typed) without touching it.
            self._finish_degraded(db_name, route, pending)
            return
        self._predict_group(db_name, route, breaker, pending)

    def _predict_group(self, db_name, route, breaker, requests):
        """Retry with backoff; on persistent failure bisect until the
        poisoned request is isolated; enforce per-request deadlines."""
        requests = self._enforce_deadlines(requests)
        if not requests:
            return
        last_error = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                perfstats.increment("serve.retry.count")
                with self._lock:
                    self._counts["retries"] += 1
                for request in requests:
                    request.retries += 1
                    if request.trace is not None:
                        request.trace.annotate("retry")
                backoff_s = (self.config.retry_backoff_ms / 1e3
                             * (2 ** (attempt - 1)))
                backoff_start = time.perf_counter()
                time.sleep(backoff_s)
                backoff_end = time.perf_counter()
                for request in requests:
                    if request.trace is not None:
                        request.trace.add_stage("backoff", backoff_start,
                                                backoff_end, self.proc_label)
                requests = self._enforce_deadlines(requests)
                if not requests:
                    return
            try:
                values = self._attempt(db_name, requests, route.model)
            except Exception as exc:  # noqa: BLE001 — injected or real
                perfstats.increment("serve.fault.model_path")
                last_error = exc
                continue
            breaker.record_success()
            values = [float(value) for value in values]
            with self._lock:
                self._counts["completed"] += len(requests)
                for request, value in zip(requests, values):
                    self._cache_put_locked(
                        (route.checkpoint_key, request.digest), value)
            for request, value in zip(requests, values):
                request._finish(RequestStatus.DONE, value=value,
                                served_by=route.served_by)
                self._observe(request, value, route)
            return
        if len(requests) > 1:
            # Poisoned-batch bisection: the halves retry independently, so
            # everything except the poisoned request still completes.
            perfstats.increment("serve.fault.bisect")
            with self._lock:
                self._counts["bisects"] += 1
            for request in requests:
                if request.trace is not None:
                    request.trace.annotate("bisect")
            mid = len(requests) // 2
            self._predict_group(db_name, route, breaker, requests[:mid])
            self._predict_group(db_name, route, breaker, requests[mid:])
            return
        # A single request exhausted its retries: it fails alone — and the
        # breaker counts it; past the threshold the deployment degrades.
        breaker.record_failure(self.config.breaker_threshold)
        if breaker.state == "open" and self.config.degraded_fallback:
            self._finish_degraded(db_name, route, requests)
            return
        with self._lock:
            self._counts["failed"] += 1
        requests[0]._finish(RequestStatus.FAILED, error=last_error)

    def _attempt(self, db_name, requests, model):
        """One model-path attempt over a group (featurize + predict).

        The request digests are the featurization-cache keys, so the plans
        are not hashed again here.  Traced requests record the group's
        featurize and infer intervals: a batched request waits through the
        whole group operation, so the group interval *is* that request's
        stage time.  Timing is taken only when the group holds at least
        one traced request, so untraced traffic pays nothing.
        """
        traced = [request for request in requests
                  if request.trace is not None]
        digests = [request.digest for request in requests]
        faults.check("serve.featurize", keys=digests)
        records = [ServingRecord(db_name, request.plan)
                   for request in requests]
        if traced:
            feat_start = time.perf_counter()
        graphs = featurize_records(
            records, self._dbs, cards=self.config.cards,
            estimator_cache=self._estimator_cache,
            feat_cache=self._feat_cache, keys=digests)
        if traced:
            feat_end = time.perf_counter()
            for request in traced:
                request.trace.add_stage("featurize", feat_start, feat_end,
                                        self.proc_label)
        faults.check("serve.infer", keys=digests)
        values = predict_runtimes(
            model.model, graphs, model.feature_scalers,
            model.target_scaler,
            batch_size=self.config.predict_batch_size,
            batch_cache=self._batch_cache)
        if traced:
            infer_end = time.perf_counter()
            for request in traced:
                request.trace.add_stage("infer", feat_end, infer_end,
                                        self.proc_label)
        return values

    def _enforce_deadlines(self, requests):
        """Fail requests whose age exceeds their deadline; return the rest.

        A request's own ``deadline_ms`` (which crosses the fleet pipe with
        it) takes precedence over the config-wide ``request_timeout_ms``;
        either way expiry is checked *before* featurization, so an
        already-dead request never costs model-path work.
        """
        config_ms = self.config.request_timeout_ms
        if config_ms is None and not any(
                request.deadline_ms is not None for request in requests):
            return requests
        now = time.perf_counter()
        alive, expired = [], []
        for request in requests:
            timeout_ms = (request.deadline_ms
                          if request.deadline_ms is not None else config_ms)
            if (timeout_ms is not None
                    and (now - request.submitted_at) * 1e3 > timeout_ms):
                expired.append((request, timeout_ms))
            else:
                alive.append(request)
        if expired:
            perfstats.increment("serve.fault.deadline", len(expired))
            with self._lock:
                self._counts["failed"] += len(expired)
                self._counts["deadline_expired"] += len(expired)
            for request, timeout_ms in expired:
                if request.trace is not None:
                    request.trace.annotate("deadline")
                request._finish(RequestStatus.FAILED,
                                error=DeadlineExceededError(
                                    f"request exceeded its "
                                    f"{timeout_ms:.0f} ms deadline"))
        return alive

    def _finish_degraded(self, db_name, route, requests):
        """Answer requests from the analytical cost model, flagged DEGRADED.

        Degraded values never enter the result cache — a recovered model
        must never replay them — and ``served_by`` names the fallback, not
        the deployment.
        """
        if not self.config.degraded_fallback:
            error = RoutingError(
                f"deployment {route.deployment.name!r} is circuit-broken "
                "and degraded fallback is disabled")
            with self._lock:
                self._counts["failed"] += len(requests)
            for request in requests:
                request._finish(RequestStatus.FAILED, error=error)
            return
        analytical = self._analytical.get(db_name)
        if analytical is None:
            analytical = AnalyticalCostModel(self._dbs[db_name])
            self._analytical[db_name] = analytical
        served_by = ("analytical", route.deployment.name)
        perfstats.increment("serve.degraded.count", len(requests))
        with self._lock:
            self._counts["degraded"] += len(requests)
        for request in requests:
            if request.trace is not None:
                request.trace.annotate("degraded")
            try:
                value = analytical.predict_plan(request.plan)
            except Exception as exc:  # noqa: BLE001 — even fallbacks fail
                with self._lock:
                    self._counts["degraded"] -= 1
                    self._counts["failed"] += 1
                request._finish(RequestStatus.FAILED, error=exc)
                continue
            request._finish(RequestStatus.DEGRADED, value=value,
                            served_by=served_by)

    # ------------------------------------------------------------------
    def stats(self):
        """Core request/batch/cache/swap/fault counters, the batch-size
        histogram, and per-deployment breaker states."""
        breakers = {key: breaker.state
                    for key, breaker in self._breakers.items()}
        with self._lock:
            batches = sum(self._batch_sizes.values())
            sizes = sum(size * count
                        for size, count in self._batch_sizes.items())
            return {
                "requests": self._counts["requests"],
                "completed": self._counts["completed"],
                "cached": self._counts["cached"],
                "degraded": self._counts["degraded"],
                "shed": self._counts["shed"],
                "failed": self._counts["failed"],
                "swaps": self._counts["swaps"],
                "retries": self._counts["retries"],
                "bisects": self._counts["bisects"],
                "batcher_crashes": self._counts["batcher_crashes"],
                "requeued": self._counts["requeued"],
                "deadline_expired": self._counts["deadline_expired"],
                "hydrate_failures": self._counts["hydrate_failures"],
                "batches": batches,
                "batch_size_hist": dict(sorted(self._batch_sizes.items())),
                "mean_batch_size": (sizes / batches) if batches else 0.0,
                "result_cache_entries": len(self._result_cache),
                "breakers": breakers,
            }


class RequestFrontend:
    """The ingress and client API both transports share.

    :class:`~repro.serving.server.PredictorServer` and
    :class:`~repro.serving.fleet.PredictorFleet` subclass this, and a
    request enters the service only through :meth:`_ingress`, which checks
    the database, builds the handle, computes its plan digest and opens
    its trace context.  The admission policy (shed or brownout), queueing
    and delivery stay with the transport: a subclass provides ``submit``,
    ``start``, ``stop``, the ``_accepting`` flag and the ``_not_full``
    condition that :meth:`_has_room` waits on.
    """

    def __init__(self, dbs, config):
        self.config = config
        self._dbs = dict(dbs)
        self._db_fingerprints = {name: db.fingerprint()
                                 for name, db in self._dbs.items()}
        # Guards the digest memo and the submit sequence number.
        self._ingress_lock = threading.Lock()
        self._digest_memo = OrderedDict()  # (id(plan), db) -> (plan, digest)
        self._submit_seq = 0  # submit order; feeds deterministic trace ids
        self._tracer = (Tracer(sample_every=config.trace_sample_every)
                        if config.trace else None)

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def _ingress(self, plan, db_name, priority, deadline_ms):
        """Build the handle for one submitted plan, digest and trace set."""
        if db_name not in self._dbs:
            raise KeyError(f"database {db_name!r} is not registered with "
                           f"this {type(self).__name__}")
        priority = RequestPriority(priority)
        request = PredictionRequest(db_name, plan, priority=priority,
                                    deadline_ms=deadline_ms)
        request.digest = self._plan_digest(db_name, plan)
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with self._ingress_lock:
                seq = self._submit_seq
                self._submit_seq += 1
            request.trace = tracer.context_for(
                request.digest, seq, db_name=db_name,
                priority=priority.name.lower(),
                submitted_at=request.submitted_at)
        return request

    def _plan_digest(self, db_name, plan):
        """Memoized content fingerprint of a plan object (self-locking).

        Memo keys carry the database name: the digest hashes the
        database's fingerprint, so the same plan object submitted against
        two databases yields two digests.  The hash — an O(plan) tree walk
        — runs outside the lock, so first-seen plans from concurrent
        clients do not serialize behind each other.  The digest equals
        :meth:`~repro.featurization.FeaturizationCache.key` for the same
        plan, card source and database, so it doubles as the
        featurization-cache key.
        """
        memo_key = (id(plan), db_name)
        with self._ingress_lock:
            entry = self._digest_memo.get(memo_key)
            if entry is not None and entry[0] is plan:
                return entry[1]
        digest = plan_fingerprint(
            self._dbs[db_name], plan, self.config.cards,
            db_fingerprint=self._db_fingerprints[db_name])
        with self._ingress_lock:
            self._digest_memo[memo_key] = (plan, digest)
            while len(self._digest_memo) > 4 * max(
                    self.config.result_cache_size, 1024):
                self._digest_memo.popitem(last=False)
        return digest

    # ------------------------------------------------------------------
    # Admission (transport lock held)
    # ------------------------------------------------------------------
    def _has_room(self, request, occupancy, block, timeout):
        """Wait for room under the request's priority bound; True when the
        request may be admitted.

        Called with the transport lock held; ``occupancy()`` is the
        transport's current load.  With ``block`` the wait on
        ``_not_full`` lasts at most ``timeout`` in total.
        """
        config = self.config
        limit = min(config.queue_depth, admission_limit(
            request.priority, config.queue_depth, config))
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._accepting and occupancy() >= limit:
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if (not block
                    or (remaining is not None and remaining <= 0)
                    or not self._not_full.wait(remaining)):
                break
        return self._accepting and occupancy() < limit

    @staticmethod
    def _shed(request):
        """Finish a request refused admission as SHED, counted per class."""
        perfstats.increment("serve.shed.count")
        perfstats.increment(
            f"serve.shed.priority.{request.priority.name.lower()}")
        request._finish(RequestStatus.SHED)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit_many(self, plans, db_name, block=False, timeout=None,
                    priority=RequestPriority.NORMAL, deadline_ms=None):
        return [self.submit(plan, db_name, block=block, timeout=timeout,
                            priority=priority, deadline_ms=deadline_ms)
                for plan in plans]

    def predict(self, plans, db_name, timeout=None, allow_degraded=False,
                priority=RequestPriority.NORMAL):
        """Blocking bulk prediction (backpressure, never sheds).

        Returns runtimes (ms) aligned with ``plans``; raises if any request
        failed.  A ``DEGRADED`` response (analytical fallback) raises
        :class:`DegradedResponseError` unless ``allow_degraded=True`` —
        degraded values are never handed out silently.
        """
        requests = self.submit_many(plans, db_name, block=True,
                                    timeout=timeout, priority=priority)
        values = [request.result(timeout) for request in requests]
        if not allow_degraded:
            degraded = sum(request.degraded for request in requests)
            if degraded:
                raise DegradedResponseError(
                    f"{degraded}/{len(requests)} predictions came from the "
                    "analytical fallback; pass allow_degraded=True to "
                    "accept flagged degraded values")
        return np.array(values)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._tracer

    def attach_tracer(self, tracer):
        """Attach (or detach with ``None``) a span sink; overrides the
        config-driven tracer.  Per-request cost is zero when detached."""
        self._tracer = tracer
        return tracer

    def close(self, drain=True):
        """Alias for ``stop``."""
        self.stop(drain=drain)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False
