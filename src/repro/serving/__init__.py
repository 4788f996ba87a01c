"""Online cost-prediction service over trained zero-shot models.

The paper's pitch is that zero-shot cost models predict runtimes on unseen
databases *out of the box*; systems like BRAD route live queries through
exactly such models.  This package turns the repo's offline experiment
engine into that online service:

* :class:`ModelRegistry` (``registry.py``) — versioned, content-addressed
  model deployments over the disk artifact store, with database-fingerprint
  compatibility metadata, atomic promote/rollback, hot-swap signalling,
  checksum-verified hydration, checkpoint quarantine (corrupt deployments
  are moved aside — never deleted blind — and the manifest re-resolves to
  the previous good version) and a :meth:`~ModelRegistry.verify` audit.
* :class:`PredictorServer` (``server.py``) — an in-process, thread-based
  predictor that coalesces concurrent single-plan and bulk requests into
  micro-batches (deadline/size trigger) feeding the graph-free inference
  fast path, routes each request to a compatible deployment by database
  fingerprint, answers repeat plans from a bounded fingerprint-keyed result
  cache and sheds load via bounded-queue admission control.  The batcher is
  *supervised* (crash detection, thread restart, exactly-once re-enqueue of
  in-flight requests); the model path retries with exponential backoff,
  bisects poisoned batches, enforces per-request deadlines, and degrades
  gracefully to the analytical cost model behind a per-deployment circuit
  breaker — degraded responses are explicitly flagged ``DEGRADED``, never
  silently substituted.
* :class:`PredictorFleet` (``fleet.py``) — the scale-out version: a
  router in the client process shards requests by database fingerprint
  (with least-loaded spill for hot shards) across long-lived *forked*
  worker processes, each running the shared serving core
  (:class:`~repro.serving.core.ServingCore`, ``core.py`` — the
  transport-agnostic half of the server) over checkpoints hydrated via
  the registry's mmap path: one page-cache copy of every model for the
  whole fleet.  Both transports enter requests through one ingress
  (:class:`~repro.serving.core.RequestFrontend`) that hashes each plan
  once; the digest rides on the request, keys the result and
  featurization caches, and is the fleet's pipe token, so workers never
  re-hash.  Handles keep the exact server semantics; worker death is
  supervised (fork-restart + exactly-once re-send of unanswered
  requests); promote/rollback broadcasts on ``registry.generation``
  changes, zero downtime fleet-wide.
* :class:`ContinuousLearningController` (``controller.py``) — the
  drift-aware control plane: an :class:`~repro.serving.core.
  ObservationTap` on the serving core feeds delivered predictions to a
  supervised daemon that joins them with seeded-simulator ground truth,
  drives per-deployment :class:`~repro.robustness.DriftDetector`\\ s,
  fine-tunes a candidate on drift, shadow-evaluates it on mirrored
  traffic, promotes it atomically behind a Q-error-margin gate, and
  auto-rolls-back on regression inside a probation window — every
  decision counted (``controller.*`` perfstats) and journaled to a
  typed, replayable event log.
* :func:`run_load` (``loadgen.py``) — a seeded open-loop load harness
  recording throughput, availability, p50/p95/p99 latency (completed
  requests only), batch-size histograms and cache/shed/degraded counters,
  with a chaos mode that installs a deterministic fault schedule
  (:mod:`repro.robustness.faults`) for the duration of the run.

Serving equivalence contract: for any request mix, every ``DONE``/``CACHED``
prediction is bit-identical to a direct
:func:`~repro.core.training.predict_runtimes` call on the same model —
micro-batch composition, cache hits, hot-swaps, retries, bisections and
batcher restarts never change a value.  ``DEGRADED`` responses come from
:class:`~repro.optimizer.AnalyticalCostModel` and are flagged as such.
This rests on the row-stable inference kernels
(:func:`repro.nn.row_stable_matmul`); see ``tests/test_serving.py`` and
``tests/test_faults.py``.

Perfstats counters: ``serve.batch.count`` / ``serve.batch.requests``,
``serve.cache.hit`` / ``serve.cache.miss``, ``serve.shed.count``,
``serve.swap.count``, ``serve.registry.*``, plus the robustness families
``serve.fault.*``, ``serve.retry.*`` and ``serve.degraded.*``.
"""

from .registry import (HydrationError, ModelDeployment, ModelRegistry,
                       RoutingError)
from .core import Observation, ObservationTap, RequestPriority, ServingCore
from .server import (DeadlineExceededError, DegradedResponseError,
                     PredictionRequest, PredictorServer, RequestShedError,
                     RequestStatus, ServerClosedError, ServerConfig,
                     ServingRecord)
from .fleet import PredictorFleet
from .loadgen import LoadConfig, LoadReport, run_load, skewed_requests
from .controller import (ContinuousLearningController, ControllerConfig,
                         ControllerEvent, ControllerJournal, ObservedRecord)

__all__ = [
    "HydrationError", "ModelDeployment", "ModelRegistry", "RoutingError",
    "DeadlineExceededError", "DegradedResponseError",
    "PredictionRequest", "PredictorFleet", "PredictorServer",
    "RequestPriority", "RequestShedError", "RequestStatus",
    "ServerClosedError", "ServerConfig",
    "ServingCore", "ServingRecord", "Observation", "ObservationTap",
    "LoadConfig", "LoadReport", "run_load", "skewed_requests",
    "ContinuousLearningController", "ControllerConfig", "ControllerEvent",
    "ControllerJournal", "ObservedRecord",
]
