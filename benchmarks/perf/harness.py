"""Engine microbenchmark harness: corpus generation, trace execution, SPN
learning, runtime simulation, featurization, annotation, batching, training,
inference.

All benchmarks use only the public API of the *current* revision
(``execute_trace``, ``simulate_runtime_ms_batch``, ``learn_spn``,
``featurize_records``, ``annotate_cardinalities``, ``make_batch``,
``ZeroShotModel``, ``predict_runtimes``); historical engines are
represented by the numbers recorded in ``baseline_seed.json``, not by
re-running this module against old checkouts.  Throughput is plans/second
(tables/second for datagen and SPN learning), best of ``repeats`` timed
passes with the cyclic GC paused (timeit's policy), so one collector pause
cannot sink a number.

The pipeline and corpus benchmarks take ``use_reference=True`` to time the
executable loop specifications (``annotate_cardinalities_reference``,
``build_query_graph_reference``, per-plan ``execute_plan`` /
``simulate_runtime_ms``, ``learn_spn_reference``) — that is how ``run.py
--save-loop-baseline`` re-anchors the loop entries of the recorded
baseline, and how ``run_all`` derives the machine-drift-immune same-run
speedups.
"""

from __future__ import annotations

import cProfile
import gc
import inspect
import io
import pstats
import tempfile
import time
from contextlib import contextmanager

import numpy as np

from repro import perfstats
from repro.cardest import (DataDrivenEstimator, annotate_cardinalities,
                           annotate_cardinalities_reference)
from repro.core import TrainingConfig, featurize_records, train_model
from repro.core.model import ZeroShotModel
from repro.core.training import predict_runtimes
from repro.featurization import (FeatureScalers, FeaturizationCache,
                                 TargetScaler, build_query_graph_reference,
                                 make_batch)
from repro.nn import (Adam, Adam_reference, QErrorLoss, clip_grad_norm,
                      clip_grad_norm_reference)
from repro.obs.metrics import REGISTRY

__all__ = ["build_plan_corpus", "build_corpus", "build_exec_corpus",
           "exec_corpus_size", "bench_datagen", "bench_trace_execution",
           "bench_runtime_simulation", "bench_spn_learning",
           "bench_featurization", "bench_annotation",
           "bench_featurization_cached", "bench_batch_construction",
           "bench_training_step", "bench_train_epoch",
           "bench_experiment_warm_start", "bench_inference", "bench_serving",
           "bench_chaos", "bench_fleet", "bench_controller", "bench_obs",
           "run_all", "run_pipeline_reference"]


def build_plan_corpus(n_queries=192, seed=0, max_joins=3, base_rows=1200):
    """A deterministic executed workload (db + records) for timing."""
    from repro.datagen import generate_database, random_database_spec
    from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

    spec = random_database_spec("perfdb", seed=seed, layout="snowflake",
                                base_rows=base_rows, n_tables=5, complexity=0.7)
    db = generate_database(spec)
    queries = WorkloadGenerator(db, WorkloadConfig(max_joins=max_joins),
                                seed=seed).generate(n_queries)
    trace = generate_trace(db, queries, seed=seed)
    return db, list(trace)


def exec_corpus_size(quick):
    """One authority for the stage-0 execution corpus sizing.

    ``run_all`` and ``run_pipeline_reference`` both resolve through here,
    so --quick runs and loop-baseline recordings always measure matching
    corpus scales (mixing them would make the recorded speedups
    incomparable).
    """
    return (dict(n_queries=64, base_rows=16000) if quick
            else dict(n_queries=128, base_rows=48000))


def build_exec_corpus(n_queries=128, seed=0, max_joins=5, base_rows=48000,
                      n_tables=7):
    """A corpus-scale planned workload (db + plans) for the stage-0 benches.

    Deliberately larger and more join-heavy than :func:`build_plan_corpus`:
    stage-0 cost is dominated by executing traces over the 20 generated
    databases, where per-plan parent re-sorts and repeated predicate scans
    are the work the trace engine shares.  The plans come back *unexecuted*;
    the execution benches annotate them.
    """
    from repro.datagen import generate_database, random_database_spec
    from repro.optimizer import PlannerConfig, plan_query
    from repro.workloads import WorkloadConfig, WorkloadGenerator

    spec = random_database_spec("execdb", seed=seed, layout="snowflake",
                                base_rows=base_rows, n_tables=n_tables,
                                complexity=0.8)
    db = generate_database(spec)
    queries = WorkloadGenerator(db, WorkloadConfig(max_joins=max_joins),
                                seed=seed).generate(n_queries)
    config = PlannerConfig()
    plans = [plan_query(db, query, config=config) for query in queries]
    return db, plans


def build_corpus(n_queries=192, seed=0, max_joins=3):
    """Featurized graphs + runtimes for the model-side benchmarks."""
    db, records = build_plan_corpus(n_queries=n_queries, seed=seed,
                                    max_joins=max_joins)
    graphs = featurize_records(records, {db.name: db}, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    return graphs, runtimes


def _best_rate(n_plans, timings):
    return n_plans / min(timings)


@contextmanager
def _gc_paused():
    """Timed sections run with the cyclic GC off (same policy as timeit),
    so collector pauses don't masquerade as engine time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
            gc.collect()


# ----------------------------------------------------------------------
# Stage 0: corpus engine (datagen, trace execution, SPN learning,
# runtime simulation)
# ----------------------------------------------------------------------
def bench_datagen(base_rows=1200, seed=0, repeats=3):
    """Tables/second through database generation (the corpus' first cost)."""
    from repro.datagen import generate_database, random_database_spec

    spec = random_database_spec("perfdb", seed=seed, layout="snowflake",
                                base_rows=base_rows, n_tables=5,
                                complexity=0.7)
    timings = []
    with _gc_paused():
        for _ in range(repeats):
            start = time.perf_counter()
            db = generate_database(spec)
            timings.append(time.perf_counter() - start)
    return len(db.tables) / min(timings)


def bench_trace_execution(db, plans, repeats=3, use_reference=False):
    """Plans/second through plan execution (true cardinalities).

    Fast path: ``execute_trace`` — one :class:`TraceExecutionContext` per
    pass (cold memos, as a fresh corpus session pays them), shared scan
    row-id sets and per-column join indexes, bit-identical to the
    reference.  Reference: the per-plan ``execute_plan`` loop that re-sorts
    every join's parent keys and re-evaluates every scan predicate.
    """
    from repro.executor import execute_plan, execute_trace

    timings = []
    with _gc_paused():
        for _ in range(repeats):
            start = time.perf_counter()
            if use_reference:
                for plan in plans:
                    execute_plan(db, plan)
            else:
                execute_trace(db, plans)
            timings.append(time.perf_counter() - start)
    return _best_rate(len(plans), timings)


def bench_runtime_simulation(db, plans, repeats=5, use_reference=False):
    """Plans/second through runtime simulation (plans must be executed).

    Fast path: ``simulate_runtime_ms_batch`` — per-node costs assembled
    column-wise per operator group, per-plan seeded noise streams.
    Reference: the per-plan, per-node ``simulate_runtime_ms`` loop.
    """
    from repro.executor import simulate_runtime_ms, simulate_runtime_ms_batch

    timings = []
    with _gc_paused():
        for _ in range(repeats):
            start = time.perf_counter()
            if use_reference:
                for plan in plans:
                    simulate_runtime_ms(db, plan, seed=0)
            else:
                simulate_runtime_ms_batch(db, plans, seed=0)
            timings.append(time.perf_counter() - start)
    return _best_rate(len(plans), timings)


def bench_spn_learning(db, repeats=3, max_rows=4000, use_reference=False):
    """Tables/second through SPN structure learning.

    Fast path: whole-matrix rank transforms, min-label component
    propagation and broadcast 2-means.  Reference: the per-column /
    per-pair loop primitives (``learn_spn_reference``).
    """
    from repro.cardest import spn_input_arrays
    from repro.cardest.spn import learn_spn, learn_spn_reference

    learn = learn_spn_reference if use_reference else learn_spn
    table_arrays = [spn_input_arrays(db.table(table_name))
                    for table_name in db.schema.table_names]
    timings = []
    with _gc_paused():
        for _ in range(repeats):
            start = time.perf_counter()
            for arrays in table_arrays:
                learn(arrays, seed=0, max_rows=max_rows)
            timings.append(time.perf_counter() - start)
    return _best_rate(len(table_arrays), timings)


# ----------------------------------------------------------------------
# Featurization pipeline
# ----------------------------------------------------------------------
def bench_featurization(db, records, repeats=7, use_reference=False):
    """Plans/second through the full featurize pipeline (exact cards).

    Fast path: ``featurize_records`` (vectorized batch builder, fused
    cardinality lookup).  Reference: the per-record loop the seed engine ran
    — annotation dict per plan, per-node feature-vector construction.
    """
    dbs = {db.name: db}
    timings = []
    with _gc_paused():
        for _ in range(repeats):
            start = time.perf_counter()
            if use_reference:
                for record in records:
                    cards = annotate_cardinalities_reference(db, record.plan,
                                                             "exact")
                    build_query_graph_reference(db, record.plan, cards)
            else:
                featurize_records(records, dbs, cards="exact")
            timings.append(time.perf_counter() - start)
    return _best_rate(len(records), timings)


def bench_annotation(db, records, repeats=5, use_reference=False, seed=0,
                     sample_size=1024):
    """Plans/second through DeepDB cardinality annotation.

    The estimator is built once (that is training, not annotation); its
    predicate caches are cleared before every timed pass so each pass pays
    the full per-trace cost.  The reference path runs the original recursive
    visit with per-predicate row scans and the per-row sampling loop.
    """
    estimator = DataDrivenEstimator(db, sample_size=sample_size, seed=seed)
    annotate = (annotate_cardinalities_reference if use_reference
                else annotate_cardinalities)
    timings = []
    with _gc_paused():
        for _ in range(repeats):
            estimator.clear_caches()
            start = time.perf_counter()
            for record in records:
                annotate(db, record.plan, "deepdb", estimator=estimator)
            timings.append(time.perf_counter() - start)
    return _best_rate(len(records), timings)


def bench_featurization_cached(db, records, repeats=7):
    """Warm-``FeaturizationCache`` rate: re-featurizing an already seen
    corpus is fingerprint lookups only.  Returns ``(rate, cache_stats)``."""
    dbs = {db.name: db}
    cache = FeaturizationCache()
    featurize_records(records, dbs, cards="exact", feat_cache=cache)  # warm
    timings = []
    with _gc_paused():
        for _ in range(repeats):
            start = time.perf_counter()
            featurize_records(records, dbs, cards="exact", feat_cache=cache)
            timings.append(time.perf_counter() - start)
    return _best_rate(len(records), timings), cache.stats()


# ----------------------------------------------------------------------
# Model-side benchmarks (unchanged interfaces)
# ----------------------------------------------------------------------
def bench_batch_construction(graphs, batch_size=64, repeats=5, scalers=None):
    """Plans/second through ``make_batch`` (fresh batches every pass)."""
    if scalers is None:
        scalers = FeatureScalers().fit(graphs)
    chunks = [graphs[i:i + batch_size]
              for i in range(0, len(graphs), batch_size)]
    timings = []
    with _gc_paused():
        for _ in range(repeats):
            start = time.perf_counter()
            for chunk in chunks:
                make_batch(chunk, scalers)
            timings.append(time.perf_counter() - start)
    return _best_rate(len(graphs), timings)


def bench_training_step(graphs, runtimes, hidden_dim=64, batch_size=64,
                        epochs=3, repeats=3, seed=0, use_reference=False):
    """Plans/second through forward + backward + clip + Adam step.

    Fast path: the flat-parameter :class:`Adam` (contiguous per-dtype
    buffers, whole-model vectorized step).  Reference: the preserved
    per-parameter ``Adam_reference`` / ``clip_grad_norm_reference`` loops —
    the executable spec the flat optimizer matches bit-for-bit.
    """
    config = TrainingConfig(hidden_dim=hidden_dim, batch_size=batch_size)
    optimizer_cls = Adam_reference if use_reference else Adam
    clip = clip_grad_norm_reference if use_reference else clip_grad_norm
    scalers = FeatureScalers().fit(graphs)
    target = TargetScaler().fit(runtimes)
    log_targets = np.log(np.maximum(runtimes, 1e-3))
    batches = [(make_batch(graphs[i:i + batch_size], scalers),
                log_targets[i:i + batch_size])
               for i in range(0, len(graphs), batch_size)]
    loss_fn = QErrorLoss()
    timings = []
    with _gc_paused():
        for _ in range(repeats):
            model = ZeroShotModel(hidden_dim=hidden_dim, dropout=0.05, seed=seed)
            if hasattr(model, "to"):
                model.to(getattr(config, "dtype", "float64"))
            model.train()
            params = list(model.parameters())
            optimizer = optimizer_cls(params, lr=1.5e-3)
            start = time.perf_counter()
            for _ in range(epochs):
                for batch, target_log in batches:
                    optimizer.zero_grad()
                    pred_log = model(batch) * target.std + target.mean
                    loss = loss_fn(pred_log, target_log)
                    loss.backward()
                    clip(params, 5.0)
                    optimizer.step()
            timings.append(time.perf_counter() - start)
    return _best_rate(len(graphs) * epochs, timings)


def bench_train_epoch(graphs, runtimes, hidden_dim=64, batch_size=64,
                      epochs=3, repeats=3, seed=0, use_reference=False):
    """Plans/second through the *full* ``train_model`` entry point.

    Unlike :func:`bench_training_step` this pays the epoch-level machinery
    too: validation passes, early-stopping snapshots (one flat buffer copy
    on the fast path vs a per-tensor ``state_dict`` on the reference path)
    and the final best-state restore.
    """
    config = TrainingConfig(hidden_dim=hidden_dim, batch_size=batch_size,
                            epochs=epochs, seed=seed,
                            flat_optimizer=not use_reference)
    timings = []
    with _gc_paused():
        for _ in range(repeats):
            model = ZeroShotModel(hidden_dim=hidden_dim, dropout=0.05,
                                  seed=seed)
            start = time.perf_counter()
            train_model(model, graphs, runtimes, config)
            timings.append(time.perf_counter() - start)
    return _best_rate(len(graphs) * epochs, timings)


def bench_experiment_warm_start(store_dir=None, n_queries=12, epochs=4,
                                hidden_dim=16, seed=0):
    """Cold vs warm benchmark session through the disk artifact store.

    Runs a miniature suite session (generate databases, execute a trace,
    featurize, train a model) twice against one ``ArtifactStore``: the
    first session pays full generation cost, the second hydrates everything
    from disk.  Returns ``(cold_s, warm_s, store_stats)`` where
    ``store_stats`` holds the warm session's hit/miss counters.
    """
    from dataclasses import replace
    from repro.bench import Artifacts, ArtifactStore, SuiteConfig

    config = SuiteConfig(scale="tiny", seed=seed,
                         database_names=("airline", "imdb"))
    training = replace(config.training_config, epochs=epochs,
                       hidden_dim=hidden_dim)

    def session(store):
        art = Artifacts(config, store=store)
        trace = art.trace("airline", n=n_queries)
        art.graphs(trace, "exact")
        art.train_zero_shot([trace], cards="exact", config=training)
        return art

    def timed_session(store):
        start = time.perf_counter()
        session(store)
        return time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        root = store_dir or tmp
        cold_s = timed_session(ArtifactStore(root))
        warm_store = ArtifactStore(root)
        warm_s = timed_session(warm_store)
        return cold_s, warm_s, warm_store.stats()


def bench_inference(graphs, runtimes, hidden_dim=64, batch_size=256,
                    repeats=5, seed=0, use_cache=False):
    """Plans/second through ``predict_runtimes``.

    By default batch memoization is disabled so the number reflects fresh
    (never-seen) graphs — directly comparable to the seed engine, which had
    no cache.  ``use_cache=True`` measures the warm-``BatchCache`` path that
    repeated evaluations (e.g. the benchmark suite) actually pay; in that
    mode the cache's hit/miss counters are returned alongside the rate.
    """
    from repro.featurization import BatchCache

    model = ZeroShotModel(hidden_dim=hidden_dim, seed=seed).eval()
    scalers = FeatureScalers().fit(graphs)
    target = TargetScaler().fit(runtimes)
    kwargs = {}
    cache = None
    # The seed engine's predict_runtimes predates the batch_cache parameter;
    # only pass it where supported so the harness runs on any revision.
    if "batch_cache" in inspect.signature(predict_runtimes).parameters:
        cache = BatchCache(max_entries=64) if use_cache else False
        kwargs["batch_cache"] = cache
    timings = []
    with _gc_paused():
        for _ in range(repeats):
            start = time.perf_counter()
            predict_runtimes(model, graphs, scalers, target,
                             batch_size=batch_size, **kwargs)
            timings.append(time.perf_counter() - start)
    rate = _best_rate(len(graphs), timings)
    if use_cache and cache not in (None, False):
        return rate, cache.stats()
    return rate


def bench_serving(db, records, hidden_dim=64, n_clients=4, repeats=3,
                  max_batch_size=64, max_delay_ms=2.0, seed=0):
    """Plans/second through the online predictor, single vs micro-batched.

    Publishes one model to a throwaway registry and drives the server with
    the load generator in saturation mode (open-loop clients, no arrival
    pacing): once with ``max_batch_size=1`` — every request pays the full
    per-call featurize/batch/infer cost, the way a naive single-plan service
    would — and once with micro-batching on.  The result cache is disabled
    so both modes pay the real inference path for every request; the
    speedup between the two rates is the value of request coalescing.
    Returns ``(single_rate, batched_rate, extras)`` where ``extras`` holds
    the batched run's batch-size histogram and latency percentiles.
    """
    from repro.bench import ArtifactStore
    from repro.core import TrainingConfig, ZeroShotCostModel
    from repro.serving import (LoadConfig, ModelRegistry, PredictorServer,
                               ServerConfig, run_load)

    dbs = {db.name: db}
    graphs = featurize_records(records, dbs, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    model = ZeroShotCostModel(
        ZeroShotModel(hidden_dim=hidden_dim, seed=seed).eval(),
        FeatureScalers().fit(graphs), TargetScaler().fit(runtimes),
        TrainingConfig(hidden_dim=hidden_dim))
    requests = [(db.name, record.plan) for record in records]
    load = LoadConfig(n_clients=n_clients, rate_per_s=None, seed=seed,
                      block=True)

    def measure(batch_size):
        best_rate, extras = 0.0, {}
        for _ in range(repeats):
            # Fresh server per pass: cold featurization/batch caches, as a
            # first encounter with this request stream would pay.
            config = ServerConfig(max_batch_size=batch_size,
                                  max_delay_ms=max_delay_ms,
                                  queue_depth=len(requests) + n_clients,
                                  result_cache_size=0)
            server = PredictorServer(registry, dbs, config)
            with _gc_paused(), server:
                report = run_load(server, requests, load)
            if report.completed != len(requests):
                raise RuntimeError(
                    f"serving bench lost requests: {report.as_dict()}")
            if report.throughput_rps > best_rate:
                best_rate = report.throughput_rps
                extras = {"batch_size_hist": report.batch_size_hist,
                          "mean_batch_size": report.mean_batch_size,
                          "latency_ms": report.latency_ms}
        return best_rate, extras

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(ArtifactStore(tmp))
        registry.publish("bench", model, dbs=[db], default=True)
        single_rate, _ = measure(1)
        batched_rate, extras = measure(max_batch_size)
    return single_rate, batched_rate, extras


def bench_chaos(db, records, hidden_dim=64, n_clients=4, rounds=2, seed=0,
                fault_seed=1, max_batch_size=16, max_delay_ms=1.0,
                trace=False):
    """Availability, correctness and tail latency under injected faults.

    Publishes one model, pre-computes the ground-truth predictions with a
    direct ``predict_runtimes`` call, then drives the server through the
    load generator's chaos mode: a deterministic seeded
    :class:`~repro.robustness.faults.FaultSchedule` raises transient errors
    in featurization and inference, injects inference delays, and crashes
    the batcher thread mid-load.  The result cache is disabled so **every**
    request pays the hardened model path, and every delivered value is
    audited:

    * a ``DONE`` response whose value differs bit-for-bit from the direct
      prediction is a **wrong value** (the headline count; must be zero);
    * ``DEGRADED`` responses are counted separately — they are the explicit
      analytical fallback, never checked against (or confused with) model
      predictions.

    Returns a dict with availability (delivered / submitted), the wrong
    value count, per-status counts, batcher crash/re-enqueue counts,
    latency percentiles under faults, and the schedule's per-point
    injection totals.
    """
    from repro.bench import ArtifactStore
    from repro.core import TrainingConfig, ZeroShotCostModel
    from repro.robustness.faults import FaultSchedule, FaultSpec
    from repro.serving import (LoadConfig, ModelRegistry, PredictorServer,
                               RequestStatus, ServerConfig, run_load)

    dbs = {db.name: db}
    graphs = featurize_records(records, dbs, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    model = ZeroShotCostModel(
        ZeroShotModel(hidden_dim=hidden_dim, seed=seed).eval(),
        FeatureScalers().fit(graphs), TargetScaler().fit(runtimes),
        TrainingConfig(hidden_dim=hidden_dim))
    # Ground truth: the row-stable kernels make per-plan predictions
    # independent of batch composition, so one direct call is the oracle
    # for every micro-batch, retry and bisection the chaos run produces.
    truth = predict_runtimes(model.model, graphs, model.feature_scalers,
                             model.target_scaler)
    expected = {id(record.plan): float(value)
                for record, value in zip(records, truth)}
    requests = [(db.name, record.plan) for record in records] * rounds
    schedule = FaultSchedule([
        # Guaranteed events, pinned mid-run by skip_calls so every chaos
        # run (CI's --quick included) exercises supervision and retry: the
        # third batch crashes the batcher, and one group's first two
        # inference attempts fail (forcing backoff retries).
        FaultSpec("serve.batcher", rate=1.0, skip_calls=2, max_faults=1,
                  message="chaos: batcher crash"),
        FaultSpec("serve.infer", rate=1.0, skip_calls=3, max_faults=2,
                  message="chaos: inference fault (pinned)"),
        # Background transient noise across the whole run.
        FaultSpec("serve.featurize", rate=0.04,
                  message="chaos: featurization fault"),
        FaultSpec("serve.infer", rate=0.04,
                  message="chaos: inference fault"),
        FaultSpec("serve.infer", rate=0.02, action="delay", delay_ms=4.0),
    ], seed=fault_seed)
    config = ServerConfig(max_batch_size=max_batch_size,
                          max_delay_ms=max_delay_ms,
                          queue_depth=len(requests) + n_clients,
                          result_cache_size=0,
                          max_retries=3, retry_backoff_ms=0.5,
                          breaker_threshold=3, breaker_reset_ms=20.0,
                          trace=trace)
    load = LoadConfig(n_clients=n_clients, rate_per_s=None, seed=seed,
                      block=True, faults=schedule, trace=trace)
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(ArtifactStore(tmp))
        registry.publish("chaos-bench", model, dbs=[db], default=True)
        server = PredictorServer(registry, dbs, config)
        with _gc_paused(), server:
            report = run_load(server, requests, load)

    wrong = 0
    for handle in report.handles:
        if handle.status in (RequestStatus.DONE, RequestStatus.CACHED):
            if handle.value != expected[id(handle.plan)]:
                wrong += 1
    stats = report.server_stats
    return {
        "n_requests": report.n_requests,
        "availability": report.availability,
        "wrong_values": wrong,
        "completed": report.completed,
        "degraded": report.degraded,
        "shed": report.shed,
        "failed": report.failed,
        "batcher_crashes": stats["batcher_crashes"],
        "requeued": stats["requeued"],
        "retries": stats["retries"],
        "bisects": stats["bisects"],
        "latency_ms": report.latency_ms,
        "fault_stats": report.fault_stats,
        "latency_attribution": report.latency_attribution,
        "spans": report.spans,
    }


def bench_fleet(db, records, hidden_dim=64, n_clients=4,
                worker_counts=(1, 2, 4), rounds=2, repeats=2,
                max_batch_size=64, max_delay_ms=2.0, spill_threshold=16,
                seed=0):
    """Fleet throughput vs worker count, with a full value audit.

    Publishes one model to a throwaway registry, pre-computes the
    ground-truth predictions with a direct ``predict_runtimes`` call, then
    drives a fresh :class:`~repro.serving.PredictorFleet` at each worker
    count through the load generator in saturation mode.  The result cache
    is disabled so every request pays the real mmap-hydrated inference path
    in a worker process, and **every** delivered value is audited against
    the direct prediction — the fleet equivalence contract says the wrong
    value count must be zero at any worker count, any placement.

    Returns ``(rates, extras)``: ``rates`` maps worker count to the best
    plans/s over ``repeats`` passes; ``extras`` carries per-count latency
    percentiles, mean batch size, spill/restart counts, and the ``fleet.*``
    perfstats counters.  Scaling beyond one worker needs real cores — on a
    single-CPU machine the honest numbers simply show ~1x.
    """
    from repro.bench import ArtifactStore
    from repro.core import TrainingConfig, ZeroShotCostModel
    from repro.serving import (LoadConfig, ModelRegistry, PredictorFleet,
                               RequestStatus, ServerConfig, run_load)

    dbs = {db.name: db}
    graphs = featurize_records(records, dbs, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    model = ZeroShotCostModel(
        ZeroShotModel(hidden_dim=hidden_dim, seed=seed).eval(),
        FeatureScalers().fit(graphs), TargetScaler().fit(runtimes),
        TrainingConfig(hidden_dim=hidden_dim))
    # Row-stable kernels: one direct call is the oracle for every value
    # the fleet produces, regardless of batch composition or placement.
    truth = predict_runtimes(model.model, graphs, model.feature_scalers,
                             model.target_scaler)
    expected = {id(record.plan): float(value)
                for record, value in zip(records, truth)}
    requests = [(db.name, record.plan) for record in records] * rounds
    load = LoadConfig(n_clients=n_clients, rate_per_s=None, seed=seed,
                      block=True)
    config = ServerConfig(max_batch_size=max_batch_size,
                          max_delay_ms=max_delay_ms,
                          queue_depth=len(requests) + n_clients,
                          result_cache_size=0)
    rates, extras = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(ArtifactStore(tmp))
        registry.publish("fleet-bench", model, dbs=[db], default=True)
        for n_workers in worker_counts:
            best_rate, best_extras = 0.0, {}
            for _ in range(repeats):
                # Fresh fleet per pass: fork, mmap hydration and worker
                # cache warm-up are all inside the measured window — the
                # cost a real scale-out/restart pays.
                fleet = PredictorFleet(registry, dbs, config,
                                       n_workers=n_workers,
                                       spill_threshold=spill_threshold)
                with _gc_paused(), fleet:
                    report = run_load(fleet, requests, load)
                    stats = fleet.stats()
                if report.completed != len(requests):
                    raise RuntimeError(
                        f"fleet bench lost requests at {n_workers} "
                        f"workers: {report.as_dict()}")
                wrong = sum(
                    1 for handle in report.handles
                    if handle.status in (RequestStatus.DONE,
                                         RequestStatus.CACHED)
                    and handle.value != expected[id(handle.plan)])
                if wrong:
                    raise RuntimeError(
                        f"fleet bench produced {wrong} wrong values at "
                        f"{n_workers} workers")
                if report.throughput_rps > best_rate:
                    best_rate = report.throughput_rps
                    best_extras = {
                        "mean_batch_size": report.mean_batch_size,
                        "latency_ms": report.latency_ms,
                        "spills": stats["spills"],
                        "worker_restarts": stats["worker_restarts"],
                    }
            rates[n_workers] = best_rate
            extras[f"{n_workers}w"] = best_extras
    extras["fleet_counters"] = perfstats.snapshot(
        ["fleet.worker.spawn", "fleet.worker.restart",
         "fleet.route.hit", "fleet.route.rebalance"])
    extras["fleet_queue_high_water"] = REGISTRY.snapshot()["gauges"].get(
        "fleet.queue.depth", 0.0)
    return rates, extras


_FLEET_CHAOS_COUNTERS = (
    "fleet.hang.detected", "fleet.hang.killed", "fleet.hedge.sent",
    "fleet.hedge.won", "fleet.hedge.wasted", "fleet.worker.restart",
    "fleet.brownout.count", "serve.shed.priority.high",
    "serve.shed.priority.normal", "serve.shed.priority.low",
)


def bench_fleet_chaos(db, records, hidden_dim=64, n_clients=4, rounds=2,
                      n_workers=2, seed=0, fault_seed=1, max_batch_size=16,
                      max_delay_ms=1.0, hang_timeout_ms=500.0,
                      ping_interval_ms=100.0, hedge_after_ms=60.0,
                      overload_queue_depth=32, trace=False):
    """Fleet liveness and overload control under IPC chaos, fully audited.

    Two phases against one published model, both audited against a direct
    ``predict_runtimes`` oracle (the fleet equivalence contract):

    **Phase A — liveness chaos.**  Worker 0 is armed with a deterministic
    per-worker :class:`~repro.robustness.faults.FaultSchedule` that hangs
    it forever mid-run (``fleet.worker.hang``, gray failure: the process
    lives, answers nothing); the router process runs a schedule of pinned
    ``fleet.pipe.send``/``fleet.pipe.recv`` drops plus background send
    delays; the last worker is SIGKILLed outright before the load starts.
    Recovery must come from the new liveness plane: hedged re-sends after
    ``hedge_after_ms``, hang detection + kill after ``hang_timeout_ms``,
    and restart-with-re-send for both corpses.  The phase **fails** on any
    wrong value, any lost or duplicated request, availability < 0.99, or
    when the hang/hedge/restart counters show the machinery did not fire.

    **Phase B — overload control.**  A clean fleet is first saturated to
    measure its capacity, then driven open-loop at 2x that rate with a
    seeded 20/30/50 HIGH/NORMAL/LOW priority mix against a bounded queue
    with a HIGH reserve and LOW brownout.  The phase **fails** when HIGH
    availability drops below 0.99 or when shedding does not concentrate
    on the low-priority classes (per-class numbers from
    ``LoadReport.by_priority``).

    Returns a dict with both phases' reports, the relevant perfstats
    deltas, and a ``failures`` list (empty means the run passed).
    """
    from repro.bench import ArtifactStore
    from repro.core import TrainingConfig, ZeroShotCostModel
    from repro.robustness.faults import FaultSchedule, FaultSpec
    from repro.serving import (LoadConfig, ModelRegistry, PredictorFleet,
                               RequestPriority, RequestStatus, ServerConfig,
                               run_load)

    dbs = {db.name: db}
    graphs = featurize_records(records, dbs, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    model = ZeroShotCostModel(
        ZeroShotModel(hidden_dim=hidden_dim, seed=seed).eval(),
        FeatureScalers().fit(graphs), TargetScaler().fit(runtimes),
        TrainingConfig(hidden_dim=hidden_dim))
    truth = predict_runtimes(model.model, graphs, model.feature_scalers,
                             model.target_scaler)
    expected = {id(record.plan): float(value)
                for record, value in zip(records, truth)}
    requests = [(db.name, record.plan) for record in records] * rounds
    failures = []

    def audit(report, phase):
        wrong = sum(1 for handle in report.handles
                    if handle.status in (RequestStatus.DONE,
                                         RequestStatus.CACHED)
                    and handle.value != expected[id(handle.plan)])
        if wrong:
            failures.append(f"{phase}: {wrong} wrong values (equivalence "
                            "contract broken)")
        lost = sum(1 for handle in report.handles
                   if handle.status is RequestStatus.PENDING)
        if lost:
            failures.append(f"{phase}: {lost} requests never completed")
        if len(report.handles) != len(set(id(h) for h in report.handles)):
            failures.append(f"{phase}: duplicated handles in report")
        return wrong

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(ArtifactStore(tmp))
        registry.publish("fleet-chaos-bench", model, dbs=[db], default=True)

        # -- Phase A: hang + SIGKILL + IPC drops under saturation --------
        worker_faults = {0: FaultSchedule([
            FaultSpec("fleet.worker.hang", rate=1.0, skip_calls=1,
                      max_faults=1, action="hang"),
        ], seed=fault_seed)}
        router_faults = FaultSchedule([
            # Pinned, bounded drops: every run (CI --quick included) loses
            # real messages in both pipe directions; hedging re-ships them.
            FaultSpec("fleet.pipe.send", rate=1.0, skip_calls=5,
                      max_faults=2, action="drop"),
            FaultSpec("fleet.pipe.recv", rate=1.0, skip_calls=7,
                      max_faults=2, action="drop"),
            FaultSpec("fleet.pipe.send", rate=0.02, action="delay",
                      delay_ms=2.0),
        ], seed=fault_seed)
        config = ServerConfig(max_batch_size=max_batch_size,
                              max_delay_ms=max_delay_ms,
                              queue_depth=len(requests) + n_clients,
                              result_cache_size=0,
                              trace=trace)
        load = LoadConfig(n_clients=n_clients, rate_per_s=None, seed=seed,
                          block=True, faults=router_faults, trace=trace)
        before = perfstats.snapshot(_FLEET_CHAOS_COUNTERS)
        fleet = PredictorFleet(registry, dbs, config, n_workers=n_workers,
                               fault_schedule=worker_faults,
                               hang_timeout_ms=hang_timeout_ms,
                               ping_interval_ms=ping_interval_ms,
                               hedge_after_ms=hedge_after_ms)
        with _gc_paused(), fleet:
            # Warm the fleet with one audited request, then murder the
            # last worker outright — crash recovery and hang recovery run
            # in the same window.
            warm = fleet.submit(records[0].plan, db.name, block=True)
            warm.wait(30.0)
            fleet.kill_worker(n_workers - 1)
            report_a = run_load(fleet, requests, load)
            stats_a = fleet.stats()
        counters = {name: value - before.get(name, 0) for name, value
                    in perfstats.snapshot(_FLEET_CHAOS_COUNTERS).items()}
        audit(report_a, "chaos")
        if report_a.availability < 0.99:
            failures.append(
                f"chaos: availability {report_a.availability:.4f} < 0.99")
        if counters["fleet.hang.detected"] < 1:
            failures.append("chaos: hung worker was never detected")
        if counters["fleet.hang.killed"] < 1:
            failures.append("chaos: hung worker was never killed")
        if counters["fleet.hedge.sent"] < 1:
            failures.append("chaos: no hedged requests were sent")
        if counters["fleet.worker.restart"] < 2:
            failures.append(
                f"chaos: {counters['fleet.worker.restart']} restarts "
                "(expected >= 2: one SIGKILL, one hang-kill)")

        # -- Phase B: 2x-saturation overload with mixed priorities -------
        config_b = ServerConfig(max_batch_size=max_batch_size,
                                max_delay_ms=max_delay_ms,
                                queue_depth=overload_queue_depth,
                                result_cache_size=0,
                                high_reserve_fraction=0.25,
                                brownout_fraction=0.5,
                                brownout_degraded=True)
        rng = np.random.default_rng(seed)
        mix = []
        for db_name, plan in requests:
            draw = rng.random()
            priority = (RequestPriority.HIGH if draw < 0.2
                        else RequestPriority.NORMAL if draw < 0.5
                        else RequestPriority.LOW)
            mix.append((db_name, plan, priority))
        fleet = PredictorFleet(registry, dbs, config_b, n_workers=n_workers)
        with _gc_paused(), fleet:
            calibrate = run_load(fleet, requests, LoadConfig(
                n_clients=n_clients, rate_per_s=None, seed=seed, block=True))
            capacity = calibrate.throughput_rps
            report_b = run_load(fleet, mix, LoadConfig(
                n_clients=n_clients, rate_per_s=2.0 * capacity, seed=seed,
                block=False))
        audit(report_b, "overload")
        by_priority = report_b.by_priority
        high = by_priority.get("high", {"availability": 0.0, "shed": 0})
        low = by_priority.get("low", {"shed": 0, "degraded": 0,
                                      "requests": 1})
        normal = by_priority.get("normal", {"shed": 0})
        low_pressure = low.get("shed", 0) + low.get("degraded", 0)
        if high["availability"] < 0.99:
            failures.append(f"overload: HIGH availability "
                            f"{high['availability']:.4f} < 0.99")
        if low_pressure + normal.get("shed", 0) < 1:
            failures.append("overload: 2x saturation never shed or "
                            "browned out a single request")
        if high.get("shed", 0) > low_pressure:
            failures.append(
                f"overload: shedding hit HIGH ({high.get('shed', 0)}) "
                f"harder than LOW ({low_pressure})")

    return {
        "n_requests": len(requests),
        "chaos": {
            "availability": report_a.availability,
            "completed": report_a.completed,
            "degraded": report_a.degraded,
            "failed": report_a.failed,
            "latency_ms": report_a.latency_ms,
            "fault_stats": report_a.fault_stats,
            "worker_fault_injected": stats_a.get("worker_fault_injected",
                                                 {}),
            "hangs": stats_a.get("hangs", 0),
            "hedges": stats_a.get("hedges", 0),
            "hedge_wins": stats_a.get("hedge_wins", 0),
            "worker_restarts": stats_a.get("worker_restarts", 0),
            "requeued": stats_a.get("requeued", 0),
            "latency_attribution": report_a.latency_attribution,
            "spans": report_a.spans,
        },
        "overload": {
            "capacity_rps": capacity,
            "offered_rps": 2.0 * capacity,
            "high_availability": high.get("availability", 0.0),
            "by_priority": by_priority,
        },
        "counters": counters,
        "failures": failures,
    }


def bench_controller(quick=False, pump_rounds=20, trace=False):
    """End-to-end drift scenario through the continuous-learning controller.

    Builds the calibrated three-database world (a small training database,
    a drift database the base model has never seen, and a heavy database
    the *candidate* never learns) and drives the full
    observe -> detect -> retrain -> shadow-evaluate -> promote loop four
    times:

    * **happy path, twice**: traffic shifts to the drift database, the
      controller detects, fine-tunes a candidate from the observed window,
      shadow-evaluates and promotes it, and graduates probation.  The two
      runs must produce *bit-identical* event streams (``replay_identical``)
      and zero rollbacks (``wrong_promotions``);
    * **regression**: post-promotion traffic shifts again to the heavy
      database; the candidate must be auto-rolled-back *inside* the
      probation window;
    * **daemon availability**: the same happy scenario with the controller
      ticking in its supervised background thread while the load generator
      keeps submitting — availability across the whole run (fine-tune
      included) is the headline SLO.

    The scenario is calibration-pinned (thresholds were validated against
    cross-process training jitter), so ``quick`` runs measure the identical
    workload — the flag only bounds the daemon graduation pump.

    Returns a flat metrics dict: detect/promote/graduate ticks,
    ``ticks_to_recover``, ``wrong_promotions``, ``replay_identical``,
    per-phase Q-error summaries (the recovery curve), the regression
    rollback audit, ``availability_during_retrain``, and the happy-path
    event stream.
    """
    import dataclasses
    import time as _time
    from pathlib import Path

    from repro.bench import ArtifactStore
    from repro.core import TrainingConfig, ZeroShotCostModel
    from repro.datagen import generate_database, random_database_spec
    from repro.executor import simulate_runtime_ms_batch
    from repro.serving import (ContinuousLearningController, ControllerConfig,
                               LoadConfig, ModelRegistry, PredictorServer,
                               ServerConfig, run_load)
    from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

    # Same calibrated world as tests/test_controller.py: the base model's
    # Q-error on drift traffic (~3x) clears the 2.0 threshold, the
    # fine-tuned candidate's (~1.3-1.7x) stays under it, and the
    # candidate's on heavy traffic (~4-12x) clears the 2.5 probation
    # threshold — with margin under cross-process training jitter.
    db = generate_database(random_database_spec(
        "ctl_db", seed=31, layout="snowflake", base_rows=400, n_tables=4,
        complexity=0.6))
    drift_db = generate_database(random_database_spec(
        "drift_db", seed=77, layout="star", base_rows=900, n_tables=5,
        complexity=0.9))
    heavy_db = generate_database(random_database_spec(
        "heavy_db", seed=5, layout="star", base_rows=20000, n_tables=6,
        complexity=0.9))
    dbs = {d.name: d for d in (db, drift_db, heavy_db)}
    trace_a = list(generate_trace(db, WorkloadGenerator(
        db, WorkloadConfig(max_joins=1), seed=7).generate(40), seed=7))
    trace_b = list(generate_trace(drift_db, WorkloadGenerator(
        drift_db, WorkloadConfig(min_joins=2, max_joins=4),
        seed=99).generate(120), seed=7))
    trace_c = list(generate_trace(heavy_db, WorkloadGenerator(
        heavy_db, WorkloadConfig(min_joins=3, max_joins=5),
        seed=13).generate(32), seed=7))
    base = ZeroShotCostModel.train(
        [trace_a], dbs, cards="exact",
        config=TrainingConfig(hidden_dim=24, epochs=12, dtype="float32",
                              seed=0))

    config = ControllerConfig(
        truth_seed=7, drift_threshold=2.0, drift_window=16,
        min_observations=8, max_fine_tune_records=16, fine_tune_epochs=20,
        fine_tune_lr=1e-3, shadow_margin=1.05, min_shadow_samples=16,
        probation_observations=64, probation_threshold=2.5,
        max_observations_per_tick=16)
    load = LoadConfig(n_clients=1, block=True)
    phases = [
        ("before", [("ctl_db", r.plan) for r in trace_a[:24]]),
        ("drift", [("drift_db", r.plan) for r in trace_b[:48]]),
        ("recovery", [("drift_db", r.plan) for r in trace_b[48:80]]),
        ("after", [("drift_db", r.plan) for r in trace_b[80:120]]),
    ]
    regression_phases = phases[:3] + [
        ("after", [("heavy_db", r.plan) for r in trace_c]),
    ]

    def stack(tmp, ctl_config=config):
        registry = ModelRegistry(ArtifactStore(tmp))
        registry.publish("zs", base, dbs=list(dbs.values()), default=True)
        server = PredictorServer(
            registry, dbs, ServerConfig(max_batch_size=8, max_delay_ms=1.0,
                                        result_cache_size=0,
                                        trace=trace)).start()
        controller = ContinuousLearningController(registry, server,
                                                  ctl_config)
        return registry, server, controller

    def truth_for(handle):
        return float(simulate_runtime_ms_batch(
            dbs[handle.db_name], [handle.plan], seed=config.truth_seed)[0])

    def run_scenario(tmp, scenario_phases):
        """Synchronous drain-per-phase run; returns (registry, controller,
        per-phase Q-error summaries, spans)."""
        registry, server, controller = stack(tmp)
        q_by_phase = {}
        try:
            with _gc_paused():
                for name, requests in scenario_phases:
                    report = run_load(server, requests, load)
                    controller.drain()
                    q_by_phase[name] = report.compute_q_error_phases(
                        truth_for, {name: (0, len(requests))})[name]
        finally:
            server.stop()
        # Single client + synchronous drain make the span structure (and
        # the trace ids that reach ControllerEvents) replay-deterministic,
        # so the happy-path replay contract holds with tracing on too.
        spans = server.tracer.drain() if server.tracer is not None else []
        return registry, controller, q_by_phase, spans

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # Happy path, twice: the replay contract.
        _, first, q_by_phase, spans = run_scenario(tmp / "happy1", phases)
        _, second, _, _ = run_scenario(tmp / "happy2", phases)
        happy = first.journal.events()
        kinds = [e.kind for e in happy]
        expected_kinds = ["drift-detected", "candidate-published",
                          "promoted", "probation-passed"]
        if kinds != expected_kinds:
            raise RuntimeError(
                f"happy path produced {kinds}, expected {expected_kinds}")
        replay_identical = happy == second.journal.events()
        detect_tick = happy[0].tick
        promote_tick = happy[2].tick
        graduate_tick = happy[3].tick
        wrong_promotions = len(first.journal.events("rolled-back"))

        # Regression: promote, then shift to the heavy database.
        registry_r, regressed, _, _ = run_scenario(tmp / "regression",
                                                   regression_phases)
        rollbacks = regressed.journal.events("rolled-back")
        rollback_detail = dict(rollbacks[0].detail) if rollbacks else {}

        # Daemon availability: the controller ticks (and fine-tunes) in
        # its background thread while load keeps flowing.
        daemon_config = dataclasses.replace(config, cadence_s=0.01)
        registry_d, server_d, daemon = stack(tmp / "daemon", daemon_config)
        submitted = delivered = 0

        def pump(requests):
            nonlocal submitted, delivered
            report = run_load(server_d, requests, load)
            submitted += report.n_requests
            delivered += report.completed + report.cached + report.degraded
            deadline = _time.monotonic() + 30.0
            while len(daemon.tap) and _time.monotonic() < deadline:
                _time.sleep(0.02)

        try:
            with daemon:
                for _, requests in phases[:2]:
                    pump(requests)
                # Promotion can land anywhere inside a phase under a live
                # daemon; keep pumping recovery traffic until probation
                # graduates (bounded).
                rounds = pump_rounds if not quick else min(pump_rounds, 10)
                for _ in range(rounds):
                    if daemon.journal.events("probation-passed"):
                        break
                    pump(phases[2][1])
        finally:
            server_d.stop()
        daemon_stats = daemon.stats()
        wrong_promotions += len(daemon.journal.events("rolled-back"))

    return {
        "detect_tick": detect_tick,
        "promote_tick": promote_tick,
        "graduate_tick": graduate_tick,
        "ticks_to_recover": promote_tick - detect_tick,
        "wrong_promotions": wrong_promotions,
        "replay_identical": replay_identical,
        "candidate_digest": happy[1].digest,
        "q_error_by_phase": q_by_phase,
        "regression": {
            "rolled_back": len(rollbacks) == 1,
            "restored_version": rollback_detail.get("restored_version"),
            "probation_seen": rollback_detail.get("probation_seen"),
            "within_probation": (
                bool(rollbacks)
                and rollback_detail["probation_seen"]
                < config.probation_observations),
            "rollback_median": rollback_detail.get("rolling_median"),
            "active_version_after": registry_r.active("zs").version,
        },
        "availability_during_retrain": (
            delivered / submitted if submitted else 0.0),
        "daemon": {
            "submitted": submitted,
            "delivered": delivered,
            "crashes": daemon_stats["crashes"],
            "graduated": bool(daemon.journal.events("probation-passed")),
            "active_version": registry_d.active("zs").version,
        },
        "events": [e.as_dict() for e in happy],
        "spans": spans,
    }


def bench_obs(db, records, hidden_dim=64, n_clients=4, repeats=3,
              max_batch_size=16, max_delay_ms=1.0, seed=0,
              sample_every=1):
    """Tracing overhead: saturation throughput with spans off vs on.

    Same shape as :func:`bench_serving` — one published model, open-loop
    saturating clients, result cache off so every request pays the model
    path — run ``repeats`` times in *interleaved* off/on pairs so machine
    drift within the bench hits both arms equally.  The traced arm samples
    every ``sample_every``-th request (1 = trace everything, the worst
    case).  Reports the median throughput of each arm, the overhead ratio
    ``1 - traced/untraced``, and the traced arm's span yield: span count,
    per-stage latency attribution (with its coverage fraction — the share
    of end-to-end latency the stages explain) and an SLO report.
    """
    import statistics

    from repro.bench import ArtifactStore
    from repro.core import TrainingConfig, ZeroShotCostModel
    from repro.obs.export import latency_attribution, slo_report
    from repro.serving import (LoadConfig, ModelRegistry, PredictorServer,
                               ServerConfig, run_load)

    dbs = {db.name: db}
    graphs = featurize_records(records, dbs, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    model = ZeroShotCostModel(
        ZeroShotModel(hidden_dim=hidden_dim, seed=seed).eval(),
        FeatureScalers().fit(graphs), TargetScaler().fit(runtimes),
        TrainingConfig(hidden_dim=hidden_dim))
    requests = [(db.name, record.plan) for record in records]
    load = LoadConfig(n_clients=n_clients, rate_per_s=None, seed=seed,
                      block=True)

    def one_pass(traced):
        config = ServerConfig(max_batch_size=max_batch_size,
                              max_delay_ms=max_delay_ms,
                              queue_depth=len(requests) + n_clients,
                              result_cache_size=0,
                              trace=traced,
                              trace_sample_every=sample_every)
        server = PredictorServer(registry, dbs, config)
        with _gc_paused(), server:
            report = run_load(server, requests, load, trace=traced)
        if report.completed != len(requests):
            raise RuntimeError(
                f"obs bench lost requests: {report.as_dict()}")
        return report

    off_rates, on_rates = [], []
    spans, traced_report = [], None
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(ArtifactStore(tmp))
        registry.publish("obs-bench", model, dbs=[db], default=True)
        one_pass(False)  # warm-up: model mmap + first-touch costs
        for _ in range(repeats):
            off_rates.append(one_pass(False).throughput_rps)
            traced_report = one_pass(True)
            on_rates.append(traced_report.throughput_rps)
            spans = traced_report.spans
    off_med = statistics.median(off_rates)
    on_med = statistics.median(on_rates)
    attribution = latency_attribution(spans) if spans else {}
    coverage = attribution.get("overall", {}).get("coverage", 0.0)
    p95 = traced_report.latency_ms.get("p95", 0.0)
    return {
        "untraced_rps": off_med,
        "traced_rps": on_med,
        "overhead_frac": (1.0 - on_med / off_med) if off_med else 0.0,
        "sample_every": sample_every,
        "n_spans": len(spans),
        "attribution_coverage": coverage,
        "latency_attribution": attribution,
        "slo": slo_report(
            delivered=(traced_report.completed + traced_report.cached
                       + traced_report.degraded),
            submitted=traced_report.n_requests,
            availability_floor=0.99,
            latency_p95_ms=p95,
            latency_p95_floor_ms=max(p95 * 2.0, 1.0)),
        "spans": spans,
    }


def run_pipeline_reference(n_queries=192, seed=0):
    """Loop-baseline rates for the pipeline metrics (see --save-loop-baseline)."""
    db, records = build_plan_corpus(n_queries=n_queries, seed=seed)
    exec_db, exec_plans = build_exec_corpus(seed=seed,
                                            **exec_corpus_size(n_queries < 192))
    results = {
        "featurize_plans_per_s": bench_featurization(db, records,
                                                     use_reference=True),
        "annotate_plans_per_s": bench_annotation(db, records,
                                                 use_reference=True),
        "trace_exec_plans_per_s": bench_trace_execution(exec_db, exec_plans,
                                                        use_reference=True),
        "simulate_plans_per_s": bench_runtime_simulation(exec_db, exec_plans,
                                                         use_reference=True),
        "spn_learn_tables_per_s": bench_spn_learning(db, use_reference=True),
    }
    return results


def _stage(name, fn, profile=False):
    """Run one benchmark stage, optionally under cProfile (top-20 printed)."""
    if not profile:
        return fn()
    profiler = cProfile.Profile()
    profiler.enable()
    result = fn()
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats(
        "cumulative").print_stats(20)
    print(f"\n--- profile: {name} (top 20 by cumulative time) ---")
    print(stream.getvalue())
    return result


def run_all(n_queries=192, hidden_dim=64, seed=0, profile=False):
    """Run all microbenchmarks; returns {metric: value}.

    ``profile=True`` additionally prints a cProfile top-20 per stage.
    """
    perfstats.reset()
    db, records = build_plan_corpus(n_queries=n_queries, seed=seed)
    graphs = featurize_records(records, {db.name: db}, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    # The loop references are timed immediately before their fast
    # counterparts: the recorded baseline tracks the trajectory PR over PR,
    # while these same-run rates give a machine-drift-immune speedup.
    # --- stage 0: corpus engine (datagen / execute / learn / simulate) ---
    datagen = _stage("datagen", bench_datagen, profile)
    # Honor the caller's sizing: a --quick run gets a proportionally
    # smaller execution corpus instead of always paying the full one
    # (same sizing rule as run_pipeline_reference, so recorded loop
    # baselines and measured rates always share a corpus scale).
    exec_db, exec_plans = build_exec_corpus(seed=seed,
                                            **exec_corpus_size(n_queries < 192))
    trace_exec_reference = _stage(
        "trace_exec_reference",
        lambda: bench_trace_execution(exec_db, exec_plans,
                                      use_reference=True), profile)
    trace_exec = _stage(
        "trace_exec", lambda: bench_trace_execution(exec_db, exec_plans),
        profile)
    simulate_reference = _stage(
        "simulate_reference",
        lambda: bench_runtime_simulation(exec_db, exec_plans,
                                         use_reference=True), profile)
    simulate = _stage(
        "simulate", lambda: bench_runtime_simulation(exec_db, exec_plans),
        profile)
    spn_learn_reference = _stage(
        "spn_learn_reference",
        lambda: bench_spn_learning(db, use_reference=True), profile)
    spn_learn = _stage("spn_learn", lambda: bench_spn_learning(db), profile)
    featurize_reference = _stage(
        "featurize_reference",
        lambda: bench_featurization(db, records, repeats=3,
                                    use_reference=True), profile)
    featurize = _stage("featurize", lambda: bench_featurization(db, records),
                       profile)
    featurize_cached, feat_cache_stats = _stage(
        "featurize_cached", lambda: bench_featurization_cached(db, records),
        profile)
    annotate_reference = _stage(
        "annotate_reference",
        lambda: bench_annotation(db, records, repeats=2, use_reference=True),
        profile)
    annotate = _stage("annotate", lambda: bench_annotation(db, records),
                      profile)
    batch_construction = _stage(
        "batch_construction", lambda: bench_batch_construction(graphs),
        profile)
    train_step_reference = _stage(
        "train_step_reference",
        lambda: bench_training_step(graphs, runtimes, hidden_dim=hidden_dim,
                                    seed=seed, repeats=2, use_reference=True),
        profile)
    train_step = _stage(
        "train_step",
        lambda: bench_training_step(graphs, runtimes, hidden_dim=hidden_dim,
                                    seed=seed), profile)
    train_epoch_reference = _stage(
        "train_epoch_reference",
        lambda: bench_train_epoch(graphs, runtimes, hidden_dim=hidden_dim,
                                  seed=seed, repeats=2, use_reference=True),
        profile)
    train_epoch = _stage(
        "train_epoch",
        lambda: bench_train_epoch(graphs, runtimes, hidden_dim=hidden_dim,
                                  seed=seed), profile)
    # Run the two inference variants back to back so machine drift cannot
    # skew the cached/uncached comparison.
    inference = _stage(
        "inference",
        lambda: bench_inference(graphs, runtimes, hidden_dim=hidden_dim,
                                seed=seed), profile)
    inference_cached, batch_cache_stats = _stage(
        "inference_cached",
        lambda: bench_inference(graphs, runtimes, hidden_dim=hidden_dim,
                                seed=seed, use_cache=True), profile)
    warm_cold_s, warm_warm_s, warm_store_stats = _stage(
        "experiment_warm_start", bench_experiment_warm_start, profile)
    serving_single, serving_batched, serving_extras = _stage(
        "serving", lambda: bench_serving(db, records, hidden_dim=hidden_dim,
                                         seed=seed), profile)
    fleet_rates, fleet_extras = _stage(
        "fleet", lambda: bench_fleet(db, records, hidden_dim=hidden_dim,
                                     seed=seed), profile)
    fleet_metrics = {f"fleet_{count}w_plans_per_s": rate
                     for count, rate in fleet_rates.items()}
    fleet_scaling = (fleet_rates.get(4, 0.0) / fleet_rates[1]
                     if fleet_rates.get(1) else 0.0)
    return {
        "datagen_tables_per_s": datagen,
        "trace_exec_plans_per_s": trace_exec,
        "trace_exec_reference_plans_per_s": trace_exec_reference,
        "simulate_plans_per_s": simulate,
        "simulate_reference_plans_per_s": simulate_reference,
        "spn_learn_tables_per_s": spn_learn,
        "spn_learn_reference_tables_per_s": spn_learn_reference,
        "featurize_plans_per_s": featurize,
        "annotate_plans_per_s": annotate,
        "featurize_cached_plans_per_s": featurize_cached,
        "featurize_reference_plans_per_s": featurize_reference,
        "annotate_reference_plans_per_s": annotate_reference,
        "batch_construction_plans_per_s": batch_construction,
        "train_step_plans_per_s": train_step,
        "train_step_reference_plans_per_s": train_step_reference,
        "train_epoch_plans_per_s": train_epoch,
        "train_epoch_reference_plans_per_s": train_epoch_reference,
        "inference_plans_per_s": inference,
        "inference_cached_plans_per_s": inference_cached,
        "experiment_cold_s": warm_cold_s,
        "experiment_warm_s": warm_warm_s,
        "experiment_warm_start_speedup": warm_cold_s / warm_warm_s,
        "serving_single_plans_per_s": serving_single,
        "serving_batched_plans_per_s": serving_batched,
        "serving_microbatch_speedup": serving_batched / serving_single,
        "serving_extras": serving_extras,
        **fleet_metrics,
        "fleet_scaling_4w": fleet_scaling,
        "fleet_extras": fleet_extras,
        "n_queries": n_queries,
        "hidden_dim": hidden_dim,
        "cache_stats": {
            "featurization_cache": feat_cache_stats,
            "batch_cache": batch_cache_stats,
            "artifact_store_warm": warm_store_stats,
        },
        "dispatch_counters": perfstats.snapshot(
            ["featurize.vectorized", "featurize.reference",
             "annotate.batched", "annotate.reference",
             "model.graph_free_inference", "optim.flat_step",
             "optim.reference_step", "training.flat_snapshot",
             "execute.trace.plans", "execute.scan_cache.hit",
             "execute.scan_cache.miss", "execute.join_index.hit",
             "execute.join_index.fallback", "simulate.batched",
             "spn.learn.vectorized", "spn.learn.reference",
             "trace.generate.batched", "trace.generate.reference",
             "serve.batch.count", "serve.batch.requests",
             "serve.cache.hit", "serve.cache.miss",
             "serve.shed.count", "serve.swap.count",
             "fleet.worker.spawn", "fleet.worker.restart",
             "fleet.route.hit", "fleet.route.rebalance"]),
    }
