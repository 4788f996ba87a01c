"""The benchmark's workloads: inputs, the timed phases, and their audits.

Every workload is one user session of the paper's system at small scale.
The 20-database benchmark of the paper is generated; four databases are
held out as *unseen* (never executed for training), a zero-shot model is
trained on executed workloads of the other sixteen, and that model then
predicts runtimes on the unseen databases from DeepDB-style cardinality
estimates.  What differs between workloads is which part of the session is
scaled up and timed:

* ``serve_unique`` — an in-process ``PredictorServer`` over the unseen
  databases; every request is a distinct plan, so featurization, batching
  and inference do the work and the result cache only inserts.  Its
  traced run adds one pass through a 2-worker ``PredictorFleet`` with
  repeated plans for the fleet and result-cache layers.
* ``offline_zero_shot`` — the paper's pipeline, cold and in-process,
  repeated: execute the training workloads, featurize and train, then
  learn the unseen databases' SPNs, annotate and predict.

The serving workload runs timed passes of the same pipeline before it
serves (the warm-up pass trains the served model), so every workload
reports every end-to-end metric; the offline workload's request metrics
time single-plan zero-shot predictions through the library API, as an
optimizer embedding the model would call it.

The seed chooses the queries, the request streams and the model's
initialisation; the database contents are the paper's fixed benchmark, so
the figures of two seeds differ by query mix, not by which schema happened
to be drawn.
"""

from __future__ import annotations

import copy
import gc
import math
import os
import shutil
import statistics
import tempfile
import time
import zlib
from collections import namedtuple
from dataclasses import replace
from hashlib import blake2b

import numpy as np

import repro.core.api as core_api
import repro.core.training as training
import repro.workloads.trace as trace_mod
from repro import perfstats
from repro.bench import ArtifactStore
from repro.core import EstimatorCache, TrainingConfig, ZeroShotCostModel
from repro.core.model import ZeroShotModel
from repro.datagen import make_benchmark_databases
from repro.featurization import plan_fingerprint
from repro.obs.metrics import REGISTRY
from repro.serving import (ModelRegistry, PredictorFleet, PredictorServer,
                           RequestStatus, ServerConfig, skewed_requests)
from repro.workloads import WorkloadConfig, WorkloadGenerator

from driver import offer_all, offer_at_rate, percentile
from probes import GcMonitor, LayerProbe, install_layer_probes

# Captured before any probe is installed: the audits' reference calls.
_featurize = core_api.featurize_records
_predict = training.predict_runtimes

UNSEEN_DBS = ("imdb", "baseball", "walmart", "tpc_h")
BASE_ROWS = 2000
HIDDEN_DIM = 48
MAX_JOINS = 3
# Declared Q-error band on the unseen databases (DeepDB cardinalities).  A
# pipeline whose median or p95 leaves it has produced a wrong model.
QERROR_BAND = {"median": (1.0, 1.5), "p95": (1.0, 3.0)}
# Fixed offered rates (requests/s), well below the capacity of each path.
SERVE_RATE = 400.0
FLEET_RATE = 600.0
FLEET_FIXED_RATE_S = 3.0  # after a half-second warm-up: 1800 samples
FLEET_WORKERS = 2
FLEET_POOL_PER_DB = 32
FLEET_WEIGHTS = {"imdb": 0.7, "baseball": 0.1, "walmart": 0.1, "tpc_h": 0.1}
SERVE_POOL_PER_DB = 384  # one fixed-rate round: 1336 timed requests
SATURATION_PASSES = 2    # per round, each on a fresh server
SUCCESS = (RequestStatus.DONE, RequestStatus.CACHED)
TRAIN_QUERIES = 120  # executed queries per training database
EVAL_QUERIES = 80    # zero-shot predicted queries per unseen database
EPOCHS = 10          # fixed: early stopping would make train_s noisy
# The work of a run is fixed by --seconds, not by how fast it goes: one
# timed repetition per this many seconds, at least four, after one
# warm-up.  Equal work gives equal allocation and GC patterns, so a seed
# repeats its tail latencies.  On a shared host the speed of identical
# code drifts by tens of percent over seconds, so every figure is a median
# over repetitions.
SECONDS_PER_PASS = 6.0    # offline_zero_shot: pipeline pass + 1 round
SECONDS_PER_ROUND = 8.0   # serve_unique: a pipeline pass and a round

Record = namedtuple("Record", "db_name plan")


def _seed(seed, *parts):
    return zlib.crc32(":".join(map(str, (seed,) + parts)).encode()) % 2**31


def _median(values):
    return float(statistics.median(values))


class Session:
    """Run-wide state: settings, probe, counters, notes and the workdir."""

    def __init__(self, seed, seconds, traced, featurize_delay_s):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.featurize_delay_s = featurize_delay_s
        self.probe = LayerProbe()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = {}
        self.layer = {}
        self.budget_table = None
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=_work_root())

    def close(self):
        self.probe.restore()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass  # another run still uses it

    def install_probes(self):
        install_layer_probes(self.probe, self.featurize_delay_s,
                             traced=self.traced)

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    def layer_totals(self):
        """Whole-run ``{layer: (calls, items, total_s)}``: this process's
        probes plus what fleet workers shipped back."""
        totals = {layer: row[:3] for layer, row in
                  self.probe.snapshot().items()}
        for layer, row in LayerProbe.worker_totals(
                REGISTRY.snapshot()).items():
            local = totals.get(layer, [0, 0, 0.0])
            totals[layer] = [a + b for a, b in zip(local, row)]
        return totals


def _work_root():
    """Scratch space inside the checkout (removed when the run ends)."""
    root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), ".perfbench_work")
    os.makedirs(root, exist_ok=True)
    return root


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def repeats(seconds, seconds_per_repeat):
    """Timed repetitions of a run of ``seconds``: at least four."""
    return max(4, round(seconds / seconds_per_repeat))


def generate_inputs(seed):
    """Databases plus the seeded training and evaluation queries."""
    dbs = make_benchmark_databases(base_rows=BASE_ROWS)
    config = WorkloadConfig(max_joins=MAX_JOINS)
    queries = {}
    for name, db in dbs.items():
        n = EVAL_QUERIES if name in UNSEEN_DBS else TRAIN_QUERIES
        queries[name] = WorkloadGenerator(
            db, config, seed=_seed(seed, name, "queries")).generate(n)
    return dbs, queries


def execute(dbs, queries, names, seed):
    """Executed traces (``generate_trace``) of the named databases."""
    return {name: trace_mod.generate_trace(dbs[name], queries[name],
                                           seed=_seed(seed, name, "trace"))
            for name in names}


def plans_digest(dbs, plans_by_db):
    """Content digest of generated plans: shows input drift between runs
    (plans depend on the interpreter's hash seed, see BENCHMARK.json)."""
    h = blake2b(digest_size=12)
    for name in sorted(plans_by_db):
        for plan in plans_by_db[name]:
            h.update(plan_fingerprint(dbs[name], plan, "exact"))
    return h.hexdigest()


def q_errors(predicted, actual):
    predicted = np.maximum(np.asarray(predicted, dtype=np.float64), 1e-9)
    actual = np.asarray(actual, dtype=np.float64)
    return np.maximum(predicted / actual, actual / predicted)


# ----------------------------------------------------------------------
# The paper's pipeline (collect -> train -> zero-shot)
# ----------------------------------------------------------------------
def pipeline_pass(dbs, queries, unseen_traces, seed):
    """One cold run of the pipeline; returns stage times and outputs."""
    train_names = [name for name in dbs if name not in UNSEEN_DBS]
    start = time.perf_counter()
    traces = execute(dbs, queries, train_names, seed)
    collected = time.perf_counter()
    records = [r for name in train_names for r in traces[name].records]
    graphs = core_api.featurize_records(records, dbs, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    config = TrainingConfig(hidden_dim=HIDDEN_DIM, epochs=EPOCHS,
                            early_stopping_patience=EPOCHS,
                            seed=_seed(seed, "model"))
    model = ZeroShotModel(hidden_dim=config.hidden_dim,
                          dropout=config.dropout, seed=config.seed)
    scalers, target_scaler, history = training.train_model(
        model, graphs, runtimes, config)
    trained = time.perf_counter()
    eval_records = [r for name in UNSEEN_DBS
                    for r in unseen_traces[name].records]
    estimators = EstimatorCache()
    eval_graphs = core_api.featurize_records(
        eval_records, dbs, cards="deepdb", estimator_cache=estimators)
    predictions = training.predict_runtimes(
        model, eval_graphs, scalers, target_scaler, batch_cache=False)
    finished = time.perf_counter()
    actual = np.array([r.runtime_ms for r in eval_records])
    qerr = q_errors(predictions, actual)
    return {
        "collect_s": collected - start,
        "train_s": trained - collected,
        "zero_shot_s": finished - trained,
        "wall": (start, finished),
        "predictions": predictions,
        "qerror_median": float(np.median(qerr)),
        "qerror_p95": float(np.percentile(qerr, 95)),
        "qerror_beyond_p95": int((qerr > np.percentile(qerr, 95)).sum()),
        "epochs": len(history["train_loss"]),
        "excluded": sum(t.excluded_timeouts for t in traces.values()),
        "n_train": len(records),
        "model": ZeroShotCostModel(model, scalers, target_scaler, config),
        "estimators": estimators,
        "eval_records": eval_records,
    }


class Pipeline:
    """Repeated cold passes of the pipeline, run one at a time so a
    workload can run its other phases between them.  The first pass is a
    warm-up (the first pass in a process runs slower); stage times are
    medians over the timed passes.  Every pass must predict bit-identically
    and inside the declared Q-error band."""

    def __init__(self, session, dbs, queries, unseen_traces):
        self.session = session
        self.dbs = dbs
        self.queries = queries
        self.unseen_traces = unseen_traces
        self.warmup = None
        self.passes = []
        self.probe_totals = {}
        self.counter_totals = {}

    def run_pass(self):
        """One pass; the first is the warm-up.  Returns its result."""
        session = self.session
        # Each pass starts from the same collector state: garbage of what
        # ran before (the previous pass, a single-plan round) is not
        # charged to it.  The collector's settings stay as users get them.
        gc.collect()
        probe0 = session.probe.snapshot()
        counters0 = perfstats.snapshot()
        result = pipeline_pass(self.dbs, self.queries, self.unseen_traces,
                               session.seed)
        session.attempted += 1
        reference = self.warmup or result
        same = np.array_equal(result["predictions"],
                              reference["predictions"])
        if not same:
            session.failed += 1
        session.check(same, "pipeline passes disagree on predictions")
        if self.warmup is None:
            self.warmup = result
            self._check_band(result)
            return result
        _accumulate(self.probe_totals,
                    _delta(session.probe.snapshot(), probe0))
        counters = perfstats.snapshot()
        for name, value in counters.items():
            self.counter_totals[name] = (self.counter_totals.get(name, 0)
                                         + value - counters0.get(name, 0))
        # Only the latest pass's model and estimators are used later.
        self.warmup["model"] = self.warmup["estimators"] = None
        if self.passes:
            self.passes[-1]["model"] = self.passes[-1]["estimators"] = None
        self.passes.append(result)
        return result

    def _check_band(self, first):
        check = self.session.check
        for key in ("median", "p95"):
            low, high = QERROR_BAND[key]
            value = first[f"qerror_{key}"]
            check(low <= value <= high,
                  f"qerror_{key} {value:.3f} outside [{low}, {high}]")
        check(first["qerror_beyond_p95"] >= 10,
              "evaluation set too small for a p95")

    def metrics(self):
        """Stage medians over the timed passes and the Q-error."""
        session, first = self.session, self.warmup
        session.notes["pipeline"] = {
            "warmup_passes": 1, "timed_passes": len(self.passes),
            "train_plans": first["n_train"],
            "eval_plans": len(first["eval_records"]),
            "qerror_beyond_p95": first["qerror_beyond_p95"],
            **{key: [round(p[key], 4) for p in self.passes]
               for key in ("collect_s", "train_s", "zero_shot_s")}}
        metrics = {key: _median([p[key] for p in self.passes])
                   for key in ("collect_s", "train_s", "zero_shot_s")}
        metrics["qerror_median"] = first["qerror_median"]
        metrics["qerror_p95"] = first["qerror_p95"]
        if session.traced:
            _pipeline_layers(session, self.passes, self.counter_totals,
                             self.probe_totals)
        return metrics


def _accumulate(totals, delta):
    for layer, row in delta.items():
        total = totals.setdefault(layer, [0, 0, 0.0, 0.0])
        for i, value in enumerate(row):
            total[i] += value


def _ratio(hits, total):
    return hits / total if total else 0.0


def _delta(after, before):
    return {layer: [a - b for a, b in zip(row, before.get(layer, [0] * 4))]
            for layer, row in after.items()}


def _pipeline_layers(session, passes, counters, probe_totals):
    """Per-layer rows of the timed passes (their probe and counter deltas
    only: the single-plan rounds in between are not counted)."""
    n = len(passes)

    def per_pass_s(layer):
        return probe_totals.get(layer, [0, 0, 0.0, 0.0])[2] / n

    steps = probe_totals.get("nn.adam_step", [0, 0, 0.0, 0.0])
    train = probe_totals.get("core.train", [0, 0, 0.0, 0.0])
    spn = probe_totals.get("cardest.spn_learn", [0, 0, 0.0, 0.0])
    annotate = probe_totals.get("cardest.annotate", [0, 0, 0.0, 0.0])
    scans = counters.get("execute.scan_cache.hit", 0)
    joins = counters.get("execute.join_index.hit", 0)
    session.layer.update({
        "executor.execute_trace_s": per_pass_s("executor.execute"),
        "executor.simulate_s": per_pass_s("executor.simulate"),
        "executor.scan_memo_hit_ratio": _ratio(
            scans, scans + counters.get("execute.scan_cache.miss", 0)),
        "executor.join_index_hit_ratio": _ratio(
            joins, joins + counters.get("execute.join_index.build", 0)
            + counters.get("execute.join_index.fallback", 0)),
        "executor.excluded_plans": float(passes[0]["excluded"]),
        "optimizer.plan_s": per_pass_s("optimizer.plan"),
        "core.train_step_ms": (train[2] / steps[0] * 1e3) if steps[0]
        else 0.0,
        "core.epochs": float(passes[0]["epochs"]),
        "nn.adam_step_us": (steps[2] / steps[0] * 1e6) if steps[0] else 0.0,
        "cardest.spn_learn_s": spn[2] / n,
        "cardest.annotate_us_per_plan": (annotate[2] / annotate[0] * 1e6)
        if annotate[0] else 0.0,
    })


def pipeline_budget(session, passes):
    """Budget rows of the pipeline passes: layer self times (main thread)
    plus ``unattributed``, summing to the passes' wall time."""
    windows = [p["wall"] for p in passes]
    wall = sum(end - start for start, end in windows)
    rows = {}
    for layer, start, end, self_s, thread in session.probe.spans():
        if thread != "MainThread":
            continue
        if any(lo <= start and end <= hi for lo, hi in windows):
            rows[layer] = rows.get(layer, 0.0) + self_s
    rows = {layer: value / len(passes) for layer, value in rows.items()}
    rows["unattributed"] = wall / len(passes) - sum(rows.values())
    return "pipeline pass", wall / len(passes), "s", rows


# ----------------------------------------------------------------------
# Shared serving pieces
# ----------------------------------------------------------------------
def publish(session, model, dbs):
    registry = ModelRegistry(ArtifactStore(os.path.join(session.workdir,
                                                        "registry")))
    registry.publish("zero-shot", model, dbs=list(dbs.values()),
                     default=True)
    return registry


def expected_values(model, dbs, plans_by_key, cards="exact"):
    """The audit's oracle: one direct ``predict_runtimes`` call."""
    keys = list(plans_by_key)
    records = [Record(db_name, plan) for db_name, plan in
               (plans_by_key[key] for key in keys)]
    graphs = _featurize(records, dbs, cards=cards)
    values = _predict(model.model, graphs, model.feature_scalers,
                      model.target_scaler, batch_cache=False)
    return {key: float(value) for key, value in zip(keys, values)}


def _equals(expected):
    """Bit-identity with the direct prediction (equivalence contracts)."""
    return lambda key, value: value == expected[key]


def _peak_rss_mb():
    """Peak resident memory of this process (it starts no children)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _fold_phase(session, phase):
    session.attempted += phase.sent + phase.warmup_sent
    session.failed += phase.failed + phase.warmup_failed
    session.check(phase.wrong == 0,
                  f"{phase.wrong} wrong values in {phase.name}")


def _stage_rows(spans_by_trace, handles):
    """Per-request stage durations (ms) from the program's own spans of
    traced handles.  Time between one recorded stage's end and the next
    one's start (waiting behind other database groups of the same
    micro-batch, batch bookkeeping) is the ``gap`` row."""
    rows = []
    for handle in handles:
        if handle.trace is None:
            continue
        stages = {"gap": 0.0}
        last_end = None
        for name, start, end in sorted(
                spans_by_trace.get(handle.trace.trace_id, ()),
                key=lambda span: span[1]):
            stages[name] = stages.get(name, 0.0) + (end - start) * 1e3
            if last_end is not None and start > last_end:
                stages["gap"] += (start - last_end) * 1e3
            last_end = end if last_end is None else max(last_end, end)
        rows.append(stages)
    return rows


def _spans_by_trace(tracer):
    out = {}
    for span in tracer.spans():
        if span.name != "request":
            out.setdefault(span.trace_id, []).append(
                (span.name, span.start, span.end))
    return out


_STAGE_LAYERS = {"queue": "serving.queue", "cache": "serving.cache",
                 "worker.recv": "fleet.pipe", "coalesce": "fleet.coalesce",
                 "featurize": "featurization.featurize",
                 "infer": "core.infer", "backoff": "serving.retry",
                 "gap": "serving.batch_wait", "deliver": "serving.deliver"}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _datagen_layer(session, generations):
    if session.traced:
        calls = session.layer_totals().get("datagen.generate", (0, 0, 0.0))
        session.layer["datagen.generate_s"] = calls[2] / generations


def _pool(dbs, unseen_traces, seed):
    """``SERVE_POOL_PER_DB + 1`` distinct executed plans per unseen
    database (the first one of each is kept back for warm-up)."""
    pool = {}
    for name in UNSEEN_DBS:
        queries = WorkloadGenerator(
            dbs[name], WorkloadConfig(max_joins=MAX_JOINS),
            seed=_seed(seed, name, "requests")).generate(
                SERVE_POOL_PER_DB + 16)
        trace = trace_mod.generate_trace(
            dbs[name], queries, seed=_seed(seed, name, "requests"))
        plans = ([r.plan for r in unseen_traces[name].records]
                 + [r.plan for r in trace.records])
        seen, distinct = set(), []
        for plan in plans:
            digest = plan_fingerprint(dbs[name], plan, "exact")
            if digest not in seen:
                seen.add(digest)
                distinct.append(plan)
        pool[name] = distinct[:SERVE_POOL_PER_DB + 1]
    return pool


def _served(dbs):
    return {name: dbs[name] for name in UNSEEN_DBS}


def serve_unique(session):
    """Timed pipeline passes (the served model is the warm-up pass's),
    then serving rounds over the unseen databases.  The pipeline's inputs
    and passes are dropped before serving: the garbage collector of a
    serving process does not walk a training corpus."""
    dbs, queries = generate_inputs(session.seed)
    _datagen_layer(session, 1)
    unseen = execute(dbs, queries, UNSEEN_DBS, session.seed)
    pipeline = Pipeline(session, dbs, queries, unseen)
    model = pipeline.run_pass()["model"]
    for _ in range(repeats(session.seconds, SECONDS_PER_ROUND)):
        pipeline.run_pass()
    metrics = pipeline.metrics()
    del pipeline
    served = _served(dbs)
    pool = _pool(dbs, unseen, session.seed)
    del dbs, queries, unseen
    session.notes["inputs_digest"] = plans_digest(served, pool)
    warm = {("warm", name): (name, plans[0]) for name, plans in pool.items()}
    keyed = {(name, i): (name, plan) for name, plans in pool.items()
             for i, plan in enumerate(plans[1:])}
    # Interleave databases so every batch mixes them.
    order = sorted(keyed, key=lambda key: (key[1], key[0]))
    stream = [(keyed[key][0], keyed[key][1], key) for key in order]
    expected = expected_values(model, served, {**keyed, **warm})
    valid = _equals(expected)
    registry = publish(session, model, served)
    config = ServerConfig(max_batch_size=64, max_delay_ms=2.0,
                          queue_depth=len(stream) + 64,
                          result_cache_size=4096, cards="exact")

    def start(traced):
        # A fresh registry handle: the server hydrates its model from disk,
        # as a newly started serving process would.
        begin = time.perf_counter()
        server = PredictorServer(ModelRegistry(registry.store),
                                 served, replace(config, trace=traced))
        server.start()
        for key, (name, plan) in warm.items():
            value = server.submit(plan, name).result(timeout=60)
            session.check(value == expected[key], "wrong warm-up value")
        return server, time.perf_counter() - begin

    gc.collect()  # the pipeline's garbage is not charged to serving
    _serving_rounds(session, metrics, stream, valid, start)
    if session.traced:
        _fleet_pass(session, registry, served, config, pool, warm, keyed,
                    valid)
    return metrics


# Per-layer rows a traced run takes from the fleet pass.
_FLEET_ROWS = ("fleet.pipe_ms_p50", "fleet.pipe_ms_p99", "fleet.coalesce_ms",
               "fleet.route_hit_ratio", "fleet.recompute_share",
               "fleet.restarts", "fleet.hedges", "serving.cache_hit_ratio",
               "registry.hydrate_s",
               "featurization.fingerprint_calls_per_req",
               "featurization.fingerprint_us_per_req")


def _fleet_pass(session, registry, served, config, pool, warm, keyed, valid):
    """Traced runs only: one fixed-rate pass through a 2-worker
    ``PredictorFleet`` for the fleet, result-cache and fingerprint rows.

    Requests are copies (equal content, distinct objects) of a 128-plan
    subset of the pool with one hot database, so the router digest, the
    pipes and the workers' result caches do the work.  The fleet's
    end-to-end tail varies too much from run to run on two CPUs (its
    router threads and workers contend for them) to serve as a workload
    of its own; its layers are measured here.
    """
    key_of = {id(plan): (name, i) for name, plans in pool.items()
              for i, plan in enumerate(plans[1:FLEET_POOL_PER_DB + 1])}
    by_db = {name: [(name, plan) for plan in plans[1:FLEET_POOL_PER_DB + 1]]
             for name, plans in pool.items()}
    warmup = int(FLEET_RATE * 0.5)
    mix = skewed_requests(by_db, FLEET_WEIGHTS,
                          int(FLEET_RATE * FLEET_FIXED_RATE_S) + warmup,
                          seed=_seed(session.seed, "mix"))
    stream = [(name, copy.deepcopy(plan), key_of[id(plan)])
              for name, plan in mix]
    windows = _TracedWindows(session.probe)
    fleet = PredictorFleet(registry, served, replace(config, trace=True),
                           n_workers=FLEET_WORKERS)
    fleet.start()
    try:
        for name, plan in warm.values():
            fleet.submit(plan, name).result(timeout=60)
        windows.begin()
        with GcMonitor() as gc_monitor:
            phase = offer_at_rate(fleet, stream, FLEET_RATE, warmup, valid,
                                  SUCCESS, name="fleet_fixed_rate")
        stats = fleet.stats()
        windows.end(phase, fleet.tracer, gc_monitor.pauses_ms)
    finally:
        fleet.close()
    _collect_dead_server()
    _fold_phase(session, phase)
    session.check(stats["unresponsive_workers"] == 0,
                  "a fleet worker did not answer")
    distinct = len({key for _, _, key in stream}) + len(warm)
    rows = _serving_layer_metrics(windows, [phase], [stats], [distinct])
    session.layer.update({name: rows[name] for name in _FLEET_ROWS})
    session.notes["fleet_pass"] = phase.summary()


class _TracedWindows:
    """Per-layer numbers of the measured fixed-rate phases of a traced run:
    local probe totals, worker totals shipped through the metrics
    registry, program spans per request, client-thread fingerprint time
    and GC pauses."""

    def __init__(self, probe):
        self.probe = probe
        self.local = {}
        self.remote = {}
        self.client_ms = {}
        self.stage_rows = []
        self.gc_pauses = []
        self.counters = {}
        self._registry0 = None

    def begin(self):
        self._t0 = time.perf_counter()
        self._local0 = self.probe.snapshot()
        self._registry0 = REGISTRY.snapshot()

    def end(self, phase, tracer, gc_pauses):
        _accumulate(self.local, _delta(self.probe.snapshot(), self._local0))
        before = LayerProbe.worker_totals(self._registry0)
        for layer, row in LayerProbe.worker_totals(
                REGISTRY.snapshot()).items():
            old = before.get(layer, [0, 0, 0.0])
            total = self.remote.setdefault(layer, [0, 0, 0.0])
            for i, value in enumerate(row):
                total[i] += value - old[i]
        counters0 = self._registry0["counters"]
        for name, value in REGISTRY.snapshot()["counters"].items():
            self.counters[name] = (self.counters.get(name, 0) + value
                                   - counters0.get(name, 0))
        for layer, start, _, self_s, thread in self.probe.spans():
            if start >= self._t0 and thread.startswith("perfbench-client"):
                self.client_ms[layer] = (self.client_ms.get(layer, 0.0)
                                         + self_s * 1e3)
        self.stage_rows.extend(_stage_rows(_spans_by_trace(tracer),
                                           phase.handles))
        self.gc_pauses.extend(gc_pauses)

    def layer(self, name):
        """(calls, items, total_s) over this process and the workers."""
        local = self.local.get(name, [0, 0, 0.0, 0.0])
        remote = self.remote.get(name, [0, 0, 0.0])
        return (local[0] + remote[0], local[1] + remote[1],
                local[2] + remote[2])


def _per(value, count, scale=1.0):
    return value * scale / count if count else 0.0


def _serving_layer_metrics(windows, phases, stats_list, distinct_per_round):
    rows = windows.stage_rows
    n = sum(p.sent + p.warmup_sent for p in phases)
    queue = [r["queue"] for r in rows if "queue" in r]
    pipe = [r["worker.recv"] for r in rows if "worker.recv" in r]
    coalesce = [r["coalesce"] for r in rows if "coalesce" in r]
    completed = sum(s["completed"] for s in stats_list)
    cached = sum(s["cached"] for s in stats_list)
    recomputed = sum(max(0, s["completed"] - distinct)
                     for s, distinct in zip(stats_list, distinct_per_round))
    fp_calls, _, fp_s = windows.layer("featurization.fingerprint")
    _, _, key_s = windows.layer("featurization.cache_key")
    lookups, hits, _ = windows.layer("featurization.feat_cache")
    _, feat_items, feat_s = windows.layer("featurization.featurize")
    _, batch_items, batch_s = windows.layer("featurization.make_batch")
    _, infer_items, infer_s = windows.layer("core.infer")
    route_hit = windows.counters.get("fleet.route.hit", 0)
    route_all = route_hit + windows.counters.get("fleet.route.rebalance", 0)
    hydrate_calls, _, hydrate_s = windows.layer("registry.hydrate")
    return {
        "serving.submit_us": statistics.fmean(
            v for p in phases for v in p.submit_us),
        "serving.queue_ms_p50": percentile(queue, 50) if queue else 0.0,
        "serving.queue_ms_p99": percentile(queue, 99) if queue else 0.0,
        "serving.batch_size_mean": statistics.fmean(
            s["mean_batch_size"] for s in stats_list),
        "serving.cache_hit_ratio": _ratio(cached, completed + cached),
        "fleet.pipe_ms_p50": percentile(pipe, 50) if pipe else 0.0,
        "fleet.pipe_ms_p99": percentile(pipe, 99) if pipe else 0.0,
        "fleet.coalesce_ms": statistics.fmean(coalesce) if coalesce
        else 0.0,
        "fleet.route_hit_ratio": _ratio(route_hit, route_all),
        "fleet.recompute_share": _per(recomputed, n),
        "fleet.restarts": float(sum(s.get("worker_restarts", 0)
                                    for s in stats_list)),
        "fleet.hedges": float(sum(s.get("hedges", 0) for s in stats_list)),
        "registry.hydrate_s": _per(hydrate_s, hydrate_calls),
        "featurization.fingerprint_calls_per_req": _per(fp_calls, n),
        "featurization.fingerprint_us_per_req": _per(fp_s + key_s, n, 1e6),
        "featurization.featurize_us_per_plan": _per(feat_s, feat_items, 1e6),
        "featurization.feat_cache_hit_ratio": _ratio(hits, lookups),
        "featurization.make_batch_us_per_plan": _per(batch_s, batch_items,
                                                     1e6),
        "core.infer_us_per_plan": _per(infer_s, infer_items, 1e6),
        "runtime.gc_pause_ms_max": max(windows.gc_pauses, default=0.0),
        "runtime.gc_pause_ms_total": sum(windows.gc_pauses),
    }


def _serving_budget(windows, phases):
    """Budget of the mean request latency (ms, from the scheduled send
    time): generator lateness, the program's own serving stages (client
    fingerprint time split out of ``queue``, ``make_batch`` out of
    ``infer`` by its measured share), and ``unattributed``."""
    rows_in = windows.stage_rows
    n = len(rows_in)
    latencies = [v for p in phases for v in p.latencies_ms]
    rows = {"driver.lateness": statistics.fmean(
        v for p in phases for v in p.lateness_ms)}
    for stage, layer in _STAGE_LAYERS.items():
        total = sum(r.get(stage, 0.0) for r in rows_in)
        if total:
            rows[layer] = rows.get(layer, 0.0) + total / n
    for layer, total_ms in windows.client_ms.items():
        share = total_ms / n
        rows[layer] = rows.get(layer, 0.0) + share
        rows["serving.queue"] = rows.get("serving.queue", 0.0) - share
    _, _, batch_s = windows.layer("featurization.make_batch")
    _, _, infer_s = windows.layer("core.infer")
    if infer_s and "core.infer" in rows:
        split = rows["core.infer"] * min(1.0, batch_s / infer_s)
        rows["featurization.make_batch"] = split
        rows["core.infer"] -= split
    e2e = statistics.fmean(latencies)
    rows["unattributed"] = e2e - sum(rows.values())
    return "mean request latency", e2e, "ms", rows


def _serving_rounds(session, metrics, stream, valid, start):
    """Rounds of saturation passes and a fixed-rate pass over ``stream``,
    each pass on a freshly constructed server."""
    setups, throughputs, cpu_per_req, phases, stats_list = [], [], [], [], []
    windows = _TracedWindows(session.probe)
    warmup = int(SERVE_RATE * 0.5)
    rounds = repeats(session.seconds, SECONDS_PER_ROUND)
    for _ in range(rounds):
        for _ in range(SATURATION_PASSES):
            rps, setup_s = _saturation(session, start, stream, valid,
                                       traced=session.traced)
            throughputs.append(rps)
            setups.append(setup_s)
        server, setup_s = start(session.traced)
        try:
            setups.append(setup_s)
            if session.traced:
                windows.begin()
            cpu0 = time.process_time()
            with GcMonitor() as gc_monitor:
                phase = offer_at_rate(server, stream, SERVE_RATE, warmup,
                                      valid, SUCCESS)
            cpu = time.process_time() - cpu0
            stats = server.stats()
        finally:
            server.close()
        _collect_dead_server()
        _fold_phase(session, phase)
        phase.gc_pauses_ms = gc_monitor.pauses_ms
        phases.append(phase)
        stats_list.append(stats)
        cpu_per_req.append(cpu * 1e3 / (phase.sent + phase.warmup_sent))
        if session.traced:
            windows.end(phase, server.tracer, gc_monitor.pauses_ms)
        phase.handles = []
    latencies = [v for p in phases for v in p.latencies_ms]
    session.check(len(latencies) >= 1000,
                  "too few latency samples for a p99")
    metrics.update({
        "setup_s": _median(setups),
        "throughput_rps": _median(throughputs),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "cpu_ms_per_req": _median(cpu_per_req),
        "peak_rss_mb": _peak_rss_mb(),
    })
    session.notes["fixed_rate"] = {
        "rounds": rounds, "rate_per_s": SERVE_RATE,
        "phases": [dict(p.summary(), gc_pause_ms_max=max(
            p.gc_pauses_ms, default=0.0)) for p in phases]}
    if session.traced:
        # Tracing overhead: untraced saturation passes on the same
        # process, after the traced ones (the first passes in a process
        # run slower).
        session.probe.restore()
        reference_rps = _median([
            _saturation(session, start, stream, valid, traced=False)[0]
            for _ in range(SATURATION_PASSES)])
        session.install_probes()
        distinct = [len(stream) + 4] * rounds
        session.layer.update(_serving_layer_metrics(
            windows, phases, stats_list, distinct))
        session.layer["trace.overhead_pct"] = 100.0 * (
            1.0 - metrics["throughput_rps"] / reference_rps)
        session.budget_table = _serving_budget(windows, phases)
    return metrics


def _collect_dead_server():
    """Free a closed server's reference cycles before the next phase.

    Every pass builds a fresh server; left to the cyclic GC, the dead ones
    pile up and a later phase pays a full collection over all of them,
    which a long-running server process never does.  The collector's
    settings stay as users get them.
    """
    gc.collect()


def _saturation(session, start, stream, valid, traced):
    server, setup_s = start(traced)
    try:
        phase = offer_all(server, stream, valid, SUCCESS)
    finally:
        server.close()
    _collect_dead_server()
    _fold_phase(session, phase)
    return phase.succeeded / phase.wall_s, setup_s


# ----------------------------------------------------------------------
# offline_zero_shot
# ----------------------------------------------------------------------
class _Done:
    """Completed-request handle of :class:`DirectPredictor`."""

    __slots__ = ("status", "value", "completed_at")

    def __init__(self, value):
        self.status = RequestStatus.DONE
        self.value = value
        self.completed_at = time.perf_counter()

    def wait(self, timeout=None):
        return True


class DirectPredictor:
    """Zero-shot prediction of one plan through the library API, in the
    caller's thread: DeepDB annotation, featurization and inference, as
    an optimizer embedding the model calls it (no serving layer).  Driven
    from one thread: the estimators are not shared between threads."""

    def __init__(self, model, dbs, estimators):
        self.model = model
        self.dbs = dbs
        self.estimators = estimators

    def submit(self, plan, db_name, block=False):
        graphs = core_api.featurize_records(
            [Record(db_name, plan)], self.dbs, cards="deepdb",
            estimator_cache=self.estimators)
        value = training.predict_runtimes(
            self.model.model, graphs, self.model.feature_scalers,
            self.model.target_scaler, batch_cache=False)
        return _Done(float(value[0]))


def offline_zero_shot(session):
    setups = []
    for _ in range(3):
        begin = time.perf_counter()
        dbs, queries = generate_inputs(session.seed)
        setups.append(time.perf_counter() - begin)
        fingerprints = [db.fingerprint() for db in dbs.values()]
        if len(setups) > 1:
            session.check(fingerprints == first_fingerprints,
                          "database generation is not deterministic")
        first_fingerprints = fingerprints
    _datagen_layer(session, len(setups))
    unseen = execute(dbs, queries, UNSEEN_DBS, session.seed)
    session.notes["inputs_digest"] = plans_digest(
        dbs, {name: [r.plan for r in unseen[name].records]
              for name in UNSEEN_DBS})

    # Single-plan zero-shot predictions on the unseen databases, back to
    # back from one caller: the library path has no queue, so a request's
    # latency is its service time.  One round follows every pipeline pass
    # (the warm-up pass's round is a warm-up too), so the rounds sample
    # the whole run.  DeepDB estimates sample, so repeating a plan's
    # annotation may change the last digits: the audit is a finite
    # positive value per request and the Q-error band over all of them.
    def valid(key, value):
        return math.isfinite(value) and value > 0

    rounds, values, actual, gc_pauses = [], [], [], []
    cpu = [0.0]

    def single_plan_round(result, timed):
        records = result["eval_records"]
        predictor = DirectPredictor(result["model"], dbs,
                                    result["estimators"])
        stream = [(r.db_name, r.plan, i) for i, r in enumerate(records)]
        gc.collect()
        cpu0 = time.process_time()
        with GcMonitor() as gc_monitor:
            phase = offer_all(predictor, stream, valid, SUCCESS,
                              n_threads=1, name="single_plan")
        cpu_s = time.process_time() - cpu0
        _fold_phase(session, phase)
        if not timed:
            return
        cpu[0] += cpu_s
        gc_pauses.extend(gc_monitor.pauses_ms)
        rounds.append(phase)
        values.extend(h.value for h in phase.handles)
        actual.extend(r.runtime_ms for r in records)

    pipeline = Pipeline(session, dbs, queries, unseen)
    single_plan_round(pipeline.run_pass(), timed=False)
    for _ in range(repeats(session.seconds, SECONDS_PER_PASS)):
        single_plan_round(pipeline.run_pass(), timed=True)
    metrics = pipeline.metrics()
    passes = pipeline.passes
    if session.traced:
        session.budget_table = pipeline_budget(session, passes)
        # Tracing overhead: an untraced pass after the traced ones.
        session.probe.restore()
        gc.collect()
        reference = pipeline_pass(dbs, queries, unseen, session.seed)
        session.install_probes()
        traced_s = _median([p["wall"][1] - p["wall"][0] for p in passes])
        session.layer["trace.overhead_pct"] = 100.0 * (
            traced_s / (reference["wall"][1] - reference["wall"][0]) - 1.0)
    metrics["setup_s"] = _median(setups)
    latencies = [v for p in rounds for v in p.latencies_ms]
    session.check(len(latencies) >= 1000,
                  "too few latency samples for a p99")
    direct = float(np.median(q_errors(values, actual)))
    low, high = QERROR_BAND["median"]
    session.check(low <= direct <= high,
                  f"single-plan qerror median {direct:.3f} outside band")
    metrics.update({
        "throughput_rps": _median([p.succeeded / p.wall_s for p in rounds]),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "cpu_ms_per_req": cpu[0] * 1e3 / len(latencies),
        "peak_rss_mb": _peak_rss_mb(),
    })
    session.notes["single_plan"] = {
        "rounds": len(rounds), "latency_samples": len(latencies),
        "qerror_median": direct}
    if session.traced:
        session.layer.update(_offline_request_layers(session))
        session.layer["runtime.gc_pause_ms_max"] = max(gc_pauses,
                                                       default=0.0)
        session.layer["runtime.gc_pause_ms_total"] = sum(gc_pauses)
    return metrics


def _offline_request_layers(session):
    """Featurize, batch and inference cost per plan over the whole run.
    The serving and fleet rows have no work on this workload and read 0."""
    totals = session.layer_totals()
    _, feat_items, feat_s = totals.get("featurization.featurize",
                                       (0, 0, 0.0))
    _, batch_items, batch_s = totals.get("featurization.make_batch",
                                         (0, 0, 0.0))
    _, infer_items, infer_s = totals.get("core.infer", (0, 0, 0.0))
    return {"featurization.featurize_us_per_plan": _per(feat_s, feat_items,
                                                        1e6),
            "featurization.make_batch_us_per_plan": _per(batch_s,
                                                         batch_items, 1e6),
            "core.infer_us_per_plan": _per(infer_s, infer_items, 1e6)}


WORKLOADS = {"serve_unique": serve_unique,
             "offline_zero_shot": offline_zero_shot}
