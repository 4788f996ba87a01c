"""Fleet serving: sharding router, forked workers, mmap-shared checkpoints.

The load-bearing contract is *fleet equivalence*: for any request mix, any
shard placement and any worker count, every ``DONE``/``CACHED`` value is
bit-identical to a direct ``predict_runtimes`` call on the same model —
including across worker kills and restarts.  These tests pin that down,
plus the transport underneath it: the long-lived ``WorkerProcess`` pipe
protocol, the registry's mmap hydration path (one page-cache copy per
checkpoint, content-address verified, safe under concurrent
materialization from many processes), supervision (SIGKILL a worker
mid-load — no handle lost, none answered twice), and cross-process
hot-swap on ``registry.generation`` changes.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro import perfstats
from repro.bench.parallel import WorkerProcess
from repro.core import TrainingConfig, ZeroShotCostModel, featurize_records
from repro.core.model import ZeroShotModel
from repro.core.training import predict_runtimes
from repro.datagen import generate_database, random_database_spec
from repro.featurization import FeatureScalers, TargetScaler, database_digest
from repro.obs.metrics import REGISTRY
from repro.serving import (LoadConfig, ModelRegistry, PredictorFleet,
                           RequestStatus, ServerConfig, run_load,
                           skewed_requests)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the serving fleet requires the fork start method")


# ----------------------------------------------------------------------
# Shared world: two databases, executed workloads, a model over both
# ----------------------------------------------------------------------
def _make_db(name, seed, base_rows=500):
    spec = random_database_spec(name, seed=seed, layout="snowflake",
                                base_rows=base_rows, n_tables=4,
                                complexity=0.6)
    return generate_database(spec)


def _make_trace(db, n, seed):
    queries = WorkloadGenerator(db, WorkloadConfig(max_joins=2),
                                seed=seed).generate(n)
    return list(generate_trace(db, queries, seed=seed))


def _make_model(graphs, runtimes, seed=0, hidden_dim=24, dtype="float32"):
    model = ZeroShotModel(hidden_dim=hidden_dim, seed=seed).eval()
    model.to(np.dtype(dtype))
    return ZeroShotCostModel(model, FeatureScalers().fit(graphs),
                             TargetScaler().fit(runtimes),
                             TrainingConfig(hidden_dim=hidden_dim,
                                            dtype=dtype))


def _direct(model, graphs):
    return predict_runtimes(model.model, graphs, model.feature_scalers,
                            model.target_scaler, batch_cache=False)


@pytest.fixture(scope="module")
def world():
    db_a = _make_db("fleet_a", seed=31)
    db_b = _make_db("fleet_b", seed=32)
    dbs = {db_a.name: db_a, db_b.name: db_b}
    records_a = _make_trace(db_a, 16, seed=7)
    records_b = _make_trace(db_b, 10, seed=8)
    graphs_a = featurize_records(records_a, dbs, cards="exact")
    graphs_b = featurize_records(records_b, dbs, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records_a + records_b])
    model = _make_model(graphs_a + graphs_b, runtimes, seed=0)
    return {
        "dbs": dbs, "db_a": db_a, "db_b": db_b,
        "records_a": records_a, "records_b": records_b,
        "graphs_a": graphs_a, "graphs_b": graphs_b,
        "graphs_all": graphs_a + graphs_b, "runtimes": runtimes,
        "model": model,
        "expected_a": _direct(model, graphs_a),
        "expected_b": _direct(model, graphs_b),
    }


def _registry_with(world, root, model=None):
    registry = ModelRegistry(root)
    registry.publish("main", model or world["model"],
                     dbs=[world["db_a"], world["db_b"]], default=True)
    return registry


# ----------------------------------------------------------------------
# WorkerProcess: the long-lived forked worker + duplex pipe
# ----------------------------------------------------------------------
def _echo_worker(conn, tag):
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message == "die":
            os._exit(3)
        conn.send((tag, message))


class TestWorkerProcess:
    def test_echo_roundtrip(self):
        wp = WorkerProcess(_echo_worker, args=("w0",)).start()
        try:
            wp.send("ping")
            assert wp.recv() == ("w0", "ping")
            assert wp.alive
        finally:
            wp.stop()
        assert not wp.alive

    def test_death_is_observable_and_restart_recovers(self):
        wp = WorkerProcess(_echo_worker, args=("w1",)).start()
        try:
            wp.send("die")
            # Death surfaces on the selectable sentinel and as EOF on the
            # pipe — never as a silent hang.
            multiprocessing.connection.wait([wp.sentinel], timeout=10.0)
            wp.process.join(timeout=10.0)
            assert not wp.alive
            assert wp.exitcode == 3
            with pytest.raises((EOFError, OSError)):
                while True:
                    wp.recv()
            wp.restart()
            assert wp.restarts == 1
            wp.send("back")
            assert wp.recv() == ("w1", "back")
        finally:
            wp.stop()

    def test_stop_is_idempotent_and_never_hangs(self):
        wp = WorkerProcess(_echo_worker, args=("w2",)).start()
        wp.stop(timeout=5.0)
        wp.stop(timeout=5.0)
        assert wp.process is None and wp.conn is None


# ----------------------------------------------------------------------
# mmap hydration: one on-disk extraction, verified, race-safe
# ----------------------------------------------------------------------
def _hydrate_child(root, barrier, queue):
    try:
        barrier.wait(timeout=20)
        registry = ModelRegistry(root)  # fresh instance: disk state only
        model = registry.load_mmap()
        queue.put(("ok", model.state_digest()))
    except BaseException as exc:  # noqa: BLE001 - report, parent asserts
        queue.put(("err", repr(exc)))


class TestMmapHydration:
    def test_load_mmap_bit_identical_and_read_only(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        plain = registry.load()
        mapped = registry.load_mmap()
        np.testing.assert_array_equal(_direct(mapped, world["graphs_all"]),
                                      _direct(plain, world["graphs_all"]))
        params = list(mapped.model.parameters())
        assert params
        for param in params:
            assert not param.data.flags.writeable
            assert isinstance(param.data.base, np.memmap)
        # Verified content address: the mapped model digests to its key.
        assert mapped.state_digest() == registry.active("main").checkpoint_key
        # Memoized: a second load returns the same hydrated object.
        assert registry.load_mmap() is mapped

    def test_concurrent_hydration_from_many_processes(self, world, tmp_path):
        """N processes race to materialize the same checkpoint: every one
        must hydrate a digest-verified model (temp-dir + rename makes the
        extraction atomic — no process can observe a torn manifest), and
        no temp debris survives."""
        registry = _registry_with(world, tmp_path)
        key = registry.active("main").checkpoint_key
        context = multiprocessing.get_context("fork")
        n = 4
        barrier = context.Barrier(n)
        queue = context.Queue()
        processes = [context.Process(target=_hydrate_child,
                                     args=(tmp_path, barrier, queue),
                                     daemon=True)
                     for _ in range(n)]
        for process in processes:
            process.start()
        outcomes = [queue.get(timeout=60) for _ in range(n)]
        for process in processes:
            process.join(timeout=10)
        assert outcomes == [("ok", key)] * n
        mmap_dir = registry.mmap_dir(key)
        assert (mmap_dir / "manifest.json").exists()
        leftovers = [p for p in mmap_dir.parent.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []


# ----------------------------------------------------------------------
# Fleet equivalence: any worker count, any placement, same bits
# ----------------------------------------------------------------------
class TestFleetEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_bit_identical_to_direct_prediction(self, world, tmp_path,
                                                n_workers):
        registry = _registry_with(world, tmp_path)
        plans_a = [r.plan for r in world["records_a"]]
        plans_b = [r.plan for r in world["records_b"]]
        with PredictorFleet(registry, world["dbs"],
                            n_workers=n_workers) as fleet:
            got_a = fleet.predict(plans_a, world["db_a"].name)
            got_b = fleet.predict(plans_b, world["db_b"].name)
            # Repeat round: answered from worker result caches (CACHED),
            # same bits by construction — but verify anyway.
            again_a = fleet.predict(plans_a, world["db_a"].name)
            stats = fleet.stats()
        np.testing.assert_array_equal(got_a, world["expected_a"])
        np.testing.assert_array_equal(got_b, world["expected_b"])
        np.testing.assert_array_equal(again_a, world["expected_a"])
        assert stats["workers"] == n_workers
        assert stats["cached"] > 0
        assert stats["failed"] == 0 and stats["shed"] == 0

    def test_router_hashes_once_workers_never(self, world, tmp_path,
                                              digest_calls):
        """The router's ingress digest is the pipe token and the workers'
        featurization-cache key: one hash per fresh plan object at the
        router, none in any worker, none for a resubmitted object."""
        registry = _registry_with(world, tmp_path)
        plans_a = [r.plan for r in world["records_a"]]
        plans_b = [r.plan for r in world["records_b"]]
        batches = REGISTRY.counter_values(["serve.batch.count"])
        with PredictorFleet(registry, world["dbs"], n_workers=2) as fleet:
            got_a = fleet.predict(plans_a, world["db_a"].name)
            got_b = fleet.predict(plans_b, world["db_b"].name)
            again_a = fleet.predict(plans_a, world["db_a"].name)
            fleet.stats()  # workers ship their metric deltas
        # Worker metrics did reach this process, so zero is a real count.
        assert (REGISTRY.counter_values(["serve.batch.count"])
                ["serve.batch.count"] > batches["serve.batch.count"])
        assert digest_calls() == (len(plans_a) + len(plans_b), 0)
        np.testing.assert_array_equal(got_a, world["expected_a"])
        np.testing.assert_array_equal(got_b, world["expected_b"])
        np.testing.assert_array_equal(again_a, world["expected_a"])

    def test_spill_keeps_values_identical(self, world, tmp_path):
        """spill_threshold=1 forces nearly every request off its preferred
        shard — placement must never change a value."""
        registry = _registry_with(world, tmp_path)
        plans_a = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=0)
        with PredictorFleet(registry, world["dbs"], config, n_workers=3,
                            spill_threshold=1) as fleet:
            got = fleet.predict(plans_a, world["db_a"].name)
            stats = fleet.stats()
        np.testing.assert_array_equal(got, world["expected_a"])
        assert stats["spills"] > 0

    def test_shed_when_queue_full(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        config = ServerConfig(queue_depth=1, max_delay_ms=50.0)
        plans_a = [r.plan for r in world["records_a"]]
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=1) as fleet:
            handles = [fleet.submit(plan, world["db_a"].name)
                       for plan in plans_a]
            for handle in handles:
                handle.wait(30)
            stats = fleet.stats()
        shed = [h for h in handles if h.status is RequestStatus.SHED]
        done = [h for h in handles if h.status in (RequestStatus.DONE,
                                                   RequestStatus.CACHED)]
        assert shed and done
        assert len(shed) + len(done) == len(handles)
        assert stats["shed"] == len(shed)

    def test_unknown_database_rejected(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        with PredictorFleet(registry, world["dbs"], n_workers=1) as fleet:
            with pytest.raises(KeyError):
                fleet.submit(world["records_a"][0].plan, "nope")


# ----------------------------------------------------------------------
# Supervision: SIGKILL mid-load, exactly-once completion
# ----------------------------------------------------------------------
class TestFleetSupervision:
    def test_worker_kill_no_lost_no_duplicated_handles(self, world,
                                                       tmp_path):
        registry = _registry_with(world, tmp_path)
        db_a = world["db_a"]
        # Large coalescing delay: results are still pending when the kill
        # lands, so the supervisor must re-send them to the replacement.
        config = ServerConfig(max_delay_ms=200.0, max_batch_size=256,
                              result_cache_size=0)
        plans = [r.plan for r in world["records_a"]] * 2
        expected = np.concatenate([world["expected_a"]] * 2)
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=2, spill_threshold=10_000) as fleet:
            target = fleet._preferred[db_a.name]  # every request lands here
            handles = fleet.submit_many(plans, db_a.name, block=True)
            assert fleet.kill_worker(target) is not None
            completions = []
            for handle in handles:
                # Exactly-once: result() returns the single final value;
                # a second read observes the same resolved state.
                completions.append(handle.result(60))
                assert handle.status is RequestStatus.DONE
            stats = fleet.stats()
        np.testing.assert_array_equal(np.array(completions), expected)
        assert stats["worker_restarts"] >= 1
        assert stats["requeued"] >= 1
        assert stats["failed"] == 0 and stats["shed"] == 0
        assert stats["requests"] == len(plans)

    def test_kill_during_open_loop_load(self, world, tmp_path):
        """The bench-shaped scenario: saturation load, a worker dies
        mid-run, every delivered value still matches the direct call."""
        registry = _registry_with(world, tmp_path)
        config = ServerConfig(result_cache_size=0,
                              queue_depth=10_000, max_delay_ms=20.0)
        requests = ([(world["db_a"].name, r.plan)
                     for r in world["records_a"]] * 3)
        expected = {id(r.plan): float(v) for r, v in
                    zip(world["records_a"], world["expected_a"])}
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=2, spill_threshold=4) as fleet:
            fleet.submit(requests[0][1], requests[0][0], block=True)
            fleet.kill_worker(0)
            report = run_load(fleet, requests,
                              LoadConfig(n_clients=3, block=True, seed=3))
        assert report.failed == 0 and report.shed == 0
        assert report.completed == len(requests)
        for handle in report.handles:
            assert handle.value == expected[id(handle.plan)]

    def test_close_without_drain_fails_pending_typed(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        config = ServerConfig(max_delay_ms=500.0, max_batch_size=256)
        fleet = PredictorFleet(registry, world["dbs"], config,
                               n_workers=1).start()
        handles = fleet.submit_many([r.plan for r in world["records_a"]],
                                    world["db_a"].name, block=True)
        fleet.close(drain=False)
        for handle in handles:
            handle.wait(10)
            assert handle.status in (RequestStatus.FAILED,
                                     RequestStatus.DONE)
        failed = [h for h in handles if h.status is RequestStatus.FAILED]
        for handle in failed:
            with pytest.raises(Exception) as err:
                handle.result(0)
            assert "fleet stopped" in str(err.value)


# ----------------------------------------------------------------------
# Cross-process hot swap: promote/rollback reach every worker
# ----------------------------------------------------------------------
class TestFleetHotSwap:
    def test_publish_promote_rollback_fleet_wide(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        model_v2 = _make_model(world["graphs_all"], world["runtimes"],
                               seed=9)
        expected_v2 = _direct(model_v2, world["graphs_a"])
        plans_a = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=0)
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=2) as fleet:
            got_v1 = fleet.predict(plans_a, world["db_a"].name)
            registry.publish("main", model_v2,
                             dbs=[world["db_a"], world["db_b"]])
            got_v2 = fleet.predict(plans_a, world["db_a"].name)
            registry.promote("main", 1)
            got_back = fleet.predict(plans_a, world["db_a"].name)
            stats = fleet.stats()
        np.testing.assert_array_equal(got_v1, world["expected_a"])
        np.testing.assert_array_equal(got_v2, expected_v2)
        np.testing.assert_array_equal(got_back, world["expected_a"])
        assert not np.array_equal(got_v1, got_v2)
        assert stats["failed"] == 0

    def test_swap_broadcast_is_not_a_rebalance(self, world, tmp_path):
        """A promote with no traffic broadcasts one swap and moves no
        shard: ``fleet.route.rebalance`` counts routing decisions only."""
        registry = _registry_with(world, tmp_path)
        with PredictorFleet(registry, world["dbs"], n_workers=1) as fleet:
            registry.publish("main", world["model"],
                             dbs=[world["db_a"], world["db_b"]],
                             activate=False)
            before = perfstats.snapshot()
            registry.promote("main", 2)
            fleet.refresh()
            after = perfstats.snapshot()
        assert (after.get("fleet.route.rebalance", 0)
                == before.get("fleet.route.rebalance", 0))
        assert (after.get("fleet.swap.broadcast", 0)
                == before.get("fleet.swap.broadcast", 0) + 1)


# ----------------------------------------------------------------------
# Load generator: fleet mode, skewed mixes, per-database breakdown
# ----------------------------------------------------------------------
class TestFleetLoadgen:
    def test_latency_by_db_breakdown(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        requests = ([(world["db_a"].name, r.plan)
                     for r in world["records_a"]]
                    + [(world["db_b"].name, r.plan)
                       for r in world["records_b"]])
        with PredictorFleet(registry, world["dbs"], n_workers=2) as fleet:
            report = run_load(fleet, requests,
                              LoadConfig(n_clients=2, block=True, seed=1))
        assert report.completed + report.cached == len(requests)
        by_db = report.latency_by_db
        assert set(by_db) == {world["db_a"].name, world["db_b"].name}
        for name, summary in by_db.items():
            assert summary["delivered"] == summary["requests"]
            assert summary["degraded"] == 0
            assert summary["p50"] > 0
        total = sum(s["requests"] for s in by_db.values())
        assert total == len(requests)

    def test_skewed_requests_seeded_and_weighted(self, world):
        pools = {
            world["db_a"].name: [(world["db_a"].name, r.plan)
                                 for r in world["records_a"]],
            world["db_b"].name: [(world["db_b"].name, r.plan)
                                 for r in world["records_b"]],
        }
        weights = {world["db_a"].name: 0.9, world["db_b"].name: 0.1}
        mix = skewed_requests(pools, weights, n=200, seed=4)
        assert mix == skewed_requests(pools, weights, n=200, seed=4)
        assert mix != skewed_requests(pools, weights, n=200, seed=5)
        counts = {name: sum(1 for db, _ in mix if db == name)
                  for name in pools}
        assert counts[world["db_a"].name] > counts[world["db_b"].name] * 3
        assert len(mix) == 200
        for db_name, plan in mix:
            assert (db_name, plan) in pools[db_name]

    def test_skewed_load_routes_hot_database(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        pools = {
            world["db_a"].name: [(world["db_a"].name, r.plan)
                                 for r in world["records_a"]],
            world["db_b"].name: [(world["db_b"].name, r.plan)
                                 for r in world["records_b"]],
        }
        weights = {world["db_a"].name: 0.85, world["db_b"].name: 0.15}
        mix = skewed_requests(pools, weights, n=80, seed=2)
        expected = {}
        for records, values in ((world["records_a"], world["expected_a"]),
                                (world["records_b"], world["expected_b"])):
            for record, value in zip(records, values):
                expected[id(record.plan)] = float(value)
        config = ServerConfig(result_cache_size=0, queue_depth=10_000)
        with PredictorFleet(registry, world["dbs"], config, n_workers=2,
                            spill_threshold=4) as fleet:
            report = run_load(fleet, mix,
                              LoadConfig(n_clients=3, block=True, seed=2))
        assert report.completed == len(mix)
        for handle in report.handles:
            assert handle.value == expected[id(handle.plan)]
        hot = report.latency_by_db[world["db_a"].name]
        cold = report.latency_by_db[world["db_b"].name]
        assert hot["requests"] > cold["requests"]


# ----------------------------------------------------------------------
# Liveness plane: heartbeats, hang detection, replayable recovery
# ----------------------------------------------------------------------
class TestFleetLiveness:
    def _run_hang_scenario(self, world, root, fault_seed=11):
        """One full hang-recovery pass; returns (per-handle outcomes,
        counter signature) for replay comparison."""
        from repro.robustness.faults import FaultSchedule, FaultSpec

        registry = _registry_with(world, root)
        db_a = world["db_a"]
        plans = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=0, max_delay_ms=20.0,
                              max_batch_size=256)
        schedule = None
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=2, spill_threshold=10_000,
                            hang_timeout_ms=300.0, ping_interval_ms=60.0,
                            hedge_after_ms=None) as probe:
            target = probe._preferred[db_a.name]
        schedule = {target: FaultSchedule([
            FaultSpec("fleet.worker.hang", rate=1.0, max_faults=1,
                      action="hang"),
        ], seed=fault_seed)}
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=2, spill_threshold=10_000,
                            fault_schedule=schedule,
                            hang_timeout_ms=300.0, ping_interval_ms=60.0,
                            hedge_after_ms=None) as fleet:
            handles = fleet.submit_many(plans, db_a.name, block=True)
            outcomes = []
            for handle in handles:
                value = handle.result(60)  # waits; then status is final
                outcomes.append((handle.status, value))
            stats = fleet.stats()
        signature = {key: stats[key] for key in
                     ("requests", "completed", "failed", "shed",
                      "hangs", "requeued")}
        return outcomes, signature, stats

    def test_hang_detected_killed_restarted_and_replayable(self, world,
                                                           tmp_path):
        """A worker that hangs forever (gray failure: alive, silent) is
        detected within the hang timeout, SIGKILLed and restarted; its
        unanswered requests are re-sent and every value matches the
        direct call.  The same schedule replayed from scratch produces
        the identical per-handle outcome and counter signature."""
        outcomes1, sig1, stats1 = self._run_hang_scenario(
            world, tmp_path / "run1")
        outcomes2, sig2, _ = self._run_hang_scenario(
            world, tmp_path / "run2")
        expected = world["expected_a"]
        for (status, value), want in zip(outcomes1, expected):
            assert status is RequestStatus.DONE
            assert value == float(want)
        assert outcomes1 == outcomes2
        assert sig1 == sig2
        assert sig1["hangs"] == 1
        assert sig1["failed"] == 0 and sig1["shed"] == 0
        assert sig1["requeued"] >= 1
        assert stats1["worker_restarts"] >= 1
        assert stats1["unresponsive_workers"] == 0  # restarted healthy

    def test_stats_is_hang_safe(self, world, tmp_path):
        """stats() on a fleet with a wedged worker returns promptly with
        an ``unresponsive`` row instead of blocking the caller."""
        import time as _time

        from repro import perfstats
        from repro.robustness.faults import FaultSchedule, FaultSpec

        registry = _registry_with(world, tmp_path)
        config = ServerConfig(result_cache_size=0, max_delay_ms=1.0)
        schedule = FaultSchedule([
            # Finite hang: long enough to straddle the stats call, short
            # enough that the fleet drains cleanly afterwards (hang
            # detection is off, so nothing kills the worker).
            FaultSpec("fleet.worker.hang", rate=1.0, max_faults=1,
                      action="hang", delay_ms=1500.0),
        ], seed=5)
        before = perfstats.snapshot(["fleet.stats.unresponsive"])
        with PredictorFleet(registry, world["dbs"], config, n_workers=1,
                            fault_schedule=schedule,
                            hang_timeout_ms=None) as fleet:
            handle = fleet.submit(world["records_a"][0].plan,
                                  world["db_a"].name, block=True)
            _time.sleep(0.2)  # let the worker enter the hang
            start = _time.perf_counter()
            stats = fleet.stats(timeout_s=0.3)
            elapsed = _time.perf_counter() - start
            assert elapsed < 1.0
            assert stats["unresponsive_workers"] == 1
            assert {"unresponsive": True, "worker": 0} in \
                stats["worker_stats"]
            assert handle.result(30) == float(world["expected_a"][0])
        after = perfstats.snapshot(["fleet.stats.unresponsive"])
        assert (after["fleet.stats.unresponsive"]
                > before["fleet.stats.unresponsive"])


# ----------------------------------------------------------------------
# Hedged requests: straggler re-sends, raced-result dedup
# ----------------------------------------------------------------------
class TestFleetHedging:
    def test_hedge_dedup_late_loser_cannot_double_complete(self, world,
                                                           tmp_path):
        """A hedge fires while the original worker is still coalescing;
        whichever copy answers second finds the entry already completed.
        The late duplicate must not double-complete the handle, corrupt
        the outstanding count, or poison a later round."""
        import time as _time

        registry = _registry_with(world, tmp_path)
        db_a = world["db_a"]
        plans = [r.plan for r in world["records_a"]]
        expected = world["expected_a"]
        # 250 ms coalescing delay on a small batch: the original worker
        # sits on the requests long past the 40 ms hedge threshold, so
        # every request hedges and both workers eventually answer.
        config = ServerConfig(result_cache_size=0, max_delay_ms=250.0,
                              max_batch_size=256)
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=2, spill_threshold=10_000,
                            hang_timeout_ms=None,
                            hedge_after_ms=40.0, max_hedges=1) as fleet:
            handles = fleet.submit_many(plans, db_a.name, block=True)
            for handle, want in zip(handles, expected):
                assert handle.result(60) == float(want)
                assert handle.status is RequestStatus.DONE
            # Let the losing duplicates arrive and be dropped.
            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline:
                stats = fleet.stats()
                if (stats["hedge_wins"] + stats["hedge_wasted"] >= 1
                        and stats["outstanding"] == 0):
                    break
                _time.sleep(0.05)
            assert stats["hedges"] >= 1
            assert stats["hedge_wins"] + stats["hedge_wasted"] >= 1
            assert stats["outstanding"] == 0
            assert stats["completed"] >= len(plans)  # both copies ran
            # The fleet is not corrupted: a second round still delivers
            # bit-identical values through the same slots.
            again = fleet.submit_many(plans, db_a.name, block=True)
            for handle, want in zip(again, expected):
                assert handle.result(60) == float(want)
            final = fleet.stats()
        assert final["failed"] == 0 and final["shed"] == 0
        assert final["outstanding"] == 0

    def test_auto_threshold_needs_samples(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        with PredictorFleet(registry, world["dbs"], n_workers=1,
                            hedge_after_ms="auto") as fleet:
            assert fleet.hedge_threshold_ms() is None  # no samples yet
            fleet.predict([r.plan for r in world["records_a"]],
                          world["db_a"].name)
        with PredictorFleet(registry, world["dbs"], n_workers=1,
                            hedge_after_ms=75.0) as fleet:
            assert fleet.hedge_threshold_ms() == 75.0


# ----------------------------------------------------------------------
# Priorities: classed admission, brownout, shed concentration
# ----------------------------------------------------------------------
class TestFleetPriorities:
    def test_brownout_and_priority_classed_shedding(self, world, tmp_path):
        from repro import perfstats
        from repro.optimizer import AnalyticalCostModel
        from repro.serving import RequestPriority

        registry = _registry_with(world, tmp_path)
        db_a = world["db_a"]
        plans = [r.plan for r in world["records_a"]]
        # queue_depth=8 with a 25% HIGH reserve: LOW admits under 4,
        # NORMAL under 6, HIGH under 8.  A 400 ms coalescing delay keeps
        # everything outstanding while the admission ladder is probed.
        config = ServerConfig(result_cache_size=0, max_delay_ms=400.0,
                              max_batch_size=256, queue_depth=8,
                              high_reserve_fraction=0.25,
                              brownout_fraction=0.5)
        before = perfstats.snapshot(
            ["serve.shed.priority.normal", "serve.shed.priority.high",
             "serve.shed.priority.low", "fleet.brownout.count"])
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=1) as fleet:
            normals = [fleet.submit(plans[i], db_a.name,
                                    priority=RequestPriority.NORMAL)
                       for i in range(6)]
            assert all(h.status is RequestStatus.PENDING for h in normals)
            # LOW over its bound browns out: immediate DEGRADED answer
            # from the analytical model, flagged as such.
            low = fleet.submit(plans[6], db_a.name,
                               priority=RequestPriority.LOW)
            assert low.status is RequestStatus.DEGRADED
            assert low.served_by == ("analytical", "brownout")
            analytical = AnalyticalCostModel(db_a)
            assert low.value == analytical.predict_plan(plans[6])
            # NORMAL over its bound sheds...
            shed_normal = fleet.submit(plans[7], db_a.name,
                                       priority=RequestPriority.NORMAL)
            assert shed_normal.status is RequestStatus.SHED
            # ...while HIGH still has the reserve.
            high_a = fleet.submit(plans[8], db_a.name,
                                  priority=RequestPriority.HIGH)
            high_b = fleet.submit(plans[9], db_a.name,
                                  priority=RequestPriority.HIGH)
            assert high_a.status is RequestStatus.PENDING
            assert high_b.status is RequestStatus.PENDING
            # The queue is now full even for HIGH.
            shed_high = fleet.submit(plans[10], db_a.name,
                                     priority=RequestPriority.HIGH)
            assert shed_high.status is RequestStatus.SHED
            stats = fleet.stats()
        after = perfstats.snapshot(
            ["serve.shed.priority.normal", "serve.shed.priority.high",
             "serve.shed.priority.low", "fleet.brownout.count"])
        delta = {key: after[key] - before[key] for key in after}
        assert delta["serve.shed.priority.normal"] == 1
        assert delta["serve.shed.priority.high"] == 1
        assert delta["serve.shed.priority.low"] == 0  # browned out instead
        assert delta["fleet.brownout.count"] == 1
        assert stats["brownouts"] == 1
        assert stats["shed"] == 2
        assert stats["degraded"] >= 1  # includes the brownout

    def test_low_sheds_when_brownout_disabled(self, world, tmp_path):
        from repro import perfstats
        from repro.serving import RequestPriority

        registry = _registry_with(world, tmp_path)
        db_a = world["db_a"]
        plans = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=0, max_delay_ms=400.0,
                              max_batch_size=256, queue_depth=4,
                              brownout_fraction=0.5,
                              brownout_degraded=False)
        before = perfstats.snapshot(["serve.shed.priority.low"])
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=1) as fleet:
            for i in range(2):  # LOW bound is int(4 * 0.5) = 2
                fleet.submit(plans[i], db_a.name,
                             priority=RequestPriority.LOW)
            low = fleet.submit(plans[2], db_a.name,
                               priority=RequestPriority.LOW)
            assert low.status is RequestStatus.SHED
        after = perfstats.snapshot(["serve.shed.priority.low"])
        assert after["serve.shed.priority.low"] == \
            before["serve.shed.priority.low"] + 1

    def test_deadline_crosses_the_pipe(self, world, tmp_path):
        """A request whose deadline expires while queued is dropped
        worker-side before featurization, with the typed error."""
        from repro.serving import DeadlineExceededError

        registry = _registry_with(world, tmp_path)
        db_a = world["db_a"]
        # Coalescing delay far past the request deadline: by the time the
        # batch forms, the deadline has long expired.
        config = ServerConfig(result_cache_size=0, max_delay_ms=150.0,
                              max_batch_size=256)
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=1) as fleet:
            doomed = fleet.submit(world["records_a"][0].plan, db_a.name,
                                  deadline_ms=1.0)
            fine = fleet.submit(world["records_a"][1].plan, db_a.name)
            doomed.wait(30)
            assert doomed.status is RequestStatus.FAILED
            with pytest.raises(DeadlineExceededError):
                doomed.result(0)
            assert fine.result(30) == float(world["expected_a"][1])
            stats = fleet.stats()
        assert stats["deadline_expired"] >= 1


# ----------------------------------------------------------------------
# Fault-schedule propagation into forked workers
# ----------------------------------------------------------------------
class TestFleetFaultPropagation:
    def test_explicit_schedule_fires_inside_workers(self, world, tmp_path):
        """A schedule passed to the fleet is installed inside the forked
        worker at spawn: the injected fault fires in the worker process
        and shows up in its reported ``fault_injected`` counters."""
        from repro.robustness.faults import FaultSchedule, FaultSpec

        registry = _registry_with(world, tmp_path)
        schedule = FaultSchedule([
            FaultSpec("serve.infer", rate=1.0, max_faults=1,
                      message="pr9: worker-side inference fault"),
        ], seed=7)
        config = ServerConfig(result_cache_size=0, max_retries=3,
                              retry_backoff_ms=0.5)
        with PredictorFleet(registry, world["dbs"], config, n_workers=1,
                            fault_schedule=schedule,
                            hang_timeout_ms=None) as fleet:
            got = fleet.predict([r.plan for r in world["records_a"]],
                                world["db_a"].name)
            stats = fleet.stats()
        np.testing.assert_array_equal(got, world["expected_a"])
        injected = stats["worker_fault_injected"]
        assert injected.get("fault.injected.serve.infer", 0) >= 1
        assert stats["retries"] >= 1

    def test_process_wide_schedule_inherited_through_fork(self, world,
                                                          tmp_path):
        """A schedule installed process-wide before start() is inherited
        by the forked workers when no explicit schedule overrides it."""
        from repro.robustness import faults
        from repro.robustness.faults import FaultSchedule, FaultSpec

        registry = _registry_with(world, tmp_path)
        schedule = FaultSchedule([
            FaultSpec("serve.infer", rate=1.0, max_faults=1,
                      message="pr9: inherited inference fault"),
        ], seed=8)
        config = ServerConfig(result_cache_size=0, max_retries=3,
                              retry_backoff_ms=0.5)
        fleet = PredictorFleet(registry, world["dbs"], config, n_workers=1,
                               hang_timeout_ms=None)
        faults.install(schedule)
        try:
            fleet.start()
        finally:
            faults.uninstall()
        try:
            got = fleet.predict([r.plan for r in world["records_a"]],
                                world["db_a"].name)
            stats = fleet.stats()
        finally:
            fleet.close()
        np.testing.assert_array_equal(got, world["expected_a"])
        injected = stats["worker_fault_injected"]
        assert injected.get("fault.injected.serve.infer", 0) >= 1
