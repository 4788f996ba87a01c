"""Serving subsystem: registry, micro-batching predictor, load harness.

The load-bearing contract is *serving equivalence*: for any request mix,
the value a request receives is bit-identical to a direct
``predict_runtimes`` call on the same model — across the batched path, the
result-cache path and hot-swaps.  That only holds because the graph-free
inference kernels are row-stable (``row_stable_matmul``), which the first
test class pins down at the numpy level.
"""

import threading

import numpy as np
import pytest

from repro import perfstats
from repro.core import TrainingConfig, ZeroShotCostModel, featurize_records
from repro.core.model import ZeroShotModel
from repro.core.training import predict_runtimes
from repro.datagen import generate_database, random_database_spec
from repro.featurization import (FeatureScalers, FeaturizationCache,
                                 TargetScaler, database_digest,
                                 plan_fingerprint)
from repro.nn import row_stable_matmul
from repro.serving import (LoadConfig, ModelRegistry, PredictorServer,
                           RequestShedError, RequestStatus, RoutingError,
                           ServerClosedError, ServerConfig, run_load)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace


# ----------------------------------------------------------------------
# Row-stable inference kernels (the basis of serving equivalence)
# ----------------------------------------------------------------------
class TestRowStableMatmul:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_independent_of_row_count(self, dtype):
        """A row's product is bitwise the same whether it travels alone,
        in a pair, or in a large batch — including the gemv-prone shapes
        (single row, single output column)."""
        rng = np.random.default_rng(0)
        for k, h in [(5, 1), (32, 1), (64, 1), (13, 32), (64, 64), (128, 48)]:
            x = rng.normal(size=(129, k)).astype(dtype)
            w = rng.normal(size=(k, h)).astype(dtype)
            full = row_stable_matmul(x, w)
            for n in (1, 2, 3, 7, 64, 128):
                np.testing.assert_array_equal(row_stable_matmul(x[:n], w),
                                              full[:n])

    def test_matches_blas_for_regular_shapes(self):
        """Away from the degenerate shapes the kernel is plain ``@``."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 16))
        w = rng.normal(size=(16, 8))
        np.testing.assert_array_equal(row_stable_matmul(x, w), x @ w)

    def test_values_close_to_blas_on_degenerate_shapes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 16))
        w = rng.normal(size=(16, 1))
        np.testing.assert_allclose(row_stable_matmul(x, w), x @ w,
                                   rtol=1e-12)


# ----------------------------------------------------------------------
# Shared world: two databases, executed workloads, models
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


@pytest.fixture(scope="module")
def world():
    db_a = _make_db("served_a", seed=11)
    db_b = _make_db("served_b", seed=22)
    dbs = {db_a.name: db_a, db_b.name: db_b}
    records_a = _make_trace(db_a, 18, seed=5)
    records_b = _make_trace(db_b, 12, seed=6)
    graphs_a = featurize_records(records_a, dbs, cards="exact")
    graphs_b = featurize_records(records_b, dbs, cards="exact")
    runtimes_a = np.array([r.runtime_ms for r in records_a])
    runtimes_b = np.array([r.runtime_ms for r in records_b])
    return {
        "dbs": dbs, "db_a": db_a, "db_b": db_b,
        "records_a": records_a, "records_b": records_b,
        "graphs_a": graphs_a, "graphs_b": graphs_b,
        "runtimes_a": runtimes_a, "runtimes_b": runtimes_b,
    }


def _direct(model, graphs):
    return predict_runtimes(model.model, graphs, model.feature_scalers,
                            model.target_scaler, batch_cache=False)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_publish_versions_and_active(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        m1 = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m2 = _make_model(world["graphs_a"], world["runtimes_a"], seed=1)
        d1 = registry.publish("main", m1, dbs=[world["db_a"]])
        d2 = registry.publish("main", m2, dbs=[world["db_a"]])
        assert (d1.version, d2.version) == (1, 2)
        assert registry.active("main").version == 2  # publish auto-promotes
        assert [d.version for d in registry.deployments("main")] == [1, 2]
        # No silent fallback: a model is default only when declared so.
        assert registry.default_model is None
        registry.set_default("main")
        assert registry.default_model == "main"

    def test_content_addressing_dedupes_payloads(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        d1 = registry.publish("main", model)
        d2 = registry.publish("shadow", model)
        assert d1.checkpoint_key == d2.checkpoint_key
        payloads = list((tmp_path / "deploy").glob("*.pkl"))
        assert len(payloads) == 1  # one payload for identical state

    def test_promote_rollback(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        m1 = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m2 = _make_model(world["graphs_a"], world["runtimes_a"], seed=1)
        registry.publish("main", m1)
        registry.publish("main", m2, activate=False)
        assert registry.active("main").version == 1
        assert registry.promote("main", 2).version == 2
        assert registry.rollback("main").version == 1
        with pytest.raises(ValueError):
            registry.rollback("main")  # no previous version left
        with pytest.raises(ValueError):
            registry.promote("main", 99)

    def test_routing_by_database_fingerprint(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        m_a = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m_b = _make_model(world["graphs_b"], world["runtimes_b"], seed=1)
        registry.publish("model_a", m_a, dbs=[world["db_a"]])
        registry.publish("fallback", m_b, default=True)
        assert registry.route(
            database_digest(world["db_a"])).name == "model_a"
        # Unseen database -> the default model (the zero-shot case).
        assert registry.route(
            database_digest(world["db_b"])).name == "fallback"

    def test_fresh_registry_reads_manifests_from_disk(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        m1 = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m2 = _make_model(world["graphs_a"], world["runtimes_a"], seed=1)
        registry.publish("main", m1, dbs=[world["db_a"]])
        registry.publish("main", m2)
        registry.rollback("main")
        reopened = ModelRegistry(tmp_path)
        assert reopened.names() == ("main",)
        assert reopened.active("main").version == 1
        assert reopened.route(
            database_digest(world["db_a"])).checkpoint_key == \
            registry.active("main").checkpoint_key

    def test_generation_bumps_on_every_mutation(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        generation = registry.generation
        registry.publish("main", model)
        assert registry.generation > generation
        generation = registry.generation
        registry.promote("main", 1)
        assert registry.generation > generation


class TestSerializationRoundTrip:
    """`nn/serialize` round-trips through the registry (float32 satellite)."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_published_checkpoint_reloads_bit_identically(self, world,
                                                          tmp_path, dtype):
        """A checkpoint published, hot-swapped away and back, and reloaded
        from disk by a *fresh* registry predicts bit-identically to the
        in-memory model — dtype intact."""
        graphs = world["graphs_a"]
        model = _make_model(graphs, world["runtimes_a"], seed=3, dtype=dtype)
        expected = _direct(model, graphs)

        registry = ModelRegistry(tmp_path)
        registry.publish("main", model, dbs=[world["db_a"]])
        other = _make_model(graphs, world["runtimes_a"], seed=4, dtype=dtype)
        registry.publish("main", other)   # hot-swap to v2
        registry.rollback("main")         # and back to v1

        reopened = ModelRegistry(tmp_path)  # no in-memory memo: disk path
        reloaded = reopened.load("main")
        assert reloaded is not model
        assert reloaded.config.dtype == dtype
        assert reloaded.model.param_dtype() == np.dtype(dtype)
        np.testing.assert_array_equal(_direct(reloaded, graphs), expected)


# ----------------------------------------------------------------------
# Predictor server
# ----------------------------------------------------------------------
@pytest.fixture()
def registry_a(world, tmp_path):
    registry = ModelRegistry(tmp_path)
    model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
    registry.publish("main", model, dbs=[world["db_a"]], default=True)
    return registry, model


class TestPredictorServer:
    def test_bulk_predictions_bit_identical_to_direct(self, world,
                                                      registry_a):
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        plans = [r.plan for r in world["records_a"]]
        with PredictorServer(registry, world["dbs"]) as server:
            out = server.predict(plans, world["db_a"].name)
        np.testing.assert_array_equal(out, expected)

    def test_concurrent_mixed_requests_bit_identical(self, world,
                                                     registry_a):
        """Many client threads, interleaved submits, tiny micro-batches:
        whatever coalescing the batcher picks, every value equals the
        direct per-plan prediction."""
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        plans = [r.plan for r in world["records_a"]]
        config = ServerConfig(max_batch_size=4, max_delay_ms=0.5,
                              result_cache_size=0)
        results = {}
        with PredictorServer(registry, world["dbs"], config) as server:
            def client(offset):
                indices = list(range(offset, len(plans), 3))
                handles = [(i, server.submit(plans[i], world["db_a"].name,
                                             block=True))
                           for i in indices]
                for i, handle in handles:
                    results[i] = handle.result(30)

            threads = [threading.Thread(target=client, args=(offset,))
                       for offset in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        out = np.array([results[i] for i in range(len(plans))])
        np.testing.assert_array_equal(out, expected)

    def test_repeat_plans_hit_result_cache_bit_identically(self, world,
                                                           registry_a):
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        plans = [r.plan for r in world["records_a"]]
        # Equal-but-distinct plan objects: the same workload re-planned.
        replayed = [r.plan for r in _make_trace(world["db_a"], 18, seed=5)]
        assert replayed[0] is not plans[0]
        perfstats.reset()
        with PredictorServer(registry, world["dbs"]) as server:
            first = server.predict(plans, world["db_a"].name)
            repeats = server.submit_many(replayed, world["db_a"].name)
            values = [r.result(30) for r in repeats]
            stats = server.stats()
        np.testing.assert_array_equal(first, expected)
        np.testing.assert_array_equal(np.array(values), expected)
        assert all(r.status is RequestStatus.CACHED for r in repeats)
        assert stats["cached"] == len(plans)
        counters = perfstats.snapshot()
        assert counters.get("serve.cache.hit", 0) == len(plans)
        assert counters.get("serve.cache.miss", 0) == len(plans)

    def test_hot_swap_and_rollback_bit_identical(self, world, tmp_path):
        """Promotions take effect between micro-batches; every phase's
        predictions equal the direct calls on that phase's model, and the
        result cache never leaks values across checkpoints."""
        registry = ModelRegistry(tmp_path)
        m1 = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m2 = _make_model(world["graphs_a"], world["runtimes_a"], seed=1)
        registry.publish("main", m1, dbs=[world["db_a"]], default=True)
        plans = [r.plan for r in world["records_a"]]
        d1 = _direct(m1, world["graphs_a"])
        d2 = _direct(m2, world["graphs_a"])
        perfstats.reset()
        with PredictorServer(registry, world["dbs"]) as server:
            np.testing.assert_array_equal(
                server.predict(plans, world["db_a"].name), d1)
            registry.publish("main", m2)  # auto-promote: hot swap
            np.testing.assert_array_equal(
                server.predict(plans, world["db_a"].name), d2)
            registry.rollback("main")
            rolled = server.submit_many(plans, world["db_a"].name)
            values = np.array([r.result(30) for r in rolled])
            stats = server.stats()
        np.testing.assert_array_equal(values, d1)
        # The rollback answers arrive from the v1 cache entries, which
        # stayed valid because keys carry the checkpoint digest.
        assert all(r.status is RequestStatus.CACHED for r in rolled)
        assert stats["swaps"] >= 2
        assert perfstats.snapshot().get("serve.swap.count", 0) >= 2

    def test_admission_control_sheds_beyond_queue_depth(self, world,
                                                        registry_a):
        registry, model = registry_a
        plans = [r.plan for r in world["records_a"]][:6]
        config = ServerConfig(queue_depth=3, result_cache_size=0)
        server = PredictorServer(registry, world["dbs"], config)
        perfstats.reset()
        # Not started: submissions queue up against the bounded queue.
        handles = server.submit_many(plans, world["db_a"].name)
        statuses = [h.status for h in handles]
        assert statuses[:3] == [RequestStatus.PENDING] * 3
        assert statuses[3:] == [RequestStatus.SHED] * 3
        with pytest.raises(RequestShedError):
            handles[3].result()
        assert perfstats.snapshot().get("serve.shed.count", 0) == 3
        # Draining the queue completes the admitted requests correctly.
        server.start()
        expected = _direct(model, world["graphs_a"][:3])
        np.testing.assert_array_equal(
            np.array([h.result(30) for h in handles[:3]]), expected)
        server.stop()
        assert server.stats()["shed"] == 3

    def test_routing_multi_model_and_unseen_database(self, world, tmp_path):
        """BRAD-style routing: each database goes to its compatible model;
        an unseen database falls back to the default (zero-shot) model."""
        registry = ModelRegistry(tmp_path)
        m_a = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m_b = _make_model(world["graphs_b"], world["runtimes_b"], seed=1)
        registry.publish("model_a", m_a, dbs=[world["db_a"]])
        registry.publish("fallback", m_b, default=True)
        plans_a = [r.plan for r in world["records_a"]]
        plans_b = [r.plan for r in world["records_b"]]
        with PredictorServer(registry, world["dbs"]) as server:
            out_a = server.predict(plans_a, world["db_a"].name)
            out_b = server.predict(plans_b, world["db_b"].name)
        np.testing.assert_array_equal(out_a, _direct(m_a, world["graphs_a"]))
        np.testing.assert_array_equal(out_b, _direct(m_b, world["graphs_b"]))

    def test_unroutable_database_fails_fast(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        # Published but never activated: no active deployment anywhere.
        registry.publish("main", model, activate=False)
        with PredictorServer(registry, world["dbs"]) as server:
            handle = server.submit(world["records_a"][0].plan,
                                   world["db_a"].name)
            assert handle.status is RequestStatus.FAILED
            with pytest.raises(RoutingError):
                handle.result()

    def test_same_plan_object_across_databases_is_not_conflated(
            self, world, tmp_path):
        """The result cache must key on (checkpoint, plan, *database*): one
        plan object submitted against two databases gets two independent
        predictions, each bit-identical to the direct call on that
        database's featurization — never the other database's cached
        value."""
        from repro.serving import ServingRecord

        db_a = world["db_a"]
        # Same generator seed -> same schema/table names, but more rows:
        # the plan is valid against both databases while their stats (and
        # therefore features and predictions) differ.
        db_c = _make_db("served_c", seed=11, base_rows=800)
        dbs = {db_a.name: db_a, db_c.name: db_c}
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        registry.publish("main", model, default=True)
        plan = world["records_a"][0].plan
        with PredictorServer(registry, dbs) as server:
            out_a = server.submit(plan, db_a.name, block=True).result(30)
            request_c = server.submit(plan, db_c.name, block=True)
            out_c = request_c.result(30)
        assert request_c.status is RequestStatus.DONE  # no bogus cache hit
        graphs_a = featurize_records([ServingRecord(db_a.name, plan)], dbs,
                                     cards="exact")
        graphs_c = featurize_records([ServingRecord(db_c.name, plan)], dbs,
                                     cards="exact")
        np.testing.assert_array_equal([out_a], _direct(model, graphs_a))
        np.testing.assert_array_equal([out_c], _direct(model, graphs_c))
        assert out_a != out_c  # the databases' stats genuinely differ

    def test_unregistered_database_raises(self, world, registry_a):
        registry, _ = registry_a
        with PredictorServer(registry, world["dbs"]) as server:
            with pytest.raises(KeyError):
                server.submit(world["records_a"][0].plan, "nope")

    def test_stats_are_consistent(self, world, registry_a):
        registry, _ = registry_a
        plans = [r.plan for r in world["records_a"]]
        with PredictorServer(registry, world["dbs"]) as server:
            server.predict(plans, world["db_a"].name)
            server.predict(plans[:5], world["db_a"].name)  # cache hits
            stats = server.stats()
        assert stats["requests"] == len(plans) + 5
        assert (stats["completed"] + stats["cached"]
                + stats["shed"] + stats["failed"]) == stats["requests"]
        assert sum(stats["batch_size_hist"].values()) == stats["batches"]
        assert stats["mean_batch_size"] > 0

    def test_queued_requests_coalesce_into_one_micro_batch(self, world,
                                                           registry_a):
        """Deterministic coalescing: requests queued before the batcher
        starts are dispatched as max_batch_size-bounded micro-batches, not
        one by one."""
        registry, model = registry_a
        plans = [r.plan for r in world["records_a"]][:10]
        config = ServerConfig(max_batch_size=8, result_cache_size=0)
        server = PredictorServer(registry, world["dbs"], config)
        handles = server.submit_many(plans, world["db_a"].name)
        server.start()
        expected = _direct(model, world["graphs_a"][:10])
        np.testing.assert_array_equal(
            np.array([h.result(30) for h in handles]), expected)
        server.stop()
        stats = server.stats()
        assert stats["batch_size_hist"] == {2: 1, 8: 1}
        assert stats["mean_batch_size"] == 5.0

    def test_submissions_after_stop_are_shed(self, world, registry_a):
        registry, _ = registry_a
        plans = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=0)
        server = PredictorServer(registry, world["dbs"], config)
        server.start()
        server.stop()
        handle = server.submit(plans[0], world["db_a"].name)
        assert handle.status is RequestStatus.SHED
        with pytest.raises(RequestShedError):
            handle.result()
        # start() re-opens admission.
        server.start()
        assert server.submit(plans[0],
                             world["db_a"].name).result(30) is not None
        server.stop()

    def test_result_cache_is_bounded(self, world, registry_a):
        registry, _ = registry_a
        plans = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=4)
        with PredictorServer(registry, world["dbs"], config) as server:
            server.predict(plans, world["db_a"].name)
            stats = server.stats()
        assert stats["result_cache_entries"] <= 4


# ----------------------------------------------------------------------
# Shutdown: queued handles must always resolve, never hang
# ----------------------------------------------------------------------
class TestShutdown:
    def test_stop_drains_queued_requests(self, world, registry_a):
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        config = ServerConfig(max_batch_size=4, result_cache_size=0)
        server = PredictorServer(registry, world["dbs"], config)
        # Queue everything before the batcher ever runs, then stop with
        # drain: every handle must still resolve to the exact value.
        handles = [server.submit(r.plan, world["db_a"].name)
                   for r in world["records_a"]]
        server.start()
        server.stop(drain=True)
        for handle, value in zip(handles, expected):
            assert handle.done()
            assert handle.status is RequestStatus.DONE
            assert handle.result() == float(value)

    def test_stop_without_drain_fails_queued_typed(self, world, registry_a):
        registry, _ = registry_a
        config = ServerConfig(max_batch_size=4, result_cache_size=0)
        server = PredictorServer(registry, world["dbs"], config)
        handles = [server.submit(r.plan, world["db_a"].name)
                   for r in world["records_a"]]
        server.start()
        server.stop(drain=False)
        for handle in handles:
            assert handle.done()  # resolved, not hanging
            assert handle.status in (RequestStatus.DONE,
                                     RequestStatus.FAILED)
            if handle.status is RequestStatus.FAILED:
                assert isinstance(handle.error, ServerClosedError)
                with pytest.raises(ServerClosedError):
                    handle.result()
        # At least the tail of the queue was dropped, typed.
        assert any(h.status is RequestStatus.FAILED for h in handles)

    def test_close_under_concurrent_submitters(self, world, registry_a):
        """close() races against live client threads: after it returns,
        every handle anyone got back has resolved — DONE, CACHED, SHED or
        typed-FAILED — and waiting on one never hangs."""
        registry, _ = registry_a
        config = ServerConfig(max_batch_size=4, result_cache_size=0,
                              queue_depth=8)
        server = PredictorServer(registry, world["dbs"], config)
        server.start()
        collected = [[] for _ in range(3)]
        stop_flag = threading.Event()

        def client(bucket):
            while not stop_flag.is_set():
                for record in world["records_a"]:
                    try:
                        bucket.append(server.submit(record.plan,
                                                    world["db_a"].name))
                    except RequestShedError:
                        pass

        threads = [threading.Thread(target=client, args=(bucket,),
                                    daemon=True)
                   for bucket in collected]
        for thread in threads:
            thread.start()
        server.close(drain=False)
        stop_flag.set()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        resolved = {RequestStatus.DONE, RequestStatus.CACHED,
                    RequestStatus.SHED, RequestStatus.FAILED}
        for handle in (h for bucket in collected for h in bucket):
            assert handle.wait(5.0)
            assert handle.status in resolved

    def test_context_manager_reentry(self, world, registry_a):
        registry, _ = registry_a
        server = PredictorServer(registry, world["dbs"],
                                 ServerConfig(result_cache_size=0))
        plan = world["records_a"][0].plan
        with server:
            first = server.submit(plan, world["db_a"].name).result(30.0)
        with server:  # start() after stop() re-opens admission
            second = server.submit(plan, world["db_a"].name).result(30.0)
        assert first == second


# ----------------------------------------------------------------------
# Load harness
# ----------------------------------------------------------------------
class TestLoadHarness:
    def test_open_loop_run_reports_consistent_numbers(self, world,
                                                      registry_a):
        registry, model = registry_a
        requests = [(world["db_a"].name, r.plan)
                    for r in world["records_a"]] * 2
        config = ServerConfig(max_batch_size=8, max_delay_ms=1.0)
        with PredictorServer(registry, world["dbs"], config) as server:
            report = run_load(server, requests,
                              LoadConfig(n_clients=3, rate_per_s=3000,
                                         seed=7))
        assert report.n_requests == len(requests)
        assert report.completed + report.cached == len(requests)
        assert report.shed == 0 and report.failed == 0
        assert report.throughput_rps > 0
        latency = report.latency_ms
        assert latency["p50"] <= latency["p95"] <= latency["p99"] \
            <= latency["max"]
        assert sum(report.batch_size_hist.values()) == \
            report.server_stats["batches"]
        # Duplicated plans hit the result cache unless both copies land in
        # the same micro-batch (a scheduling race), so the guaranteed facts
        # are: some hits, and exactly one cache entry per unique plan.
        assert report.cached > 0
        assert report.server_stats["result_cache_entries"] == \
            len(world["records_a"])
        assert report.availability == 1.0
        assert report.as_dict()["n_requests"] == len(requests)

    def test_saturation_mode_and_values_still_exact(self, world,
                                                    registry_a):
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        requests = [(world["db_a"].name, r.plan)
                    for r in world["records_a"]]
        config = ServerConfig(max_batch_size=16, max_delay_ms=2.0,
                              result_cache_size=0,
                              queue_depth=len(requests) + 4)
        with PredictorServer(registry, world["dbs"], config) as server:
            report = run_load(server, requests,
                              LoadConfig(n_clients=4, rate_per_s=None,
                                         seed=0, block=True))
            # Every plan predicted under load equals the direct call.
            out = server.predict([r.plan for r in world["records_a"]],
                                 world["db_a"].name)
        assert report.completed == len(requests)
        np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# Fingerprint plumbing added for serving
# ----------------------------------------------------------------------
class TestServingFingerprints:
    def test_database_digest_tracks_fingerprint(self, world):
        db = world["db_a"]
        assert database_digest(db) == database_digest(db.fingerprint())
        assert database_digest(db) != database_digest(world["db_b"])

    def test_plan_fingerprint_accepts_precomputed_db_fingerprint(self,
                                                                 world):
        db = world["db_a"]
        plan = world["records_a"][0].plan
        assert plan_fingerprint(db, plan, "exact") == plan_fingerprint(
            db, plan, "exact", db_fingerprint=db.fingerprint())

    def test_one_digest_per_fresh_request(self, world, registry_a,
                                          digest_calls):
        """The ingress hashes each submitted plan object once; the result
        cache, featurization and the observation tap read
        ``request.digest``, and a resubmitted plan object hashes nothing."""
        registry, model = registry_a
        plans = [r.plan for r in world["records_a"]]
        with PredictorServer(registry, world["dbs"]) as server:
            first = server.predict(plans, world["db_a"].name)
            assert digest_calls() == (len(plans), 0)
            again = server.predict(plans, world["db_a"].name)
            assert digest_calls() == (len(plans), 0)
        np.testing.assert_array_equal(first, _direct(model,
                                                     world["graphs_a"]))
        np.testing.assert_array_equal(again, first)

    def test_core_refuses_requests_without_digest(self, world, registry_a):
        from repro.serving import PredictionRequest, ServingCore
        registry, _ = registry_a
        core = ServingCore(registry, world["dbs"])
        request = PredictionRequest(world["db_a"].name,
                                    world["records_a"][0].plan)
        with pytest.raises(ValueError):
            core.process_batch([request])
        assert not request.done()

    def test_featurize_with_digest_keys_matches_key_path(self, world):
        """Plan digests are featurization-cache keys: ``keys=digests``
        returns the very graph objects the ``key()`` path cached, and the
        other way round."""
        dbs = world["dbs"]
        records = world["records_a"]
        digests = [plan_fingerprint(dbs[r.db_name], r.plan, "exact")
                   for r in records]
        cache = FeaturizationCache()
        assert digests == [cache.key(dbs[r.db_name], r.plan, "exact")
                           for r in records]
        by_key = featurize_records(records, dbs, feat_cache=cache)
        by_digest = featurize_records(records, dbs, feat_cache=cache,
                                      keys=digests)
        assert all(a is b for a, b in zip(by_key, by_digest))
        cache = FeaturizationCache()
        by_digest = featurize_records(records, dbs, feat_cache=cache,
                                      keys=digests)
        by_key = featurize_records(records, dbs, feat_cache=cache)
        assert all(a is b for a, b in zip(by_key, by_digest))
