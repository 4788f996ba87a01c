"""Equivalence tests for the stage-0 corpus engine.

Every fast path of the corpus engine must be *bit-identical* to its retained
executable reference:

* ``execute_trace`` ≡ per-plan ``execute_plan`` (rows, cardinalities, node
  profiles) across benchmark profiles,
* vectorized ``learn_spn`` ≡ ``learn_spn_reference`` (same tree structure,
  weights, leaf distributions, selectivities),
* ``simulate_runtime_ms_batch`` ≡ per-plan ``simulate_runtime_ms``,
* ``generate_trace`` ≡ ``generate_trace_reference`` (records, runtimes,
  timeout exclusions, index churn),
* the vectorized ``equi_join`` gather ≡ the per-run loop spec,
* planning through the per-call ``ScanEstimateScope`` ≡ planning with the
  estimator called directly (every plan annotation, local and distributed).

Plus the observability contract of the new per-trace memos (bounded,
counted, clearable) and the artifact-store SPN persistence.
"""

from collections import Counter

import numpy as np
import pytest

import repro.distributed.planner as distributed_planner
import repro.optimizer.planner as optimizer_planner
from repro import perfstats
from repro.bench.store import ArtifactStore
from repro.cardest import DataDrivenEstimator, TraditionalEstimator
from repro.cardest.spn import (_LeafSet, _Product, _Sum, learn_spn,
                               learn_spn_reference)
from repro.datagen import (generate_database, make_benchmark_database,
                           random_database_spec)
from repro.distributed import plan_distributed_query
from repro.executor import (TraceExecutionContext, execute_plan, execute_trace,
                            simulate_runtime_ms, simulate_runtime_ms_batch)
from repro.executor.executor import (_gather_parent_positions_reference,
                                     _run_positions)
from repro.optimizer import PlannerConfig, plan_query
from repro.storage import Index
from repro.workloads import (WorkloadConfig, WorkloadGenerator, generate_trace,
                             generate_trace_reference)

# Three benchmark profiles with different schema shapes / layouts.
PROFILES = ("airline", "imdb", "ssb")


def _workload(db, n=40, seed=0, mode="standard", max_joins=3):
    return WorkloadGenerator(db, WorkloadConfig(max_joins=max_joins,
                                                mode=mode),
                             seed=seed).generate(n)


def _planned_corpus(db, n=40, seed=0, mode="standard", max_joins=3,
                    planner_kwargs=None):
    queries = _workload(db, n=n, seed=seed, mode=mode, max_joins=max_joins)
    config = PlannerConfig(**(planner_kwargs or {}))
    return [plan_query(db, q, config=config) for q in queries]


def _indexed_db():
    """A snowflake database with every foreign key indexed."""
    spec = random_database_spec("nl_exec", seed=3, layout="snowflake",
                                base_rows=3000, n_tables=5, complexity=0.8)
    db = generate_database(spec)
    for fk in db.schema.foreign_keys:
        db.create_index(fk.child_table, fk.child_column)
    return db


# Planner settings that reach index scans and indexed nested loops.
_INDEX_FRIENDLY = dict(index_selectivity_threshold=0.5,
                       nested_loop_outer_threshold=1e9, min_parallel_pages=1)


def _capture(db, plans, runner):
    """Run ``runner`` over the plans and snapshot everything it annotates."""
    results = runner()
    return [
        {
            "rows": res.rows,
            "n_rows": res.n_rows,
            "profiles": [(id(node), dict(profile))
                         for node, profile in res.node_profiles],
            "true_rows": [node.true_rows for node in plan.iter_nodes()],
        }
        for plan, res in zip(plans, results)
    ]


@pytest.fixture(scope="module", params=PROFILES)
def profile_db(request):
    return make_benchmark_database(request.param, 2500)


class TestExecuteTraceEquivalence:
    def test_matches_per_plan_reference(self, profile_db):
        plans = _planned_corpus(profile_db, n=40)
        reference = _capture(profile_db, plans,
                             lambda: [execute_plan(profile_db, p)
                                      for p in plans])
        fast = _capture(profile_db, plans,
                        lambda: execute_trace(profile_db, plans))
        assert fast == reference

    def test_matches_with_indexed_nested_loops(self):
        db = _indexed_db()
        plans = _planned_corpus(db, n=40, seed=7, mode="complex",
                                max_joins=4, planner_kwargs=_INDEX_FRIENDLY)
        ops = {node.op_name for plan in plans for node in plan.iter_nodes()}
        assert "NestedLoopJoin" in ops and "IndexScan" in ops
        reference = _capture(db, plans,
                             lambda: [execute_plan(db, p) for p in plans])
        fast = _capture(db, plans, lambda: execute_trace(db, plans))
        assert fast == reference

    def test_shared_context_across_traces(self, profile_db):
        """One context serving two workloads still matches the reference."""
        ctx = TraceExecutionContext(profile_db)
        for seed in (0, 1):
            plans = _planned_corpus(profile_db, n=15, seed=seed)
            reference = _capture(profile_db, plans,
                                 lambda: [execute_plan(profile_db, p)
                                          for p in plans])
            fast = _capture(profile_db, plans,
                            lambda: execute_trace(profile_db, plans, ctx=ctx))
            assert fast == reference

    def test_gather_positions_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(0, 40))
            counts = rng.integers(0, 5, size=n)
            max_count = int(counts.max()) if n else 0
            order = rng.permutation(max(int(counts.sum()) + 10, 1))
            lo = rng.integers(0, max(len(order) - max_count, 1), size=n)
            hi = lo + counts
            expected = _gather_parent_positions_reference(order, lo, hi,
                                                          counts)
            actual = order[_run_positions(lo, counts)]
            np.testing.assert_array_equal(actual, expected)

    def test_index_structural_facts(self):
        dense = Index("t", "id", np.arange(100, dtype=np.float64))
        assert dense.unique_keys and dense.dense_keys
        shuffled = np.random.default_rng(0).permutation(100).astype(float)
        assert Index("t", "id", shuffled).dense_keys
        sparse = Index("t", "k", np.arange(100, dtype=np.float64) * 2.0)
        assert sparse.unique_keys and not sparse.dense_keys
        dup = Index("t", "k", np.array([1.0, 1.0, 2.0]))
        assert not dup.unique_keys and not dup.dense_keys
        keys, rows = dense.sorted_valid()
        np.testing.assert_array_equal(keys, np.arange(100, dtype=float))


class _Unscoped:
    """Planning without a scope: every estimate goes straight to the
    estimator (stands in for ``ScanEstimateScope`` in the reference run)."""

    def __init__(self, estimator):
        self._estimator = estimator

    def __getattr__(self, name):
        return getattr(self._estimator, name)

    def record_counters(self):
        pass


class _CountingEstimator(TraditionalEstimator):
    """Counts the scan estimates computed per (table, predicate object)."""

    def __init__(self):
        self.scans = Counter()

    def scan_rows(self, db, table, predicate):
        self.scans[(table, id(predicate))] += 1
        return super().scan_rows(db, table, predicate)


def _annotations(plan):
    """Every PlanNode annotation, in tree order, floats as exact hex."""
    return [(node.op_name, len(node.children), node.table, node.index_column,
             node.filter_predicate, node.join, node.aggregates,
             node.group_by, node.sort_keys, node.workers,
             node.scanned_columns, node.storage_format,
             float(node.est_rows).hex(), float(node.width).hex(),
             float(node.est_cost).hex(), float(node.est_self_cost).hex())
            for node in plan.iter_nodes()]


def _plan_both_ways(monkeypatch, planner_module, plan_all):
    """Annotations of ``plan_all()`` with the scope, then without it."""
    scoped = [_annotations(p) for p in plan_all()]
    with monkeypatch.context() as patch:
        patch.setattr(planner_module, "ScanEstimateScope", _Unscoped)
        direct = [_annotations(p) for p in plan_all()]
    return scoped, direct


# Workloads planned in the scope tests: (mode, max_joins, seed).
_SCOPE_WORKLOADS = [("standard", 3, 0), ("complex", 4, 1)]


class TestPlannerScanScope:
    """The per-call scan scope changes how often the planner estimates,
    never what it plans."""

    @pytest.mark.parametrize("mode,max_joins,seed", _SCOPE_WORKLOADS)
    def test_plans_bit_identical_to_unscoped(self, profile_db, monkeypatch,
                                              mode, max_joins, seed):
        queries = _workload(profile_db, n=40, seed=seed, mode=mode,
                            max_joins=max_joins)
        scoped, direct = _plan_both_ways(
            monkeypatch, optimizer_planner,
            lambda: [plan_query(profile_db, q) for q in queries])
        assert scoped == direct
        assert any(len(q.tables) > 2 for q in queries)

    def test_indexed_plans_bit_identical_to_unscoped(self, monkeypatch):
        db = _indexed_db()
        queries = _workload(db, n=40, seed=7, mode="complex", max_joins=4)
        config = PlannerConfig(**_INDEX_FRIENDLY)
        scoped, direct = _plan_both_ways(
            monkeypatch, optimizer_planner,
            lambda: [plan_query(db, q, config=config) for q in queries])
        assert scoped == direct
        ops = {row[0] for plan in scoped for row in plan}
        assert "NestedLoopJoin" in ops and "IndexScan" in ops

    @pytest.mark.parametrize("mode,max_joins,seed", _SCOPE_WORKLOADS)
    def test_distributed_plans_bit_identical_to_unscoped(
            self, profile_db, monkeypatch, mode, max_joins, seed):
        queries = _workload(profile_db, n=40, seed=seed, mode=mode,
                            max_joins=max_joins)
        scoped, direct = _plan_both_ways(
            monkeypatch, distributed_planner,
            lambda: [plan_distributed_query(profile_db, q) for q in queries])
        assert scoped == direct

    @pytest.mark.parametrize("planner", [plan_query, plan_distributed_query],
                             ids=["local", "distributed"])
    def test_one_scan_per_table_and_filter_per_call(self, profile_db,
                                                    planner):
        queries = _workload(profile_db, n=40, seed=1, mode="complex",
                            max_joins=4)
        estimator = _CountingEstimator()
        for query in queries:
            estimator.scans.clear()
            planner(profile_db, query, estimator=estimator)
            expected = {(t, id(query.filters.get(t))) for t in query.tables}
            assert set(estimator.scans) == expected
            assert set(estimator.scans.values()) == {1}
        # The memo died with the call: the estimator gained no state.
        assert list(vars(estimator)) == ["scans"]

    def test_counters_computed_and_served(self, profile_db):
        queries = [q for q in _workload(profile_db, n=40, seed=1,
                                        mode="complex", max_joins=4)
                   if len(q.tables) > 1]
        perfstats.reset()
        for query in queries:
            plan_query(profile_db, query)
        counters = perfstats.snapshot()
        assert counters.get("plan.scan_scope.computed", 0) == sum(
            len(q.tables) for q in queries)
        assert counters.get("plan.scan_scope.served", 0) > 0


class TestTraceMemoObservability:
    def test_counters_and_clear(self, profile_db):
        plans = _planned_corpus(profile_db, n=20)
        ctx = TraceExecutionContext(profile_db)
        perfstats.reset()
        execute_trace(profile_db, plans, ctx=ctx)
        counters = perfstats.snapshot()
        assert counters.get("execute.trace.plans", 0) == len(plans)
        assert counters.get("execute.scan_cache.miss", 0) > 0
        stats = ctx.stats()
        assert stats["scan_entries"] > 0
        assert stats["join_indexes"] >= 0
        # Re-running the same plans through the same context is all hits.
        perfstats.reset()
        execute_trace(profile_db, plans, ctx=ctx)
        counters = perfstats.snapshot()
        assert counters.get("execute.scan_cache.miss", 0) == 0
        assert counters.get("execute.scan_cache.hit", 0) > 0
        ctx.clear()
        assert ctx.stats() == {"scan_entries": 0, "join_indexes": 0,
                               "fk_domain_entries": 0}

    def test_scan_cache_bound_evicts(self, profile_db):
        plans = _planned_corpus(profile_db, n=25)
        ctx = TraceExecutionContext(profile_db, max_scan_entries=2)
        perfstats.reset()
        reference = _capture(profile_db, plans,
                             lambda: [execute_plan(profile_db, p)
                                      for p in plans])
        fast = _capture(profile_db, plans,
                        lambda: execute_trace(profile_db, plans, ctx=ctx))
        assert fast == reference  # evictions never change results
        assert ctx.stats()["scan_entries"] <= 2
        assert perfstats.snapshot().get("execute.scan_cache.eviction", 0) > 0


class TestSpnEquivalence:
    @staticmethod
    def _assert_tree_equal(a, b, path="root"):
        assert type(a) is type(b), path
        if isinstance(a, _LeafSet):
            assert list(a.leaves) == list(b.leaves), path
            for column in a.leaves:
                la, lb = a.leaves[column], b.leaves[column]
                assert la.null_mass == lb.null_mass, (path, column)
                for field in ("discrete_values", "discrete_masses",
                              "bin_edges", "bin_masses"):
                    va, vb = getattr(la, field), getattr(lb, field)
                    if va is None or vb is None:
                        assert va is None and vb is None, (path, column, field)
                    else:
                        np.testing.assert_array_equal(va, vb,
                                                      err_msg=f"{path}.{column}.{field}")
            return
        if isinstance(a, _Sum):
            np.testing.assert_array_equal(a.weights, b.weights, err_msg=path)
        assert len(a.children) == len(b.children), path
        for i, (ca, cb) in enumerate(zip(a.children, b.children)):
            TestSpnEquivalence._assert_tree_equal(ca, cb, f"{path}.{i}")

    @staticmethod
    def _table_arrays(table):
        from repro.cardest import spn_input_arrays
        return spn_input_arrays(table)

    def test_learn_spn_matches_reference(self, profile_db):
        for table_name in profile_db.schema.table_names:
            arrays = self._table_arrays(profile_db.table(table_name))
            fast = learn_spn(arrays, seed=0, max_rows=2000)
            reference = learn_spn_reference(arrays, seed=0, max_rows=2000)
            assert fast.columns == reference.columns
            assert fast.n_rows == reference.n_rows
            self._assert_tree_equal(fast._root, reference._root)
            assert fast._root._neutral_mass == reference._root._neutral_mass

    def test_learn_spn_dispatch_counters(self, profile_db):
        arrays = self._table_arrays(
            profile_db.table(profile_db.schema.table_names[0]))
        perfstats.reset()
        learn_spn(arrays, seed=0, max_rows=500)
        counters = perfstats.snapshot()
        assert counters.get("spn.learn.vectorized", 0) == 1
        assert counters.get("spn.learn.reference", 0) == 0

    def test_estimator_estimates_unchanged_by_vectorization(self, profile_db):
        """End to end: the estimator over fast-learned SPNs matches one whose
        SPNs were learned through the reference loop primitives."""
        import repro.cardest.datadriven as dd

        fast = DataDrivenEstimator(profile_db, sample_size=128, seed=0,
                                   max_spn_rows=1500, store=False)
        original = dd.learn_spn
        dd.learn_spn = learn_spn_reference
        try:
            reference = DataDrivenEstimator(profile_db, sample_size=128,
                                            seed=0, max_spn_rows=1500,
                                            store=False)
        finally:
            dd.learn_spn = original
        plans = _planned_corpus(profile_db, n=10)
        for plan in plans:
            for node in plan.iter_nodes():
                if node.is_scan and node.filter_predicate is not None:
                    if fast.supports(node.filter_predicate):
                        assert (fast.scan_rows(profile_db, node.table,
                                               node.filter_predicate)
                                == reference.scan_rows(profile_db, node.table,
                                                       node.filter_predicate))


class TestSpnStorePersistence:
    def test_build_persists_and_hydrates(self, tmp_path):
        db = make_benchmark_database("airline", 1500)
        store = ArtifactStore(tmp_path)
        perfstats.reset()
        cold = DataDrivenEstimator(db, sample_size=64, seed=0,
                                   max_spn_rows=1000, store=store)
        n_tables = len(db.schema.table_names)
        counters = perfstats.snapshot()
        assert counters.get("store.miss.spn", 0) == n_tables
        assert counters.get("spn.learn.vectorized", 0) == n_tables

        perfstats.reset()
        warm = DataDrivenEstimator(db, sample_size=64, seed=0,
                                   max_spn_rows=1000, store=store)
        counters = perfstats.snapshot()
        assert counters.get("store.hit.spn", 0) == n_tables
        assert counters.get("spn.learn.vectorized", 0) == 0  # no relearning
        for table_name in db.schema.table_names:
            cold_spn = cold._spns[table_name]
            warm_spn = warm._spns[table_name]
            assert cold_spn.columns == warm_spn.columns
            TestSpnEquivalence._assert_tree_equal(cold_spn._root,
                                                  warm_spn._root)

    def test_data_change_misses_fingerprint(self, tmp_path):
        db = make_benchmark_database("airline", 1000)
        store = ArtifactStore(tmp_path)
        DataDrivenEstimator(db, sample_size=64, seed=0, max_spn_rows=800,
                            store=store)
        # Mutate one table's content in place (row counts unchanged).
        table = db.table(db.schema.table_names[0])
        column = next(iter(table.columns.values()))
        column.values = column.values.copy()
        column.values[0] += 1.0
        perfstats.reset()
        DataDrivenEstimator(db, sample_size=64, seed=0, max_spn_rows=800,
                            store=store)
        counters = perfstats.snapshot()
        assert counters.get("store.miss.spn", 0) == 1  # only the edited table
        assert counters.get("spn.learn.vectorized", 0) == 1

    def test_refresh_hydrates_on_unchanged_data(self, tmp_path):
        # A non-default learning config: refresh must rebuild under the
        # constructor's (seed, max_spn_rows), hitting the exact store keys
        # the construction saved.
        db = make_benchmark_database("airline", 1000)
        store = ArtifactStore(tmp_path)
        estimator = DataDrivenEstimator(db, sample_size=64, seed=3,
                                        max_spn_rows=750, store=store)
        perfstats.reset()
        estimator.refresh()
        counters = perfstats.snapshot()
        assert counters.get("store.hit.spn", 0) == len(db.schema.table_names)
        assert counters.get("spn.learn.vectorized", 0) == 0


class TestBatchedSimulationEquivalence:
    def test_matches_per_plan_reference(self, profile_db):
        plans = _planned_corpus(profile_db, n=40)
        execute_trace(profile_db, plans)
        reference = np.array([simulate_runtime_ms(profile_db, p, seed=0)
                              for p in plans])
        batch = simulate_runtime_ms_batch(profile_db, plans, seed=0)
        np.testing.assert_array_equal(batch, reference)

    def test_matches_with_parallel_and_indexed_plans(self):
        spec = random_database_spec("sim_exec", seed=3, layout="snowflake",
                                    base_rows=3000, n_tables=5,
                                    complexity=0.8)
        db = generate_database(spec)
        for fk in db.schema.foreign_keys:
            db.create_index(fk.child_table, fk.child_column)
        plans = _planned_corpus(
            db, n=40, seed=7, mode="complex", max_joins=4,
            planner_kwargs=dict(index_selectivity_threshold=0.5,
                                nested_loop_outer_threshold=1e9,
                                min_parallel_pages=1))
        execute_trace(db, plans)
        for seed in (0, 11):
            reference = np.array([simulate_runtime_ms(db, p, seed=seed)
                                  for p in plans])
            batch = simulate_runtime_ms_batch(db, plans, seed=seed)
            np.testing.assert_array_equal(batch, reference)

    def test_distributed_operators_covered(self, toy_db):
        """Broadcast/Repartition/MergeJoin nodes go through the batch rules."""
        from repro.optimizer.plan import PlanNode

        def mini_plan():
            left = PlanNode("SeqScan", table="orders", est_rows=100.0,
                            width=16.0)
            right = PlanNode("SeqScan", table="customers", est_rows=10.0,
                             width=16.0)
            left.true_rows = 100.0
            right.true_rows = 10.0
            bcast = PlanNode("Broadcast", children=[right], est_rows=10.0,
                             width=16.0)
            bcast.true_rows = 10.0
            from repro.sql import JoinEdge
            join = PlanNode("MergeJoin", children=[left, bcast],
                            join=JoinEdge("orders", "customer_id",
                                          "customers", "id"),
                            est_rows=100.0, width=32.0)
            join.true_rows = 100.0
            repart = PlanNode("Repartition", children=[join], est_rows=100.0,
                              width=32.0)
            repart.true_rows = 100.0
            return repart

        plans = [mini_plan() for _ in range(4)]
        reference = np.array([simulate_runtime_ms(toy_db, p, seed=5)
                              for p in plans])
        batch = simulate_runtime_ms_batch(toy_db, plans, seed=5)
        np.testing.assert_array_equal(batch, reference)

    def test_simulation_dispatch_counter(self, profile_db):
        plans = _planned_corpus(profile_db, n=5)
        execute_trace(profile_db, plans)
        perfstats.reset()
        simulate_runtime_ms_batch(profile_db, plans, seed=0)
        assert perfstats.snapshot().get("simulate.batched", 0) == len(plans)


class TestGenerateTraceEquivalence:
    @pytest.mark.parametrize("index_mode,mode,seed",
                             [(False, "standard", 0), (False, "complex", 5),
                              (True, "standard", 2)])
    def test_matches_reference(self, index_mode, mode, seed):
        spec = random_database_spec("tracegen", seed=seed, layout="snowflake",
                                    base_rows=1200, n_tables=5,
                                    complexity=0.7)
        db = generate_database(spec)
        queries = WorkloadGenerator(db, WorkloadConfig(max_joins=3, mode=mode),
                                    seed=seed).generate(40)
        reference = generate_trace_reference(db, queries, seed=seed,
                                             index_mode=index_mode)
        fast = generate_trace(db, queries, seed=seed, index_mode=index_mode)
        assert fast.db_name == reference.db_name
        assert fast.excluded_timeouts == reference.excluded_timeouts
        assert len(fast) == len(reference)
        for fast_rec, ref_rec in zip(fast, reference):
            assert fast_rec.query is ref_rec.query
            assert fast_rec.runtime_ms == ref_rec.runtime_ms
            assert fast_rec.indexes == ref_rec.indexes
            assert ([n.true_rows for n in fast_rec.plan.iter_nodes()]
                    == [n.true_rows for n in ref_rec.plan.iter_nodes()])

    def test_timeout_exclusions_match(self):
        spec = random_database_spec("timeouts", seed=1, layout="star",
                                    base_rows=2000, n_tables=4,
                                    complexity=0.6)
        db = generate_database(spec)
        queries = WorkloadGenerator(db, WorkloadConfig(max_joins=3),
                                    seed=1).generate(30)
        # A timeout at the median runtime forces the exclusion path.
        timeout = float(np.median(
            generate_trace_reference(db, queries, seed=1).runtimes()))
        reference = generate_trace_reference(db, queries, seed=1,
                                             timeout_ms=timeout)
        fast = generate_trace(db, queries, seed=1, timeout_ms=timeout)
        assert reference.excluded_timeouts > 0
        assert fast.excluded_timeouts == reference.excluded_timeouts
        assert len(fast) == len(reference)
