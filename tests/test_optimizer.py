"""Tests for the traditional estimator, cost model, and planner."""

import numpy as np
import pytest

from repro.cardest import TraditionalEstimator
from repro.optimizer import (CostParameters, PlanNode, PlannerConfig,
                             annotate_costs, plan_query)
from repro.sql import (AggregateSpec, Comparison, JoinEdge, PredOp, Query,
                       conjunction, evaluate_predicate)
from repro.storage import Column, Database, DataType, Schema, Table


@pytest.fixture(scope="module")
def estimator():
    return TraditionalEstimator()


class TestTraditionalEstimator:
    def test_no_predicate_full_table(self, toy_db, estimator):
        assert estimator.scan_rows(toy_db, "orders", None) == 2000

    def test_eq_selectivity_via_mcv(self, toy_db, estimator):
        pred = Comparison("orders", "status", PredOp.EQ, "open")
        est = estimator.scan_rows(toy_db, "orders", pred)
        true = evaluate_predicate(pred, toy_db.table("orders")).sum()
        assert est == pytest.approx(true, rel=0.15)

    def test_range_selectivity_reasonable(self, toy_db, estimator):
        pred = Comparison("customers", "age", PredOp.LT, 40)
        est = estimator.scan_rows(toy_db, "customers", pred)
        true = evaluate_predicate(pred, toy_db.table("customers")).sum()
        assert est == pytest.approx(true, rel=0.35)

    def test_null_selectivities(self, toy_db, estimator):
        frac = toy_db.column_stats("orders", "amount").null_frac
        pred = Comparison("orders", "amount", PredOp.IS_NULL)
        assert estimator.predicate_selectivity(toy_db, pred) == pytest.approx(frac)
        pred_not = Comparison("orders", "amount", PredOp.IS_NOT_NULL)
        assert estimator.predicate_selectivity(toy_db, pred_not) == pytest.approx(1 - frac)

    def test_and_independence(self, toy_db, estimator):
        p1 = Comparison("orders", "priority", PredOp.EQ, 1)
        p2 = Comparison("orders", "status", PredOp.EQ, "open")
        s1 = estimator.predicate_selectivity(toy_db, p1)
        s2 = estimator.predicate_selectivity(toy_db, p2)
        both = estimator.predicate_selectivity(toy_db, conjunction([p1, p2]))
        assert both == pytest.approx(s1 * s2)

    def test_in_sums_equalities(self, toy_db, estimator):
        single = estimator.predicate_selectivity(
            toy_db, Comparison("orders", "status", PredOp.EQ, "open"))
        multi = estimator.predicate_selectivity(
            toy_db, Comparison("orders", "status", PredOp.IN, ["open", "shipped"]))
        assert multi > single

    def test_unknown_literal_defaults(self, toy_db, estimator):
        pred = Comparison("customers", "category", PredOp.EQ, "unobtainium")
        sel = estimator.predicate_selectivity(toy_db, pred)
        assert 0.0 <= sel <= 0.02

    def test_repeated_dictionary_word_uses_first_code(self, estimator):
        """A word a dictionary repeats maps to its first code, as
        ``list.index`` finds it, not to the index map's last one."""
        words = Column("word", DataType.CATEGORICAL,
                       np.array([0, 1, 2, 3, 2, 0], dtype=np.int64),
                       dictionary=["a", "b", "a", "c"])
        ids = Column("id", DataType.INT, np.arange(6, dtype=np.float64))
        db = Database("dups", Schema(["t"], []), [Table("t", [ids, words])])
        node = Comparison("t", "word", PredOp.EQ, "a")
        assert estimator._value_to_number(db, node, "a") == 0.0
        assert estimator._value_to_number(db, node, "b") == 1.0
        assert estimator._value_to_number(db, node, "c") == 3.0
        assert estimator._value_to_number(db, node, "zzz") is None
        stats = db.column_stats("t", "word")
        assert (estimator.predicate_selectivity(db, node)
                == estimator._eq_selectivity(stats, 0.0))

    def test_fk_join_card(self, toy_db, estimator):
        rows = estimator.join_rows(
            toy_db, {"orders", "customers"},
            [JoinEdge("orders", "customer_id", "customers", "id")], {})
        # FK join: |orders| rows expected.
        assert rows == pytest.approx(2000, rel=0.1)

    def test_query_rows_single_table(self, toy_db, estimator, filtered_query):
        assert estimator.query_rows(toy_db, filtered_query) > 0


class TestPlanner:
    def test_single_table_plan(self, toy_db, simple_count_query):
        plan = plan_query(toy_db, simple_count_query)
        ops = [n.op_name for n in plan.iter_nodes()]
        assert ops[-1] == "Aggregate"
        assert "SeqScan" in ops

    def test_join_plan_covers_all_tables(self, toy_db, join_query):
        plan = plan_query(toy_db, join_query)
        assert plan.children[0].base_tables() == {"orders", "customers", "regions"}
        joins = [n for n in plan.iter_nodes() if n.is_join]
        assert len(joins) == 2

    def test_costs_annotated_monotone(self, toy_db, join_query):
        plan = plan_query(toy_db, join_query)
        for node in plan.iter_nodes():
            assert node.est_cost >= node.est_self_cost >= 0.0
            for child in node.children:
                assert node.est_cost >= child.est_cost

    def test_index_scan_chosen_for_selective_filter(self, toy_db):
        toy_db.create_index("orders", "priority")
        try:
            query = Query(tables=("orders",),
                          filters={"orders": Comparison("orders", "priority",
                                                        PredOp.EQ, 0)},
                          aggregates=(AggregateSpec("count"),))
            config = PlannerConfig(index_selectivity_threshold=0.5,
                                   enable_parallel=False)
            plan = plan_query(toy_db, query, config=config)
            ops = [n.op_name for n in plan.iter_nodes()]
            assert "IndexScan" in ops
        finally:
            toy_db.drop_index("orders", "priority")

    def test_indexes_disabled(self, toy_db):
        toy_db.create_index("orders", "priority")
        try:
            query = Query(tables=("orders",),
                          filters={"orders": Comparison("orders", "priority",
                                                        PredOp.EQ, 0)},
                          aggregates=(AggregateSpec("count"),))
            plan = plan_query(toy_db, query,
                              config=PlannerConfig(enable_indexes=False))
            assert all(n.op_name != "IndexScan" for n in plan.iter_nodes())
        finally:
            toy_db.drop_index("orders", "priority")

    def test_nested_loop_for_small_outer(self, toy_db):
        toy_db.create_index("orders", "customer_id")
        try:
            query = Query(
                tables=("customers", "orders"),
                joins=(JoinEdge("orders", "customer_id", "customers", "id"),),
                filters={"customers": Comparison("customers", "category",
                                                 PredOp.EQ, "gold")},
                aggregates=(AggregateSpec("count"),))
            plan = plan_query(toy_db, query)
            ops = [n.op_name for n in plan.iter_nodes()]
            assert "NestedLoopJoin" in ops
            assert "IndexScan" in ops
        finally:
            toy_db.drop_index("orders", "customer_id")

    def test_group_by_uses_hash_aggregate(self, toy_db):
        query = Query(tables=("orders",),
                      aggregates=(AggregateSpec("count"),),
                      group_by=(("orders", "status"),))
        plan = plan_query(toy_db, query)
        assert plan.op_name == "HashAggregate"
        assert plan.est_rows <= 3.0

    def test_order_by_adds_sort(self, toy_db):
        query = Query(tables=("orders",),
                      aggregates=(AggregateSpec("count"),),
                      group_by=(("orders", "status"),),
                      order_by=(("orders", "status"),))
        plan = plan_query(toy_db, query)
        assert plan.op_name == "Sort"

    def test_parallel_scan_for_large_table(self, gen_db):
        fact = gen_db.schema.table_names[0]
        pages = gen_db.table_stats(fact).relpages
        config = PlannerConfig(min_parallel_pages=min(pages, 10))
        query = Query(tables=(fact,), aggregates=(AggregateSpec("count"),))
        plan = plan_query(gen_db, query, config=config)
        ops = {n.op_name: n for n in plan.iter_nodes()}
        assert "Gather" in ops
        assert ops["SeqScan"].workers >= 2

    def test_explain_smoke(self, toy_db, join_query):
        plan = plan_query(toy_db, join_query)
        text = plan.explain()
        assert "HashJoin" in text or "NestedLoopJoin" in text
        assert "rows=" in text

    def test_generated_db_plans(self, gen_db):
        """Planner handles every table of a generated database."""
        for table in gen_db.schema.table_names:
            query = Query(tables=(table,), aggregates=(AggregateSpec("count"),))
            plan = plan_query(gen_db, query)
            assert plan.est_cost > 0


class TestCostModel:
    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            PlanNode("FlumpScan")

    def test_bigger_table_costs_more(self, toy_db):
        small = plan_query(toy_db, Query(tables=("customers",),
                                         aggregates=(AggregateSpec("count"),)))
        large = plan_query(toy_db, Query(tables=("orders",),
                                         aggregates=(AggregateSpec("count"),)))
        assert large.est_cost > small.est_cost

    def test_cost_parameters_scale(self, toy_db, simple_count_query):
        cheap = plan_query(toy_db, simple_count_query,
                           config=PlannerConfig(cost_parameters=CostParameters()))
        expensive_params = CostParameters(seq_page_cost=10.0, cpu_tuple_cost=0.1)
        expensive = plan_query(toy_db, simple_count_query,
                               config=PlannerConfig(cost_parameters=expensive_params))
        assert expensive.est_cost > cheap.est_cost
