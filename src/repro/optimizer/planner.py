"""Query planner: join ordering, access paths, operator selection.

The planner mirrors the relevant parts of Postgres' behaviour: greedy
left-deep join ordering on estimated cardinalities, index scans for selective
sargable predicates, nested-loop joins with indexed inners for small outers,
hash joins otherwise (build on the smaller side), parallel sequential scans
for large tables, and hash/plain aggregation on top.

All planning decisions use the *traditional* estimator (as Postgres does);
better cardinalities from data-driven models are injected only into the
features handed to the cost models, mirroring the paper's setup where plans
come from Postgres regardless of the cardinality source.

Each planning call plans through a :class:`ScanEstimateScope` over its
estimator: join ordering asks for the scans of every candidate subset, and
the scope computes each table's scan estimate under the query's filter
once for the whole call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cardest.traditional import ScanEstimateScope, TraditionalEstimator
from ..sql import Comparison, PredOp, Query, conjunction
from .cost_model import CostParameters, annotate_costs
from .plan import PlanNode

__all__ = ["PlannerConfig", "plan_query"]


@dataclass(frozen=True)
class PlannerConfig:
    """Planner knobs (subset of the Postgres settings that matter here)."""

    enable_indexes: bool = True
    enable_parallel: bool = True
    index_selectivity_threshold: float = 0.08
    nested_loop_outer_threshold: float = 2000.0
    min_parallel_pages: int = 64
    max_workers: int = 4
    work_mem_kb: int = 4096
    cost_parameters: CostParameters = CostParameters()


def _table_width(db, query, table):
    """Output width of a scan: the columns needed above it."""
    needed = query.referenced_columns(table)
    if not needed:
        needed = {"id"} if "id" in db.table(table) else set(list(db.table(table).columns)[:1])
    return sum(db.column_stats(table, col).width for col in needed)


def _sargable_candidates(db, table, predicate):
    """Top-level AND conjuncts usable for an index scan on an existing
    index of ``table``: (node, rest)."""
    if predicate is None:
        return []
    if isinstance(predicate, Comparison):
        conjuncts = [predicate]
    elif predicate.op == PredOp.AND:
        conjuncts = list(predicate.children)
    else:
        return []
    out = []
    for i, node in enumerate(conjuncts):
        if (isinstance(node, Comparison)
                and (node.op == PredOp.EQ or node.op.is_range
                     or node.op == PredOp.IN)
                and db.index_on(table, node.column) is not None):
            rest = conjuncts[:i] + conjuncts[i + 1:]
            out.append((node, conjunction(rest)))
    return out


def _build_scan(db, query, table, estimator, config):
    """Choose SeqScan / IndexScan (+ Gather for parallel scans)."""
    predicate = query.filters.get(table)
    stats = db.table_stats(table)
    est_rows = estimator.scan_rows(db, table, predicate)
    width = _table_width(db, query, table)

    if config.enable_indexes:
        best = None
        for node, rest in _sargable_candidates(db, table, predicate):
            sel = estimator.predicate_selectivity(db, node)
            if sel <= config.index_selectivity_threshold:
                if best is None or sel < best[0]:
                    best = (sel, node, rest)
        if best is not None:
            _, node, rest = best
            scan = PlanNode("IndexScan", table=table, index_column=node.column,
                            filter_predicate=conjunction([node, rest]),
                            est_rows=max(est_rows, 1.0), width=width)
            return scan

    workers = 1
    if config.enable_parallel and stats.relpages >= config.min_parallel_pages:
        workers = int(min(config.max_workers,
                          1 + np.log2(stats.relpages / config.min_parallel_pages + 1)))
        workers = max(workers, 2)
    scan = PlanNode("SeqScan", table=table, filter_predicate=predicate,
                    est_rows=max(est_rows, 1.0), width=width, workers=workers)
    if workers > 1:
        return PlanNode("Gather", children=[scan], est_rows=scan.est_rows,
                        width=width, workers=workers)
    return scan


def _join_edges_inside(query, tables):
    return [j for j in query.joins if j.tables() <= tables]


def _greedy_join_order(db, query, estimator):
    """Greedy left-deep order: start at the smallest filtered table, then
    repeatedly add the connected table minimizing the intermediate result."""
    remaining = set(query.tables)
    cards = {t: estimator.scan_rows(db, t, query.filters.get(t))
             for t in remaining}
    current = min(remaining, key=lambda t: cards[t])
    order = [current]
    joined = {current}
    remaining.discard(current)
    while remaining:
        candidates = []
        for join in query.joins:
            ts = join.tables()
            inside, outside = ts & joined, ts - joined
            if inside and outside:
                candidates.append(next(iter(outside)))
        if not candidates:
            # Disconnected (should not happen: Query validates connectivity).
            candidates = list(remaining)
        best, best_card = None, None
        for table in set(candidates):
            subset = joined | {table}
            card = estimator.join_rows(db, subset,
                                       _join_edges_inside(query, subset),
                                       query.filters)
            if best_card is None or card < best_card:
                best, best_card = table, card
        order.append(best)
        joined.add(best)
        remaining.discard(best)
    return order


def _choose_join(db, query, estimator, config, left_node, left_tables, table):
    """Physical join of the current left tree with base ``table``."""
    subset = set(left_tables) | {table}
    edges = _join_edges_inside(query, subset)
    new_edges = [e for e in edges if table in e.tables() and (e.tables() - {table}) <= set(left_tables)]
    join_edge = new_edges[0] if new_edges else None
    out_rows = estimator.join_rows(db, subset, edges, query.filters)

    # Nested loop with indexed inner: attractive for small outers.
    join_column_on_table = None
    if join_edge is not None:
        join_column_on_table = (join_edge.child_column
                                if join_edge.child_table == table
                                else join_edge.parent_column)
    use_nl = (config.enable_indexes
              and join_edge is not None
              and db.index_on(table, join_column_on_table) is not None
              and left_node.est_rows <= config.nested_loop_outer_threshold)

    width = left_node.width + _table_width(db, query, table)

    if use_nl:
        per_probe = max(out_rows / max(left_node.est_rows, 1.0), 1.0)
        inner = PlanNode("IndexScan", table=table,
                         index_column=join_column_on_table,
                         filter_predicate=query.filters.get(table),
                         est_rows=per_probe,
                         width=_table_width(db, query, table))
        return PlanNode("NestedLoopJoin", children=[left_node, inner],
                        join=join_edge, est_rows=max(out_rows, 1.0), width=width)

    right = _build_scan(db, query, table, estimator, config)
    # Hash join: build on the smaller input (children = [probe, build]).
    if right.est_rows <= left_node.est_rows:
        probe, build = left_node, right
    else:
        probe, build = right, left_node
    return PlanNode("HashJoin", children=[probe, build], join=join_edge,
                    est_rows=max(out_rows, 1.0), width=width)


def _estimate_groups(db, query, input_rows):
    ndv = 1.0
    for table, column in query.group_by:
        ndv *= max(db.column_stats(table, column).ndistinct, 1)
    return max(1.0, min(ndv, input_rows))


def plan_query(db, query: Query, estimator=None, config=None) -> PlanNode:
    """Plan a logical query into an annotated physical plan.

    ``estimator`` is a :class:`TraditionalEstimator` (default: a fresh
    one); the call plans through a :class:`ScanEstimateScope` over it.
    """
    estimator = ScanEstimateScope(estimator or TraditionalEstimator())
    config = config or PlannerConfig()

    if len(query.tables) == 1:
        node = _build_scan(db, query, query.tables[0], estimator, config)
    else:
        order = _greedy_join_order(db, query, estimator)
        node = _build_scan(db, query, order[0], estimator, config)
        joined = [order[0]]
        for table in order[1:]:
            node = _choose_join(db, query, estimator, config, node, joined, table)
            joined.append(table)

    if query.group_by:
        agg = PlanNode("HashAggregate", children=[node],
                       aggregates=tuple(query.aggregates),
                       group_by=tuple(query.group_by),
                       est_rows=_estimate_groups(db, query, node.est_rows),
                       width=8.0 * (len(query.aggregates) + len(query.group_by)))
    else:
        agg = PlanNode("Aggregate", children=[node],
                       aggregates=tuple(query.aggregates),
                       est_rows=1.0, width=8.0 * len(query.aggregates))
    node = agg

    if query.order_by:
        node = PlanNode("Sort", children=[node], sort_keys=tuple(query.order_by),
                        est_rows=node.est_rows, width=node.width)

    annotate_costs(db, node, config.cost_parameters)
    estimator.record_counters()
    return node
