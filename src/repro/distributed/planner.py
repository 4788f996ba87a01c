"""Distributed query planning (§5.1, Figure 4).

Transforms the logical query into a distributed physical plan for a columnar
cloud data warehouse:

* base accesses are **ColumnarScan** operators that read only the referenced
  columns (scanned-column accounting in widths, pages, and featurization),
* every join's build side is shipped over the network: **Broadcast** when
  the build input is small, **Repartition** (both inputs hash-partitioned
  on the join key) otherwise,
* a final **Gather** returns results to the coordinator.
"""

from __future__ import annotations

from ..cardest.traditional import ScanEstimateScope, TraditionalEstimator
from ..optimizer import PlanNode, annotate_costs
from ..optimizer.planner import _greedy_join_order, _join_edges_inside
from ..sql import Query
from .cluster import ClusterConfig, DEFAULT_CLUSTER

__all__ = ["plan_distributed_query", "distributed_storage_formats"]


def distributed_storage_formats(db):
    """All tables are column-store in the cloud DW (table-node feature)."""
    return {table: "column" for table in db.schema.table_names}


def _scanned_columns(db, query, table):
    needed = set(query.referenced_columns(table)) | set(query.filter_columns(table))
    if not needed:
        needed = {list(db.table(table).columns)[0]}
    return tuple(sorted(needed))


def _columnar_scan(db, query, table, estimator, cluster):
    columns = _scanned_columns(db, query, table)
    width = sum(db.column_stats(table, c).width for c in columns)
    predicate = query.filters.get(table)
    return PlanNode("ColumnarScan", table=table, filter_predicate=predicate,
                    scanned_columns=columns, storage_format="column",
                    est_rows=max(estimator.scan_rows(db, table, predicate), 1.0),
                    width=width, workers=cluster.n_nodes)


def _shuffle(node, kind, cluster):
    return PlanNode(kind, children=[node], est_rows=node.est_rows,
                    width=node.width, workers=cluster.n_nodes)


def plan_distributed_query(db, query: Query, cluster: ClusterConfig = None,
                           estimator=None) -> PlanNode:
    """Plan a query for the simulated distributed cloud data warehouse.

    Like :func:`~repro.optimizer.planner.plan_query`, the call plans
    through a :class:`ScanEstimateScope` over ``estimator``.
    """
    cluster = cluster or DEFAULT_CLUSTER
    estimator = ScanEstimateScope(estimator or TraditionalEstimator())

    if len(query.tables) == 1:
        node = _columnar_scan(db, query, query.tables[0], estimator, cluster)
    else:
        order = _greedy_join_order(db, query, estimator)
        node = _columnar_scan(db, query, order[0], estimator, cluster)
        joined = [order[0]]
        for table in order[1:]:
            right = _columnar_scan(db, query, table, estimator, cluster)
            subset = set(joined) | {table}
            edges = _join_edges_inside(query, subset)
            new_edges = [e for e in edges if table in e.tables()]
            join_edge = new_edges[0] if new_edges else None
            out_rows = estimator.join_rows(db, subset, edges, query.filters)

            # Probe = bigger input, build = smaller (as in the local planner).
            if right.est_rows <= node.est_rows:
                probe, build = node, right
            else:
                probe, build = right, node
            build_bytes = build.est_rows * max(build.width, 8.0)
            if build_bytes <= cluster.broadcast_threshold_bytes:
                build = _shuffle(build, "Broadcast", cluster)
            else:
                build = _shuffle(build, "Repartition", cluster)
                probe = _shuffle(probe, "Repartition", cluster)
            node = PlanNode("HashJoin", children=[probe, build], join=join_edge,
                            est_rows=max(out_rows, 1.0),
                            width=probe.width + build.width,
                            workers=cluster.n_nodes)
            joined.append(table)

    if query.group_by:
        groups = 1.0
        for table, column in query.group_by:
            groups *= max(db.column_stats(table, column).ndistinct, 1)
        agg = PlanNode("HashAggregate", children=[node],
                       aggregates=tuple(query.aggregates),
                       group_by=tuple(query.group_by),
                       est_rows=max(1.0, min(groups, node.est_rows)),
                       width=8.0 * (len(query.aggregates) + len(query.group_by)),
                       workers=cluster.n_nodes)
    else:
        agg = PlanNode("Aggregate", children=[node],
                       aggregates=tuple(query.aggregates), est_rows=1.0,
                       width=8.0 * len(query.aggregates),
                       workers=cluster.n_nodes)
    node = agg
    if query.order_by:
        node = PlanNode("Sort", children=[node], sort_keys=tuple(query.order_by),
                        est_rows=node.est_rows, width=node.width)
    root = PlanNode("Gather", children=[node], est_rows=node.est_rows,
                    width=node.width, workers=cluster.n_nodes)
    annotate_costs(db, root)
    estimator.record_counters()
    return root
