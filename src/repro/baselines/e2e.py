"""E2E workload-driven baseline (Sun & Li, VLDB 2019).

Featurizes the *physical plan tree* and aggregates it bottom-up with a
neural model — like the zero-shot architecture — but with the
**non-transferable** encodings the paper describes in Section 3.1.1:
one-hot table identities, one-hot filter columns and normalized literal
values, all defined against the vocabulary of one specific database.  The
model therefore has to be trained from scratch, with freshly executed
queries, for every database (the cost the zero-shot approach removes).
"""

from __future__ import annotations

import numpy as np

from ..featurization import FeatureScalers, QueryGraph, make_batch
from ..nn import MLP, Module, Tensor, concat, q_error_metrics, scatter_sum
from ..optimizer import OPERATOR_NAMES
from ..sql import Comparison, PredOp, iter_predicate_nodes
from ._training import fit_neural_regressor, predict_neural_regressor

__all__ = ["E2EFeaturizer", "E2EModel"]

_PRED_OPS = list(PredOp)


class E2EFeaturizer:
    """Database-specific plan featurization (one-hot tables/columns/literals)."""

    def __init__(self, db):
        self.db = db
        self.tables = sorted(db.schema.table_names)
        self.columns = sorted((t, c) for t in self.tables
                              for c in db.table(t).columns)
        self._table_index = {t: i for i, t in enumerate(self.tables)}
        self._column_index = {tc: i for i, tc in enumerate(self.columns)}

    @property
    def feature_dim(self):
        return (4 + len(OPERATOR_NAMES) + len(self.tables)
                + len(self.columns) + len(_PRED_OPS) + 2)

    def _normalized_literal(self, node: Comparison):
        """Literal value scaled into [0, 1] by the column's domain."""
        stats = self.db.column_stats(node.table, node.column)
        column = self.db.column(node.table, node.column)
        value = node.literal
        if isinstance(value, (list, tuple)):
            return 0.5
        if isinstance(value, str):
            if column.dictionary is None:
                return 0.5
            code = column.dictionary_index.get(value)
            if code is None:
                return 0.5
            return code / max(len(column.dictionary), 1)
        if value is None or not np.isfinite(stats.min_value):
            return 0.5
        span = stats.max_value - stats.min_value
        if span <= 0:
            return 0.5
        return float(np.clip((value - stats.min_value) / span, 0.0, 1.0))

    def node_features(self, node):
        base = np.array([
            np.log1p(max(node.est_rows, 0.0)),
            np.log1p(node.child_rows_product()),
            np.log1p(max(node.width, 0.0)),
            float(node.workers),
        ])
        op_vec = np.zeros(len(OPERATOR_NAMES))
        op_vec[OPERATOR_NAMES.index(node.op_name)] = 1.0
        table_vec = np.zeros(len(self.tables))
        if node.table is not None:
            table_vec[self._table_index[node.table]] = 1.0
        column_vec = np.zeros(len(self.columns))
        pred_vec = np.zeros(len(_PRED_OPS))
        literals = []
        for pred in iter_predicate_nodes(node.filter_predicate):
            pred_vec[_PRED_OPS.index(pred.op)] += 1.0
            if isinstance(pred, Comparison):
                column_vec[self._column_index[(pred.table, pred.column)]] = 1.0
                literals.append(self._normalized_literal(pred))
        literal_stats = np.array([
            float(np.mean(literals)) if literals else 0.5,
            float(len(literals)),
        ])
        return np.concatenate([base, op_vec, table_vec, column_vec, pred_vec,
                               literal_stats])

    def plan_graph(self, plan) -> QueryGraph:
        """Plan tree as a graph of 'plan' nodes with db-specific features."""
        graph = QueryGraph()

        def visit(node):
            child_ids = [visit(child) for child in node.children]
            node_id = graph.add_node("plan", self.node_features(node))
            for child_id in child_ids:
                graph.add_edge(child_id, node_id)
            return node_id

        graph.root = visit(plan)
        graph.validate()
        return graph


class _TreeRegressor(Module):
    """Encoder + child-sum message passing + estimator over plan trees."""

    def __init__(self, in_dim, hidden_dim, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.hidden_dim = hidden_dim
        self.encoder = MLP(in_dim, [hidden_dim], hidden_dim, rng=rng)
        self.combiner = MLP(2 * hidden_dim, [hidden_dim], hidden_dim, rng=rng)
        self.estimator = MLP(hidden_dim, [hidden_dim], 1, rng=rng)

    def forward(self, batch):
        initial = self.encoder(Tensor(batch.features["plan"]))
        updated = Tensor(np.zeros((batch.n_nodes, self.hidden_dim)))
        for level_groups in batch.levels:
            for group in level_groups:
                n_group = len(group.node_indices)
                if group.edge_children.size:
                    child_sum = scatter_sum(
                        updated.gather_rows(group.edge_children),
                        group.edge_parent_slots, n_group)
                else:
                    child_sum = Tensor(np.zeros((n_group, self.hidden_dim)))
                own = initial.gather_rows(group.node_indices)
                new_states = self.combiner(concat([child_sum, own], axis=1))
                updated = updated + scatter_sum(new_states, group.node_indices,
                                                batch.n_nodes)
        return self.estimator(updated.gather_rows(batch.roots)).reshape(-1)


class E2EModel:
    """Per-database workload-driven cost model over physical plans."""

    def __init__(self, db, hidden_dim=64, seed=0):
        self.db = db
        self.featurizer = E2EFeaturizer(db)
        self.model = _TreeRegressor(self.featurizer.feature_dim, hidden_dim,
                                    seed)
        self.feature_scalers = None
        self.target_scaler = None
        self.seed = seed

    def _graphs(self, records):
        return [self.featurizer.plan_graph(r.plan) for r in records]

    def fit(self, trace, epochs=60, learning_rate=1e-3, batch_size=32):
        records = list(trace)
        if any(r.db_name != self.db.name for r in records):
            raise ValueError("E2E models are bound to a single database")
        graphs = self._graphs(records)
        self.feature_scalers = FeatureScalers().fit(graphs)
        runtimes = np.array([r.runtime_ms for r in records])

        def build_batch(indices):
            return make_batch([graphs[i] for i in indices],
                              self.feature_scalers)

        self.target_scaler, self.history = fit_neural_regressor(
            self.model, build_batch, len(graphs), runtimes, epochs=epochs,
            learning_rate=learning_rate, batch_size=batch_size,
            seed=self.seed)
        return self

    def predict(self, records):
        if self.target_scaler is None:
            raise RuntimeError("model is not fitted")
        records = list(records)
        graphs = self._graphs(records)

        def build_batch(indices):
            return make_batch([graphs[i] for i in indices],
                              self.feature_scalers)

        return predict_neural_regressor(self.model, build_batch, len(graphs),
                                        self.target_scaler)

    def evaluate(self, trace):
        records = list(trace)
        predictions = self.predict(records)
        actuals = np.array([r.runtime_ms for r in records])
        return q_error_metrics(predictions, actuals)
