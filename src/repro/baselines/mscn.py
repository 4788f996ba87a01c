"""MSCN workload-driven baseline (Kipf et al., CIDR 2019).

Multi-set convolutional network: a query is encoded as three *sets* — tables,
joins, predicates — each element embedded by a set-specific MLP and averaged;
the pooled vectors feed a final output network.  The encoding is oblivious
of the physical plan (no operators, no widths, no parallelism), which is why
MSCN plateaus above E2E on runtime prediction (Fig. 6/10 of the paper), and
it is non-transferable: table / join / column identities are one-hot against
one database's vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import MLP, Module, Tensor, concat, q_error_metrics, scatter_sum
from ..sql import Comparison, PredOp, iter_predicate_nodes
from ._training import fit_neural_regressor, predict_neural_regressor

__all__ = ["MSCNFeaturizer", "MSCNModel"]

_PRED_OPS = list(PredOp)


@dataclass
class _SetBatch:
    """Stacked set elements with query segment ids, per set kind."""

    tables: np.ndarray
    table_segments: np.ndarray
    joins: np.ndarray
    join_segments: np.ndarray
    predicates: np.ndarray
    predicate_segments: np.ndarray
    n_queries: int


class MSCNFeaturizer:
    """Database-specific set encodings for queries."""

    def __init__(self, db):
        self.db = db
        self.tables = sorted(db.schema.table_names)
        self._table_index = {t: i for i, t in enumerate(self.tables)}
        self.joins = [(fk.child_table, fk.child_column,
                       fk.parent_table, fk.parent_column)
                      for fk in db.schema.foreign_keys]
        self._join_index = {j: i for i, j in enumerate(self.joins)}
        self.columns = sorted((t, c) for t in self.tables
                              for c in db.table(t).columns)
        self._column_index = {tc: i for i, tc in enumerate(self.columns)}

    @property
    def table_dim(self):
        return len(self.tables) + 1

    @property
    def join_dim(self):
        return max(len(self.joins), 1)

    @property
    def predicate_dim(self):
        return len(self.columns) + len(_PRED_OPS) + 1

    def table_elements(self, query):
        rows = []
        for table in query.tables:
            vec = np.zeros(self.table_dim)
            vec[self._table_index[table]] = 1.0
            vec[-1] = np.log1p(self.db.table_stats(table).reltuples)
            rows.append(vec)
        return rows

    def join_elements(self, query):
        rows = []
        for join in query.joins:
            vec = np.zeros(self.join_dim)
            key = (join.child_table, join.child_column,
                   join.parent_table, join.parent_column)
            index = self._join_index.get(key)
            if index is not None:
                vec[index] = 1.0
            rows.append(vec)
        return rows

    def _normalized_literal(self, node):
        stats = self.db.column_stats(node.table, node.column)
        column = self.db.column(node.table, node.column)
        value = node.literal
        if isinstance(value, (list, tuple)) or value is None:
            return 0.5
        if isinstance(value, str):
            if column.dictionary is None:
                return 0.5
            code = column.dictionary_index.get(value)
            if code is None:
                return 0.5
            return code / max(len(column.dictionary), 1)
        span = stats.max_value - stats.min_value
        if not np.isfinite(span) or span <= 0:
            return 0.5
        return float(np.clip((value - stats.min_value) / span, 0.0, 1.0))

    def predicate_elements(self, query):
        rows = []
        for predicate in query.filters.values():
            for node in iter_predicate_nodes(predicate):
                if not isinstance(node, Comparison):
                    continue
                vec = np.zeros(self.predicate_dim)
                vec[self._column_index[(node.table, node.column)]] = 1.0
                vec[len(self.columns) + _PRED_OPS.index(node.op)] = 1.0
                vec[-1] = self._normalized_literal(node)
                rows.append(vec)
        return rows

    def batch(self, queries) -> _SetBatch:
        def stack(element_lists, dim):
            rows, segments = [], []
            for q_idx, elements in enumerate(element_lists):
                for element in elements:
                    rows.append(element)
                    segments.append(q_idx)
            if rows:
                return np.stack(rows), np.array(segments, dtype=np.int64)
            return np.zeros((0, dim)), np.array([], dtype=np.int64)

        tables, t_seg = stack([self.table_elements(q) for q in queries],
                              self.table_dim)
        joins, j_seg = stack([self.join_elements(q) for q in queries],
                             self.join_dim)
        preds, p_seg = stack([self.predicate_elements(q) for q in queries],
                             self.predicate_dim)
        return _SetBatch(tables, t_seg, joins, j_seg, preds, p_seg,
                         n_queries=len(queries))


class _MSCNNet(Module):
    def __init__(self, table_dim, join_dim, predicate_dim, hidden_dim, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.hidden_dim = hidden_dim
        self.table_mlp = MLP(table_dim, [hidden_dim], hidden_dim, rng=rng)
        self.join_mlp = MLP(join_dim, [hidden_dim], hidden_dim, rng=rng)
        self.predicate_mlp = MLP(predicate_dim, [hidden_dim], hidden_dim, rng=rng)
        self.output = MLP(3 * hidden_dim, [hidden_dim], 1, rng=rng)

    def _pool(self, mlp, elements, segments, n_queries):
        if len(elements) == 0:
            return Tensor(np.zeros((n_queries, self.hidden_dim)))
        hidden = mlp(Tensor(elements))
        summed = scatter_sum(hidden, segments, n_queries)
        counts = np.maximum(np.bincount(segments, minlength=n_queries), 1.0)
        return summed * Tensor(1.0 / counts[:, None])

    def forward(self, batch: _SetBatch):
        pooled = concat([
            self._pool(self.table_mlp, batch.tables, batch.table_segments,
                       batch.n_queries),
            self._pool(self.join_mlp, batch.joins, batch.join_segments,
                       batch.n_queries),
            self._pool(self.predicate_mlp, batch.predicates,
                       batch.predicate_segments, batch.n_queries),
        ], axis=1)
        return self.output(pooled).reshape(-1)


class MSCNModel:
    """Per-database set-based cost model (plan-oblivious)."""

    def __init__(self, db, hidden_dim=64, seed=0):
        self.db = db
        self.featurizer = MSCNFeaturizer(db)
        self.model = _MSCNNet(self.featurizer.table_dim,
                              self.featurizer.join_dim,
                              self.featurizer.predicate_dim,
                              hidden_dim, seed)
        self.target_scaler = None
        self.seed = seed

    def fit(self, trace, epochs=60, learning_rate=1e-3, batch_size=64):
        records = list(trace)
        if any(r.db_name != self.db.name for r in records):
            raise ValueError("MSCN models are bound to a single database")
        queries = [r.query for r in records]
        runtimes = np.array([r.runtime_ms for r in records])

        def build_batch(indices):
            return self.featurizer.batch([queries[i] for i in indices])

        self.target_scaler, self.history = fit_neural_regressor(
            self.model, build_batch, len(queries), runtimes, epochs=epochs,
            learning_rate=learning_rate, batch_size=batch_size, seed=self.seed)
        return self

    def predict(self, records):
        if self.target_scaler is None:
            raise RuntimeError("model is not fitted")
        queries = [r.query for r in records]

        def build_batch(indices):
            return self.featurizer.batch([queries[i] for i in indices])

        return predict_neural_regressor(self.model, build_batch, len(queries),
                                        self.target_scaler)

    def evaluate(self, trace):
        records = list(trace)
        predictions = self.predict(records)
        actuals = np.array([r.runtime_ms for r in records])
        return q_error_metrics(predictions, actuals)
