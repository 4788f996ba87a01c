"""Traditional (Postgres-style) cardinality estimation.

Selectivity arithmetic over per-column histograms and MCV lists combined with
the independence assumption — cheap, always available, and systematically
wrong on correlated data, exactly as the paper describes ("simple statistics
are known to be often imprecise").

The planner asks for the same scan estimate many times while it orders
joins (every candidate subset multiplies the scans of all its tables), so
it plans through a :class:`ScanEstimateScope`: a view of the estimator for
one planning call that computes each table's scan estimate under its
filter once.
"""

from __future__ import annotations

import numpy as np

from .. import perfstats
from ..sql import BooleanPredicate, Comparison, PredOp
from .base import CardinalityEstimator

__all__ = ["TraditionalEstimator", "ScanEstimateScope"]

# Postgres-ish default selectivities for unestimatable cases.
_DEFAULT_EQ_SEL = 0.005
_DEFAULT_RANGE_SEL = 1.0 / 3.0
_DEFAULT_LIKE_SEL = 0.05


class TraditionalEstimator(CardinalityEstimator):
    """Histogram + MCV estimator with independence assumptions."""

    name = "optimizer"

    # ------------------------------------------------------------------
    # Single-column selectivities
    # ------------------------------------------------------------------
    def _eq_selectivity(self, stats, literal_value):
        if stats.mcv_values is not None and stats.mcv_values.size:
            matches = stats.mcv_values == literal_value
            if matches.any():
                return float(stats.mcv_fractions[matches][0])
        ndistinct = max(stats.ndistinct, 1)
        remaining = 1.0 - stats.null_frac
        if stats.mcv_fractions is not None and stats.mcv_fractions.size:
            remaining -= float(stats.mcv_fractions.sum())
            ndistinct = max(ndistinct - stats.mcv_values.size, 1)
        return max(remaining, 0.0) / ndistinct

    def _range_selectivity(self, stats, op, literal_value):
        bounds = stats.histogram_bounds
        if bounds is None or len(bounds) < 2:
            return _DEFAULT_RANGE_SEL
        position = np.searchsorted(bounds, literal_value, side="right")
        frac_below = position / len(bounds)
        # Linear interpolation inside the bucket.
        if 0 < position < len(bounds):
            lo, hi = bounds[position - 1], min(bounds[position], literal_value)
            span = bounds[position] - bounds[position - 1]
            if span > 0:
                frac_below += ((literal_value - lo) / span - 1.0) / len(bounds)
        frac_below = min(max(frac_below, 0.0), 1.0)
        if op in (PredOp.LT, PredOp.LEQ):
            sel = frac_below
        else:
            sel = 1.0 - frac_below
        return min(max(sel * (1.0 - stats.null_frac), 0.0), 1.0)

    def _comparison_selectivity(self, db, node: Comparison):
        stats = db.column_stats(node.table, node.column)
        if node.op == PredOp.IS_NULL:
            return stats.null_frac
        if node.op == PredOp.IS_NOT_NULL:
            return 1.0 - stats.null_frac

        if node.op == PredOp.EQ:
            literal = self._literal_as_number(db, node)
            if literal is None:
                return _DEFAULT_EQ_SEL
            return self._eq_selectivity(stats, literal)
        if node.op == PredOp.NEQ:
            literal = self._literal_as_number(db, node)
            if literal is None:
                return 1.0 - _DEFAULT_EQ_SEL
            return max(1.0 - stats.null_frac - self._eq_selectivity(stats, literal), 0.0)
        if node.op.is_range:
            literal = self._literal_as_number(db, node)
            if literal is None:
                return _DEFAULT_RANGE_SEL
            return self._range_selectivity(stats, node.op, literal)
        if node.op == PredOp.IN:
            literals = [self._value_to_number(db, node, v) for v in node.literal]
            sel = sum(self._eq_selectivity(stats, v)
                      for v in literals if v is not None)
            return min(sel, 1.0)
        if node.op in (PredOp.LIKE, PredOp.NOT_LIKE):
            # Postgres patterns: leading-wildcard patterns are unestimable;
            # use defaults scaled by pattern restrictiveness.
            sel = _DEFAULT_LIKE_SEL / (1.0 + node.literal.count("%"))
            if node.op == PredOp.NOT_LIKE:
                sel = 1.0 - sel
            return min(max(sel, 1e-5), 1.0)
        raise ValueError(f"unsupported operator {node.op}")

    def _literal_as_number(self, db, node):
        return self._value_to_number(db, node, node.literal)

    def _value_to_number(self, db, node, value):
        """Map a literal to the numeric domain used by the statistics."""
        if isinstance(value, (int, float)):
            return float(value)
        column = db.column(node.table, node.column)
        if column.dictionary is None:
            return None
        code = column.dictionary_index.get(value)
        return None if code is None else float(code)

    # ------------------------------------------------------------------
    # Predicate trees (independence assumption)
    # ------------------------------------------------------------------
    def predicate_selectivity(self, db, predicate):
        if predicate is None:
            return 1.0
        if isinstance(predicate, Comparison):
            return float(min(max(self._comparison_selectivity(db, predicate), 0.0), 1.0))
        if isinstance(predicate, BooleanPredicate):
            child_sels = [self.predicate_selectivity(db, c) for c in predicate.children]
            if predicate.op == PredOp.AND:
                sel = 1.0
                for s in child_sels:
                    sel *= s
                return sel
            # OR via inclusion-exclusion under independence.
            sel = 0.0
            for s in child_sels:
                sel = sel + s - sel * s
            return sel
        raise TypeError(f"unknown predicate {type(predicate)!r}")

    # ------------------------------------------------------------------
    # CardinalityEstimator interface
    # ------------------------------------------------------------------
    def scan_rows(self, db, table, predicate):
        base = db.table_stats(table).reltuples
        return max(base * self.predicate_selectivity(db, predicate), 1.0)

    def join_selectivity(self, db, join):
        """System-R style: 1 / max(ndv(child key), ndv(parent key))."""
        child = db.column_stats(join.child_table, join.child_column)
        parent = db.column_stats(join.parent_table, join.parent_column)
        ndv = max(child.ndistinct, parent.ndistinct, 1)
        return (1.0 - child.null_frac) / ndv

    def join_rows(self, db, tables, joins, filters):
        return self._join_rows(db, tables, joins, filters, self.scan_rows)

    def _join_rows(self, db, tables, joins, filters, scan_rows):
        rows = 1.0
        for table in tables:
            rows *= scan_rows(db, table, filters.get(table))
        for join in joins:
            rows *= self.join_selectivity(db, join)
        return max(rows, 1.0)


class ScanEstimateScope:
    """One planning call's view of a :class:`TraditionalEstimator`.

    ``scan_rows`` computes each (table, predicate object) estimate once
    through the estimator and serves repeats from a memo; ``join_rows``
    multiplies those memoized scans with the estimator's own join formula,
    over ``tables`` in the caller's order, so every value equals what the
    estimator returns directly.  The memo holds each predicate it keys by
    ``id`` and lives only as long as the scope: create one per planning
    call, never store it on an estimator.
    """

    __slots__ = ("estimator", "served", "_scans")

    def __init__(self, estimator):
        self.estimator = estimator
        self.served = 0
        self._scans = {}

    @property
    def computed(self):
        """Distinct scan estimates computed through the estimator."""
        return len(self._scans)

    def scan_rows(self, db, table, predicate):
        key = (table, id(predicate))
        entry = self._scans.get(key)
        if entry is None:
            # The predicate rides along so its id cannot be reused.
            entry = (self.estimator.scan_rows(db, table, predicate), predicate)
            self._scans[key] = entry
        else:
            self.served += 1
        return entry[0]

    def join_rows(self, db, tables, joins, filters):
        return self.estimator._join_rows(db, tables, joins, filters,
                                         self.scan_rows)

    def predicate_selectivity(self, db, predicate):
        return self.estimator.predicate_selectivity(db, predicate)

    def record_counters(self):
        """Add this scope's served/computed totals to the perfstats
        counters (once per planning call, not once per estimate)."""
        perfstats.increment("plan.scan_scope.served", self.served)
        perfstats.increment("plan.scan_scope.computed", self.computed)
