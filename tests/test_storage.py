"""Tests for the storage engine: columns, stats, indexes, tables, databases."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import (Column, Database, DataType, ForeignKey, Index,
                           NULL_CODE, PAGE_SIZE_BYTES, Schema, Table,
                           compute_column_stats)


def int_column(name, values):
    return Column(name, DataType.INT, np.asarray(values, dtype=np.float64))


class TestColumn:
    def test_numeric_null_handling(self):
        col = int_column("a", [1.0, np.nan, 3.0, np.nan])
        assert col.null_frac == 0.5
        np.testing.assert_allclose(col.non_null(), [1.0, 3.0])

    def test_dictionary_column(self):
        col = Column("s", DataType.STRING, [0, 1, NULL_CODE, 0],
                     dictionary=["ab", "cdef"])
        assert col.null_frac == 0.25
        assert col.n_distinct() == 2
        assert col.decode() == ["ab", "cdef", None, "ab"]

    def test_byte_width_string_average(self):
        col = Column("s", DataType.STRING, [0, 1, 1], dictionary=["ab", "cdef"])
        assert col.byte_width == pytest.approx((2 + 4 + 4) / 3)

    def test_dictionary_required_for_strings(self):
        with pytest.raises(ValueError):
            Column("s", DataType.STRING, [0, 1])

    def test_numeric_rejects_dictionary(self):
        with pytest.raises(ValueError):
            Column("a", DataType.INT, [1.0], dictionary=["x"])

    def test_code_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Column("s", DataType.CATEGORICAL, [0, 5], dictionary=["only"])

    def test_dictionary_index_built_once_keeps_first_code(self):
        col = Column("s", DataType.CATEGORICAL, [0, 1, 2],
                     dictionary=["a", "b", "a"])
        index = col.dictionary_index
        assert col.dictionary_index is index
        assert index == {"a": 0, "b": 1}

    def test_take_preserves_dictionary(self):
        col = Column("s", DataType.STRING, [0, 1, 0], dictionary=["x", "y"])
        sub = col.take(np.array([2, 1]))
        assert sub.decode() == ["x", "y"]


class TestColumnStats:
    def test_sorted_column_correlation_one(self):
        stats = compute_column_stats(int_column("a", np.arange(100)))
        assert stats.correlation == pytest.approx(1.0)

    def test_reversed_column_correlation_minus_one(self):
        stats = compute_column_stats(int_column("a", np.arange(100)[::-1]))
        assert stats.correlation == pytest.approx(-1.0)

    def test_shuffled_column_correlation_near_zero(self):
        rng = np.random.default_rng(0)
        stats = compute_column_stats(int_column("a", rng.permutation(2000)))
        assert abs(stats.correlation) < 0.1

    def test_ndistinct_and_bounds(self):
        stats = compute_column_stats(int_column("a", [5, 5, 7, 9, np.nan]))
        assert stats.ndistinct == 3
        assert stats.min_value == 5
        assert stats.max_value == 9
        assert stats.null_frac == pytest.approx(0.2)

    def test_mcvs_capture_skew(self):
        values = np.concatenate([np.zeros(900), np.arange(1, 101)])
        stats = compute_column_stats(int_column("a", values))
        assert 0.0 in stats.mcv_values
        idx = list(stats.mcv_values).index(0.0)
        assert stats.mcv_fractions[idx] == pytest.approx(0.9)

    def test_histogram_is_monotone(self):
        rng = np.random.default_rng(1)
        stats = compute_column_stats(int_column("a", rng.normal(size=5000)))
        bounds = stats.histogram_bounds
        assert np.all(np.diff(bounds) >= 0)

    def test_empty_column(self):
        stats = compute_column_stats(int_column("a", []))
        assert stats.ndistinct == 0
        assert np.isnan(stats.min_value)


class TestIndex:
    def test_eq_lookup(self):
        idx = Index("t", "a", np.array([3.0, 1.0, 3.0, 2.0]))
        assert sorted(idx.lookup_eq(3.0)) == [0, 2]
        assert list(idx.lookup_eq(9.0)) == []

    def test_range_lookup_inclusive_exclusive(self):
        idx = Index("t", "a", np.array([1.0, 2.0, 3.0, 4.0]))
        assert sorted(idx.lookup_range(2.0, 3.0)) == [1, 2]
        assert sorted(idx.lookup_range(2.0, 3.0, low_inclusive=False)) == [2]
        assert sorted(idx.lookup_range(2.0, 3.0, high_inclusive=False)) == [1]

    def test_open_ranges(self):
        idx = Index("t", "a", np.array([1.0, 2.0, 3.0]))
        assert sorted(idx.lookup_range(low=2.0)) == [1, 2]
        assert sorted(idx.lookup_range(high=2.0)) == [0, 1]
        assert sorted(idx.lookup_range()) == [0, 1, 2]

    def test_nulls_never_match(self):
        idx = Index("t", "a", np.array([1.0, np.nan, 2.0]))
        assert sorted(idx.lookup_range()) == [0, 2]

    def test_in_lookup(self):
        idx = Index("t", "a", np.array([5.0, 6.0, 5.0, 7.0]))
        assert sorted(idx.lookup_in([5.0, 7.0])) == [0, 2, 3]

    def test_height_grows_with_size(self):
        small = Index("t", "a", np.arange(100, dtype=float))
        large = Index("t", "a", np.arange(100_000, dtype=float))
        assert large.height > small.height

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=200),
           st.integers(-60, 60), st.integers(-60, 60))
    def test_range_matches_bruteforce(self, values, lo, hi):
        low, high = min(lo, hi), max(lo, hi)
        arr = np.array(values, dtype=np.float64)
        idx = Index("t", "a", arr)
        got = sorted(idx.lookup_range(low, high))
        expected = [i for i, v in enumerate(values) if low <= v <= high]
        assert got == expected


class TestTableAndDatabase:
    def _make_db(self):
        parent = Table("parent", [
            int_column("id", np.arange(10)),
            int_column("v", np.arange(10) * 2),
        ])
        child = Table("child", [
            int_column("id", np.arange(30)),
            int_column("parent_id", np.arange(30) % 10),
        ])
        schema = Schema(["parent", "child"],
                        [ForeignKey("child", "parent_id", "parent", "id")])
        return Database("toy", schema, [parent, child])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [int_column("a", [1]), int_column("b", [1, 2])])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [int_column("a", [1]), int_column("a", [2])])

    def test_missing_table_rejected(self):
        schema = Schema(["a", "b"], [])
        with pytest.raises(ValueError):
            Database("x", schema, [Table("a", [int_column("c", [1])])])

    def test_schema_rejects_unknown_fk(self):
        with pytest.raises(ValueError):
            Schema(["a"], [ForeignKey("a", "x", "zz", "id")])

    def test_table_stats_pages(self):
        table = Table("t", [int_column("a", np.arange(10_000))])
        expected_pages = int(np.ceil(10_000 * (8 + 24) / PAGE_SIZE_BYTES))
        assert table.stats.relpages == expected_pages

    def test_append_and_analyze(self):
        db = self._make_db()
        before = db.table_stats("parent").reltuples
        db.table("parent").append({"id": np.arange(10, 20), "v": np.zeros(10)})
        db.analyze()
        assert db.table_stats("parent").reltuples == before + 10

    def test_append_missing_column_rejected(self):
        db = self._make_db()
        with pytest.raises(ValueError):
            db.table("parent").append({"id": np.arange(3)})

    def test_create_and_rebuild_index(self):
        db = self._make_db()
        idx = db.create_index("child", "parent_id")
        assert len(idx.lookup_eq(3.0)) == 3
        db.table("child").append({"id": [99], "parent_id": [3]})
        db.rebuild_indexes()
        assert len(db.index_on("child", "parent_id").lookup_eq(3.0)) == 4

    def test_join_graph_and_subsets(self):
        db = self._make_db()
        graph = db.schema.join_graph()
        assert graph.number_of_edges() == 1
        rng = np.random.default_rng(0)
        tables, fks = db.schema.connected_subsets("child", 2, rng)
        assert set(tables) == {"child", "parent"}
        assert len(fks) == 1

    def test_column_stats_lookup_errors(self):
        db = self._make_db()
        with pytest.raises(KeyError):
            db.column_stats("parent", "nope")
        with pytest.raises(KeyError):
            db.table("nope")
