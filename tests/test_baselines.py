"""Tests for the baseline cost models (scaled optimizer, flattened+GBDT,
E2E, MSCN) and the paper's qualitative orderings between them."""

import numpy as np
import pytest

from repro.baselines import (E2EModel, FlattenedPlanModel, MSCNModel,
                             ScaledOptimizerModel, flatten_plan)
from repro.cardest import annotate_cardinalities
from repro.datagen import generate_database, random_database_spec
from repro.executor import execute_plan
from repro.optimizer import plan_query
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace


@pytest.fixture(scope="module")
def world():
    """One database with a training and a test trace."""
    spec = random_database_spec("bench", seed=55, layout="snowflake",
                                base_rows=1200, n_tables=5, complexity=0.6)
    db = generate_database(spec)
    gen = WorkloadGenerator(db, WorkloadConfig(max_joins=3), seed=10)
    train_trace = generate_trace(db, gen.generate(160), seed=0)
    test_trace = generate_trace(db, gen.generate(60), seed=0)
    return db, train_trace, test_trace


class TestScaledOptimizer:
    def test_fit_predict(self, world):
        db, train, test = world
        model = ScaledOptimizerModel().fit(train)
        metrics = model.evaluate(test)
        assert metrics["median"] < 10.0
        preds = model.predict(list(test))
        assert (preds > 0).all()

    def test_requires_fit(self, world):
        _, _, test = world
        with pytest.raises(RuntimeError):
            ScaledOptimizerModel().predict(list(test))

    def test_empty_training_rejected(self):
        from repro.workloads import Trace
        with pytest.raises(ValueError):
            ScaledOptimizerModel().fit(Trace("x"))

    def test_multiple_traces(self, world):
        db, train, test = world
        half = len(train) // 2
        model = ScaledOptimizerModel().fit([train[:half], train[half:]])
        assert model.evaluate(test)["median"] < 10.0


class TestFlattened:
    def test_vector_shape_and_content(self, world):
        db, train, _ = world
        record = train[0]
        cards = annotate_cardinalities(db, record.plan, "exact")
        vec = flatten_plan(record.plan, cards)
        from repro.optimizer import OPERATOR_NAMES
        assert len(vec) == 2 * len(OPERATOR_NAMES)
        n_ops = record.plan.n_nodes
        assert vec[:len(OPERATOR_NAMES)].sum() == n_ops

    def test_fit_and_evaluate(self, world):
        db, train, test = world
        model = FlattenedPlanModel(cards="exact", n_estimators=60)
        model.fit(train, {db.name: db})
        metrics = model.evaluate(test, {db.name: db})
        assert metrics["median"] < 5.0

    def test_requires_fit(self, world):
        db, _, test = world
        with pytest.raises(RuntimeError):
            FlattenedPlanModel().predict(list(test), {db.name: db})


class TestE2E:
    @pytest.fixture(scope="class")
    def fitted(self, world):
        db, train, _ = world
        return E2EModel(db, hidden_dim=32, seed=0).fit(train, epochs=40)

    def test_learns_training_distribution(self, world, fitted):
        db, train, test = world
        metrics = fitted.evaluate(test)
        assert metrics["median"] < 2.5

    def test_bound_to_database(self, world):
        db, train, _ = world
        other = generate_database(random_database_spec(
            "other", seed=77, base_rows=300, n_tables=3))
        other_trace = generate_trace(
            other, WorkloadGenerator(other, seed=1).generate(5))
        model = E2EModel(db, hidden_dim=16)
        with pytest.raises(ValueError):
            model.fit(other_trace)

    def test_feature_dim_depends_on_db(self, world):
        """The non-transferability: feature dims differ across databases."""
        db, _, _ = world
        other = generate_database(random_database_spec(
            "other2", seed=78, base_rows=200, n_tables=3))
        from repro.baselines import E2EFeaturizer
        assert E2EFeaturizer(db).feature_dim != E2EFeaturizer(other).feature_dim

    def test_accuracy_improves_with_more_queries(self, world):
        """More training queries -> better accuracy (the Fig. 6 x-axis)."""
        db, train, test = world
        few = E2EModel(db, hidden_dim=32, seed=1).fit(train[:15], epochs=40)
        many = E2EModel(db, hidden_dim=32, seed=1).fit(train, epochs=40)
        assert many.evaluate(test)["median"] <= few.evaluate(test)["median"] * 1.2


class TestMSCN:
    @pytest.fixture(scope="class")
    def fitted(self, world):
        db, train, _ = world
        return MSCNModel(db, hidden_dim=32, seed=0).fit(train, epochs=40)

    def test_fit_predict(self, world, fitted):
        db, _, test = world
        metrics = fitted.evaluate(test)
        assert metrics["median"] < 4.0

    def test_plan_oblivious_worse_than_e2e(self, world, fitted):
        """MSCN ignores the physical plan; E2E should beat it (Fig. 6)."""
        db, train, test = world
        e2e = E2EModel(db, hidden_dim=32, seed=0).fit(train, epochs=40)
        assert (e2e.evaluate(test)["median"]
                <= fitted.evaluate(test)["median"] * 1.15)

    def test_requires_fit(self, world):
        db, _, test = world
        with pytest.raises(RuntimeError):
            MSCNModel(db).predict(list(test))

    def test_empty_sets_handled(self, world, fitted):
        """Single-table queries without predicates have empty join/pred sets."""
        db, _, _ = world
        from repro.sql import AggregateSpec, Query
        table = db.schema.table_names[0]
        simple = Query(tables=(table,), aggregates=(AggregateSpec("count"),))
        trace = generate_trace(db, [simple])
        preds = fitted.predict(list(trace))
        assert preds.shape == (1,) and preds[0] > 0


@pytest.mark.parametrize("featurizer", ["mscn", "e2e"])
def test_normalized_literal_of_repeated_word_uses_first_code(featurizer):
    """A word the dictionary repeats normalizes by its first code, as the
    statistics and ``list.index`` see it."""
    from repro.baselines import E2EFeaturizer, MSCNFeaturizer
    from repro.sql import Comparison, PredOp
    from repro.storage import Column, Database, DataType, Schema, Table

    words = Column("word", DataType.CATEGORICAL,
                   np.array([0, 1, 2, 3, 2, 0], dtype=np.int64),
                   dictionary=["a", "b", "a", "c"])
    ids = Column("id", DataType.INT, np.arange(6, dtype=np.float64))
    db = Database("dups", Schema(["t"], []), [Table("t", [ids, words])])
    encode = {"mscn": MSCNFeaturizer, "e2e": E2EFeaturizer}[featurizer](db)

    def literal(word):
        return encode._normalized_literal(
            Comparison("t", "word", PredOp.EQ, word))

    assert literal("a") == 0.0
    assert literal("c") == 3 / 4
    assert literal("zzz") == 0.5
