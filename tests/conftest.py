"""Shared fixtures: small databases and queries with known properties."""

import os

import numpy as np
import pytest

from repro.datagen import generate_database, random_database_spec
from repro.sql import (AggregateSpec, Comparison, JoinEdge, PredOp, Query,
                       conjunction)
from repro.storage import (Column, Database, DataType, ForeignKey, NULL_CODE,
                           Schema, Table)


def build_toy_db():
    """Hand-built 3-table database with known values.

    ``orders (2000 rows) -> customers (100) -> regions (10)``; orders carry
    an amount (correlated with status), customers a category string column.
    """
    rng = np.random.default_rng(1234)

    n_regions = 10
    regions = Table("regions", [
        Column("id", DataType.INT, np.arange(n_regions, dtype=np.float64)),
        Column("pop", DataType.INT,
               rng.integers(100, 10_000, n_regions).astype(np.float64)),
    ])

    n_customers = 100
    cust_region = rng.integers(0, n_regions, n_customers).astype(np.float64)
    categories = ["gold", "silver", "bronze", "none"]
    cust_cat = rng.choice(4, size=n_customers, p=[0.1, 0.2, 0.3, 0.4])
    customers = Table("customers", [
        Column("id", DataType.INT, np.arange(n_customers, dtype=np.float64)),
        Column("region_id", DataType.INT, cust_region),
        Column("category", DataType.CATEGORICAL, cust_cat.astype(np.int64),
               dictionary=categories),
        Column("age", DataType.INT,
               rng.integers(18, 90, n_customers).astype(np.float64)),
    ])

    n_orders = 2000
    cust_of_order = rng.integers(0, n_customers, n_orders).astype(np.float64)
    status_codes = rng.choice(3, size=n_orders, p=[0.7, 0.2, 0.1]).astype(np.int64)
    # amount correlated with status: completed orders are larger.
    amount = rng.normal(50, 10, n_orders) + status_codes * 100.0
    amount[rng.random(n_orders) < 0.05] = np.nan
    orders = Table("orders", [
        Column("id", DataType.INT, np.arange(n_orders, dtype=np.float64)),
        Column("customer_id", DataType.INT, cust_of_order),
        Column("status", DataType.CATEGORICAL, status_codes,
               dictionary=["open", "shipped", "returned"]),
        Column("amount", DataType.FLOAT, amount),
        Column("priority", DataType.INT,
               rng.integers(0, 5, n_orders).astype(np.float64)),
    ])

    schema = Schema(
        ["regions", "customers", "orders"],
        [ForeignKey("orders", "customer_id", "customers", "id"),
         ForeignKey("customers", "region_id", "regions", "id")])
    return Database("toy", schema, [regions, customers, orders])


@pytest.fixture(scope="session")
def toy_db():
    return build_toy_db()


@pytest.fixture(scope="session")
def gen_db():
    """A generated random database (medium complexity) for integration tests."""
    spec = random_database_spec("gen", seed=77, layout="snowflake",
                                base_rows=1500, n_tables=5, complexity=0.7)
    return generate_database(spec)


@pytest.fixture()
def simple_count_query():
    return Query(tables=("orders",), aggregates=(AggregateSpec("count"),))


@pytest.fixture()
def filtered_query():
    predicate = conjunction([
        Comparison("orders", "priority", PredOp.LEQ, 2),
        Comparison("orders", "status", PredOp.EQ, "open"),
    ])
    return Query(tables=("orders",), filters={"orders": predicate},
                 aggregates=(AggregateSpec("count"),))


@pytest.fixture()
def join_query():
    return Query(
        tables=("orders", "customers", "regions"),
        joins=(JoinEdge("orders", "customer_id", "customers", "id"),
               JoinEdge("customers", "region_id", "regions", "id")),
        filters={"customers": Comparison("customers", "category", PredOp.EQ, "gold")},
        aggregates=(AggregateSpec("avg", "orders", "amount"),),
    )


@pytest.fixture()
def digest_calls(monkeypatch):
    """Count plan-digest computations, split by process.

    Wraps ``repro.featurization.fingerprint._digest`` (the one hash behind
    ``plan_fingerprint`` and ``FeaturizationCache.key``) so every call
    bumps a test-only registry counter: ``test.digest.main`` in this
    process, ``test.digest.forked`` in forked children.  Fleet workers
    inherit the wrapper through the fork and ship their counts back in
    their ``stats()`` metric deltas.  Returns a reader of ``(main,
    forked)`` calls since the fixture started.
    """
    from repro.featurization import fingerprint
    from repro.obs.metrics import REGISTRY

    names = ["test.digest.main", "test.digest.forked"]
    original = fingerprint._digest
    main_pid = os.getpid()

    def counted(*args):
        REGISTRY.increment(names[0] if os.getpid() == main_pid
                           else names[1])
        return original(*args)

    monkeypatch.setattr(fingerprint, "_digest", counted)
    start = REGISTRY.counter_values(names)

    def read():
        now = REGISTRY.counter_values(names)
        return tuple(now[name] - start[name] for name in names)
    return read
