"""A prepared DML script, bound per transaction ≡ the script compiled cold ≡ the oracle.

``script_to_transaction`` hands each statement of a script to the
transaction as its shape's template — literals as ``Param`` leaves,
``VALUES`` rows as one ``Bound`` leaf — with the values on the
transaction's binding, which travels through ``makesafe``, the log
extensions and ``Database.apply``.  Random ``INSERT`` / ``DELETE`` /
``UPDATE … SET x = x + k`` scripts (int, float, string, ``NULL`` and
``TRUE`` literals: ``Const`` equality is type-strict, so ``1``, ``1.0``
and ``TRUE`` are three values) run three ways on each manager the
pipeline benchmark runs (per-view logs, combined, shared log,
partitioned) and each engine of ``MODES``:

* *warm*: the script's shape is cached (a hit);
* *cold*: ``SHAPES.clear()`` first (a miss, the shape built from this text);
* *oracle*: the uncached parser + compiler (literals as constants) on the
  interpreted engine.

After every script and after the views are refreshed, every table — base
tables, logs, differentials, MVs — digests the same on warm and cold, and
the same as the oracle's under SQLite's bool→int normalization
(``mirror_digest``; the sqlite tier stores ``TRUE`` as ``1``).  A
``DurableWarehouse`` fed the prepared and the uncached path journals
byte-identical payloads.

Seeds: ``tests/property/gen.py``'s matrix (``REPRO_TEST_SEED`` overrides).
"""

from __future__ import annotations

import sqlite3
import tempfile
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from tests.property.gen import _seeds

from repro.core.transactions import UserTransaction
from repro.exec import INTERPRETED, MODES
from repro.robustness.durable import DurableWarehouse
from repro.robustness.journal import journal_path, table_digests
from repro.sqlfront import prepared
from repro.sqlfront.compiler import _emit_script
from repro.sqlfront.parser import parse_script
from repro.storage.partition import PartitionedDatabase
from repro.storage.sqlite_backend import mirror_digest
from repro.warehouse.manager import ViewManager

KINDS = ("base_log", "combined", "shared_log", "partitioned")

VIEWS = (
    "SELECT t.k, t.x, u.label FROM t, u WHERE t.k = u.k",
    "SELECT k, s FROM t WHERE x != 0",
)

keys = st.integers(0, 4).map(str)
strings = st.sampled_from(["'a'", "'b'", "'it''s'", "''", "NULL"])
# ``x`` stays numeric (or NULL / TRUE): SQLite's ``'a' + 1`` is 1, the
# in-memory engines' is NULL, and that difference is not this test's.
xs = st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["1.5", "-0.5", "2.0", "NULL", "TRUE"]))
steps = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["0.5", "1.0"]))


@st.composite
def statements(draw) -> str:
    kind = draw(st.sampled_from(["insert", "insert", "delete", "update", "label"]))
    if kind == "insert":
        rows = draw(st.lists(st.tuples(keys, strings, xs), min_size=1, max_size=4))
        return "INSERT INTO t VALUES " + ", ".join(f"({k}, {s}, {x})" for k, s, x in rows)
    if kind == "delete":
        where = f"k = {draw(keys)}" + (f" AND s = {draw(strings)}" if draw(st.booleans()) else "")
        return f"DELETE FROM t WHERE {where}"
    if kind == "update":
        return f"UPDATE t SET x = x + {draw(steps)} WHERE k = {draw(keys)}"
    return f"INSERT INTO u VALUES ({draw(keys)}, {draw(strings)})"


scripts = st.lists(st.lists(statements(), min_size=1, max_size=3).map("; ".join), min_size=2, max_size=6)


def build(kind: str, mode: str, warehouse=None):
    """A manager (or ``warehouse``) of ``kind`` on engine ``mode`` with both views."""
    if warehouse is None:
        db = PartitionedDatabase(exec_mode=mode) if kind == "partitioned" else None
        warehouse = ViewManager(db, exec_mode=mode)
    warehouse.create_table("t", ("k", "s", "x"))
    warehouse.create_table("u", ("k", "label"))
    warehouse.load("t", [(k % 5, "a" if k % 2 else "b", k) for k in range(8)])
    warehouse.load("u", [(k, f"l{k}") for k in range(0, 5, 2)])
    if kind == "partitioned":
        for table in ("t", "u"):
            warehouse.db.declare_partitioning(table, "k", parts=3, domain="k")
    for index, query in enumerate(VIEWS):
        warehouse.define_view(f"V{index}", query, scenario="base_log" if kind == "partitioned" else kind)
    return warehouse


def uncached(text: str, db) -> UserTransaction:
    """``text`` through the parser and compiler, its literals as constants."""
    txn = UserTransaction(db)
    _emit_script(parse_script(text), db, txn)
    return txn


def assert_same(warm: ViewManager, cold: ViewManager, oracle: ViewManager, where: str) -> None:
    assert table_digests(warm.db) == table_digests(cold.db), where
    assert warm.db.table_names() == oracle.db.table_names(), where
    for name in oracle.db.table_names():
        assert mirror_digest(warm.db[name]) == mirror_digest(oracle.db[name]), f"{where}: {name}"


def run_under_seeds(strategy, examples: int, body) -> None:
    for seed_value in _seeds():

        @seed(seed_value)
        @settings(max_examples=examples, deadline=None, database=None)
        @given(strategy)
        def prop(texts):
            body(texts)

        prop()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_warm_cold_and_oracle_leave_every_table_alike(kind, mode):
    def body(texts):
        warm, cold, oracle = build(kind, mode), build(kind, mode), build(kind, INTERPRETED)
        for number, text in enumerate(texts):
            prepared.SHAPES.clear()
            cold.execute_sql(text)  # a miss: the shape is built from this text
            warm.execute_sql(text)  # a hit on the shape just built
            oracle.execute(uncached(text, oracle.db))
            if number % 2:
                for manager in (warm, cold, oracle):
                    manager.refresh_all()
            assert_same(warm, cold, oracle, f"{kind}/{mode} after {text!r}")
        for manager in (warm, cold, oracle):
            manager.refresh_all()
        assert_same(warm, cold, oracle, f"{kind}/{mode} refreshed")

    run_under_seeds(scripts, 3, body)


def journal_payloads(path: Path) -> list[tuple]:
    with closing(sqlite3.connect(journal_path(path))) as conn:
        return conn.execute('SELECT kind, view, payload FROM "__journal__" ORDER BY op_id').fetchall()


@pytest.mark.parametrize("mode", MODES)
def test_a_durable_warehouse_journals_the_same_bytes_either_way(mode):
    def body(texts):
        with tempfile.TemporaryDirectory() as scratch:
            paths = {way: Path(scratch) / f"{way}.db" for way in ("prepared", "uncached")}
            for way, path in paths.items():
                warehouse = build("combined", mode, DurableWarehouse(path, exec_mode=mode))
                try:
                    for text in texts:
                        if way == "prepared":
                            warehouse.execute_sql(text)
                        else:
                            warehouse.execute(uncached(text, warehouse.db))
                finally:
                    warehouse.close()
            assert journal_payloads(paths["prepared"]) == journal_payloads(paths["uncached"])

    run_under_seeds(scripts, 2, body)
