"""One plan per write shape: a warm script compiles nothing.

A DML script's shape keeps one template per step
(:mod:`repro.sqlfront.prepared`): its literals are ``Param`` leaves and
its ``VALUES`` rows one ``Bound`` leaf, bound per transaction on the
``binding=`` carrier through ``makesafe``, the log extensions and
``Database.apply``.  So once every statement shape has run once, a script
adds no plan miss and never reaches the compiler — on every manager the
pipeline benchmark runs (per-view logs, combined, shared log,
partitioned) and on both engines that compile plans (compiled, sqlite,
whose statement text is one per shape too).
"""

from __future__ import annotations

import pytest

from repro.exec import COMPILED, SQLITE
from repro.exec.compiler import Compiler
from repro.sqlfront import prepared
from repro.storage.partition import PartitionedDatabase
from repro.warehouse.manager import ViewManager
from repro.workloads.retail import VIEW_SQL

VIEWS = (VIEW_SQL, "SELECT custId, itemNo FROM sales WHERE quantity != 0")


def script(number: int) -> str:
    """The benchmark's three script kinds, other literals and row counts each time."""
    rows = ", ".join(
        f"({(number + k) % 20}, {k}, {k % 4}, {number}.5)" for k in range(1 + number % 5)
    )
    text = f"INSERT INTO sales (custId, itemNo, quantity, salesPrice) VALUES {rows}"
    if number % 3 == 1:
        text += f"; DELETE FROM sales WHERE custId = {number % 20} AND itemNo = {number % 3}"
    elif number % 3 == 2:
        text += f"; UPDATE customer SET score = '{('High', 'Low')[number % 2]}' WHERE custId = {number % 20}"
    return text


def build(kind: str, mode: str) -> ViewManager:
    db = PartitionedDatabase(exec_mode=mode) if kind == "partitioned" else None
    manager = ViewManager(db, exec_mode=mode)
    manager.create_table("customer", ("custId", "name", "address", "score"))
    manager.create_table("sales", ("custId", "itemNo", "quantity", "salesPrice"))
    manager.load("customer", [(c, f"c{c}", f"{c} Main St", ("High", "Low")[c % 2]) for c in range(20)])
    manager.load("sales", [(s % 20, s % 7, 1 + s % 3, 9.5) for s in range(60)])
    if kind == "partitioned":
        for table in ("customer", "sales"):
            db.declare_partitioning(table, "custId", parts=4, domain="custId")
    for index, query in enumerate(VIEWS):
        manager.define_view(f"V{index}", query, scenario="base_log" if kind == "partitioned" else kind)
    return manager


@pytest.mark.parametrize("mode", (COMPILED, SQLITE))
@pytest.mark.parametrize("kind", ("base_log", "combined", "shared_log", "partitioned"))
def test_a_warm_script_adds_no_plan_miss_and_compiles_nothing(kind, mode, monkeypatch):
    prepared.SHAPES.clear()
    manager = build(kind, mode)
    for number in range(6):  # every shape once
        manager.execute_sql(script(number))
    compiles = []
    compile_ = Compiler.compile
    monkeypatch.setattr(Compiler, "compile", lambda self, expr: compiles.append(expr) or compile_(self, expr))
    misses = manager.counter.plan_misses
    for number in range(6, 40):
        manager.execute_sql(script(number))
    assert manager.counter.plan_misses == misses
    assert compiles == []
    monkeypatch.undo()
    manager.refresh_all()
    for name in manager.views():
        assert not manager.is_stale(name), name
