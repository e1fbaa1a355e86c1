"""Unit tests for the warehouse shell."""

import sqlite3

import pytest

from repro.cli import WarehouseShell


@pytest.fixture
def shell():
    sh = WarehouseShell()
    sh.handle_line("CREATE TABLE t (a, b);")
    sh.handle_line("INSERT INTO t VALUES (1, 'x'), (2, 'y');")
    return sh


class TestSQL:
    def test_create_table(self):
        sh = WarehouseShell()
        assert "created" in sh.handle_line("CREATE TABLE t (a, b);")
        assert sh.manager.db.has_table("t")

    def test_insert_and_select(self, shell):
        output = shell.handle_line("SELECT a FROM t;")
        assert "2 rows" in output
        assert "1" in output

    def test_empty_result(self, shell):
        output = shell.handle_line("SELECT a FROM t WHERE a > 99;")
        assert output == "(empty)"

    def test_delete(self, shell):
        shell.handle_line("DELETE FROM t WHERE a = 1;")
        assert "1 row" in shell.handle_line("SELECT a FROM t;")

    def test_multiline_statement(self, shell):
        assert shell.handle_line("SELECT a") == ""
        assert shell.pending
        output = shell.handle_line("FROM t;")
        assert "2 rows" in output
        assert not shell.pending

    def test_create_view_and_maintenance(self, shell):
        assert "materialized" in shell.handle_line("CREATE VIEW V AS SELECT a FROM t;")
        shell.handle_line("INSERT INTO t VALUES (3, 'z');")
        assert shell.handle_line(".stale V") == "stale"
        assert "refreshed" in shell.handle_line(".refresh V")
        assert shell.handle_line(".stale V") == "fresh"

    def test_parse_error_reported(self, shell):
        output = shell.handle_line("SELEKT nope;")
        assert output.startswith("error:")

    def test_semantic_error_reported(self, shell):
        output = shell.handle_line("SELECT nope FROM t;")
        assert output.startswith("error:")

    def test_blank_lines_ignored(self, shell):
        assert shell.handle_line("") == ""
        assert shell.handle_line("   ") == ""


class TestDotCommands:
    def test_tables(self, shell):
        output = shell.handle_line(".tables")
        assert "t" in output
        assert "external" in output

    def test_views_empty(self, shell):
        assert shell.handle_line(".views") == "(no views)"

    def test_views_listing(self, shell):
        shell.handle_line("CREATE VIEW V AS SELECT a FROM t;")
        output = shell.handle_line(".views")
        assert "V" in output
        assert "C" in output  # combined scenario tag

    def test_scenario_switch(self, shell):
        assert "immediate" in shell.handle_line(".scenario immediate")
        shell.handle_line("CREATE VIEW V AS SELECT a FROM t;")
        shell.handle_line("INSERT INTO t VALUES (9, 'q');")
        assert shell.handle_line(".stale V") == "fresh"  # immediate: never stale

    def test_unknown_scenario(self, shell):
        assert "unknown scenario" in shell.handle_line(".scenario bogus")

    def test_propagate(self, shell):
        shell.handle_line("CREATE VIEW V AS SELECT a FROM t;")
        shell.handle_line("INSERT INTO t VALUES (9, 'q');")
        assert "propagated" in shell.handle_line(".propagate V")

    def test_stats(self, shell):
        shell.handle_line("CREATE VIEW V AS SELECT a FROM t;")
        output = shell.handle_line(".stats")
        assert "tuple ops" in output
        assert "view V" in output

    def test_engine(self, monkeypatch):
        from repro.exec import ENV_VAR, pushdown
        from repro.robustness.faults import INJECTOR

        monkeypatch.setenv(ENV_VAR, "compiled")
        assert WarehouseShell().handle_line(".engine") == "engine compiled"
        monkeypatch.setenv(ENV_VAR, "sqlite")
        monkeypatch.setattr(pushdown, "sleep", lambda delay: None)
        sh = WarehouseShell()
        sh.handle_line("CREATE TABLE t (a, b);")
        assert sh.handle_line(".engine") == "engine sqlite (breaker closed, trips 0)"
        INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
        try:
            assert sh.handle_line("INSERT INTO t VALUES (1, 'x');") == "ok"
        finally:
            INJECTOR.reset()
        assert sh.handle_line(".engine") == "engine sqlite (breaker open, trips 1)"

    def test_engine_builds_no_mirror(self, monkeypatch):
        # Naming the engine attaches no write listener and opens no
        # SQLite connection: the mirror is built by evaluation only.
        from repro.exec import ENV_VAR

        connects = []
        real_connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect", lambda *a, **k: connects.append(a) or real_connect(*a, **k))
        monkeypatch.setenv(ENV_VAR, "sqlite")
        sh = WarehouseShell()
        assert sh._cmd_engine() == "engine sqlite (breaker closed, trips 0)"
        assert (sh.manager.db._listeners, connects) == ([], [])

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.handle_line(".bogus")

    def test_wrong_arguments(self, shell):
        assert "wrong arguments" in shell.handle_line(".refresh")

    def test_help(self, shell):
        assert ".save" in shell.handle_line(".help")

    def test_quit_raises_eof(self, shell):
        with pytest.raises(EOFError):
            shell.handle_line(".quit")

    def test_save_and_open(self, shell, tmp_path):
        path = tmp_path / "wh.db"
        assert "saved" in shell.handle_line(f".save {path}")
        fresh = WarehouseShell()
        assert "opened" in fresh.handle_line(f".open {path}")
        assert "2 rows" in fresh.handle_line("SELECT a FROM t;")

    def test_save_and_open_reattaches_views(self, shell, tmp_path):
        shell.handle_line("CREATE VIEW V AS SELECT a FROM t;")
        shell.handle_line("INSERT INTO t VALUES (3, 'z');")
        path = tmp_path / "wh.db"
        shell.handle_line(f".save {path}")
        fresh = WarehouseShell()
        out = fresh.handle_line(f".open {path}")
        assert "1 views reattached" in out
        assert fresh.handle_line(".stale V") == "stale"  # deferral survived
        fresh.handle_line(".refresh V")
        assert "3 rows" in fresh.handle_line("SELECT a FROM V;")

    def test_error_in_command_reported(self, shell):
        assert shell.handle_line(".refresh nope").startswith("error:")

    def test_plan_shows_log_deltas(self, shell):
        shell.handle_line("CREATE VIEW V AS SELECT a FROM t WHERE a > 0;")
        output = shell.handle_line(".plan V")
        assert "▼(L,Q)" in output
        assert "__log_del__V__t" in output

    def test_plan_for_immediate_view(self, shell):
        shell.handle_line(".scenario immediate")
        shell.handle_line("CREATE VIEW V AS SELECT a FROM t;")
        assert "no log-based refresh plan" in shell.handle_line(".plan V")

    def test_analyze_select_project_view(self, shell):
        shell.handle_line("CREATE VIEW V AS SELECT a FROM t WHERE a > 0;")
        output = shell.handle_line(".analyze V")
        assert "self-maintainable    : yes" in output
        assert "log only" in output

    def test_analyze_join_view(self, shell):
        shell.handle_line("CREATE TABLE u (a, c);")
        shell.handle_line("CREATE VIEW J AS SELECT t.b, u.c FROM t, u WHERE t.a = u.a;")
        output = shell.handle_line(".analyze J")
        assert "self-maintainable    : no" in output
        assert "'t'" in output and "'u'" in output


class TestScriptMode:
    def test_main_runs_script(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "setup.sql"
        script.write_text(
            "CREATE TABLE t (a);\n"
            "INSERT INTO t VALUES (1), (2);\n"
            "CREATE VIEW V AS SELECT a FROM t;\n"
            "INSERT INTO t VALUES (3);\n"
            ".refresh V\n"
            "SELECT a FROM V;\n"
        )
        assert main([str(script)]) == 0
        captured = capsys.readouterr().out
        assert "3 rows" in captured

    def test_run_stream_stops_on_quit(self, capsys):
        from repro.cli import run_stream
        import sys

        shell = WarehouseShell()
        run_stream(shell, ["CREATE TABLE t (a);", ".quit", "SELECT a FROM t;"], sys.stdout)
        captured = capsys.readouterr().out
        assert "created" in captured
        assert "row" not in captured  # nothing after .quit
