"""The `repro lint` driver: SQL scripts, examples, experiments, CLI."""

import os
import warnings

import pytest

from repro.analysis import AnalysisReport
from repro.analysis.diagnostics import AnalysisWarning
from repro.analysis.lint import (
    experiment_queries,
    lint_example,
    lint_experiments,
    lint_sql,
    main,
)
from repro.core import BaseLogScenario, ViewDefinition
from repro.errors import AnalysisError
from repro.exec import MODES
from repro.storage.database import Database

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXAMPLES = os.path.join(REPO_ROOT, "examples")


class TestLintSql:
    def test_clean_script(self):
        report = lint_sql("CREATE TABLE r (a, b);\nSELECT a FROM r WHERE b = 1")
        assert report.ok()

    def test_unknown_column_positioned(self):
        source = "CREATE TABLE r (a, b);\nSELECT a FROM r WHERE c = 1"
        report = lint_sql(source)
        assert [d.code for d in report.errors] == ["RVM101"]
        diag = report.errors[0]
        assert diag.position is not None
        assert source[diag.position] == "c"  # offset points at the bad token

    def test_parse_error_rvm001_with_position(self):
        report = lint_sql("SELECT FROM")
        assert [d.code for d in report.errors] == ["RVM001"]
        assert report.errors[0].position is not None

    def test_unknown_table_rvm107(self):
        report = lint_sql("SELECT a FROM nowhere")
        codes = [d.code for d in report.errors]
        assert codes and all(code in ("RVM107", "RVM109", "RVM101") for code in codes)

    def test_multi_statement_paths(self):
        report = lint_sql(
            "CREATE TABLE r (a);\nSELECT a FROM r;\nSELECT z FROM r"
        )
        assert len(report.errors) == 1
        assert report.errors[0].path is not None
        assert report.errors[0].path.startswith("stmt")

    def test_views_join_the_catalog(self):
        report = lint_sql(
            "CREATE TABLE r (a, b);"
            "CREATE VIEW v (a) AS SELECT a FROM r;"
            "SELECT a FROM v"
        )
        assert report.ok()

    def test_existing_database_catalog(self):
        db = Database()
        db.create_table("orders", ("id", "region"))
        assert lint_sql("SELECT id FROM orders", db).ok()
        report = lint_sql("SELECT missing FROM orders", db)
        assert [d.code for d in report.errors] == ["RVM101"]


class TestExamples:
    def test_all_examples_clean_except_state_bug_demo(self):
        flagged = {}
        for name in sorted(os.listdir(EXAMPLES)):
            if not name.endswith(".py"):
                continue
            report = lint_example(os.path.join(EXAMPLES, name))
            flagged[name] = not report.ok()
        assert flagged.pop("state_bug_demo.py") is True
        assert not any(flagged.values()), f"unexpectedly flagged: {flagged}"

    def test_state_bug_demo_reports_verified_detectors(self):
        report = lint_example(os.path.join(EXAMPLES, "state_bug_demo.py"))
        codes = sorted({d.code for d in report.errors})
        assert codes == ["RVM301", "RVM302"]


class TestExperiments:
    def test_registry_is_nonempty(self):
        registry = experiment_queries()
        assert "retail.V" in registry
        assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in registry.values())

    def test_all_experiment_queries_clean(self):
        report = lint_experiments()
        assert isinstance(report, AnalysisReport)
        assert report.ok(), report.format()


class TestCli:
    def test_inline_sql_clean_exit_zero(self, capsys):
        status = main(["CREATE TABLE r (a); SELECT a FROM r"])
        assert status == 0
        assert "clean" in capsys.readouterr().out

    def test_inline_sql_error_exit_two(self, capsys):
        status = main(["SELECT z FROM nowhere"])
        assert status == 2
        out = capsys.readouterr().out
        assert "RVM" in out

    def test_usage_without_targets(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_strict_promotes_warnings(self, capsys):
        # A self-join product without rename → RVM106 warning at the root.
        sql = "CREATE TABLE r (a); SELECT * FROM r x, r y"
        lax = main([sql])
        strict = main(["--strict", sql])
        capsys.readouterr()
        if lax == 0 and strict == 0:
            pytest.skip("front-end renames made the query clean")
        assert strict == 1

    def test_example_driver(self, capsys):
        demo = os.path.join(EXAMPLES, "state_bug_demo.py")
        assert main([demo]) == 2
        assert "RVM30" in capsys.readouterr().out

    def test_experiments_flag(self, capsys):
        assert main(["--experiments"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_output_clean(self, capsys):
        import json

        status = main(["--json", "CREATE TABLE r (a); SELECT a FROM r"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["status"] == 0
        (section,) = payload["sections"]
        assert section["clean"] is True
        assert section["diagnostics"] == []

    def test_json_output_error(self, capsys):
        import json

        status = main(["--json", "SELECT z FROM nowhere"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 2
        assert payload["status"] == 2
        (section,) = payload["sections"]
        assert section["clean"] is False
        assert section["errors"] >= 1
        diag = section["diagnostics"][0]
        assert set(diag) == {"code", "severity", "message", "path", "position"}
        assert diag["severity"] == "error"

    def test_concurrency_flag_clean_stack(self, capsys):
        assert main(["--concurrency"]) == 0
        assert "concurrency: clean" in capsys.readouterr().out

    def test_concurrency_flag_on_mutation_fixture(self, capsys):
        import json

        fixture = os.path.join(EXAMPLES, "mutations", "dropped_lock_demo.py")
        status = main(["--json", "--concurrency", fixture])
        payload = json.loads(capsys.readouterr().out)
        assert status == 2
        codes = {
            diag["code"]
            for section in payload["sections"]
            for diag in section["diagnostics"]
        }
        assert "RVM601" in codes

    def test_diagnostics_identical_across_engines(self):
        # Lints are static: the catalog's engine must change nothing.
        source = "CREATE TABLE r (a, b);\nSELECT a FROM r WHERE c = 1"
        reports = {engine: lint_sql(source, Database(exec_mode=engine)) for engine in MODES}
        rendered = {
            engine: [d.format() for d in report]
            for engine, report in reports.items()
        }
        baseline = rendered["interpreted"]
        assert all(diags == baseline for diags in rendered.values())


class TestInstallTimeLint:
    def _dup_name_scenario(self, strict):
        from repro.algebra.expr import Product

        db = Database()
        r = db.create_table("R", ("a", "b"), rows=[(1, 2)])
        view = ViewDefinition("V", Product(r, r))  # duplicate result names
        return BaseLogScenario(db, view, strict=strict)

    def test_install_warns_by_default(self):
        scenario = self._dup_name_scenario(strict=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scenario.install()
        messages = [str(w.message) for w in caught if issubclass(w.category, AnalysisWarning)]
        assert any("RVM106" in message for message in messages)

    def test_strict_install_raises(self):
        scenario = self._dup_name_scenario(strict=True)
        with pytest.raises(AnalysisError) as excinfo:
            scenario.install()
        assert any(d.code == "RVM106" for d in excinfo.value.diagnostics)

    def test_clean_view_installs_silently(self):
        db = Database()
        db.create_table("R", ("a", "b"), rows=[(1, 2)])
        view = ViewDefinition("V", db.ref("R"))
        scenario = BaseLogScenario(db, view, strict=True)
        scenario.install()  # must not raise or warn
        assert scenario.read_view() == db["R"]
