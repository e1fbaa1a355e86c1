"""Unit tests for the experiment result table and report formatting."""

from repro.bench.harness import ExperimentResult
from repro.bench.report import format_cell, format_table


class TestExperimentResult:
    def test_rows_accumulate(self):
        result = ExperimentResult("EX")
        result.add(x=1, y="a")
        result.add(x=2, y="b")
        assert result.column("x") == [1, 2]
        assert result.column("missing") == [None, None]

    def test_report_contains_header_and_rows(self):
        result = ExperimentResult("EX", "a description")
        result.add(metric=3.14159, label="pi")
        report = result.report()
        assert "== EX ==" in report
        assert "a description" in report
        assert "3.142" in report  # 4 significant digits


class TestFormatting:
    def test_format_cell_float_precision(self):
        assert format_cell(3.14159) == "3.142"

    def test_format_cell_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_format_cell_passthrough(self):
        assert format_cell("text") == "text"
        assert format_cell(7) == "7"

    def test_empty_table(self):
        assert format_table([]) == "(no rows)"

    def test_alignment(self):
        rows = [{"col": "short"}, {"col": "a-much-longer-value"}]
        lines = format_table(rows).splitlines()
        assert len({len(line.rstrip()) for line in lines[2:]}) == 2  # padded bodies
        assert lines[0].startswith("col")

    def test_missing_cells_render_dash(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "-" in text.splitlines()[2]

    def test_explicit_column_order(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_column_order_follows_first_appearance(self):
        rows = [{"z": 1}, {"a": 2, "z": 3}]
        header = format_table(rows).splitlines()[0]
        assert header.index("z") < header.index("a")
