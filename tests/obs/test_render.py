"""Trace rendering and the ``python -m repro trace`` entry point."""

import json

import pytest

from repro.cli import main as repro_main
from repro.obs.render import render_trace, render_trace_file
from repro.obs.tracer import Tracer


def sample_trace() -> dict:
    tracer = Tracer()
    with tracer.span("group_epoch", views=3):
        with tracer.span("delta_compute", view="V0"):
            pass
        with tracer.span("refresh", view="V0", scenario="BL"):
            with tracer.span("apply", patches=2):
                pass
    return tracer.to_dict()


def test_render_trace_draws_the_nested_tree():
    text = render_trace(sample_trace())
    lines = text.splitlines()
    assert lines[0].startswith("group_epoch views=3")
    assert "├─ delta_compute view=V0" in text
    assert "└─ refresh scenario=BL view=V0" in text
    # Nesting depth is visible: a refresh's children carry the │/space gutter.
    assert any(line.startswith("│  ") or line.startswith("   ") for line in lines)
    assert "ms" in lines[0]


def test_render_empty_trace():
    assert render_trace({"spans": []}) == "(empty trace)"


def test_render_trace_file_round_trip(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(sample_trace()))
    assert "group_epoch" in render_trace_file(path)


def test_cli_trace_renders_a_file(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(sample_trace()))
    assert repro_main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "group_epoch" in out and "└─" in out


def test_cli_trace_demo_renders_a_group_epoch(capsys):
    assert repro_main(["trace", "--demo"]) == 0
    out = capsys.readouterr().out
    # The acceptance shape: a group-refresh epoch as a nested span tree.
    assert "group_epoch" in out
    assert "├─ delta_compute" in out
    assert "refresh" in out
    assert "txn" in out


def test_cli_trace_demo_json(capsys):
    assert repro_main(["trace", "--demo", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["format"] == "repro-trace-v1"
    names = {span["name"] for span in document["spans"]}
    assert "group_epoch" in names


def test_cli_trace_without_args_errors():
    with pytest.raises(SystemExit):
        repro_main(["trace"])
