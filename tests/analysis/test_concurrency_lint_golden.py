"""``repro lint --concurrency --json`` over ``examples/`` is pinned.

The golden file records, per example, the exit status and every finding
as ``[section, code, path]``: the clean stack lints zero findings, and
each of the six seeded ``examples/mutations/`` fixtures is flagged —
statically *and* dynamically — with exactly the RVM codes, at exactly
the seams, it was flagged with before the maintenance operations became
values.  A refactor that moves a lock seam or drops a derived effect
shows up here as a changed line, not as a silently weaker gate.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import main as lint_main

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads(Path(__file__).with_name("concurrency_lint_golden.json").read_text())


def test_every_example_is_pinned():
    examples = sorted(
        str(path.relative_to(ROOT))
        for pattern in ("examples/*.py", "examples/mutations/*.py")
        for path in ROOT.glob(pattern)
    )
    assert examples == sorted(GOLDEN)


@pytest.mark.parametrize("example", sorted(GOLDEN))
def test_concurrency_lint_matches_golden(example, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    status = lint_main(["--concurrency", "--json", example])
    report = json.loads(capsys.readouterr().out)
    findings = sorted(
        [section["target"].rpartition(":")[2] if ":" in section["target"] else "lint", item["code"], item["path"]]
        for section in report["sections"]
        for item in section["diagnostics"]
    )
    assert {"status": status, "findings": findings} == GOLDEN[example]
