"""Architecture gates: names and signatures a change deleted stay deleted.

One table, one row per deleted surface: what is forbidden, the paths it
is forbidden on, the change that removed it (named as in ``CHANGES.md``),
and what to do instead.  A row takes one of two forms:

* :class:`Gate` — a regular expression matched line by line, as
  ``grep -rIE`` would, over every file under ``paths`` minus ``exclude``;
* :class:`ParameterGate` — no ``def`` named one of ``functions`` under
  ``paths`` takes a parameter named ``parameter`` (a signature can span
  lines, which a line pattern cannot follow).

The row rule: a row is added when a change deletes a surface, and it is
never loosened.  It carries ``removed_line``, a line copied verbatim from
the last tree that still had the surface, and the row must trip on it, so
a pattern that stops matching what it was written against fails here
instead of passing vacuously.  (One row guards a boundary that no tree
ever crossed; its line is the import it forbids, copied from where that
import is legitimate.)

The scan reads what ``grep -rI`` reads: every UTF-8 text file under the
four top-level directories, not only ``*.py`` (experiment reports and JSON
fixtures too), except this module and ``__pycache__``.  Each file is read
once for every row.

Run alone with ``PYTHONPATH=src python -m pytest tests/test_architecture.py -q``.
"""

from __future__ import annotations

import ast
import re
import textwrap
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EVERYWHERE = ("src", "tests", "benchmarks", "examples")

ENGINE_OBJECT = "an engine is an object: Database turns exec_mode into one engine once"
AGGREGATE_SCENARIO = "an aggregate view is a combined view with one more apply step"
ONE_SIMPLIFIER = "one simplifier, one downtime measure"
ONE_KERNEL = "a group epoch folds each log slice once: one net-delta kernel"
CALLING_THREAD = "a group epoch evaluates on the calling thread"
BY_VALUE = "a group epoch shares a delta by value"
ONE_RUNNER = "a policy has one runner: the view server schedules maintenance"
ONE_REFRESH_PATH = "one refresh path: a compute step evaluates where OpStep.locked says"


def _under(path: str, tops: tuple[str, ...]) -> bool:
    return any(path == top or path.startswith(top + "/") for top in tops)


@dataclass(frozen=True)
class Gate:
    """A line pattern no file under ``paths`` (minus ``exclude``) may match."""

    name: str
    pattern: str
    paths: tuple[str, ...]
    removed_by: str
    message: str
    removed_line: str
    exclude: tuple[str, ...] = ()

    def hits(self, tree: dict[str, str]) -> list[str]:
        pattern = re.compile(self.pattern, re.MULTILINE)
        found = []
        for path, text in tree.items():
            # A line match is a match on the whole text, so most files
            # are ruled out by one search.
            if _under(path, self.paths) and not _under(path, self.exclude) and pattern.search(text):
                found += [
                    f"{path}:{number}: {line.strip()}"
                    for number, line in enumerate(text.split("\n"), start=1)
                    if pattern.search(line)
                ]
        return found

    def trips_on(self, line: str) -> bool:
        return re.search(self.pattern, line, re.MULTILINE) is not None


@dataclass(frozen=True)
class ParameterGate:
    """No ``def`` named one of ``functions`` under ``paths`` takes ``parameter``."""

    name: str
    functions: tuple[str, ...]
    parameter: str
    paths: tuple[str, ...]
    removed_by: str
    message: str
    removed_line: str

    def _offending(self, source: str) -> list[int]:
        return [
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in self.functions
            and self.parameter in {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        ]

    def hits(self, tree: dict[str, str]) -> list[str]:
        header = re.compile(rf"\bdef\s+({'|'.join(self.functions)})\s*\(")
        found = []
        for path, text in tree.items():
            if path.endswith(".py") and _under(path, self.paths) and header.search(text):
                lines = text.split("\n")
                found += [f"{path}:{number}: {lines[number - 1].strip()}" for number in self._offending(text)]
        return found

    def trips_on(self, line: str) -> bool:
        return bool(self._offending(textwrap.dedent(line) + " ..."))


GATES = (
    Gate(
        "vectorized-tier",
        r"ColumnBatch|VectorizedExecutor",
        ("src", "tests", "benchmarks"),
        "one in-memory engine: the vectorized tier and the columnar bag are deleted",
        "the vectorized tier's classes are named again; the compiled engine is the one in-memory engine",
        "class ColumnBatch:",
    ),
    Gate(
        "engine-governor",
        r"EngineGovernor|enable_governor|governor_opts|governed=|GOVERNOR_LADDERS",
        EVERYWHERE,
        "the engine governor folded into the sqlite tier: one fallback rung, no ladder, no knobs",
        "the engine governor or its governed= / governor_opts= knobs are back",
        "            governor = db.enable_governor()",
    ),
    Gate(
        "oracle-independence",
        r"row_getter|(from|import) +repro\.exec",
        ("src/repro/algebra/evaluation.py", "src/repro/algebra/bag.py"),
        "compiled row kernels: the oracle stays independent of the engine it checks",
        "the interpreted evaluator or Bag shares code with the compiled engine it checks",
        "from repro.exec.kernels import row_getter",
    ),
    Gate(
        "partition-slices",
        r"_slices|_materialize|__part|restricted_lookup|restricted_rows",
        ("src",),
        "a partition is a routing rule, not a second copy of the table",
        "a second per-partition copy of a table (slices or the sqlite __part column) is back",
        "    def restricted_lookup(self, table: str, keys, *, counter: CostCounter | None = None) -> Bag | None:",
    ),
    Gate(
        "partition-parallelism",
        r"chunked_group_tasks|partitioned_group_tasks|split_hot_partitions|partition_resource|hot_threshold"
        r"|chunk_safe|chunkable|restrict_logs",
        ("src",),
        "a partition is not a unit of parallelism: one group task per view",
        "chunked group refresh or its chunk-safety analysis is back",
        "    chunk_safe: bool",
    ),
    Gate(
        "group-schedule",
        r"check_schedule|check_tasks|_find_cycle|_group_writes|_group_schedule|inferred_reads|inferred_writes"
        r"|swapped_batch_order|narrowed_write_set",
        ("src",),
        "a group epoch has nothing to schedule: a view reads only base tables",
        "group-epoch conflict batching, declared task footprints or their RVM603/604 checks are back",
        "    check_schedule,",
    ),
    Gate(
        "table-digests",
        r"intent_payload_tables|check_journal_payload|check_journal_coverage|_tracked_digest|undigested"
        r"|pre_digests|omitted_journal_table",
        ("src", "tests", "examples"),
        "a checkpoint names the operation it completes",
        "per-op table digests, digest folding or the RVM605 journal-coverage check are back",
        "`intent_payload_tables` is patched to exclude MV tables, so a crash",
    ),
    Gate(
        "staged-snapshot",
        r"staging_path|_fold_wal|os\.replace|live-wal|\.saving",
        ("src",),
        "a checkpoint is one transaction on the snapshot file",
        "a second snapshot write path (staged temp file + os.replace) is back",
        "    transaction, or temp file + os.replace; either way stamped with",
    ),
    Gate(
        "engine-mode-branch",
        r"""(==|!=) *(["'](compiled|interpreted|sqlite|vectorized)["']|(COMPILED|INTERPRETED|SQLITE)\b)"""
        r"""|(["'](compiled|interpreted|sqlite|vectorized)["']|\b(COMPILED|INTERPRETED|SQLITE)) *(==|!=)"""
        r"|exec_mode *(==|!=)",
        ("src",),
        ENGINE_OBJECT,
        "code outside repro.exec branches on an engine's name; ask the engine instead",
        "        if db.exec_mode != SQLITE:",
        exclude=("src/repro/exec/__init__.py",),
    ),
    Gate(
        "engine-mode-getattr",
        r"""getattr\([^)]*["']exec_mode["']""",
        ("src",),
        ENGINE_OBJECT,
        "code outside repro.exec reads an engine's name; ask the engine instead",
        '        if db is not None and getattr(db, "exec_mode", "interpreted") != "interpreted":',
        exclude=("src/repro/exec/__init__.py",),
    ),
    Gate(
        "lint-engine-flag",
        r"--engine",
        ("src",),
        ENGINE_OBJECT,
        "the lint --engine knob is back; scratch catalogs use the REPRO_EXEC default",
        '        if arg == "--engine":',
        exclude=("src/repro/exec/__init__.py",),
    ),
    Gate(
        "private-engine-read",
        r"\._executor",
        ("src",),
        ENGINE_OBJECT,
        "code outside Database reads the private engine; use Database.executor",
        '    mirror = getattr(db._executor, "mirror", None)',
        exclude=("src/repro/exec/__init__.py", "src/repro/storage/database.py"),
    ),
    Gate(
        "shared-log-registry",
        r"SharedLogView|shared_group|_shared_log_groups|_shared_default|last_epoch",
        ("src",),
        "a shared-log view is a Scenario: every view runs through Scenario.run",
        "a second shared-log registry, its SharedLogView adapter or the manager's shared-group branches are back",
        '__all__ = ["SharedLog", "SharedLogScenario", "SharedLogView"]',
    ),
    Gate(
        "aggregate-wrapper",
        r'_maybe_aggregate|__base__|getattr\(scenario, "base"',
        ("src",),
        AGGREGATE_SCENARIO,
        "the aggregate wrapper, its __base__ view or the manager's / shell's aggregate branches are back",
        '    base_view = ViewDefinition(f"__base__{name}", base_expr)',
    ),
    Gate(
        "lock-seam",
        r"ledger.exclusive",
        ("src",),
        AGGREGATE_SCENARIO,
        "a lock section is opened outside Scenario.run's lock seam (core/scenarios.py) and the baselines",
        '        with self.ledger.exclusive(self.view.agg_table, label="agg_refresh", counter=self.counter):',
        exclude=("src/repro/core/scenarios.py", "src/repro/baselines"),
    ),
    Gate(
        "padded-join-probe",
        r"_pad_row|_bucket_rest",
        ("src",),
        "a join probe carries its operand's constants in the index key",
        "the padded right-side filter or the per-bucket rest dict of the index-probe join is back",
        "def _bucket_rest(bucket: Mapping[Row, int], apply, minus: Bag) -> dict[Row, int]:",
    ),
    Gate(
        "expression-optimizer",
        r"repro\.algebra\.rewrite|simplify_predicate",
        EVERYWHERE,
        ONE_SIMPLIFIER,
        "the standalone expression optimizer is back; differentiate folds and Compiler._prune prunes",
        "from repro.algebra.rewrite import optimize, simplify_predicate",
    ),
    Gate(
        "simulated-reader-blocking",
        r"BlockingSimulation|ReaderStats|extensions\.concurrency",
        EVERYWHERE,
        ONE_SIMPLIFIER,
        "the simulated reader-blocking model is back; LockLedger measures downtime",
        "from repro.extensions.concurrency import BlockingSimulation",
    ),
    Gate(
        "private-index-fold",
        r"_compose_tail",
        ("src",),
        ONE_KERNEL,
        "a second net-delta fold is back; fold with repro.algebra.bag.compose_deltas",
        "def _compose_tail(tail: list[tuple[Bag, Bag]]) -> tuple[dict[Row, int], dict[Row, int]]:",
    ),
    Gate(
        "shared-log-entry-fold",
        r"union_all\(delete.monus",
        ("src/repro/extensions/sharedlog.py",),
        ONE_KERNEL,
        "the shared log folds its entries bag by bag again; fold with repro.algebra.bag.compose_deltas",
        "                net_delete.union_all(delete.monus(net_insert)),",
    ),
    Gate(
        "group-pool",
        r"_standing_pool|ThreadPoolExecutor",
        ("src",),
        CALLING_THREAD,
        "a group-epoch thread pool is back; evaluate a group epoch's leaders on the calling thread",
        "from concurrent.futures import ThreadPoolExecutor, wait",
    ),
    Gate(
        "group-threads",
        r"^ *(import|from) +(concurrent|threading)\b",
        ("src/repro/exec/group.py",),
        CALLING_THREAD,
        "the group scheduler imports threads again; a group epoch runs on the calling thread",
        "import threading",
    ),
    Gate(
        "counter-absorb",
        r"def absorb\b",
        ("src",),
        CALLING_THREAD,
        "CostCounter.absorb is back; one counter charges the calling thread's work",
        "    def absorb(self, other: CostCounter) -> None:",
    ),
    Gate(
        "span-parent",
        r"(^|[(,*]) *parent *(:|=)",
        ("src/repro/obs",),
        CALLING_THREAD,
        "the tracer's parent= hand-off is back; a span's parent is the calling thread's open span",
        "def span(name: str, *, counter: Any = None, parent: Any = None, **attrs: Any):",
    ),
    Gate(
        "deferred-index",
        r"pending_deltas|index_queue_drops|cheaper_than_drain|index_sync|_queued_rows|_mark_stale",
        EVERYWHERE,
        "an index is current when its write commits",
        "deferred index upkeep is back; IndexManager.on_patch / on_replace keep every index current inside the write",
        "        self._queued_rows: dict[str, int] = {}",
    ),
    Gate(
        "delta-fingerprints",
        r"subplan_fingerprint|canonical_rename|content_digests|EpochDeltaCache|audit_plan|bind_constants",
        EVERYWHERE,
        BY_VALUE,
        "a second notion of delta equality is back; key a group task by the values its evaluation reads",
        "    def bind_constants(self) -> bool:",
    ),
    ParameterGate(
        "compact-parameter",
        ("refresh_group", "epoch_tasks"),
        "compact",
        ("src",),
        BY_VALUE,
        "the compact= knob of a group epoch is back; a group epoch always compacts",
        "    def epoch_tasks(self, *, order: int, compact: bool) -> list | None:",
    ),
    Gate(
        "compact-argument",
        r"(refresh_group|epoch_tasks)\([^)]*\bcompact=",
        ("src",),
        BY_VALUE,
        "the compact= knob of a group epoch is back; a group epoch always compacts",
        "                own = self.scenario(name).epoch_tasks(order=order, compact=compact)",
    ),
    Gate(
        "policy-runners",
        r"\.driver\(|_drivers|note_transactions|run_due|view_fingerprints",
        EVERYWHERE,
        ONE_RUNNER,
        "a second policy runner is back; schedule maintenance with ViewServer(ServeConfig(policy=...))"
        " and simulate one scenario with MaintenanceDriver",
        "    def run_due(self, run: Callable[[str], None]) -> None:",
    ),
    Gate(
        "manager-tick",
        r"def tick",
        ("src/repro/warehouse/manager.py",),
        ONE_RUNNER,
        "the manager's tick is back; the view server schedules maintenance",
        "    def tick(self, txns: Iterable[UserTransaction] = ()) -> None:",
    ),
    Gate(
        "manager-policy",
        r"^ +policy\b",
        ("src/repro/warehouse/manager.py",),
        ONE_RUNNER,
        "the manager's policy parameter is back; pass the policy to ServeConfig",
        "        policy: MaintenancePolicy | None = None,",
    ),
    Gate(
        "scenario-run-deltas",
        r"def run\(self, kind[^)]*\bdeltas\b|\.run\([^)]*\bdeltas=",
        EVERYWHERE,
        ONE_REFRESH_PATH,
        "Scenario.run has one path: its compute step evaluates the bags where "
        "OpStep.locked says, and a group epoch lends a leader's bags through run(kind, lend)",
        "    def run(self, kind: str | MaintenanceOp, deltas: tuple[Bag, Bag] | None = None) -> None:",
    ),
    Gate(
        "epoch-binding",
        r"\bepoch_binding\b",
        EVERYWHERE,
        ONE_REFRESH_PATH,
        "a partitioned compute step evaluates the pruned pair under epoch_keys(); "
        "apply steps patch with the computed bags",
        "        binding = self.epoch_binding(binding)",
    ),
    Gate(
        "apply-via-binding",
        r"def (refresh_log|execute_plan|apply_differentials|_apply_slice|_agg_patch)\([^)]*\bbinding\b"
        r"|\.via\([^)]*\bbinding=",
        ("src",),
        ONE_REFRESH_PATH,
        "an apply step's via takes the computed (delete, insert) bags, never a binding",
        "                step.via(*pair, binding=binding)",
    ),
    Gate(
        "bag-dict-copy",
        r"dict\(self\._counts\)",
        ("src/repro/algebra/bag.py",),
        "a table write copies at clone speed",
        "a bag copies its counts with dict(...) again, which re-inserts every row one by one once "
        "the dict holds a deleted entry; copy with self._counts.copy(), which clones",
        "        counts = dict(self._counts)",
    ),
)


@pytest.fixture(scope="module")
def tree() -> dict[str, str]:
    """Every UTF-8 text file under EVERYWHERE, by path relative to ROOT."""
    this = Path(__file__).resolve()
    files = {}
    for top in EVERYWHERE:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts or path.resolve() == this:
                continue
            data = path.read_bytes()
            if b"\0" in data:
                continue
            try:
                files[path.relative_to(ROOT).as_posix()] = data.decode("utf-8")
            except UnicodeDecodeError:
                continue
    return files


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_deleted_surface_stays_deleted(gate, tree):
    hits = gate.hits(tree)
    assert not hits, f"{gate.name} (removed by {gate.removed_by!r}) is back: {gate.message}\n" + "\n".join(hits)


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_gate_matches_what_it_removed(gate):
    assert gate.trips_on(gate.removed_line), gate.name
