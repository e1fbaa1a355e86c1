"""Static + semantic detection of the paper's *state bug* (Section 1.2).

A deferred refresh is only correct when its incremental queries are
derived for the **post-update** state.  The duality of Section 4 (Lemma
1) dictates the log substitution's polarity: past states are recovered
by :math:`\\widehat{\\mathcal{L}} : R \\mapsto (R \\dot{-}
\\blacktriangle R) \\uplus \\blacktriangledown R`, i.e. the *delete*
component of the factored substitution is the log's **insert** table and
vice versa.  Pre-update rules misread the log as a pending transaction
(:math:`D = \\blacktriangledown R, A = \\blacktriangle R`) — evaluated
post-update this yields wrong multiplicities (Example 1.2) and wrong
tuples (Example 1.3).

Two detectors:

* :func:`check_log_polarity` — purely static: inspects which log tables
  a substitution's ``(D, A)`` components read (**RVM301**);
* :func:`audit_refresh_pair` — a randomized
  semantic oracle: replays the refresh on sampled weakly-minimal log
  states and compares against the PAST-state ground truth (**RVM302**).
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from repro.algebra.bag import Bag
from repro.algebra.expr import Expr, TableRef
from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.core.logs import Log
from repro.core.substitution import FactoredSubstitution
from repro.storage.database import Database

__all__ = [
    "check_log_polarity",
    "audit_refresh_pair",
]


# ----------------------------------------------------------------------
# Static polarity check (RVM301)
# ----------------------------------------------------------------------


def check_log_polarity(eta: FactoredSubstitution, log: Log) -> AnalysisReport:
    """Flag substitutions that read the log with pre-update polarity.

    For every tracked table the correct :math:`\\widehat{\\mathcal{L}}`
    entry has :math:`D` reading :math:`\\blacktriangle R` and :math:`A`
    reading :math:`\\blacktriangledown R`.  An entry with the roles
    swapped is the state-bug signature.
    """
    report = AnalysisReport()
    for name in log.tables:
        if name not in eta:
            continue
        del_table = log.delete_ref(name).name  # ▼R
        ins_table = log.insert_ref(name).name  # ▲R
        d_tables = eta.delete_of(name).tables()
        a_tables = eta.insert_of(name).tables()
        swapped = (
            del_table in d_tables
            and ins_table in a_tables
            and ins_table not in d_tables
            and del_table not in a_tables
        )
        if swapped:
            report.add(
                "RVM301",
                Severity.ERROR,
                f"substitution entry for {name!r} reads the log with pre-update "
                f"polarity (D = {del_table}, A = {ins_table}); post-update "
                f"evaluation requires the Lemma 1 duality (D = {ins_table}, "
                f"A = {del_table})",
                path=name,
            )
    return report


# ----------------------------------------------------------------------
# Randomized semantic oracle (RVM302)
# ----------------------------------------------------------------------


def _random_bag(rng: random.Random, arity: int, *, max_rows: int = 3, domain: int = 3) -> Bag:
    rows = [
        tuple(rng.randrange(domain) for _ in range(arity))
        for _ in range(rng.randint(0, max_rows))
    ]
    counts: dict[tuple, int] = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + rng.randint(1, 2)
    return Bag.from_counts(counts)


def _sub_bag(rng: random.Random, bag: Bag) -> Bag:
    """A random sub-bag (the weakly-minimal ▲R ⊆ R invariant)."""
    return Bag.from_counts({row: rng.randint(0, count) for row, count in bag.items()})


def _referenced_tables(exprs: Iterable[Expr]) -> dict[str, "TableRef"]:
    refs: dict[str, TableRef] = {}
    for expr in exprs:
        for node in expr.walk():
            if isinstance(node, TableRef):
                refs[node.name] = node
    return refs


def _sample_state(
    rng: random.Random,
    log: Log,
    exprs: Iterable[Expr],
) -> Database:
    """A fresh database with random contents satisfying Lemma 4's invariant."""
    scratch = Database(exec_mode="interpreted")
    refs = _referenced_tables(exprs)
    tracked = set(log.tables)
    log_tables = {log.delete_ref(name).name for name in log.tables}
    log_tables |= {log.insert_ref(name).name for name in log.tables}
    # Base tables first (tracked ones drive their logs' insert sides).
    for name, ref in refs.items():
        if name in log_tables:
            continue
        scratch.create_table(name, ref.table_schema, rows=())
        scratch.set_table(name, _random_bag(rng, ref.table_schema.arity))
    for name in sorted(tracked):
        if name not in scratch.table_names():
            schema = log.delete_ref(name).table_schema
            scratch.create_table(name, schema, rows=())
            scratch.set_table(name, _random_bag(rng, schema.arity))
    for name in sorted(tracked):
        schema = scratch.schema_of(name)
        ins_name = log.insert_ref(name).name
        del_name = log.delete_ref(name).name
        scratch.create_table(ins_name, schema, internal=True)
        scratch.create_table(del_name, schema, internal=True)
        # ▲R ⊆ R keeps the sampled log weakly minimal.
        scratch.set_table(ins_name, _sub_bag(rng, scratch[name]))
        scratch.set_table(del_name, _random_bag(rng, schema.arity))
    return scratch


def audit_refresh_pair(
    log: Log,
    query: Expr,
    view_delete: Expr,
    view_insert: Expr,
    *,
    samples: int = 12,
    seed: int = 1996,
) -> AnalysisReport:
    """Semantic oracle: does ``(MV ∸ view_delete) ⊎ view_insert`` refresh?

    Ground truth: by Section 2.3 the past view contents are
    :math:`Q(\\widehat{\\mathcal{L}})` evaluated in the current state,
    and a correct refresh pair must turn exactly that into :math:`Q` —
    on **every** weakly-minimal log state.  We replay the pair on
    ``samples`` randomized states; any disagreement is a state bug.
    """
    report = AnalysisReport()
    eta = log.substitution()
    past_query = eta.apply(query)
    rng = random.Random(seed)
    for sample in range(samples):
        scratch = _sample_state(rng, log, (query, view_delete, view_insert, past_query))
        past_mv = scratch.evaluate(past_query)
        current = scratch.evaluate(query)
        candidate = past_mv.monus(scratch.evaluate(view_delete)).union_all(
            scratch.evaluate(view_insert)
        )
        if candidate != current:
            report.add(
                "RVM302",
                Severity.ERROR,
                f"refresh pair fails the PAST-state oracle on sampled state "
                f"#{sample}: refreshed view {candidate.counts()} != "
                f"Q(current) {current.counts()} — the deltas were derived "
                f"for the wrong state (Section 1.2 state bug)",
                path="refresh",
            )
            break
    return report
