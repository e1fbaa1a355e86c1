"""Partition-pruned refresh paths for the deferred scenarios.

:class:`PartitionedMaintenance` is the bridge between one scenario
(BL or C) and a :class:`~repro.storage.partition.PartitionedDatabase`.
It is built once at install time by :meth:`PartitionedMaintenance.probe`,
which re-runs the static pruning analysis of
:mod:`repro.analysis.partitioning` (the same verdict ``repro lint``
reports as RVM701/RVM702) and returns ``None`` whenever the partitioned
fast path would not be sound or not be profitable:

* the database is not partitioned (or lacks the fast-apply API),
* the engine is the interpreted oracle (kept byte-identical to the
  unpartitioned semantics on purpose — it is the reference the
  benchmarks digest against),
* some base table of the view has no declared partition spec,
* same-domain tables have drifted layouts (RVM702),
* the maintenance deltas cannot be fully pruned (RVM701), or
* the view's output does not carry a partition-key column (the MV could
  not be patched partition-by-partition).

When the probe succeeds, the MV is co-declared into the base tables'
partition domain, and the scenario re-declares its operations
(:mod:`repro.core.ops`) with this object supplying the steps that differ
on a partitioned database — same ops, same runner, same lock and crash
points:

* :meth:`epoch_deltas` — the compute step: the post-update deltas
  rewritten over restrictions to the partitions holding this epoch's
  affected keys;
* :meth:`refresh_log` — ``refresh_BL``'s apply step: evaluate the pruned
  pair, then install the MV patch and the log clears in one
  :meth:`~repro.storage.partition.PartitionedDatabase.apply_parts`
  epoch (delta-proportional, partition-at-a-time, crash-atomic);
* :meth:`apply_differentials` — ``refresh_DT``/``partial_refresh_C``'s
  apply step through ``apply_parts`` (the fold into the differential
  tables stays on the generic plan path: the differentials are
  delta-sized already).

Every pruning decision is recorded on the scenario's
:class:`~repro.algebra.evaluation.CostCounter` (``partition_prunes``,
``partition_fallbacks``, ``partitions_touched``) — the benchmark and
the regression gate's ``--partition-guard`` read those counters.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.algebra.bag import Bag
from repro.algebra.expr import Expr, Literal
from repro.analysis.partitioning import analyze_deltas, key_positions, prune_expr
from repro.core.differential import post_update_delta
from repro.errors import ReproError

__all__ = ["PartitionedMaintenance"]

_FAST_APPLY_API = ("partition_spec", "affected_keys", "restrict", "apply_parts")


class PartitionedMaintenance:
    """Pruned maintenance machinery for one installed view."""

    def __init__(
        self,
        db,
        view,
        log,
        specs: Mapping[str, object],
        log_map: Mapping[str, str],
        delete_expr: Expr,
        insert_expr: Expr,
        mv_position: int,
        domain: str,
    ) -> None:
        self.db = db
        self.view = view
        self.log = log
        self.specs = dict(specs)
        self.log_map = dict(log_map)
        self.delete_expr = delete_expr
        self.insert_expr = insert_expr
        self.mv_position = mv_position
        self.domain = domain

    # ------------------------------------------------------------------
    # Install-time probe
    # ------------------------------------------------------------------

    @classmethod
    def probe(cls, scenario) -> PartitionedMaintenance | None:
        """Build the fast path for ``scenario``, or ``None`` if ineligible."""
        db = scenario.db
        if any(not hasattr(db, name) for name in _FAST_APPLY_API):
            return None
        if db.exec_mode == "interpreted":
            # The interpreted oracle stays on unpartitioned semantics:
            # it is the digest baseline the partitioned engines must
            # reproduce bit-identically.
            return None
        view = scenario.view
        log = scenario.log
        base = sorted(view.base_tables())
        specs = {}
        for table in base:
            spec = db.partition_spec(table)
            if spec is None:
                return None
            specs[table] = spec
        for i, first in enumerate(base):
            for second in base[i + 1 :]:
                a, b = specs[first], specs[second]
                if a.domain == b.domain and not a.co_partitioned(b):
                    return None  # RVM702: layout drift
        log_map = {}
        for table in base:
            log_map[log.delete_ref(table).name] = table
            log_map[log.insert_ref(table).name] = table
        delete_expr, insert_expr = post_update_delta(log, view.query)
        plan = analyze_deltas((delete_expr, insert_expr), specs, log_map)
        if not plan.prunable:
            return None  # RVM701: whole-table fallback
        keyed = key_positions(view.query, specs)
        if not keyed:
            return None
        mv_position = min(keyed)
        domain = keyed[mv_position]
        support = cls(
            db, view, log, specs, log_map, delete_expr, insert_expr, mv_position, domain
        )
        support._declare_mv()
        return support

    def _declare_mv(self) -> None:
        """Co-declare the MV into the base tables' partition domain."""
        representative = next(
            spec for spec in self.specs.values() if spec.domain == self.domain
        )
        schema = self.view.schema
        self.db.declare_partitioning(
            self.view.mv_table,
            schema.attributes[self.mv_position],
            parts=representative.parts,
            scheme=representative.scheme,
            bounds=representative.bounds,
            domain=self.domain,
        )

    # ------------------------------------------------------------------
    # Epoch-time helpers
    # ------------------------------------------------------------------

    def pending_deltas(self) -> dict[str, Bag]:
        """Recorded per-base-table log contents (▼R ⊎ ▲R), non-empty only."""
        pending: dict[str, Bag] = {}
        for table in self.specs:
            delete = self.db[self.log.delete_ref(table).name]
            insert = self.db[self.log.insert_ref(table).name]
            if delete or insert:
                pending[table] = delete.union_all(insert)
        return pending

    def affected_keys(self, pending: Mapping[str, Bag]) -> dict[str, set]:
        return self.db.affected_keys(pending)

    def pruned_deltas(self, keys: Mapping[str, set], *, counter=None) -> tuple[Expr, Expr] | None:
        """The pruned ``(delete, insert)`` delta expressions for this epoch.

        Returns ``None`` when a reference unexpectedly fails to prune
        (the caller falls back to the whole-table plan).
        """

        def restrict(table: str, domain: str) -> Bag:
            return self.db.restrict(table, keys.get(domain, ()), counter=counter)

        return self._prune(restrict, counter)

    def _prune(self, restrict, counter, **chunk) -> tuple[Expr, Expr] | None:
        """Rewrite both delta expressions over ``restrict``; None on a fallback."""
        delete, insert = (
            prune_expr(expr, self.specs, self.log_map, restrict, counter=counter, **chunk)
            for expr in (self.delete_expr, self.insert_expr)
        )
        if delete.fallbacks or insert.fallbacks:
            return None
        return delete.expr, insert.expr

    def log_clears(self) -> dict[str, Bag]:
        return {name: Bag.empty() for name in self.log.table_names()}

    # ------------------------------------------------------------------
    # Scenario fast paths
    # ------------------------------------------------------------------

    def epoch_deltas(self, scenario) -> tuple[Expr, Expr]:
        """This epoch's post-update deltas over restrictions to the partitions
        holding the keys the log mentions (whole-table expressions when a
        reference unexpectedly fails to prune)."""
        pending = self.pending_deltas()
        keys = self.affected_keys(pending) if pending else {}
        pruned = self.pruned_deltas(keys, counter=scenario.counter)
        return pruned if pruned is not None else (self.delete_expr, self.insert_expr)

    def epoch_deltas_if_pending(self, scenario) -> tuple[Expr, Expr] | None:
        """:meth:`epoch_deltas`, or ``None`` when the log recorded nothing."""
        return None if self.log.is_empty() else self.epoch_deltas(scenario)

    def refresh_log(self, scenario, delete: Expr, insert: Expr) -> None:
        """``refresh_BL``'s apply, partition-at-a-time: evaluate the pair (an
        epoch-supplied literal already is its bag), then install the MV
        patch and the log clears in one ``apply_parts`` epoch — the effect
        of ``_log_refresh_plan`` on the affected partitions' slices only."""
        counter = scenario.counter
        delete_bag, insert_bag = (
            expr.bag if isinstance(expr, Literal) else self.db.evaluate(expr, counter=counter)
            for expr in (delete, insert)
        )
        self.db.apply_parts(
            {self.view.mv_table: (delete_bag, insert_bag)},
            clears=self.log_clears(),
            counter=counter,
        )

    def chunked_group_tasks(self, scenario, *, order: int, hot_threshold: int = 64) -> list | None:
        """Per-partition-chunk :class:`~repro.exec.group.GroupTask`\\ s.

        Returns ``None`` when per-chunk evaluation is not provably sound
        (the static plan is not chunk-safe) — the caller falls back to
        the whole-log group task.  Otherwise: one read-only compute task
        per affected partition chunk (hot partitions sub-split by
        :func:`~repro.exec.group.split_hot_partitions`), declared under
        partition-granular resources so independent chunks of one view
        evaluate in parallel, plus a finalize task whose apply merges
        the per-chunk deltas — they are disjoint by key, so they
        ⊎-sum to the whole-log deltas — and runs the scenario's normal
        group apply once.
        """
        from repro.exec.group import GroupTask, partition_resource, split_hot_partitions

        plan = analyze_deltas((self.delete_expr, self.insert_expr), self.specs, self.log_map)
        if not plan.chunkable:
            return None
        pending = self.pending_deltas()
        keys = sorted(self.affected_keys(pending).get(self.domain, ()), key=repr)
        spec = next(s for s in self.specs.values() if s.domain == self.domain)
        by_pid: dict[int, list] = {}
        for key in keys:
            by_pid.setdefault(spec.partition_of(key), []).append(key)
        chunks = split_hot_partitions(by_pid, hot_threshold) or [("p-none", ())]
        view = self.view
        log_tables = frozenset(self.log.table_names())
        results: dict[str, tuple[Bag, Bag]] = {}

        def make_compute(chunk_keys: tuple):
            def compute(counter):
                chunk = frozenset(chunk_keys)
                log_bags = {name: self.db[name] for name in log_tables}

                def restrict(table: str, domain: str) -> Bag:
                    return self.db.restrict(table, chunk_keys, counter=counter)

                pruned = self._prune(restrict, counter, chunk_keys=chunk, log_bags=log_bags)
                if pruned is None:
                    raise ReproError(
                        f"chunked refresh of {view.name!r}: runtime rewrite "
                        "fell back although the static plan was prunable"
                    )
                delete, insert = pruned
                return self.db.evaluate(delete, counter=counter), self.db.evaluate(insert, counter=counter)

            return compute

        def prime():
            self.db.prime(self.delete_expr, self.insert_expr, counter=scenario.counter)
            for table in self.specs:
                # Force-build the key index parallel restricts will probe.
                self.db.restrict(table, ())

        tasks = []
        all_pids: set[int] = set()
        for label, chunk_keys in chunks:
            pids = {spec.partition_of(key) for key in chunk_keys}
            all_pids |= pids
            tasks.append(
                GroupTask(
                    name=f"{view.name}[{label}]",
                    order=order,
                    key=lambda: None,
                    compute=make_compute(chunk_keys),
                    apply=lambda deltas, label=label: results.__setitem__(label, deltas),
                    reads=log_tables
                    | {partition_resource(t, pid) for t in self.specs for pid in pids},
                    writes=frozenset(),
                    prime=prime,
                )
            )

        def finalize_apply(_deltas) -> None:
            merged: list[dict] = [{}, {}]
            for label, __ in chunks:
                for side, bag in enumerate(results[label]):
                    counts = merged[side]
                    for row, count in bag.items():
                        counts[row] = counts.get(row, 0) + count
            scenario.run("refresh", (Bag.from_counts(merged[0]), Bag.from_counts(merged[1])))

        # Differentials already pending from an earlier propagate (a C
        # view) land on partitions this epoch's log never mentioned —
        # widen the declared write set to cover them.
        state = self.db.state
        for name in (
            getattr(view, "dt_delete_table", None),
            getattr(view, "dt_insert_table", None),
        ):
            if name is not None and name in state:
                for row in state[name].support:
                    all_pids.add(spec.partition_of(row[self.mv_position]))

        tasks.append(
            GroupTask(
                name=f"{view.name}[finalize]",
                order=order,
                key=lambda: None,
                compute=lambda counter: (Bag.empty(), Bag.empty()),
                apply=finalize_apply,
                reads=frozenset(),
                writes=frozenset(scenario._group_writes() - {view.mv_table})
                | {partition_resource(view.mv_table, pid) for pid in all_pids},
            )
        )
        return tasks

    def apply_differentials(self, scenario, *_pair: Expr) -> None:
        """The ``refresh_DT`` apply, partition-at-a-time.

        Installs the pending ∇MV/ΔMV patch and the differential clears
        in one ``apply_parts`` epoch — same effect as
        ``DiffTableScenario._apply_dt_plan``, but mutating only the
        affected partitions' slices instead of copying the MV dict.
        """
        view = self.view
        empty = Bag.empty()
        self.db.apply_parts(
            {view.mv_table: (self.db[view.dt_delete_table], self.db[view.dt_insert_table])},
            clears={view.dt_delete_table: empty, view.dt_insert_table: empty},
            counter=scenario.counter,
        )
