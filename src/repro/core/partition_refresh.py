"""Partition-pruned refresh paths for the deferred scenarios.

:class:`PartitionedMaintenance` is the bridge between one scenario
(BL or C) and a :class:`~repro.storage.partition.PartitionedDatabase`.
It is built once at install time by :meth:`PartitionedMaintenance.probe`,
which runs the static pruning analysis of
:mod:`repro.analysis.partitioning` (the same verdict ``repro lint``
reports as RVM701/RVM702) and refuses — the reason is kept on the
scenario as ``partition_probe`` and counted as
``partition_probe{outcome=…}`` — whenever the partitioned fast path
would not be sound or not be profitable (:data:`PROBE_OUTCOMES`):

* ``no_api`` — the database is not partitioned (lacks the fast-apply API),
* ``interpreted`` — the engine is the interpreted oracle (kept
  byte-identical to the unpartitioned semantics on purpose — it is the
  reference the benchmarks digest against),
* ``unspecced`` — some base table of the view has no partition spec,
* ``rvm702`` — same-domain tables have drifted layouts,
* ``rvm701`` — the maintenance deltas cannot be fully pruned, or
* ``unkeyed`` — the view's output does not carry a partition-key column
  (the MV could not be patched partition-by-partition).

Pruning is a property of the plan, not of the epoch: an accepted probe
keeps the analysis' pruned ``(delete, insert)`` pair — Figure 2's
post-update deltas over key-restricted leaves — compiles and primes it
once, and co-declares the MV into the base tables' partition domain.
The scenario re-declares its operations (:mod:`repro.core.ops`) with
this object supplying the steps that differ on a partitioned database —
same ops, same runner, same lock and crash points:

* :meth:`epoch_deltas` — the compute step: the install-time pair,
  evaluated under :meth:`epoch_keys` (all an epoch adds);
* :meth:`refresh_log` — ``refresh_BL``'s apply step: install the MV
  patch and the log clears in one
  :meth:`~repro.storage.partition.PartitionedDatabase.apply_parts` epoch
  (one atomic commit, partitions touched counted);
* :meth:`apply_differentials` — ``refresh_DT``/``partial_refresh_C``'s
  apply step through ``apply_parts``.

Every other apply step (``propagate_C``'s fold, ``refresh_C``'s log
tail) is the scenario's generic plan over the computed bags: once the
compute step has run, nothing is left to prune.

Every epoch records the plan's pruned references on the scenario's
:class:`~repro.algebra.evaluation.CostCounter` (``partition_prunes``;
``partition_fallbacks`` is the install-time RVM701 verdict,
``partitions_touched`` comes from ``apply_parts``) — the pipeline
benchmark and ``tests/test_free_bookkeeping.py`` read those counters.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro import obs
from repro.algebra.bag import Bag
from repro.analysis.partitioning import analyze_deltas, key_positions
from repro.core.differential import post_update_delta

__all__ = ["PROBE_OUTCOMES", "PartitionedMaintenance"]

_FAST_APPLY_API = ("partition_spec", "affected_keys", "restrict", "apply_parts")

#: Every verdict :meth:`PartitionedMaintenance.probe` can reach.
PROBE_OUTCOMES = ("accepted", "no_api", "interpreted", "unspecced", "rvm702", "rvm701", "unkeyed")


class PartitionedMaintenance:
    """Pruned maintenance machinery for one installed view."""

    def __init__(self, db, view, log, specs: Mapping[str, object], plan, mv_position: int, domain: str) -> None:
        self.db = db
        self.view = view
        self.log = log
        self.specs = dict(specs)
        #: The pruned post-update deltas, fixed at install: what every
        #: epoch evaluates under its own keys.
        self.delete_expr, self.insert_expr = plan.deltas
        #: Key-restricted base-table references in the pair.
        self.prunes = plan.prunes
        self.mv_position = mv_position
        self.domain = domain
        self._log_tables = [
            (table, ref.name)
            for table in self.specs
            for ref in (log.delete_ref(table), log.insert_ref(table))
        ]

    # ------------------------------------------------------------------
    # Install-time probe
    # ------------------------------------------------------------------

    @classmethod
    def probe(cls, scenario) -> PartitionedMaintenance | None:
        """Build the fast path for ``scenario``, or ``None`` if ineligible
        (why is left in ``scenario.partition_probe`` and counted)."""
        support, outcome = cls._probe(scenario)
        scenario.partition_probe = outcome
        obs.metric_inc(f'partition_probe{{outcome="{outcome}"}}')
        return support

    @classmethod
    def _probe(cls, scenario) -> tuple[PartitionedMaintenance | None, str]:
        db = scenario.db
        if any(not hasattr(db, name) for name in _FAST_APPLY_API):
            return None, "no_api"
        if db.executor.reference:
            # The interpreted oracle stays on unpartitioned semantics:
            # it is the digest baseline the partitioned engines must
            # reproduce bit-identically.
            return None, "interpreted"
        view = scenario.view
        log = scenario.log
        base = sorted(view.base_tables())
        specs = {table: db.partition_spec(table) for table in base}
        if None in specs.values():
            return None, "unspecced"
        log_map = {}
        for table in base:
            log_map[log.delete_ref(table).name] = table
            log_map[log.insert_ref(table).name] = table
        plan = analyze_deltas(post_update_delta(log, view.query), specs, log_map)
        if plan.mismatched:
            return None, "rvm702"
        if not plan.prunable:
            scenario.counter.record_prune(fallback=True)
            return None, "rvm701"
        keyed = key_positions(view.query, specs)
        if not keyed:
            return None, "unkeyed"
        mv_position = min(keyed)
        support = cls(db, view, log, specs, plan, mv_position, keyed[mv_position])
        support._declare_mv()
        # Compiled once, here: no later epoch rewrites or recompiles it.
        db.prime(support.delete_expr, support.insert_expr, counter=scenario.counter)
        return support, "accepted"

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

    def epoch_keys(self) -> dict[str, frozenset]:
        """This epoch's key binding: per partition domain, the keys the
        log mentions (read off the log bags' key columns in place)."""
        db = self.db
        keys = db.affected_keys((table, db[name]) for table, name in self._log_tables)
        return {domain: frozenset(found) for domain, found in keys.items()}

    # ------------------------------------------------------------------
    # Scenario fast paths
    # ------------------------------------------------------------------

    def epoch_deltas(self, scenario) -> tuple[Bag, Bag]:
        """The compute step: the install-time pruned pair, evaluated under
        this epoch's keys.  Nothing is rewritten per epoch; the plan's
        prunes are accounted."""
        scenario.counter.record_prune(self.prunes)
        run = self.db.batch(counter=scenario.counter, binding=self.epoch_keys())
        return run(self.delete_expr), run(self.insert_expr)

    def refresh_log(self, scenario, delete: Bag, insert: Bag) -> None:
        """``refresh_BL``'s apply, key-pruned: install the MV patch and the
        log clears in one ``apply_parts`` epoch — the effect of
        ``_log_refresh_plan``, with the touched partitions counted."""
        self.db.apply_parts(
            {self.view.mv_table: (delete, insert)},
            clears={name: Bag.empty() for name in self.log.table_names()},
            counter=scenario.counter,
        )

    def apply_differentials(self, scenario, *_bags: Bag) -> None:
        """The ``refresh_DT`` apply through ``apply_parts``.

        Installs the pending ∇MV/ΔMV patch and the differential clears
        in one ``apply_parts`` epoch — same effect as
        ``DiffTableScenario._apply_dt_plan``, with the touched
        partitions counted.
        """
        view = self.view
        empty = Bag.empty()
        self.db.apply_parts(
            {view.mv_table: (self.db[view.dt_delete_table], self.db[view.dt_insert_table])},
            clears={view.dt_delete_table: empty, view.dt_insert_table: empty},
            counter=scenario.counter,
        )
