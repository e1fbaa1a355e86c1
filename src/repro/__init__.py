"""repro — a full reproduction of *Algorithms for Deferred View Maintenance*
(Colby, Griffin, Libkin, Mumick, Trickey; SIGMOD 1996).

The package layers, bottom-up:

* :mod:`repro.algebra` — the bag algebra :math:`\\mathcal{BA}` (values,
  expressions, predicates, evaluation);
* :mod:`repro.storage` — database states, transaction execution, lock
  ledger (view-downtime accounting), SQLite cross-check backend;
* :mod:`repro.core` — the paper's contribution: differential algorithms
  (Figure 2), the four invariants (Figure 1), the deferred-maintenance
  algorithms (Figure 3), and refresh policies (Section 5.3);
* :mod:`repro.sqlfront` — a small SQL front end (Example 1.1's dialect);
* :mod:`repro.warehouse` — the user-facing :class:`ViewManager` API;
* :mod:`repro.workloads` — synthetic workload generators;
* :mod:`repro.baselines` — comparison algorithms (full recompute, the
  state-bug victim, Hanson-style suspended updates);
* :mod:`repro.bench` — the report table the experiments in
  ``benchmarks/`` write; performance is measured by
  ``python3 bench/pipeline/run.py``.

Quickstart::

    from repro import Database, ViewManager

    db = Database()
    manager = ViewManager(db)
    manager.create_table("sales", ["custId", "itemNo", "quantity", "salesPrice"])
    manager.create_table("customer", ["custId", "name", "address", "score"])
    manager.define_view(
        "V",
        '''SELECT c.custId, c.name, c.score, s.itemNo, s.quantity
           FROM customer c, sales s
           WHERE c.custId = s.custId AND s.quantity != 0
             AND c.score = 'High' ''',
        scenario="combined",
    )
    manager.transaction().insert("sales", [(1, 77, 2, 9.99)]).run()
    manager.refresh("V")
    print(manager.query("V"))
"""

from repro.algebra import Bag, CostCounter, Schema, evaluate
from repro.core import (
    BaseLogScenario,
    CombinedScenario,
    DiffTableScenario,
    ImmediateScenario,
    Log,
    MaintenanceDriver,
    OnDemandPolicy,
    OnQueryPolicy,
    PeriodicRefresh,
    Policy1,
    Policy2,
    UserTransaction,
    ViewDefinition,
)
from repro.errors import (
    InvariantViolation,
    ParseError,
    PolicyError,
    ReproError,
    SchemaError,
    TransactionError,
    UnknownTableError,
)
from repro.storage import Database, LockLedger

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Bag",
    "Schema",
    "evaluate",
    "CostCounter",
    "Database",
    "LockLedger",
    "ViewDefinition",
    "UserTransaction",
    "Log",
    "ImmediateScenario",
    "BaseLogScenario",
    "DiffTableScenario",
    "CombinedScenario",
    "Policy1",
    "Policy2",
    "PeriodicRefresh",
    "OnDemandPolicy",
    "OnQueryPolicy",
    "MaintenanceDriver",
    "ReproError",
    "SchemaError",
    "UnknownTableError",
    "ParseError",
    "TransactionError",
    "InvariantViolation",
    "PolicyError",
    "ViewManager",
]

from repro.warehouse import ViewManager  # noqa: E402  (depends on the above)
