"""Seeded input generator for the pipeline benchmark.

Emits base-table rows and SQL *text* for the paper's Example 1.1 retail
schema.  It imports nothing from the program under test: the program
only ever receives what this module generated, so later edits to
``repro.workloads`` cannot move the benchmark's numbers.

Determinism: one :class:`Inputs` is a pure function of ``(shape,
seed_text)``.  The mix of script kinds is *stratified per round*: a
shape states how many ``DELETE`` and re-score scripts a round carries
(fractions are spread evenly, e.g. 0.5 = every other round) and only
their position inside the round is drawn from the seed.  Maintenance
cost is bimodal in "did this round re-score a customer", and script
latency is clustered by kind, so a percentile must not sit on the edge
between two clusters and move with the luck of the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

CUSTOMER_COLUMNS = ("custId", "name", "address", "score")
SALES_COLUMNS = ("custId", "itemNo", "quantity", "salesPrice")
SCORES = ("High", "Medium", "Low")

#: Example 1.1's view: sales to highly-valued customers.
RETAIL_VIEW_SQL = (
    "SELECT c.custId, c.name, c.score, s.itemNo, s.quantity "
    "FROM customer c, sales s "
    "WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'"
)

#: The four E18 templates the multi-view workload cycles through; every
#: one carries ``custId`` so a keyed read works against any of them.
GROUP_VIEW_TEMPLATES = (
    RETAIL_VIEW_SQL,
    "SELECT c.custId, c.name, s.itemNo FROM customer c, sales s "
    "WHERE c.custId = s.custId AND c.score = 'High'",
    "SELECT custId, itemNo, quantity FROM sales WHERE quantity != 0",
    "SELECT custId, name FROM customer WHERE score = 'High'",
)


@dataclass(frozen=True)
class Shape:
    """Sizes and op counts of one pass of one workload (all fixed counts)."""

    customers: int
    sales: int
    items: int
    high: int
    rounds: int
    scripts_per_round: int
    rows_per_script: int
    deletes_per_round: float
    rescores_per_round: float
    reads_per_round: int

    def shortened(self, length: float) -> Shape:
        """The same shape with ``length`` of the rounds (at least four).

        Below a tenth of the length — the self-check, which exercises
        the plumbing and not the scale — the bulk load is capped as well,
        so that the output checks over a 100 000-row base do not take
        longer than everything they check.
        """
        sales = min(self.sales, 20_000) if length < 0.1 else self.sales
        return replace(self, rounds=max(4, round(self.rounds * length)), sales=sales)


@dataclass(frozen=True)
class Round:
    """The writes of one maintenance interval and the reads after it."""

    scripts: tuple[str, ...]
    reads: tuple[str, ...]


class Inputs:
    """Base tables and the op stream of one pass."""

    def __init__(self, shape: Shape, seed_text: str) -> None:
        self.shape = shape
        rng = self._rng = random.Random(seed_text)
        self.customers = [
            (
                cust_id,
                f"customer-{cust_id}",
                f"{cust_id} Main St",
                "High" if cust_id < shape.high else rng.choice(SCORES[1:]),
            )
            for cust_id in range(shape.customers)
        ]
        self.sales = [self._sale() for _ in range(shape.sales)]
        self._scores = {row[0]: row[3] for row in self.customers}
        #: (custId, itemNo) pairs believed live, for DELETE victims.
        self._pairs = [(row[0], row[1]) for row in self.sales]

    def _sale(self) -> tuple:
        rng = self._rng
        shape = self.shape
        quantity = 0 if rng.random() < 0.05 else rng.randint(1, 5)
        return (
            rng.randrange(shape.customers),
            rng.randrange(shape.items),
            quantity,
            round(rng.uniform(1.0, 100.0), 2),
        )

    def _script(self, kind: str) -> str:
        rng = self._rng
        rows = [self._sale() for _ in range(self.shape.rows_per_script)]
        self._pairs.extend((row[0], row[1]) for row in rows)
        values = ", ".join(f"({c}, {i}, {q}, {p})" for c, i, q, p in rows)
        script = f"INSERT INTO sales (custId, itemNo, quantity, salesPrice) VALUES {values}"
        if kind == "delete":
            cust_id, item = self._pairs.pop(rng.randrange(len(self._pairs)))
            script += f"; DELETE FROM sales WHERE custId = {cust_id} AND itemNo = {item}"
        elif kind == "rescore":
            cust_id = rng.randrange(self.shape.customers)
            score = rng.choice([s for s in SCORES if s != self._scores[cust_id]])
            self._scores[cust_id] = score
            script += f"; UPDATE customer SET score = '{score}' WHERE custId = {cust_id}"
        return script

    def rounds(self, read_sql: dict[str, str]) -> list[Round]:
        """The pass's op stream.

        ``read_sql`` maps each view name to its query text with a
        ``{key}`` placeholder (the harness has already filled in the
        view's table name).  Reads cycle over the views and are keyed on
        a customer the generator's own model holds as ``High`` at that
        point of the stream, so they select rows rather than nothing.
        """
        rng = self._rng
        shape = self.shape
        names = sorted(read_sql)
        out: list[Round] = []
        for index in range(shape.rounds):
            kinds = []
            for kind, rate in (("delete", shape.deletes_per_round), ("rescore", shape.rescores_per_round)):
                kinds += [kind] * (int((index + 1) * rate) - int(index * rate))
            kinds += ["insert"] * (shape.scripts_per_round - len(kinds))
            rng.shuffle(kinds)
            scripts = tuple(self._script(kind) for kind in kinds)
            high = [c for c, score in self._scores.items() if score == "High"]
            high = high or list(self._scores)
            reads = []
            for number in range(shape.reads_per_round):
                view = names[(index * shape.reads_per_round + number) % len(names)]
                reads.append(read_sql[view].format(key=rng.choice(high)))
            out.append(Round(scripts, tuple(reads)))
        return out
