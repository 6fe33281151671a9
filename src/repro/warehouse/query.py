"""Query model: logical queries and parameterized templates.

Production MaxCompute workloads are pervasively driven by parameterized,
template-based queries whose parameters vary across runs (Section 4 of the
paper).  A :class:`QueryTemplate` fixes the join structure, the predicated
columns, and the aggregation; :meth:`QueryTemplate.instantiate` draws fresh
predicate parameters and partition fractions, producing a :class:`Query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Predicate", "JoinSpec", "AggregateSpec", "Query", "QueryTemplate"]

JOIN_FORMS = ("inner", "left", "right", "full")
AGG_FUNCS = ("sum", "count", "avg", "min", "max")
PREDICATE_OPS = ("=", "!=", "<", ">", "between", "like")


@dataclass(frozen=True)
class Predicate:
    """A filter ``table.column <op> value``.

    ``value`` is the parameter expressed as a *rank fraction* in [0, 1]: for
    an equality predicate it selects the value at that frequency-rank
    quantile; for a range predicate it is the covered fraction of the rank
    domain.  This keeps parameters comparable across columns with different
    domains while still exercising the full selectivity range.
    """

    table: str
    column: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in PREDICATE_OPS:
            raise ValueError(f"unknown predicate op {self.op!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"predicate value must be in [0, 1], got {self.value}")

    @property
    def qualified_column(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class JoinSpec:
    """An equi-join ``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str
    form: str = "inner"

    def __post_init__(self) -> None:
        if self.form not in JOIN_FORMS:
            raise ValueError(f"unknown join form {self.form!r}")
        if self.left_table == self.right_table:
            raise ValueError("self-joins are expressed via table aliases, not JoinSpec")

    def touches(self, table: str) -> bool:
        return table in (self.left_table, self.right_table)

    def column_for(self, table: str) -> str:
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise KeyError(f"join {self} does not touch table {table!r}")


@dataclass(frozen=True)
class AggregateSpec:
    """A final aggregation ``func(agg_column) GROUP BY group_by``."""

    func: str
    table: str
    agg_column: str
    group_by: tuple[str, ...] = ()  # qualified column names

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise ValueError(f"unknown aggregate function {self.func!r}")


@dataclass(frozen=True)
class Query:
    """A logical query: a connected equi-join graph plus filters and an
    optional aggregation.

    ``partition_fractions`` maps each table to the fraction of its partitions
    the query touches (partition pruning is resolved before optimization in
    MaxCompute).  ``tables`` is in syntactic (FROM-clause) order, which the
    native optimizer falls back to when join reordering is disabled.
    """

    query_id: str
    project: str
    template_id: str
    tables: tuple[str, ...]
    joins: tuple[JoinSpec, ...] = ()
    predicates: tuple[Predicate, ...] = ()
    aggregate: AggregateSpec | None = None
    partition_fractions: dict[str, float] = field(default_factory=dict)
    submit_day: int = 0

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("query must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise ValueError("duplicate tables in query (aliases are unsupported)")
        table_set = set(self.tables)
        for join in self.joins:
            if join.left_table not in table_set or join.right_table not in table_set:
                raise ValueError(f"join {join} references a table outside the query")
        for pred in self.predicates:
            if pred.table not in table_set:
                raise ValueError(f"predicate {pred} references a table outside the query")
        if len(self.tables) > 1 and not self._is_connected():
            raise ValueError("join graph must be connected")

    def _is_connected(self) -> bool:
        adjacency: dict[str, set[str]] = {t: set() for t in self.tables}
        for join in self.joins:
            adjacency[join.left_table].add(join.right_table)
            adjacency[join.right_table].add(join.left_table)
        seen = {self.tables[0]}
        frontier = [self.tables[0]]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(self.tables)

    @property
    def n_tables(self) -> int:
        return len(self.tables)

    def predicates_on(self, table: str) -> tuple[Predicate, ...]:
        return tuple(p for p in self.predicates if p.table == table)

    def joins_between(self, left: frozenset[str], right: frozenset[str]) -> list[JoinSpec]:
        out = []
        for join in self.joins:
            a, b = join.left_table, join.right_table
            if (a in left and b in right) or (a in right and b in left):
                out.append(join)
        return out

    def partition_fraction(self, table: str) -> float:
        return self.partition_fractions.get(table, 1.0)

    def signature(self) -> tuple:
        """A structural+parameter signature used for deduplication."""
        return (
            self.project,
            self.template_id,
            self.tables,
            self.joins,
            tuple(sorted((p.qualified_column, p.op, round(p.value, 4)) for p in self.predicates)),
            tuple(sorted((t, round(f, 4)) for t, f in self.partition_fractions.items())),
        )


@dataclass(frozen=True)
class QueryTemplate:
    """A parameterized query shape.

    Instantiation redraws predicate parameters (rank fractions) and the
    per-table partition fractions; everything structural is fixed.  This is
    the repetition signal LOAM's statistics-free encoding exploits.
    """

    template_id: str
    project: str
    tables: tuple[str, ...]
    joins: tuple[JoinSpec, ...]
    predicate_columns: tuple[tuple[str, str, str], ...]  # (table, column, op)
    aggregate: AggregateSpec | None = None
    partition_fraction_range: tuple[float, float] = (0.05, 1.0)
    weight: float = 1.0

    def instantiate(
        self, query_id: str, rng: np.random.Generator, *, submit_day: int = 0
    ) -> Query:
        predicates = tuple(
            Predicate(table=t, column=c, op=op, value=float(rng.random()))
            for (t, c, op) in self.predicate_columns
        )
        lo, hi = self.partition_fraction_range
        fractions = {
            table: float(rng.uniform(lo, hi)) for table in self.tables
        }
        return Query(
            query_id=query_id,
            project=self.project,
            template_id=self.template_id,
            tables=self.tables,
            joins=self.joins,
            predicates=predicates,
            aggregate=self.aggregate,
            partition_fractions=fractions,
            submit_day=submit_day,
        )
