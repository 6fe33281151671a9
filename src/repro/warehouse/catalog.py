"""Catalog: projects, partitioned tables, and columns with known distributions.

The catalog is the ground truth of the simulated warehouse.  Column value
distributions are Zipf-like over integer domains, which lets the simulator
compute *true* selectivities and join cardinalities analytically.  The native
optimizer never sees this ground truth directly: it goes through a
:class:`repro.warehouse.statistics.StatisticsView`, which may report missing
or stale statistics (challenge C2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils import zipf_cdf, zipf_pmf

__all__ = ["Column", "Table", "Catalog"]


@dataclass(frozen=True)
class Column:
    """A column with a Zipf(s) distribution over ``ndv`` distinct values.

    Values are identified by frequency rank (1 = most frequent).  ``skew`` is
    the Zipf exponent; 0 means uniform.
    """

    name: str
    table: str
    ndv: int
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.ndv < 1:
            raise ValueError(f"column {self.name}: ndv must be >= 1, got {self.ndv}")
        if self.skew < 0:
            raise ValueError(f"column {self.name}: skew must be >= 0, got {self.skew}")

    def selectivity_eq(self, rank: int) -> float:
        """True selectivity of ``col = value`` where value has frequency rank."""
        return zipf_pmf(rank, self.ndv, self.skew)

    def selectivity_range(self, fraction: float) -> float:
        """True selectivity of a range predicate covering the top ``fraction``
        of the rank domain (e.g. ``col < v`` for a value at that quantile)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        rank = max(0, int(round(fraction * self.ndv)))
        return zipf_cdf(rank, self.ndv, self.skew)


@dataclass
class Table:
    """A logically partitioned table.

    ``created_day``/``dropped_day`` model table lifespan: MaxCompute projects
    create and drop temporal tables frequently, which matters for the
    project-selection rule R3 (stable_table_ratio).
    """

    name: str
    n_rows: int
    n_partitions: int
    columns: list[Column] = field(default_factory=list)
    created_day: int = 0
    dropped_day: int | None = None

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise ValueError(f"table {self.name}: n_rows must be >= 1")
        if self.n_partitions < 1:
            raise ValueError(f"table {self.name}: n_partitions must be >= 1")

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"table {self.name} has no column {name!r}")

    def lifespan(self, horizon_day: int) -> int:
        """Lifespan in days as of ``horizon_day`` (Appendix D.1, LifeSpan(t))."""
        end = self.dropped_day if self.dropped_day is not None else horizon_day
        return max(0, end - self.created_day)

    def is_live(self, day: int) -> bool:
        if day < self.created_day:
            return False
        return self.dropped_day is None or day < self.dropped_day


class Catalog:
    """All tables of one project, addressable by name."""

    def __init__(self, project: str, tables: list[Table] | None = None) -> None:
        self.project = project
        self._tables: dict[str, Table] = {}
        for table in tables or []:
            self.add_table(table)

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise ValueError(f"duplicate table {table.name!r} in project {self.project}")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"project {self.project} has no table {name!r}") from None

    def column(self, qualified_name: str) -> Column:
        table_name, _, col_name = qualified_name.partition(".")
        return self.table(table_name).column(col_name)

    @property
    def tables(self) -> list[Table]:
        return list(self._tables.values())

    @property
    def n_tables(self) -> int:
        return len(self._tables)

    @property
    def n_columns(self) -> int:
        return sum(t.n_columns for t in self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __repr__(self) -> str:
        return (
            f"Catalog(project={self.project!r}, n_tables={self.n_tables}, "
            f"n_columns={self.n_columns})"
        )
