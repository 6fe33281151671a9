"""Project and workload generation.

MaxCompute hosts over 100 000 projects with heterogeneous workload patterns
(join topology, query volume) and data properties (table sizes, update
frequency, statistics coverage).  A :class:`ProjectProfile` captures the
axes of that heterogeneity; :func:`generate_project` materializes a catalog,
query templates, cluster, executor, and repository from one.

Heterogeneity matters for the reproduction:

* ``stats_availability`` controls how often the native optimizer plans
  blind, which is the main source of improvement space (challenge C2 →
  benefit for steering);
* ``queries_per_day``/``query_growth`` and ``temp_table_ratio`` drive the
  Filter rules R1–R3 (Appendix D.1);
* ``row_scale`` spreads average CPU cost across orders of magnitude, as in
  Table 1 (10^3 … 10^7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.utils import spawn_rng
from repro.warehouse.catalog import Catalog, Column, Table
from repro.warehouse.cluster import Cluster
from repro.warehouse.executor import ExecutionRecord, Executor
from repro.warehouse.optimizer import NativeOptimizer
from repro.warehouse.query import AggregateSpec, JoinSpec, QueryTemplate
from repro.warehouse.repository import QueryRepository
from repro.warehouse.statistics import StatisticsView

__all__ = ["ProjectProfile", "ProjectWorkload", "generate_project", "profile_population"]


@dataclass(frozen=True)
class ProjectProfile:
    """Generation parameters of one project."""

    name: str
    seed: int = 0
    n_tables: int = 40
    avg_columns_per_table: float = 15.0
    n_templates: int = 30
    queries_per_day: float = 400.0
    query_growth: float = 1.0
    stats_availability: float = 0.2
    temp_table_ratio: float = 0.2
    max_join_tables: int = 5
    row_scale: float = 1e6
    skew_level: float = 0.8
    agg_probability: float = 0.6
    noise_sigma: float = 0.12
    n_machines: int = 160

@dataclass
class ProjectWorkload:
    """Everything needed to run one project: data, optimizer, cluster, logs."""

    profile: ProjectProfile
    catalog: Catalog
    stats: StatisticsView
    templates: list[QueryTemplate]
    cluster: Cluster
    executor: Executor
    optimizer: NativeOptimizer
    repository: QueryRepository
    rng: np.random.Generator
    _query_counter: int = 0
    _template_weights: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self) -> None:
        weights = np.array([t.weight for t in self.templates], dtype=float)
        self._template_weights = weights / weights.sum()

    # -- query generation ----------------------------------------------------

    def next_query_id(self) -> str:
        self._query_counter += 1
        return f"{self.profile.name}-q{self._query_counter:06d}"

    def live_templates(self, day: int) -> tuple[list[QueryTemplate], np.ndarray]:
        live, weights = [], []
        for template, weight in zip(self.templates, self._template_weights):
            if all(self.catalog.table(t).is_live(day) for t in template.tables):
                live.append(template)
                weights.append(weight)
        if not live:
            # Fall back to templates over permanent tables only.
            raise RuntimeError(f"no live templates on day {day} for {self.profile.name}")
        w = np.array(weights)
        return live, w / w.sum()

    def sample_query(self, day: int):
        live, weights = self.live_templates(day)
        template = live[int(self.rng.choice(len(live), p=weights))]
        return template.instantiate(self.next_query_id(), self.rng, submit_day=day)

    def queries_on_day(self, day: int) -> int:
        volume = self.profile.queries_per_day * self.profile.query_growth**day
        return max(1, int(self.rng.poisson(volume)))

    # -- history simulation ----------------------------------------------------

    def simulate_history(
        self,
        n_days: int,
        *,
        start_day: int = 0,
        max_queries_per_day: int | None = None,
        progress: bool = False,
    ) -> None:
        """Run the project for ``n_days`` starting at ``start_day``, logging
        default-plan executions.  A nonzero ``start_day`` matters for
        projects with temporal tables, which only become live mid-horizon."""
        for day in range(start_day, start_day + n_days):
            n_queries = self.queries_on_day(day)
            if max_queries_per_day is not None:
                n_queries = min(n_queries, max_queries_per_day)
            for _ in range(n_queries):
                query = self.sample_query(day)
                plan = self.optimizer.optimize(query)
                record = self.executor.execute(
                    plan, rng=self.rng, day=day, noise_sigma=self.profile.noise_sigma
                )
                self.repository.log(record)
            if progress:
                print(f"[{self.profile.name}] day {day}: {n_queries} queries")

    def flighting(self, *, seed_key: object = "flighting"):
        """A fresh flighting environment for this project's catalog."""
        from repro.warehouse.flighting import FlightingEnvironment

        return FlightingEnvironment(
            self.catalog,
            n_machines=self.profile.n_machines,
            rng=spawn_rng(self.rng, seed_key),
            noise_sigma=self.profile.noise_sigma,
        )


# -- generation ---------------------------------------------------------------


def _make_table(
    name: str,
    rng: np.random.Generator,
    profile: ProjectProfile,
    *,
    created_day: int = 0,
    dropped_day: int | None = None,
) -> Table:
    n_rows = max(100, int(rng.lognormal(math.log(profile.row_scale), 1.0)))
    n_partitions = max(1, int(rng.lognormal(math.log(16), 1.0)))
    n_columns = max(4, int(rng.normal(profile.avg_columns_per_table, 4.0)))
    columns: list[Column] = []
    # A primary-key-like column: nearly unique.
    columns.append(Column("pk", name, ndv=max(2, int(n_rows * 0.9)), skew=0.0))
    # Foreign-key-ish join columns with moderate NDV and some skew.
    n_keys = min(4, max(2, n_columns // 5))
    for i in range(n_keys):
        ndv = max(2, int(n_rows ** rng.uniform(0.5, 0.85)))
        skew = float(rng.uniform(0.0, profile.skew_level))
        columns.append(Column(f"key{i}", name, ndv=ndv, skew=skew))
    # Attribute columns: wide NDV range, often skewed.
    for i in range(n_columns - 1 - n_keys):
        ndv = max(2, int(rng.lognormal(math.log(1000), 2.0)))
        skew = float(rng.uniform(0.0, 1.5 * profile.skew_level))
        columns.append(Column(f"attr{i}", name, ndv=ndv, skew=skew))
    return Table(
        name=name,
        n_rows=n_rows,
        n_partitions=n_partitions,
        columns=columns,
        created_day=created_day,
        dropped_day=dropped_day,
    )


def _key_columns(table: Table) -> list[Column]:
    return [c for c in table.columns if c.name == "pk" or c.name.startswith("key")]


def _attr_columns(table: Table) -> list[Column]:
    return [c for c in table.columns if c.name.startswith("attr")]


def _make_template(
    template_id: str,
    catalog: Catalog,
    candidate_tables: list[Table],
    rng: np.random.Generator,
    profile: ProjectProfile,
) -> QueryTemplate:
    n_join = int(rng.integers(1, profile.max_join_tables + 1))
    n_join = min(n_join, len(candidate_tables))
    idx = rng.choice(len(candidate_tables), size=n_join, replace=False)
    tables = [candidate_tables[int(i)] for i in idx]

    joins: list[JoinSpec] = []
    for i in range(1, len(tables)):
        # Chain or star topology, biased toward chains.
        anchor = tables[i - 1] if rng.random() < 0.7 else tables[int(rng.integers(0, i))]
        other = tables[i]
        if rng.random() < 0.75:
            # Foreign-key style join: the smaller side joins on its primary
            # key, bounding the output near the larger side's size (the
            # dominant join pattern in star/snowflake warehouse schemas).
            fact, dim = (anchor, other) if anchor.n_rows >= other.n_rows else (other, anchor)
            fact_keys = _key_columns(fact)
            left_key = fact_keys[int(rng.integers(0, len(fact_keys)))]
            joins.append(
                JoinSpec(
                    left_table=fact.name,
                    left_column=left_key.name,
                    right_table=dim.name,
                    right_column="pk",
                    form="inner" if rng.random() < 0.85 else str(rng.choice(["left", "right"])),
                )
            )
            continue
        # Occasional key-key join: output governed by key NDVs, can blow up.
        left_key = _key_columns(anchor)[int(rng.integers(0, len(_key_columns(anchor))))]
        right_key = _key_columns(other)[int(rng.integers(0, len(_key_columns(other))))]
        form = "inner" if rng.random() < 0.85 else str(rng.choice(["left", "right"]))
        joins.append(
            JoinSpec(
                left_table=anchor.name,
                left_column=left_key.name,
                right_table=other.name,
                right_column=right_key.name,
                form=form,
            )
        )

    predicate_columns: list[tuple[str, str, str]] = []
    n_predicates = int(rng.integers(0, 4))
    for _ in range(n_predicates):
        table = tables[int(rng.integers(0, len(tables)))]
        attrs = _attr_columns(table)
        if not attrs:
            continue
        column = attrs[int(rng.integers(0, len(attrs)))]
        op = str(rng.choice(["=", "=", "<", ">", "between", "like"]))
        predicate_columns.append((table.name, column.name, op))

    aggregate = None
    if rng.random() < profile.agg_probability:
        table = tables[int(rng.integers(0, len(tables)))]
        attrs = _attr_columns(table)
        agg_col = attrs[int(rng.integers(0, len(attrs)))].name if attrs else "pk"
        func = str(rng.choice(["sum", "count", "avg", "min", "max"]))
        group_by: tuple[str, ...] = ()
        if rng.random() < 0.75:
            if joins and rng.random() < 0.5:
                # Group by a join key: the shuffle-removal opportunity.
                spec = joins[int(rng.integers(0, len(joins)))]
                group_by = (f"{spec.left_table}.{spec.left_column}",)
            else:
                gb_table = tables[int(rng.integers(0, len(tables)))]
                keys = _key_columns(gb_table)
                gb_col = keys[int(rng.integers(0, len(keys)))]
                group_by = (f"{gb_table.name}.{gb_col.name}",)
        aggregate = AggregateSpec(
            func=func, table=table.name, agg_column=agg_col, group_by=group_by
        )

    weight = float(rng.lognormal(0.0, 1.0))
    return QueryTemplate(
        template_id=template_id,
        project=catalog.project,
        tables=tuple(t.name for t in tables),
        joins=tuple(joins),
        predicate_columns=tuple(predicate_columns),
        aggregate=aggregate,
        partition_fraction_range=(0.05, 1.0),
        weight=weight,
    )


def generate_project(
    profile: ProjectProfile, *, horizon_days: int = 40
) -> ProjectWorkload:
    """Materialize a full project from a profile, deterministically."""
    rng = np.random.default_rng(profile.seed)
    table_rng = spawn_rng(rng, "tables", profile.name)
    template_rng = spawn_rng(rng, "templates", profile.name)

    catalog = Catalog(profile.name)
    n_permanent = max(2, int(round(profile.n_tables * (1.0 - profile.temp_table_ratio))))
    permanent: list[Table] = []
    for i in range(n_permanent):
        table = _make_table(f"t{i}", table_rng, profile)
        catalog.add_table(table)
        permanent.append(table)
    temp_tables: list[Table] = []
    for i in range(profile.n_tables - n_permanent):
        created = int(table_rng.integers(0, max(1, horizon_days - 3)))
        lifespan = int(table_rng.integers(2, 15))
        table = _make_table(
            f"tmp{i}",
            table_rng,
            profile,
            created_day=created,
            dropped_day=created + lifespan,
        )
        catalog.add_table(table)
        temp_tables.append(table)

    templates: list[QueryTemplate] = []
    # At least one template must stay over permanent tables so every day has
    # live templates to sample from.
    n_temp_templates = min(
        profile.n_templates - 1, int(round(profile.n_templates * profile.temp_table_ratio))
    )
    for i in range(profile.n_templates):
        if i < n_temp_templates and temp_tables:
            # Templates over a temp table (plus permanent ones).
            temp = temp_tables[int(template_rng.integers(0, len(temp_tables)))]
            pool = [temp] + permanent
        else:
            pool = permanent
        templates.append(
            _make_template(f"{profile.name}-tpl{i:03d}", catalog, pool, template_rng, profile)
        )

    stats = StatisticsView(
        catalog,
        availability=profile.stats_availability,
        staleness=0.15,
        rng=spawn_rng(rng, "stats-view"),
    )
    cluster = Cluster(profile.n_machines, rng=spawn_rng(rng, "prod-cluster"))
    executor = Executor(catalog, cluster)
    optimizer = NativeOptimizer(catalog, stats)
    repository = QueryRepository(profile.name)

    return ProjectWorkload(
        profile=profile,
        catalog=catalog,
        stats=stats,
        templates=templates,
        cluster=cluster,
        executor=executor,
        optimizer=optimizer,
        repository=repository,
        rng=spawn_rng(rng, "workload"),
    )


def profile_population(
    n_projects: int, *, seed: int = 7, name_prefix: str = "proj"
) -> list[ProjectProfile]:
    """A heterogeneous population of project profiles, for fleet studies
    (project selection, Section 7.3)."""
    rng = np.random.default_rng(seed)
    profiles = []
    for i in range(n_projects):
        profiles.append(
            ProjectProfile(
                name=f"{name_prefix}{i:04d}",
                seed=int(rng.integers(0, 2**31 - 1)),
                n_tables=int(rng.integers(8, 80)),
                avg_columns_per_table=float(rng.uniform(8, 30)),
                n_templates=int(rng.integers(6, 50)),
                queries_per_day=float(rng.lognormal(math.log(60), 1.5)),
                query_growth=float(rng.uniform(0.9, 1.1)),
                stats_availability=float(rng.beta(1.5, 3.0)),
                temp_table_ratio=float(rng.beta(2.0, 4.0)),
                max_join_tables=int(rng.integers(2, 7)),
                row_scale=float(rng.lognormal(math.log(3e5), 1.8)),
                skew_level=float(rng.uniform(0.2, 1.3)),
                agg_probability=float(rng.uniform(0.3, 0.9)),
                noise_sigma=float(rng.uniform(0.06, 0.25)),
            )
        )
    return profiles
