"""The rule-based project filter (Section 6, Appendix D.1).

Projects that would pose *training challenges* are excluded before any
model is trained, by three rules over a sampled workload Q of historical
queries collected across ``d`` consecutive days:

* **R1** ``n_query(Q) = |Q| / d >= N0`` — enough daily query volume;
* **R2** ``query_inc_ratio(Q) = mean_i |Q_i| / |Q_{i-1}| >= r`` — stable or
  growing submissions, so R1's volume is trustworthy going forward;
* **R3** ``stable_table_ratio(Q) >= theta`` — enough queries touch only
  long-lived tables (lifespan > n days), so distributions learned from
  history still apply to future queries.

Paper thresholds: N0 = 2000, r such that N0 * r^30 >= 10000, n = 30 days,
theta = 0.2.  In the paper's fleet, 59.5 % of projects fail these rules.
Thresholds are configurable because simulated fleets have smaller volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.warehouse.catalog import Catalog
from repro.warehouse.executor import ExecutionRecord

__all__ = ["FilterConfig", "FilterDecision", "ProjectFilter"]


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds for R1–R3.

    The default R2 threshold tolerates noisy-but-stable volumes (0.95):
    applied literally, the paper's compound-growth threshold r ≈ 1.0551
    would reject every project whose daily volume is steady, including ones
    already far above the 10 000-query training target.  The strict paper
    value, the minimum r with ``N0 * r^30 >= 10 000`` (Appendix D.1), suits
    projects that are below the target and must grow into it.
    """

    min_daily_queries: float = 2000.0  # N0 (R1)
    min_growth_ratio: float = 0.95  # r (R2): stable or growing
    stable_lifespan_days: int = 30  # n (R3)
    min_stable_table_ratio: float = 0.2  # theta (R3)

    @staticmethod
    def scaled(volume_scale: float) -> "FilterConfig":
        """Paper thresholds with R1 volume scaled for simulated fleets."""
        return FilterConfig(min_daily_queries=2000.0 * volume_scale)


@dataclass
class FilterDecision:
    """Outcome plus the metric values that produced it."""

    passed: bool
    n_query: float
    query_inc_ratio: float
    stable_table_ratio: float
    failed_rules: list[str] = field(default_factory=list)


class ProjectFilter:
    """Applies R1–R3 to a sampled workload of execution records."""

    def __init__(self, config: FilterConfig | None = None) -> None:
        self.config = config or FilterConfig()

    def evaluate(
        self,
        records: list[ExecutionRecord],
        catalog: Catalog,
        *,
        horizon_day: int | None = None,
    ) -> FilterDecision:
        if not records:
            return FilterDecision(
                passed=False,
                n_query=0.0,
                query_inc_ratio=0.0,
                stable_table_ratio=0.0,
                failed_rules=["R1", "R2", "R3"],
            )
        days = sorted({r.day for r in records})
        horizon = horizon_day if horizon_day is not None else max(days) + 1

        n_query = self.n_query(records)
        inc_ratio = self.query_inc_ratio(records)
        stable_ratio = self.stable_table_ratio(records, catalog, horizon_day=horizon)

        failed = []
        if n_query < self.config.min_daily_queries:
            failed.append("R1")
        if inc_ratio < self.config.min_growth_ratio:
            failed.append("R2")
        if stable_ratio < self.config.min_stable_table_ratio:
            failed.append("R3")
        return FilterDecision(
            passed=not failed,
            n_query=n_query,
            query_inc_ratio=inc_ratio,
            stable_table_ratio=stable_ratio,
            failed_rules=failed,
        )

    # -- metrics (Appendix D.1) -------------------------------------------------

    @staticmethod
    def n_query(records: list[ExecutionRecord]) -> float:
        """Average queries per day over the sampled window."""
        days = {r.day for r in records}
        span = max(days) - min(days) + 1
        return len(records) / span

    @staticmethod
    def query_inc_ratio(records: list[ExecutionRecord]) -> float:
        """Mean day-over-day growth of query counts."""
        counts: dict[int, int] = {}
        for record in records:
            counts[record.day] = counts.get(record.day, 0) + 1
        days = sorted(counts)
        if len(days) < 2:
            return 1.0
        ratios = [
            counts[days[i]] / counts[days[i - 1]]
            for i in range(1, len(days))
            if counts[days[i - 1]] > 0
        ]
        return float(sum(ratios) / len(ratios)) if ratios else 1.0

    def stable_table_ratio(
        self,
        records: list[ExecutionRecord],
        catalog: Catalog,
        *,
        horizon_day: int,
    ) -> float:
        """Fraction of queries whose tables are all long-lived."""
        n = self.config.stable_lifespan_days
        stable = 0
        for record in records:
            tables = record.plan.query.tables
            if all(catalog.table(t).lifespan(horizon_day) > n for t in tables):
                stable += 1
        return stable / len(records)
