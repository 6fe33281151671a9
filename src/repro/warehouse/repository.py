"""The historical query repository.

Upon query completion MaxCompute logs the SQL statement, physical plan,
execution environment, end-to-end cost, and latency into a per-project
repository (Section 2.1, phase 4).  This richer-than-traditional logging is
the data foundation LOAM trains on.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.warehouse.executor import ExecutionRecord

__all__ = ["QueryRepository"]


class QueryRepository:
    """Append-only store of execution records for one project."""

    def __init__(self, project: str) -> None:
        self.project = project
        self._records: list[ExecutionRecord] = []

    def log(self, record: ExecutionRecord) -> None:
        if record.project != self.project:
            raise ValueError(
                f"record for project {record.project!r} logged to repository "
                f"of {self.project!r}"
            )
        self._records.append(record)

    def extend(self, records: Iterable[ExecutionRecord]) -> None:
        for record in records:
            self.log(record)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[ExecutionRecord]:
        return list(self._records)

    def records_between(self, first_day: int, last_day: int) -> list[ExecutionRecord]:
        """Records with ``first_day <= day <= last_day``."""
        return [r for r in self._records if first_day <= r.day <= last_day]

    def default_plan_records(
        self, first_day: int | None = None, last_day: int | None = None
    ) -> list[ExecutionRecord]:
        out = []
        for record in self._records:
            if not record.is_default:
                continue
            if first_day is not None and record.day < first_day:
                continue
            if last_day is not None and record.day > last_day:
                continue
            out.append(record)
        return out

    def deduplicated(self, records: list[ExecutionRecord] | None = None) -> list[ExecutionRecord]:
        """Drop repeated executions of an identical query (the paper trains
        on deduplicated queries over 30 consecutive days, Section 7.1)."""
        records = self._records if records is None else records
        seen: set[tuple] = set()
        out = []
        for record in records:
            key = record.plan.query.signature()
            if key in seen:
                continue
            seen.add(key)
            out.append(record)
        return out

    def queries_per_day(self) -> dict[int, int]:
        return dict(Counter(r.day for r in self._records))
