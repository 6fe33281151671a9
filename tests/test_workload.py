"""Tests for repro.warehouse.workload and repository."""

from __future__ import annotations

import numpy as np
import pytest

from repro.warehouse.workload import generate_project, profile_population


class TestGeneration:
    def test_deterministic(self, small_profile):
        a = generate_project(small_profile)
        b = generate_project(small_profile)
        assert [t.name for t in a.catalog.tables] == [t.name for t in b.catalog.tables]
        assert a.catalog.tables[0].n_rows == b.catalog.tables[0].n_rows
        qa = a.sample_query(0)
        qb = b.sample_query(0)
        assert qa.signature() == qb.signature()

    def test_table_count_matches_profile(self, small_project, small_profile):
        assert small_project.catalog.n_tables == small_profile.n_tables

    def test_temp_tables_have_finite_lifespan(self, small_project):
        temp = [t for t in small_project.catalog.tables if t.name.startswith("tmp")]
        assert temp, "profile requested temp tables"
        assert all(t.dropped_day is not None for t in temp)

    def test_every_table_has_key_columns(self, small_project):
        for table in small_project.catalog.tables:
            names = {c.name for c in table.columns}
            assert "pk" in names
            assert any(n.startswith("key") for n in names)

    def test_templates_reference_existing_tables(self, small_project):
        for template in small_project.templates:
            for table in template.tables:
                assert table in small_project.catalog

    def test_permanent_template_exists(self, small_project):
        permanent = [
            t
            for t in small_project.templates
            if all(small_project.catalog.table(x).dropped_day is None for x in t.tables)
        ]
        assert permanent

    def test_sampled_queries_optimizable(self, small_project):
        for day in (0, 1):
            query = small_project.sample_query(day)
            plan = small_project.optimizer.optimize(query)
            assert plan.n_nodes >= 1


class TestHistorySimulation:
    def test_history_populates_repository(self, project_with_history):
        assert len(project_with_history.repository) > 0
        days = {r.day for r in project_with_history.repository.records}
        assert days == {0, 1, 2, 3}

    def test_history_records_are_defaults(self, project_with_history):
        assert all(r.is_default for r in project_with_history.repository.records)

    def test_costs_positive_and_varied(self, project_with_history):
        costs = [r.cpu_cost for r in project_with_history.repository.records]
        assert all(c > 0 for c in costs)
        assert len(set(costs)) > 1

    def test_deduplication_drops_repeats(self, project_with_history):
        repo = project_with_history.repository
        records = repo.records
        duplicated = records + records[:5]
        assert len(repo.deduplicated(duplicated)) == len(repo.deduplicated(records))

    def test_wrong_project_log_rejected(self, project_with_history, small_project, rng):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        record = small_project.executor.execute(plan, rng=rng)
        with pytest.raises(ValueError):
            project_with_history.repository.log(record)


class TestProfilePopulation:
    def test_population_size_and_names(self):
        profiles = profile_population(10, seed=1)
        assert len(profiles) == 10
        assert len({p.name for p in profiles}) == 10

    def test_population_heterogeneous(self):
        profiles = profile_population(20, seed=2)
        assert len({p.n_tables for p in profiles}) > 3
        availabilities = [p.stats_availability for p in profiles]
        assert max(availabilities) - min(availabilities) > 0.2

    def test_population_deterministic(self):
        a = profile_population(5, seed=3)
        b = profile_population(5, seed=3)
        assert a == b
