"""Shared fixtures: small deterministic projects used across the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.warehouse.workload import ProjectProfile, ProjectWorkload, generate_project


@pytest.fixture(scope="session")
def small_profile() -> ProjectProfile:
    return ProjectProfile(
        name="testproj",
        seed=42,
        n_tables=10,
        avg_columns_per_table=8.0,
        n_templates=8,
        queries_per_day=20.0,
        stats_availability=0.3,
        temp_table_ratio=0.2,
        max_join_tables=4,
        row_scale=2e5,
        n_machines=40,
    )


@pytest.fixture(scope="session")
def small_project(small_profile: ProjectProfile) -> ProjectWorkload:
    return generate_project(small_profile)


@pytest.fixture(scope="session")
def project_with_history(small_profile: ProjectProfile) -> ProjectWorkload:
    """A project with 4 simulated days of history (session-scoped: read-only)."""
    workload = generate_project(replace(small_profile, name="histproj"))
    workload.simulate_history(4, max_queries_per_day=25)
    return workload


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(123)
