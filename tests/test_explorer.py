"""Tests for the steering plan explorer."""

from __future__ import annotations

import pytest

from repro.core.explorer import PlanExplorer


class TestExplorer:
    def test_default_always_included(self, small_project):
        explorer = PlanExplorer(small_project.optimizer)
        query = small_project.sample_query(0)
        result = explorer.explore(query)
        assert [p.is_default for p in result.plans].count(True) == 1

    def test_candidates_deduplicated(self, small_project):
        explorer = PlanExplorer(small_project.optimizer)
        query = small_project.sample_query(0)
        plans = explorer.candidates(query)
        signatures = [p.structural_signature() for p in plans]
        assert len(signatures) == len(set(signatures))

    def test_top_k_respected(self, small_project):
        explorer = PlanExplorer(small_project.optimizer)
        for i in range(5):
            query = small_project.sample_query(0)
            plans = explorer.candidates(query, top_k=3)
            assert len(plans) <= 3
            assert any(p.is_default for p in plans)

    def test_produces_diverse_candidates(self, small_project):
        explorer = PlanExplorer(small_project.optimizer)
        found_multiple = False
        for _ in range(10):
            query = small_project.sample_query(0)
            if len(explorer.candidates(query)) > 1:
                found_multiple = True
                break
        assert found_multiple

    def test_provenance_labels(self, small_project):
        explorer = PlanExplorer(small_project.optimizer)
        query = small_project.sample_query(0)
        plans = explorer.candidates(query)
        for plan in plans:
            assert (
                plan.provenance == "default"
                or plan.provenance.startswith("flag:")
                or plan.provenance.startswith("cardscale:")
            )

    def test_generation_time_recorded(self, small_project):
        explorer = PlanExplorer(small_project.optimizer)
        query = small_project.sample_query(0)
        result = explorer.explore(query)
        assert result.generation_seconds > 0

    def test_scaling_skipped_below_min_tables(self, small_project):
        explorer = PlanExplorer(small_project.optimizer, min_tables_for_scaling=99)
        query = small_project.sample_query(0)
        plans = explorer.candidates(query)
        assert not any(p.provenance.startswith("cardscale") for p in plans)

    def test_unknown_flag_rejected(self, small_project):
        with pytest.raises(ValueError):
            PlanExplorer(small_project.optimizer, flags=("bogus",))

    def test_candidates_answer_same_query(self, small_project):
        explorer = PlanExplorer(small_project.optimizer)
        query = small_project.sample_query(0)
        for plan in explorer.candidates(query):
            assert plan.query is query
            scans = sorted(
                n.table for n in plan.iter_nodes() if n.op_type == "TableScan"
            )
            assert scans == sorted(query.tables)
