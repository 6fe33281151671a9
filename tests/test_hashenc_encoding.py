"""Tests for the multi-segment hash encoder and plan vectorization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoding import PlanEncoder
from repro.core.hashenc import MultiSegmentHashEncoder
from repro.warehouse.flags import OptimizerFlags


class TestMultiSegmentHashEncoder:
    def test_dimension(self):
        encoder = MultiSegmentHashEncoder(5, 10)
        assert encoder.dim == 50

    def test_one_hot_per_segment(self):
        encoder = MultiSegmentHashEncoder(5, 10)
        vec = encoder.encode("table_x")
        assert vec.sum() == 5
        for s in range(5):
            assert vec[s * 10 : (s + 1) * 10].sum() == 1

    def test_deterministic(self):
        encoder = MultiSegmentHashEncoder()
        assert np.array_equal(encoder.encode("t"), encoder.encode("t"))

    def test_distinct_identifiers_rarely_collide(self):
        encoder = MultiSegmentHashEncoder(5, 10)
        encodings = {tuple(encoder.encode(f"table_{i}")) for i in range(300)}
        # Full-vector collisions are rare (p = 1e-5 per pair; ~0.45 expected
        # among 300 identifiers) — allow at most a couple.
        assert len(encodings) >= 298

    def test_single_segment_collides_more(self):
        """The motivation for multiple segments (Appendix B.1): one 10-dim
        segment can distinguish at most 10 identifiers."""
        single = MultiSegmentHashEncoder(1, 10)
        encodings = {tuple(single.encode(f"t{i}")) for i in range(100)}
        assert len(encodings) <= 10

    def test_union_encoding(self):
        encoder = MultiSegmentHashEncoder(3, 8)
        union = encoder.encode_many(["a", "b"])
        assert np.array_equal(union, np.maximum(encoder.encode("a"), encoder.encode("b")))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MultiSegmentHashEncoder(0, 10)

    @given(st.text(min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_encoding_always_binary(self, identifier):
        encoder = MultiSegmentHashEncoder(3, 7)
        vec = encoder.encode(identifier)
        assert set(np.unique(vec)) <= {0.0, 1.0}


class TestPlanEncoder:
    @pytest.fixture()
    def encoder(self):
        return PlanEncoder()

    def test_feature_dim_consistent(self, encoder, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        encoded = encoder.encode_plan(plan)
        assert encoded.features.shape == (plan.n_nodes, encoder.dim)

    def test_child_indices_valid(self, encoder, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        encoded = encoder.encode_plan(plan)
        n = encoded.n_nodes
        assert encoded.left.min() >= 0 and encoded.left.max() <= n
        assert encoded.right.min() >= 0 and encoded.right.max() <= n

    def test_operator_one_hot_present(self, encoder, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        encoded = encoder.encode_plan(plan)
        n_ops = 13  # len(OPERATOR_TYPES)
        assert np.allclose(encoded.features[:, :n_ops].sum(axis=1), 1.0)

    def test_no_statistics_in_features(self, encoder, small_project):
        """Statistics-free check: feature values never embed row counts or
        NDVs — everything numeric is normalized into [0, 1]."""
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        for node in plan.iter_nodes():
            node.est_rows = 1e12  # even absurd annotations must not leak
        encoded = encoder.encode_plan(plan)
        assert encoded.features.min() >= 0.0
        assert encoded.features.max() <= 1.0

    def test_env_override_applied(self, encoder, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        env = (0.9, 0.01, 0.2, 0.3)
        encoded = encoder.encode_plan(plan, env_override=env)
        assert np.allclose(encoded.features[:, encoder.env_slice], env)

    def test_logged_env_used_without_override(self, encoder, small_project, rng):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        record = small_project.executor.execute(plan, rng=rng)
        encoded = encoder.encode_plan(record.plan)
        env_block = encoded.features[:, encoder.env_slice]
        # Multiple stages -> at least one node env differs from another.
        assert not np.allclose(env_block, env_block[0]) or len(record.stages) == 1

    def test_different_tables_encode_differently(self, encoder, small_project):
        query = small_project.sample_query(0)
        plan = small_project.optimizer.optimize(query)
        scans = [
            encoder.encode_plan(plan).features[i]
            for i, node in enumerate(plan.iter_nodes())
            if node.op_type == "TableScan"
        ]
        if len(scans) >= 2:
            assert not np.array_equal(scans[0], scans[1])

    def test_steered_plan_encodes_differently(self, encoder, small_project):
        query = small_project.sample_query(0)
        default = small_project.optimizer.optimize(query)
        steered = small_project.optimizer.optimize(
            query, flags=OptimizerFlags(prefer_merge_join=True, disable_broadcast_join=True)
        )
        if default.structural_signature() != steered.structural_signature():
            a = encoder.encode_plan(default).features
            b = encoder.encode_plan(steered).features
            assert a.shape != b.shape or not np.allclose(a, b)

    def test_predicate_values_encoded(self, encoder, small_project):
        """Two instantiations of a template with different predicate
        parameters must encode differently (selectivity signal)."""
        template = next(t for t in small_project.templates if t.predicate_columns)
        q1 = template.instantiate("q1", np.random.default_rng(1))
        q2 = template.instantiate("q2", np.random.default_rng(2))
        p1 = small_project.optimizer.optimize(q1)
        p2 = small_project.optimizer.optimize(q2)
        a = encoder.encode_plan(p1, env_override=(0.5, 0.05, 0.5, 0.5)).features
        b = encoder.encode_plan(p2, env_override=(0.5, 0.05, 0.5, 0.5)).features
        assert a.shape != b.shape or not np.allclose(a, b)
