"""Property-based tests: invariants over randomly generated workloads.

Hypothesis drives the project/workload generator itself, so these cover a
far wider slice of the input space than the fixture-based tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.encoding import PlanEncoder
from repro.core.explorer import PlanExplorer
from repro.warehouse.costmodel import annotate_true_cardinalities, intrinsic_plan_cost
from repro.warehouse.operators import ExchangeNode, JoinNode, TableScanNode
from repro.warehouse.stages import decompose_into_stages
from repro.warehouse.workload import ProjectProfile, generate_project
from tests.plan_checks import ALL_KNOBS, assert_annotated_as_from_scratch

profile_st = st.builds(
    ProjectProfile,
    name=st.just("prop"),
    seed=st.integers(min_value=0, max_value=10_000),
    n_tables=st.integers(min_value=4, max_value=16),
    n_templates=st.integers(min_value=3, max_value=10),
    stats_availability=st.floats(min_value=0.0, max_value=1.0),
    temp_table_ratio=st.floats(min_value=0.0, max_value=0.5),
    max_join_tables=st.integers(min_value=1, max_value=5),
    row_scale=st.floats(min_value=1e4, max_value=1e6),
    skew_level=st.floats(min_value=0.0, max_value=1.5),
    agg_probability=st.floats(min_value=0.0, max_value=1.0),
)

_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestPlanInvariants:
    @_settings
    @given(profile_st)
    def test_default_plan_well_formed(self, profile):
        workload = generate_project(profile)
        query = workload.sample_query(0)
        plan = workload.optimizer.optimize(query)
        scans = [n for n in plan.iter_nodes() if isinstance(n, TableScanNode)]
        assert sorted(s.table for s in scans) == sorted(query.tables)
        joins = [n for n in plan.iter_nodes() if isinstance(n, JoinNode)]
        assert len(joins) == query.n_tables - 1
        for node in plan.iter_nodes():
            assert len(node.children) <= 2  # binary trees, as encoders assume

    @_settings
    @given(profile_st)
    def test_true_cardinalities_positive_and_cost_finite(self, profile):
        workload = generate_project(profile)
        query = workload.sample_query(0)
        plan = workload.optimizer.optimize(query)
        annotate_true_cardinalities(plan.root, query, workload.catalog)
        for node in plan.iter_nodes():
            assert node.true_rows >= 1.0
        cost = intrinsic_plan_cost(plan.root)
        assert np.isfinite(cost) and cost > 0

    @_settings
    @given(profile_st)
    def test_stage_decomposition_partitions_nodes(self, profile):
        workload = generate_project(profile)
        query = workload.sample_query(0)
        plan = workload.optimizer.optimize(query)
        for node in plan.iter_nodes():
            node.true_rows = max(node.est_rows, 1.0)
        graph = decompose_into_stages(plan)
        staged = [id(n) for stage in graph.stages for n in stage.nodes]
        assert sorted(staged) == sorted(id(n) for n in plan.iter_nodes())
        # Exchanges terminate their stage: an exchange's parent stage differs.
        for node in plan.iter_nodes():
            for child in node.children:
                if isinstance(child, ExchangeNode):
                    assert child.stage_id != node.stage_id

    @_settings
    @given(profile_st)
    def test_encoder_handles_all_candidates(self, profile):
        workload = generate_project(profile)
        encoder = PlanEncoder()
        explorer = PlanExplorer(workload.optimizer)
        query = workload.sample_query(0)
        for plan in explorer.candidates(query):
            encoded = encoder.encode_plan(plan, env_override=(0.5, 0.05, 0.5, 0.5))
            assert encoded.features.shape == (plan.n_nodes, encoder.dim)
            assert np.isfinite(encoded.features).all()
            assert 0.0 <= encoded.features.min() and encoded.features.max() <= 1.0

    @_settings
    @given(profile_st, st.integers(min_value=0, max_value=3))
    def test_execution_deterministic_given_seeds(self, profile, day):
        workload_a = generate_project(profile)
        workload_b = generate_project(profile)
        query_a = workload_a.sample_query(day)
        query_b = workload_b.sample_query(day)
        assert query_a.signature() == query_b.signature()
        plan_a = workload_a.optimizer.optimize(query_a)
        plan_b = workload_b.optimizer.optimize(query_b)
        assert plan_a.structural_signature() == plan_b.structural_signature()
        record_a = workload_a.executor.execute(plan_a, rng=np.random.default_rng(1))
        record_b = workload_b.executor.execute(plan_b, rng=np.random.default_rng(1))
        assert record_a.cpu_cost == pytest.approx(record_b.cpu_cost)

    @_settings
    @given(profile_st, st.sampled_from(ALL_KNOBS))
    def test_carried_estimates_equal_from_scratch_annotation(self, profile, knobs):
        """The optimizer estimates each node as it adds it; the result is
        exactly (``==``) what ``annotate`` writes on the finished tree."""
        workload = generate_project(profile)
        flags, scale = knobs
        for _ in range(3):
            plan = workload.optimizer.optimize(
                workload.sample_query(0), flags=flags, cardinality_scale=scale
            )
            assert_annotated_as_from_scratch(plan, workload.stats)

    @_settings
    @given(profile_st, st.booleans(), st.none() | st.integers(min_value=1, max_value=6))
    def test_explored_plans_are_disjoint_and_as_planned_alone(self, profile, flag_pairs, top_k):
        """Plans of one ``explore()`` share a planning context but no node,
        and each carries the annotations of its own scale (unscaled once
        ``_prune`` has costed it — see ``estimated_cost``)."""
        workload = generate_project(profile)
        explorer = PlanExplorer(workload.optimizer, flag_pairs=flag_pairs)
        query = workload.sample_query(0)
        unpruned = explorer.explore(query).plans
        plans = explorer.explore(query, top_k=top_k).plans
        nodes = [node for plan in plans for node in plan.iter_nodes()]
        assert len({id(node) for node in nodes}) == len(nodes)
        if top_k is None or len(unpruned) <= top_k:
            for plan in plans:
                assert_annotated_as_from_scratch(plan, workload.stats)


# -- serving vs reference over random tree shapes -----------------------------------


@pytest.fixture(scope="module")
def served(project_with_history):
    """A small trained model, its corpus nodes, and one long-lived service
    (so examples also meet warm plan, bucket and table state)."""
    from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
    from repro.serving import CostInferenceService

    records = project_with_history.repository.records[:60]
    plans = [r.plan for r in records]
    predictor = AdaptiveCostPredictor(
        config=PredictorConfig(epochs=2, hidden_dims=(16, 16), embedding_dim=8, adversarial=False)
    )
    predictor.fit(plans, [r.cpu_cost for r in records])
    nodes = [node for plan in plans for node in plan.iter_nodes()]
    return predictor, nodes, plans[0].query, CostInferenceService(predictor)


_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
_env_st = st.tuples(_unit, _unit, _unit, _unit)
_pick = st.integers(min_value=0, max_value=10_000)
#: A tree shape: (corpus node pick, logged env or None, child shapes).
_shape_st = st.recursive(
    st.tuples(_pick, st.none() | _env_st, st.just(())),
    lambda children: st.tuples(
        _pick, st.none() | _env_st, st.lists(children, min_size=1, max_size=2).map(tuple)
    ),
    max_leaves=12,
)


def _grow(shape, nodes):
    pick, env, children = shape
    source = nodes[pick % len(nodes)]
    node = source.__class__(**source._ctor_kwargs())
    node.env = env
    node.children = [_grow(child, nodes) for child in children]
    return node


class TestServingDifferential:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.lists(_shape_st, min_size=1, max_size=5), st.none() | _env_st)
    def test_service_matches_baseline_on_random_trees(self, served, shapes, env):
        from repro.warehouse.plan import PhysicalPlan

        predictor, nodes, query, service = served
        plans = [PhysicalPlan(root=_grow(shape, nodes), query=query) for shape in shapes]
        np.testing.assert_allclose(
            service.predict(plans, env_features=env),
            predictor.predict_baseline(plans, env_features=env),
            rtol=1e-5,
        )
