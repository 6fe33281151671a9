"""Tests for the steering decision: ``choose`` and ``default_index``."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.decision import Decision, choose, default_index
from repro.core.explorer import PlanExplorer
from repro.gateway import GatewayResult
from repro.warehouse.workload import generate_project

REPO = Path(__file__).resolve().parent.parent

#: Where ``argmin`` may appear outside ``choose``: file -> markers, one of
#: which the line must contain (``None``: anywhere in the file).
ARGMIN_ALLOWED = {
    "src/repro/core/decision.py": None,
    # Theorem 1's oracle and best-achievable model.
    "src/repro/core/deviance.py": None,
    # QueryCandidates.oracle_index: the hindsight pick, not a decision.
    "src/repro/evaluation/harness.py": ("np.argmin(self.measured_costs)",),
    # Figure 10(c)'s M_b analysis, whose rows name it.
    "benchmarks/bench_fig10_inference.py": ("M_b", "mb_", "argmin_flip_share", "per_env"),
}

#: Costs with ties: a few repeated values beside arbitrary finite floats.
COSTS = hnp.arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.one_of(
        st.sampled_from([0.0, 1.0, 2.5, 1e9]),
        st.floats(allow_nan=False, allow_infinity=True, width=64),
    ),
)


@pytest.fixture(scope="module")
def candidate_sets(small_profile):
    """Candidate sets from a project of this module's own (sampling queries
    advances the project's rng, and the shared one is read-only)."""
    project = generate_project(replace(small_profile, name="decisionproj"))
    explorer = PlanExplorer(project.optimizer)
    sets = [explorer.candidates(project.sample_query(0), top_k=4) for _ in range(20)]
    return [plans for plans in sets if len(plans) >= 2]


class TestChoose:
    @settings(max_examples=200, deadline=None)
    @given(costs=COSTS, data=st.data())
    def test_matches_first_argmin(self, costs, data):
        d = data.draw(st.integers(0, len(costs) - 1))
        decision = choose(costs, d)
        assert decision == Decision(int(np.argmin(costs)), d)


class TestDefaultIndex:
    def test_finds_the_default_wherever_it_sits(self, candidate_sets):
        assert candidate_sets
        for plans in candidate_sets:
            d = default_index(plans)
            assert plans[d].is_default
            assert not any(p.is_default for p in plans[:d])
            rotated = plans[d + 1:] + plans[: d + 1]
            assert default_index(rotated) == len(plans) - 1

    def test_raises_without_a_default(self, candidate_sets):
        steered = [p for p in candidate_sets[0] if not p.is_default]
        assert steered
        with pytest.raises(ValueError):
            default_index(steered)


def test_gateway_result_is_not_an_array():
    for name in ("__array__", "__len__", "__iter__", "__getitem__"):
        assert not hasattr(GatewayResult, name)


def test_no_argmin_outside_the_decision():
    strays = []
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            markers = ARGMIN_ALLOWED.get(rel, ())
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if "argmin" not in line or markers is None:
                    continue
                if not any(marker in line for marker in markers):
                    strays.append(f"{rel}:{n}: {line.strip()}")
    assert not strays, "argmin outside choose():\n" + "\n".join(strays)
