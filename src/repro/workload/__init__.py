"""Scenario engine: trace-style workload generation, regime injection,
and replay against the live serving stack.

See docs/SCENARIOS.md for the full model.  The public surface:

* arrivals — :class:`PoissonArrivals`, :class:`DiurnalArrivals`,
  :class:`MarkovModulatedArrivals`, :class:`ZipfTenants`;
* regimes — :class:`RegimeEvent`, :class:`RegimeState`, ``REGIME_KINDS``;
* scenarios — :class:`Scenario`, :class:`FamilySpec`, the named builders
  behind :func:`build_scenario` / :func:`list_scenarios`;
* replay — :class:`ScenarioRuntime`, :class:`ReplayEngine`,
  :class:`ReplayConfig` and :func:`build_lifecycle`; a replay's target
  is a front end (``OptimizerGateway``, ``ServingFleet``) itself.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    MarkovModulatedArrivals,
    PoissonArrivals,
    ZipfTenants,
)
from repro.workload.regimes import REGIME_KINDS, RegimeEvent, RegimeState
from repro.workload.replay import (
    CandidateSet,
    ReplayConfig,
    ReplayEngine,
    ReplayEvent,
    ReplayReport,
    ScenarioRuntime,
    SegmentStats,
    build_lifecycle,
)
from repro.workload.scenarios import (
    DEFAULT_FAMILIES,
    SCENARIO_BUILDERS,
    FamilySpec,
    Request,
    Scenario,
    ScenarioStream,
    build_scenario,
    list_scenarios,
    scenario_bursty_skewed,
    scenario_diurnal,
    scenario_drift,
    scenario_env_shift,
    scenario_schema_growth,
    scenario_steady,
)

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "MarkovModulatedArrivals",
    "ZipfTenants",
    "REGIME_KINDS",
    "RegimeEvent",
    "RegimeState",
    "DEFAULT_FAMILIES",
    "FamilySpec",
    "Request",
    "Scenario",
    "ScenarioStream",
    "SCENARIO_BUILDERS",
    "build_scenario",
    "list_scenarios",
    "scenario_steady",
    "scenario_diurnal",
    "scenario_bursty_skewed",
    "scenario_drift",
    "scenario_env_shift",
    "scenario_schema_growth",
    "CandidateSet",
    "ScenarioRuntime",
    "ReplayConfig",
    "ReplayEngine",
    "ReplayEvent",
    "ReplayReport",
    "SegmentStats",
    "build_lifecycle",
]
