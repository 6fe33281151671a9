"""MiniDW: a simulated distributed multi-tenant data warehouse.

This subpackage is the substrate substituting for Alibaba MaxCompute in the
LOAM reproduction.  It provides:

* a catalog of projects, partitioned tables, and columns with known data
  distributions (:mod:`repro.warehouse.catalog`);
* optionally-missing statistics, reproducing challenge C2
  (:mod:`repro.warehouse.statistics`);
* a query model with parameterized templates (:mod:`repro.warehouse.query`);
* physical plans as operator trees (:mod:`repro.warehouse.operators`,
  :mod:`repro.warehouse.plan`);
* a native cost-based optimizer with tunable flags
  (:mod:`repro.warehouse.optimizer`, :mod:`repro.warehouse.flags`);
* plan decomposition into shuffle-bounded stages
  (:mod:`repro.warehouse.stages`);
* a cluster with dynamic per-machine load and a Fuxi-like scheduler,
  reproducing challenge C1 (:mod:`repro.warehouse.cluster`);
* an executor producing environment-dependent CPU costs and a historical
  query repository (:mod:`repro.warehouse.executor`,
  :mod:`repro.warehouse.repository`);
* a flighting environment for replaying plans
  (:mod:`repro.warehouse.flighting`);
* a workload/project generator (:mod:`repro.warehouse.workload`).
"""

from repro.warehouse.catalog import Catalog, Column, Table
from repro.warehouse.cluster import Cluster, EnvironmentSample
from repro.warehouse.executor import ExecutionRecord, Executor
from repro.warehouse.flags import CARDINALITY_SCALES, OPTIMIZER_FLAGS, OptimizerFlags
from repro.warehouse.flighting import FlightingEnvironment
from repro.warehouse.operators import PlanNode
from repro.warehouse.optimizer import NativeOptimizer
from repro.warehouse.plan import PhysicalPlan
from repro.warehouse.query import AggregateSpec, JoinSpec, Predicate, Query, QueryTemplate
from repro.warehouse.repository import QueryRepository
from repro.warehouse.sql import format_sql, parse_sql
from repro.warehouse.stages import StageGraph, decompose_into_stages
from repro.warehouse.statistics import StatisticsView
from repro.warehouse.workload import ProjectProfile, ProjectWorkload, generate_project

__all__ = [
    "AggregateSpec",
    "CARDINALITY_SCALES",
    "Catalog",
    "Cluster",
    "Column",
    "EnvironmentSample",
    "ExecutionRecord",
    "Executor",
    "FlightingEnvironment",
    "JoinSpec",
    "NativeOptimizer",
    "OPTIMIZER_FLAGS",
    "OptimizerFlags",
    "PhysicalPlan",
    "PlanNode",
    "Predicate",
    "ProjectProfile",
    "ProjectWorkload",
    "Query",
    "QueryRepository",
    "QueryTemplate",
    "StageGraph",
    "StatisticsView",
    "Table",
    "decompose_into_stages",
    "format_sql",
    "generate_project",
    "parse_sql",
]
