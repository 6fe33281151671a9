"""LOAM: the learned query optimization framework (the paper's contribution).

Modules
-------
* :mod:`repro.core.hashenc` — multi-segment hash encoding of identifiers
  (Appendix B.1);
* :mod:`repro.core.encoding` — statistics-free plan vectorization with
  environment features (Section 4);
* :mod:`repro.core.predictor` — the adaptive cost predictor: TCN PlanEmb +
  CostPred + DomClf behind a gradient reversal layer, trained adversarially
  (Section 4);
* :mod:`repro.core.baselines` — Transformer / GCN / XGBoost cost-model
  baselines (Section 7.1);
* :mod:`repro.core.explorer` — the steering plan explorer: optimizer flags
  plus cardinality scaling (Section 3);
* :mod:`repro.core.inference` — environment-feature strategies at
  prediction time: representative average-case, cluster-expectation,
  cluster-current, and no-load variants (Section 5);
* :mod:`repro.core.deviance` — the probabilistic deviance framework,
  Theorem 1 machinery, and log-normal cost fitting (Section 5,
  Appendix E.1);
* :mod:`repro.core.selector` — project selection: rule-based Filter and
  learned Ranker (Section 6);
* :mod:`repro.core.loam` — the end-to-end LOAM facade (Section 3).
"""

from repro.core.deviance import (
    DevianceEstimator,
    LogNormalCost,
    expected_deviance,
    fit_lognormal,
)
from repro.core.encoding import PlanEncoder
from repro.core.explorer import PlanExplorer
from repro.core.hashenc import MultiSegmentHashEncoder
from repro.core.inference import (
    EnvironmentStrategy,
    ClusterCurrentEnvironment,
    ClusterExpectedEnvironment,
    HistoricalMeanEnvironment,
)
from repro.core.deployment import DeploymentConfig, FleetManager
from repro.core.loam import LOAM, LOAMConfig
from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.core.selector import ProjectFilter, ProjectRanker, ndcg_at_k, recall_at_k
from repro.core.serialization import load_predictor, save_predictor

__all__ = [
    "AdaptiveCostPredictor",
    "ClusterCurrentEnvironment",
    "ClusterExpectedEnvironment",
    "DeploymentConfig",
    "DevianceEstimator",
    "FleetManager",
    "EnvironmentStrategy",
    "HistoricalMeanEnvironment",
    "LOAM",
    "LOAMConfig",
    "LogNormalCost",
    "MultiSegmentHashEncoder",
    "PlanEncoder",
    "PlanExplorer",
    "PredictorConfig",
    "ProjectFilter",
    "ProjectRanker",
    "expected_deviance",
    "fit_lognormal",
    "load_predictor",
    "ndcg_at_k",
    "recall_at_k",
    "save_predictor",
]
