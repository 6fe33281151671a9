"""Experiment harness reproducing the paper's evaluation (Section 7).

* :mod:`repro.evaluation.config` — experiment scale knobs (the paper's
  full protocol vs a laptop-sized default), controlled by the
  ``REPRO_SCALE`` environment variable;
* :mod:`repro.evaluation.projects` — the five evaluation projects of
  Table 1 and the larger project pools used for Ranker studies;
* :mod:`repro.evaluation.harness` — train/test protocols, method
  comparisons, and improvement-space computation;
* :mod:`repro.evaluation.parallel` — process-pool execution of independent
  (project × method) tasks with deterministic per-task seeds;
* :mod:`repro.evaluation.tasks` — picklable task functions for the pool;
* :mod:`repro.evaluation.reporting` — plain-text tables/series matching
  the paper's figures.
"""

from repro.evaluation.config import ExperimentScale, current_scale
from repro.evaluation.harness import (
    EvaluationProject,
    MethodResult,
    build_evaluation_project,
    evaluate_methods,
)
from repro.evaluation.parallel import (
    EvalTask,
    ParallelEvaluationError,
    TaskFailure,
    derive_seed,
    run_tasks,
)
from repro.evaluation.projects import evaluation_profiles, ranker_pool_profiles
from repro.evaluation.reporting import format_series, format_table

__all__ = [
    "EvalTask",
    "EvaluationProject",
    "ExperimentScale",
    "MethodResult",
    "ParallelEvaluationError",
    "TaskFailure",
    "build_evaluation_project",
    "current_scale",
    "derive_seed",
    "evaluate_methods",
    "evaluation_profiles",
    "format_series",
    "format_table",
    "ranker_pool_profiles",
    "run_tasks",
]
