"""Interval-rule regression.

Rules are axis-aligned boxes in scaled feature space, each carrying a
ridge-fitted linear submodel. An evolution strategy grows candidate
rules around poorly predicted examples; a genetic algorithm picks the
subset of the accumulated rule pool that predicts best with the fewest
rules. Predictions mix the selected rules' outputs, weighted by each
rule's experience and in-sample error.
"""

from .benchmark import (
    BenchmarkReport,
    RunRecord,
    baseline_tests,
    compare_records,
    format_summary_text,
    report_document,
    run_benchmark,
    summarize,
    write_records_csv,
    write_report_json,
)
from .composition import (
    GAConfig,
    PoolEvaluator,
    SolutionIndividual,
    bitflip_mutate,
    compose_solution,
    n_point_crossover,
    tournament_select,
)
from .data import (
    Dataset,
    TransformState,
    fit_transform,
    gen_piecewise_linear,
    load_csv,
    monte_carlo_split,
    write_csv,
)
from .describe import describe_model, describe_rule
from .discovery import ESConfig, discover_rules, evolve_rule, init_interval, mutate, select_seed_example
from .errors import (
    ConfigError,
    DataError,
    DegenerateFeatureError,
    DegenerateTargetError,
    DegenerateTestError,
    EmptyMatchError,
    ModelFormatError,
    ModelVersionError,
    NotFittedError,
)
from .fitness import FitnessParams, combine, pseudo_accuracy, solution_objectives
from .learner import LearnerConfig, TrainedModel, config_from_dict, config_to_dict, fit
from .persistence import load_model, model_document, save_model
from .rules import Pool, Rule, fit_submodel, match_mask, mix_predict
from .stats import WilcoxonResult, wilcoxon_signed_rank

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
    "ConfigError",
    "DataError",
    "Dataset",
    "DegenerateFeatureError",
    "DegenerateTargetError",
    "DegenerateTestError",
    "ESConfig",
    "EmptyMatchError",
    "FitnessParams",
    "GAConfig",
    "LearnerConfig",
    "ModelFormatError",
    "ModelVersionError",
    "NotFittedError",
    "Pool",
    "PoolEvaluator",
    "Rule",
    "RunRecord",
    "SolutionIndividual",
    "TrainedModel",
    "TransformState",
    "WilcoxonResult",
    "baseline_tests",
    "bitflip_mutate",
    "combine",
    "compare_records",
    "compose_solution",
    "config_from_dict",
    "config_to_dict",
    "describe_model",
    "describe_rule",
    "discover_rules",
    "evolve_rule",
    "fit",
    "fit_submodel",
    "fit_transform",
    "format_summary_text",
    "gen_piecewise_linear",
    "init_interval",
    "load_csv",
    "load_model",
    "match_mask",
    "mix_predict",
    "model_document",
    "monte_carlo_split",
    "mutate",
    "n_point_crossover",
    "pseudo_accuracy",
    "report_document",
    "run_benchmark",
    "save_model",
    "select_seed_example",
    "solution_objectives",
    "summarize",
    "tournament_select",
    "wilcoxon_signed_rank",
    "write_csv",
    "write_records_csv",
    "write_report_json",
]
