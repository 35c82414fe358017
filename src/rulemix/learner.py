"""The full learner: alternate rule discovery and rule-subset selection.

Each cycle seeds new rules where the current best solution is worst,
appends them to the pool, and re-runs the subset search over the grown
pool. The best solution's fitness never falls between cycles: the
previous winner re-enters the search zero-padded, its error objective
is unchanged, and its parsimony objective rises with the pool size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .composition import GAConfig, SolutionIndividual, compose_solution
from .data import TransformState, fit_transform
from .discovery import ESConfig, discover_rules
from .errors import ConfigError
from .fitness import FitnessParams
from .rng import spawn_rng
from .rules import Pool, mix_predict


@dataclass(frozen=True)
class LearnerConfig:
    """Everything a training run depends on besides the data."""

    n_iter: int = 32
    """Learning cycles; each adds es.n_rules rules to the pool."""

    ridge_coeff: float = 0.01
    """Ridge penalty of every rule's linear submodel."""

    master_seed: int = 0
    """Root of all random streams of the run."""

    es: ESConfig = field(default_factory=ESConfig)
    ga: GAConfig = field(default_factory=GAConfig)
    rule_fitness: FitnessParams = field(default_factory=FitnessParams)
    solution_fitness: FitnessParams = field(default_factory=FitnessParams)

    def __post_init__(self):
        if not isinstance(self.n_iter, (int, np.integer)) or isinstance(self.n_iter, bool) or self.n_iter < 1:
            raise ConfigError(f"n_iter must be a positive integer, got {self.n_iter!r}")
        if not self.ridge_coeff >= 0:
            raise ConfigError(f"ridge_coeff must be non-negative, got {self.ridge_coeff!r}")
        if not isinstance(self.master_seed, (int, np.integer)) or isinstance(self.master_seed, bool) or not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must be an integer in [0, 2**64), got {self.master_seed!r}")


def config_to_dict(config: LearnerConfig) -> dict:
    """Flatten a LearnerConfig to plain nested dicts (JSON friendly)."""
    doc = asdict(config)
    doc["es"] = dict(doc["es"])
    doc["es"]["lambda"] = doc["es"].pop("lambda_")
    return doc


def _section_from_dict(cls, section_name: str, values: dict, base):
    if not isinstance(values, dict):
        raise ConfigError(f"{section_name} must be a mapping, got {type(values).__name__}")
    values = dict(values)
    if section_name == "es" and "lambda" in values:
        values["lambda_"] = values.pop("lambda")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown {section_name} key {unknown[0]!r}")
    return replace(base, **values)


def config_from_dict(doc: dict, base: LearnerConfig | None = None) -> LearnerConfig:
    """Build a LearnerConfig from nested dicts, overriding base defaults.

    Keys may be given partially; unknown keys raise ConfigError.
    """
    if base is None:
        base = LearnerConfig()
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a mapping, got {type(doc).__name__}")
    doc = dict(doc)
    sections = {
        "es": (ESConfig, base.es),
        "ga": (GAConfig, base.ga),
        "rule_fitness": (FitnessParams, base.rule_fitness),
        "solution_fitness": (FitnessParams, base.solution_fitness),
    }
    updates = {}
    for name, (cls, section_base) in sections.items():
        if name in doc:
            updates[name] = _section_from_dict(cls, name, doc.pop(name), section_base)
    top_known = {"n_iter", "ridge_coeff", "master_seed"}
    unknown = sorted(set(doc) - top_known)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    updates.update(doc)
    return replace(base, **updates)


@dataclass
class TrainedModel:
    """A fitted model: the rule pool, the chosen subset, and the scaling."""

    pool: Pool
    elitist: SolutionIndividual
    transform: TransformState
    config: LearnerConfig
    fitness_history: list[float] = field(default_factory=list)
    """Best solution fitness after each cycle (not persisted)."""

    @cached_property
    def selected_rules(self) -> Pool:
        """The elitist's rules, stacked once for every later predict."""
        return self.pool[self.elitist.genome]

    @property
    def complexity(self) -> int:
        return self.elitist.complexity

    def predict(self, X) -> np.ndarray:
        """Predict in original target units for raw (unscaled) inputs."""
        X_scaled = self.transform.transform_features(X)
        return self.transform.inverse_target(mix_predict(self.selected_rules, X_scaled))

    def predict_scaled(self, X_scaled) -> np.ndarray:
        """Predict in standardized target units for already-scaled inputs."""
        return mix_predict(self.selected_rules, X_scaled)


def fit(X, y, config: LearnerConfig | None = None) -> TrainedModel:
    """Train on raw data; scaling statistics come from this data only."""
    if config is None:
        config = LearnerConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    transform, X_scaled, y_scaled = fit_transform(X, y)
    # Rule discovery only matches and picks rows, which is fastest on a
    # column-major copy; mixing reads the C-ordered X_scaled
    X_columns = np.asfortranarray(X_scaled)

    pool = Pool()
    elitist: SolutionIndividual | None = None
    history: list[float] = []
    for cycle in range(config.n_iter):
        predictions = 0.0 if elitist is None else mix_predict(pool[elitist.genome], X_scaled)
        errors = (y_scaled - predictions) ** 2
        pool.extend(
            discover_rules(
                X_columns,
                y_scaled,
                errors,
                config.es,
                config.rule_fitness,
                config.ridge_coeff,
                master_seed=config.master_seed,
                cycle_index=cycle,
            )
        )
        elitist = compose_solution(
            pool,
            elitist,
            X_scaled,
            y_scaled,
            config.ga,
            config.solution_fitness,
            rng=spawn_rng(config.master_seed, "ga", cycle),
        )
        if history and not elitist.fitness >= history[-1]:
            raise RuntimeError(
                f"best solution fitness fell between cycles: {elitist.fitness!r} < {history[-1]!r} in cycle {cycle}"
            )
        history.append(elitist.fitness)

    return TrainedModel(pool=pool, elitist=elitist, transform=transform, config=config, fitness_history=history)
