"""The full learner: alternate rule discovery and rule-subset selection.

Each cycle seeds new rules where the current best solution is worst,
appends them to the pool, and re-runs the subset search over the grown
pool. The best solution's fitness never falls between cycles: the
previous winner re-enters the search zero-padded, its error objective
is unchanged, and its parsimony objective rises with the pool size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property

import numpy as np

from .composition import GAConfig, PoolEvaluator, SolutionIndividual, compose_solution
from .data import TransformState, fit_transform
from .discovery import ESConfig, discover_rules
from .errors import NON_NEGATIVE, POSITIVE_INT, SEED, ConfigError, check_settings, setting, setting_key
from .fitness import FitnessParams
from .rng import spawn_rng
from .rules import Pool, mix_predict


@dataclass(frozen=True)
class LearnerConfig:
    """Everything a training run depends on besides the data."""

    n_iter: int = setting(32, POSITIVE_INT)
    """Learning cycles; each adds es.n_rules rules to the pool."""

    ridge_coeff: float = setting(0.01, NON_NEGATIVE)
    """Ridge penalty of every rule's linear submodel."""

    master_seed: int = setting(0, SEED)
    """Root of all random streams of the run."""

    es: ESConfig = field(default_factory=ESConfig)
    ga: GAConfig = field(default_factory=GAConfig)
    rule_fitness: FitnessParams = field(default_factory=FitnessParams)
    solution_fitness: FitnessParams = field(default_factory=FitnessParams)

    __post_init__ = check_settings


def config_to_dict(config) -> dict:
    """Flatten a LearnerConfig to plain nested dicts (JSON friendly),
    keyed by the names users write (setting_key)."""
    return {
        setting_key(f): config_to_dict(value) if is_dataclass(value := getattr(config, f.name)) else value
        for f in fields(config)
    }


def _section_from_dict(cls, section_name: str, values: dict, base):
    """base with the settings of one config section replaced; a setting
    may be named by its key or by its field."""
    if not isinstance(values, dict):
        raise ConfigError(f"{section_name} must be a mapping, got {type(values).__name__}")
    names = {setting_key(f): f.name for f in fields(cls)}
    values = {names.get(key, key): value for key, value in values.items()}
    unknown = sorted(values.keys() - cls.__dataclass_fields__.keys())
    if unknown:
        raise ConfigError(f"unknown {section_name} key {unknown[0]!r}")
    try:
        return replace(base, **values)
    except ConfigError as exc:
        raise ConfigError(f"{section_name}.{exc}") from None


def config_from_dict(doc: dict, base: LearnerConfig = LearnerConfig()) -> LearnerConfig:
    """Build a LearnerConfig from nested dicts, overriding base defaults.

    Keys may be given partially; unknown keys raise ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a mapping, got {type(doc).__name__}")
    doc = dict(doc)
    for name in ("es", "ga", "rule_fitness", "solution_fitness"):
        if name in doc:
            section = getattr(base, name)
            doc[name] = _section_from_dict(type(section), name, doc[name], section)
    unknown = sorted(doc.keys() - LearnerConfig.__dataclass_fields__.keys())
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    return replace(base, **doc)


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
        """Predict in original target units for raw (unscaled) inputs.

        The raw rows go to mix_predict with the model's scaling step, so a
        batch is scaled, matched and mixed in chunks of 4096 rows through
        one fixed workspace, and the predictions are un-standardized in
        place: only the returned array grows with the rows. The bits are
        those of inverse_target(mix_predict(selected_rules,
        transform_features(X))).
        """
        X = self.transform.check_features(X)
        predictions = mix_predict(self.selected_rules, X, scale=self.transform.scale_features)
        return self.transform.inverse_target(predictions, out=predictions)

    def predict_scaled(self, X_scaled) -> np.ndarray:
        """Predict in standardized target units for already-scaled inputs."""
        return mix_predict(self.selected_rules, X_scaled)


def fit(X, y, config: LearnerConfig | None = None) -> TrainedModel:
    """Train on raw data; scaling statistics come from this data only."""
    if config is None:
        config = LearnerConfig()
    transform, X_scaled, y_scaled = fit_transform(X, y)
    # Rule discovery only matches and picks rows, which is fastest on a
    # column-major copy; mixing reads the C-ordered X_scaled
    X_columns = np.asfortranarray(X_scaled)

    pool = Pool()
    elitist: SolutionIndividual | None = None
    # each cycle's GA grows the previous cycle's evaluator, which also
    # mixes the elitist's training predictions of the next cycle
    evaluators: list[PoolEvaluator] = []
    history: list[float] = []
    for cycle in range(config.n_iter):
        predictions = 0.0 if elitist is None else evaluators[0].predictions(elitist.genome)
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
            evaluators=evaluators,
        )
        if history and not elitist.fitness >= history[-1]:
            raise RuntimeError(
                f"best solution fitness fell between cycles: {elitist.fitness!r} < {history[-1]!r} in cycle {cycle}"
            )
        history.append(elitist.fitness)

    return TrainedModel(pool=pool, elitist=elitist, transform=transform, config=config, fitness_history=history)
