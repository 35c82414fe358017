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


def config_from_dict(doc: dict, base=LearnerConfig(), name: str = "config"):
    """base, any config dataclass, with the settings doc gives replaced,
    and each section (a field that holds a config dataclass) read the same
    way from a nested mapping. A setting is named by its key or its field
    name, not both; an unknown key raises ConfigError. name names the
    section in messages, but for the root config's own settings."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(doc).__name__}")
    prefix = "" if name == "config" else f"{name}."
    values, known = {}, set()
    for f in fields(base):
        key = setting_key(f)
        given = sorted({key, f.name} & doc.keys())
        known |= {key, f.name}
        if len(given) > 1:
            raise ConfigError(f"{prefix}{key} is set twice, as {given[0]!r} and as {given[1]!r}")
        if given:
            section = getattr(base, f.name)
            values[f.name] = config_from_dict(doc[given[0]], section, key) if is_dataclass(section) else doc[given[0]]
    unknown = sorted(doc.keys() - known)
    if unknown:
        raise ConfigError(f"unknown {name} key {unknown[0]!r}")
    try:
        return replace(base, **values)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


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
