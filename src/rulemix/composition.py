"""Rule-subset selection with a generational genetic algorithm.

Individuals are boolean genomes over the rule pool. The GA runs once
per learning cycle: its initial population is the previous best
solution (zero-padded to the grown pool) plus randomly drawn genomes,
trimmed back to the population size after the first evaluation, so the
best fitness can never fall from one cycle to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fitness import FitnessParams, combine, solution_objectives
# match_mask stays a module attribute here: perfbench's tracer patches it
from .rules import Pool, match_mask, mix_ratio, mixing_terms  # noqa: F401


# eq=False: the genome array would make the generated __eq__ raise
@dataclass(frozen=True, eq=False)
class SolutionIndividual:
    """An evaluated rule subset."""

    genome: np.ndarray
    fitness: float
    complexity: int
    in_sample_mse: float


@dataclass(frozen=True)
class GAConfig:
    """Settings of one rule-subset search."""

    population_size: int = 32
    generations: int = 32
    n_elitists: int = 6
    tournament_size: int = 3
    crossover_points: int = 3
    crossover_probability: float = 0.9
    mutation_rate: float | None = None
    """Per-bit flip probability; None means 1 / pool size."""

    init_density: float = 0.5
    """Probability of a 1 bit in each random initial genome."""

    def __post_init__(self):
        for name in ("population_size", "generations", "n_elitists", "tournament_size", "crossover_points"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.n_elitists >= self.population_size:
            raise ConfigError(
                f"n_elitists must be smaller than population_size, got {self.n_elitists} >= {self.population_size}"
            )
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ConfigError(f"crossover_probability must lie in [0, 1], got {self.crossover_probability}")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError(f"mutation_rate must lie in [0, 1], got {self.mutation_rate}")
        if not 0.0 <= self.init_density <= 1.0:
            raise ConfigError(f"init_density must lie in [0, 1], got {self.init_density}")


def _frozen_genome(genome) -> np.ndarray:
    out = np.array(genome, dtype=bool)
    out.setflags(write=False)
    return out


class PoolEvaluator:
    """Every rule's mixing terms precomputed on one training set, so a
    genome evaluation is two row sums.

    Rule fitnesses do not depend on each other, so a fitted rule's
    match set, output and mixing weight never change. Each rule is
    stored as two dense rows over the training set: its weighted output
    and its weight on the rows it matches, 0.0 on the rows it does not.
    Summing the selected rows in pool-index order from 0.0 performs the
    same float additions as mixing the rules directly (adding 0.0 to a
    sum leaves it unchanged), so an evaluation here agrees with
    mix_predict bit for bit.

    Evaluations are cached on (params, genome bytes) for the life of the
    evaluator: a repeated genome returns the same SolutionIndividual.
    """

    def __init__(self, pool: Pool, X: np.ndarray, y: np.ndarray):
        self.pool_size = len(pool)
        self.y = y
        # C order: reducing over axis 0 adds whole rows one after another
        self.weighted_outputs = np.zeros((self.pool_size, X.shape[0]))
        self.weights = np.zeros((self.pool_size, X.shape[0]))
        for index, rule in enumerate(pool):
            mask, weight, weighted_outputs = mixing_terms(rule, X)
            self.weighted_outputs[index, mask] = weighted_outputs[mask]
            self.weights[index, mask] = weight
        self._cache: dict[tuple[FitnessParams, bytes], SolutionIndividual] = {}

    def predictions(self, genome: np.ndarray) -> np.ndarray:
        selected = np.asarray(genome, dtype=bool)
        return mix_ratio(
            np.add.reduce(self.weighted_outputs[selected], axis=0, initial=0.0),
            np.add.reduce(self.weights[selected], axis=0, initial=0.0),
        )

    def evaluate(self, genome: np.ndarray, params: FitnessParams) -> SolutionIndividual:
        """Score one rule subset: the error objective squashes its
        in-sample mixing error, the parsimony objective is the unused
        share of the pool."""
        genome = np.asarray(genome, dtype=bool)
        if genome.shape != (self.pool_size,):
            raise ValueError(f"genome must have one bit per pool rule ({self.pool_size}), got shape {genome.shape}")
        key = (params, genome.tobytes())
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        residuals = self.y - self.predictions(genome)
        mse = float(np.mean(residuals**2))
        complexity = int(np.count_nonzero(genome))
        o1, o2 = solution_objectives(mse, complexity, self.pool_size, params.beta)
        individual = SolutionIndividual(
            genome=_frozen_genome(genome),
            fitness=combine(o1, o2, params.alpha),
            complexity=complexity,
            in_sample_mse=mse,
        )
        self._cache[key] = individual
        return individual


def _rank_key(population):
    """Sort key: fitness descending, then complexity, then position."""

    def key(index: int):
        individual = population[index]
        return (-individual.fitness, individual.complexity, index)

    return key


def tournament_select(
    population: list[SolutionIndividual],
    tournament_size: int,
    rng: np.random.Generator,
) -> tuple[SolutionIndividual, SolutionIndividual]:
    """Two independent tournaments over the population, with replacement.

    Ties go to the lower complexity, then the lower population index.
    """
    if not population:
        raise ValueError("population is empty")
    if tournament_size < 1:
        raise ValueError(f"tournament_size must be at least 1, got {tournament_size}")
    key = _rank_key(population)

    def run_one() -> SolutionIndividual:
        entrants = rng.integers(0, len(population), size=tournament_size)
        return population[min((int(i) for i in entrants), key=key)]

    return run_one(), run_one()


def n_point_crossover(
    genome_a: np.ndarray,
    genome_b: np.ndarray,
    n_points: int,
    probability: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One child from two parents by alternating segments at n cut points.

    With probability (1 - probability) crossover is skipped and the
    child is a copy of the first parent. Segments start from the first
    parent; cut points are distinct positions strictly inside the genome.
    """
    genome_a = np.asarray(genome_a, dtype=bool)
    genome_b = np.asarray(genome_b, dtype=bool)
    length = genome_a.shape[0]
    if genome_b.shape != genome_a.shape or genome_a.ndim != 1:
        raise ValueError("parent genomes must be 1-d and of equal length")
    if not 1 <= n_points < length:
        raise ValueError(f"n_points must lie in [1, {length - 1}], got {n_points}")
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    if rng.random() >= probability:
        return genome_a.copy()
    cuts = np.sort(rng.choice(np.arange(1, length), size=n_points, replace=False))
    return splice(genome_a, genome_b, cuts)


def splice(genome_a: np.ndarray, genome_b: np.ndarray, cuts) -> np.ndarray:
    """Alternate segments of the parents at the given cut positions,
    starting with the first parent."""
    child = np.asarray(genome_a, dtype=bool).copy()
    genome_b = np.asarray(genome_b, dtype=bool)
    take_from_b = False
    previous = 0
    for cut in [*[int(c) for c in cuts], child.shape[0]]:
        if take_from_b:
            child[previous:cut] = genome_b[previous:cut]
        take_from_b = not take_from_b
        previous = cut
    return child


def bitflip_mutate(genome: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with the given probability."""
    genome = np.asarray(genome, dtype=bool)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    return genome ^ (rng.random(genome.shape[0]) < rate)


def compose_solution(
    pool: Pool,
    previous_elitist: SolutionIndividual | None,
    X: np.ndarray,
    y: np.ndarray,
    config: GAConfig,
    params: FitnessParams,
    rng: np.random.Generator,
    generation_log: list[float] | None = None,
) -> SolutionIndividual:
    """One full GA run over the current pool; returns the best individual.

    The previous elitist (zero-padded to the current pool size) always
    enters the initial population and elites always survive unchanged,
    so the returned fitness is at least the padded elitist's.
    """
    pool_size = len(pool)
    if pool_size == 0:
        raise ValueError("pool is empty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    evaluator = PoolEvaluator(pool, X, y)

    base = np.zeros(pool_size, dtype=bool)
    if previous_elitist is not None:
        previous_genome = np.asarray(previous_elitist.genome, dtype=bool)
        if previous_genome.shape[0] > pool_size:
            raise ValueError("previous elitist genome is longer than the pool")
        base[: previous_genome.shape[0]] = previous_genome
    genomes = [base] + [rng.random(pool_size) < config.init_density for _ in range(config.population_size)]
    evaluated = [evaluator.evaluate(genome, params) for genome in genomes]
    order = sorted(range(len(evaluated)), key=_rank_key(evaluated))
    population = [evaluated[i] for i in order[: config.population_size]]

    if generation_log is not None:
        generation_log.append(population[0].fitness)

    mutation_rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / pool_size
    effective_points = min(config.crossover_points, pool_size - 1)
    for _ in range(config.generations):
        order = sorted(range(len(population)), key=_rank_key(population))
        elites = [population[i] for i in order[: config.n_elitists]]
        children = []
        for _ in range(config.population_size - config.n_elitists):
            parent_a, parent_b = tournament_select(population, config.tournament_size, rng)
            if effective_points >= 1:
                child_genome = n_point_crossover(
                    parent_a.genome, parent_b.genome, effective_points, config.crossover_probability, rng
                )
            else:
                child_genome = parent_a.genome.copy()
            child_genome = bitflip_mutate(child_genome, mutation_rate, rng)
            children.append(evaluator.evaluate(child_genome, params))
        population = children + elites
        if generation_log is not None:
            best = population[min(range(len(population)), key=_rank_key(population))]
            generation_log.append(best.fitness)

    return population[min(range(len(population)), key=_rank_key(population))]
