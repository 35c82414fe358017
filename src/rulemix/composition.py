"""Rule-subset selection with a generational genetic algorithm.

Individuals are boolean genomes over the rule pool. The GA runs once
per learning cycle: its initial population is the previous best
solution (zero-padded to the grown pool) plus randomly drawn genomes,
trimmed back to the population size after the first evaluation, so the
best fitness can never fall from one cycle to the next.

Each generation is bred with array operations over a (children, pool
size) genome matrix: the population is ranked once, and one draw per
operator covers every child (all tournaments, all crossover decisions,
all cut keys, all mutation masks). Children are then evaluated one by
one through the evaluator's memo. Each cycle's evaluator grows from the
previous cycle's, computing the mixing terms of the new rules only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OPTIONAL_PROBABILITY, POSITIVE_INT, PROBABILITY, ConfigError, check_settings, setting
from .fitness import FitnessParams, combine, solution_objectives
# match_mask stays a module attribute here: perfbench's tracer patches it
from .rules import Pool, _mix_terms, _readonly, match_mask, mix_ratio  # noqa: F401


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

    population_size: int = setting(32, POSITIVE_INT)
    generations: int = setting(32, POSITIVE_INT)
    n_elitists: int = setting(6, POSITIVE_INT)
    tournament_size: int = setting(3, POSITIVE_INT)
    crossover_points: int = setting(3, POSITIVE_INT)
    crossover_probability: float = setting(0.9, PROBABILITY)
    mutation_rate: float | None = setting(None, OPTIONAL_PROBABILITY)
    """Per-bit flip probability; None means 1 / pool size."""

    init_density: float = setting(0.5, PROBABILITY)
    """Probability of a 1 bit in each random initial genome."""

    def __post_init__(self):
        check_settings(self)
        if self.n_elitists >= self.population_size:
            raise ConfigError(f"n_elitists must be smaller than population_size, got {self.n_elitists} >= {self.population_size}")


class PoolEvaluator:
    """Every rule's mixing terms on one training set, from the mixing
    kernel of rules.py, so that a genome evaluation is one row sum.

    Rule fitnesses are independent, so a fitted rule's match set, output
    and weight never change. terms[i], a read-only (2, n) array, holds
    rule i's weighted outputs and weight at every training row, +0.0
    where it does not match; adding the selected rules' terms in pool
    order from 0.0 makes mix_predict's float additions, so evaluations
    agree with it bit for bit.

    Built from previous, the evaluator of an earlier cycle on the same X
    and y over a prefix of the same append-only pool, it shares that
    evaluator's terms and computes only the new rules'. Evaluations are
    cached on the genome's bytes, one cache per params, for the life of
    the evaluator: a repeated genome returns the same SolutionIndividual.
    An evaluator sums into buffers of its own, so one evaluation runs at
    a time.
    """

    def __init__(self, pool: Pool, X: np.ndarray, y: np.ndarray, previous: PoolEvaluator | None = None):
        self.pool_size = len(pool)
        self.y = y
        self.X = X = np.ascontiguousarray(X, dtype=float)
        self.terms: list[np.ndarray] = []
        if previous is not None:
            if previous.pool_size > self.pool_size or not (np.array_equal(previous.X, X) and np.array_equal(previous.y, y)):
                raise ValueError("previous evaluator must cover a prefix of the pool on the same X and y")
            self.terms = previous.terms[:]
        # C order: each new rule's terms are one contiguous (2, n) block
        new = np.empty((self.pool_size - len(self.terms), 2, X.shape[0]))
        for rows, terms in _mix_terms(pool[len(self.terms) :] if self.terms else pool, X):
            new[:, :, rows] = terms
        new.setflags(write=False)
        self.terms.extend(new)
        self._sums = np.empty((2, X.shape[0]))
        self._residuals = np.empty(X.shape[0])
        self._params: FitnessParams | None = None
        self._memos: dict[FitnessParams, dict[bytes, SolutionIndividual]] = {}

    def _sum(self, genome: np.ndarray) -> np.ndarray:
        """The selected rules' terms added in pool order to 0.0, in the
        reused (2, n) buffer: the bits of np.add.reduce(terms[genome],
        axis=0, initial=0.0) without copying the selected rows."""
        sums = self._sums
        sums.fill(0.0)
        for index in genome.nonzero()[0].tolist():
            sums += self.terms[index]
        return sums

    def _genome(self, genome) -> np.ndarray:
        genome = np.asarray(genome, dtype=bool)
        if genome.shape != (self.pool_size,):
            raise ValueError(f"genome must have one bit per pool rule ({self.pool_size}), got shape {genome.shape}")
        return genome

    def predictions(self, genome: np.ndarray) -> np.ndarray:
        sums = self._sum(self._genome(genome))
        return mix_ratio(sums[0], sums[1])

    def evaluate(self, genome: np.ndarray, params: FitnessParams) -> SolutionIndividual:
        """Score one rule subset: the error objective squashes its
        in-sample mixing error, the parsimony objective is the unused
        share of the pool."""
        genome = self._genome(genome)
        # params changes seldom, so its hash is not taken on every call
        if params is not self._params:
            self._params, self._memo = params, self._memos.setdefault(params, {})
        key = genome.tobytes()
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        sums = self._sum(genome)
        residuals = np.subtract(self.y, mix_ratio(sums[0], sums[1], out=self._residuals), out=self._residuals)
        residuals *= residuals
        # np.mean's own arithmetic without its per-call wrapping
        mse = float(np.add.reduce(residuals) / residuals.size)
        complexity = int(np.count_nonzero(genome))
        o1, o2 = solution_objectives(mse, complexity, self.pool_size, params.beta)
        individual = SolutionIndividual(
            genome=_readonly(genome, bool),
            fitness=combine(o1, o2, params.alpha),
            complexity=complexity,
            in_sample_mse=mse,
        )
        self._memo[key] = individual
        return individual


def _rank_order(population: list[SolutionIndividual]) -> np.ndarray:
    """Population indices best first: fitness descending, then
    complexity ascending, then index ascending."""
    fitness = np.array([individual.fitness for individual in population], dtype=float)
    complexity = np.array([individual.complexity for individual in population], dtype=np.int64)
    # lexsort sorts on the last key first and is stable, so exact ties keep index order
    return np.lexsort((complexity, -fitness))


def tournament_select(
    order: np.ndarray,
    n_children: int,
    tournament_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Both parents of n_children children: 2 * n_children independent
    tournaments over the population, with replacement.

    `order` is the population ranked best first (`_rank_order`). Each
    entrant is drawn as a place in that order, so the winner is the
    entrant with the smallest place. Returns (n_children, 2) population
    indices.
    """
    if len(order) == 0:
        raise ValueError("population is empty")
    if tournament_size < 1:
        raise ValueError(f"tournament_size must be at least 1, got {tournament_size}")
    places = rng.integers(0, len(order), size=(n_children, 2, tournament_size))
    return order[places.min(axis=2)]


def n_point_crossover(
    parents_a: np.ndarray,
    parents_b: np.ndarray,
    n_points: int,
    probability: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One child per row of two (children, length) parent matrices, by
    alternating segments at n cut points.

    Each child crosses with the given probability and is otherwise a
    copy of its first parent. Segments start from the first parent; a
    child's cut points are n distinct positions strictly inside the
    genome, the n smallest of length - 1 uniform keys.
    """
    parents_a = np.asarray(parents_a, dtype=bool)
    parents_b = np.asarray(parents_b, dtype=bool)
    if parents_b.shape != parents_a.shape or parents_a.ndim != 2:
        raise ValueError("parent genomes must be 2-d (children, length) and of equal shape")
    n_children, length = parents_a.shape
    if not 1 <= n_points < length:
        raise ValueError(f"n_points must lie in [1, {length - 1}], got {n_points}")
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    cross = rng.random(n_children) < probability
    cuts = np.argpartition(rng.random((n_children, length - 1)), n_points - 1, axis=1)[:, :n_points] + 1
    at_cut = np.zeros((n_children, length), dtype=bool)
    at_cut[np.arange(n_children)[:, None], cuts] = True
    # a position lies in a second-parent segment after an odd number of cuts
    from_b = np.logical_xor.accumulate(at_cut, axis=1) & cross[:, None]
    return np.where(from_b, parents_b, parents_a)


def bitflip_mutate(genomes: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit of each genome independently with the given probability."""
    genomes = np.asarray(genomes, dtype=bool)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    return genomes ^ (rng.random(genomes.shape) < rate)


def compose_solution(
    pool: Pool,
    previous_elitist: SolutionIndividual | None,
    X: np.ndarray,
    y: np.ndarray,
    config: GAConfig,
    params: FitnessParams,
    rng: np.random.Generator,
    evaluators: list[PoolEvaluator] | None = None,
) -> SolutionIndividual:
    """One full GA run over the current pool; returns the best individual.

    The previous elitist (zero-padded to the current pool size) always
    enters the initial population and elites always survive unchanged,
    so the returned fitness is at least the padded elitist's.

    evaluators, when given, carries the evaluator from run to run: it
    holds nothing or the evaluator of an earlier run on the same X and y
    over a prefix of this pool, which this run grows its own from and
    then leaves there in its place.
    """
    pool_size = len(pool)
    if pool_size == 0:
        raise ValueError("pool is empty")
    evaluator = PoolEvaluator(pool, X, np.asarray(y, dtype=float), evaluators.pop() if evaluators else None)
    if evaluators is not None:
        evaluators.append(evaluator)

    base = np.zeros(pool_size, dtype=bool)
    if previous_elitist is not None:
        previous_genome = np.asarray(previous_elitist.genome, dtype=bool)
        if previous_genome.shape[0] > pool_size:
            raise ValueError("previous elitist genome is longer than the pool")
        base[: previous_genome.shape[0]] = previous_genome
    genomes = [base, *(rng.random((config.population_size, pool_size)) < config.init_density)]
    evaluated = [evaluator.evaluate(genome, params) for genome in genomes]
    population = [evaluated[i] for i in _rank_order(evaluated)[: config.population_size]]

    mutation_rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / pool_size
    effective_points = min(config.crossover_points, pool_size - 1)
    n_children = config.population_size - config.n_elitists
    for _ in range(config.generations):
        order = _rank_order(population)
        genomes = np.stack([individual.genome for individual in population])
        parents = tournament_select(order, n_children, config.tournament_size, rng)
        children = genomes[parents[:, 0]]
        if effective_points >= 1:
            children = n_point_crossover(
                children, genomes[parents[:, 1]], effective_points, config.crossover_probability, rng
            )
        children = bitflip_mutate(children, mutation_rate, rng)
        population = [evaluator.evaluate(child, params) for child in children] + [
            population[i] for i in order[: config.n_elitists]
        ]

    return population[_rank_order(population)[0]]
