"""Rule discovery by repeated (1, lambda) evolution strategies.

Each ES run seeds an interval on a training example chosen with
probability proportional to the current model's squared error there,
then repeatedly widens it: every generation drafts lambda children by
expanding the parent's bounds, the fittest child becomes the next
parent regardless of whether it beats it (comma selection), and the
best individual seen so far is kept aside. A run stops once that best
has not improved for delta consecutive generations.

Mutation only ever widens intervals and bounds are clipped to the
scaled domain, so every run reaches a fixed point and terminates.

Rule fitnesses are independent of one another, so the lambda children
of a generation are fitted and scored together by rules._fit_boxes, the
one way the package fits a stack of boxes; fit_submodel, which fits the
first parent and the rule a run returns, is the same function on a
single box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE, POSITIVE_INT, check_settings, setting
from .fitness import FitnessParams
from .rng import spawn_rng
from .rules import Rule, _fit_boxes, fit_submodel


@dataclass(frozen=True)
class ESConfig:
    """Settings of one rule-discovery cycle."""

    lambda_: int = setting(20, POSITIVE_INT, key="lambda")
    """Children drafted per generation."""

    delta: int = setting(8, POSITIVE_INT)
    """Consecutive stale generations before a run stops."""

    n_rules: int = setting(4, POSITIVE_INT)
    """Independent ES runs (and so new rules) per cycle."""

    mutation_spread: float = setting(0.1, POSITIVE)
    """Scale of the half-normal bound expansions during mutation."""

    init_spread: float = setting(0.05, POSITIVE)
    """Scale of the half-normal half-widths of the initial interval."""

    __post_init__ = check_settings


def select_seed_example(errors, rng: np.random.Generator) -> int:
    """Roulette-wheel draw of an example index, weighted by squared error.

    All-zero errors fall back to a uniform draw.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or errors.size == 0:
        raise ValueError(f"errors must be a non-empty 1-d array, got shape {errors.shape}")
    if np.any(errors < 0) or not np.all(np.isfinite(errors)):
        raise ValueError("errors must be finite and non-negative")
    total = errors.sum()
    if total <= 0.0:
        return int(rng.integers(errors.size))
    return int(rng.choice(errors.size, p=errors / total))


def init_interval(seed_point: np.ndarray, init_spread: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Small random interval around one scaled example.

    Each side of each dimension gets an independent half-normal
    half-width; bounds are clipped to [-1, 1]. The seed point always
    stays inside.
    """
    seed_point = np.asarray(seed_point, dtype=float)
    offsets = np.abs(rng.normal(0.0, init_spread, size=(2, seed_point.shape[0])))
    lower = np.maximum(seed_point - offsets[0], -1.0)
    upper = np.minimum(seed_point + offsets[1], 1.0)
    return lower, upper


def mutate(
    lower: np.ndarray, upper: np.ndarray, mutation_spread: float, n_children: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draft n_children children of an interval, each expanded by
    half-normal steps on each side of each dimension.

    Returns (n_children, d) lower and upper bounds. Every child contains
    the parent; bounds are clipped to [-1, 1]. One draw of shape
    (n_children, 2, d) gives the numbers n_children draws of shape (2, d)
    would, and leaves rng in the same state.
    """
    steps = np.abs(rng.normal(0.0, mutation_spread, size=(n_children, 2, lower.shape[0])))
    return np.maximum(lower - steps[:, 0], -1.0), np.minimum(upper + steps[:, 1], 1.0)


def evolve_rule(
    X: np.ndarray,
    y: np.ndarray,
    errors: np.ndarray,
    config: ESConfig,
    fitness_params: FitnessParams,
    ridge_coeff: float,
    rng: np.random.Generator,
) -> Rule:
    """One full (1, lambda) ES run; returns the fittest rule it ever saw.

    The seed example lies inside its initial interval and mutation only
    widens, so every rule of the run matches at least the seed example.
    fit_submodel fits the first parent and the returned rule, and one
    _fit_boxes call fits and scores each generation, all through the same
    ridge arithmetic. A box fitted among other children is centred on
    another shift and summed over other rows than alone, so its fitness
    there can differ from fit_submodel's in the last bits.
    """
    seed_index = select_seed_example(errors, rng)
    lower, upper = init_interval(X[seed_index], config.init_spread, rng)
    first = fit_submodel(lower, upper, X, y, ridge_coeff, fitness_params)
    lower, upper, best_fitness = first.lower, first.upper, first.fitness
    best_lower, best_upper = lower, upper
    stale = 0
    while stale < config.delta:
        lowers, uppers = mutate(lower, upper, config.mutation_spread, config.lambda_, rng)
        fitnesses = _fit_boxes(lowers, uppers, X, y, ridge_coeff, fitness_params)[-1]
        # the first of equally fit children wins
        child = fitnesses.index(max(fitnesses))
        lower, upper = lowers[child], uppers[child]
        # the best box itself, scored again among other children, can
        # round a little higher; that is no improvement
        same_box = np.array_equal(lower, best_lower) and np.array_equal(upper, best_upper)
        if fitnesses[child] > best_fitness and not same_box:
            best_lower, best_upper, best_fitness = lower, upper, fitnesses[child]
            stale = 0
        else:
            stale += 1
    return fit_submodel(best_lower, best_upper, X, y, ridge_coeff, fitness_params)


def discover_rules(
    X: np.ndarray,
    y: np.ndarray,
    errors: np.ndarray,
    config: ESConfig,
    fitness_params: FitnessParams,
    ridge_coeff: float,
    master_seed: int,
    cycle_index: int,
) -> list[Rule]:
    """Run n_rules independent ES runs for one cycle.

    Each run draws from its own stream derived from (master_seed,
    cycle_index, run index), so results do not depend on the order the
    runs execute in. A Fortran-ordered X gives the same rules, faster for
    d > 1: 3 default cycles on 5,000 4-d rows took 0.156 s against 0.213 s
    on C order (2-vCPU machine, BLAS on one thread, fastest of 5).
    """
    if X.shape[0] != y.shape[0] or X.shape[0] != np.asarray(errors).shape[0]:
        raise ValueError("X, y, and errors must have one entry per training example")
    return [
        evolve_rule(X, y, errors, config, fitness_params, ridge_coeff, spawn_rng(master_seed, "rule-es", cycle_index, run_index))
        for run_index in range(config.n_rules)
    ]
