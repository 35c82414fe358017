import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rulemix import (
    FitnessParams,
    GAConfig,
    Pool,
    PoolEvaluator,
    Rule,
    SolutionIndividual,
    bitflip_mutate,
    combine,
    compose_solution,
    evaluate_solution,
    fit_submodel,
    mix_predict,
    n_point_crossover,
    solution_objectives,
    tournament_select,
)
from rulemix.errors import ConfigError


def build_pool(n_rules=6, n=80, seed=0):
    gen = np.random.default_rng(seed)
    X = gen.uniform(-1, 1, size=(n, 2))
    y = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1]
    pool = Pool()
    for _ in range(n_rules):
        lo = gen.uniform(-1.0, -0.1, size=2)
        hi = gen.uniform(0.1, 1.0, size=2)
        pool.append(fit_submodel(lo, hi, X, y, fitness_params=FitnessParams()))
    return pool, X, y


def individual(genome, fitness, complexity=None):
    genome = np.asarray(genome, dtype=bool)
    return SolutionIndividual(
        genome=genome,
        fitness=fitness,
        complexity=int(np.count_nonzero(genome)) if complexity is None else complexity,
        in_sample_mse=0.5,
    )


class TestGAConfig:
    def test_defaults(self):
        config = GAConfig()
        assert config.population_size == 32
        assert config.generations == 32
        assert config.n_elitists == 6
        assert config.tournament_size == 3
        assert config.crossover_points == 3
        assert config.crossover_probability == 0.9
        assert config.mutation_rate is None
        assert config.init_density == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            GAConfig(population_size=0)
        with pytest.raises(ConfigError):
            GAConfig(n_elitists=33)
        with pytest.raises(ConfigError):
            GAConfig(crossover_probability=1.5)
        with pytest.raises(ConfigError):
            GAConfig(mutation_rate=-0.1)
        with pytest.raises(ConfigError):
            GAConfig(init_density=1.5)
        with pytest.raises(ConfigError):
            GAConfig(tournament_size=0)


class TestEvaluate:
    def test_matches_direct_recomputation_bitwise(self):
        pool, X, y = build_pool()
        params = FitnessParams()
        gen = np.random.default_rng(3)
        for _ in range(20):
            genome = gen.random(len(pool)) < 0.5
            sol = evaluate_solution(genome, pool, X, y, params)
            preds = mix_predict(pool.selected(genome), X)
            mse = float(np.mean((y - preds) ** 2))
            assert sol.in_sample_mse == mse
            o1, o2 = solution_objectives(mse, int(genome.sum()), len(pool), params.beta)
            assert sol.fitness == combine(o1, o2, params.alpha)
            assert sol.complexity == int(genome.sum())

    def test_cached_evaluator_equals_one_shot(self):
        pool, X, y = build_pool(seed=5)
        params = FitnessParams()
        evaluator = PoolEvaluator(pool, X, y)
        gen = np.random.default_rng(8)
        for _ in range(10):
            genome = gen.random(len(pool)) < 0.4
            a = evaluator.evaluate(genome, params)
            b = evaluate_solution(genome, pool, X, y, params)
            assert a.fitness == b.fitness
            assert a.in_sample_mse == b.in_sample_mse

    def test_empty_genome_predicts_zero(self):
        pool, X, y = build_pool(seed=6)
        sol = evaluate_solution(np.zeros(len(pool), dtype=bool), pool, X, y, FitnessParams())
        assert sol.complexity == 0
        assert sol.in_sample_mse == float(np.mean(y**2))

    def test_genome_shape_check(self):
        pool, X, y = build_pool()
        with pytest.raises(ValueError):
            evaluate_solution(np.zeros(len(pool) + 1, dtype=bool), pool, X, y, FitnessParams())


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestEvaluationCache:
    def test_params_are_part_of_the_key(self):
        pool, X, y = build_pool(seed=9)
        evaluator = PoolEvaluator(pool, X, y)
        genome = np.array([True, False, True, True, False, True])
        loose, strict = FitnessParams(alpha=0.05), FitnessParams(alpha=0.5)
        a = evaluator.evaluate(genome, loose)
        b = evaluator.evaluate(genome, strict)
        assert a.fitness != b.fitness
        assert same_bits(a.fitness, evaluate_solution(genome, pool, X, y, loose).fitness)
        assert same_bits(b.fitness, evaluate_solution(genome, pool, X, y, strict).fitness)
        assert same_bits(evaluator.evaluate(genome, loose).fitness, a.fitness)

    def test_repeated_genome_returns_the_same_result(self):
        pool, X, y = build_pool(seed=10)
        evaluator = PoolEvaluator(pool, X, y)
        params = FitnessParams()
        genome = np.array([False, True, True, False, False, True])
        first = evaluator.evaluate(genome, params)
        again = evaluator.evaluate(genome.copy(), params)
        assert again.fitness == first.fitness
        assert again.complexity == first.complexity
        assert again.in_sample_mse == first.in_sample_mse
        assert np.array_equal(again.genome, genome)

    def test_cached_genome_is_not_aliased_to_the_caller(self):
        pool, X, y = build_pool(seed=11)
        evaluator = PoolEvaluator(pool, X, y)
        genome = np.ones(len(pool), dtype=bool)
        first = evaluator.evaluate(genome, FitnessParams())
        genome[0] = False
        assert first.genome.all()
        assert evaluator.evaluate(genome, FitnessParams()).complexity == len(pool) - 1

    @pytest.mark.parametrize("bit", [False, True])
    def test_empty_and_full_genomes_match_one_shot_bitwise(self, bit):
        pool, X, y = build_pool(seed=12)
        params = FitnessParams()
        genome = np.full(len(pool), bit)
        evaluator = PoolEvaluator(pool, X, y)
        for _ in range(2):  # the second call is served from the cache
            cached = evaluator.evaluate(genome, params)
            one_shot = evaluate_solution(genome, pool, X, y, params)
            assert same_bits(cached.fitness, one_shot.fitness)
            assert same_bits(cached.in_sample_mse, one_shot.in_sample_mse)
            assert cached.complexity == one_shot.complexity == int(bit) * len(pool)
        mse = float(np.mean((y - mix_predict(pool.selected(genome), X)) ** 2))
        assert same_bits(cached.in_sample_mse, mse)


unit_floats = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def pools_and_genomes(draw):
    """Random rules over random rows; bounds are sometimes a data row, so
    rows on a rule's closed edge are exercised too."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 60))
    X = draw(arrays(np.float64, (n, d), elements=unit_floats))
    corner = arrays(np.float64, d, elements=unit_floats) | st.sampled_from(list(X))
    rules = []
    for _ in range(draw(st.integers(1, 12))):
        a, b = draw(corner), draw(corner)
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        rules.append(
            Rule(
                lower=lower,
                upper=upper,
                coefficients=draw(arrays(np.float64, d, elements=st.floats(-10.0, 10.0))),
                intercept=draw(st.floats(-10.0, 10.0)),
                in_sample_mse=draw(st.floats(0.0, 5.0)),
                experience=draw(st.integers(1, n)),
                volume=float(np.prod((upper - lower) / 2.0)),
                fitness=0.0,
            )
        )
    size = len(rules)
    genome = draw(
        st.just([False] * size) | st.just([True] * size) | st.lists(st.booleans(), min_size=size, max_size=size)
    )
    return Pool(rules), X, np.array(genome, dtype=bool)


@settings(max_examples=200, deadline=None)
@given(pools_and_genomes())
def test_evaluator_predictions_equal_mix_predict_bitwise(case):
    pool, X, genome = case
    y = np.zeros(X.shape[0])
    assert PoolEvaluator(pool, X, y).predictions(genome).tobytes() == mix_predict(pool.selected(genome), X).tobytes()


class TestTournament:
    def test_ties_break_on_complexity(self):
        population = [
            individual([True, True, False], fitness=0.5),
            individual([True, False, False], fitness=0.9),
            individual([True, True, True], fitness=0.9),
        ]
        rng = np.random.default_rng(10)
        # a size-50 tournament all but surely samples every index, so the
        # fitness tie between 1 and 2 must fall to 1: lower complexity
        winners = [tournament_select(population, 50, rng)[0] for _ in range(300)]
        assert all(w is population[1] for w in winners)

    def test_index_breaks_exact_ties(self):
        population = [
            individual([True, False], fitness=0.7),
            individual([False, True], fitness=0.7),
        ]
        rng = np.random.default_rng(11)
        winners = [tournament_select(population, 50, rng)[0] for _ in range(100)]
        # same fitness and complexity: the earlier individual wins every
        # tournament that samples it, which a size-50 draw all but surely does
        assert all(w is population[0] for w in winners)

    def test_sampling_with_replacement_lets_weaker_win(self):
        population = [
            individual([True, False], fitness=0.99),
            individual([False, True], fitness=0.01),
        ]
        rng = np.random.default_rng(12)
        winners = [tournament_select(population, 2, rng)[0] for _ in range(2000)]
        weak_wins = sum(w is population[1] for w in winners)
        # the weak one wins only when sampled twice: probability 1/4
        assert weak_wins / 2000 == pytest.approx(0.25, abs=0.03)

    def test_returns_two_independent_winners(self):
        population = [individual([True], fitness=0.5)]
        a, b = tournament_select(population, 3, np.random.default_rng(0))
        assert a is population[0] and b is population[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            tournament_select([], 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            tournament_select([individual([True], 0.5)], 0, np.random.default_rng(0))


class TestCrossover:
    def test_hand_worked_single_cut(self):
        a = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
        b = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=bool)

        class FixedRng:
            def random(self):
                return 0.0  # always cross

            def choice(self, values, size, replace):
                return np.array([4])

        child = n_point_crossover(a, b, 1, 1.0, FixedRng())
        assert child.tolist() == [True] * 8

    def test_three_cut_splice_alternates_segments(self):
        a = np.zeros(10, dtype=bool)
        b = np.ones(10, dtype=bool)

        class FixedRng:
            def random(self):
                return 0.0

            def choice(self, values, size, replace):
                return np.array([2, 5, 7])

        child = n_point_crossover(a, b, 3, 1.0, FixedRng())
        # segments: a[0:2], b[2:5], a[5:7], b[7:10]
        assert child.tolist() == [False, False, True, True, True, False, False, True, True, True]

    def test_skip_returns_copy_of_first_parent(self):
        a = np.array([True, False, True, False])
        b = np.array([False, True, False, True])

        class NeverRng:
            def random(self):
                return 0.999

        child = n_point_crossover(a, b, 1, 0.5, NeverRng())
        assert np.array_equal(child, a)
        assert child is not a

    def test_child_bits_come_from_a_parent(self, rng):
        a = rng.random(20) < 0.5
        b = rng.random(20) < 0.5
        for _ in range(50):
            child = n_point_crossover(a, b, 3, 0.9, rng)
            assert np.all((child == a) | (child == b))

    def test_cut_positions_are_interior(self, rng):
        # with n_points = length - 1 every interior position is cut, so
        # the child must alternate single bits starting from parent a
        a = np.zeros(5, dtype=bool)
        b = np.ones(5, dtype=bool)
        child = n_point_crossover(a, b, 4, 1.0, rng)
        assert child.tolist() == [False, True, False, True, False]

    def test_validation(self, rng):
        a = np.zeros(4, dtype=bool)
        b = np.ones(4, dtype=bool)
        with pytest.raises(ValueError):
            n_point_crossover(a, b, 0, 0.9, rng)
        with pytest.raises(ValueError):
            n_point_crossover(a, b, 4, 0.9, rng)
        with pytest.raises(ValueError):
            n_point_crossover(a, np.ones(5, dtype=bool), 1, 0.9, rng)
        with pytest.raises(ValueError):
            n_point_crossover(a, b, 1, 1.5, rng)


class TestBitflip:
    def test_flip_frequency(self):
        rng = np.random.default_rng(14)
        genome = np.zeros(1000, dtype=bool)
        flips = [int(bitflip_mutate(genome, 0.1, rng).sum()) for _ in range(200)]
        assert float(np.mean(flips)) / 1000 == pytest.approx(0.1, abs=0.005)

    def test_rate_zero_and_one(self, rng):
        genome = np.array([True, False, True])
        assert np.array_equal(bitflip_mutate(genome, 0.0, rng), genome)
        assert np.array_equal(bitflip_mutate(genome, 1.0, rng), ~genome)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            bitflip_mutate(np.zeros(3, dtype=bool), 1.5, rng)


class TestComposeSolution:
    def test_improves_or_keeps_previous_elitist(self):
        pool, X, y = build_pool(n_rules=8, seed=20)
        params = FitnessParams()
        config = GAConfig(population_size=12, generations=6, n_elitists=3)
        rng = np.random.default_rng(30)
        first = compose_solution(pool, None, X, y, config, params, rng)

        # grow the pool, then require monotone fitness from the padded seed
        extra_pool, _, _ = build_pool(n_rules=4, seed=21)
        for rule in extra_pool:
            pool.append(rule)
        padded = np.zeros(len(pool), dtype=bool)
        padded[: len(first.genome)] = first.genome
        seed_fitness = evaluate_solution(padded, pool, X, y, params).fitness
        second = compose_solution(pool, first, X, y, config, params, np.random.default_rng(31))
        assert second.fitness >= seed_fitness

    def test_deterministic(self):
        pool, X, y = build_pool(n_rules=6, seed=22)
        config = GAConfig(population_size=10, generations=4, n_elitists=2)
        a = compose_solution(pool, None, X, y, config, FitnessParams(), np.random.default_rng(40))
        b = compose_solution(pool, None, X, y, config, FitnessParams(), np.random.default_rng(40))
        assert np.array_equal(a.genome, b.genome)
        assert a.fitness == b.fitness

    def test_single_rule_pool(self):
        pool, X, y = build_pool(n_rules=1, seed=23)
        config = GAConfig(population_size=6, generations=3, n_elitists=1)
        best = compose_solution(pool, None, X, y, config, FitnessParams(), np.random.default_rng(41))
        assert len(best.genome) == 1

    def test_generation_log_tracks_monotone_best(self):
        pool, X, y = build_pool(n_rules=8, seed=24)
        config = GAConfig(population_size=10, generations=8, n_elitists=3)
        log: list[float] = []
        compose_solution(pool, None, X, y, config, FitnessParams(), np.random.default_rng(42), generation_log=log)
        assert len(log) == config.generations + 1
        # elites survive unchanged, so the best never regresses
        assert all(b >= a for a, b in zip(log, log[1:]))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            compose_solution(Pool(), None, np.zeros((2, 1)), np.zeros(2), GAConfig(), FitnessParams(), np.random.default_rng(0))

    def test_finds_the_planted_subset(self):
        # one rule nails the target, the rest are noise: the GA should
        # select a subset containing the good rule and score near it
        gen = np.random.default_rng(50)
        X = gen.uniform(-1, 1, size=(100, 1))
        y = 1.5 * X[:, 0] - 0.25
        pool = Pool()
        pool.append(fit_submodel(np.array([-1.0]), np.array([1.0]), X, y, fitness_params=FitnessParams()))
        noise = gen.permutation(y)
        for _ in range(5):
            lo = gen.uniform(-1.0, 0.0, size=1)
            hi = gen.uniform(0.0, 1.0, size=1)
            pool.append(fit_submodel(lo, hi, X, noise, fitness_params=FitnessParams()))
        best = compose_solution(
            pool, None, X, y, GAConfig(population_size=16, generations=10, n_elitists=4), FitnessParams(), np.random.default_rng(51)
        )
        assert best.genome[0]
        assert best.in_sample_mse < 0.05
