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
    fit_submodel,
    mix_predict,
    n_point_crossover,
    solution_objectives,
    tournament_select,
)
from rulemix import composition
from rulemix.composition import _rank_order
from rulemix.errors import ConfigError


def build_pool(n_rules=6, n=80, seed=0):
    gen = np.random.default_rng(seed)
    X = gen.uniform(-1, 1, size=(n, 2))
    y = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1]
    pool = Pool()
    for _ in range(n_rules):
        lo = gen.uniform(-1.0, -0.1, size=2)
        hi = gen.uniform(0.1, 1.0, size=2)
        pool.extend([fit_submodel(lo, hi, X, y, fitness_params=FitnessParams())])
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
        for bad in (True, "0.5", math.inf, math.nan):
            for name in ("generations", "crossover_probability", "mutation_rate", "init_density"):
                with pytest.raises(ConfigError, match=f"^{name} must be"):
                    GAConfig(**{name: bad})


class TestEvaluate:
    def test_matches_direct_recomputation_bitwise(self):
        pool, X, y = build_pool()
        params = FitnessParams()
        gen = np.random.default_rng(3)
        for _ in range(20):
            genome = gen.random(len(pool)) < 0.5
            sol = PoolEvaluator(pool, X, y).evaluate(genome, params)
            preds = mix_predict(pool[genome], X)
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
            b = PoolEvaluator(pool, X, y).evaluate(genome, params)
            assert a.fitness == b.fitness
            assert a.in_sample_mse == b.in_sample_mse

    def test_empty_genome_predicts_zero(self):
        pool, X, y = build_pool(seed=6)
        sol = PoolEvaluator(pool, X, y).evaluate(np.zeros(len(pool), dtype=bool), FitnessParams())
        assert sol.complexity == 0
        assert sol.in_sample_mse == float(np.mean(y**2))

    def test_genome_shape_check(self):
        pool, X, y = build_pool()
        with pytest.raises(ValueError):
            PoolEvaluator(pool, X, y).evaluate(np.zeros(len(pool) + 1, dtype=bool), FitnessParams())


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
        assert same_bits(a.fitness, PoolEvaluator(pool, X, y).evaluate(genome, loose).fitness)
        assert same_bits(b.fitness, PoolEvaluator(pool, X, y).evaluate(genome, strict).fitness)
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
            one_shot = PoolEvaluator(pool, X, y).evaluate(genome, params)
            assert same_bits(cached.fitness, one_shot.fitness)
            assert same_bits(cached.in_sample_mse, one_shot.in_sample_mse)
            assert cached.complexity == one_shot.complexity == int(bit) * len(pool)
        mse = float(np.mean((y - mix_predict(pool[genome], X)) ** 2))
        assert same_bits(cached.in_sample_mse, mse)


unit_floats = st.floats(-1.0, 1.0, allow_nan=False)


def draw_rows(draw) -> np.ndarray:
    d = draw(st.integers(1, 3))
    return draw(arrays(np.float64, (draw(st.integers(2, 60)), d), elements=unit_floats))


def draw_rules(draw, X: np.ndarray, count: int) -> list[Rule]:
    n, d = X.shape
    corner = arrays(np.float64, d, elements=unit_floats) | st.sampled_from(list(X))
    rules = []
    for _ in range(count):
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
    return rules


@st.composite
def pools_and_genomes(draw):
    """Random rules over random rows; bounds are sometimes a data row, so
    rows on a rule's closed edge are exercised too."""
    X = draw_rows(draw)
    rules = draw_rules(draw, X, draw(st.integers(1, 12)))
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
    assert PoolEvaluator(pool, X, y).predictions(genome).tobytes() == mix_predict(pool[genome], X).tobytes()


def reference_order(population):
    """The ranking as a Python sort key: fitness descending, then
    complexity, then position."""
    return sorted(
        range(len(population)),
        key=lambda i: (-population[i].fitness, population[i].complexity, i),
    )


@st.composite
def growing_pools(draw):
    """Rows, a target, and the rules of 2 to 5 cycles, 1 to 4 per cycle,
    added to one pool in turn."""
    X = draw_rows(draw)
    y = draw(arrays(np.float64, X.shape[0], elements=st.floats(-10.0, 10.0)))
    return X, y, [draw_rules(draw, X, draw(st.integers(1, 4))) for _ in range(draw(st.integers(2, 5)))]


@settings(max_examples=200, deadline=None)
@given(growing_pools(), st.data())
def test_grown_evaluator_equals_a_fresh_one_bitwise(case, data):
    """An evaluator grown cycle by cycle from its predecessor holds the
    terms of one built afresh over the whole pool, and predicts and
    scores the empty, a one-rule, the full and a drawn genome alike."""
    X, y, cycles = case
    pool, evaluator = Pool(), None
    for rules in cycles:
        pool.extend(rules)
        evaluator = PoolEvaluator(pool, X, y, evaluator)
    fresh = PoolEvaluator(pool, X, y)
    assert np.stack(evaluator.terms).tobytes() == np.stack(fresh.terms).tobytes()
    size = len(pool)
    one = np.arange(size) == data.draw(st.integers(0, size - 1))
    drawn = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    params = FitnessParams()
    for genome in (np.zeros(size, dtype=bool), one, np.ones(size, dtype=bool), drawn):
        assert evaluator.predictions(genome).tobytes() == fresh.predictions(genome).tobytes()
        grown, built = evaluator.evaluate(genome, params), fresh.evaluate(genome, params)
        assert same_bits(grown.fitness, built.fitness)
        assert same_bits(grown.in_sample_mse, built.in_sample_mse)
        assert grown.complexity == built.complexity
        assert grown.genome.tobytes() == built.genome.tobytes()


def test_evaluator_grows_only_from_a_prefix_on_the_same_data():
    pool, X, y = build_pool(n_rules=4, seed=13)
    previous = PoolEvaluator(pool, X, y)
    with pytest.raises(ValueError, match="prefix"):
        PoolEvaluator(pool[np.arange(3)], X, y, previous)
    with pytest.raises(ValueError, match="same X and y"):
        PoolEvaluator(pool, X, y + 1.0, previous)
    with pytest.raises(ValueError, match="same X and y"):
        PoolEvaluator(pool, X[:, ::-1], y, previous)


def test_compose_solution_carries_its_evaluator_to_the_next_run():
    """Each run pops the evaluator an earlier run left, grows it over the
    grown pool and leaves its own, and picks what a fresh run picks."""
    pool, X, y = build_pool(n_rules=4, seed=14)
    extra, _, _ = build_pool(n_rules=3, seed=15)
    config = GAConfig(population_size=8, generations=3, n_elitists=2)
    evaluators: list[PoolEvaluator] = []
    carried = compose_solution(pool, None, X, y, config, FitnessParams(), np.random.default_rng(1), evaluators=evaluators)
    first = evaluators[0]
    grown = Pool(pool)
    grown.extend(extra)
    carried = compose_solution(grown, carried, X, y, config, FitnessParams(), np.random.default_rng(2), evaluators=evaluators)
    assert len(evaluators) == 1 and evaluators[0] is not first
    assert evaluators[0].pool_size == len(grown)
    assert all(a is b for a, b in zip(evaluators[0].terms, first.terms))
    fresh = compose_solution(pool, None, X, y, config, FitnessParams(), np.random.default_rng(1))
    fresh = compose_solution(grown, fresh, X, y, config, FitnessParams(), np.random.default_rng(2))
    assert carried.genome.tobytes() == fresh.genome.tobytes()
    assert same_bits(carried.fitness, fresh.fitness)


class TestRankOrder:
    def test_ties_on_fitness_and_complexity(self):
        population = [
            individual([True, True, False], fitness=0.5),
            individual([True, True, True], fitness=0.9),
            individual([True, False, False], fitness=0.9),
            individual([False, True, False], fitness=0.9),
            individual([True, True, False], fitness=0.5),
        ]
        assert _rank_order(population).tolist() == [2, 3, 1, 0, 4] == reference_order(population)

    def test_empty_population(self):
        assert _rank_order([]).tolist() == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]), st.integers(0, 3)),
            min_size=1,
            max_size=40,
        )
    )
    def test_orders_like_the_reference_key(self, entries):
        # few distinct values, so equal fitness and exact ties are common
        population = [individual([True], fitness, complexity) for fitness, complexity in entries]
        assert _rank_order(population).tolist() == reference_order(population)


def winners(population, n_children, tournament_size, rng):
    return tournament_select(_rank_order(population), n_children, tournament_size, rng)


class TestTournament:
    def test_ties_break_on_complexity(self):
        population = [
            individual([True, True, False], fitness=0.5),
            individual([True, False, False], fitness=0.9),
            individual([True, True, True], fitness=0.9),
        ]
        # a size-50 tournament all but surely samples every index, so the
        # fitness tie between 1 and 2 must fall to 1: lower complexity
        assert (winners(population, 300, 50, np.random.default_rng(10)) == 1).all()

    def test_index_breaks_exact_ties(self):
        population = [
            individual([True, False], fitness=0.7),
            individual([False, True], fitness=0.7),
        ]
        # same fitness and complexity: the earlier individual wins every
        # tournament that samples it, which a size-50 draw all but surely does
        assert (winners(population, 100, 50, np.random.default_rng(11)) == 0).all()

    def test_sampling_with_replacement_lets_weaker_win(self):
        population = [
            individual([True, False], fitness=0.99),
            individual([False, True], fitness=0.01),
        ]
        weak = winners(population, 2000, 2, np.random.default_rng(12)) == 1
        # the weak one wins only when sampled twice: probability 1/4 in
        # each tournament, and 1/16 for both parents of a child
        assert weak.mean(axis=0) == pytest.approx([0.25, 0.25], abs=0.03)
        assert weak.all(axis=1).mean() == pytest.approx(1 / 16, abs=0.015)

    def test_returns_two_independent_winners(self):
        population = [individual([True], fitness=0.5)]
        parents = winners(population, 4, 3, np.random.default_rng(0))
        assert parents.shape == (4, 2)
        assert (parents == 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            tournament_select(_rank_order([]), 1, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            winners([individual([True], 0.5)], 1, 0, np.random.default_rng(0))


class FixedRng:
    """Stands in for the generator in n_point_crossover: hands out the
    given arrays in order and checks that each draw has their shape."""

    def __init__(self, *draws):
        self.draws = [np.asarray(draw, dtype=float) for draw in draws]

    def random(self, size):
        draw = self.draws.pop(0)
        assert draw.shape == np.empty(size).shape
        return draw


def cut_keys(length, *cuts_per_child):
    """Cut-key draws whose n smallest keys lie at the given cuts."""
    keys = np.ones((len(cuts_per_child), length - 1))
    for child, cuts in enumerate(cuts_per_child):
        keys[child, np.asarray(cuts) - 1] = np.linspace(0.0, 0.5, len(cuts))
    return keys


def segment_switches(child, a, b):
    """How often the source of a child switches between its parents,
    starting from a; None if some bit comes from neither parent."""
    if not np.all((child == a) | (child == b)):
        return None
    differ = a != b
    from_b = np.concatenate([[False], child[differ] == b[differ]])
    return int(np.count_nonzero(from_b[1:] != from_b[:-1]))


class TestCrossover:
    def test_hand_worked_single_cut(self):
        a = np.array([[1, 1, 1, 1, 0, 0, 0, 0]], dtype=bool)
        b = np.array([[0, 0, 0, 0, 1, 1, 1, 1]], dtype=bool)
        rng = FixedRng([0.0], cut_keys(8, [4]))  # cross, cut at 4
        child = n_point_crossover(a, b, 1, 1.0, rng)
        assert child.tolist() == [[True] * 8]
        assert not rng.draws

    def test_three_cut_splice_alternates_segments(self):
        a = np.zeros((2, 10), dtype=bool)
        b = np.ones((2, 10), dtype=bool)
        rng = FixedRng([0.0, 0.0], cut_keys(10, [2, 5, 7], [7, 2, 5]))
        children = n_point_crossover(a, b, 3, 1.0, rng)
        # segments: a[0:2], b[2:5], a[5:7], b[7:10], whatever the key order
        expected = [False, False, True, True, True, False, False, True, True, True]
        assert children.tolist() == [expected, expected]

    def test_skip_returns_copy_of_first_parent(self):
        a = np.array([[True, False, True, False], [False, False, True, True]])
        b = np.array([[False, True, False, True], [True, True, False, False]])
        # the first child skips crossover (0.999 >= 0.5), the second crosses at 2
        rng = FixedRng([0.999, 0.0], cut_keys(4, [2], [2]))
        children = n_point_crossover(a, b, 1, 0.5, rng)
        assert np.array_equal(children[0], a[0])
        assert children[1].tolist() == [False, False, False, False]
        assert not np.shares_memory(children, a)

    def test_child_bits_come_from_a_parent(self, rng):
        a = rng.random((50, 20)) < 0.5
        b = rng.random((50, 20)) < 0.5
        children = n_point_crossover(a, b, 3, 0.9, rng)
        for child, parent_a, parent_b in zip(children, a, b):
            assert segment_switches(child, parent_a, parent_b) <= 3

    def test_cut_positions_are_interior(self, rng):
        # with n_points = length - 1 every interior position is cut, so
        # each child must alternate single bits starting from parent a
        a = np.zeros((6, 5), dtype=bool)
        b = np.ones((6, 5), dtype=bool)
        children = n_point_crossover(a, b, 4, 1.0, rng)
        assert children.tolist() == [[False, True, False, True, False]] * 6

    def test_cuts_are_distinct_and_uniform(self):
        # complementary parents make every cut a visible switch
        n_children, length, n_points = 20_000, 9, 3
        a = np.zeros((n_children, length), dtype=bool)
        children = n_point_crossover(a, ~a, n_points, 1.0, np.random.default_rng(60))
        switched = children[:, 1:] != children[:, :-1]
        assert (switched.sum(axis=1) == n_points).all()
        # each interior position is one of k cuts out of length - 1: sd about 0.0033
        assert switched.mean(axis=0) == pytest.approx([n_points / (length - 1)] * (length - 1), abs=0.015)

    def test_crossover_decision_frequency(self):
        a = np.zeros((20_000, 4), dtype=bool)
        children = n_point_crossover(a, ~a, 1, 0.3, np.random.default_rng(61))
        assert children.any(axis=1).mean() == pytest.approx(0.3, abs=0.015)

    def test_validation(self, rng):
        a = np.zeros((2, 4), dtype=bool)
        b = np.ones((2, 4), dtype=bool)
        with pytest.raises(ValueError):
            n_point_crossover(a, b, 0, 0.9, rng)
        with pytest.raises(ValueError):
            n_point_crossover(a, b, 4, 0.9, rng)
        with pytest.raises(ValueError):
            n_point_crossover(a, np.ones((2, 5), dtype=bool), 1, 0.9, rng)
        with pytest.raises(ValueError):
            n_point_crossover(a, b, 1, 1.5, rng)
        with pytest.raises(ValueError):
            n_point_crossover(a[0], b[0], 1, 0.9, rng)


@settings(max_examples=200, deadline=None)
@given(
    population=st.integers(1, 8).flatmap(
        lambda length: st.lists(arrays(np.bool_, length), min_size=1, max_size=10)
    ),
    n_points=st.integers(1, 7),
    tournament_size=st.integers(1, 4),
    probability=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_children_without_mutation_splice_their_two_winners(population, n_points, tournament_size, probability, seed):
    # the breeding steps of one generation, as compose_solution runs them
    genomes = np.stack(population)
    length = genomes.shape[1]
    points = min(n_points, length - 1)
    rng = np.random.default_rng(seed)
    members = [individual(genome, fitness=float(i % 3)) for i, genome in enumerate(genomes)]
    parents = tournament_select(_rank_order(members), 12, tournament_size, rng)
    children = genomes[parents[:, 0]]
    if points >= 1:
        children = n_point_crossover(children, genomes[parents[:, 1]], points, probability, rng)
    children = bitflip_mutate(children, 0.0, rng)
    for child, (i, j) in zip(children, parents):
        switches = segment_switches(child, genomes[i], genomes[j])
        assert switches is not None and switches <= points
        if probability == 0.0 or points == 0:
            assert np.array_equal(child, genomes[i])


class TestBitflip:
    def test_flip_frequency(self):
        rng = np.random.default_rng(14)
        flips = bitflip_mutate(np.zeros((200, 1000), dtype=bool), 0.1, rng)
        assert flips.shape == (200, 1000)
        assert flips.mean() == pytest.approx(0.1, abs=0.005)
        assert flips.mean(axis=1) == pytest.approx([0.1] * 200, abs=0.05)
        assert len({row.tobytes() for row in flips}) == 200  # one mask per genome

    def test_rate_zero_and_one(self, rng):
        genomes = np.array([[True, False, True], [False, False, True]])
        assert np.array_equal(bitflip_mutate(genomes, 0.0, rng), genomes)
        assert np.array_equal(bitflip_mutate(genomes, 1.0, rng), ~genomes)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            bitflip_mutate(np.zeros((2, 3), dtype=bool), 1.5, rng)
        with pytest.raises(ValueError):
            bitflip_mutate(np.zeros((2, 3), dtype=bool), -0.1, rng)


class TestComposeSolution:
    def test_improves_or_keeps_previous_elitist(self):
        pool, X, y = build_pool(n_rules=8, seed=20)
        params = FitnessParams()
        config = GAConfig(population_size=12, generations=6, n_elitists=3)
        rng = np.random.default_rng(30)
        first = compose_solution(pool, None, X, y, config, params, rng)

        # grow the pool, then require monotone fitness from the padded seed
        extra_pool, _, _ = build_pool(n_rules=4, seed=21)
        pool.extend(extra_pool)
        padded = np.zeros(len(pool), dtype=bool)
        padded[: len(first.genome)] = first.genome
        seed_fitness = PoolEvaluator(pool, X, y).evaluate(padded, params).fitness
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

    def test_best_of_each_ranked_population_never_falls(self, monkeypatch):
        pool, X, y = build_pool(n_rules=8, seed=24)
        config = GAConfig(population_size=10, generations=8, n_elitists=3)
        bests: list[float] = []

        def spy(population):
            order = _rank_order(population)
            bests.append(population[order[0]].fitness)
            return order

        monkeypatch.setattr(composition, "_rank_order", spy)
        compose_solution(pool, None, X, y, config, FitnessParams(), np.random.default_rng(42))
        # the initial candidates, the population bred from in each generation and the last one
        assert len(bests) == config.generations + 2
        # elites survive unchanged, so the best never regresses
        assert all(b >= a for a, b in zip(bests, bests[1:]))

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
        pool.extend([fit_submodel(np.array([-1.0]), np.array([1.0]), X, y, fitness_params=FitnessParams())])
        noise = gen.permutation(y)
        for _ in range(5):
            lo = gen.uniform(-1.0, 0.0, size=1)
            hi = gen.uniform(0.0, 1.0, size=1)
            pool.extend([fit_submodel(lo, hi, X, noise, fitness_params=FitnessParams())])
        best = compose_solution(
            pool, None, X, y, GAConfig(population_size=16, generations=10, n_elitists=4), FitnessParams(), np.random.default_rng(51)
        )
        assert best.genome[0]
        assert best.in_sample_mse < 0.05
