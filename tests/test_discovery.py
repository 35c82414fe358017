import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulemix.rules
from rulemix import (
    ESConfig,
    FitnessParams,
    Rule,
    combine,
    discover_rules,
    evolve_rule,
    fit_submodel,
    init_interval,
    match_mask,
    mutate,
    pseudo_accuracy,
    select_seed_example,
)
from rulemix import discovery
from rulemix.discovery import _score_children
from rulemix.errors import ConfigError, EmptyMatchError, NotFittedError
from rulemix.rules import _match_matrix, _ridge_fits, _solve_ridge


class TestESConfig:
    def test_defaults(self):
        config = ESConfig()
        assert config.lambda_ == 20
        assert config.delta == 8
        assert config.n_rules == 4
        assert config.mutation_spread == 0.1
        assert config.init_spread == 0.05

    def test_validation(self):
        with pytest.raises(ConfigError):
            ESConfig(lambda_=0)
        with pytest.raises(ConfigError):
            ESConfig(delta=0)
        with pytest.raises(ConfigError):
            ESConfig(n_rules=0)
        with pytest.raises(ConfigError):
            ESConfig(mutation_spread=-0.1)
        with pytest.raises(ConfigError):
            ESConfig(lambda_=True)

    def test_numpy_integers_accepted(self):
        config = ESConfig(lambda_=np.int64(8))
        assert config.lambda_ == 8


class TestSelectSeedExample:
    def test_frequencies_proportional_to_errors(self):
        rng = np.random.default_rng(31)
        errors = np.array([1.0, 3.0, 0.0, 4.0])
        total = errors.sum()
        n = 40000
        counts = np.bincount([select_seed_example(errors, rng) for _ in range(n)], minlength=4)
        freqs = counts / n
        assert freqs == pytest.approx(errors / total, abs=0.01)
        assert counts[2] == 0

    def test_all_zero_errors_fall_back_to_uniform(self):
        rng = np.random.default_rng(17)
        errors = np.zeros(5)
        n = 50000
        counts = np.bincount([select_seed_example(errors, rng) for _ in range(n)], minlength=5)
        assert counts.min() > 0
        assert counts / n == pytest.approx(np.full(5, 0.2), abs=0.01)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            select_seed_example(np.array([]), rng)
        with pytest.raises(ValueError):
            select_seed_example(np.array([1.0, -0.5]), rng)


class TestInitInterval:
    def test_contains_seed_point(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            point = rng.uniform(-1, 1, size=3)
            lower, upper = init_interval(point, 0.05, rng)
            assert np.all(lower <= point)
            assert np.all(point <= upper)

    def test_stays_in_domain(self):
        rng = np.random.default_rng(6)
        point = np.array([0.999, -0.999])
        for _ in range(200):
            lower, upper = init_interval(point, 0.5, rng)
            assert np.all(lower >= -1.0)
            assert np.all(upper <= 1.0)

    def test_mean_halfwidth_matches_halfnormal(self):
        # |N(0, s)| has mean s * sqrt(2/pi); frozen for s = 0.05
        rng = np.random.default_rng(7)
        point = np.zeros(1)
        draws = 60000
        widths = [init_interval(point, 0.05, rng) for _ in range(draws)]
        mean_gap = float(np.mean([u[0] - point[0] for _, u in widths]))
        assert mean_gap == pytest.approx(0.039894228040143274, abs=0.001)


class TestMutate:
    def test_never_shrinks(self):
        rng = np.random.default_rng(8)
        lower = np.array([-0.3, 0.1])
        upper = np.array([0.2, 0.4])
        new_lowers, new_uppers = mutate(lower, upper, 0.1, 300, rng)
        assert new_lowers.shape == new_uppers.shape == (300, 2)
        assert np.all(new_lowers <= lower)
        assert np.all(new_uppers >= upper)
        assert np.all(new_lowers >= -1.0)
        assert np.all(new_uppers <= 1.0)

    def test_mean_width_growth(self):
        # each side grows by E|N(0, 0.1)| on average, so a width of 0.2
        # grows to 0.2 + 2 * 0.1 * sqrt(2/pi) away from the clip walls
        rng = np.random.default_rng(9)
        lower = np.array([-0.1])
        upper = np.array([0.1])
        new_lowers, new_uppers = mutate(lower, upper, 0.1, 60000, rng)
        assert float(np.mean(new_uppers[:, 0] - new_lowers[:, 0])) == pytest.approx(0.3595769121605731, abs=0.002)

    def test_one_generation_draw_equals_successive_child_draws(self):
        lower = np.array([-0.3, 0.1, 0.5])
        upper = np.array([0.2, 0.4, 0.9])
        rng = np.random.default_rng(10)
        reference = np.random.default_rng(10)
        new_lowers, new_uppers = mutate(lower, upper, 0.1, 7, rng)
        for child in range(7):
            steps = np.abs(reference.normal(0.0, 0.1, size=(2, 3)))
            assert np.maximum(lower - steps[0], -1.0).tobytes() == new_lowers[child].tobytes()
            assert np.minimum(upper + steps[1], 1.0).tobytes() == new_uppers[child].tobytes()
        assert rng.random() == reference.random()


def sequential_evolve_rule(X, y, errors, config, fitness_params, ridge_coeff, rng):
    """The reference ES run: one (2, d) mutation draw and one fit_submodel
    per child, and max over the children of a generation."""
    seed_index = select_seed_example(errors, rng)
    lower, upper = init_interval(X[seed_index], config.init_spread, rng)
    candidate = parent = fit_submodel(lower, upper, X, y, ridge_coeff, fitness_params)
    stale = 0
    while stale < config.delta:
        children = []
        for _ in range(config.lambda_):
            steps = np.abs(rng.normal(0.0, config.mutation_spread, size=(2, parent.lower.shape[0])))
            child_lower = np.maximum(parent.lower - steps[0], -1.0)
            child_upper = np.minimum(parent.upper + steps[1], 1.0)
            children.append(fit_submodel(child_lower, child_upper, X, y, ridge_coeff, fitness_params))
        parent = max(children, key=lambda child: child.fitness)
        if parent.fitness > candidate.fitness:
            candidate = parent
            stale = 0
        else:
            stale += 1
    return candidate


def rule_bits(rule):
    """Every field of a rule as bytes, so that equal means bit for bit."""
    return tuple(np.asarray(getattr(rule, f.name)).tobytes() for f in dataclasses.fields(rule))


@st.composite
def es_problems(draw):
    """Random data, ES settings and generator seed; X in either memory order.

    An init_spread of 1e-6 gives first parents that match fewer rows than
    d + 1, a mutation_spread of 2 gives children clipped to the walls at
    -1 and 1, and the target is noiseless in some draws.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 4))
    X = gen.uniform(-1.0, 1.0, size=(n, d))
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    noise = draw(st.sampled_from([0.0, 0.1]))
    y = np.where(X[:, 0] < 0.0, X @ gen.normal(size=d), 1.0) + gen.normal(0.0, noise, size=n)
    errors = gen.uniform(0.0, 1.0, size=n)
    config = ESConfig(
        lambda_=draw(st.integers(1, 8)),
        delta=draw(st.integers(1, 4)),
        mutation_spread=draw(st.sampled_from([0.03, 0.1, 0.4, 2.0])),
        init_spread=draw(st.sampled_from([1e-6, 0.05])),
    )
    ridge = draw(st.sampled_from([0.0, 0.01, 1.0]))
    return X, y, errors, config, ridge, draw(st.integers(0, 2**32 - 1))


@given(es_problems())
@settings(max_examples=150, deadline=None)
def test_evolve_rule_equals_sequential_reference_bitwise(problem):
    X, y, errors, config, ridge, seed = problem
    params = FitnessParams()
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    rule = evolve_rule(X, y, errors, config, params, ridge, rng)
    reference = sequential_evolve_rule(X, y, errors, config, params, ridge, reference_rng)
    assert rule_bits(rule) == rule_bits(reference)
    assert rng.random() == reference_rng.random()


# child spreads for single generations; a spread of 1e-6 would make
# whole ES runs take millions of generations
CHILD_SPREADS = st.sampled_from([1e-6, 0.03, 0.4, 2.0])


def test_best_box_scored_again_is_no_improvement():
    # the run's parent grows to the whole box [-1, 1]^3, whose children
    # are all that box again; their batched fitness rounds two ulps above
    # the best, which must not count as an improvement and lengthen the run
    X = np.array(
        [
            [-0.8287016657127513, -0.5263789868078006, 0.6025489304127938],
            [0.16432407212873557, -0.8117427155192016, -0.1337461195270524],
            [-0.04189740371833195, -0.6805221707258429, 0.46915430281842907],
        ]
    )
    y = np.array([-3.1132306130882372, 0.933195365389105, -0.5638311580515464])
    errors = np.array([0.9562672548360985, 0.28420116374879145, 0.648547207079825])
    config = ESConfig(lambda_=4, delta=1, mutation_spread=0.1, init_spread=1e-06)
    rng = np.random.default_rng(60)
    reference_rng = np.random.default_rng(60)
    rule = evolve_rule(X, y, errors, config, FitnessParams(), 0.01, rng)
    reference = sequential_evolve_rule(X, y, errors, config, FitnessParams(), 0.01, reference_rng)
    assert rule.lower.tolist() == [-1.0, -1.0, -1.0] and rule.upper.tolist() == [1.0, 1.0, 1.0]
    assert rule_bits(rule) == rule_bits(reference)
    assert rng.random() == reference_rng.random()


def generation(problem, n_children, spread):
    """A parent drawn around a random row and n_children children of it,
    with rows added on the children's corners to test the closed bounds."""
    X, y, errors, config, ridge, seed = problem
    rng = np.random.default_rng(seed)
    lower, upper = init_interval(X[rng.integers(X.shape[0])], config.init_spread, rng)
    lowers, uppers = mutate(lower, upper, spread, n_children, rng)
    order = "F" if np.isfortran(X) else "C"
    X = np.vstack([X, lowers, uppers]).copy(order=order)
    y = np.concatenate([y, rng.normal(size=2 * n_children)])
    return lowers, uppers, X, y, ridge


def reference_ridge_fit(lower, upper, X, y, ridge_coeff, fitness_params=None):
    """The batched ridge fits' independent reference: one box's matched
    rows centred on their own means, its ridge system built from the
    centred rows and its MSE summed from the residuals of the fitted line
    on the raw rows, as a Rule."""
    mask = match_mask(lower, upper, X)
    n_matched = int(np.count_nonzero(mask))
    Xm, ym = X[mask], y[mask]
    x_mean = np.add.reduce(Xm, axis=0) / n_matched
    y_mean = np.add.reduce(ym) / n_matched
    Xc = Xm - x_mean
    gram = Xc.T @ Xc
    gram.flat[:: Xm.shape[1] + 1] += ridge_coeff
    coefficients = _solve_ridge(gram[None], (Xc.T @ (ym - y_mean))[None])[0]
    intercept = float(y_mean - x_mean @ coefficients)
    residuals = ym - (Xm @ coefficients + intercept)
    mse = float(residuals @ residuals) / n_matched
    volume = float(np.prod((upper - lower) / 2.0))
    fitness = 0.0 if fitness_params is None else combine(pseudo_accuracy(mse, fitness_params.beta), volume, fitness_params.alpha)
    return Rule(lower, upper, coefficients, intercept, mse, n_matched, volume, fitness)


def rounding_floor(rule, X, y, ridge):
    """Absolute error that an in-sample MSE from the normal equations can
    carry: eps times the condition number of the centred Gram matrix times
    the mean square of the largest terms the residuals are differences of.
    It is infinite where the Gram matrix is singular."""
    mask = match_mask(rule.lower, rule.upper, X)
    Xm, ym = X[mask], y[mask]
    Xc = Xm - Xm.mean(axis=0)
    gram = Xc.T @ Xc + ridge * np.eye(X.shape[1])
    terms = np.abs(ym) + np.abs(Xm @ rule.coefficients) + abs(rule.intercept)
    return np.finfo(float).eps * np.linalg.cond(gram) * np.mean(terms**2)


@given(es_problems(), st.integers(1, 12), CHILD_SPREADS)
@settings(max_examples=150, deadline=None)
def test_generation_scores_match_fit_submodel(problem, n_children, spread):
    # fitness within 1e-12 and MSE within 1e-10 of the centred reference
    # fit's, each plus what rounding in the normal equations allows
    lowers, uppers, X, y, ridge = generation(problem, n_children, spread)
    params = FitnessParams()
    matched = _match_matrix(lowers, uppers, X)
    fitnesses = _score_children(lowers, uppers, X, y, ridge, params)
    mses = _ridge_fits(lowers, uppers, X, y, ridge)[2]
    assert len(fitnesses) == mses.size == n_children
    for child in range(n_children):
        assert matched[child].tobytes() == match_mask(lowers[child], uppers[child], X).tobytes()
        reference = reference_ridge_fit(lowers[child], uppers[child], X, y, ridge, params)
        floor = rounding_floor(reference, X, y, ridge)
        assert mses[child] >= 0.0
        assert abs(mses[child] - reference.in_sample_mse) <= 1e-10 * reference.in_sample_mse + floor
        # the fitness moves at most (1 + alpha**2) * beta times as far as the MSE
        fitness_floor = (1 + params.alpha**2) * params.beta * floor
        assert abs(fitnesses[child] - reference.fitness) <= 1e-12 * reference.fitness + fitness_floor


@given(es_problems(), st.integers(1, 12), CHILD_SPREADS, st.integers(1, 4000))
@settings(max_examples=100, deadline=None)
def test_chunked_generation_matches_one_chunk(problem, n_children, spread, chunk_bytes):
    lowers, uppers, X, y, ridge = generation(problem, n_children, spread)
    with mock.patch.object(rulemix.rules, "CHUNK_BYTES", 1 << 40):
        whole = _ridge_fits(lowers, uppers, X, y, ridge)[2]
    with mock.patch.object(rulemix.rules, "CHUNK_BYTES", chunk_bytes):
        chunked = _ridge_fits(lowers, uppers, X, y, ridge)[2]
    for child in range(n_children):
        reference = reference_ridge_fit(lowers[child], uppers[child], X, y, ridge)
        floor = rounding_floor(reference, X, y, ridge)
        assert abs(chunked[child] - whole[child]) <= 1e-10 * whole[child] + floor


def test_generation_over_many_chunks_matches_one_chunk():
    X, y = TestEvolveRule.toy_problem(n=2000)
    rng = np.random.default_rng(8)
    lowers, uppers = mutate(np.array([-0.2]), np.array([0.1]), 0.3, 20, rng)
    whole = _ridge_fits(lowers, uppers, X, y, 0.01)[2]
    # one row per chunk
    with mock.patch.object(rulemix.rules, "CHUNK_BYTES", 1):
        chunked = _ridge_fits(lowers, uppers, X, y, 0.01)[2]
    assert chunked == pytest.approx(whole, rel=1e-12)
    assert whole == pytest.approx([reference_ridge_fit(lo, up, X, y, 0.01).in_sample_mse for lo, up in zip(lowers, uppers)], rel=1e-12)


def float_bits(values):
    return np.asarray(values, dtype=float).tobytes()


@given(es_problems(), CHILD_SPREADS)
@settings(max_examples=150, deadline=None)
def test_fit_submodel_is_a_generation_of_one(problem, spread):
    """fit_submodel on a box gives, bit for bit, the fit, MSE and fitness
    that _ridge_fits and _score_children give the one-box generation."""
    lowers, uppers, X, y, ridge = generation(problem, 1, spread)
    params = FitnessParams()
    rule = fit_submodel(lowers[0], uppers[0], X, y, ridge, params)
    coefficients, intercepts, mses, counts = _ridge_fits(lowers, uppers, X, y, ridge)
    assert float_bits(rule.coefficients) == float_bits(coefficients[0])
    assert float_bits([rule.intercept, rule.in_sample_mse, rule.experience]) == float_bits([intercepts[0], mses[0], counts[0]])
    assert float_bits([rule.fitness]) == float_bits(_score_children(lowers, uppers, X, y, ridge, params))


class TestGenerationChecks:
    """fit_submodel's checks still apply to every child, once per generation."""

    @staticmethod
    def run_with_children(monkeypatch, lowers, uppers, y=None):
        X, toy_y = TestEvolveRule.toy_problem()
        monkeypatch.setattr(discovery, "mutate", lambda *args: (np.array(lowers), np.array(uppers)))
        evolve_rule(X, toy_y if y is None else y, np.ones(len(X)), ESConfig(), FitnessParams(), 0.01, np.random.default_rng(3))

    def test_inverted_child_raises_value_error(self, monkeypatch):
        with pytest.raises(ValueError, match="-1 <= lower <= upper <= 1"):
            self.run_with_children(monkeypatch, [[-0.5], [0.3]], [[0.5], [0.2]])

    def test_child_outside_the_box_raises_value_error(self, monkeypatch):
        with pytest.raises(ValueError, match="-1 <= lower <= upper <= 1"):
            self.run_with_children(monkeypatch, [[-0.5], [-1.5]], [[0.5], [0.2]])

    def test_child_matching_no_row_raises_empty_match(self, monkeypatch):
        X, _ = TestEvolveRule.toy_problem()
        top = float(X.max())
        with pytest.raises(EmptyMatchError):
            self.run_with_children(monkeypatch, [[-1.0], [top + 1e-9]], [[1.0], [1.0]])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_target_raises_not_fitted(self, monkeypatch):
        # the seed interval misses the bad row, the whole-box child does not
        X, y = TestEvolveRule.toy_problem()
        y = y.copy()
        y[np.argmax(X[:, 0])] = np.inf
        monkeypatch.setattr(discovery, "select_seed_example", lambda errors, rng: int(np.argmin(X[:, 0])))
        with pytest.raises(NotFittedError):
            self.run_with_children(monkeypatch, [[-1.0]], [[1.0]], y)

    def test_non_finite_target_matched_by_no_child_is_ignored(self):
        # (0.5, 0.5) lies inside the box spanning both children, in neither child
        X = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.3, 0.05], [0.5, 0.5]])
        y = np.array([1.0, 2.0, 3.0, 0.5, np.nan])
        lowers = np.array([[-0.1, -0.1], [-0.1, -0.1]])
        uppers = np.array([[0.6, 0.1], [0.1, 0.6]])
        params = FitnessParams()
        fitnesses = _score_children(lowers, uppers, X, y, 0.01, params)
        expected = [reference_ridge_fit(lo, up, X, y, 0.01, params).fitness for lo, up in zip(lowers, uppers)]
        assert fitnesses == pytest.approx(expected, rel=1e-12)


class TestEvolveRule:
    @staticmethod
    def toy_problem(n=200, seed=0):
        gen = np.random.default_rng(seed)
        X = gen.uniform(-1, 1, size=(n, 1))
        y = np.where(X[:, 0] < 0, -1.0 + 0.5 * X[:, 0], 1.0 + 0.5 * X[:, 0])
        return X, y

    def test_returns_fitted_matching_rule(self):
        X, y = self.toy_problem()
        errors = np.ones(len(X))
        rng = np.random.default_rng(21)
        rule = evolve_rule(X, y, errors, ESConfig(), FitnessParams(), 0.01, rng)
        assert rule.experience >= 1
        assert rule.fitness > 0.0
        assert math.isfinite(rule.in_sample_mse)
        assert np.count_nonzero(match_mask(rule.lower, rule.upper, X)) == rule.experience

    def test_candidate_never_worse_than_first_parent(self):
        X, y = self.toy_problem(seed=3)
        errors = (y - y.mean()) ** 2
        params = FitnessParams()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            seed_index = select_seed_example(errors, np.random.default_rng(seed))
            lower, upper = init_interval(X[seed_index], 0.05, np.random.default_rng(seed))
            first = fit_submodel(lower, upper, X, y, 0.01, params)
            rng = np.random.default_rng(seed)
            best = evolve_rule(X, y, errors, ESConfig(lambda_=6, delta=3), params, 0.01, rng)
            assert best.fitness >= first.fitness

    def test_deterministic_given_rng_state(self):
        X, y = self.toy_problem(seed=4)
        errors = np.ones(len(X))
        a = evolve_rule(X, y, errors, ESConfig(), FitnessParams(), 0.01, np.random.default_rng(77))
        b = evolve_rule(X, y, errors, ESConfig(), FitnessParams(), 0.01, np.random.default_rng(77))
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)
        assert a.fitness == b.fitness

    def test_finds_a_good_rule_on_a_clean_line(self):
        # a half-space with a perfect linear target: the ES should find a
        # rule with near-zero error and nontrivial width
        gen = np.random.default_rng(12)
        X = gen.uniform(-1, 1, size=(300, 1))
        y = 2.0 * X[:, 0] + 0.5
        errors = np.ones(len(X))
        rule = evolve_rule(X, y, errors, ESConfig(), FitnessParams(), 0.0, np.random.default_rng(13))
        assert rule.in_sample_mse < 1e-10
        assert rule.volume > 0.3


class TestDiscoverRules:
    def test_returns_n_rules(self):
        X, y = TestEvolveRule.toy_problem()
        errors = np.ones(len(X))
        rules = discover_rules(X, y, errors, ESConfig(n_rules=4, lambda_=4, delta=2), FitnessParams(), 0.01, 99, 0)
        assert len(rules) == 4

    def test_deterministic_in_seed_and_cycle(self):
        X, y = TestEvolveRule.toy_problem(seed=5)
        errors = np.ones(len(X))
        config = ESConfig(n_rules=3, lambda_=4, delta=2)
        a = discover_rules(X, y, errors, config, FitnessParams(), 0.01, 42, 1)
        b = discover_rules(X, y, errors, config, FitnessParams(), 0.01, 42, 1)
        c = discover_rules(X, y, errors, config, FitnessParams(), 0.01, 42, 2)
        d = discover_rules(X, y, errors, config, FitnessParams(), 0.01, 43, 1)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.lower, rb.lower)
            assert ra.fitness == rb.fitness
        assert any(not np.array_equal(ra.lower, rc.lower) for ra, rc in zip(a, c))
        assert any(not np.array_equal(ra.lower, rd.lower) for ra, rd in zip(a, d))

    def test_runs_are_independent_streams(self):
        # swapping run order must not change what each run produces, so
        # rules from a 2-rule call prefix-match the 3-rule call
        X, y = TestEvolveRule.toy_problem(seed=6)
        errors = np.ones(len(X))
        small = discover_rules(X, y, errors, ESConfig(n_rules=2, lambda_=4, delta=2), FitnessParams(), 0.01, 7, 0)
        large = discover_rules(X, y, errors, ESConfig(n_rules=3, lambda_=4, delta=2), FitnessParams(), 0.01, 7, 0)
        for rs, rl in zip(small, large):
            assert np.array_equal(rs.lower, rl.lower)
            assert np.array_equal(rs.upper, rl.upper)
