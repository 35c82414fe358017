import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rulemix.rules
from rulemix import (
    FitnessParams,
    LearnerConfig,
    Pool,
    PoolEvaluator,
    Rule,
    SolutionIndividual,
    TrainedModel,
    TransformState,
    combine,
    fit_submodel,
    load_model,
    match_mask,
    mix_predict,
    pseudo_accuracy,
    save_model,
)
from rulemix.errors import EmptyMatchError, NotFittedError
from rulemix.rules import MIX_EPS, _match_matrix


def make_rule(lower, upper, coefficients, intercept=0.0, mse=0.1, experience=5):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return Rule(
        lower=lower,
        upper=upper,
        coefficients=np.asarray(coefficients, dtype=float),
        intercept=float(intercept),
        in_sample_mse=float(mse),
        experience=int(experience),
        volume=float(np.prod((upper - lower) / 2.0)),
        fitness=0.0,
    )


class TestMatching:
    def test_against_per_row_loop(self, rng):
        X = rng.uniform(-1.0, 1.0, size=(60, 4))
        lower = rng.uniform(-1.0, 0.0, size=4)
        upper = rng.uniform(0.0, 1.0, size=4)
        mask = match_mask(lower, upper, X)
        for i, row in enumerate(X):
            expected = all(lo <= v <= hi for lo, hi, v in zip(lower, upper, row))
            assert mask[i] == expected

    def test_boundary_is_inclusive(self):
        lower = np.array([-0.5, 0.0])
        upper = np.array([0.5, 0.25])
        X = np.array([[-0.5, 0.25], [0.5, 0.0], [0.5000001, 0.1]])
        assert match_mask(lower, upper, X).tolist() == [True, True, False]

    def test_matches_and_match_set(self):
        rule = make_rule([-0.5], [0.5], [1.0])
        assert match_mask(rule.lower, rule.upper, np.array([[0.5], [0.6]])).tolist() == [True, False]
        X = np.array([[-0.9], [0.0], [0.4], [0.8]])
        assert np.flatnonzero(match_mask(rule.lower, rule.upper, X)).tolist() == [1, 2]

    @pytest.mark.parametrize(
        "lower, upper, X",
        [
            ([0.0], [1.0, -5.0], [[0.5], [2.0]]),
            ([0.0, 0.0], [1.0], [[0.5, 0.5]]),
            ([[0.0]], [[1.0]], [[0.5]]),
            ([0.0, 0.0], [1.0, 1.0], [[0.5], [0.6]]),
            ([0.0], [1.0], [0.5]),
        ],
    )
    def test_malformed_bounds_or_rows_raise(self, lower, upper, X):
        """Bounds that are not 1-d, of equal length and one per column of
        a 2-d X fail closed rather than broadcast."""
        with pytest.raises(ValueError):
            match_mask(np.array(lower), np.array(upper), np.array(X))


class TestFitSubmodel:
    def test_matches_penalized_normal_equations(self, rng):
        # independent oracle: solve the full (d+1)-dim system for [X, 1]
        # with the penalty applied to the slope block only
        X = rng.uniform(-1.0, 1.0, size=(80, 3))
        y = X @ np.array([1.5, -2.0, 0.5]) + 0.7 + rng.normal(0, 0.1, size=80)
        lower = np.full(3, -1.0)
        upper = np.full(3, 1.0)
        ridge = 0.01
        rule = fit_submodel(lower, upper, X, y, ridge_coeff=ridge)

        d = X.shape[1]
        A = np.zeros((d + 1, d + 1))
        A[:d, :d] = X.T @ X + ridge * np.eye(d)
        A[:d, d] = X.sum(axis=0)
        A[d, :d] = X.sum(axis=0)
        A[d, d] = X.shape[0]
        b = np.concatenate([X.T @ y, [y.sum()]])
        solution = np.linalg.solve(A, b)

        assert rule.coefficients == pytest.approx(solution[:d], rel=1e-8)
        assert rule.intercept == pytest.approx(solution[d], rel=1e-8)

    def test_zero_ridge_matches_lstsq(self, rng):
        X = rng.uniform(-1.0, 1.0, size=(50, 2))
        y = X @ np.array([2.0, -1.0]) + 0.3 + rng.normal(0, 0.05, size=50)
        rule = fit_submodel(np.full(2, -1.0), np.full(2, 1.0), X, y, ridge_coeff=0.0)
        design = np.column_stack([X, np.ones(len(X))])
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert rule.coefficients == pytest.approx(beta[:2], rel=1e-8)
        assert rule.intercept == pytest.approx(beta[2], rel=1e-8)

    def test_one_dimensional_path_matches_oracle(self, rng):
        X = rng.uniform(-1.0, 1.0, size=(40, 1))
        y = 3.0 * X[:, 0] - 0.2 + rng.normal(0, 0.05, size=40)
        ridge = 0.01
        rule = fit_submodel(np.array([-1.0]), np.array([1.0]), X, y, ridge_coeff=ridge)
        A = np.zeros((2, 2))
        A[0, 0] = X[:, 0] @ X[:, 0] + ridge
        A[0, 1] = A[1, 0] = X[:, 0].sum()
        A[1, 1] = len(X)
        b = np.array([X[:, 0] @ y, y.sum()])
        solution = np.linalg.solve(A, b)
        assert rule.coefficients[0] == pytest.approx(solution[0], rel=1e-10)
        assert rule.intercept == pytest.approx(solution[1], rel=1e-10)

    def test_larger_ridge_shrinks_coefficients(self, rng):
        X = rng.uniform(-1.0, 1.0, size=(30, 2))
        y = X @ np.array([4.0, -3.0]) + rng.normal(0, 0.1, size=30)
        bounds = (np.full(2, -1.0), np.full(2, 1.0))
        norms = [
            float(np.linalg.norm(fit_submodel(*bounds, X, y, ridge_coeff=r).coefficients))
            for r in (0.0, 0.1, 10.0, 1000.0)
        ]
        assert norms[0] > norms[1] > norms[2] > norms[3]

    def test_only_matched_rows_enter_the_fit(self, rng):
        X = rng.uniform(-1.0, 1.0, size=(100, 1))
        y = np.where(X[:, 0] < 0, 10.0 + X[:, 0], -5.0 + 2 * X[:, 0])
        rule = fit_submodel(np.array([0.0]), np.array([1.0]), X, y, ridge_coeff=0.0)
        inside = X[:, 0] >= 0.0
        assert rule.experience == int(np.count_nonzero(inside))
        # perfect line on the matched half
        assert rule.in_sample_mse == pytest.approx(0.0, abs=1e-20)
        assert rule.coefficients[0] == pytest.approx(2.0, rel=1e-8)
        assert rule.intercept == pytest.approx(-5.0, rel=1e-8)

    def test_mse_recomputed_from_residuals(self, rng):
        X = rng.uniform(-1.0, 1.0, size=(60, 2))
        y = rng.normal(size=60)
        rule = fit_submodel(np.full(2, -1.0), np.full(2, 1.0), X, y)
        residuals = y - (X @ rule.coefficients + rule.intercept)
        assert rule.in_sample_mse == pytest.approx(float(np.mean(residuals**2)), rel=1e-12)

    def test_volume_field_matches_volume_share(self):
        X = np.array([[0.0, 0.0]])
        y = np.array([1.0])
        lower = np.array([-0.5, -0.25])
        upper = np.array([0.5, 0.25])
        rule = fit_submodel(lower, upper, X, y)
        # half of the box along the first axis, a quarter along the second
        assert rule.volume == 0.125

    def test_fitness_stamped_when_params_given(self, rng):
        X = rng.uniform(-1.0, 1.0, size=(20, 1))
        y = rng.normal(size=20)
        params = FitnessParams()
        rule = fit_submodel(np.array([-1.0]), np.array([1.0]), X, y, fitness_params=params)
        assert rule.fitness == combine(pseudo_accuracy(rule.in_sample_mse, params.beta), rule.volume, params.alpha)
        plain = fit_submodel(np.array([-1.0]), np.array([1.0]), X, y)
        assert plain.fitness == 0.0

    def test_non_finite_mse_raises_when_fitness_is_stamped(self):
        X = np.array([[0.0], [0.5]])
        y = np.array([1.0, np.inf])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NotFittedError):
                fit_submodel(np.array([-1.0]), np.array([1.0]), X, y, fitness_params=FitnessParams())
            assert math.isnan(fit_submodel(np.array([-1.0]), np.array([1.0]), X, y).in_sample_mse)

    def test_empty_match_raises(self):
        X = np.array([[0.8], [0.9]])
        y = np.array([1.0, 2.0])
        with pytest.raises(EmptyMatchError):
            fit_submodel(np.array([-1.0]), np.array([-0.5]), X, y)

    def test_invalid_bounds_rejected(self):
        X = np.array([[0.0]])
        y = np.array([0.0])
        with pytest.raises(ValueError):
            fit_submodel(np.array([0.5]), np.array([-0.5]), X, y)
        with pytest.raises(ValueError):
            fit_submodel(np.array([-1.5]), np.array([0.0]), X, y)
        with pytest.raises(ValueError):
            fit_submodel(np.array([0.0]), np.array([1.5]), X, y)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            fit_submodel(np.array([-1.0]), np.array([1.0]), np.array([[0.0]]), np.array([0.0]), ridge_coeff=-0.1)

    def test_rule_arrays_are_immutable(self, rng):
        X = rng.uniform(-1.0, 1.0, size=(10, 1))
        y = rng.normal(size=10)
        rule = fit_submodel(np.array([-1.0]), np.array([1.0]), X, y)
        with pytest.raises(ValueError):
            rule.lower[0] = 0.0
        with pytest.raises(ValueError):
            rule.coefficients[0] = 0.0


class TestRuleFitness:
    def test_frozen_chain_value(self):
        # mse 0.5 with beta 2 gives pseudo-accuracy exp(-1); blended with a
        # volume share of 0.25 at alpha 0.05
        rule = make_rule([-0.5], [0.0], [1.0], mse=0.5)
        params = FitnessParams()
        assert rule.volume == 0.25
        assert combine(pseudo_accuracy(rule.in_sample_mse, params.beta), rule.volume, params.alpha) == 0.36744737641940006

    def test_non_finite_mse_raises(self):
        rule = make_rule([-0.5], [0.5], [1.0], mse=float("nan"))
        with pytest.raises(ValueError):
            pseudo_accuracy(rule.in_sample_mse, FitnessParams().beta)


class TestPredictRule:
    """A lone rule predicts its own line at every row it matches."""

    def test_intercept_at_origin(self):
        coefficients = [2.38, 2.29, 0.68, -1.26, -0.67, 0.71, 0.60, 2.07]
        rule = make_rule(np.full(8, -1.0), np.full(8, 1.0), coefficients, intercept=3.9160)
        assert mix_predict(Pool([rule]), np.zeros((1, 8)))[0] == pytest.approx(3.9160, rel=1e-15)

    def test_is_the_dot_product(self, rng):
        rule = make_rule(np.full(3, -1.0), np.full(3, 1.0), [1.0, -2.0, 0.5], intercept=0.25)
        x = rng.uniform(-1, 1, size=3)
        expected = 1.0 * x[0] - 2.0 * x[1] + 0.5 * x[2] + 0.25
        assert mix_predict(Pool([rule]), x[None, :])[0] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        rule = make_rule([-1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            mix_predict(Pool([rule]), np.zeros((1, 2)))


class TestPool:
    def test_append_extend_len_iter(self):
        pool = Pool()
        assert len(pool) == 0
        r1 = make_rule([-1.0], [0.0], [1.0])
        r2 = make_rule([0.0], [1.0], [2.0])
        pool.extend([r1])
        pool.extend([r2])
        assert len(pool) == 2
        # the pool stores arrays, so pool[0] is an equal view, not r1 itself
        assert pool[0] == r1
        assert list(pool) == [r1, r2]

    def test_selected(self):
        rules = [make_rule([-1.0], [float(i) / 4], [1.0]) for i in range(4)]
        pool = Pool(rules)
        picked = pool[np.array([True, False, False, True])]
        assert list(picked) == [rules[0], rules[3]]

    def test_selected_length_mismatch(self):
        pool = Pool([make_rule([-1.0], [1.0], [1.0])])
        with pytest.raises(IndexError):
            pool[np.array([True, False])]


class TestMixPredict:
    def test_single_rule_equals_its_line(self, rng):
        rule = make_rule(np.full(2, -1.0), np.full(2, 1.0), [1.5, -0.5], intercept=0.1, mse=0.2)
        X = rng.uniform(-1, 1, size=(30, 2))
        expected = X @ rule.coefficients + rule.intercept
        assert mix_predict(Pool([rule]), X) == pytest.approx(expected, rel=1e-12)

    def test_matches_weighted_average_oracle(self, rng):
        rules = []
        for _ in range(5):
            lo = rng.uniform(-1.0, 0.0, size=2)
            hi = rng.uniform(0.0, 1.0, size=2)
            rules.append(
                make_rule(
                    lo,
                    hi,
                    rng.normal(size=2),
                    intercept=float(rng.normal()),
                    mse=float(rng.uniform(0.01, 1.0)),
                    experience=int(rng.integers(1, 50)),
                )
            )
        X = rng.uniform(-1, 1, size=(40, 2))
        got = mix_predict(Pool(rules), X)
        for i, x in enumerate(X):
            num = 0.0
            den = 0.0
            for rule in rules:
                if all(lo <= v <= hi for lo, hi, v in zip(rule.lower, rule.upper, x)):
                    w = rule.experience / (rule.in_sample_mse + 1e-6)
                    num += w * (rule.coefficients @ x + rule.intercept)
                    den += w
            expected = num / den if den > 0 else 0.0
            assert got[i] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_unmatched_rows_predict_zero(self):
        rule = make_rule([0.5], [1.0], [1.0], intercept=5.0)
        X = np.array([[-0.9], [0.7]])
        out = mix_predict(Pool([rule]), X)
        assert out[0] == 0.0
        assert out[1] != 0.0

    def test_lower_error_rule_dominates(self):
        sharp = make_rule([-1.0], [1.0], [0.0], intercept=1.0, mse=1e-6, experience=10)
        blunt = make_rule([-1.0], [1.0], [0.0], intercept=-1.0, mse=1.0, experience=10)
        out = mix_predict(Pool([sharp, blunt]), np.array([[0.0]]))
        assert out[0] > 0.99

    def test_empty_rule_list_predicts_zero(self):
        X = np.array([[0.1], [0.2]])
        assert mix_predict(Pool(), X).tolist() == [0.0, 0.0]

    def test_rejects_1d_input(self):
        rule = make_rule([-1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            mix_predict(Pool([rule]), np.array([0.0, 0.1]))


def test_experience_weighting_shifts_the_mix():
    # identical errors: weights reduce to experience alone, so the blend
    # sits at the experience-weighted average of the two outputs
    heavy = make_rule([-1.0], [1.0], [0.0], intercept=1.0, mse=0.5, experience=30)
    light = make_rule([-1.0], [1.0], [0.0], intercept=0.0, mse=0.5, experience=10)
    out = mix_predict(Pool([heavy, light]), np.array([[0.0]]))
    assert out[0] == pytest.approx(0.75, rel=1e-12)


@st.composite
def boxes_over_rows(draw):
    """Rows in [-1, 1]^d (some snapped to a coarse grid, so rows fall on
    box edges), a target, and boxes that each have a data row as one
    corner, so every box matches at least one row."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 300))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = gen.uniform(-1.0, 1.0, size=(n, d))
    snapped = gen.random(n) < draw(st.sampled_from([0.0, 0.5]))
    X[snapped] = np.round(X[snapped] * 4.0) / 4.0
    y = gen.normal(0.0, 1.0, size=n)
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        a = X[draw(st.integers(0, n - 1))]
        b = draw(arrays(np.float64, d, elements=st.floats(-1.0, 1.0)))
        boxes.append((np.minimum(a, b), np.maximum(a, b)))
    ridge_coeff = draw(st.sampled_from([0.01, 0.1, 1.0]))
    return X, y, boxes, ridge_coeff


def rule_bits(rule: Rule) -> tuple:
    scalars = (rule.intercept, rule.in_sample_mse, rule.volume, rule.fitness)
    return (rule.lower.tobytes(), rule.upper.tobytes(), rule.coefficients.tobytes(), rule.experience,
            np.array(scalars).tobytes())


@settings(max_examples=100, deadline=None)
@given(boxes_over_rows(), st.data())
def test_memory_order_changes_no_bit(case, data):
    """Matching, fitting and both mixing paths give the same bits on a
    C-ordered X and on its Fortran-ordered copy."""
    X, y, boxes, ridge_coeff = case
    X_fortran = np.asfortranarray(X)
    for lower, upper in boxes:
        assert np.array_equal(match_mask(lower, upper, X_fortran), match_mask(lower, upper, X))
    rules = [fit_submodel(lower, upper, X, y, ridge_coeff, FitnessParams()) for lower, upper in boxes]
    rules_fortran = [fit_submodel(lower, upper, X_fortran, y, ridge_coeff, FitnessParams()) for lower, upper in boxes]
    assert [rule_bits(rule) for rule in rules_fortran] == [rule_bits(rule) for rule in rules]
    pool = Pool(rules)
    genome = np.array(data.draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool))), dtype=bool)
    assert (
        PoolEvaluator(pool, X_fortran, y).predictions(genome).tobytes()
        == PoolEvaluator(pool, X, y).predictions(genome).tobytes()
    )
    assert mix_predict(pool, X_fortran).tobytes() == mix_predict(pool, X).tobytes()


def lstsq_ridge(X: np.ndarray, y: np.ndarray, ridge_coeff: float) -> tuple[np.ndarray, float]:
    """Ridge fit with an unpenalized intercept as one least-squares
    problem: the rows [x, 1] stacked on [sqrt(ridge_coeff) * I, 0]."""
    n, d = X.shape
    design = np.vstack([np.hstack([X, np.ones((n, 1))]), np.hstack([math.sqrt(ridge_coeff) * np.eye(d), np.zeros((d, 1))])])
    solution, *_ = np.linalg.lstsq(design, np.concatenate([y, np.zeros(d)]), rcond=None)
    return solution[:d], float(solution[d])


@settings(max_examples=100, deadline=None)
@given(boxes_over_rows())
def test_fit_submodel_agrees_with_lstsq_oracle(case):
    X, y, boxes, ridge_coeff = case
    for lower, upper in boxes:
        rule = fit_submodel(lower, upper, X, y, ridge_coeff)
        rows = np.array([np.all((lower <= x) & (x <= upper)) for x in X])
        coefficients, intercept = lstsq_ridge(X[rows], y[rows], ridge_coeff)
        scale = max(1.0, float(np.abs(coefficients).max()), abs(intercept))
        assert rule.experience == int(rows.sum())
        assert np.allclose(rule.coefficients, coefficients, rtol=0.0, atol=1e-8 * scale)
        assert rule.intercept == pytest.approx(intercept, abs=1e-8 * scale)
        residuals = y[rows] - (X[rows] @ coefficients + intercept)
        assert rule.in_sample_mse == pytest.approx(float(np.mean(residuals**2)), rel=1e-7, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(boxes_over_rows())
def test_mixed_prediction_lies_within_the_matching_rules_outputs(case):
    """A weighted average of the matching rules' outputs lies between
    their smallest and largest output, up to rounding; a row no rule
    matches predicts exactly 0.0."""
    X, y, boxes, ridge_coeff = case
    rules = [fit_submodel(lower, upper, X, y, ridge_coeff) for lower, upper in boxes]
    # rows outside every box as well as the training rows
    query = np.vstack([X, np.random.default_rng(0).uniform(-1.0, 1.0, size=(50, X.shape[1]))])
    predictions = mix_predict(Pool(rules), query)
    outputs = np.array([query @ rule.coefficients + rule.intercept for rule in rules])
    matched = np.array([match_mask(rule.lower, rule.upper, query) for rule in rules])
    for i, prediction in enumerate(predictions):
        at_row = outputs[matched[:, i], i]
        if at_row.size == 0:
            assert prediction == 0.0 and not math.copysign(1.0, prediction) < 0
            continue
        slack = 1e-12 * max(1.0, float(np.abs(at_row).max()))
        assert at_row.min() - slack <= prediction <= at_row.max() + slack


def sequential_mix(rules, X):
    """The per-rule mixing loop the chunked kernel replaced, kept as its
    oracle: each rule's weighted output is computed on the whole of X and
    added, with its weight, to running sums at the rows it matches, in
    pool order from 0.0."""
    X = np.ascontiguousarray(X, dtype=float)
    numerator = np.zeros(X.shape[0])
    denominator = np.zeros(X.shape[0])
    for rule in rules:
        mask = match_mask(rule.lower, rule.upper, X)
        weight = rule.experience / (rule.in_sample_mse + MIX_EPS)
        weighted_outputs = weight * (X @ rule.coefficients + rule.intercept)
        numerator[mask] += weighted_outputs[mask]
        denominator[mask] += weight
    predictions = np.zeros(X.shape[0])
    np.divide(numerator, denominator, out=predictions, where=denominator > 0)
    return predictions


@st.composite
def pools_over_queries(draw):
    """Random rules in [-1, 1]^d, a few with overflowing outputs, and a
    query X whose rows lie inside and outside the box, on rule bounds,
    and in places no rule matches, some of them huge, infinite or NaN;
    X may be Fortran-ordered."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 120))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rules = []
    for _ in range(draw(st.integers(0, 10))):
        a, b = gen.uniform(-1.0, 1.0, size=(2, d))
        if gen.random() < 0.3:
            b = a.copy()
        rules.append(
            make_rule(
                np.minimum(a, b),
                np.maximum(a, b),
                # 1e308-sized coefficients overflow, also where the rule does not match
                gen.normal(0.0, 3.0, size=d) if gen.random() < 0.9 else gen.choice([-1e308, 1e308], size=d),
                intercept=gen.normal(),
                mse=float(gen.choice([0.0, gen.uniform(0.0, 2.0)])),
                experience=int(gen.integers(1, 500)),
            )
        )
    X = gen.uniform(-1.5, 1.5, size=(n, d))
    for row in range(n):
        kind = gen.random()
        if rules and kind < 0.3:
            rule = rules[int(gen.integers(len(rules)))]
            X[row] = np.where(gen.random(d) < 0.5, rule.lower, rule.upper)
        elif kind < 0.35:
            X[row, int(gen.integers(d))] = gen.choice([1e308, -np.inf, np.inf, np.nan])
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    return rules, X


@settings(max_examples=300, deadline=None)
@given(pools_over_queries(), st.sampled_from([1, 32, 64, 100, 1 << 15]))
def test_mixing_kernel_equals_sequential_loop_bitwise(case, chunk_bytes):
    """mix_predict and PoolEvaluator, through the chunked kernel, give the
    bits of the per-rule loop: any d, either memory order, any number of
    chunks, empty pools and rows no rule matches, and no inf or NaN output
    of a rule reaches a row it does not match."""
    rules, X = case
    with mock.patch.object(rulemix.rules, "CHUNK_BYTES", chunk_bytes), np.errstate(over="ignore", invalid="ignore"):
        expected = sequential_mix(rules, X)
        assert mix_predict(Pool(rules), X).tobytes() == expected.tobytes()
        if rules and X.shape[0]:
            evaluator = PoolEvaluator(Pool(rules), X, np.zeros(X.shape[0]))
            assert evaluator.predictions(np.ones(len(rules), dtype=bool)).tobytes() == expected.tobytes()
            assert not evaluator.predictions(np.zeros(len(rules), dtype=bool)).any()


@settings(max_examples=100, deadline=None)
@given(pools_over_queries(), st.sampled_from(["C", "F", "strided"]))
def test_one_row_matches_and_mixes_as_in_a_batch(case, layout):
    """A row taken alone and a box taken alone over C-ordered,
    Fortran-ordered or strided rows, both through _match_matrix's
    broadcast, match as every bound compared with every row at once; a
    row alone also mixes to the bits of the per-rule loop. On-bound,
    1e308, infinite and NaN rows and empty pools are included."""
    rules, X = case
    pool = Pool(rules)
    d = X.shape[1]
    expected = np.all((X >= pool.lowers.reshape(-1, 1, d)) & (X <= pool.uppers.reshape(-1, 1, d)), axis=2)
    rows = {
        "C": np.ascontiguousarray(X),
        "F": np.asfortranarray(X),
        "strided": np.repeat(np.repeat(X, 2, axis=0), 2, axis=1)[::2, ::2],
    }[layout]
    for i in range(len(pool)):
        assert _match_matrix(pool.lowers[i : i + 1], pool.uppers[i : i + 1], rows).tolist() == expected[i : i + 1].tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(X.shape[0]):
            row = X[i : i + 1]
            assert _match_matrix(pool.lowers, pool.uppers, row).tolist() == expected[:, i : i + 1].tolist()
            assert mix_predict(pool, row).tobytes() == sequential_mix(rules, row).tobytes()


def test_batches_longer_than_one_chunk_mix_as_one():
    """Unpatched, a chunk holds 4096 rows; 10,001 rows take three, the
    last one short."""
    gen = np.random.default_rng(5)
    rules = [make_rule(*np.sort(gen.uniform(-1.0, 1.0, size=(2, 3)), axis=0), gen.normal(size=3), gen.normal()) for _ in range(9)]
    X = gen.uniform(-1.0, 1.0, size=(10_001, 3))
    assert mix_predict(Pool(rules), X).tobytes() == sequential_mix(rules, X).tobytes()


def test_one_row_mixes_eight_or_more_rules_in_pool_order():
    """On a 1-d model whose selected rules all fire at each row, a row
    predicted alone gives the bits of the same row in a batch. Summing
    the rules of one row over a 1-d vector of 8 or more values would
    take numpy's unrolled partial sums instead of pool order."""
    gen = np.random.default_rng(11)
    rules = [
        make_rule([-1.0], [1.0], gen.normal(0.0, 3.0, size=1), gen.normal(), gen.uniform(0.0, 1.0), int(gen.integers(1, 100)))
        for _ in range(16)
    ]
    pool = Pool(rules)
    X = gen.uniform(-1.0, 1.0, size=(400, 1))
    genome = np.arange(16) % 5 != 0
    assert np.count_nonzero(genome) >= 8
    transform = TransformState(feature_min=np.array([-1.0]), feature_max=np.array([1.0]), target_mean=0.25, target_std=2.0)
    elitist = PoolEvaluator(pool, X, np.zeros(X.shape[0])).evaluate(genome, FitnessParams())
    model = TrainedModel(pool=pool, elitist=elitist, transform=transform, config=LearnerConfig())
    X_raw = transform.inverse_features(X)
    batch = model.predict(X_raw)
    singles = np.array([model.predict(X_raw[i : i + 1])[0] for i in range(X.shape[0])])
    assert singles.tobytes() == batch.tobytes()
    assert mix_predict(pool[genome], X).tobytes() == sequential_mix(pool[genome], X).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_empty_pool_skips_the_stacked_product_and_predicts_zero(d):
    """An empty Pool's (0, 0) coefficients do not broadcast against the
    rows in the mixing kernel's one stacked matmul, and a selection of no
    rules has (0, d) coefficients: both predict +0.0 at every row, and a
    model that selects no rule predicts its training mean."""
    gen = np.random.default_rng(d)
    rules = [make_rule(*np.sort(gen.uniform(-1.0, 1.0, size=(2, d)), axis=0), gen.normal(size=d), gen.normal()) for _ in range(3)]
    transform = TransformState(feature_min=np.zeros(d), feature_max=np.ones(d), target_mean=2.5, target_std=3.0)
    for n in (0, 1, 5):
        X = gen.uniform(-1.0, 1.0, size=(n, d))
        for pool in (Pool(), Pool(rules)[np.zeros(3, dtype=bool)]):
            predictions = mix_predict(pool, X)
            assert predictions.shape == (n,)
            assert all(p == 0.0 and math.copysign(1.0, p) > 0 for p in predictions.tolist())
            genome = np.zeros(len(pool), dtype=bool)
            elitist = SolutionIndividual(genome=genome, fitness=0.0, complexity=0, in_sample_mse=1.0)
            model = TrainedModel(pool=pool, elitist=elitist, transform=transform, config=LearnerConfig())
            assert model.predict(transform.inverse_features(X)).tolist() == [2.5] * n


@st.composite
def wide_pools(draw):
    """0-64 rules of d = 1-8 features around query rows, some spanning
    the whole box and some a row alone, over 1-5 rows or over just
    under, at or over the unpatched 4096-row chunk or two, in C or
    Fortran order, some rows on rule bounds. A non-empty pool may be read
    back from a saved model, whose coefficients are read-only."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    k = draw(st.integers(0, 64))
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 4095, 4096, 4097, 8193]))
    X = gen.uniform(-1.2, 1.2, size=(n, d))
    centres = np.clip(X[gen.integers(n, size=k)], -1.0, 1.0)
    widths = gen.uniform(0.0, 1.5, size=(k, 2, d))
    widths[gen.random(k) < 0.1] = 0.0
    lowers, uppers = np.maximum(centres - widths[:, 0], -1.0), np.minimum(centres + widths[:, 1], 1.0)
    spanning = gen.random(k) < 0.1
    lowers[spanning], uppers[spanning] = -1.0, 1.0
    rules = [
        make_rule(lower, upper, gen.normal(0.0, 3.0, size=d), gen.normal(), float(gen.choice([0.0, gen.uniform(0.0, 2.0)])), int(gen.integers(1, 500)))
        for lower, upper in zip(lowers, uppers)
    ]
    if k:
        for row in np.flatnonzero(gen.random(n) < 0.05):
            i = int(gen.integers(k))
            X[row] = np.where(gen.random(d) < 0.5, lowers[i], uppers[i])
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    return rules, X, k > 0 and draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(wide_pools())
def test_stacked_mixing_keeps_each_rules_rounding_at_any_width(case):
    """The mixing kernel computes every rule's outputs in one matmul over
    the stacked coefficients, yet mix_predict, PoolEvaluator and rows
    mixed alone give the bits of the per-rule loop, for d up to 8, up to
    64 rules, the chunk boundary and its 4-row alignment crossed, and the
    read-only coefficients of a loaded model."""
    rules, X, saved = case
    pool = Pool(rules)
    if saved:
        genome = np.ones(len(rules), dtype=bool)
        elitist = SolutionIndividual(genome=genome, fitness=0.0, complexity=len(rules), in_sample_mse=1.0)
        transform = TransformState(feature_min=np.zeros(X.shape[1]), feature_max=np.ones(X.shape[1]), target_mean=0.0, target_std=1.0)
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "model.json")
            save_model(TrainedModel(pool=pool, elitist=elitist, transform=transform, config=LearnerConfig()), path)
            pool = load_model(path).pool
        assert not pool.coefficients.flags.writeable
        assert pool.coefficients.tobytes() == Pool(rules).coefficients.tobytes()
    expected = sequential_mix(rules, X)
    assert mix_predict(pool, X).tobytes() == expected.tobytes()
    for i in range(min(X.shape[0], 3)):
        assert mix_predict(pool, X[i : i + 1]).tobytes() == sequential_mix(rules, X[i : i + 1]).tobytes()
    if rules:
        evaluator = PoolEvaluator(pool, X, np.zeros(X.shape[0]))
        assert evaluator.predictions(np.ones(len(rules), dtype=bool)).tobytes() == expected.tobytes()
        genome = np.random.default_rng(len(rules)).random(len(rules)) < 0.5
        assert evaluator.predictions(genome).tobytes() == sequential_mix(pool[genome], X).tobytes()


def reference_ridge_fits(lowers, uppers, X, y, ridge_coeff):
    """_ridge_fits as it was before its fixed cost was cut: the pair
    layout rebuilt, the union rows and the match matrix found by
    comparisons written out here, the ridge systems read from a filled
    (k, d + 2, d + 2) scatter and the model column-stacked. Only the
    stacked solve, _solve_ridge, is shared."""
    n_boxes, d = lowers.shape
    low, high = lowers.min(axis=0), uppers.max(axis=0)
    in_box = np.flatnonzero(np.all((X >= low) & (X <= high), axis=1))
    Z = np.empty((d + 2, in_box.size))
    Z[0] = 1.0
    Z[1 : d + 1] = X.T[:, in_box]
    rows_in_box = X[in_box]
    matched = np.all((rows_in_box[None] >= lowers[:, None]) & (rows_in_box[None] <= uppers[:, None]), axis=2)
    shift = (lowers.max(axis=0) + uppers.min(axis=0)) / 2.0
    Z[1 : d + 1] -= shift[:, None]
    Z[d + 1] = np.where(matched.any(axis=0), y[in_box], 0.0)
    first, second = np.nonzero(np.tri(d + 2, dtype=bool).T)
    chunk = max(1, rulemix.rules.CHUNK_BYTES // (8 * max(n_boxes, first.size)))
    chunks = [slice(start, start + chunk) for start in range(0, in_box.size, chunk)]
    moments = np.zeros((n_boxes, first.size))
    for rows in chunks:
        z = Z[:, rows]
        moments += matched[:, rows].astype(float) @ (z[first] * z[second]).T
    sums = moments[:, : d + 2]
    counts = sums[:, 0]
    if not counts.all():
        raise EmptyMatchError("rule matches no training example")
    scatter = np.empty((n_boxes, d + 2, d + 2))
    scatter[:, first, second] = scatter[:, second, first] = moments - sums[:, first] * sums[:, second] / counts[:, None]
    coefficients = rulemix.rules._solve_ridge(
        scatter[:, 1 : d + 1, 1 : d + 1] + ridge_coeff * np.eye(d), scatter[:, 1 : d + 1, d + 1]
    )
    intercepts = (sums[:, d + 1] - np.einsum("ij,ij->i", sums[:, 1 : d + 1], coefficients)) / counts
    model = np.column_stack([intercepts, coefficients])
    squared_errors = np.zeros(n_boxes)
    for rows in chunks:
        residuals = Z[d + 1, rows] - model @ Z[: d + 1, rows]
        residuals *= matched[:, rows]
        squared_errors += np.einsum("ij,ij->i", residuals, residuals)
    return coefficients, intercepts - coefficients @ shift, squared_errors / counts, counts


@st.composite
def ridge_generations(draw):
    """An ES-like generation: k boxes around a data row, some of them
    that row alone or a box between rows, over rows that may be
    Fortran-ordered, some on a coarse grid, and a target of any scale."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 800))
    k = draw(st.integers(1, 25))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = gen.uniform(-1.0, 1.0, size=(n, d))
    snapped = gen.random(n) < draw(st.sampled_from([0.0, 0.5]))
    X[snapped] = np.round(X[snapped] * 4.0) / 4.0
    y = gen.normal(0.0, 1.0, size=n) * draw(st.sampled_from([1e-8, 1.0, 1e8]))
    centre = X[gen.integers(n)]
    widths = gen.uniform(0.0, draw(st.sampled_from([0.05, 0.5, 2.0])), size=(k, 2, d))
    # a zero width leaves the box the centre row alone
    widths[gen.random(k) < 0.2] = 0.0
    lowers, uppers = np.maximum(centre - widths[:, 0], -1.0), np.minimum(centre + widths[:, 1], 1.0)
    if draw(st.booleans()):
        # a box beside the centre may match no row
        lowers[0], uppers[0] = np.sort(gen.uniform(-1.0, 1.0, size=(2, d)) * 0.01 + centre, axis=0)
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    return lowers, uppers, X, y, draw(st.sampled_from([0.0, 0.01, 1.0]))


@settings(max_examples=300, deadline=None)
@given(ridge_generations(), st.sampled_from([8, 64, 512, 1 << 15]))
def test_ridge_fits_equal_the_scatter_formulation_bitwise(case, chunk_bytes):
    """_ridge_fits gives the bits of the scatter formulation for one box
    and for a generation, in many chunks or one, and raises
    EmptyMatchError exactly where it does."""
    lowers, uppers, X, y, ridge_coeff = case
    with mock.patch.object(rulemix.rules, "CHUNK_BYTES", chunk_bytes), np.errstate(all="ignore"):
        for k in sorted({1, lowers.shape[0]}):
            try:
                expected = [a.tobytes() for a in reference_ridge_fits(lowers[:k], uppers[:k], X, y, ridge_coeff)]
            except EmptyMatchError:
                with pytest.raises(EmptyMatchError):
                    rulemix.rules._ridge_fits(lowers[:k], uppers[:k], X, y, ridge_coeff)
                continue
            assert [a.tobytes() for a in rulemix.rules._ridge_fits(lowers[:k], uppers[:k], X, y, ridge_coeff)] == expected
