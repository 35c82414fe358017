import math

import numpy as np
import pytest

from rulemix import (
    FitnessParams,
    Pool,
    Rule,
    fit_submodel,
    match_mask,
    match_set,
    mix_predict,
    rule_fitness,
)
from rulemix.errors import EmptyMatchError, NotFittedError


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
        assert match_set(rule, X).tolist() == [1, 2]


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
        assert rule.fitness == rule_fitness(rule, params)
        plain = fit_submodel(np.array([-1.0]), np.array([1.0]), X, y)
        assert plain.fitness == 0.0

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
        assert rule.volume == 0.25
        assert rule_fitness(rule, FitnessParams()) == 0.36744737641940006

    def test_non_finite_mse_raises(self):
        rule = make_rule([-0.5], [0.5], [1.0], mse=float("nan"))
        with pytest.raises(NotFittedError):
            rule_fitness(rule, FitnessParams())


class TestPredictRule:
    """A lone rule predicts its own line at every row it matches."""

    def test_intercept_at_origin(self):
        coefficients = [2.38, 2.29, 0.68, -1.26, -0.67, 0.71, 0.60, 2.07]
        rule = make_rule(np.full(8, -1.0), np.full(8, 1.0), coefficients, intercept=3.9160)
        assert mix_predict([rule], np.zeros((1, 8)))[0] == pytest.approx(3.9160, rel=1e-15)

    def test_is_the_dot_product(self, rng):
        rule = make_rule(np.full(3, -1.0), np.full(3, 1.0), [1.0, -2.0, 0.5], intercept=0.25)
        x = rng.uniform(-1, 1, size=3)
        expected = 1.0 * x[0] - 2.0 * x[1] + 0.5 * x[2] + 0.25
        assert mix_predict([rule], x[None, :])[0] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        rule = make_rule([-1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            mix_predict([rule], np.zeros((1, 2)))


class TestPool:
    def test_append_extend_len_iter(self):
        pool = Pool()
        assert len(pool) == 0
        r1 = make_rule([-1.0], [0.0], [1.0])
        r2 = make_rule([0.0], [1.0], [2.0])
        pool.append(r1)
        pool.extend([r2])
        assert len(pool) == 2
        assert pool[0] is r1
        assert list(pool) == [r1, r2]

    def test_selected(self):
        rules = [make_rule([-1.0], [float(i) / 4], [1.0]) for i in range(4)]
        pool = Pool(rules)
        picked = pool.selected(np.array([True, False, False, True]))
        assert picked == [rules[0], rules[3]]

    def test_selected_length_mismatch(self):
        pool = Pool([make_rule([-1.0], [1.0], [1.0])])
        with pytest.raises(ValueError):
            pool.selected(np.array([True, False]))


class TestMixPredict:
    def test_single_rule_equals_its_line(self, rng):
        rule = make_rule(np.full(2, -1.0), np.full(2, 1.0), [1.5, -0.5], intercept=0.1, mse=0.2)
        X = rng.uniform(-1, 1, size=(30, 2))
        expected = X @ rule.coefficients + rule.intercept
        assert mix_predict([rule], X) == pytest.approx(expected, rel=1e-12)

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
        got = mix_predict(rules, X)
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
        out = mix_predict([rule], X)
        assert out[0] == 0.0
        assert out[1] != 0.0

    def test_lower_error_rule_dominates(self):
        sharp = make_rule([-1.0], [1.0], [0.0], intercept=1.0, mse=1e-6, experience=10)
        blunt = make_rule([-1.0], [1.0], [0.0], intercept=-1.0, mse=1.0, experience=10)
        out = mix_predict([sharp, blunt], np.array([[0.0]]))
        assert out[0] > 0.99

    def test_empty_rule_list_predicts_zero(self):
        X = np.array([[0.1], [0.2]])
        assert mix_predict([], X).tolist() == [0.0, 0.0]

    def test_rejects_1d_input(self):
        rule = make_rule([-1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            mix_predict([rule], np.array([0.0, 0.1]))


def test_experience_weighting_shifts_the_mix():
    # identical errors: weights reduce to experience alone, so the blend
    # sits at the experience-weighted average of the two outputs
    heavy = make_rule([-1.0], [1.0], [0.0], intercept=1.0, mse=0.5, experience=30)
    light = make_rule([-1.0], [1.0], [0.0], intercept=0.0, mse=0.5, experience=10)
    out = mix_predict([heavy, light], np.array([[0.0]]))
    assert out[0] == pytest.approx(0.75, rel=1e-12)
