import json
import math
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulemix.learner
import rulemix.rules
from rulemix import (
    ESConfig,
    FitnessParams,
    GAConfig,
    LearnerConfig,
    Pool,
    Rule,
    TrainedModel,
    TransformState,
    config_from_dict,
    config_to_dict,
    fit,
    fit_transform,
    mix_predict,
    model_document,
)
from rulemix.composition import SolutionIndividual
from rulemix.cli import BenchmarkSettings, _flatten
from rulemix.errors import ConfigError, DataError

from conftest import linear_data, small_config


class TestLearnerConfig:
    def test_defaults(self):
        config = LearnerConfig()
        assert config.n_iter == 32
        assert config.ridge_coeff == 0.01
        assert config.master_seed == 0
        assert config.es.n_rules == 4
        assert config.ga.population_size == 32

    def test_validation(self):
        with pytest.raises(ConfigError):
            LearnerConfig(n_iter=0)
        with pytest.raises(ConfigError):
            LearnerConfig(ridge_coeff=-1.0)
        with pytest.raises(ConfigError):
            LearnerConfig(master_seed=-1)
        with pytest.raises(ConfigError):
            LearnerConfig(master_seed=2**64)
        for bad in (True, "3", math.inf, math.nan):
            for name in ("n_iter", "ridge_coeff", "master_seed"):
                with pytest.raises(ConfigError, match=f"^{name} must be"):
                    LearnerConfig(**{name: bad})
        with pytest.raises(ConfigError):
            LearnerConfig(ridge_coeff=10**400)

    def test_every_setting_has_exactly_one_kind(self):
        """Each field of a config dataclass that is not a section has one
        entry in the kind table, so a new field cannot skip the check."""
        for cls in (LearnerConfig, ESConfig, GAConfig, FitnessParams, BenchmarkSettings):
            settings = [f.name for f in fields(cls) if not is_dataclass(f.default_factory)]
            assert [f.name for f in fields(cls) if "kind" in f.metadata] == settings, cls.__name__


class TestConfigDict:
    def test_round_trip_identity(self):
        config = LearnerConfig(
            n_iter=5,
            ridge_coeff=0.02,
            master_seed=9,
            es=ESConfig(lambda_=7, delta=3, n_rules=2, mutation_spread=0.2, init_spread=0.01),
            ga=GAConfig(population_size=8, generations=4, n_elitists=2, mutation_rate=0.125),
            rule_fitness=FitnessParams(alpha=0.1, beta=1.0),
            solution_fitness=FitnessParams(alpha=0.2, beta=3.0),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_lambda_spelled_without_underscore(self):
        doc = config_to_dict(LearnerConfig())
        assert "lambda" in doc["es"]
        assert "lambda_" not in doc["es"]

    def test_partial_override(self):
        doc = {"es": {"lambda": 5}, "n_iter": 2}
        config = config_from_dict(doc)
        assert config.es.lambda_ == 5
        assert config.es.delta == 8
        assert config.n_iter == 2

    def test_partial_override_on_base(self):
        base = small_config(master_seed=3)
        config = config_from_dict({"ga": {"generations": 9}}, base=base)
        assert config.ga.generations == 9
        assert config.ga.population_size == base.ga.population_size
        assert config.master_seed == 3

    def test_every_config_error_names_the_key_users_write(self):
        """A bad value of each key of config_to_dict, the keys of config
        files and --set, raises an error that begins with that key."""
        for key, _ in _flatten(config_to_dict(LearnerConfig())):
            *sections, name = key.split(".")
            doc = {name: "bad"}
            for section in reversed(sections):
                doc = {section: doc}
            with pytest.raises(ConfigError) as err:
                config_from_dict(doc)
            assert str(err.value).startswith(f"{key} must be "), str(err.value)

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"es": {"lambada": 5}})
        assert "lambada" in str(err.value)
        with pytest.raises(ConfigError) as err:
            config_from_dict({"madeup": 1})
        assert "madeup" in str(err.value)

    def test_invalid_values_still_validated(self):
        with pytest.raises(ConfigError):
            config_from_dict({"es": {"lambda": 0}})


class TestFit:
    def test_learns_a_linear_function(self):
        X, y = linear_data(n=150, d=1, seed=2)
        model = fit(X, y, small_config(n_iter=4))
        X_test, y_test = linear_data(n=60, d=1, seed=3)
        inside = (X_test[:, 0] >= X.min()) & (X_test[:, 0] <= X.max())
        predictions = model.predict(X_test[inside])
        mse = float(np.mean((y_test[inside] - predictions) ** 2))
        assert mse < 0.5 * float(np.var(y_test[inside]))

    def test_pool_growth_and_history_length(self):
        X, y = linear_data(n=80, d=2, seed=4)
        config = small_config(n_iter=3)
        model = fit(X, y, config)
        assert len(model.pool) == config.n_iter * config.es.n_rules
        assert len(model.fitness_history) == config.n_iter
        assert len(model.elitist.genome) == len(model.pool)
        assert model.complexity == int(np.count_nonzero(model.elitist.genome))

    def test_fitness_history_is_monotone(self):
        X, y = linear_data(n=100, d=1, noise=0.3, seed=5)
        model = fit(X, y, small_config(n_iter=5))
        history = model.fitness_history
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_falling_fitness_raises_runtime_error(self, monkeypatch):
        real_compose = rulemix.learner.compose_solution
        calls = []

        def worsening_compose(*args, **kwargs):
            best = real_compose(*args, **kwargs)
            calls.append(best)
            if len(calls) < 2:
                return best
            return SolutionIndividual(
                genome=best.genome,
                fitness=calls[0].fitness / 2,
                complexity=best.complexity,
                in_sample_mse=best.in_sample_mse,
            )

        monkeypatch.setattr(rulemix.learner, "compose_solution", worsening_compose)
        X, y = linear_data(n=60, d=1, seed=5)
        with pytest.raises(RuntimeError, match="fell between cycles"):
            fit(X, y, small_config(n_iter=3))
        assert len(calls) == 2

    def test_same_seed_same_model(self):
        X, y = linear_data(n=80, d=2, seed=6)
        a = fit(X, y, small_config(master_seed=11))
        b = fit(X, y, small_config(master_seed=11))
        assert np.array_equal(a.elitist.genome, b.elitist.genome)
        assert a.elitist.fitness == b.elitist.fitness
        for ra, rb in zip(a.pool, b.pool):
            assert np.array_equal(ra.lower, rb.lower)
            assert np.array_equal(ra.coefficients, rb.coefficients)

    def test_different_seed_different_model(self):
        X, y = linear_data(n=80, d=2, noise=0.5, seed=7)
        a = fit(X, y, small_config(master_seed=1))
        b = fit(X, y, small_config(master_seed=2))
        assert any(
            not np.array_equal(ra.lower, rb.lower) for ra, rb in zip(a.pool, b.pool)
        )

    def test_default_config_used_when_none(self):
        # tiny data keeps the default-size run affordable
        X, y = linear_data(n=40, d=1, seed=8)
        config = LearnerConfig(n_iter=1, es=ESConfig(lambda_=3, delta=1, n_rules=1), ga=GAConfig(population_size=4, generations=1, n_elitists=1))
        model = fit(X, y, config)
        assert model.config is config

    def test_predict_validates_shape(self):
        X, y = linear_data(n=60, d=2, seed=9)
        model = fit(X, y, small_config())
        with pytest.raises(DataError):
            model.predict(np.zeros(2))

    def test_predict_round_trips_scaling(self):
        X, y = linear_data(n=90, d=2, seed=10)
        model = fit(X, y, small_config())
        X_query = X[:17]
        scaled = model.transform.transform_features(X_query)
        manual = model.transform.inverse_target(mix_predict(model.selected_rules, scaled))
        assert np.array_equal(model.predict(X_query), manual)


class TestMixingBehavior:
    def test_two_disjoint_rules_blend_to_their_own_lines(self):
        # hand-built model: x < 0 predicts 2 (scaled), x > 0 predicts -1
        lower_a, upper_a = np.array([-1.0]), np.array([0.0])
        lower_b, upper_b = np.array([0.0]), np.array([1.0])
        rule_a = Rule(lower_a, upper_a, np.zeros(1), 2.0, 0.1, 10, 0.5, 0.5)
        rule_b = Rule(lower_b, upper_b, np.zeros(1), -1.0, 0.1, 10, 0.5, 0.5)
        X = np.array([[-0.5], [0.5]])
        out = mix_predict(Pool([rule_a, rule_b]), X)
        assert out.tolist() == [2.0, -1.0]
        # at the shared boundary both rules match with equal weight
        out_mid = mix_predict(Pool([rule_a, rule_b]), np.array([[0.0]]))
        assert out_mid[0] == pytest.approx(0.5, rel=1e-12)


def four_feature_data(n: int = 1000, seed: int = 1):
    gen = np.random.default_rng(seed)
    X = gen.uniform(0.0, 1.0, size=(n, 4))
    return X, np.sin(3.0 * X[:, 0]) + X[:, 1] * X[:, 2] + X[:, 3]


class TestInputLayout:
    """The caller's memory order of X changes neither the model nor its
    predictions; X @ coefficients rounds differently on Fortran order,
    so the features have to reach the mixer C-ordered."""

    # a case where the fitted model used to depend on the input order
    CONFIG = small_config(master_seed=1, es=ESConfig(lambda_=6, delta=2, n_rules=8))

    def test_fortran_ordered_training_data_gives_the_same_model(self):
        X, y = four_feature_data()
        from_c = fit(X, y, self.CONFIG)
        from_fortran = fit(np.asfortranarray(X), y, self.CONFIG)
        assert model_document(from_fortran) == model_document(from_c)
        assert np.array_equal(from_fortran.predict(X), from_c.predict(X))

    def test_fortran_ordered_query_gives_the_same_predictions(self):
        X, y = four_feature_data(n=400, seed=2)
        model = fit(X, y, small_config(master_seed=2))
        query = np.random.default_rng(3).uniform(0.0, 1.0, size=(2000, 4))
        assert np.array_equal(model.predict(np.asfortranarray(query)), model.predict(query))
        scaled = model.transform.transform_features(query)
        assert np.array_equal(model.predict_scaled(np.asfortranarray(scaled)), model.predict_scaled(scaled))

    def test_scaled_features_are_c_ordered(self):
        X, y = four_feature_data(n=50)
        transform, X_scaled, _ = fit_transform(np.asfortranarray(X), y)
        assert X_scaled.flags.c_contiguous
        assert transform.transform_features(np.asfortranarray(X)).flags.c_contiguous

    def test_discovery_matches_on_column_major_features(self, monkeypatch):
        seen = []
        real_discover = rulemix.learner.discover_rules

        def spy(X, *args, **kwargs):
            seen.append((X.flags.f_contiguous, X.flags.c_contiguous))
            return real_discover(X, *args, **kwargs)

        monkeypatch.setattr(rulemix.learner, "discover_rules", spy)
        X, y = linear_data(n=60, d=3, seed=4)
        fit(X, y, small_config())
        assert seen == [(True, False)] * small_config().n_iter


def random_model(gen: np.random.Generator, d: int, n_rules: int) -> TrainedModel:
    """A TrainedModel of random rules, some of them narrow, over a random
    training box; every rule is selected."""
    rules = []
    for _ in range(n_rules):
        lower, upper = np.sort(gen.uniform(-1.0, 1.0, size=(2, d)), axis=0)
        volume = float(np.prod((upper - lower) / 2.0))
        rules.append(Rule(lower, upper, gen.normal(0.0, 3.0, size=d), gen.normal(), gen.uniform(0.0, 2.0), int(gen.integers(1, 500)), volume, 0.0))
    feature_min = gen.uniform(-5.0, 5.0, size=d)
    transform = TransformState(
        feature_min=feature_min,
        feature_max=feature_min + gen.uniform(0.5, 10.0, size=d),
        target_mean=float(gen.normal(0.0, 10.0)),
        target_std=float(gen.uniform(0.1, 5.0)),
    )
    elitist = SolutionIndividual(genome=np.ones(n_rules, dtype=bool), fitness=0.0, complexity=n_rules, in_sample_mse=0.0)
    return TrainedModel(pool=Pool(rules), elitist=elitist, transform=transform, config=LearnerConfig())


@st.composite
def streamed_queries(draw):
    """A random model, CHUNK_BYTES, and a raw query of d = 1-3 features:
    1, 2, 3 or 5 rows, or just under or over one or two chunks; rows
    inside and outside the training box, some that no rule matches;
    C-ordered, Fortran-ordered, strided or integer."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    model = random_model(gen, d, draw(st.integers(0, 8)))
    chunk_bytes = draw(st.sampled_from([1, 32, 100]))
    step = max(4, chunk_bytes // 32 * 4)
    n = draw(st.sampled_from([1, 2, 3, 5, step - 1, step, step + 1, step + 2, 2 * step - 1, 2 * step + 1]))
    # scaled rows in [-1.6, 1.6]^d; beyond [-1, 1] no rule matches
    X = model.transform.inverse_features(gen.uniform(-1.6, 1.6, size=(n, d)))
    layout = draw(st.sampled_from(["C", "F", "strided", "int"]))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        wide = np.zeros((2 * n, 2 * d))
        wide[::2, ::2] = X
        X = wide[::2, ::2]
    elif layout == "int":
        X = np.rint(X).astype(np.int64)
    return model, chunk_bytes, X


@settings(max_examples=300, deadline=None)
@given(streamed_queries())
def test_streamed_predict_equals_scaling_then_mixing_bitwise(case):
    """predict streams raw rows through the mixing kernel a chunk at a
    time, yet gives the bits of scaling the whole of X, mixing it and
    un-standardizing the result; the scaling is still the expression
    2 (X - min) / span - 1 on X as floats."""
    model, chunk_bytes, X = case
    transform = model.transform
    X_float = np.asarray(X, dtype=float)
    scaled = 2.0 * (X_float - transform.feature_min) / (transform.feature_max - transform.feature_min) - 1.0
    with mock.patch.object(rulemix.rules, "CHUNK_BYTES", chunk_bytes):
        assert transform.transform_features(X).tobytes() == scaled.tobytes()
        expected = transform.inverse_target(mix_predict(model.selected_rules, transform.transform_features(X)))
        assert model.predict(X).tobytes() == expected.tobytes()
        assert model.predict_scaled(scaled).tobytes() == mix_predict(model.selected_rules, scaled).tobytes()


REAL_DTYPES = [np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64, np.float16, np.float32, np.float64, np.longdouble]


@pytest.mark.parametrize("dtype", REAL_DTYPES)
def test_every_real_dtype_predicts_its_values_as_floats(dtype):
    """Features of any real dtype scale and predict to the bits of the
    same values as floats, and fit the model of those floats, with no
    warning."""
    model = random_model(np.random.default_rng(40), 3, 6)
    model.transform = TransformState(feature_min=np.zeros(3), feature_max=np.full(3, 12.0), target_mean=1.5, target_std=2.0)
    raw = np.random.default_rng(41).uniform(0.0, 13.0, size=(50, 3))
    X = raw > 6.0 if dtype is np.bool_ else raw.astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X_float = np.asarray(X, dtype=float)
        assert model.transform.transform_features(X).tobytes() == model.transform.transform_features(X_float).tobytes()
        assert model.predict(X).tobytes() == model.predict(X_float).tobytes()
        y = raw.sum(axis=1)
        assert model_document(fit(X, y, small_config())) == model_document(fit(X_float, y, small_config()))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_complex_features_fail_closed_naming_the_dtype(dtype):
    """Casting complex features to float would drop the imaginary parts
    with only a ComplexWarning, so predict, transform_features and fit
    refuse them, and fit a complex target, also when every imaginary
    part is 0."""
    model = random_model(np.random.default_rng(42), 4, 5)
    for X in (np.array([[0.5 + 1j, 0.5, 0.5, 0.5]], dtype=dtype), np.full((3, 4), 0.5, dtype=dtype)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = (lambda X: fit(X, np.arange(len(X), dtype=float)), lambda X: fit(X.real, X[:, 0]))
            for call in (model.predict, model.transform.transform_features, *fits):
                with pytest.raises(DataError, match=f"dtype {np.dtype(dtype).name}"):
                    call(X)


def test_batch_predict_allocates_only_its_output():
    """Scaling, matching and mixing reuse one chunk's workspace, so from
    50,000 to 100,000 rows of d = 4 the peak memory traced in predict
    grows by the output's 8 bytes per row and at most SLACK more. A
    predict that scales the whole of X first grows by about 80 bytes per
    row here."""
    SLACK = 64 * 1024
    model = random_model(np.random.default_rng(26), 4, 12)
    X = model.transform.inverse_features(np.random.default_rng(27).uniform(-1.2, 1.2, size=(100_000, 4)))
    model.predict(X[:10])
    peaks = []
    tracemalloc.start()
    try:
        for n in (50_000, 100_000):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            model.predict(X[:n])
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 8 * 50_000 + SLACK, peaks


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_carried_evaluator_changes_no_bit_of_a_fit(d, seed, n_rules):
    """Each cycle's GA grows the previous cycle's evaluator; a fit built
    with a fresh evaluator every cycle is the same model, bit for bit,
    with the same fitness history."""
    X, y = linear_data(n=90, d=d, noise=0.3, seed=seed % 1000)
    config = small_config(master_seed=seed, n_iter=4, es=ESConfig(lambda_=5, delta=2, n_rules=n_rules))
    carried = fit(X, y, config)
    compose = rulemix.learner.compose_solution

    def compose_afresh(*args, evaluators, **kwargs):
        evaluators.clear()
        return compose(*args, evaluators=evaluators, **kwargs)

    with mock.patch.object(rulemix.learner, "compose_solution", compose_afresh):
        afresh = fit(X, y, config)
    assert json.dumps(model_document(carried)) == json.dumps(model_document(afresh))
    assert np.array(carried.fitness_history).tobytes() == np.array(afresh.fitness_history).tobytes()
