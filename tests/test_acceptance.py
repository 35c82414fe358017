"""Release gate: ten end-to-end checks, one test per criterion.

Each test prints as a single pass/fail line under pytest -v. Budgets and
tolerances are asserted inside the tests themselves.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest
import scipy.stats

from rulemix import (
    Dataset,
    LearnerConfig,
    combine,
    fit,
    fit_transform,
    gen_piecewise_linear,
    load_csv,
    load_model,
    match_mask,
    run_benchmark,
    save_model,
    wilcoxon_signed_rank,
)
from rulemix.cli import EXIT_OK, main
from rulemix.rules import Rule, _match_matrix, fit_submodel

from conftest import linear_data, small_config


@pytest.fixture(scope="module")
def synthetic_benchmark():
    """Eight default-config runs on clean 3-segment piecewise data."""
    dataset = gen_piecewise_linear(1000, segments=3, noise_std=0.0, seed=0)
    started = time.perf_counter()
    report = run_benchmark([dataset], n_seeds=8, n_splits=1, test_fraction=0.25, master_seed=0)
    elapsed = time.perf_counter() - started
    return dataset, report, elapsed


def test_criterion_01_fitness_identity_and_monotonicity():
    started = time.perf_counter()
    gen = np.random.default_rng(2024)
    for _ in range(1000):
        x = float(gen.random())
        alpha = float(gen.uniform(0.01, 2.0))
        assert abs(combine(x, x, alpha) - x) <= 1e-12

    grid = np.linspace(0.0, 1.0, 100)
    values = np.array([[combine(float(a), float(b), 0.05) for b in grid] for a in grid])
    # non-decreasing along each argument
    assert np.all(np.diff(values, axis=0) >= 0.0)
    assert np.all(np.diff(values, axis=1) >= 0.0)
    assert time.perf_counter() - started < 1.0


def test_criterion_02_ridge_zero_matches_normal_equations():
    started = time.perf_counter()
    gen = np.random.default_rng(7)
    for _ in range(100):
        d = int(gen.integers(1, 9))
        n = int(gen.integers(d + 10, 201))
        X = gen.uniform(-1.0, 1.0, size=(n, d))
        y = X @ gen.normal(size=d) + gen.normal() + gen.normal(scale=0.3, size=n)
        rule = fit_submodel(np.full(d, -1.0), np.full(d, 1.0), X, y, ridge_coeff=0.0)

        design = np.column_stack([X, np.ones(n)])
        solution = np.linalg.solve(design.T @ design, design.T @ y)
        assert rule.coefficients == pytest.approx(solution[:d], rel=1e-8, abs=1e-10)
        assert rule.intercept == pytest.approx(solution[d], rel=1e-8, abs=1e-10)
    assert time.perf_counter() - started < 5.0


def test_criterion_03_matching_oracle():
    started = time.perf_counter()
    gen = np.random.default_rng(11)
    for _ in range(1000):
        d = int(gen.integers(1, 6))
        n = int(gen.integers(5, 40))
        X = gen.uniform(-1.0, 1.0, size=(n, d))
        lower = gen.uniform(-1.0, 1.0, size=d)
        upper = np.clip(lower + gen.uniform(0.0, 1.5, size=d), lower, 1.0)
        rule = Rule(
            lower=lower, upper=upper, coefficients=np.zeros(d), intercept=0.0,
            in_sample_mse=0.0, experience=1, volume=0.0, fitness=0.0,
        )
        expected = [
            i for i, row in enumerate(X)
            if all(lo <= v <= hi for lo, hi, v in zip(lower, upper, row))
        ]
        assert np.flatnonzero(match_mask(rule.lower, rule.upper, X)).tolist() == expected
        assert np.flatnonzero(_match_matrix(rule.lower[None], rule.upper[None], X)[0]).tolist() == expected
    assert time.perf_counter() - started < 5.0


def test_criterion_04_monotone_elitist_over_full_fit():
    X, y = linear_data(n=300, d=2, noise=0.5, seed=3)
    config = small_config(n_iter=16, master_seed=8)
    # fit() also asserts the invariant internally at the end of every cycle
    model = fit(X, y, config)
    history = model.fitness_history
    assert len(history) == 16
    assert all(later >= earlier for earlier, later in zip(history, history[1:]))


def test_criterion_05_synthetic_recovery(synthetic_benchmark):
    dataset, report, elapsed = synthetic_benchmark

    # oracle: per-segment least squares on the learner's scaled data
    # proves a 3-rule solution with near-zero error exists
    transform, X_scaled, y_scaled = fit_transform(dataset.X, dataset.y)
    x = dataset.X[:, 0]
    segment = np.minimum((x * 3).astype(int), 2)
    oracle_predictions = np.empty_like(y_scaled)
    for k in range(3):
        inside = segment == k
        design = np.column_stack([X_scaled[inside, 0], np.ones(int(inside.sum()))])
        coef, *_ = np.linalg.lstsq(design, y_scaled[inside], rcond=None)
        oracle_predictions[inside] = design @ coef
    oracle_mse = float(np.mean((y_scaled - oracle_predictions) ** 2))
    assert oracle_mse < 1e-10

    # learner: at least 7 of 8 seeds reach the recovery bar
    assert len(report.records) == 8
    successes = sum(1 for r in report.records if r.mse_sigma < 0.05 and r.complexity <= 8)
    assert successes >= 7
    assert elapsed < 120.0


def test_criterion_06_pool_size_and_record_count():
    # default configuration: 32 cycles x 4 rules = 128 pool rules
    X, y = linear_data(n=160, d=1, noise=0.3, seed=4)
    model = fit(X, y, LearnerConfig())
    assert len(model.pool) == 128

    # default benchmark layout: 8 seeds x 8 splits = 64 records per dataset
    ds = Dataset(name="layout", X=X, y=y, feature_names=["x0"], target_name="y")
    report = run_benchmark([ds], config=small_config(), n_seeds=8, n_splits=8, master_seed=0)
    assert len(report.records) == 64


ccpp_path = os.environ.get("RULEMIX_CCPP", os.path.join(os.path.dirname(__file__), "..", "data", "ccpp.csv"))


@pytest.mark.skipif(not os.path.exists(ccpp_path), reason="combined-cycle plant CSV not present (see scripts/fetch_uci.py)")
def test_criterion_07_desk_scale_power_plant():
    dataset = load_csv(ccpp_path, name="ccpp")
    report = run_benchmark([dataset], n_seeds=2, n_splits=4, test_fraction=0.25, master_seed=0)
    assert len(report.records) == 8
    mean_mse = float(np.mean([r.mse_sigma for r in report.records]))
    mean_complexity = float(np.mean([r.complexity for r in report.records]))
    assert mean_mse <= 0.10
    assert mean_complexity <= 8.0


def test_criterion_08_wilcoxon_enumeration_oracle():
    started = time.perf_counter()

    def enumerate_p(differences):
        differences = differences[differences != 0.0]
        ranks = scipy.stats.rankdata(np.abs(differences))
        positive = float(ranks[differences > 0].sum())
        negative = float(ranks[differences < 0].sum())
        statistic = min(positive, negative)
        total = float(ranks.sum())
        hits = 0
        for signs in itertools.product((0.0, 1.0), repeat=len(ranks)):
            w_plus = float(np.dot(signs, ranks))
            if w_plus <= statistic or w_plus >= total - statistic:
                hits += 1
        return statistic, min(1.0, hits / 2.0 ** len(ranks))

    gen = np.random.default_rng(404)
    checked = 0
    while checked < 100:
        n = 5 + checked % 8  # n ranges over 5..12
        a = gen.normal(size=n)
        b = a + gen.normal(scale=0.8, size=n) + gen.normal(scale=0.4)
        if checked % 3 == 0:
            b = a + np.round((b - a) * 4) / 4  # force tied magnitudes
        if checked % 5 == 0 and n > 5:
            b[0] = a[0]  # force a dropped zero difference
        if np.count_nonzero(a - b) < 5:
            continue
        expected_statistic, expected_p = enumerate_p(a - b)
        result = wilcoxon_signed_rank(a, b)
        assert result.statistic == expected_statistic
        assert abs(result.p_value - expected_p) <= 1e-10
        checked += 1
    assert time.perf_counter() - started < 10.0


def test_criterion_09_benchmark_determinism(tmp_path):
    registry = tmp_path / "registry.json"
    data_paths = {}
    for i, name in enumerate(("first", "second")):
        X, y = linear_data(n=60, d=1, noise=0.2, seed=i)
        csv_path = tmp_path / f"{name}.csv"
        rows = ["x0,y"] + [f"{repr(float(a))},{repr(float(b))}" for a, b in zip(X[:, 0], y)]
        csv_path.write_text("\n".join(rows) + "\n")
        data_paths[name] = str(csv_path)
    registry.write_text(json.dumps({"datasets": data_paths}))

    def run(out_dir, jobs):
        code = main([
            "benchmark", str(registry), "--out", str(out_dir), "--seed", "12",
            "--jobs", str(jobs), "--format", "machine",
            "--set", "n_iter=2", "--set", "es.lambda=4", "--set", "es.delta=2",
            "--set", "es.n_rules=2", "--set", "ga.population_size=8",
            "--set", "ga.generations=3", "--set", "ga.n_elitists=2",
            "--set", "benchmark.n_seeds=2", "--set", "benchmark.n_splits=2",
        ])
        assert code == EXIT_OK

    run(tmp_path / "a", jobs=1)
    run(tmp_path / "b", jobs=1)
    run(tmp_path / "c", jobs=4)
    for filename in ("report.json", "records.csv", "summary.txt"):
        reference = (tmp_path / "a" / filename).read_bytes()
        assert (tmp_path / "b" / filename).read_bytes() == reference
        assert (tmp_path / "c" / filename).read_bytes() == reference


def test_criterion_10_persistence_round_trip(tmp_path):
    X, y = linear_data(n=150, d=3, noise=0.4, seed=9)
    model = fit(X, y, small_config(n_iter=4, master_seed=13))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)

    gen = np.random.default_rng(99)
    X_query = gen.uniform(X.min(axis=0), X.max(axis=0), size=(100, 3))
    original = model.predict(X_query)
    restored = loaded.predict(X_query)
    assert np.array_equal(original, restored)
