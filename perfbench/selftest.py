"""Tests of the benchmark itself: its oracles agree with the program on
small cases, its checks catch corrupted outputs, and its tracer counts
what it should and leaves the program as it found it.

    python3 -m pytest perfbench/selftest.py -q

The file is named so that the repository's own test run does not collect
it; pass it to pytest explicitly.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np
import pytest

from rulemix import cli, composition, persistence, rules, wilcoxon_signed_rank
from rulemix.learner import LearnerConfig, config_from_dict, fit

import oracles
import tracing
import workloads

SMALL = {"n_iter": 3, "es": {"n_rules": 2}, "ga": {"generations": 4, "population_size": 8, "n_elitists": 2}}


@pytest.fixture(scope="module")
def small_fit(tmp_path_factory):
    sample = workloads.piecewise_4d(7)
    X, y = sample(np.random.default_rng(1), 300)
    config = config_from_dict(SMALL, LearnerConfig(master_seed=3))
    model = fit(X, y, config)
    path = tmp_path_factory.mktemp("model") / "model.json"
    persistence.save_model(model, path)
    X_fresh, y_fresh = sample(np.random.default_rng(2), 400)
    return model, path, X, y, X_fresh, y_fresh, config


def test_mixing_oracle_agrees_with_predict(small_fit):
    model, path, X, _, X_fresh, _, _ = small_fit
    doc = oracles.ModelDoc(path)
    expected, counts = oracles.predict(doc, X_fresh)
    assert np.allclose(model.predict(X_fresh), expected, rtol=1e-12, atol=1e-12)
    assert counts.max() >= 1


def test_fit_checks_pass_on_the_program(small_fit):
    model, path, X, y, X_fresh, y_fresh, config = small_fit
    doc = oracles.ModelDoc(path)
    problems = oracles.check_fit(model, doc, X, y, 6, config.ridge_coeff, X_fresh, y_fresh, mse_share=1.0)
    assert problems == []


def test_ridge_oracle_agrees_with_fit_submodel():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(200, 3))
    y = X @ np.array([0.5, -1.0, 2.0]) + 0.3 + rng.normal(0.0, 0.1, 200)
    lower, upper = np.array([-0.8, -0.5, -1.0]), np.array([0.4, 0.9, 0.2])
    rule = rules.fit_submodel(lower, upper, X, y, ridge_coeff=0.5)
    rows = np.all((X >= lower) & (X <= upper), axis=1)
    coefficients, intercept = oracles.ridge(X[rows], y[rows], 0.5)
    assert rule.experience == rows.sum()
    assert np.allclose(rule.coefficients, coefficients, rtol=1e-9, atol=1e-12)
    assert intercept == pytest.approx(rule.intercept, rel=1e-9, abs=1e-12)


def test_wilcoxon_oracle_agrees_with_stats():
    rng = np.random.default_rng(9)
    a, b = rng.uniform(size=8), rng.uniform(size=8)
    assert oracles.wilcoxon_p(a, b) == pytest.approx(wilcoxon_signed_rank(a, b).p_value, rel=1e-12)


def test_fit_check_catches_a_corrupted_coefficient(small_fit, tmp_path):
    model, path, X, y, X_fresh, y_fresh, config = small_fit
    doc = json.loads(Path(path).read_text())
    first = doc["elitist"]["genome_bits"].index("1")
    doc["pool"][first]["coefficients"][0] += 1e-3
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))
    problems = oracles.check_fit(model, oracles.ModelDoc(corrupted), X, y, 6, config.ridge_coeff, X_fresh, y_fresh, 1.0)
    assert any("lstsq" in p for p in problems)
    assert any("in_sample_mse" in p for p in problems)


def served(tmp_path, model_path, X):
    unit = workloads.Served(
        model=persistence.load_model(model_path),
        model_path=str(model_path),
        X=X,
        chunks=workloads.write_chunks(X, str(tmp_path), "test", rows=150),
        batch_calls=2,
        single_rows=workloads.single_rows(X.shape[0], 50),
    )
    rec = workloads.Record()
    unit.serve(rec)
    assert len(unit.chunks) > 1
    assert rec.failed == 0 and rec.attempted == 2 + 50 + len(unit.chunks)
    return unit


def test_serve_checks_pass_and_catch_a_corrupted_prediction(small_fit, tmp_path):
    model, path, _, _, X_fresh, _, _ = small_fit
    X = np.vstack([X_fresh, np.full((5, 4), 1.4)])
    unit = served(tmp_path, path, X)
    assert unit.check(model.predict(X)) == []
    unit.batch = unit.batch.copy()
    unit.batch[unit.single_rows[3]] += 1e-6
    problems = unit.check(model.predict(X))
    assert any("single-row" in p for p in problems)
    assert any("mixing oracle" in p for p in problems)
    assert any("CSV" in p for p in problems)


def test_serve_check_catches_a_corrupted_csv(small_fit, tmp_path):
    model, path, _, _, X_fresh, _, _ = small_fit
    unit = served(tmp_path, path, X_fresh)
    _, out_csv, _ = unit.chunks[-1]
    with open(out_csv) as fh:
        lines = fh.readlines()
    lines[10] = "0.5\n"
    with open(out_csv, "w") as fh:
        fh.writelines(lines)
    assert unit.check(model.predict(X_fresh)) == ["CSV written by rulemix predict differs from in-memory predictions"]


def run_bench(tmp_path, jobs: int, name: str) -> Path:
    unit = workloads.BenchWorkload().setup(11, 0, str(tmp_path))
    out = tmp_path / name
    settings = {"n_iter": 2, "ga.generations": 2, "benchmark.n_seeds": 1, "benchmark.n_splits": 5}
    argv = ["benchmark", unit["registry"], "--out", str(out), "--jobs", str(jobs), "--seed", "4"]
    assert workloads.quiet(cli.main, argv + workloads.settings_argv(settings)) == 0
    return out


@pytest.fixture(scope="module")
def bench_outputs(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("jobs1"), 1, "out"), run_bench(tmp_path_factory.mktemp("jobs2"), 2, "out")


def test_report_is_byte_identical_across_jobs(bench_outputs):
    one, two = bench_outputs
    assert (one / "report.json").read_bytes() == (two / "report.json").read_bytes()


def test_bench_checks_pass_and_catch_a_corrupted_record(bench_outputs, tmp_path):
    out = bench_outputs[0]
    assert oracles.check_bench(str(out), 0, 10) == []
    corrupted = tmp_path / "corrupted"
    corrupted.mkdir()
    (corrupted / "report.json").write_bytes((out / "report.json").read_bytes())
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # a model error above its baseline flips the sign of one paired difference
    rows[1][3] = repr(float(rows[1][5]) * 2.0)
    with open(corrupted / "records.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    problems = oracles.check_bench(str(corrupted), 0, 10)
    assert any("mse_sigma_mean" in p for p in problems)
    assert any("scipy" in p for p in problems)
    assert any("exited 3" in p for p in oracles.check_bench(str(out), 3, 10))


def test_tracer_counts_and_restores(tmp_path):
    sample = workloads.piecewise_4d(3)
    X, y = sample(np.random.default_rng(0), 200)
    config = config_from_dict(SMALL, LearnerConfig(master_seed=1))
    originals = (rules.match_mask, composition.match_mask, composition.PoolEvaluator.evaluate, cli.load_model)
    tracer = tracing.Tracer(str(tmp_path / "workers"))
    with tracer:
        assert rules.match_mask is not originals[0] and composition.match_mask is not originals[1]
        model = fit(X, y, config)
    assert (rules.match_mask, composition.match_mask, composition.PoolEvaluator.evaluate, cli.load_model) == originals
    layers = tracing.layer_metrics([tracer.record], 1)
    ga = config.ga
    per_run = ga.population_size + 1 + ga.generations * (ga.population_size - ga.n_elitists)
    assert layers["composition.evaluations"] == config.n_iter * per_run
    assert 0 < layers["composition.unique_evaluations"] <= layers["composition.evaluations"]
    assert layers["discovery.es_runs"] == config.n_iter * config.es.n_rules
    assert layers["composition.evaluator_rules"] == 2 + 4 + 6
    assert layers["composition.evaluator_new_ratio"] == pytest.approx(6 / 12)
    assert layers["rules.fit_submodel_calls"] > layers["discovery.es_runs"]
    assert 0 < layers["composition.operators_s"] < layers["composition.ga_s"]
    assert len(model.pool) == 6
