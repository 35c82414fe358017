"""Computations made apart from rulemix, and the checks built on them.

Every oracle reads what it needs from files the program writes (model
JSON, records.csv, report.json) or from the raw inputs, and recomputes
the result with its own arithmetic. Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

MIX_EPS = 1e-6
"""Mixing weight of a rule is experience / (mse + MIX_EPS)."""


class ModelDoc:
    """The selected rules and the scaling of a saved model file."""

    def __init__(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        bits = doc["elitist"]["genome_bits"]
        chosen = [rule for rule, bit in zip(doc["pool"], bits) if bit == "1"]
        dim = len(doc["transform"]["feature_min"])
        self.pool_size = len(doc["pool"])
        self.elitist_mse = float(doc["elitist"]["mse"])
        self.lower = np.array([r["lower"] for r in chosen], dtype=float).reshape(-1, dim)
        self.upper = np.array([r["upper"] for r in chosen], dtype=float).reshape(-1, dim)
        self.coefficients = np.array([r["coefficients"] for r in chosen], dtype=float).reshape(-1, dim)
        self.intercept = np.array([r["intercept"] for r in chosen], dtype=float)
        self.experience = np.array([r["experience"] for r in chosen], dtype=float)
        self.mse = np.array([r["mse"] for r in chosen], dtype=float)
        self.feature_min = np.array(doc["transform"]["feature_min"], dtype=float)
        self.feature_max = np.array(doc["transform"]["feature_max"], dtype=float)
        self.target_mean = float(doc["transform"]["target_mean"])
        self.target_std = float(doc["transform"]["target_std"])

    def scale(self, X) -> np.ndarray:
        return 2.0 * (np.asarray(X, dtype=float) - self.feature_min) / (self.feature_max - self.feature_min) - 1.0


def mix(doc: ModelDoc, X_scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mixed prediction in standardized units and the number of matching
    rules at each row, from a rules-by-rows match matrix."""
    inside = (X_scaled[None, :, :] >= doc.lower[:, None, :]) & (X_scaled[None, :, :] <= doc.upper[:, None, :])
    matched = inside.all(axis=2)
    weights = doc.experience / (doc.mse + MIX_EPS)
    outputs = doc.coefficients @ X_scaled.T + doc.intercept[:, None]
    numerator = (matched * (weights[:, None] * outputs)).sum(axis=0)
    denominator = (matched * weights[:, None]).sum(axis=0)
    counts = matched.sum(axis=0)
    prediction = np.where(counts > 0, numerator / np.where(denominator > 0, denominator, 1.0), 0.0)
    return prediction, counts


def predict(doc: ModelDoc, X) -> tuple[np.ndarray, np.ndarray]:
    """Prediction in original units and the number of matching rules."""
    prediction, counts = mix(doc, doc.scale(X))
    return prediction * doc.target_std + doc.target_mean, counts


def standardize(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Features to [-1, 1] by column range, target to zero mean and unit
    population standard deviation. The feature arithmetic is written in
    the program's order so that rows on a rule bound match identically."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    low, high = X.min(axis=0), X.max(axis=0)
    return 2.0 * (X - low) / (high - low) - 1.0, (y - y.mean()) / y.std()


def ridge(X: np.ndarray, y: np.ndarray, ridge_coeff: float) -> tuple[np.ndarray, float]:
    """Ridge fit with an unpenalized intercept, as one least-squares
    problem over the rows stacked on sqrt(ridge_coeff) * identity."""
    n, d = X.shape
    design = np.vstack([np.hstack([X, np.ones((n, 1))]), np.hstack([math.sqrt(ridge_coeff) * np.eye(d), np.zeros((d, 1))])])
    target = np.concatenate([y, np.zeros(d)])
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    return solution[:d], float(solution[d])


def check_fit(model, doc: ModelDoc, X, y, n_rules_expected: int, ridge_coeff: float, X_fresh, y_fresh, mse_share: float) -> list[str]:
    """The checks on one fitted model, against its training data and
    fresh samples of the noiseless generator."""
    problems = []
    X_scaled, y_scaled = standardize(X, y)
    prediction, _ = mix(doc, X_scaled)
    oracle_mse = float(np.mean((y_scaled - prediction) ** 2))
    if not math.isclose(model.elitist.in_sample_mse, oracle_mse, rel_tol=1e-7, abs_tol=1e-12):
        problems.append(f"elitist in_sample_mse {model.elitist.in_sample_mse!r} != mixing oracle {oracle_mse!r}")
    if doc.elitist_mse != model.elitist.in_sample_mse:
        problems.append("saved elitist mse differs from the in-memory model")
    for i in range(doc.lower.shape[0]):
        rows = np.all((X_scaled >= doc.lower[i]) & (X_scaled <= doc.upper[i]), axis=1)
        if int(rows.sum()) != int(doc.experience[i]):
            problems.append(f"selected rule {i}: experience {doc.experience[i]:.0f} != {int(rows.sum())} matched rows")
            continue
        coefficients, intercept = ridge(X_scaled[rows], y_scaled[rows], ridge_coeff)
        same_slope = np.allclose(doc.coefficients[i], coefficients, 1e-6, 1e-8)
        if not (same_slope and math.isclose(doc.intercept[i], intercept, rel_tol=1e-6, abs_tol=1e-8)):
            problems.append(f"selected rule {i}: submodel differs from the lstsq ridge fit")
    history = list(model.fitness_history)
    if any(later < earlier for earlier, later in zip(history, history[1:])):
        problems.append(f"fitness_history falls: {history}")
    if doc.pool_size != n_rules_expected:
        problems.append(f"pool holds {doc.pool_size} rules, expected {n_rules_expected}")
    fresh_prediction = model.predict(X_fresh)
    test_mse = float(np.mean((y_fresh - fresh_prediction) ** 2))
    baseline = float(np.mean((y_fresh - np.mean(y)) ** 2))
    if not test_mse < mse_share * baseline:
        problems.append(f"fresh-sample MSE {test_mse:.4g} is not below {mse_share} x train-mean baseline {baseline:.4g}")
    return problems


def read_prediction_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["prediction"]:
            raise ValueError(f"{path}: unexpected header")
        return np.array([float(row[0]) for row in reader])


def check_served(doc: ModelDoc, X_query, batch, single_rows, singles, written, reloaded) -> list[str]:
    """The checks on one served model's outputs.

    Single-row predictions must equal batch predictions bit for bit on
    1-d models and to rounding otherwise. batch is the batch prediction
    of X_query, singles the single-row
    predictions of rows single_rows, written the predictions read back
    from the CSV `rulemix predict` wrote, reloaded the batch prediction
    of the same model saved and loaded again.
    """
    problems = []
    scale = max(1.0, abs(doc.target_mean), doc.target_std)
    batch_rows = batch[single_rows]
    if doc.lower.shape[1] == 1:
        if not np.array_equal(batch_rows, singles):
            problems.append("single-row predictions differ from batch predictions")
    elif not np.allclose(batch_rows, singles, 0.0, 1e-14 * scale):
        # With more than one feature, X @ coefficients takes another BLAS
        # kernel for one row than for many, and the last bits may differ.
        problems.append("single-row predictions differ from batch predictions beyond rounding")
    expected, counts = predict(doc, X_query)
    if not np.allclose(batch, expected, 1e-9, 1e-9 * scale):
        worst = float(np.max(np.abs(batch - expected)))
        problems.append(f"batch predictions differ from the mixing oracle by up to {worst:.3g}")
    unmatched = counts == 0
    if not np.all(batch[unmatched] == doc.target_mean):
        problems.append("rows no selected rule matches do not return the training mean")
    if not np.array_equal(written, batch):
        problems.append("CSV written by rulemix predict differs from in-memory predictions")
    if not np.array_equal(reloaded, batch):
        problems.append("saved and reloaded model does not predict bit-identically")
    return problems


def wilcoxon_p(a, b) -> float:
    from scipy.stats import wilcoxon

    return float(wilcoxon(a, b).pvalue)


def check_bench(out_dir: str, exit_code: int, expected_records: int) -> list[str]:
    """The checks on one `rulemix benchmark` output directory."""
    problems = []
    if exit_code != 0:
        problems.append(f"rulemix benchmark exited {exit_code}")
    with open(f"{out_dir}/report.json") as fh:
        report = json.load(fh)
    if report["failures"]:
        problems.append(f"benchmark failures: {report['failures']}")
    with open(f"{out_dir}/records.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    if len(records) != expected_records or len(report["records"]) != expected_records:
        problems.append(f"{len(records)} records, expected {expected_records}")
    for name, summary in report["summaries"].items():
        rows = [r for r in records if r["dataset"] == name]
        for column, key in (("mse_sigma", "mse_sigma_mean"), ("complexity", "complexity_mean")):
            mean = math.fsum(float(r[column]) for r in rows) / len(rows)
            if not math.isclose(summary[key], mean, rel_tol=1e-12, abs_tol=0.0):
                problems.append(f"{name}: summary {key} {summary[key]!r} != {mean!r} from records.csv")
    for entry in report["baseline_tests"]:
        rows = [r for r in records if r["dataset"] == entry["dataset"]]
        model = [float(r["mse_sigma"]) for r in rows]
        baseline = [float(r["baseline_mse_sigma"]) for r in rows]
        if "p_value" not in entry:
            problems.append(f"{entry['dataset']}: no p-value ({entry.get('error')})")
            continue
        expected = wilcoxon_p(model, baseline)
        if not math.isclose(entry["p_value"], expected, rel_tol=1e-9, abs_tol=1e-15):
            problems.append(f"{entry['dataset']}: p-value {entry['p_value']!r} != scipy {expected!r}")
    return problems
