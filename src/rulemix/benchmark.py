"""Benchmark harness: repeated train/test runs over named datasets.

Every run gets its own seeds for the split and for the learner, derived
from the config's master_seed, so a benchmark produces identical
records no matter how many worker processes execute it. Wall-clock
timings are kept on the records for display but stay out of the
machine-readable report, which must be reproducible byte for byte.
"""

from __future__ import annotations

import csv
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, _atomic_open, monte_carlo_split
from .errors import OPEN_FRACTION, POSITIVE_INT, DegenerateTestError, check_settings, setting
from .learner import LearnerConfig, config_to_dict, fit
from .persistence import _write_json
from .rng import derive_seed
from .stats import wilcoxon_signed_rank


@dataclass(frozen=True)
class BenchmarkSettings:
    """The benchmark-only keys, set under benchmark. in the config."""
    n_seeds: int = setting(8, POSITIVE_INT)
    n_splits: int = setting(8, POSITIVE_INT)
    test_fraction: float = setting(0.25, OPEN_FRACTION)
    __post_init__ = check_settings


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one (dataset, seed, split) training run."""

    dataset: str
    seed_index: int
    split_index: int
    mse_sigma: float
    """Test MSE with the target standardized by training statistics."""

    mse_original: float
    """Test MSE in original target units."""

    baseline_mse_sigma: float
    """Standardized test MSE of always predicting the training mean."""

    complexity: int
    elapsed: float
    """Wall-clock training seconds; excluded from machine output."""


# The fields of a RunRecord in report.json and records.csv; elapsed stays out.
RECORD_FIELDS = ("dataset", "seed_index", "split_index", "mse_sigma", "mse_original", "baseline_mse_sigma", "complexity")


@dataclass
class BenchmarkReport:
    """The records of a benchmark and what produced them: the learner
    config, whose master_seed every run's seeds derive from, and the
    settings of the seeds x splits grid."""

    config: LearnerConfig
    settings: BenchmarkSettings
    dataset_names: list[str]
    records: list[RunRecord]
    failures: dict[str, str] = field(default_factory=dict)


def _execute_run(
    dataset_name: str,
    X: np.ndarray,
    y: np.ndarray,
    seed_index: int,
    split_index: int,
    base_config: LearnerConfig,
    test_fraction: float,
) -> RunRecord:
    split_seed = derive_seed(base_config.master_seed, "split", dataset_name, split_index)
    train_idx, test_idx = monte_carlo_split(y.shape[0], test_fraction, split_seed)
    learner_seed = derive_seed(base_config.master_seed, "learner", dataset_name, seed_index, split_index)
    config = replace(base_config, master_seed=learner_seed)

    started = time.perf_counter()
    model = fit(X[train_idx], y[train_idx], config)
    elapsed = time.perf_counter() - started

    X_test_scaled = model.transform.transform_features(X[test_idx])
    y_test_scaled = model.transform.transform_target(y[test_idx])
    predictions = model.predict_scaled(X_test_scaled)
    mse_sigma = float(np.mean((y_test_scaled - predictions) ** 2))
    baseline = float(np.mean(y_test_scaled**2))
    return RunRecord(
        dataset=dataset_name,
        seed_index=seed_index,
        split_index=split_index,
        mse_sigma=mse_sigma,
        mse_original=mse_sigma * model.transform.target_std**2,
        baseline_mse_sigma=baseline,
        complexity=model.elitist.complexity,
        elapsed=elapsed,
    )


def _execute_task(task) -> tuple[str, RunRecord | None, str | None]:
    dataset_name, X, y, seed_index, split_index, config, test_fraction = task
    try:
        return dataset_name, _execute_run(dataset_name, X, y, seed_index, split_index, config, test_fraction), None
    except Exception as exc:
        # bad data (DataError) or a runtime fault in one run fails its
        # dataset, not the whole benchmark
        return dataset_name, None, str(exc) or type(exc).__name__


def run_benchmark(
    datasets: list[Dataset],
    config: LearnerConfig | None = None,
    settings: BenchmarkSettings = BenchmarkSettings(),
    jobs: int = 1,
) -> BenchmarkReport:
    """Train and score every dataset settings.n_seeds * settings.n_splits
    times, in jobs worker processes (in this one when jobs is 1).

    Every split and learner seed derives from config.master_seed; a
    config of None is the default LearnerConfig. An error in any run of
    a dataset, bad data or a runtime fault, fails that whole dataset
    (recorded in failures) while the remaining datasets still run.
    Records come back sorted by (dataset order, seed index, split index)
    regardless of jobs; an empty list of datasets gives an empty report.
    """
    if config is None:
        config = LearnerConfig()
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    names = [dataset.name for dataset in datasets]
    if len(set(names)) != len(names):
        raise ValueError("dataset names must be unique")

    tasks = []
    for dataset in datasets:
        X = np.asarray(dataset.X, dtype=float)
        y = np.asarray(dataset.y, dtype=float)
        for seed_index in range(settings.n_seeds):
            for split_index in range(settings.n_splits):
                tasks.append((dataset.name, X, y, seed_index, split_index, config, settings.test_fraction))

    records: list[RunRecord] = []
    failures: dict[str, str] = {}
    if jobs == 1:
        results = map(_execute_task, tasks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as executor:
            results = list(executor.map(_execute_task, tasks, chunksize=1))
    # both maps keep the order of the tasks: dataset, seed index, split index
    for name, record, error in results:
        if error is not None:
            failures.setdefault(name, error)
        else:
            records.append(record)
    return BenchmarkReport(
        config=config,
        settings=settings,
        dataset_names=names,
        records=[record for record in records if record.dataset not in failures],
        failures=failures,
    )


def _summary_for(records: list[RunRecord]) -> dict:
    errors = [r.mse_sigma for r in records]
    complexities = [r.complexity for r in records]
    degenerate = len(records) < 2
    return {
        "n_runs": len(records),
        "mse_sigma_mean": statistics.fmean(errors),
        "mse_sigma_std": statistics.stdev(errors) if not degenerate else 0.0,
        "mse_original_mean": statistics.fmean(r.mse_original for r in records),
        "complexity_mean": statistics.fmean(complexities),
        "complexity_std": statistics.stdev(complexities) if not degenerate else 0.0,
        "complexity_median": statistics.median(complexities),
        "complexity_min": min(complexities),
        "complexity_max": max(complexities),
        "degenerate_sample": degenerate,
    }


def _by_dataset(report: BenchmarkReport) -> dict[str, list[RunRecord]]:
    """The records of each dataset that has any, in dataset order."""
    groups = {name: [r for r in report.records if r.dataset == name] for name in report.dataset_names}
    return {name: records for name, records in groups.items() if records}


def summarize(report: BenchmarkReport) -> dict[str, dict]:
    """Per-dataset aggregates of errors and complexities."""
    return {name: _summary_for(records) for name, records in _by_dataset(report).items()}


def _paired_test(entry: dict, errors_a: list[float], errors_b: list[float]) -> dict:
    """entry plus the Wilcoxon signed-rank statistic and p-value of the
    paired errors, or the reason the test could not run."""
    try:
        outcome = wilcoxon_signed_rank(errors_a, errors_b)
        entry["statistic"] = outcome.statistic
        entry["p_value"] = outcome.p_value
    except (ValueError, DegenerateTestError) as exc:
        entry["error"] = str(exc)
    return entry


def baseline_tests(report: BenchmarkReport) -> list[dict]:
    """Per-dataset paired test of model errors against the train-mean
    baseline on the same runs."""
    results = []
    for name, records in _by_dataset(report).items():
        entry = {"dataset": name, "baseline": "train_mean", "n": len(records)}
        results.append(_paired_test(entry, [r.mse_sigma for r in records], [r.baseline_mse_sigma for r in records]))
    return results


def compare_records(records_a: list[RunRecord], records_b: list[RunRecord]) -> list[dict]:
    """Paired per-dataset comparison of two record sets.

    Pairs on (seed index, split index) within each dataset present in
    both sets; unpaired runs are ignored.
    """
    results = []
    by_key_a = {(r.dataset, r.seed_index, r.split_index): r for r in records_a}
    by_key_b = {(r.dataset, r.seed_index, r.split_index): r for r in records_b}
    names = sorted({r.dataset for r in records_a} & {r.dataset for r in records_b})
    for name in names:
        keys = sorted(k for k in by_key_a if k[0] == name and k in by_key_b)
        if not keys:
            continue
        entry = {"dataset": name, "n": len(keys)}
        results.append(_paired_test(entry, [by_key_a[k].mse_sigma for k in keys], [by_key_b[k].mse_sigma for k in keys]))
    return results


def report_document(report: BenchmarkReport) -> dict:
    """The machine-readable benchmark report.

    Deterministic for a given (datasets, config, settings) input:
    contains no timings, hostnames, or dates.
    """
    return {
        "master_seed": report.config.master_seed,
        **config_to_dict(report.settings),
        "config": config_to_dict(report.config),
        "datasets": list(report.dataset_names),
        "records": [{name: getattr(r, name) for name in RECORD_FIELDS} for r in report.records],
        "summaries": summarize(report),
        "baseline_tests": baseline_tests(report),
        "failures": dict(sorted(report.failures.items())),
    }


def write_report_json(report: BenchmarkReport, path) -> None:
    _write_json(report_document(report), path)


def write_records_csv(report: BenchmarkReport, path) -> None:
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in report.records:
            # csv writes str(x), which is repr(x) for a float
            writer.writerow([getattr(r, name) for name in RECORD_FIELDS])


def format_summary_text(report: BenchmarkReport) -> str:
    """Human-readable summary tables (deterministic, no timings)."""
    lines = []
    summaries = summarize(report)
    header = (
        f"{'dataset':<24} {'runs':>5} {'mse_sigma':>12} {'std':>10} {'cmp_mean':>9} "
        f"{'cmp_med':>8} {'cmp_min':>8} {'cmp_max':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in report.dataset_names:
        if name in report.failures:
            lines.append(f"{name:<24} FAILED: {report.failures[name]}")
            continue
        if name not in summaries:
            continue
        s = summaries[name]
        lines.append(
            f"{name:<24} {s['n_runs']:>5} {s['mse_sigma_mean']:>12.4f} {s['mse_sigma_std']:>10.4f} "
            f"{s['complexity_mean']:>9.2f} {s['complexity_median']:>8.1f} {s['complexity_min']:>8} {s['complexity_max']:>8}"
        )
        if s["degenerate_sample"]:
            lines.append(f"{'':<24} note: single run, spread not estimable")
    tests = baseline_tests(report)
    if tests:
        lines.append("")
        lines.append("paired against train-mean baseline (two-sided):")
        for entry in tests:
            if "error" in entry:
                lines.append(f"  {entry['dataset']:<24} test unavailable: {entry['error']}")
            else:
                lines.append(
                    f"  {entry['dataset']:<24} statistic={entry['statistic']:.1f} p={entry['p_value']:.3g} n={entry['n']}"
                )
    return "\n".join(lines) + "\n"
