import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulemix import (
    Dataset,
    ESConfig,
    GAConfig,
    baseline_tests,
    compare_records,
    format_summary_text,
    gen_piecewise_linear,
    report_document,
    run_benchmark,
    summarize,
    write_records_csv,
    write_report_json,
)
from rulemix.benchmark import BenchmarkReport, RunRecord

from conftest import linear_data, small_config


def tiny_datasets():
    X1, y1 = linear_data(n=60, d=1, noise=0.2, seed=1)
    X2, y2 = linear_data(n=60, d=2, noise=0.2, seed=2)
    return [
        Dataset(name="alpha", X=X1, y=y1, feature_names=["x0"], target_name="y"),
        Dataset(name="beta", X=X2, y=y2, feature_names=["x0", "x1"], target_name="y"),
    ]


def report_of(records, names=("d",)):
    return BenchmarkReport(
        master_seed=0,
        n_seeds=1,
        n_splits=len(records),
        test_fraction=0.25,
        config=small_config(),
        dataset_names=list(names),
        records=list(records),
    )


def record(dataset="d", seed_index=0, split_index=0, mse_sigma=0.1, complexity=3, baseline=1.0):
    return RunRecord(
        dataset=dataset,
        seed_index=seed_index,
        split_index=split_index,
        mse_sigma=mse_sigma,
        mse_original=mse_sigma * 4.0,
        baseline_mse_sigma=baseline,
        complexity=complexity,
        elapsed=0.01,
    )


@pytest.fixture(scope="module")
def small_report():
    return run_benchmark(
        tiny_datasets(),
        config=small_config(),
        n_seeds=2,
        n_splits=3,
        test_fraction=0.25,
        master_seed=5,
    )


@st.composite
def benchmark_cases(draw):
    """Small random datasets, config and grid for run_benchmark."""
    datasets = []
    for index in range(draw(st.integers(1, 2))):
        d = draw(st.integers(1, 3))
        X, y = linear_data(
            n=draw(st.integers(20, 60)), d=d, noise=draw(st.sampled_from([0.0, 0.3])), seed=draw(st.integers(0, 2**16))
        )
        datasets.append(Dataset(name=f"set{index}", X=X, y=y, feature_names=[f"x{j}" for j in range(d)], target_name="y"))
    population = draw(st.integers(3, 10))
    config = small_config(
        n_iter=draw(st.integers(1, 3)),
        es=ESConfig(lambda_=draw(st.integers(1, 6)), delta=draw(st.integers(1, 3)), n_rules=draw(st.integers(1, 3))),
        ga=GAConfig(
            population_size=population,
            generations=draw(st.integers(1, 5)),
            n_elitists=draw(st.integers(1, population - 1)),
        ),
        ridge_coeff=draw(st.sampled_from([0.0, 0.01])),
    )
    grid = dict(n_seeds=draw(st.integers(1, 2)), n_splits=draw(st.integers(2, 3)), master_seed=draw(st.integers(0, 2**16)))
    return datasets, config, grid


@given(benchmark_cases())
@settings(max_examples=5, deadline=None)
def test_report_files_do_not_depend_on_jobs(tmp_path_factory, case):
    datasets, config, grid = case
    written = []
    for jobs in (1, 2):
        report = run_benchmark(datasets, config=config, jobs=jobs, **grid)
        directory = tmp_path_factory.mktemp(f"jobs{jobs}")
        write_report_json(report, directory / "report.json")
        write_records_csv(report, directory / "records.csv")
        written.append([(directory / name).read_bytes() for name in ("report.json", "records.csv")])
    assert written[0] == written[1]


class TestRunBenchmark:
    def test_record_count_and_order(self, small_report):
        report = small_report
        assert len(report.records) == 2 * 2 * 3
        keys = [(r.dataset, r.seed_index, r.split_index) for r in report.records]
        expected = [
            (name, seed, split)
            for name in ("alpha", "beta")
            for seed in range(2)
            for split in range(3)
        ]
        assert keys == expected
        assert report.dataset_names == ["alpha", "beta"]
        assert not report.failures

    def test_deterministic_across_calls(self, small_report):
        again = run_benchmark(
            tiny_datasets(), config=small_config(), n_seeds=2, n_splits=3, master_seed=5
        )
        for a, b in zip(small_report.records, again.records):
            assert a.mse_sigma == b.mse_sigma
            assert a.mse_original == b.mse_original
            assert a.complexity == b.complexity

    def test_jobs_do_not_change_results(self, small_report):
        parallel = run_benchmark(
            tiny_datasets(), config=small_config(), n_seeds=2, n_splits=3, master_seed=5, jobs=2
        )
        for a, b in zip(small_report.records, parallel.records):
            assert a.dataset == b.dataset
            assert a.mse_sigma == b.mse_sigma
            assert a.baseline_mse_sigma == b.baseline_mse_sigma

    def test_mse_original_scaling(self, small_report):
        # original-unit MSE is the standardized one times the squared
        # training std, so the ratio must be constant per training split
        for r in small_report.records:
            assert r.mse_original / max(r.mse_sigma, 1e-300) > 0

    def test_split_depends_on_split_index_not_seed_index(self, small_report):
        # same split index, different seed index: identical split, so the
        # baseline (which only depends on the split) must agree
        by_key = {(r.dataset, r.seed_index, r.split_index): r for r in small_report.records}
        for name in ("alpha", "beta"):
            for split in range(3):
                assert (
                    by_key[(name, 0, split)].baseline_mse_sigma
                    == by_key[(name, 1, split)].baseline_mse_sigma
                )

    def test_different_splits_differ(self, small_report):
        baselines = {r.baseline_mse_sigma for r in small_report.records if r.dataset == "alpha"}
        assert len(baselines) > 1

    def test_failed_dataset_reported_and_others_continue(self):
        bad_X = np.ones((30, 2))  # constant features cannot be scaled
        bad = Dataset(name="broken", X=bad_X, y=np.arange(30.0), feature_names=["a", "b"], target_name="y")
        good = tiny_datasets()[0]
        report = run_benchmark([bad, good], config=small_config(), n_seeds=1, n_splits=2, master_seed=1)
        assert "broken" in report.failures
        assert "constant" in report.failures["broken"]
        assert [r.dataset for r in report.records] == ["alpha", "alpha"]
        assert report.dataset_names == ["broken", "alpha"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_datasets_give_an_empty_report(self, jobs):
        report = run_benchmark([], config=small_config(), n_seeds=2, n_splits=3, master_seed=4, jobs=jobs)
        assert (report.dataset_names, report.records, report.failures) == ([], [], {})
        assert (report.master_seed, report.n_seeds, report.n_splits, report.config) == (4, 2, 3, small_config())

    def test_validation(self):
        with pytest.raises(ValueError):
            run_benchmark(tiny_datasets(), config=small_config(), n_seeds=0)
        with pytest.raises(ValueError):
            run_benchmark(tiny_datasets(), config=small_config(), jobs=0)
        with pytest.raises(ValueError):
            run_benchmark(tiny_datasets(), config=small_config(), test_fraction=0.0)

    def test_duplicate_dataset_names_rejected(self):
        ds = tiny_datasets()[0]
        with pytest.raises(ValueError):
            run_benchmark([ds, ds], config=small_config())


class TestSummaries:
    def test_summarize_values(self, small_report):
        summary = summarize(small_report)
        assert set(summary) == {"alpha", "beta"}
        alpha = [r for r in small_report.records if r.dataset == "alpha"]
        mses = [r.mse_sigma for r in alpha]
        assert summary["alpha"]["n_runs"] == 6
        assert summary["alpha"]["mse_sigma_mean"] == pytest.approx(float(np.mean(mses)), rel=1e-12)
        assert summary["alpha"]["mse_sigma_std"] == pytest.approx(float(np.std(mses, ddof=1)), rel=1e-12)
        assert summary["alpha"]["complexity_median"] == float(np.median([r.complexity for r in alpha]))

    def test_summarize_complexities_frozen_case(self):
        records = [
            record(dataset="d", complexity=2),
            record(dataset="d", complexity=3),
            record(dataset="d", complexity=3),
            record(dataset="d", complexity=4),
        ]
        summaries = summarize(report_of(records))
        assert list(summaries) == ["d"]
        row = summaries["d"]
        assert row["n_runs"] == 4
        assert row["complexity_mean"] == 3.0
        assert row["complexity_std"] == pytest.approx(float(np.std([2, 3, 3, 4], ddof=1)), rel=1e-12)
        assert row["complexity_median"] == 3
        assert row["complexity_min"] == 2
        assert row["complexity_max"] == 4
        assert row["degenerate_sample"] is False

    def test_single_record_is_degenerate(self):
        row = summarize(report_of([record()]))["d"]
        assert row["degenerate_sample"] is True
        assert row["complexity_std"] == 0.0
        assert row["mse_sigma_std"] == 0.0

    def test_summarize_skips_dataset_without_records(self):
        assert summarize(report_of([record(dataset="d")], names=("d", "failed"))).keys() == {"d"}

    def test_baseline_tests_shape(self, small_report):
        results = baseline_tests(small_report)
        assert [r["dataset"] for r in results] == ["alpha", "beta"]
        for entry in results:
            assert entry["baseline"] == "train_mean"
            assert entry["n"] == 6
            assert ("p_value" in entry) != ("error" in entry)

    def test_baseline_tests_values_match_direct_call(self, small_report):
        from rulemix import wilcoxon_signed_rank

        entry = baseline_tests(small_report)[0]
        alpha = [r for r in small_report.records if r.dataset == "alpha"]
        expected = wilcoxon_signed_rank(
            [r.mse_sigma for r in alpha], [r.baseline_mse_sigma for r in alpha]
        )
        assert entry["statistic"] == expected.statistic
        assert entry["p_value"] == expected.p_value


class TestCompareRecords:
    def test_pairs_on_common_keys(self):
        a = [record(seed_index=s, mse_sigma=0.1 + 0.01 * s) for s in range(6)]
        b = [record(seed_index=s, mse_sigma=0.2 + 0.01 * s) for s in range(6)]
        results = compare_records(a, b)
        assert len(results) == 1
        assert results[0]["n"] == 6
        assert results[0]["statistic"] == 0.0

    def test_unpaired_runs_ignored(self):
        a = [record(seed_index=s) for s in range(8)]
        b = [record(seed_index=s, mse_sigma=0.3) for s in range(5)]
        results = compare_records(a, b)
        assert results[0]["n"] == 5

    def test_disjoint_datasets_give_empty(self):
        a = [record(dataset="x")]
        b = [record(dataset="y")]
        assert compare_records(a, b) == []

    def test_identical_records_report_error(self):
        a = [record(seed_index=s) for s in range(6)]
        results = compare_records(a, list(a))
        assert "error" in results[0]


class TestReportSerialization:
    def test_document_excludes_timings(self, small_report):
        doc = report_document(small_report)
        text = json.dumps(doc)
        assert "elapsed" not in text
        assert doc["master_seed"] == 5
        assert doc["n_seeds"] == 2
        assert len(doc["records"]) == len(small_report.records)
        for rec_doc in doc["records"]:
            assert set(rec_doc) == {
                "dataset",
                "seed_index",
                "split_index",
                "mse_sigma",
                "mse_original",
                "baseline_mse_sigma",
                "complexity",
            }

    def test_written_files_deterministic(self, small_report, tmp_path):
        write_report_json(small_report, tmp_path / "r1.json")
        write_report_json(small_report, tmp_path / "r2.json")
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        write_records_csv(small_report, tmp_path / "c1.csv")
        write_records_csv(small_report, tmp_path / "c2.csv")
        assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()

    def test_csv_round_trips_floats(self, small_report, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(small_report, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "mse_sigma" in header
        index = header.index("mse_sigma")
        first = small_report.records[0]
        assert float(lines[1].split(",")[index]) == first.mse_sigma

    def test_summary_text_is_deterministic_and_complete(self, small_report):
        text1 = format_summary_text(small_report)
        text2 = format_summary_text(small_report)
        assert text1 == text2
        assert "alpha" in text1
        assert "beta" in text1
        assert "train-mean baseline" in text1

    def test_failures_appear_in_document_and_text(self):
        bad = Dataset(
            name="broken",
            X=np.ones((30, 1)),
            y=np.arange(30.0),
            feature_names=["a"],
            target_name="y",
        )
        report = run_benchmark([bad], config=small_config(), n_seeds=1, n_splits=1)
        doc = report_document(report)
        assert "broken" in doc["failures"]
        assert "broken" in format_summary_text(report)
