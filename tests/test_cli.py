import builtins
import contextlib
import csv
import functools
import io
import json
import os
import pathlib
import tempfile
import warnings
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import rulemix.benchmark
import rulemix.cli
from rulemix import LearnerConfig, load_model, write_csv
from rulemix.benchmark import RECORD_FIELDS
from rulemix.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PARTIAL, BenchmarkSettings, main
from rulemix.learner import config_to_dict

from conftest import csv_cases, linear_data, matrix_dataset, replace_cell

SMALL_SET_FLAGS = [
    "--set", "n_iter=2",
    "--set", "es.lambda=4",
    "--set", "es.delta=2",
    "--set", "es.n_rules=2",
    "--set", "ga.population_size=8",
    "--set", "ga.generations=3",
    "--set", "ga.n_elitists=2",
]


def write_training_csv(path, n=60, d=2, seed=0):
    X, y = linear_data(n=n, d=d, seed=seed)
    header = ",".join([f"f{i}" for i in range(d)] + ["y"])
    rows = [",".join(repr(float(v)) for v in [*row, target]) for row, target in zip(X, y)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return X, y


def write_feature_csv(path, X):
    header = ",".join(f"f{i}" for i in range(X.shape[1]))
    rows = [",".join(repr(float(v)) for v in row) for row in X]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


@pytest.fixture()
def model_path(tmp_path):
    data = tmp_path / "train.csv"
    write_training_csv(data)
    out = tmp_path / "model.json"
    code = main(["fit", str(data), "--out", str(out), "--seed", "3", *SMALL_SET_FLAGS])
    assert code == EXIT_OK
    return out


class TestFit:
    def test_fit_writes_model(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        out = tmp_path / "model.json"
        code = main(["fit", str(data), "--out", str(out), *SMALL_SET_FLAGS])
        assert code == EXIT_OK
        assert out.exists()
        text = capsys.readouterr().out
        assert "model written to" in text

    def test_fit_machine_output_parses(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        out = tmp_path / "model.json"
        code = main(["fit", str(data), "--out", str(out), "--format", "machine", *SMALL_SET_FLAGS])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == str(out)
        assert doc["pool_size"] == 4
        assert 0 <= doc["complexity"] <= doc["pool_size"]

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_bad_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,notanumber\n")
        code = main(["fit", str(bad), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_DATA

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        code = main(["fit", str(data), "--set", "es.bogus=1"])
        assert code == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_invalid_config_value_is_config_error(self, tmp_path):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        assert main(["fit", str(data), "--set", "n_iter=0"]) == EXIT_CONFIG

    @pytest.mark.parametrize("assignment", ["es.lambda=null", "es.lambda_=null"])
    def test_config_error_names_the_key_users_write(self, tmp_path, capsys, assignment):
        """lambda is a Python keyword, so its field is lambda_; the error
        names the key of config files, --set and --help either way."""
        data = tmp_path / "train.csv"
        write_training_csv(data)
        assert main(["fit", str(data), "--out", str(tmp_path / "model.json"), "--set", assignment]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: es.lambda must be a positive integer, got None\n"
        assert not (tmp_path / "model.json").exists()

    def test_config_file_and_set_overrides(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "n_iter": 2,
            "es": {"lambda": 4, "delta": 2, "n_rules": 1},
            "ga": {"population_size": 6, "generations": 2, "n_elitists": 1},
        }))
        out = tmp_path / "model.json"
        code = main([
            "fit", str(data), "--config", str(config), "--out", str(out),
            "--set", "es.n_rules=2", "--format", "machine",
        ])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        # --set wins over the file: 2 cycles x 2 rules
        assert doc["pool_size"] == 4

    @pytest.mark.parametrize(
        "target, feature, message",
        [
            ("normal", "overflowing", "feature 0 spans"),
            ("overflowing", "normal", "target spans"),
            ("underflowing", "normal", "standard deviation underflows"),
        ],
    )
    def test_range_overflowing_a_float_is_one_error_line(self, tmp_path, capsys, target, feature, message):
        """Finite data whose span, mean, standard deviation or scaled values
        leave the range of a float exit 1 with one error line and no
        warning."""
        gen = np.random.default_rng(4)
        signs = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
        columns = {
            "normal": gen.normal(size=12),
            "overflowing": signs * 1e308 * gen.uniform(0.1, 1.0, size=12),
            "underflowing": np.arange(12) * 1e-300,
        }
        data = tmp_path / "train.csv"
        rows = [f"{x!r},{y!r}" for x, y in zip(columns[feature].tolist(), columns[target].tolist())]
        data.write_text("f0,y\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", str(data), "--out", str(tmp_path / "model.json"), *SMALL_SET_FLAGS])
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], lines
        assert caught == []
        assert not (tmp_path / "model.json").exists()

    def test_parser_built_once_keeps_no_state_between_calls(self, tmp_path, capsys):
        """main reuses one parser: a --set and a --format of one call do not
        reach the next."""
        data = tmp_path / "train.csv"
        write_training_csv(data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_iter": 2, "es": {"lambda": 4, "delta": 2, "n_rules": 2}, "ga": {"population_size": 8, "n_elitists": 2}}))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        fit_argv = ["fit", str(data), "--config", str(config)]
        assert main([*fit_argv, "--out", str(first), "--set", "ga.generations=2", "--format", "machine"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["model"] == str(first)
        assert main([*fit_argv, "--out", str(second)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("trained on 60 examples")
        assert load_model(first).config.ga.generations == 2
        assert load_model(second).config.ga.generations == LearnerConfig().ga.generations
        features = tmp_path / "query.csv"
        write_feature_csv(features, np.random.default_rng(2).uniform(-2, 6, size=(3, 2)))
        assert main(["predict", str(second), str(features)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [float(line) for line in lines] == load_model(second).predict(np.loadtxt(features, delimiter=",", skiprows=1)).tolist()

    def test_malformed_set_flag(self, tmp_path):
        data = tmp_path / "train.csv"
        write_training_csv(data)
        assert main(["fit", str(data), "--set", "novalue"]) == EXIT_CONFIG


class TestPredict:
    def test_round_trip_matches_library(self, model_path, tmp_path, capsys):
        model = load_model(model_path)
        gen = np.random.default_rng(5)
        X_query = gen.uniform(-2, 6, size=(12, 2))
        features = tmp_path / "query.csv"
        write_feature_csv(features, X_query)

        code = main(["predict", str(model_path), str(features), "--format", "machine"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["predictions"] == pytest.approx(model.predict(X_query).tolist(), abs=0.0)

    def test_out_file_round_trips_exact(self, model_path, tmp_path, capsys):
        model = load_model(model_path)
        gen = np.random.default_rng(6)
        X_query = gen.uniform(-2, 6, size=(9, 2))
        features = tmp_path / "query.csv"
        write_feature_csv(features, X_query)
        out = tmp_path / "predictions.csv"

        code = main(["predict", str(model_path), str(features), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "prediction"
        values = np.array([float(line) for line in lines[1:]])
        assert np.array_equal(values, model.predict(X_query))

    def test_outputs_keep_the_bytes_of_the_csv_writer_and_print(self, tmp_path, monkeypatch, capsys):
        """--out, text stdout and machine stdout hold the bytes the earlier
        csv.writer and print loops wrote, for -0.0, the smallest subnormal,
        1e308, 1.0 and a value whose repr takes 17 digits."""
        predictions = np.array([-0.0, 5e-324, 1e308, 1.0, 0.1 + 0.2])
        features = tmp_path / "query.csv"
        write_feature_csv(features, predictions[:, None])
        # InputRecorder predicts the first feature column
        monkeypatch.setattr(rulemix.cli, "load_model", lambda _: InputRecorder(1))
        written = io.StringIO(newline="")
        writer = csv.writer(written)
        writer.writerow(["prediction"])
        for value in predictions:
            writer.writerow([repr(float(value))])
        text, machine = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(text):
            for value in predictions:
                print(repr(float(value)))
        with contextlib.redirect_stdout(machine):
            print(json.dumps({"predictions": [float(v) for v in predictions]}))

        out = tmp_path / "predictions.csv"
        assert main(["predict", "model.json", str(features), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == written.getvalue().encode()
        capsys.readouterr()
        assert main(["predict", "model.json", str(features)]) == EXIT_OK
        assert capsys.readouterr().out == text.getvalue()
        assert main(["predict", "model.json", str(features), "--format", "machine"]) == EXIT_OK
        assert capsys.readouterr().out == machine.getvalue()

    def test_wrong_column_count_is_data_error(self, model_path, tmp_path, capsys):
        features = tmp_path / "query.csv"
        features.write_text("f0\n0.5\n")
        code = main(["predict", str(model_path), str(features)])
        assert code == EXIT_DATA
        assert "2 feature columns" in capsys.readouterr().err

    def test_corrupt_model_is_data_error(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text("{}")
        features = tmp_path / "query.csv"
        features.write_text("f0\n0.5\n")
        assert main(["predict", str(bad), str(features)]) == EXIT_DATA

    @pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity"])
    def test_non_finite_query_cell_is_data_error(self, model_path, tmp_path, capsys, cell):
        features = tmp_path / "query.csv"
        features.write_text(f"f0,f1\n0.5,1.0\n1.5,2.0\n2.5,{cell}\n3.5,4.0\n")
        code = main(["predict", str(model_path), str(features)])
        assert code == EXIT_DATA
        assert "non-finite value at row 4" in capsys.readouterr().err

    def test_model_with_nan_coefficient_is_data_error(self, model_path, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        selected = doc["elitist"]["genome_bits"].index("1")
        doc["pool"][selected]["coefficients"][0] = float("nan")
        model_path.write_text(json.dumps(doc))
        features = tmp_path / "query.csv"
        write_feature_csv(features, np.array([[0.5, 1.0], [2.0, 3.0]]))
        assert main(["predict", str(model_path), str(features)]) == EXIT_DATA
        assert "NaN" in capsys.readouterr().err

    def test_model_with_mismatched_volume_is_data_error(self, model_path, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["pool"][0]["volume"] *= 0.5
        model_path.write_text(json.dumps(doc))
        features = tmp_path / "query.csv"
        write_feature_csv(features, np.array([[0.5, 1.0]]))
        assert main(["predict", str(model_path), str(features)]) == EXIT_DATA
        assert "pool[0].volume" in capsys.readouterr().err

    def test_model_with_out_of_box_bound_is_data_error(self, model_path, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["pool"][0]["lower"][0] = -5.0
        model_path.write_text(json.dumps(doc))
        features = tmp_path / "query.csv"
        write_feature_csv(features, np.array([[0.5, 1.0]]))
        assert main(["predict", str(model_path), str(features)]) == EXIT_DATA
        assert "-1 <= lower <= upper <= 1" in capsys.readouterr().err


class InputRecorder:
    """Stands in for a loaded model and keeps the matrix predict read."""

    def __init__(self, dim):
        self.transform = SimpleNamespace(dim=dim)
        self.X = None

    def predict(self, X):
        self.X = X
        return X[:, 0]


@settings(max_examples=100, deadline=None)
@given(csv_cases())
def test_predict_reads_write_csv_bit_for_bit_and_names_a_bad_cell(tmp_path_factory, case):
    matrix, row, column, bad = case
    directory = tmp_path_factory.mktemp("predict")
    path = directory / "query.csv"
    write_csv(matrix_dataset(matrix), path)
    recorder = InputRecorder(matrix.shape[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rulemix.cli, "load_model", lambda _: recorder)
        assert main(["predict", "model.json", str(path), "--out", str(directory / "out.csv")]) == EXIT_OK
        assert recorder.X.tobytes() == matrix.tobytes()
        replace_cell(path, row, column, bad)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(["predict", "model.json", str(path)]) == EXIT_DATA
    assert f"at row {row + 2}, column 'c{column}'" in stderr.getvalue()


class TestInspect:
    def test_text_output(self, model_path, capsys):
        code = main(["inspect", str(model_path)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "pool: 4 rules" in text

    def test_machine_output(self, model_path, capsys):
        code = main(["inspect", str(model_path), "--format", "machine"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["pool_size"] == 4
        assert len(doc["selected"]) == doc["complexity"]
        assert len(doc["rules"]) == doc["complexity"]

    def test_single_rule(self, model_path, capsys):
        code = main(["inspect", str(model_path), "--rule", "0", "--format", "machine"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["index"] == 0
        assert "lower" in doc and "upper" in doc

    def test_rule_index_out_of_range(self, model_path, capsys):
        code = main(["inspect", str(model_path), "--rule", "99"])
        assert code == EXIT_DATA
        assert "out of range" in capsys.readouterr().err


class TestGen:
    def test_gen_then_fit(self, tmp_path, capsys):
        data = tmp_path / "synthetic.csv"
        code = main(["gen", "--out", str(data), "--n", "120", "--segments", "3", "--seed", "4", "--format", "machine"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 120
        assert len(doc["metadata"]["slopes"]) == 3
        out = tmp_path / "model.json"
        assert main(["fit", str(data), "--out", str(out), *SMALL_SET_FLAGS]) == EXIT_OK

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["gen", "--out", str(a), "--n", "50", "--seed", "9"])
        main(["gen", "--out", str(b), "--n", "50", "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--n", ["--n", "10000000000000"]),
            ("--n", ["--n", "4611686018427387904"]),
            ("--n", ["--n", str(2**70)]),
            ("--segments", ["--n", "10", "--segments", "10000000000000"]),
            ("--segments", ["--n", "10", "--segments", "4611686018427387904"]),
        ],
    )
    def test_absurd_size_is_a_config_error_naming_the_flag(self, tmp_path, capsys, flag, argv):
        """Sizes whose arrays numpy refuses at once end in one error line,
        not a MemoryError or ValueError traceback, and write nothing."""
        out = tmp_path / "g.csv"
        assert main(["gen", "--out", str(out), *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert not out.exists()


class TestAtomicOutputs:
    @pytest.mark.parametrize("command", ["predict", "gen"])
    def test_failed_write_keeps_the_previous_file(self, model_path, tmp_path, monkeypatch, capsys, command):
        """A write failing part way, at the file for predict's one write and
        at a csv writer's third row for gen, leaves the earlier 51-line
        output byte-identical and no temporary file behind."""
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "result.csv"
        if command == "predict":
            features = tmp_path / "query.csv"
            write_feature_csv(features, np.random.default_rng(7).uniform(-2, 6, size=(50, 2)))
            argv = ["predict", str(model_path), str(features), "--out", str(out)]
        else:
            argv = ["gen", "--out", str(out), "--n", "50", "--seed", "3"]
        assert main(argv) == EXIT_OK
        before = out.read_bytes()
        assert len(before.splitlines()) == 51
        if command == "predict":
            real_open = builtins.open

            def open_filling_the_disk(file, mode="r", *rest, **kwargs):
                fh = real_open(file, mode, *rest, **kwargs)
                if "w" in mode and os.path.basename(str(file)).startswith("result.csv."):
                    return DiskFullAfter(fh, 20)
                return fh

            monkeypatch.setattr(builtins, "open", open_filling_the_disk)
        else:
            real_writer = csv.writer

            def writer_failing_on_third_row(fh):
                writer = real_writer(fh)
                rows = []

                def writerow(row):
                    rows.append(row)
                    if len(rows) == 3:
                        raise OSError("disk full")
                    writer.writerow(row)

                return SimpleNamespace(writerow=writerow)

            monkeypatch.setattr(csv, "writer", writer_failing_on_third_row)
        code = main(argv)
        monkeypatch.undo()
        assert code == EXIT_DATA
        assert "disk full" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert os.listdir(out_dir) == ["result.csv"]


class DiskFullAfter:
    """A text file that takes its first `room` characters, then raises
    OSError as a full disk would."""

    def __init__(self, fh, room: int):
        self.fh = fh
        self.room = room

    def write(self, text: str) -> int:
        self.fh.write(text[: self.room])
        if len(text) > self.room:
            raise OSError("disk full")
        self.room -= len(text)
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


class TestBenchmark:
    def registry_for(self, tmp_path, names=("one", "two")):
        paths = {}
        for i, name in enumerate(names):
            data = tmp_path / f"{name}.csv"
            write_training_csv(data, n=50, d=1, seed=i)
            paths[name] = str(data)
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"datasets": paths}))
        return registry

    def benchmark_args(self, registry, out):
        return [
            "benchmark", str(registry), "--out", str(out), "--seed", "2",
            *SMALL_SET_FLAGS,
            "--set", "benchmark.n_seeds=2",
            "--set", "benchmark.n_splits=2",
        ]

    def test_writes_all_report_files(self, tmp_path, capsys):
        registry = self.registry_for(tmp_path)
        out = tmp_path / "bench"
        code = main(self.benchmark_args(registry, out))
        assert code == EXIT_OK
        assert (out / "report.json").exists()
        assert (out / "records.csv").exists()
        assert (out / "summary.txt").exists()
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["records"]) == 2 * 2 * 2
        assert doc["n_seeds"] == 2

    def test_jobs_do_not_change_report_bytes(self, tmp_path, capsys):
        registry = self.registry_for(tmp_path)
        out1 = tmp_path / "bench1"
        out2 = tmp_path / "bench2"
        assert main(self.benchmark_args(registry, out1) + ["--jobs", "1"]) == EXIT_OK
        assert main(self.benchmark_args(registry, out2) + ["--jobs", "2"]) == EXIT_OK
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    @pytest.mark.parametrize("name", ["report.json", "records.csv", "summary.txt"])
    def test_failed_report_write_keeps_the_previous_files(self, tmp_path, monkeypatch, capsys, name):
        """A disk filling up while one report file is written leaves every
        file of the earlier run as it was and no temporary file behind."""
        registry = self.registry_for(tmp_path)
        out = tmp_path / "bench"
        args = self.benchmark_args(registry, out) + ["--jobs", "1"]
        assert main(args) == EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        real_open = builtins.open

        def open_filling_the_disk(file, mode="r", *rest, **kwargs):
            fh = real_open(file, mode, *rest, **kwargs)
            if "w" in mode and os.path.basename(str(file)).startswith(name):
                return DiskFullAfter(fh, 20)
            return fh

        monkeypatch.setattr(builtins, "open", open_filling_the_disk)
        code = main(args)
        monkeypatch.undo()
        assert code == EXIT_DATA
        assert "disk full" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_missing_dataset_gives_partial_exit(self, tmp_path, capsys):
        registry = self.registry_for(tmp_path, names=("good",))
        doc = json.loads(registry.read_text())
        doc["datasets"]["absent"] = str(tmp_path / "nowhere.csv")
        registry.write_text(json.dumps(doc))
        out = tmp_path / "bench"
        code = main(self.benchmark_args(registry, out))
        assert code == EXIT_PARTIAL
        report = json.loads((out / "report.json").read_text())
        assert "absent" in report["failures"]
        assert {r["dataset"] for r in report["records"]} == {"good"}

    def test_runtime_fault_in_one_dataset_gives_partial_exit(self, tmp_path, capsys, monkeypatch):
        real_run = rulemix.benchmark._execute_run

        def faulty_run(dataset_name, *args):
            if dataset_name == "one":
                raise RuntimeError("simulated fault")
            return real_run(dataset_name, *args)

        monkeypatch.setattr(rulemix.benchmark, "_execute_run", faulty_run)
        registry = self.registry_for(tmp_path)
        out = tmp_path / "bench"
        code = main(self.benchmark_args(registry, out) + ["--jobs", "1"])
        assert code == EXIT_PARTIAL
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == {"one": "simulated fault"}
        assert [r["dataset"] for r in report["records"]] == ["two"] * 4

    def test_all_datasets_failing_is_data_error(self, tmp_path, capsys):
        """Datasets that all fail to load still give the three report
        files: every dataset in registry order, each with its failure,
        and no records."""
        registry = tmp_path / "registry.json"
        paths = {name: str(tmp_path / f"{name}.csv") for name in ("zeta", "alpha")}
        registry.write_text(json.dumps({"datasets": paths}))
        out = tmp_path / "bench"
        assert main(self.benchmark_args(registry, out)) == EXIT_DATA
        assert capsys.readouterr().err == "error: no dataset produced any run\n"
        report = json.loads((out / "report.json").read_text())
        failures = {name: f"[Errno 2] No such file or directory: {path!r}" for name, path in paths.items()}
        assert report["failures"] == failures
        assert (report["datasets"], report["records"], report["summaries"], report["baseline_tests"]) == (["zeta", "alpha"], [], {}, [])
        assert (out / "records.csv").read_text() == ",".join(RECORD_FIELDS) + "\n"
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[2:] == [f"{name:<24} FAILED: {failures[name]}" for name in ("zeta", "alpha")]

    def test_an_unreadable_registry_is_config_error(self, tmp_path, capsys):
        """A registry file that is missing or is a directory exits 2 and
        names the file, as a config file does."""
        for path in (tmp_path / "missing.json", tmp_path):
            assert main(["benchmark", str(path), "--out", str(tmp_path / "b")]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read registry file: [Errno ") and f"{str(path)!r}" in err, err
        assert not (tmp_path / "b").exists()

    def test_bad_registry_is_config_error(self, tmp_path):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"wrong": []}))
        assert main(["benchmark", str(registry), "--out", str(tmp_path / "b")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"path": ["d.csv"]}, "datasets.a.path must be a string, got ['d.csv']"),
            (["d.csv"], "datasets.a.path must be a string, got ['d.csv']"),
            ({"path": "d.csv", "target_column": 3}, "datasets.a.target_column must be null or a string, got 3"),
            ({"path": "d.csv", "target_column": True}, "datasets.a.target_column must be null or a string, got True"),
            ({"target_column": "y"}, "datasets.a.path is missing"),
        ],
    )
    def test_a_mistyped_registry_entry_is_config_error(self, tmp_path, capsys, entry, message):
        """A registry entry whose path is not a string, or whose target
        column is neither null nor a string, is refused before any dataset
        loads, naming the field and the value it got."""
        registry = self.registry_for(tmp_path, names=("d",))
        registry.write_text(json.dumps({"datasets": {"a": entry}}))
        assert main(self.benchmark_args(registry, tmp_path / "b")) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {registry}: {message}\n"
        assert not (tmp_path / "b").exists()

    def test_bad_benchmark_setting_is_config_error(self, tmp_path):
        registry = self.registry_for(tmp_path, names=("one",))
        args = ["benchmark", str(registry), "--out", str(tmp_path / "b"), "--set", "benchmark.n_seeds=0"]
        assert main(args) == EXIT_CONFIG
        for bad in ("true", '"0.5"', "1e400", "NaN"):
            assert main([*args[:-1], f"benchmark.test_fraction={bad}"]) == EXIT_CONFIG
            assert main([*args[:-1], f"benchmark.n_splits={bad}"]) == EXIT_CONFIG

    def test_unknown_benchmark_key_is_config_error(self, tmp_path):
        registry = self.registry_for(tmp_path, names=("one",))
        args = ["benchmark", str(registry), "--out", str(tmp_path / "b"), "--set", "benchmark.bogus=1"]
        assert main(args) == EXIT_CONFIG


class TestHelp:
    def test_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for key in (
            "n_iter", "ridge_coeff", "master_seed",
            "es.lambda", "es.delta", "es.n_rules", "es.mutation_spread", "es.init_spread",
            "ga.population_size", "ga.generations", "ga.n_elitists", "ga.tournament_size",
            "ga.crossover_points", "ga.crossover_probability", "ga.mutation_rate", "ga.init_density",
            "rule_fitness.alpha", "rule_fitness.beta",
            "solution_fitness.alpha", "solution_fitness.beta",
            "benchmark.n_seeds", "benchmark.n_splits", "benchmark.test_fraction",
        ):
            assert key in text, key

    def test_no_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code != 0


# -- every subcommand fails closed -------------------------------------------

TINY_SET_FLAGS = [
    "--set", "n_iter=1",
    "--set", "es.n_rules=1",
    "--set", "ga.generations=1",
    "--set", "ga.population_size=4",
    "--set", "ga.n_elitists=1",
]
# the files each subcommand reads, and the flags every call of it starts with
READS = {"fit": ["train.csv"], "benchmark": ["registry.json"], "predict": ["model.json", "query.csv"], "inspect": ["model.json"]}
BASE_FLAGS = {"fit": TINY_SET_FLAGS, "benchmark": TINY_SET_FLAGS + ["--set", "benchmark.n_seeds=1", "--set", "benchmark.n_splits=1"]}
CONFIG_KEYS = [key for key, _ in rulemix.cli._flatten(config_to_dict(LearnerConfig()))] + ["bogus", "es.bogus"]
SET_KEYS = st.sampled_from(
    CONFIG_KEYS + [f"benchmark.{f.name}" for f in fields(BenchmarkSettings)] + ["es", "n_iter.x", "benchmark", "benchmark.bogus"]
)
SET_VALUES = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(-3, 3).map(repr),
    st.sampled_from(["true", "null", "nan", "NaN", "inf", "-Infinity", "1e400", "-1e400", "5e-324", '"0.5"', "[1]", '{"a": 1}', ""]),
    st.text(max_size=4),
)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3), st.text(max_size=3), st.lists(st.integers(-3, 3), max_size=2)
)
VALID = "valid"
# three draws in four give the working file, so that many calls get as far as a fit
FILE = st.sampled_from([VALID, VALID, VALID, None]).flatmap(lambda c: st.binary(max_size=48) if c is None else st.just(c))


@functools.cache
def valid_files() -> dict[str, bytes]:
    """A training CSV, a query CSV and a model fitted on the training CSV."""
    with tempfile.TemporaryDirectory() as work:
        train = os.path.join(work, "train.csv")
        write_training_csv(pathlib.Path(train), n=40, d=1)
        model = os.path.join(work, "model.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fit", train, "--out", model, *TINY_SET_FLAGS]) == EXIT_OK
        files = {name: pathlib.Path(work, name).read_bytes() for name in ("train.csv", "model.json")}
    files["query.csv"] = b"f0\n0.5\n2.0\n"
    files["config.json"] = b"{}"
    return files


def write_files(work: str, files: dict) -> None:
    """Write each file of a cli_calls draw into work; see cli_calls."""
    for name, content in files.items():
        if content == VALID and name == "registry.json":
            content = json.dumps({"datasets": {"d": os.path.join(work, "train.csv")}}).encode()
        elif content == VALID:
            content = valid_files()[name]
        elif isinstance(content, tuple):
            doc = json.loads(valid_files()["model.json"])
            *sections, key = content[0].split(".")
            node = doc["config"]
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = content[1]
            content = json.dumps(doc).encode()
        pathlib.Path(work, name).write_bytes(content)


@st.composite
def cli_calls(draw):
    """One call of each subcommand on drawn files and settings:
    (argv, files, expected exit code or None). argv names each file it
    reads by its key in files, whose value is the bytes to write, VALID
    for a working file, or, for a model, a (config key, JSON value) pair
    to set in the valid model's config."""
    command = draw(st.sampled_from(["fit", "predict", "benchmark", "inspect", "gen"]))
    files, argv = {}, [command]
    if command == "gen":
        for flag, value in (("--n", st.integers(-3, 3)), ("--segments", st.integers(-3, 3)), ("--seed", st.integers(-3, 3))):
            argv += [flag, str(draw(value))]
        return argv + ["--noise-std", draw(st.sampled_from(["0", "0.5", "-1", "nan", "inf", "1e400"])), "--out", "out"], files, None
    if command in ("fit", "benchmark"):
        files["train.csv"] = draw(FILE)
        sets = draw(st.lists(st.tuples(SET_KEYS, SET_VALUES), max_size=2))
        argv += READS[command] + BASE_FLAGS[command]
        argv += [arg for key, raw in sets for arg in ("--set", f"{key}={raw}")] + ["--out", "out"]
        if command == "benchmark":
            files["registry.json"] = draw(FILE)
        if draw(st.booleans()):
            files["config.json"] = draw(FILE)
            argv += ["--config", "config.json"]
        return argv, files, None
    files["model.json"] = draw(st.one_of(FILE, st.tuples(st.sampled_from(CONFIG_KEYS), JSON_VALUES)))
    if command == "inspect":
        rule = ["--rule", str(draw(st.integers(-3, 3)))] if draw(st.booleans()) else []
        return argv + READS[command] + rule, files, None
    files["query.csv"] = draw(FILE)
    return argv + READS[command], files, None


def probe(command, *args, expected, **files):
    """A named example of cli_calls that must exit with the expected
    code; a file's keyword is its name with "_" for "." (train_csv)."""
    argv = [command, *READS.get(command, []), *BASE_FLAGS.get(command, []), *args]
    if command in ("fit", "benchmark", "gen"):
        argv += ["--out", "out"]
    return example((argv, {name.replace("_", "."): content for name, content in files.items()}, expected))


@settings(max_examples=200, deadline=None)
@given(cli_calls())
@probe("fit", "--set", 'ga.mutation_rate="0.5"', train_csv=VALID, expected=EXIT_CONFIG).via("mutation_rate string")
@probe("fit", "--set", "rule_fitness.beta=nan", train_csv=VALID, expected=EXIT_CONFIG).via("beta nan, kept as a string")
@probe("fit", "--set", "n_iter=[1]", train_csv=VALID, expected=EXIT_CONFIG).via("n_iter list")
@probe("fit", "--set", "ridge_coeff=true", train_csv=VALID, expected=EXIT_CONFIG).via("ridge_coeff true")
@probe("fit", "--set", "ga.init_density=true", train_csv=VALID, expected=EXIT_CONFIG).via("init_density true")
@probe("fit", "--set", "rule_fitness.alpha=1e400", train_csv=VALID, expected=EXIT_CONFIG).via("rule alpha inf")
@probe("fit", "--set", "solution_fitness.alpha=1e400", train_csv=VALID, expected=EXIT_CONFIG).via("solution alpha inf")
@probe("fit", "--set", "es.lambda=3", "--set", "es.lambda_=4", train_csv=VALID, expected=EXIT_CONFIG).via("lambda set twice")
@probe("fit", "--set", "n_iter=" + "[" * 100_000, train_csv=VALID, expected=EXIT_CONFIG).via("--set value nested too deep")
@probe("benchmark", "--set", "benchmark.test_fraction=true", train_csv=VALID, registry_json=VALID, expected=EXIT_CONFIG).via(
    "test_fraction true"
)
@probe("predict", model_json=("rule_fitness.alpha", "x"), query_csv=VALID, expected=EXIT_DATA).via("model config alpha x")
@probe("fit", train_csv=b"f0,y\n1,2\n3,\xff\n", expected=EXIT_DATA).via("fit on byte 0xff")
@probe("benchmark", train_csv=b"f0,y\n1,2\n3,\xff\n", registry_json=VALID, expected=EXIT_DATA).via("benchmark on byte 0xff")
@probe("predict", model_json=VALID, query_csv=b"f0\n\xff\n", expected=EXIT_DATA).via("predict on byte 0xff")
@probe("predict", model_json=b'{"\xff": 1}', query_csv=VALID, expected=EXIT_DATA).via("model with byte 0xff")
@probe("fit", "--config", "config.json", train_csv=VALID, config_json=b"\xff", expected=EXIT_CONFIG).via("config with byte 0xff")
@probe("benchmark", train_csv=VALID, registry_json=b"\xff", expected=EXIT_CONFIG).via("registry with byte 0xff")
@probe("predict", model_json=b"[" * 100_000, query_csv=VALID, expected=EXIT_DATA).via("predict on deep nesting")
@probe("inspect", model_json=b"[" * 100_000, expected=EXIT_DATA).via("inspect on deep nesting")
@probe("fit", "--config", "config.json", train_csv=VALID, config_json=b"[" * 100_000, expected=EXIT_CONFIG).via("deep config")
@probe("benchmark", train_csv=VALID, registry_json=b"[" * 100_000, expected=EXIT_CONFIG).via("deep registry")
@probe("benchmark", registry_json=b'{"datasets": {"d": "a\\u0000b"}}', expected=EXIT_DATA).via("registry path with a NUL byte")
@probe("gen", "--n", "0", expected=EXIT_CONFIG).via("gen --n 0")
@probe("gen", "--segments", "0", expected=EXIT_CONFIG).via("gen --segments 0")
@probe("gen", "--noise-std", "inf", expected=EXIT_CONFIG).via("gen --noise-std inf")
@probe("gen", "--noise-std", "nan", expected=EXIT_CONFIG).via("gen --noise-std nan")
def test_every_subcommand_fails_closed(call):
    """Whatever the files and settings, a subcommand exits 0-3 and writes
    to stderr nothing or one error line, never a traceback."""
    argv, files, expected = call
    with tempfile.TemporaryDirectory() as work:
        write_files(work, files)
        argv = [os.path.join(work, arg) if arg in files or arg == "out" else arg for arg in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    lines = stderr.getvalue().splitlines()
    event(f"{argv[0]} exit {code}")
    assert code in ({EXIT_OK, EXIT_DATA, EXIT_CONFIG, EXIT_PARTIAL} if expected is None else {expected})
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines
