import contextlib
import csv
import io
import json
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rulemix import (
    FitnessParams,
    LearnerConfig,
    Pool,
    PoolEvaluator,
    TrainedModel,
    TransformState,
    fit,
    fit_submodel,
    load_model,
    model_document,
    save_model,
    write_report_json,
)
from rulemix.benchmark import BenchmarkReport, RunRecord, write_records_csv
from rulemix.cli import EXIT_DATA, main
from rulemix.errors import DataError, ModelFormatError, ModelVersionError
from rulemix.persistence import FORMAT_VERSION, RULE_KEYS, document_to_model

from conftest import linear_data, small_config


@pytest.fixture(scope="module")
def trained():
    X, y = linear_data(n=100, d=2, noise=0.2, seed=42)
    return fit(X, y, small_config(master_seed=5)), X


class TestSaveLoad:
    def test_round_trip_predictions_bit_exact(self, trained, tmp_path):
        model, X = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        gen = np.random.default_rng(0)
        X_query = gen.uniform(X.min(axis=0), X.max(axis=0), size=(100, 2))
        assert np.array_equal(model.predict(X_query), loaded.predict(X_query))

    def test_round_trip_structure(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert len(loaded.pool) == len(model.pool)
        assert loaded.elitist.complexity == model.elitist.complexity
        assert loaded.elitist.fitness == model.elitist.fitness
        assert np.array_equal(loaded.elitist.genome, model.elitist.genome)
        assert loaded.config == model.config
        for ra, rb in zip(model.pool, loaded.pool):
            assert np.array_equal(ra.lower, rb.lower)
            assert np.array_equal(ra.upper, rb.upper)
            assert np.array_equal(ra.coefficients, rb.coefficients)
            assert ra.intercept == rb.intercept
            assert ra.in_sample_mse == rb.in_sample_mse
            assert ra.experience == rb.experience
            assert ra.volume == rb.volume
            assert ra.fitness == rb.fitness

    def test_transform_round_trips(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.transform.feature_min, model.transform.feature_min)
        assert np.array_equal(loaded.transform.feature_max, model.transform.feature_max)
        assert loaded.transform.target_mean == model.transform.target_mean
        assert loaded.transform.target_std == model.transform.target_std

    def test_file_is_stable_json(self, trained, tmp_path):
        model, _ = trained
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc["format_version"] == FORMAT_VERSION

    def test_genome_serialized_as_bit_string(self, trained):
        model, _ = trained
        doc = model_document(model)
        bits = doc["elitist"]["genome_bits"]
        assert isinstance(bits, str)
        assert set(bits) <= {"0", "1"}
        assert len(bits) == len(model.pool)

    def test_save_load_save_is_identical(self, trained, tmp_path):
        model, _ = trained
        p1 = tmp_path / "first.json"
        save_model(model, p1)
        p2 = tmp_path / "second.json"
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFormatErrors:
    def base_doc(self, trained):
        model, _ = trained
        return model_document(model)

    def test_truncated_file(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_version(self, trained):
        doc = self.base_doc(trained)
        del doc["format_version"]
        with pytest.raises(ModelFormatError):
            document_to_model(doc)

    def test_future_version(self, trained):
        doc = self.base_doc(trained)
        doc["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ModelVersionError) as err:
            document_to_model(doc)
        assert "version" in str(err.value)

    def test_version_error_is_a_format_error(self):
        assert issubclass(ModelVersionError, ModelFormatError)

    def test_genome_length_mismatch(self, trained):
        doc = self.base_doc(trained)
        doc["elitist"]["genome_bits"] = doc["elitist"]["genome_bits"] + "0"
        with pytest.raises(ModelFormatError):
            document_to_model(doc)

    def test_complexity_popcount_mismatch(self, trained):
        doc = self.base_doc(trained)
        doc["elitist"]["complexity"] = doc["elitist"]["complexity"] + 1
        with pytest.raises(ModelFormatError):
            document_to_model(doc)

    def test_inverted_rule_bounds(self, trained):
        doc = self.base_doc(trained)
        doc["pool"][0]["lower"], doc["pool"][0]["upper"] = (
            doc["pool"][0]["upper"],
            doc["pool"][0]["lower"],
        )
        with pytest.raises(ModelFormatError):
            document_to_model(doc)

    def test_dimension_mismatch_across_rules(self, trained):
        doc = self.base_doc(trained)
        doc["pool"][1]["lower"] = doc["pool"][1]["lower"] + [0.0]
        with pytest.raises(ModelFormatError):
            document_to_model(doc)

    def test_nonpositive_target_std(self, trained):
        doc = self.base_doc(trained)
        doc["transform"]["target_std"] = 0.0
        with pytest.raises(ModelFormatError):
            document_to_model(doc)

    def test_bad_experience(self, trained):
        doc = self.base_doc(trained)
        doc["pool"][0]["experience"] = 0
        with pytest.raises(ModelFormatError):
            document_to_model(doc)

    def test_negative_mse(self, trained):
        doc = self.base_doc(trained)
        doc["pool"][0]["mse"] = -0.5
        with pytest.raises(ModelFormatError):
            document_to_model(doc)

    def test_invalid_config_reported_as_format_error(self, trained):
        doc = self.base_doc(trained)
        doc["config"]["n_iter"] = 0
        with pytest.raises(ModelFormatError):
            document_to_model(doc)

    def test_stray_genome_characters(self, trained):
        doc = self.base_doc(trained)
        bits = doc["elitist"]["genome_bits"]
        doc["elitist"]["genome_bits"] = "2" + bits[1:]
        with pytest.raises(ModelFormatError):
            document_to_model(doc)

    def test_non_object_document(self):
        with pytest.raises(ModelFormatError):
            document_to_model([1, 2, 3])

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all{{{")
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestNonFiniteAndOutOfRange:
    """Model files that would make predict return NaN or match outside
    the scaled feature box fail to load."""

    def saved_doc(self, trained, tmp_path, edit):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return path

    def selected_index(self, doc):
        return doc["elitist"]["genome_bits"].index("1")

    def test_nan_coefficient_fails_to_load(self, trained, tmp_path):
        def edit(doc):
            doc["pool"][self.selected_index(doc)]["coefficients"][0] = float("nan")

        path = self.saved_doc(trained, tmp_path, edit)
        assert "NaN" in path.read_text()
        with pytest.raises(ModelFormatError, match="NaN"):
            load_model(path)

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "1e999", "1" + "0" * 400])
    def test_infinite_intercept_fails_to_load(self, trained, tmp_path, literal):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        old = f'"intercept": {json.dumps(model.pool[0].intercept)}'
        assert old in text
        path.write_text(text.replace(old, f'"intercept": {literal}', 1))
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    def test_non_finite_values_in_a_document_are_rejected(self, trained):
        model, _ = trained
        doc = model_document(model)
        doc["pool"][0]["coefficients"][0] = float("nan")
        with pytest.raises(ModelFormatError, match="finite"):
            document_to_model(doc)
        doc = model_document(model)
        doc["transform"]["target_mean"] = float("inf")
        with pytest.raises(ModelFormatError, match="finite"):
            document_to_model(doc)
        doc = model_document(model)
        doc["pool"][0]["upper"][0] = 10**400
        with pytest.raises(ModelFormatError, match="finite"):
            document_to_model(doc)

    def test_lower_bound_below_box_fails_to_load(self, trained, tmp_path):
        def edit(doc):
            doc["pool"][self.selected_index(doc)]["lower"][0] = -5.0

        with pytest.raises(ModelFormatError, match="-1 <= lower <= upper <= 1"):
            load_model(self.saved_doc(trained, tmp_path, edit))

    def test_upper_bound_above_box_fails_to_load(self, trained, tmp_path):
        def edit(doc):
            doc["pool"][0]["upper"][-1] = 1.5

        with pytest.raises(ModelFormatError, match="-1 <= lower <= upper <= 1"):
            load_model(self.saved_doc(trained, tmp_path, edit))

    def test_bounds_on_the_box_edge_load(self, trained, tmp_path):
        def edit(doc):
            doc["pool"][0]["lower"] = [-1.0] * len(doc["pool"][0]["lower"])
            doc["pool"][0]["upper"] = [1.0] * len(doc["pool"][0]["upper"])
            doc["pool"][0]["volume"] = 1.0

        loaded = load_model(self.saved_doc(trained, tmp_path, edit))
        assert np.all(loaded.pool[0].lower == -1.0) and np.all(loaded.pool[0].upper == 1.0)


class TestVolumeCheck:
    """A rule's stored volume must equal the share of the box its bounds
    cover, computed exactly as fitting computes it."""

    def test_volume_one_ulp_off_fails_to_load(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["pool"][1]["volume"] = math.nextafter(doc["pool"][1]["volume"], 2.0)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        with pytest.raises(ModelFormatError, match=r"pool\[1\]\.volume .* does not match its bounds"):
            load_model(path)

    def test_bounds_edited_without_the_volume_fail_to_load(self, trained):
        model, _ = trained
        doc = model_document(model)
        doc["pool"][0]["upper"] = [1.0] * len(doc["pool"][0]["upper"])
        with pytest.raises(ModelFormatError, match="volume"):
            document_to_model(doc)


class TestAtomicWrites:
    @pytest.mark.parametrize("kind", ["model", "report", "records"])
    def test_failed_write_keeps_the_previous_file(self, trained, tmp_path, monkeypatch, kind):
        model, _ = trained
        records = [RunRecord("d", seed, 0, 0.5, 1.5, 1.0, 3, 0.1) for seed in range(3)]
        report = BenchmarkReport(
            master_seed=0, n_seeds=3, n_splits=1, test_fraction=0.25, config=model.config, dataset_names=["d"], records=records
        )
        path = tmp_path / "out"
        write = {
            "model": lambda: save_model(model, path),
            "report": lambda: write_report_json(report, path),
            "records": lambda: write_records_csv(report, path),
        }[kind]
        write()
        before = path.read_bytes()

        def dump_half_then_fail(doc, fh, **kwargs):
            fh.write(json.dumps(doc)[:20])
            raise OSError("disk full")

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

        monkeypatch.setattr(json, "dump", dump_half_then_fail)
        monkeypatch.setattr(csv, "writer", writer_failing_on_third_row)
        with pytest.raises(OSError, match="disk full"):
            write()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out"]


unit_floats = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def trained_models(draw):
    """Rules fitted on random boxes, a random genome over them and a
    random scaling; every box holds at least its own corner row."""
    d = draw(st.integers(1, 3))
    X = draw(arrays(np.float64, (draw(st.integers(1, 20)), d), elements=unit_floats))
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(arrays(np.float64, d, elements=unit_floats))
        b = draw(arrays(np.float64, d, elements=unit_floats))
        boxes.append((np.minimum(a, b), np.maximum(a, b)))
    X = np.vstack([X, *(lower for lower, _ in boxes)])
    y = draw(arrays(np.float64, X.shape[0], elements=st.floats(-3.0, 3.0)))
    pool = Pool([fit_submodel(lower, upper, X, y, fitness_params=FitnessParams()) for lower, upper in boxes])
    genome = np.array(draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool))), dtype=bool)
    feature_min = draw(arrays(np.float64, d, elements=st.floats(-100.0, 100.0)))
    widths = draw(arrays(np.float64, d, elements=st.floats(0.5, 100.0)))
    transform = TransformState(
        feature_min=feature_min,
        feature_max=feature_min + widths,
        target_mean=draw(st.floats(-100.0, 100.0)),
        target_std=draw(st.floats(0.01, 100.0)),
    )
    elitist = PoolEvaluator(pool, X, y).evaluate(genome, FitnessParams())
    return TrainedModel(pool=pool, elitist=elitist, transform=transform, config=LearnerConfig()), X


@settings(max_examples=60, deadline=None)
@given(trained_models())
def test_save_load_round_trip_of_arbitrary_pools(tmp_path_factory, case):
    model, X_scaled = case
    path = tmp_path_factory.mktemp("round-trip") / "model.json"
    save_model(model, path)
    # loading runs every check, the volume check included
    loaded = load_model(path)
    assert json.dumps(model_document(loaded), sort_keys=True) == json.dumps(model_document(model), sort_keys=True)
    X = model.transform.inverse_features(X_scaled)
    assert loaded.predict(X).tobytes() == model.predict(X).tobytes()


FAULTS = (
    "NaN",
    "Infinity",
    "-Infinity",
    "below the box",
    "above the box",
    "lower above upper",
    "huge experience",
    "missing field",
    "null",
    "true",
    "string",
    "wrong length",
    "not an object",
    "float experience",
    "experience 2**63",
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_bad_value_in_any_one_rule_fails_closed(trained, tmp_path_factory, data):
    """A model file with NaN, Inf, null, true or a string in any field
    of one rule, a missing field, a bound outside [-1, 1], a lower bound
    above the upper one, a bounds or coefficients list of the wrong
    length, a rule that is not an object or an experience that is not an
    integer a float holds exactly fails to load with an error that names
    that rule, and `rulemix predict` exits with the data error code."""
    model, _ = trained
    doc = model_document(model)
    index = data.draw(st.integers(0, len(doc["pool"]) - 1), label="rule")
    rule = doc["pool"][index]
    fault = data.draw(st.sampled_from(FAULTS), label="fault")
    j = data.draw(st.integers(0, len(rule["lower"]) - 1), label="dimension")
    step = data.draw(st.floats(1e-9, 10.0), label="step")
    if fault in ("NaN", "Infinity", "-Infinity"):
        key = data.draw(st.sampled_from(sorted(set(rule) - {"experience"})), label="field")
        if isinstance(rule[key], list):
            rule[key][j] = float(fault.lower().replace("infinity", "inf"))
        else:
            rule[key] = float(fault.lower().replace("infinity", "inf"))
    elif fault == "below the box":
        rule["lower"][j] = -1.0 - step
    elif fault == "above the box":
        rule["upper"][j] = 1.0 + step
    elif fault == "huge experience":
        rule["experience"] = 10**400
    elif fault == "missing field":
        del rule[data.draw(st.sampled_from(RULE_KEYS), label="field")]
    elif fault in ("null", "true", "string"):
        value = {"null": None, "true": True, "string": "0.5"}[fault]
        key = data.draw(st.sampled_from(RULE_KEYS), label="field")
        if isinstance(rule[key], list) and data.draw(st.booleans(), label="in the list"):
            rule[key][j] = value
        else:
            rule[key] = value
    elif fault == "wrong length":
        key = data.draw(st.sampled_from(RULE_KEYS[:3]), label="field")
        rule[key] = rule[key][:-1] if data.draw(st.booleans(), label="shorter") else rule[key] + [0.0]
    elif fault == "not an object":
        doc["pool"][index] = data.draw(st.sampled_from([None, [], "rule", 1.0, list(rule.values())]), label="rule value")
    elif fault == "float experience":
        rule["experience"] = float(rule["experience"])
    elif fault == "experience 2**63":
        rule["experience"] = 2**63
    else:
        rule["lower"][j] = rule["upper"][j] + step
    directory = tmp_path_factory.mktemp("bad-rule")
    path = directory / "model.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    with pytest.raises(ModelFormatError, match=re.escape(f"pool[{index}]")):
        load_model(path)
    features = directory / "query.csv"
    features.write_text("f0,f1\n0.5,1.0\n")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        assert main(["predict", str(path), str(features)]) == EXIT_DATA
    assert f"pool[{index}]" in stderr.getvalue()


NAN, INF = float("nan"), float("inf")
# bad values of each transform and elitist field, a few as functions of
# the saved value; with every field, a missing key is also drawn
BAD_FIELDS = {
    "transform.feature_min": [[], None, True, "0.5", {}, lambda v: [NAN] + v[1:], lambda v: v[:-1] + ["0.5"]],
    "transform.feature_max": [None, [], lambda v: v[:-1], lambda v: v + [1.0], lambda v: [INF] + v[1:], lambda v: [-1e300] + v[1:]],
    "transform.target_mean": [NAN, INF, -INF, None, True, "0.5", [0.0]],
    "transform.target_std": [0.0, -1.0, -0.0, NAN, INF, None, True, "0.5"],
    "elitist.genome_bits": [None, 7, [], lambda v: v + "0", lambda v: v[:-1], lambda v: "2" + v[1:], lambda v: list(v)],
    "elitist.fitness": [-0.1, 7, 1.0000001, NAN, INF, None, True, "0.5"],
    "elitist.complexity": [None, True, "1", lambda v: v + 1, lambda v: v - 1, lambda v: float(v)],
    "elitist.mse": [-1, -1e-300, NAN, INF, None, False, "0.5"],
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_bad_value_in_any_transform_or_elitist_field_fails_closed(trained, tmp_path_factory, data):
    """A model file with one bad value in a transform or elitist field (of
    the wrong type, non-finite, out of range, of the wrong length, at
    odds with another field, or missing) fails to load with an error that
    names section.field, and `rulemix predict` exits with the data error
    code."""
    model, _ = trained
    doc = model_document(model)
    name = data.draw(st.sampled_from(sorted(BAD_FIELDS)), label="field")
    section, key = name.split(".")
    bad = data.draw(st.sampled_from(["missing", *BAD_FIELDS[name]]), label="value")
    if bad == "missing":
        del doc[section][key]
    else:
        doc[section][key] = bad(doc[section][key]) if callable(bad) else bad
    directory = tmp_path_factory.mktemp("bad-field")
    path = directory / "model.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    with pytest.raises(ModelFormatError, match=re.escape(name)):
        load_model(path)
    features = directory / "query.csv"
    features.write_text("f0,f1\n0.5,1.0\n")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        assert main(["predict", str(path), str(features)]) == EXIT_DATA
    assert name in stderr.getvalue()


@st.composite
def finite_data_of_any_magnitude(draw):
    """A small regression set whose features and target are each scaled
    by a power of ten from 1e-320 to 1e308 and shifted by 0 or a power of
    ten up to 1e307 in either direction: finite, but possibly beyond what
    a float can scale."""
    n, d = draw(st.integers(2, 20)), draw(st.integers(1, 2))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = st.integers(-320, 308).map(lambda e: 10.0**e)
    shift = st.integers(-320, 307).map(lambda e: 10.0**e)
    offset = st.one_of(st.just(0.0), shift, shift.map(lambda m: -m))
    X = gen.uniform(-1.0, 1.0, size=(n, d)) * draw(magnitude) + draw(offset)
    y = gen.uniform(-1.0, 1.0, size=n) * draw(magnitude) + draw(offset)
    return X, y


@settings(max_examples=60, deadline=None)
@given(finite_data_of_any_magnitude())
def test_finite_data_of_any_magnitude_fails_closed_or_serves_finite(tmp_path_factory, case):
    """fit either raises DataError or gives a model whose saved and
    loaded copy predicts the training rows finitely, as the model does."""
    X, y = case
    assert np.isfinite(X).all() and np.isfinite(y).all()
    try:
        model = fit(X, y, small_config(master_seed=3))
    except DataError:
        return
    path = tmp_path_factory.mktemp("magnitude") / "model.json"
    save_model(model, path)
    predictions = load_model(path).predict(X)
    assert np.isfinite(predictions).all()
    assert predictions.tobytes() == model.predict(X).tobytes()
