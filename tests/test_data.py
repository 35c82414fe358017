import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulemix import (
    Dataset,
    fit_transform,
    gen_piecewise_linear,
    load_csv,
    monte_carlo_split,
    write_csv,
)
from rulemix.data import TILE_ROWS, _read_rows, read_numeric_csv
from rulemix.errors import DataError, DegenerateFeatureError, DegenerateTargetError

from conftest import csv_cases, matrix_dataset, replace_cell


@settings(max_examples=100, deadline=None)
@given(csv_cases())
def test_load_csv_reads_write_csv_bit_for_bit_and_names_a_bad_cell(tmp_path_factory, case):
    matrix, row, column, bad = case
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    write_csv(matrix_dataset(matrix), path)
    back = load_csv(path)
    assert np.hstack([back.X, back.y[:, None]]).tobytes() == matrix.tobytes()
    replace_cell(path, row, column, bad)
    with pytest.raises(DataError, match=f"at row {row + 2}, column 'c{column}'"):
        load_csv(path)


# Cells numpy and the row reader may read differently: comment marks,
# quotes, underscores, hex, a full-width digit, overflow, non-finite
# names and empty or blank cells.
HAZARDS = ("#", "#1", '"3"', "1_0", "0x10", "\uff11", "1e400", "nan", "Infinity", "", "  ")
EXTREMES = ("5e-324", "1.7976931348623157e308", "-1.7976931348623157e308")
decimals = st.builds(
    lambda sign, digits, point, exponent: sign + digits[:point] + "." + digits[point:] + exponent,
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", min_size=1, max_size=40),
    st.integers(0, 40),
    st.sampled_from(["", "e5", "E-7", "e+300", "e-330"]),
)
cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    decimals,
    st.sampled_from(EXTREMES),
    st.sampled_from(HAZARDS),
)


@st.composite
def csv_texts(draw):
    """The text of a CSV file: 1-4 header columns and 0-6 lines of rows,
    ragged rows, trailing commas and blank, whitespace-only or comma-only
    lines, each line ended by \\n, \\r\\n or \\r, the last one maybe not;
    or an empty file."""
    if draw(st.integers(0, 19)) == 0:
        return ""
    width = draw(st.integers(1, 4))
    lines = [",".join("abcd"[:width])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", ",", "# 3,4"])))
            continue
        row = draw(st.lists(cells, min_size=width, max_size=width))
        if kind == 1:
            row = row[: draw(st.integers(1, width))] + draw(st.lists(cells, max_size=1))
        elif kind == 2:
            row.append("")
        lines.append(",".join(row))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def read_outcome(read, path):
    """(header, matrix bytes, shape) of a read, or the DataError's message."""
    try:
        header, data = read(path)
    except DataError as exc:
        return str(exc)
    return header, data.tobytes(), data.shape


@settings(max_examples=1000, deadline=None)
@given(csv_texts())
def test_fast_reader_equals_row_reader(tmp_path_factory, text):
    """read_numeric_csv, numpy first, returns the header and matrix of
    the row reader, or raises its DataError, and warns of nothing."""
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = read_outcome(read_numeric_csv, path)
    assert caught == []
    assert outcome == read_outcome(_read_rows, str(path))


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_basic_load(self, tmp_path):
        path = self.write(tmp_path, "a,b,target\n1,2,3\n4,5,6\n")
        ds = load_csv(path)
        assert ds.feature_names == ["a", "b"]
        assert ds.target_name == "target"
        assert ds.X.tolist() == [[1.0, 2.0], [4.0, 5.0]]
        assert ds.y.tolist() == [3.0, 6.0]
        assert ds.name == "data"

    def test_target_column_by_name(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        ds = load_csv(path, target_column="b")
        assert ds.feature_names == ["a", "c"]
        assert ds.y.tolist() == [2.0, 5.0]
        assert ds.X.tolist() == [[1.0, 3.0], [4.0, 6.0]]

    def test_unknown_target_column(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError):
            load_csv(path, target_column="zzz")

    def test_missing_value_diagnostic_names_position(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        message = str(err.value)
        assert "row 3" in message
        assert "'b'" in message

    def test_non_numeric_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,b\nx,2\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,b\ninf,2\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,a\n1,2\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = self.write(tmp_path, "only\n1\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_no_rows_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,b\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_round_trip_through_write_csv(self, tmp_path, rng):
        X = rng.normal(size=(7, 3))
        y = rng.normal(size=7)
        ds = Dataset(name="rt", X=X, y=y, feature_names=["p", "q", "r"], target_name="t")
        out = tmp_path / "rt.csv"
        write_csv(ds, out)
        back = load_csv(out)
        assert back.feature_names == ["p", "q", "r"]
        assert back.target_name == "t"
        # repr round-trips every float bit-exactly
        assert np.array_equal(back.X, X)
        assert np.array_equal(back.y, y)


class TestFitTransform:
    def test_features_land_in_unit_box(self, rng):
        X = rng.uniform(-100, 50, size=(40, 3))
        y = rng.normal(10, 5, size=40)
        state, X_scaled, y_scaled = fit_transform(X, y)
        assert X_scaled.min() >= -1.0
        assert X_scaled.max() <= 1.0
        # every column touches both ends
        assert X_scaled.min(axis=0) == pytest.approx(np.full(3, -1.0), abs=1e-12)
        assert X_scaled.max(axis=0) == pytest.approx(np.full(3, 1.0), abs=1e-12)

    def test_target_standardized(self, rng):
        y = rng.normal(3.0, 2.0, size=100)
        X = rng.uniform(size=(100, 1))
        state, _, y_scaled = fit_transform(X, y)
        assert float(np.mean(y_scaled)) == pytest.approx(0.0, abs=1e-12)
        # population standard deviation, not the sample estimator
        assert float(np.std(y_scaled)) == pytest.approx(1.0, abs=1e-12)
        assert state.target_std == pytest.approx(float(np.std(y)), rel=1e-12)

    def test_known_affine_map(self):
        X = np.array([[0.0], [5.0], [10.0]])
        y = np.array([1.0, 2.0, 3.0])
        state, X_scaled, _ = fit_transform(X, y)
        assert X_scaled[:, 0].tolist() == [-1.0, 0.0, 1.0]

    def test_inverse_round_trip(self, rng):
        X = rng.uniform(-7, 13, size=(30, 2))
        y = rng.normal(size=30)
        state, X_scaled, y_scaled = fit_transform(X, y)
        assert state.inverse_features(X_scaled) == pytest.approx(X, rel=1e-12)
        assert state.inverse_target(y_scaled) == pytest.approx(y, rel=1e-12, abs=1e-12)
        assert state.transform_features(X) == pytest.approx(X_scaled, abs=1e-15)
        assert state.transform_target(y) == pytest.approx(y_scaled, abs=1e-15)

    def test_constant_feature_rejected_with_index(self, rng):
        X = rng.uniform(size=(10, 3))
        X[:, 1] = 4.2
        y = rng.normal(size=10)
        with pytest.raises(DegenerateFeatureError) as err:
            fit_transform(X, y)
        assert "1" in str(err.value)

    def test_constant_target_rejected(self, rng):
        X = rng.uniform(size=(10, 2))
        with pytest.raises(DegenerateTargetError):
            fit_transform(X, np.full(10, 7.0))

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            fit_transform(np.array([[1.0]]), np.array([1.0]))

    def test_non_finite_rejected(self):
        X = np.array([[0.0], [np.nan]])
        with pytest.raises(DataError):
            fit_transform(X, np.array([0.0, 1.0]))

    def test_transform_features_shape_check(self, rng):
        X = rng.uniform(size=(5, 2))
        y = rng.normal(size=5)
        state, _, _ = fit_transform(X, y)
        with pytest.raises(DataError):
            state.transform_features(rng.uniform(size=(3, 4)))


@pytest.mark.parametrize("rows", [0, 1, 2, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 64 * TILE_ROWS, 64 * TILE_ROWS + 1])
@pytest.mark.parametrize("layout", ["C", "F", "float32", "int"])
def test_tiled_scaling_equals_the_broadcast_expression_bitwise(rows, layout):
    """C-ordered rows, a multiple of TILE_ROWS of them, are scaled in rows
    of tiles against tiled min and span; every row count and layout gives
    the bits of 2 (X - min) / span - 1 broadcast along the rows."""
    gen = np.random.default_rng(rows)
    state, _, _ = fit_transform(gen.uniform(-3.0, 9.0, size=(20, 3)), gen.normal(size=20))
    X = gen.uniform(-5.0, 11.0, size=(rows, 3))
    X = {"C": X, "F": np.asfortranarray(X), "float32": X.astype(np.float32), "int": np.rint(X).astype(np.int64)}[layout]
    expected = 2.0 * (X - state.feature_min) / (state.feature_max - state.feature_min) - 1.0
    out = np.empty((rows, 3))
    assert state.scale_features(X, out) is out
    assert out.tobytes() == expected.tobytes()


class TestMonteCarloSplit:
    def test_sizes_and_disjointness(self):
        train, test = monte_carlo_split(100, test_fraction=0.25, seed=3)
        assert len(test) == 25
        assert len(train) == 75
        assert set(train).isdisjoint(test)
        assert sorted(set(train) | set(test)) == list(range(100))

    def test_test_size_is_rounded(self):
        _, test = monte_carlo_split(10, test_fraction=0.25, seed=0)
        assert len(test) == round(0.25 * 10)
        _, test = monte_carlo_split(10, test_fraction=0.33, seed=0)
        assert len(test) == 3

    def test_indices_sorted(self):
        train, test = monte_carlo_split(50, seed=11)
        assert train.tolist() == sorted(train.tolist())
        assert test.tolist() == sorted(test.tolist())

    def test_deterministic_per_seed(self):
        a = monte_carlo_split(60, seed=5)
        b = monte_carlo_split(60, seed=5)
        c = monte_carlo_split(60, seed=6)
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()
        assert a[1].tolist() != c[1].tolist()

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_split(4, test_fraction=0.05)
        with pytest.raises(ValueError):
            monte_carlo_split(4, test_fraction=0.95)

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_split(3)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_split(10, test_fraction=0.0)
        with pytest.raises(ValueError):
            monte_carlo_split(10, test_fraction=1.0)


class TestGenPiecewiseLinear:
    def test_shape_and_metadata(self):
        ds = gen_piecewise_linear(200, segments=3, seed=9)
        assert ds.X.shape == (200, 1)
        assert ds.y.shape == (200,)
        assert len(ds.metadata["breakpoints"]) == 4
        assert len(ds.metadata["slopes"]) == 3
        assert ds.metadata["noise_std"] == 0.0

    def test_noiseless_points_sit_on_the_segments(self):
        ds = gen_piecewise_linear(500, segments=4, noise_std=0.0, seed=2)
        breaks = np.asarray(ds.metadata["breakpoints"])
        slopes = np.asarray(ds.metadata["slopes"])
        levels = np.asarray(ds.metadata["levels"])
        x = ds.X[:, 0]
        seg = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, len(slopes) - 1)
        expected = levels[seg] + slopes[seg] * (x - breaks[seg])
        assert ds.y == pytest.approx(expected, abs=1e-12)

    def test_function_is_continuous_at_breakpoints(self):
        ds = gen_piecewise_linear(10, segments=5, seed=4)
        breaks = np.asarray(ds.metadata["breakpoints"])
        slopes = np.asarray(ds.metadata["slopes"])
        levels = np.asarray(ds.metadata["levels"])
        for k in range(len(slopes) - 1):
            left_end = levels[k] + slopes[k] * (breaks[k + 1] - breaks[k])
            assert left_end == pytest.approx(levels[k + 1], abs=1e-12)

    def test_noise_changes_y_only(self):
        clean = gen_piecewise_linear(100, segments=2, noise_std=0.0, seed=7)
        noisy = gen_piecewise_linear(100, segments=2, noise_std=0.1, seed=7)
        assert np.array_equal(clean.X, noisy.X)
        assert not np.array_equal(clean.y, noisy.y)

    def test_deterministic(self):
        a = gen_piecewise_linear(50, segments=3, noise_std=0.05, seed=1)
        b = gen_piecewise_linear(50, segments=3, noise_std=0.05, seed=1)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_piecewise_linear(0, segments=2)
        with pytest.raises(ValueError):
            gen_piecewise_linear(10, segments=0)
        with pytest.raises(ValueError):
            gen_piecewise_linear(10, segments=2, noise_std=-0.1)
