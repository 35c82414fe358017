"""Dataset loading, reversible scaling, splitting, and synthetic data.

Learning happens in a scaled space: features min-max scaled to [-1, 1]
and target standardized, always with statistics of the training portion
only. TransformState keeps those statistics so predictions can be
mapped back to original units and new inputs into the scaled space.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import PurePath
from typing import Iterator, NoReturn, TextIO

import numpy as np

from .errors import DataError, DegenerateFeatureError, DegenerateTargetError


@dataclass
class Dataset:
    """A named numeric regression dataset in original units."""

    name: str
    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    target_name: str
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def dim(self) -> int:
        return int(self.X.shape[1])


def _reject_row(path: str, line_no: int, header: list[str], row: list[str]) -> NoReturn:
    """Raise the error for the first cell of a row that is missing, not
    a number or not finite."""
    for column, cell in zip(header, row):
        try:
            if math.isfinite(float(cell)):
                continue
            problem = "non-finite value"
        except ValueError:
            problem = "non-numeric value" if cell.strip() else "missing value"
        raise DataError(f"{path}: {problem} at row {line_no}, column {column!r}: {cell.strip()!r}")


def read_numeric_csv(path) -> tuple[list[str], np.ndarray]:
    """The stripped header and the data rows, as a float matrix, of a CSV
    file; training data and prediction inputs are both read here.

    Blank lines are skipped. Every cell must be a finite number; `#` is
    data, not a comment, and line ends may be \\n, \\r\\n or \\r. The rows
    after the header are parsed in C by np.loadtxt, whose result is taken
    only when it has a row, a column per header name and no non-finite
    value. Anything else, an error included, rereads the file with the
    row reader _read_rows, which gives the same matrix or the error
    naming the row and column of the first bad cell, and which also
    reads the syntax numpy does not: quoted cells, `1_0` and non-ASCII
    digits.
    """
    path = str(path)
    with open(path, newline="") as fh:
        # loadtxt warns on input without a data line; the row reader
        # reports that case, an empty file, and text it cannot decode
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
            first = next((line for line in fh if line.strip()), None)
        except (StopIteration, UnicodeDecodeError, csv.Error):
            first = None
        if first is not None:
            try:
                data = np.loadtxt(itertools.chain((first,), fh), delimiter=",", comments=None, ndmin=2, dtype=float)
            except ValueError:
                data = None
            if data is not None and len(data) and data.shape[1] == len(header) and np.isfinite(data).all():
                return header, data
    return _read_rows(path)


def _read_rows(path: str) -> tuple[list[str], np.ndarray]:
    """read_numeric_csv one row at a time: a row is parsed whole by
    float() and only a row that fails is checked cell by cell."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and row[0].strip() == ""):
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}: row {line_no} has {len(row)} cells, header has {len(header)}")
                try:
                    values = [float(cell) for cell in row]
                    valid = all(map(math.isfinite, values))
                except ValueError:
                    valid = False
                if not valid:
                    _reject_row(path, line_no, header, row)
                rows.append(values)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV text ({exc})") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.array(rows, dtype=float)


def load_csv(path, target_column: str | None = None, name: str | None = None) -> Dataset:
    """Read a numeric CSV with a header row into a Dataset.

    target_column picks the target by header name; the default is the
    last column. Missing, non-numeric or non-finite cells are reported
    with their row and column.
    """
    path = str(path)
    header, data = read_numeric_csv(path)
    if len(header) < 2:
        raise DataError(f"{path}: need at least one feature column and one target column")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if target_column is None:
        target_index = len(header) - 1
    else:
        if target_column not in header:
            raise DataError(f"{path}: target column {target_column!r} not found; columns are {header}")
        target_index = header.index(target_column)

    y = data[:, target_index]
    X = np.delete(data, target_index, axis=1)
    feature_names = [h for i, h in enumerate(header) if i != target_index]
    return Dataset(
        name=name if name is not None else PurePath(path).stem,
        X=X,
        y=y,
        feature_names=feature_names,
        target_name=header[target_index],
    )


@contextmanager
def _atomic_open(path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a temporary file in path's directory for writing and move it
    onto path when the block ends, so a failed write leaves any earlier
    file whole and no temporary file behind."""
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", newline=newline) as fh:
            yield fh
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def write_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV, features first, target last, atomically."""
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*dataset.feature_names, dataset.target_name])
        for x_row, y_val in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in x_row] + [repr(float(y_val))])


# Rows of the min and span tiles of TransformState.scale_features; a
# whole chunk of the mixing kernel, rules._mix_terms, is 64 tiles. Tiles
# of a whole chunk would scale it about 8 us faster, but cached on every
# live model they raised the peak memory of serving 4-d models by 2 MB.
TILE_ROWS = 64


@dataclass(frozen=True)
class TransformState:
    """Scaling statistics fitted on training data.

    Features map affinely onto [-1, 1] from their observed min/max; the
    target is centered and divided by its population standard deviation.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_mean: float
    target_std: float

    @property
    def dim(self) -> int:
        return int(self.feature_min.shape[0])

    def check_features(self, X) -> np.ndarray:
        """X through _real, a 2-d array with one column per feature, or
        DataError; any memory order is kept."""
        X = _real(X, "features")
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DataError(f"expected 2-d input with {self.dim} features, got shape {X.shape}")
        return X

    def scale_features(self, X, out: np.ndarray) -> np.ndarray:
        """The feature scaling, 2 (X - min) / span - 1, of the rows X
        written into out and returned: every scaled feature, whole or a
        chunk at a time, is computed here.

        C-ordered X and out of a multiple of TILE_ROWS rows are scaled as
        rows of TILE_ROWS rows each against min and span tiled once per
        model: the same four operations on each element, in loops the
        length of a tile rather than of a row. Other row counts and
        layouts broadcast."""
        minimum, span, target = self.feature_min, self._span, out
        if X.shape[0] % TILE_ROWS == 0 and X.flags.c_contiguous and out.flags.c_contiguous:
            minimum, span = self._tiles
            X, target = X.reshape(-1, minimum.size), out.reshape(-1, minimum.size)
        np.subtract(X, minimum, out=target)
        target *= 2.0
        target /= span
        target -= 1.0
        return out

    def transform_features(self, X) -> np.ndarray:
        """Scaled features, C-ordered whatever the order of X, so that
        fitting and predicting do not depend on the caller's layout."""
        X = self.check_features(X)
        return self.scale_features(X, np.empty(X.shape))

    @cached_property
    def _span(self) -> np.ndarray:
        return self.feature_max - self.feature_min

    @cached_property
    def _tiles(self) -> tuple[np.ndarray, np.ndarray]:
        return np.tile(self.feature_min, TILE_ROWS), np.tile(self._span, TILE_ROWS)

    def inverse_features(self, X_scaled) -> np.ndarray:
        X_scaled = np.asarray(X_scaled, dtype=float)
        return (X_scaled + 1.0) / 2.0 * self._span + self.feature_min

    def transform_target(self, y) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.target_mean) / self.target_std

    def inverse_target(self, y_scaled, out: np.ndarray | None = None) -> np.ndarray:
        """Standardized targets in original units, written into out when
        given; out may be y_scaled itself."""
        y = np.multiply(np.asarray(y_scaled, dtype=float), self.target_std, out=out)
        y += self.target_mean
        return y


def _real(values, name: str) -> np.ndarray:
    """values as an array, copied as floats only if its dtype does not cast
    safely to float; complex values, whose imaginary parts a cast drops, raise DataError."""
    values = np.asarray(values)
    if values.dtype.kind == "c":
        raise DataError(f"{name} must be real numbers, got dtype {values.dtype}")
    return values if values.dtype == np.float64 or np.can_cast(values.dtype, np.float64) else values.astype(float)


def fit_transform(X, y) -> tuple[TransformState, np.ndarray, np.ndarray]:
    """Fit scaling statistics on (X, y) and return them with the scaled data.

    Complex data fails here (_real), and so does finite data whose range
    overflows a float, naming the feature or the target: a scaled value
    or the target standard deviation that is not finite (an infinite span
    or mean makes scaled values NaN), and a target whose standard
    deviation underflows to 0.
    """
    X = np.asarray(_real(X, "features"), dtype=float)
    y = np.asarray(_real(y, "target"), dtype=float)
    if X.ndim != 2:
        raise DataError(f"X must be 2-d, got shape {X.shape}")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DataError(f"y must be 1-d with one value per row of X, got shape {y.shape}")
    if X.shape[0] < 2:
        raise DataError(f"need at least 2 examples, got {X.shape[0]}")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise DataError("data contains NaN or infinite values")

    feature_min = X.min(axis=0)
    feature_max = X.max(axis=0)
    for i in np.flatnonzero(feature_max == feature_min):
        raise DegenerateFeatureError(f"feature {i} is constant (value {feature_min[i]}) and cannot be scaled")
    if y.min() == y.max():
        raise DegenerateTargetError(f"target is constant (value {y[0]}) and cannot be standardized")

    # overflow is reported below as an error, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        target_mean = float(y.mean())
        target_std = float(y.std())
        if target_std == 0.0:
            raise DegenerateTargetError(f"target spans {y.min()} to {y.max()}; its standard deviation underflows to 0")
        state = TransformState(
            feature_min=feature_min,
            feature_max=feature_max,
            target_mean=target_mean,
            target_std=target_std,
        )
        X_scaled = state.transform_features(X)
        y_scaled = state.transform_target(y)
    for i in np.flatnonzero(~np.isfinite(X_scaled).all(axis=0)):
        raise DataError(f"feature {i} spans {feature_min[i]} to {feature_max[i]}, a range that overflows a float")
    # an infinite std scales every target to a finite 0
    if not math.isfinite(target_std) or not np.isfinite(y_scaled).all():
        raise DataError(f"target spans {y.min()} to {y.max()}, a range that overflows a float")
    return state, X_scaled, y_scaled


def monte_carlo_split(n: int, test_fraction: float = 0.25, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """One random disjoint train/test partition of range(n).

    The test side gets round(test_fraction * n) indices; both sides come
    back sorted. Different seeds give independent resamples.
    """
    if n < 4:
        raise ValueError(f"need at least 4 examples to split, got {n}")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie strictly between 0 and 1, got {test_fraction}")
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test > n - 1:
        raise ValueError(f"test_fraction {test_fraction} with n={n} leaves an empty train or test side")
    permutation = np.random.default_rng(seed).permutation(n)
    test = np.sort(permutation[:n_test])
    train = np.sort(permutation[n_test:])
    return train, test


def gen_piecewise_linear(
    n: int,
    segments: int,
    noise_std: float = 0.0,
    seed: int = 0,
    name: str = "piecewise_linear",
) -> Dataset:
    """A 1-d dataset whose target is continuous piecewise linear on [0, 1].

    The domain splits into equal-width segments with independently drawn
    slopes, joined continuously. The generating breakpoints, slopes, and
    segment start levels land in Dataset.metadata so a test can rebuild
    the exact target function.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if segments < 1:
        raise ValueError(f"need at least 1 segment, got {segments}")
    if noise_std < 0:
        raise ValueError(f"noise_std must be non-negative, got {noise_std}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=n)
    slopes = rng.uniform(-4.0, 4.0, size=segments)
    breakpoints = np.linspace(0.0, 1.0, segments + 1)
    # Value at each breakpoint, chaining segments continuously from 0.
    levels = np.concatenate([[0.0], np.cumsum(slopes / segments)])
    segment = np.minimum((x * segments).astype(int), segments - 1)
    y = levels[segment] + slopes[segment] * (x - breakpoints[segment])
    if noise_std > 0:
        y = y + rng.normal(0.0, noise_std, size=n)
    return Dataset(
        name=name,
        X=x.reshape(-1, 1),
        y=y,
        feature_names=["x"],
        target_name="y",
        metadata={
            "breakpoints": breakpoints.tolist(),
            "slopes": slopes.tolist(),
            "levels": levels.tolist(),
            "noise_std": float(noise_std),
            "seed": int(seed),
        },
    )
