import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rulemix import Dataset, ESConfig, FitnessParams, GAConfig, LearnerConfig


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def small_config(master_seed: int = 7, **overrides) -> LearnerConfig:
    """A reduced configuration that trains in milliseconds."""
    defaults = dict(
        n_iter=3,
        es=ESConfig(lambda_=6, delta=2, n_rules=2),
        ga=GAConfig(population_size=10, generations=5, n_elitists=2),
        rule_fitness=FitnessParams(),
        solution_fitness=FitnessParams(),
        master_seed=master_seed,
    )
    defaults.update(overrides)
    return LearnerConfig(**defaults)


def linear_data(n: int = 120, d: int = 2, noise: float = 0.0, seed: int = 0):
    """Raw-unit data with a known linear target."""
    gen = np.random.default_rng(seed)
    X = gen.uniform(-3.0, 7.0, size=(n, d))
    coef = np.arange(1, d + 1, dtype=float)
    y = X @ coef + 2.5
    if noise > 0:
        y = y + gen.normal(0.0, noise, size=n)
    return X, y


BAD_CELLS = ("", "nan", "inf", "x")


@st.composite
def csv_cases(draw):
    """A finite float matrix of 2-4 columns and a bad cell to put in it:
    (matrix, row index, column index, cell text)."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(2, 4))
    matrix = draw(arrays(np.float64, (n, d), elements=st.floats(allow_nan=False, allow_infinity=False)))
    return matrix, draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1)), draw(st.sampled_from(BAD_CELLS))


def matrix_dataset(matrix) -> Dataset:
    """A Dataset whose CSV form is the matrix, with columns c0, c1, ..."""
    names = [f"c{i}" for i in range(matrix.shape[1])]
    return Dataset(name="m", X=matrix[:, :-1], y=matrix[:, -1], feature_names=names[:-1], target_name=names[-1])


def replace_cell(path, row: int, column: int, text: str) -> None:
    """Overwrite one data cell of a CSV written by write_csv (no quoting)."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
