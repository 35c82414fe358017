"""Interval rules, their linear submodels, the pool and mixing.

A rule matches the inputs lying inside its closed per-dimension
interval and predicts through a linear model fitted by ridge regression
on exactly the training rows it matches. Every rule is fitted and
scored by one function, _fit_boxes, over one batched ridge arithmetic:
alone through fit_submodel, or with the other children of its ES
generation. Rows are tested against bounds by _match_matrix alone. Rule
fitnesses are independent, so a fitted rule never changes: the Pool
keeps every rule of a run as rows of stacked arrays and only ever
appends, so a rule's pool index is a stable identifier for the whole
run. Every prediction, in training and in serving, mixes rules through
one chunked kernel, _mix_terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyMatchError, NotFittedError
from .fitness import FitnessParams, combine, pseudo_accuracy

# Mixing weights are experience / (mse + MIX_EPS); the epsilon keeps
# zero-error rules from collapsing the weighted average onto themselves.
MIX_EPS = 1e-6


def _readonly(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Rule:
    """A fitted rule: interval bounds in scaled feature space plus the
    linear submodel in standardized-target units."""

    lower: np.ndarray
    upper: np.ndarray
    coefficients: np.ndarray
    intercept: float
    in_sample_mse: float
    experience: int
    volume: float
    fitness: float


def match_mask(lower, upper, X) -> np.ndarray:
    """Boolean mask of the rows of X inside [lower, upper] in every dimension.

    lower and upper are 1-d with one entry per column of the 2-d X.
    Either memory order of X gives the same mask."""
    X = np.asarray(X)
    lower, upper = _check_box(lower, upper, X)
    return _match_matrix(lower[None], upper[None], X)[0]


def _check_box(lower, upper, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lower and upper as read-only float arrays, checked to be 1-d with
    one entry per column of the 2-d X."""
    lower, upper = _readonly(lower), _readonly(upper)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower and upper must be 1-d arrays of equal length")
    if X.ndim != 2 or X.shape[1] != lower.shape[0]:
        raise ValueError(f"X must be 2-d with {lower.shape[0]} columns, got shape {X.shape}")
    return lower, upper


def _volume(lower: np.ndarray, upper: np.ndarray):
    """Share of the scaled feature box [-1, 1]^d that [lower, upper] covers;
    one share per row for (k, d) stacks of bounds."""
    return np.prod((upper - lower) / 2.0, axis=-1)


def _match_matrix(lowers: np.ndarray, uppers: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Boolean (k, n) matrix whose entry (i, r) says whether row r of X
    lies inside [lowers[i], uppers[i]] in every dimension. It is the only
    place where rows are tested against bounds.

    One row or one box is compared with every bound at once, in 3 numpy
    calls. Otherwise the matrix is built one feature column at a time,
    1 + 4d calls that read a Fortran-ordered X contiguously and beat the
    broadcast's (k, n, d) temporaries on many rows. An empty Pool's
    (0, 0) bounds do not broadcast against X and take the loop."""
    if len(lowers) == 1 or (len(X) == 1 and len(lowers)):
        return np.logical_and.reduce((X >= lowers[:, None]) & (X <= uppers[:, None]), axis=2)
    matched = np.ones((lowers.shape[0], X.shape[0]), dtype=bool)
    for j in range(lowers.shape[1]):
        column = X[:, j]
        matched &= column >= lowers[:, j, None]
        matched &= column <= uppers[:, j, None]
    return matched


def fit_submodel(
    lower,
    upper,
    X: np.ndarray,
    y: np.ndarray,
    ridge_coeff: float = 0.01,
    fitness_params: FitnessParams | None = None,
) -> Rule:
    """Fit the rule's linear submodel on the training rows it matches.

    Minimizes the sum of squared residuals plus ridge_coeff times the
    squared coefficient norm; the intercept is not penalized. Passing
    fitness_params also stamps the rule's fitness, otherwise it is 0.
    The fit is _fit_boxes on a stack of one box, so either memory order
    of X gives the same fit bit for bit.
    """
    if not ridge_coeff >= 0:
        raise ValueError(f"ridge_coeff must be non-negative, got {ridge_coeff}")
    lower, upper = _check_box(lower, upper, X)
    coefficients, intercepts, mses, counts, volumes, fitnesses = _fit_boxes(lower[None], upper[None], X, y, ridge_coeff, fitness_params)
    return Rule(
        lower=lower,
        upper=upper,
        coefficients=_readonly(coefficients[0]),
        intercept=float(intercepts[0]),
        in_sample_mse=float(mses[0]),
        experience=int(counts[0]),
        volume=volumes[0],
        fitness=fitnesses[0],
    )


def _fit_boxes(
    lowers: np.ndarray, uppers: np.ndarray, X: np.ndarray, y: np.ndarray, ridge_coeff: float, fitness_params: FitnessParams | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[float], list[float]]:
    """Fit and score a (k, d) stack of boxes [lowers[i], uppers[i]]
    within -1 <= lower <= upper <= 1: their _ridge_fits, then their
    volumes and fitnesses as lists of k floats, every fitness 0.0 without
    fitness_params. fit_submodel is this on one box, and each ES
    generation on its children."""
    if (lowers > uppers).any() or (lowers < -1.0).any() or (uppers > 1.0).any():
        raise ValueError("bounds must satisfy -1 <= lower <= upper <= 1 in every dimension")
    coefficients, intercepts, mses, counts = _ridge_fits(lowers, uppers, X, y, ridge_coeff)
    volumes = _volume(lowers, uppers).tolist()
    fitnesses = [0.0 if fitness_params is None else _fitness(mse, volume, fitness_params) for mse, volume in zip(mses.tolist(), volumes)]
    return coefficients, intercepts, mses, counts, volumes, fitnesses


# Rows are taken this many bytes of floats per rule, child or moment
# column at a time: larger temporaries were mapped fresh on every call,
# and a 4-d, 5000-row ES generation took 150 page faults at 1 MB.
CHUNK_BYTES = 1 << 15


@lru_cache(maxsize=None)
def _pair_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The moment layout of _ridge_fits for d features, made once per d:
    the pairs a <= b of z = [1, x, y] in row-major order, as the (p,)
    index arrays first and second; the (d, d + 1) positions of the
    pairs (a, b) and (a, d + 1), for a and b in 1..d, that form each
    box's ridge system and right-hand side; and the (d, d) identity."""
    first, second = np.nonzero(np.tri(d + 2, dtype=bool).T)
    position = np.empty((d + 2, d + 2), dtype=np.intp)
    position[first, second] = position[second, first] = np.arange(first.size)
    layout = first, second, position[1 : d + 1, 1:], np.eye(d)
    for array in layout:
        array.setflags(write=False)
    return layout


def _ridge_fits(
    lowers: np.ndarray, uppers: np.ndarray, X: np.ndarray, y: np.ndarray, ridge_coeff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ridge fits of k boxes [lowers[i], uppers[i]] from one array
    step: their (k, d) coefficients and their (k,) intercepts, in-sample
    MSEs and matched-row counts. Every rule is fitted here, through
    _fit_boxes.

    Only the union rows, those inside the box spanning every box, are
    read. With z = [1, x - shift, y] at each of them, where shift is the
    centre of the boxes' intersection, the (k, m) match matrix times
    the pairwise products z_a * z_b gives every box's count, sums and
    second moments. Centring these gives each box's ridge system, whose
    intercept is not penalized, and one stacked solve fits them all. Each
    MSE is summed from the box's own residuals, never from the moments,
    which lose digits when the error is small. Both passes take the rows
    CHUNK_BYTES at a time. The intercepts returned are for x itself.

    Most calls fit a few hundred rows, so the fixed cost counts: the
    pair layout is cached per d, and the ridge systems are gathered from
    the centred moments by index.
    """
    n_boxes, d = lowers.shape
    first, second, system, eye = _pair_layout(d)
    in_box = _match_matrix(lowers.min(axis=0)[None], uppers.max(axis=0)[None], X)[0].nonzero()[0]
    Z = np.empty((d + 2, in_box.size))
    Z[0] = 1.0
    Z[1 : d + 1] = X.T[:, in_box]
    matched = _match_matrix(lowers, uppers, Z[1 : d + 1].T)
    shift = (lowers.max(axis=0) + uppers.min(axis=0)) / 2.0
    Z[1 : d + 1] -= shift[:, None]
    # a target no box matches must not reach the others through 0 * inf
    Z[d + 1] = np.where(matched.any(axis=0), y[in_box], 0.0)
    chunk = max(1, CHUNK_BYTES // (8 * max(n_boxes, first.size)))
    chunks = [slice(start, start + chunk) for start in range(0, in_box.size, chunk)]

    moments = np.zeros((n_boxes, first.size))
    for rows in chunks:
        z = Z[:, rows]
        moments += matched[:, rows].astype(float) @ (z[first] * z[second]).T
    # the products with z_0 = 1 come first: the count, then the sums
    sums = moments[:, : d + 2]
    counts = sums[:, 0]
    if not counts.all():
        raise EmptyMatchError("rule matches no training example")
    centred = moments - sums[:, first] * sums[:, second] / counts[:, None]
    systems = centred[:, system]
    gram = systems[:, :, :d]
    gram += ridge_coeff * eye
    coefficients = _solve_ridge(gram, systems[:, :, d])
    model = np.empty((n_boxes, d + 1))
    model[:, 1:] = coefficients
    intercepts = model[:, 0]
    np.subtract(sums[:, d + 1], np.einsum("ij,ij->i", sums[:, 1 : d + 1], coefficients), out=intercepts)
    intercepts /= counts

    squared_errors = np.zeros(n_boxes)
    for rows in chunks:
        residuals = Z[d + 1, rows] - model @ Z[: d + 1, rows]
        residuals *= matched[:, rows]
        squared_errors += np.einsum("ij,ij->i", residuals, residuals)
    return coefficients, intercepts - coefficients @ shift, squared_errors / counts, counts


def _solve_ridge(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Coefficients w[i] solving gram[i] @ w[i] = rhs[i] for a (m, d, d)
    stack of ridge systems and their (m, d) right-hand sides.

    For d = 1 the slope is rhs / gram, or 0 where gram is not > 0. For
    d > 1 a stack holding a singular system is solved one system at a
    time, and a singular one by least squares.
    """
    if gram.shape[-1] == 1:
        coefficients = np.zeros_like(rhs)
        return np.divide(rhs, gram[:, :, 0], out=coefficients, where=gram[:, :, 0] > 0.0)
    try:
        return np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if gram.shape[0] == 1:
            return np.linalg.lstsq(gram[0], rhs[0], rcond=None)[0][None]
        return np.concatenate([_solve_ridge(g[None], r[None]) for g, r in zip(gram, rhs)])


def _fitness(mse: float, volume: float, params: FitnessParams) -> float:
    if not math.isfinite(mse):
        raise NotFittedError("rule has no fitted submodel")
    return combine(pseudo_accuracy(mse, params.beta), volume, params.alpha)


# The stacked columns of a Pool, in the order of Rule's fields.
COLUMNS = ("lowers", "uppers", "coefficients", "intercepts", "in_sample_mse", "experience", "volume", "fitness")


class Pool:
    """Append-only archive of every fitted rule a run has produced, as
    read-only stacked arrays, row i of each for rule i: lowers, uppers
    and coefficients are (P, d); intercepts, in_sample_mse, experience,
    volume and fitness are (P,). pool[i] is a Rule view of row i, and
    pool[genome] or pool[indices] a Pool of the chosen rows."""

    def __init__(self, rules: Iterable[Rule] = ()):
        self.lowers = self.uppers = self.coefficients = _readonly(np.empty((0, 0)))
        self.intercepts = self.in_sample_mse = self.experience = self.volume = self.fitness = _readonly(np.empty(0))
        self.extend(rules)

    def extend(self, rules: Iterable[Rule]) -> None:
        """Append rules, one concatenation per column."""
        rows = [(r.lower, r.upper, r.coefficients, r.intercept, r.in_sample_mse, r.experience, r.volume, r.fitness) for r in rules]
        for name, column in zip(COLUMNS, zip(*rows)):
            old = getattr(self, name)
            setattr(self, name, _readonly(np.concatenate([old, column]) if len(old) else column))

    def __len__(self) -> int:
        return int(self.intercepts.shape[0])

    def __getitem__(self, key):
        columns = [getattr(self, name)[key] for name in COLUMNS]
        if isinstance(key, (int, np.integer)):
            intercept, mse, experience, volume, fitness = map(float, columns[3:])
            return Rule(*columns[:3], intercept, mse, int(experience), volume, fitness)
        chosen = Pool()
        for name, column in zip(COLUMNS, columns):
            setattr(chosen, name, _readonly(column))
        return chosen

    def __iter__(self) -> Iterator[Rule]:
        return (self[i] for i in range(len(self)))


def _mix_terms(pool: Pool, X: np.ndarray, scale=None) -> Iterator[tuple[slice, np.ndarray]]:
    """The mixing kernel. For each chunk of rows of a 2-d X, CHUNK_BYTES
    // 8 of them (4096), yields (rows, terms): terms[i, 0] is rule i's
    output times its weight experience / (mse + MIX_EPS), terms[i, 1] that
    weight, both +0.0 where rule i does not match. Summed over axis 0
    from 0.0 they add the rules in pool order.

    X holds scaled features in C order or, with scale, rows of any
    layout and real dtype that scale(rows, out) scales into a C-ordered
    out. The scaled rows, their Fortran-ordered copy for _match_matrix
    and terms are buffers of one chunk, or of X when it is smaller, made
    once per call and reused by every chunk. A one-row chunk goes to
    _match_matrix's one-row broadcast, and d = 1 matches on its one
    column in place, so neither is copied.

    Each output is its rule's own X @ coefficients: a stacked product
    rounds otherwise for d > 1. Chunks start at multiples of 4 rows, so
    BLAS rounds each row as on all of X, and a lone last row joins the
    chunk before it, since numpy takes a dot product for one row.
    """
    n, d = X.shape
    if len(pool) and pool.lowers.shape[1] != d:
        raise ValueError(f"dimension mismatch: rules have {pool.lowers.shape[1]} dimensions, X has {d}")
    weights = (pool.experience / (pool.in_sample_mse + MIX_EPS))[:, None]
    intercepts = pool.intercepts[:, None]
    step = max(4, CHUNK_BYTES // 32 * 4)
    size = min(step + 1, n)
    terms = np.empty((len(pool), 2, size))
    scaled = None if scale is None else np.empty((size, d))
    columns = np.empty((size, d), order="F") if size > 1 and d > 1 else None
    last = max(n - 1, 1)
    for start in range(0, last, step):
        stop = start + step if start + step < last else n
        m = stop - start
        rows = X[start:stop] if scale is None else scale(X[start:stop], scaled[:m])
        chunk = terms[:, :, :m]
        outputs = chunk[:, 0]
        for coefficients, rule_outputs in zip(pool.coefficients, outputs):
            np.matmul(rows, coefficients, out=rule_outputs)
        outputs += intercepts
        outputs *= weights
        chunk[:, 1] = weights
        if columns is not None and m > 1:
            columns[:m] = rows
            rows = columns[:m]
        # keeping all bits of matching entries and none of the others makes
        # those +0.0 even at inf or NaN; a masked multiply was 3x slower
        keep = np.subtract(0, _match_matrix(pool.lowers, pool.uppers, rows), dtype=np.int64)
        bits = chunk.view(np.int64)
        np.bitwise_and(bits, keep[:, None], out=bits)
        yield slice(start, stop), chunk


def mix_ratio(numerator: np.ndarray, denominator: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Summed weighted outputs over summed weights; 0, the standardized
    target mean, on rows where no rule matched. Written into out when
    given."""
    if out is None:
        out = np.empty(numerator.shape[0])
    out.fill(0.0)
    np.divide(numerator, denominator, out=out, where=denominator > 0)
    return out


def mix_predict(pool: Pool, X, scale=None) -> np.ndarray:
    """Weighted average of the matching rules' outputs at each row of X.

    Each matching rule contributes with weight experience / (mse +
    MIX_EPS).
    Rows matched by no rule predict 0, the standardized target mean.
    The result does not depend on the memory order of X; for d = 1 a
    row also predicts the same bits alone as in a batch.

    X holds scaled features or, with scale, raw rows that
    scale(rows, out) scales a chunk at a time (TrainedModel.predict
    passes TransformState.scale_features). Each chunk's ratio is written
    straight into the returned array, the one allocation that grows
    with the rows.
    """
    X = np.ascontiguousarray(X, dtype=float) if scale is None else np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got shape {X.shape}")
    predictions = np.empty(X.shape[0])
    for rows, terms in _mix_terms(pool, X, scale):
        sums = np.add.reduce(terms, axis=0, initial=0.0)
        mix_ratio(sums[0], sums[1], out=predictions[rows])
    return predictions
