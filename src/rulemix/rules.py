"""Interval rules, their linear submodels, and mixing-based prediction.

A rule matches the inputs lying inside its closed per-dimension
interval and predicts through a linear model fitted by ridge regression
on exactly the training rows it matches. Fitted rules are immutable;
the pool that archives them only ever appends, so a rule's pool index
is a stable identifier for the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyMatchError, NotFittedError
from .fitness import FitnessParams, combine, pseudo_accuracy

# Mixing weights are experience / (mse + MIX_EPS); the epsilon keeps
# zero-error rules from collapsing the weighted average onto themselves.
MIX_EPS = 1e-6


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=float)
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

    @property
    def dim(self) -> int:
        return int(self.lower.shape[0])


def match_mask(lower: np.ndarray, upper: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of X inside [lower, upper] in every dimension.

    Either memory order gives the same mask; for d > 1 a Fortran-ordered
    (column-major) X is many times faster."""
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got shape {X.shape}")
    if X.shape[1] != lower.shape[0]:
        raise ValueError(f"dimension mismatch: rule has {lower.shape[0]} dimensions, X has {X.shape[1]}")
    return ((X >= lower) & (X <= upper)).all(axis=1)


def match_set(rule: Rule, X) -> np.ndarray:
    """Indices of the rows of X the rule matches, in ascending order."""
    X = np.asarray(X, dtype=float)
    return np.flatnonzero(match_mask(rule.lower, rule.upper, X))


def _volume(lower: np.ndarray, upper: np.ndarray):
    """Share of the scaled feature box [-1, 1]^d that [lower, upper] covers;
    one share per row for (k, d) stacks of bounds."""
    return np.prod((upper - lower) / 2.0, axis=-1)


def _check_bounds(lower: np.ndarray, upper: np.ndarray) -> None:
    """Reject bounds outside -1 <= lower <= upper <= 1, for one rule or for
    a stack of them."""
    if np.any(lower > upper) or np.any(lower < -1.0) or np.any(upper > 1.0):
        raise ValueError("bounds must satisfy -1 <= lower <= upper <= 1 in every dimension")


def _match_matrix(lowers: np.ndarray, uppers: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Boolean (k, n) matrix whose row i is match_mask(lowers[i], uppers[i], X).

    Built one feature column at a time, which reads a Fortran-ordered X
    contiguously."""
    matched = np.ones((lowers.shape[0], X.shape[0]), dtype=bool)
    for j in range(X.shape[1]):
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
    X[mask] is C-ordered whatever the order of X, so either order gives
    the same fit bit for bit.
    """
    if not ridge_coeff >= 0:
        raise ValueError(f"ridge_coeff must be non-negative, got {ridge_coeff}")
    lower = _readonly(lower)
    upper = _readonly(upper)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower and upper must be 1-d arrays of equal length")
    _check_bounds(lower, upper)
    mask = match_mask(lower, upper, X)
    n_matched = int(np.count_nonzero(mask))
    if n_matched == 0:
        raise EmptyMatchError("rule matches no training example")
    Xm = X[mask]
    ym = y[mask]
    # Centering makes the penalty apply to the slope only: for any fixed
    # slope the optimal intercept is y_mean - x_mean @ w. The means are
    # np.mean's own arithmetic without its per-call wrapping.
    x_mean = np.add.reduce(Xm, axis=0) / n_matched
    y_mean = np.add.reduce(ym) / n_matched
    Xc = Xm - x_mean
    gram = Xc.T @ Xc
    gram.flat[:: Xm.shape[1] + 1] += ridge_coeff
    coefficients = _solve_ridge(gram[None], (Xc.T @ (ym - y_mean))[None])[0]
    intercept = float(y_mean - x_mean @ coefficients)
    residuals = ym - (Xm @ coefficients + intercept)
    mse = float(residuals @ residuals) / n_matched
    volume = float(_volume(lower, upper))
    return Rule(
        lower=lower,
        upper=upper,
        coefficients=_readonly(coefficients),
        intercept=intercept,
        in_sample_mse=mse,
        experience=n_matched,
        volume=volume,
        fitness=0.0 if fitness_params is None else _fitness(mse, volume, fitness_params),
    )


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


def rule_fitness(rule: Rule, params: FitnessParams) -> float:
    """Blend of the rule's error pseudo-accuracy and its volume share."""
    return _fitness(rule.in_sample_mse, rule.volume, params)


class Pool:
    """Append-only archive of every fitted rule a run has produced."""

    def __init__(self, rules: Sequence[Rule] = ()):
        self._rules: list[Rule] = list(rules)

    def append(self, rule: Rule) -> None:
        self._rules.append(rule)

    def extend(self, rules: Sequence[Rule]) -> None:
        self._rules.extend(rules)

    def selected(self, genome: np.ndarray) -> list[Rule]:
        """The rules picked out by a boolean genome over the pool."""
        if len(genome) != len(self._rules):
            raise ValueError(f"genome length {len(genome)} does not match pool size {len(self._rules)}")
        return [rule for rule, bit in zip(self._rules, genome) if bit]

    def __len__(self) -> int:
        return len(self._rules)

    def __getitem__(self, index: int) -> Rule:
        return self._rules[index]

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)


def mixing_terms(
    rule: Rule, X: np.ndarray, X_columns: np.ndarray, eps: float = MIX_EPS
) -> tuple[np.ndarray, float, np.ndarray]:
    """A rule's part in the mix at the rows of X: the mask of the rows it
    matches, its weight experience / (mse + eps), and its output times
    that weight at every row.

    X must be C-ordered and X_columns its Fortran-ordered copy: the mask
    is read from the copy, where matching is fast, and the outputs from
    X, since X @ coefficients rounds differently in the two orders.
    """
    weight = rule.experience / (rule.in_sample_mse + eps)
    return match_mask(rule.lower, rule.upper, X_columns), weight, weight * (X @ rule.coefficients + rule.intercept)


def mix_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Summed weighted outputs over summed weights; 0, the standardized
    target mean, on rows where no rule matched."""
    predictions = np.zeros(numerator.shape[0])
    np.divide(numerator, denominator, out=predictions, where=denominator > 0)
    return predictions


def mix_predict(rules: Sequence[Rule], X, eps: float = MIX_EPS) -> np.ndarray:
    """Weighted average of the matching rules' outputs at each row of X.

    Each matching rule contributes with weight experience / (mse + eps).
    Rows matched by no rule predict 0, the standardized target mean.
    The result does not depend on the memory order of X.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got shape {X.shape}")
    X_columns = np.asfortranarray(X)
    numerator = np.zeros(X.shape[0])
    denominator = np.zeros(X.shape[0])
    for rule in rules:
        mask, weight, weighted_outputs = mixing_terms(rule, X, X_columns, eps)
        numerator[mask] += weighted_outputs[mask]
        denominator[mask] += weight
    return mix_ratio(numerator, denominator)
