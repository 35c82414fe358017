"""Two-objective fitness shared by rule discovery and subset selection.

Both optimizers score candidates on an error objective and a second
objective (interval volume for rules, parsimony for rule subsets), each
in [0, 1], blended by a weighted harmonic combiner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import POSITIVE, check_settings, setting


@dataclass(frozen=True)
class FitnessParams:
    """Fitness weights.

    alpha trades the error objective against the second objective
    (smaller alpha favors low error); beta is the slope of the error
    squashing, with larger beta punishing error harder.
    """

    alpha: float = setting(0.05, POSITIVE)
    beta: float = setting(2.0, POSITIVE)

    __post_init__ = check_settings


def pseudo_accuracy(mse: float, beta: float) -> float:
    """Map a mean squared error to (0, 1]; 1 exactly when the error is 0."""
    if not mse >= 0:
        raise ValueError(f"mse must be non-negative, got {mse}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return math.exp(-mse * beta)


def combine(o1: float, o2: float, alpha: float) -> float:
    """Weighted harmonic blend of two objectives in [0, 1].

    Returns o1 when the objectives are equal; alpha < 1 weights o1
    (the error objective) more heavily. Defined as 0 when both
    objectives are 0.
    """
    if not (0.0 <= o1 <= 1.0 and 0.0 <= o2 <= 1.0):
        raise ValueError(f"objectives must lie in [0, 1], got {o1}, {o2}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    denominator = alpha * alpha * o1 + o2
    if denominator == 0.0:
        return 0.0
    return (1.0 + alpha * alpha) * o1 * o2 / denominator


def solution_objectives(in_sample_mse: float, complexity: int, pool_size: int, beta: float) -> tuple[float, float]:
    """Error and parsimony objectives of a rule subset, both in [0, 1].

    Parsimony is the unused share of the pool, so it rises as the subset
    shrinks and as the pool grows.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be at least 1, got {pool_size}")
    if not 0 <= complexity <= pool_size:
        raise ValueError(f"complexity must lie in [0, {pool_size}], got {complexity}")
    return pseudo_accuracy(in_sample_mse, beta), 1.0 - complexity / pool_size
