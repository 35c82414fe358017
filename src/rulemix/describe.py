"""Human-readable views of trained models and single rules.

Interval bounds are shown both in original feature units (inverted
through the model's scaling) and in the scaled space the learner works
in. Coefficients and intercepts are in standardized-target units;
errors are shown on both scales.
"""

from __future__ import annotations

import numpy as np

from .data import TransformState
from .learner import TrainedModel
from .rules import Rule


def _feature_labels(dim: int, feature_names: list[str] | None) -> list[str]:
    if feature_names is None:
        return [f"x{i}" for i in range(dim)]
    if len(feature_names) != dim:
        raise ValueError(f"expected {dim} feature names, got {len(feature_names)}")
    return list(feature_names)


def describe_rule(
    rule: Rule,
    transform: TransformState,
    index: int | None = None,
    selected: bool | None = None,
    feature_names: list[str] | None = None,
) -> str:
    """Multi-line text for one rule."""
    labels = _feature_labels(len(rule.lower), feature_names)
    lower_original = transform.inverse_features(rule.lower)
    upper_original = transform.inverse_features(rule.upper)

    title = "rule" if index is None else f"rule {index}"
    if selected is not None:
        title += "  [selected]" if selected else "  [not selected]"
    lines = [title]
    lines.append(f"  fitness {rule.fitness:.5f}  volume {rule.volume:.5f}  experience {rule.experience}")

    name_width = max(len(label) for label in labels)
    name_width = max(name_width, len("feature"))
    lines.append(f"  {'feature':<{name_width}}  {'original interval':<24} {'scaled interval':<18} coefficient")
    for i, label in enumerate(labels):
        original = f"[{lower_original[i]:.2f}, {upper_original[i]:.2f}]"
        scaled = f"[{rule.lower[i]:.2f}, {rule.upper[i]:.2f}]"
        lines.append(f"  {label:<{name_width}}  {original:<24} {scaled:<18} {rule.coefficients[i]:.2f}")
    lines.append(f"  intercept (standardized target): {rule.intercept:.4f}")
    mse_original = rule.in_sample_mse * transform.target_std**2
    lines.append(f"  in-sample MSE: {rule.in_sample_mse:.4f} standardized, {mse_original:.4f} original units")
    return "\n".join(lines)


def describe_model(model: TrainedModel, feature_names: list[str] | None = None) -> str:
    """Multi-line text for a model: headline plus every selected rule."""
    elitist = model.elitist
    lines = [
        f"pool: {len(model.pool)} rules, {elitist.complexity} selected",
        f"solution fitness {elitist.fitness:.5f}, in-sample MSE {elitist.in_sample_mse:.4f} (standardized)",
    ]
    if elitist.complexity == 0:
        lines.append("warning: no rules selected; the model predicts the training mean everywhere")
        return "\n".join(lines)
    lines.append("")
    selected_indices = np.flatnonzero(elitist.genome)
    for index in selected_indices:
        lines.append(describe_rule(model.pool[int(index)], model.transform, index=int(index), selected=True, feature_names=feature_names))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
