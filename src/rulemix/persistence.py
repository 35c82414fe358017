"""Save and load trained models as versioned JSON.

Floats are serialized with Python's shortest round-trip representation,
so a loaded model predicts bit for bit what the saved one did. Files
declare a format_version; loading rejects versions this build does not
know, non-finite numbers (NaN, Infinity, overflowing literals), rule
bounds outside the scaled feature box and rule volumes that differ
from their bounds, and reports structural problems by name. Writes go
through a temporary file, so a failed save never leaves a torn file.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from typing import Iterator, TextIO

import numpy as np

from .composition import SolutionIndividual
from .data import TransformState
from .errors import ConfigError, ModelFormatError, ModelVersionError
from .learner import LearnerConfig, TrainedModel, config_from_dict, config_to_dict
from .rules import Pool, Rule, _volume

FORMAT_VERSION = 1


def _rule_doc(rule: Rule) -> dict:
    return {
        "lower": [float(v) for v in rule.lower],
        "upper": [float(v) for v in rule.upper],
        "coefficients": [float(v) for v in rule.coefficients],
        "intercept": float(rule.intercept),
        "mse": float(rule.in_sample_mse),
        "experience": int(rule.experience),
        "volume": float(rule.volume),
        "fitness": float(rule.fitness),
    }


def model_document(model: TrainedModel) -> dict:
    """The JSON-ready dict a model is saved as."""
    return {
        "format_version": FORMAT_VERSION,
        "transform": {
            "feature_min": [float(v) for v in model.transform.feature_min],
            "feature_max": [float(v) for v in model.transform.feature_max],
            "target_mean": float(model.transform.target_mean),
            "target_std": float(model.transform.target_std),
        },
        "pool": [_rule_doc(rule) for rule in model.pool],
        "elitist": {
            "genome_bits": "".join("1" if bit else "0" for bit in model.elitist.genome),
            "fitness": float(model.elitist.fitness),
            "complexity": int(model.elitist.complexity),
            "mse": float(model.elitist.in_sample_mse),
        },
        "config": config_to_dict(model.config),
    }


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


def _write_json(doc: dict, path) -> None:
    """Write doc as indented, key-sorted JSON, atomically."""
    with _atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model(model: TrainedModel, path) -> None:
    _write_json(model_document(model), path)


def _finite(numbers) -> bool:
    """Whether every parsed JSON number is a finite float; an integer
    literal beyond the float range is not."""
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:
        return False


def _require(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ModelFormatError(f"model file is missing {where}.{key}" if where else f"model file is missing {key}")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not _finite((value,)):
            raise ModelFormatError(f"{where + '.' if where else ''}{key} must be a finite number")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ModelFormatError(f"{where + '.' if where else ''}{key} must be an integer")
        return value
    if not isinstance(value, kind):
        raise ModelFormatError(f"{where + '.' if where else ''}{key} must be a {kind.__name__}")
    return value


def _float_array(doc: dict, key: str, where: str, length: int | None = None) -> np.ndarray:
    raw = _require(doc, key, list, where)
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw):
        raise ModelFormatError(f"{where}.{key} must contain only numbers")
    if length is not None and len(raw) != length:
        raise ModelFormatError(f"{where}.{key} must have length {length}, got {len(raw)}")
    if not _finite(raw):
        raise ModelFormatError(f"{where}.{key} must contain only finite numbers")
    out = np.array(raw, dtype=float)
    out.setflags(write=False)
    return out


def document_to_model(doc) -> TrainedModel:
    """Rebuild a TrainedModel from a parsed model document."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must contain a JSON object at the top level")
    if "format_version" not in doc:
        raise ModelFormatError("model file is missing format_version")
    version = doc["format_version"]
    if version != FORMAT_VERSION:
        raise ModelVersionError(f"unsupported model format version {version!r}; this build reads version {FORMAT_VERSION}")

    transform_doc = _require(doc, "transform", dict, "")
    feature_min = _float_array(transform_doc, "feature_min", "transform")
    feature_max = _float_array(transform_doc, "feature_max", "transform", length=feature_min.shape[0])
    if feature_min.shape[0] == 0:
        raise ModelFormatError("transform.feature_min must not be empty")
    if np.any(feature_max <= feature_min):
        raise ModelFormatError("transform feature ranges must have positive width")
    target_std = _require(transform_doc, "target_std", float, "transform")
    if not target_std > 0:
        raise ModelFormatError("transform.target_std must be positive")
    transform = TransformState(
        feature_min=feature_min,
        feature_max=feature_max,
        target_mean=_require(transform_doc, "target_mean", float, "transform"),
        target_std=target_std,
    )
    dim = transform.dim

    pool_doc = _require(doc, "pool", list, "")
    if not pool_doc:
        raise ModelFormatError("pool must contain at least one rule")
    rules = []
    for index, rule_doc in enumerate(pool_doc):
        where = f"pool[{index}]"
        if not isinstance(rule_doc, dict):
            raise ModelFormatError(f"{where} must be an object")
        lower = _float_array(rule_doc, "lower", where, length=dim)
        upper = _float_array(rule_doc, "upper", where, length=dim)
        if ((upper < lower) | (lower < -1.0) | (upper > 1.0)).any():
            raise ModelFormatError(f"{where} bounds must satisfy -1 <= lower <= upper <= 1")
        experience = _require(rule_doc, "experience", int, where)
        if experience < 1:
            raise ModelFormatError(f"{where}.experience must be at least 1")
        mse = _require(rule_doc, "mse", float, where)
        if not mse >= 0:
            raise ModelFormatError(f"{where}.mse must be non-negative")
        volume = _require(rule_doc, "volume", float, where)
        if volume != _volume(lower, upper):
            raise ModelFormatError(f"{where}.volume {volume!r} does not match its bounds")
        rules.append(
            Rule(
                lower=lower,
                upper=upper,
                coefficients=_float_array(rule_doc, "coefficients", where, length=dim),
                intercept=_require(rule_doc, "intercept", float, where),
                in_sample_mse=mse,
                experience=experience,
                volume=volume,
                fitness=_require(rule_doc, "fitness", float, where),
            )
        )
    pool = Pool(rules)

    elitist_doc = _require(doc, "elitist", dict, "")
    bits = _require(elitist_doc, "genome_bits", str, "elitist")
    if len(bits) != len(pool) or set(bits) - {"0", "1"}:
        raise ModelFormatError(f"elitist.genome_bits must be a string of {len(pool)} 0/1 characters")
    genome = np.array([c == "1" for c in bits], dtype=bool)
    genome.setflags(write=False)
    complexity = _require(elitist_doc, "complexity", int, "elitist")
    if complexity != int(np.count_nonzero(genome)):
        raise ModelFormatError("elitist.complexity does not match genome_bits")
    elitist = SolutionIndividual(
        genome=genome,
        fitness=_require(elitist_doc, "fitness", float, "elitist"),
        complexity=complexity,
        in_sample_mse=_require(elitist_doc, "mse", float, "elitist"),
    )

    try:
        config = config_from_dict(_require(doc, "config", dict, ""))
    except ConfigError as exc:
        raise ModelFormatError(f"bad config section: {exc}") from exc

    return TrainedModel(pool=pool, elitist=elitist, transform=transform, config=config)


def load_model(path) -> TrainedModel:
    def reject_constant(name: str):
        raise ModelFormatError(f"{path}: non-finite number {name} in model file")

    with open(str(path)) as fh:
        try:
            doc = json.load(fh, parse_constant=reject_constant)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    return document_to_model(doc)
