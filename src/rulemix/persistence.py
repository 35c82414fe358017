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

import numpy as np

from .composition import SolutionIndividual
from .data import TransformState, _atomic_open
from .errors import ConfigError, ModelFormatError, ModelVersionError, _number
from .learner import TrainedModel, config_from_dict, config_to_dict
from .rules import COLUMNS, Pool, _readonly, _volume

FORMAT_VERSION = 1


# A rule's keys in a model file, in the order of rules.COLUMNS
RULE_KEYS = ("lower", "upper", "coefficients", "intercept", "mse", "experience", "volume", "fitness")


def _pool_doc(pool: Pool) -> list[dict]:
    columns = [getattr(pool, name).tolist() for name in COLUMNS]
    columns[5] = [int(experience) for experience in columns[5]]
    return [dict(zip(RULE_KEYS, row)) for row in zip(*columns)]


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
        "pool": _pool_doc(model.pool),
        "elitist": {
            "genome_bits": "".join("1" if bit else "0" for bit in model.elitist.genome),
            "fitness": float(model.elitist.fitness),
            "complexity": int(model.elitist.complexity),
            "mse": float(model.elitist.in_sample_mse),
        },
        "config": config_to_dict(model.config),
    }


def _write_json(doc: dict, path) -> None:
    """Write doc as indented, key-sorted JSON, atomically."""
    with _atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model(model: TrainedModel, path) -> None:
    _write_json(model_document(model), path)


def _require(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ModelFormatError(f"model file is missing {where}.{key}" if where else f"model file is missing {key}")
    value = doc[key]
    if kind is float:
        if not _number(value):
            raise ModelFormatError(f"{where}.{key} must be a finite number")
        return float(value)
    if kind is int:
        if not _number(value, (int,)):
            raise ModelFormatError(f"{where}.{key} must be an integer in the float range")
        return value
    if not isinstance(value, kind):
        raise ModelFormatError(f"{where + '.' if where else ''}{key} must be a {kind.__name__}")
    return value


def _float_array(doc: dict, key: str, where: str, length: int | None = None) -> np.ndarray:
    raw = _require(doc, key, list, where)
    if length is not None and len(raw) != length:
        raise ModelFormatError(f"{where}.{key} must have length {length}, got {len(raw)}")
    if not all(map(_number, raw)):
        raise ModelFormatError(f"{where}.{key} must contain only finite numbers")
    return _readonly(raw)


def _first_rule(bad: list, problem: str, values=()) -> None:
    """Reject the pool if a rule is flagged in bad, naming the first; its value fills problem's {}."""
    if True in bad:
        index = bad.index(True)
        raise ModelFormatError(f"pool[{index}]" + problem.format(*values[index : index + 1]))


def _pool_from_doc(pool_doc: list, dim: int) -> Pool:
    """The stacked pool of a model document, read a column at a time: in
    RULE_KEYS order, one field of every rule is checked whole (present,
    type, length, finite), then ranges and volumes on the stacked arrays.
    An error names pool[i] and the field: the rule at fault if only one
    is, else the first rule to fail the first failing check."""
    if not pool_doc:
        raise ModelFormatError("pool must contain at least one rule")
    _first_rule([not isinstance(rule, dict) for rule in pool_doc], " must be an object")
    # what a field must be, and the test of one rule's value, as in errors.py
    kinds = dict.fromkeys(RULE_KEYS[:3], (f"{dim} finite numbers", lambda v: isinstance(v, list) and len(v) == dim and all(map(_number, v))))
    kinds["experience"] = ("an integer in [1, 2**53]", lambda v: _number(v, (int,)) and 1 <= v <= 2**53)
    columns = []
    for key in RULE_KEYS:
        _first_rule([key not in rule for rule in pool_doc], f".{key} is missing")
        column = [rule[key] for rule in pool_doc]
        what, ok = kinds.get(key, ("a finite number", _number))
        _first_rule([not ok(value) for value in column], f".{key} must be {what}")
        columns.append(column)
    pool = Pool._from_columns(columns)
    lowers, uppers = pool.lowers, pool.uppers
    _first_rule(((uppers < lowers) | (lowers < -1.0) | (uppers > 1.0)).any(axis=1).tolist(), " bounds must satisfy -1 <= lower <= upper <= 1")
    _first_rule((pool.in_sample_mse < 0).tolist(), ".mse must be non-negative")
    _first_rule((pool.volume != _volume(lowers, uppers)).tolist(), ".volume {!r} does not match its bounds", pool.volume.tolist())
    return pool


def document_to_model(doc) -> TrainedModel:
    """Rebuild a TrainedModel from a parsed model document."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must contain a JSON object at the top level")
    version = _require(doc, "format_version", object, "")
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
    pool = _pool_from_doc(_require(doc, "pool", list, ""), transform.dim)

    elitist_doc = _require(doc, "elitist", dict, "")
    bits = _require(elitist_doc, "genome_bits", str, "elitist")
    if len(bits) != len(pool) or set(bits) - {"0", "1"}:
        raise ModelFormatError(f"elitist.genome_bits must be a string of {len(pool)} 0/1 characters")
    genome = _readonly([c == "1" for c in bits], bool)
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
    constants = []

    def note_constant(name: str) -> float:
        constants.append(name)
        return float(name)

    with open(str(path)) as fh:
        try:
            doc = json.load(fh, parse_constant=note_constant)
        except (ValueError, RecursionError) as exc:
            raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not constants:
        return document_to_model(doc)
    # the checks of the document name the field that holds the constant
    where = ""
    try:
        document_to_model(doc)
    except ModelFormatError as exc:
        where = f": {exc}"
    raise ModelFormatError(f"{path}: non-finite number {constants[0]} in model file{where}")
