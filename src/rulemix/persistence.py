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
import reprlib

from .composition import SolutionIndividual
from .data import TransformState, _atomic_open
from .errors import (
    FINITE, NON_EMPTY_LIST, NON_NEGATIVE, NUMBERS, OBJECT, POSITIVE, PROBABILITY, ConfigError, ModelFormatError, ModelVersionError,
    _number, _numbers, _read, check, unique_keys
)
from .learner import TrainedModel, config_from_dict, config_to_dict
from .rules import COLUMNS, Pool, _readonly, _volume

FORMAT_VERSION = 1


# What each of a rule's keys in a model file must be, in the order of
# rules.COLUMNS; _numbers is given the file's d
_RULE_KINDS = {
    "lower": _numbers,
    "upper": _numbers,
    "coefficients": _numbers,
    "intercept": FINITE,
    "mse": NON_NEGATIVE,
    "experience": ("an integer in [1, 2**53]", lambda v: _number(v, (int,)) and 1 <= v <= 2**53),
    "volume": FINITE,
    "fitness": PROBABILITY,
}
RULE_KEYS = tuple(_RULE_KINDS)
_VERSION = (f"{FORMAT_VERSION}, the version this build reads", lambda v: type(v) is int and v == FORMAT_VERSION)


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


def _first_rule(bad: list, problem: str, values=()) -> None:
    """Reject the pool if a rule is flagged in bad, naming the first; its value fills problem's {}."""
    if True in bad:
        index = bad.index(True)
        raise ModelFormatError(f"pool[{index}]" + problem.format(*map(reprlib.repr, values[index : index + 1])))


def _pool_from_doc(pool_doc: list, dim: int) -> Pool:
    """The stacked pool of a model document, read a column at a time: in
    RULE_KEYS order, one field of every rule is checked whole against its
    kind, then bounds and volumes on the stacked arrays. An error names
    pool[i] and the field: the rule at fault if only one is, else the
    first rule to fail the first failing check."""
    _first_rule([not isinstance(rule, dict) for rule in pool_doc], " must be an object, got {}", pool_doc)
    columns = []
    for key, kind in _RULE_KINDS.items():
        _first_rule([key not in rule for rule in pool_doc], f".{key} is missing")
        column = [rule[key] for rule in pool_doc]
        kind = kind(dim) if callable(kind) else kind
        if not all(map(kind[1], column)):
            index = [not kind[1](value) for value in column].index(True)
            check(f"pool[{index}].{key}", column[index], kind, ModelFormatError)
        columns.append(column)
    pool = Pool._from_columns(columns)
    lowers, uppers = pool.lowers, pool.uppers
    _first_rule(((uppers < lowers) | (lowers < -1.0) | (uppers > 1.0)).any(axis=1).tolist(), " bounds must satisfy -1 <= lower <= upper <= 1")
    _first_rule((pool.volume != _volume(lowers, uppers)).tolist(), ".volume {} does not match its bounds", pool.volume.tolist())
    return pool


def document_to_model(doc) -> TrainedModel:
    """Rebuild a TrainedModel from a parsed model document."""
    check("model file", doc, OBJECT, ModelFormatError)
    _read(doc, "format_version", _VERSION, ModelVersionError)

    transform_doc = _read(doc, "transform", OBJECT, ModelFormatError)
    feature_min = _read(transform_doc, "feature_min", NUMBERS, ModelFormatError, "transform.")
    numbers = _numbers(len(feature_min))
    above_min = (f"{numbers[0]} above feature_min", lambda v: numbers[1](v) and all(a > b for a, b in zip(v, feature_min)))
    feature_max = _read(transform_doc, "feature_max", above_min, ModelFormatError, "transform.")
    transform = TransformState(
        feature_min=_readonly(feature_min),
        feature_max=_readonly(feature_max),
        target_mean=float(_read(transform_doc, "target_mean", FINITE, ModelFormatError, "transform.")),
        target_std=float(_read(transform_doc, "target_std", POSITIVE, ModelFormatError, "transform.")),
    )
    pool = _pool_from_doc(_read(doc, "pool", NON_EMPTY_LIST, ModelFormatError), transform.dim)

    elitist_doc = _read(doc, "elitist", OBJECT, ModelFormatError)
    n = len(pool)
    genome_bits = (f"a string of {n} 0/1 characters", lambda v: isinstance(v, str) and len(v) == n and not set(v) - {"0", "1"})
    bits = _read(elitist_doc, "genome_bits", genome_bits, ModelFormatError, "elitist.")
    count = bits.count("1")
    complexity = (f"{count}, the number of 1s in genome_bits", lambda v: _number(v, (int,)) and v == count)
    elitist = SolutionIndividual(
        genome=_readonly([c == "1" for c in bits], bool),
        fitness=float(_read(elitist_doc, "fitness", PROBABILITY, ModelFormatError, "elitist.")),
        complexity=_read(elitist_doc, "complexity", complexity, ModelFormatError, "elitist."),
        in_sample_mse=float(_read(elitist_doc, "mse", NON_NEGATIVE, ModelFormatError, "elitist.")),
    )

    try:
        config = config_from_dict(_read(doc, "config", OBJECT, ModelFormatError))
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
            doc = json.load(fh, parse_constant=note_constant, object_pairs_hook=unique_keys)
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
