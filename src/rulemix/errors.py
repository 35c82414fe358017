"""Exception types raised across the package, and the check of every setting and document field."""

import math
import reprlib
from dataclasses import field

import numpy as np


class DataError(ValueError):
    """Input data cannot be used: malformed file, missing values, bad shape."""


class DegenerateFeatureError(DataError):
    """A feature column is constant, so it cannot be scaled to [-1, 1]."""


class DegenerateTargetError(DataError):
    """The target column is constant, so it cannot be standardized."""


class ConfigError(ValueError):
    """A configuration value is invalid or a configuration key is unknown."""


class EmptyMatchError(RuntimeError):
    """A rule's interval matches no training example."""


class NotFittedError(RuntimeError):
    """An operation needs a fitted object but got an unfitted one."""


class ModelFormatError(ValueError):
    """A persisted model file is malformed or structurally inconsistent."""


class ModelVersionError(ModelFormatError):
    """A persisted model file declares a format version this build cannot read."""


class DegenerateTestError(ValueError):
    """A statistical test has no usable observations (all differences zero)."""


def _number(value, types=(int, float, np.integer, np.floating)) -> bool:
    """Whether value is a finite number of the types: not a bool, nor an int beyond the float range."""
    try:
        return isinstance(value, types) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


# The kinds of setting and document field: what a value must be, and the test of a value
POSITIVE_INT = ("a positive integer", lambda v: _number(v, (int, np.integer)) and v >= 1)
SAMPLE_COUNT = ("an integer of at least 2", lambda v: _number(v, (int, np.integer)) and v >= 2)
SEED = ("an integer in [0, 2**64)", lambda v: _number(v, (int, np.integer)) and 0 <= v < 2**64)
NON_NEGATIVE = ("a finite non-negative number", lambda v: _number(v) and v >= 0)
POSITIVE = ("a finite positive number", lambda v: _number(v) and v > 0)
PROBABILITY = ("a number in [0, 1]", lambda v: _number(v) and 0 <= v <= 1)
OPTIONAL_PROBABILITY = ("null or a number in [0, 1]", lambda v: v is None or PROBABILITY[1](v))
OPEN_FRACTION = ("a number strictly between 0 and 1", lambda v: _number(v) and 0 < v < 1)
FINITE = ("a finite number", _number)
STRING = ("a string", lambda v: isinstance(v, str))
OPTIONAL_STRING = ("null or a string", lambda v: v is None or isinstance(v, str))
OBJECT = ("an object", lambda v: isinstance(v, dict))
NON_EMPTY_OBJECT = ("a non-empty object", lambda v: isinstance(v, dict) and len(v) > 0)
NON_EMPTY_LIST = ("a non-empty list", lambda v: isinstance(v, list) and len(v) > 0)
NUMBERS = ("a non-empty list of finite numbers", lambda v: NON_EMPTY_LIST[1](v) and all(map(_number, v)))


def _numbers(length: int):
    """The kind of a list of length finite numbers."""
    return (f"{length} finite numbers", lambda v: isinstance(v, list) and len(v) == length and all(map(_number, v)))


def setting(default, kind, key: str | None = None):
    """A config dataclass field holding a setting of the kind. key is the
    name users write, where it cannot be the field's own (lambda is a
    Python keyword)."""
    return field(default=default, metadata={"kind": kind} if key is None else {"kind": kind, "key": key})


def setting_key(f) -> str:
    """The name users write for a config dataclass field: in config
    documents, --set and error messages."""
    return f.metadata.get("key", f.name)


def check(name: str, value, kind, error=ConfigError):
    """value, if it is of the kind; else raise error naming the setting or field."""
    if not kind[1](value):
        raise error(f"{name} must be {kind[0]}, got {reprlib.repr(value)}")
    return value


def _read(doc: dict, key: str, kind, error, where: str = ""):
    """doc[key], if it is of the kind; else raise error naming the field,
    where + key. A key whose kind admits null may be left out."""
    if key not in doc and not kind[1](None):
        raise error(f"{where}{key} is missing")
    return check(where + key, doc.get(key), kind, error)


def unique_keys(pairs: list) -> dict:
    """The dict of one JSON object's key-value pairs, as json's
    object_pairs_hook; a key named twice raises ValueError, where json
    alone would keep its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(key for key in keys if keys.count(key) > 1)!r} is named twice in one object")
    return doc


def check_settings(config) -> None:
    """Check each setting field of a config dataclass: its __post_init__."""
    for f in type(config).__dataclass_fields__.values():
        if "kind" in f.metadata:
            check(setting_key(f), getattr(config, f.name), f.metadata["kind"])
