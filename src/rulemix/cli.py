"""Command line interface.

Exit codes: 0 success, 1 data or model-file error, 2 configuration
error, 3 benchmark finished but some datasets failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .benchmark import format_summary_text, report_document, run_benchmark, write_records_csv, write_report_json
from .data import Dataset, _atomic_open, gen_piecewise_linear, load_csv, read_numeric_csv, write_csv
from .describe import describe_model, describe_rule
from .errors import (
    NON_EMPTY_OBJECT, NON_NEGATIVE, OPEN_FRACTION, OPTIONAL_STRING, POSITIVE_INT, SAMPLE_COUNT, SEED, STRING, ConfigError, DataError,
    ModelFormatError, _read, check, check_settings, setting
)
from .learner import LearnerConfig, config_from_dict, config_to_dict, fit
from .persistence import load_model, model_document, save_model

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2
EXIT_PARTIAL = 3

_REGISTRY = ('an object whose one key is "datasets"', lambda v: isinstance(v, dict) and v.keys() == {"datasets"})
_ENTRY_KINDS = {"path": STRING, "target_column": OPTIONAL_STRING}
_DATASET = ('an object of "path" and an optional "target_column"', lambda v: v.keys() <= _ENTRY_KINDS.keys())


@dataclass(frozen=True)
class BenchmarkSettings:
    """The benchmark-only keys, set under benchmark. in the config."""
    n_seeds: int = setting(8, POSITIVE_INT)
    n_splits: int = setting(8, POSITIVE_INT)
    test_fraction: float = setting(0.25, OPEN_FRACTION)
    __post_init__ = check_settings


def _flatten(tree: dict, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flatten(value, f"{path}."))
        else:
            items.append((path, value))
    return items


def _config_help() -> str:
    lines = []
    for title, tree in (
        ("configuration keys, settable in a JSON --config file or with --set key=value:", config_to_dict(LearnerConfig())),
        ("benchmark-only keys (--set benchmark.<key>=value):", {"benchmark": config_to_dict(BenchmarkSettings())}),
    ):
        lines += ["", title] + [f"  {key:<34} default {json.dumps(default)}" for key, default in _flatten(tree)]
    return "\n".join(lines[1:])


def _read_json(path: str, what: str):
    """The JSON document of a config or registry file; a file that cannot
    be read or parsed is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc


def _apply_set(tree: dict, assignment: str) -> None:
    """Set the key of one --set key=value in the config tree; a value that
    does not parse as JSON is kept as a string."""
    key, sep, raw = assignment.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):
        value = raw
    *sections, name = key.split(".")
    node = tree
    for part in sections:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {assignment!r} descends into non-section key {part!r}")
    node[name] = value


def _learner_config(args) -> tuple[LearnerConfig, BenchmarkSettings]:
    """The config of a run: JSON file first, then --set overrides, then
    --seed; the benchmark section is split off so the learner schema
    stays strict."""
    tree = _read_json(args.config, "config") if args.config else {}
    if not isinstance(tree, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    for assignment in args.set or []:
        _apply_set(tree, assignment)
    settings = config_from_dict(tree.pop("benchmark", {}), BenchmarkSettings(), "benchmark")
    config = config_from_dict(tree)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    return config, settings


def cmd_fit(args) -> int:
    config, _ = _learner_config(args)
    dataset = load_csv(args.data, target_column=args.target)
    started = time.perf_counter()
    model = fit(dataset.X, dataset.y, config)
    elapsed = time.perf_counter() - started
    save_model(model, args.out)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "model": args.out,
                    "pool_size": len(model.pool),
                    "complexity": model.elitist.complexity,
                    "fitness": model.elitist.fitness,
                    "mse_sigma": model.elitist.in_sample_mse,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"trained on {dataset.n} examples, {dataset.dim} features in {elapsed:.1f}s")
        print(
            f"pool {len(model.pool)} rules, selected {model.elitist.complexity}, "
            f"fitness {model.elitist.fitness:.5f}, in-sample MSE {model.elitist.in_sample_mse:.4f} (standardized)"
        )
        print(f"model written to {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    """Predict every row of a feature CSV with a saved model. The output
    is one `repr` line per row, with CRLF line ends and a `prediction`
    header in an --out file, each written in one piece."""
    model = load_model(args.model)
    header, X = read_numeric_csv(args.data)
    if len(header) != model.transform.dim:
        raise DataError(f"{args.data}: model expects {model.transform.dim} feature columns, file has {len(header)}")
    predictions = model.predict(X)
    if args.out:
        with _atomic_open(args.out, newline="") as fh:
            fh.write("prediction\r\n" + "".join(f"{value!r}\r\n" for value in predictions.tolist()))
        if args.format == "machine":
            print(json.dumps({"predictions": args.out, "n": int(predictions.shape[0])}, sort_keys=True))
        else:
            print(f"{predictions.shape[0]} predictions written to {args.out}")
    elif args.format == "machine":
        print(json.dumps({"predictions": predictions.tolist()}))
    else:
        sys.stdout.write("".join(f"{value!r}\n" for value in predictions.tolist()))
    return EXIT_OK


def _load_registry(path: str) -> list[dict]:
    """Parse a dataset registry: {"datasets": {name: entry}}, in order. An
    entry is an object with a string "path" and an optional
    "target_column", null or a string; any other entry is the path."""
    doc = check(path, _read_json(path, "registry"), _REGISTRY)
    entries = []
    for name, entry in _read(doc, "datasets", NON_EMPTY_OBJECT, ConfigError, f"{path}: ").items():
        where = f"{path}: datasets.{name}"
        entry = check(where, entry if isinstance(entry, dict) else {"path": entry}, _DATASET)
        values = {key: _read(entry, key, kind, ConfigError, f"{where}.") for key, kind in _ENTRY_KINDS.items()}
        entries.append({"name": name, **values})
    return entries


def cmd_benchmark(args) -> int:
    check("--jobs", args.jobs, POSITIVE_INT)
    config, settings = _learner_config(args)
    entries = _load_registry(args.registry)

    datasets: list[Dataset] = []
    failures: dict[str, str] = {}
    for entry in entries:
        try:
            datasets.append(load_csv(entry["path"], target_column=entry["target_column"], name=entry["name"]))
        except (ValueError, OSError) as exc:  # a DataError, or open() refusing a path with a NUL byte
            failures[entry["name"]] = str(exc)

    started = time.perf_counter()
    report = run_benchmark(
        datasets,
        config,
        n_seeds=settings.n_seeds,
        n_splits=settings.n_splits,
        test_fraction=settings.test_fraction,
        master_seed=args.seed or 0,
        jobs=args.jobs,
    )
    elapsed = time.perf_counter() - started
    report.dataset_names = [entry["name"] for entry in entries]
    report.failures = {**failures, **report.failures}

    os.makedirs(args.out, exist_ok=True)
    write_report_json(report, os.path.join(args.out, "report.json"))
    write_records_csv(report, os.path.join(args.out, "records.csv"))
    summary = format_summary_text(report)
    with _atomic_open(os.path.join(args.out, "summary.txt")) as fh:
        fh.write(summary)

    if args.format == "machine":
        print(json.dumps(report_document(report), sort_keys=True))
    else:
        print(summary, end="")
        print(f"\ncompleted in {elapsed:.1f}s; reports in {args.out}")
    if not report.records:
        print("error: no dataset produced any run", file=sys.stderr)
        return EXIT_DATA
    return EXIT_PARTIAL if report.failures else EXIT_OK


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    if args.rule is not None:
        if not 0 <= args.rule < len(model.pool):
            raise DataError(f"rule index {args.rule} out of range; pool has {len(model.pool)} rules")
        rule = model.pool[args.rule]
        if args.format == "machine":
            doc = model_document(model)["pool"][args.rule]
            doc["index"] = args.rule
            doc["selected"] = bool(model.elitist.genome[args.rule])
            print(json.dumps(doc, sort_keys=True))
        else:
            print(describe_rule(rule, model.transform, index=args.rule, selected=bool(model.elitist.genome[args.rule])))
        return EXIT_OK
    if args.format == "machine":
        doc = model_document(model)
        summary = {
            "pool_size": len(model.pool),
            "complexity": model.elitist.complexity,
            "fitness": model.elitist.fitness,
            "mse_sigma": model.elitist.in_sample_mse,
            "selected": [i for i, bit in enumerate(model.elitist.genome) if bit],
            "rules": [doc["pool"][i] for i, bit in enumerate(model.elitist.genome) if bit],
        }
        print(json.dumps(summary, sort_keys=True))
    else:
        print(describe_model(model), end="")
    return EXIT_OK


def cmd_gen(args) -> int:
    check("--n", args.n, SAMPLE_COUNT)
    check("--segments", args.segments, POSITIVE_INT)
    check("--noise-std", args.noise_std, NON_NEGATIVE)
    check("--seed", args.seed, SEED)
    for flag, count in (("--n", args.n), ("--segments", args.segments)):
        # np.empty touches no page, and numpy refuses a size far beyond
        # memory at once: an absurd size ends here, not in a traceback
        try:
            np.empty(count)
        except (MemoryError, ValueError):
            raise ConfigError(f"{flag} {count} is too large: an array of {count} floats cannot be allocated") from None
    dataset = gen_piecewise_linear(args.n, args.segments, noise_std=args.noise_std, seed=args.seed)
    write_csv(dataset, args.out)
    if args.format == "machine":
        print(json.dumps({"path": args.out, "n": dataset.n, "metadata": dataset.metadata}, sort_keys=True))
    else:
        print(f"{dataset.n} rows written to {args.out} ({args.segments} segments, noise_std {args.noise_std})")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rulemix argument parser, built once per process: parsing
    leaves it as it was, so main can reuse it."""
    config_help = _config_help()
    parser = argparse.ArgumentParser(
        prog="rulemix",
        description="Regression with evolved interval rules.",
        epilog=config_help,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(sub):
        sub.add_argument("--config", help="JSON configuration file")
        sub.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one configuration key")
        sub.add_argument("--seed", type=int, help="master random seed")
        sub.add_argument("--format", choices=("text", "machine"), default="text", help="output format")

    sub = subparsers.add_parser(
        "fit",
        help="train a model on a CSV dataset",
        epilog=config_help,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub.add_argument("data", help="training CSV with a header row")
    sub.add_argument("--target", help="target column name (default: last column)")
    sub.add_argument("--out", default="model.json", help="where to write the model")
    add_config_flags(sub)
    sub.set_defaults(handler=cmd_fit)

    sub = subparsers.add_parser("predict", help="predict with a saved model")
    sub.add_argument("model", help="model JSON file")
    sub.add_argument("data", help="CSV of feature rows (same columns as training, no target)")
    sub.add_argument("--out", help="write predictions CSV here instead of stdout")
    sub.add_argument("--format", choices=("text", "machine"), default="text", help="output format")
    sub.set_defaults(handler=cmd_predict)

    sub = subparsers.add_parser(
        "benchmark",
        help="run repeated train/test evaluations over a dataset registry",
        epilog=config_help,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub.add_argument("registry", help='JSON registry: {"datasets": {name: path or {"path", "target_column"?}}}')
    sub.add_argument("--out", default="benchmark_out", help="output directory")
    sub.add_argument("--jobs", type=int, default=1, help="worker processes")
    add_config_flags(sub)
    sub.set_defaults(handler=cmd_benchmark)

    sub = subparsers.add_parser("inspect", help="show a saved model's rules")
    sub.add_argument("model", help="model JSON file")
    sub.add_argument("--rule", type=int, help="show one pool rule by index instead")
    sub.add_argument("--format", choices=("text", "machine"), default="text", help="output format")
    sub.set_defaults(handler=cmd_inspect)

    sub = subparsers.add_parser("gen", help="generate a synthetic piecewise-linear dataset")
    sub.add_argument("--out", default="piecewise.csv", help="output CSV path")
    sub.add_argument("--n", type=int, default=1000, help="number of rows")
    sub.add_argument("--segments", type=int, default=3, help="linear segments")
    sub.add_argument("--noise-std", type=float, default=0.0, dest="noise_std", help="additive noise std")
    sub.add_argument("--seed", type=int, default=0, help="generator seed")
    sub.add_argument("--format", choices=("text", "machine"), default="text", help="output format")
    sub.set_defaults(handler=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
