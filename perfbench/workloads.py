"""The four workloads: inputs made from the workload seed, set-up, timed
rounds and the checks on their outputs.

A workload is set up `units` times, each time from its own sub-seed of
the workload seed, and every set-up is timed. Timed rounds then run for
about --seconds; fit and bench rounds cycle through the units, a serve
round serves every unit's model.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from rulemix import cli, persistence
from rulemix.data import gen_piecewise_linear, write_csv
from rulemix.learner import LearnerConfig, config_from_dict, fit

import oracles

FRESH_ROWS = 20_000


def sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def quiet(fn, *args):
    """Call fn with its standard output discarded (the CLI prints)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def write_features(path: str, X: np.ndarray) -> None:
    header = ",".join(f"x{i}" for i in range(X.shape[1]))
    np.savetxt(path, X, delimiter=",", header=header, comments="", fmt="%.17g")


@dataclass
class Record:
    """Everything the timed rounds measured: one sample per call."""

    attempted: int = 0
    failed: int = 0
    fit_s: list = field(default_factory=list)
    main_s: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    batch_rows_per_s: list = field(default_factory=list)
    single_us: list = field(default_factory=list)
    file_rows_per_s: list = field(default_factory=list)

    def op(self, fn, *args):
        """One operation: returns (result, seconds); a raised error counts
        as failed and returns (None, seconds)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            result = None
        return result, time.perf_counter() - started

    def cli(self, call, name: str, argv: list) -> float | None:
        """One in-process CLI command; a non-zero exit counts as failed.
        Returns its seconds, or None if it failed."""
        code, seconds = self.op(call, name, quiet, cli.main, argv)
        if code == 0:
            return seconds
        if code is not None:
            print(f"rulemix {argv[0]} exited {code}", file=sys.stderr)
            self.failed += 1
        return None


def plain_call(name, fn, *args):
    return fn(*args)


@dataclass
class Served:
    """One saved model and the query it is served: batch, single-row and
    `rulemix predict` calls. The query is also written as CSV chunks of
    CHUNK_ROWS rows, one `rulemix predict` call each. The outputs of the
    latest calls are kept for the checks."""

    model: object
    model_path: str
    X: np.ndarray
    chunks: list
    """(query CSV, output CSV, rows) per chunk, in row order."""
    batch_calls: int
    single_rows: np.ndarray
    batch: np.ndarray | None = None
    singles: np.ndarray | None = None

    def serve(self, rec: Record, call=plain_call) -> None:
        """batch_calls steps, each one batch call and an equal share of
        the single-row and file calls, so that every kind of call samples
        the whole stretch of time the serve takes."""
        rows = self.X.shape[0]
        single_steps = np.array_split(self.single_rows, self.batch_calls)
        chunk_steps = np.array_split(np.arange(len(self.chunks)), self.batch_calls)
        singles = []
        for step_rows, step_chunks in zip(single_steps, chunk_steps):
            prediction, seconds = rec.op(self.model.predict, self.X)
            if prediction is not None:
                self.batch = prediction
                rec.batch_rows_per_s.append(rows / seconds)
            for row in step_rows:
                prediction, seconds = rec.op(self.model.predict, self.X[row : row + 1])
                if prediction is not None:
                    singles.append(prediction[0])
                    rec.single_us.append(seconds * 1e6)
            for c in step_chunks:
                query_csv, out_csv, chunk_rows = self.chunks[c]
                seconds = rec.cli(call, "cli.predict", ["predict", self.model_path, query_csv, "--out", out_csv])
                if seconds is not None:
                    rec.file_rows_per_s.append(chunk_rows / seconds)
        self.singles = np.array(singles)

    def warm_up(self, work: str) -> None:
        """One untimed call into each path serve() times."""
        self.model.predict(self.X[:1000])
        self.model.predict(self.X[:1])
        warm_csv = os.path.join(work, "warm-query.csv")
        write_features(warm_csv, self.X[:100])
        argv = ["predict", self.model_path, warm_csv, "--out", os.path.join(work, "warm-predictions.csv")]
        if quiet(cli.main, argv) != 0:
            raise RuntimeError("warm-up rulemix predict failed")

    def check(self, reference_batch: np.ndarray | None = None) -> list[str]:
        """The serve checks; reference_batch is the batch prediction of
        the same model on the other side of a save and load."""
        if reference_batch is None:
            reference_batch = persistence.load_model(self.model_path).predict(self.X)
        doc = oracles.ModelDoc(self.model_path)
        written = np.concatenate([oracles.read_prediction_csv(out_csv) for _, out_csv, _ in self.chunks])
        return oracles.check_served(doc, self.X, self.batch, self.single_rows, self.singles, written, reference_batch)


CHUNK_ROWS = 2_000
"""Rows per `rulemix predict` call: about 20 ms of work, so that the
fastest of many calls finds the moments the shared host leaves this
process alone (see README, "Machine and environment")."""


def write_chunks(X: np.ndarray, work: str, prefix: str, rows: int = CHUNK_ROWS) -> list:
    """Write X as CSV chunks of about `rows` rows each; returns (query
    CSV, output CSV, rows) per chunk."""
    chunks = []
    for c, part in enumerate(np.array_split(X, max(1, round(X.shape[0] / rows)))):
        query_csv = os.path.join(work, f"{prefix}-query{c}.csv")
        write_features(query_csv, part)
        chunks.append((query_csv, os.path.join(work, f"{prefix}-predictions{c}.csv"), part.shape[0]))
    return chunks


def single_rows(n: int, count: int) -> np.ndarray:
    return (np.arange(count) * 7919) % n


# -- generators -------------------------------------------------------


def piecewise_1d(seed: int, n: int, noise_std: float = 0.0):
    """Training data of gen_piecewise_linear (3 segments) and a sampler of
    its noiseless target, rebuilt from the generator's metadata."""
    dataset = gen_piecewise_linear(n, 3, noise_std=noise_std, seed=seed)
    meta = dataset.metadata
    slopes, starts, levels = (np.array(meta[k]) for k in ("slopes", "breakpoints", "levels"))

    def sample(rng, rows):
        x = rng.uniform(0.0, 1.0, size=rows)
        segment = np.minimum((x * slopes.size).astype(int), slopes.size - 1)
        return x.reshape(-1, 1), levels[segment] + slopes[segment] * (x - starts[segment])

    return dataset, sample


def piecewise_4d(seed: int):
    """Sampler of a continuous piecewise-linear target on [0, 1]^4: a
    seeded linear function plus a hinge in x0 and one in x1, so it is
    linear on each cell of a 2 x 2 split of (x0, x1)."""
    rng = np.random.default_rng(seed)
    knots = rng.uniform(0.3, 0.7, size=2)
    weights = rng.uniform(-2.0, 2.0, size=4)
    intercept = rng.uniform(-1.0, 1.0)
    bends = rng.uniform(2.0, 4.0, size=2) * rng.choice([-1.0, 1.0], size=2)

    def sample(rng, rows):
        X = rng.uniform(0.0, 1.0, size=(rows, 4))
        hinges = np.maximum(0.0, X[:, :2] - knots) @ bends
        return X, X @ weights + intercept + hinges

    return sample


def smooth_2d(seed: int):
    """Sampler of a smooth 2-d target with seeded phases."""
    phase = np.random.default_rng(seed).uniform(0.0, np.pi, size=2)

    def sample(rng, rows):
        X = rng.uniform(0.0, 1.0, size=(rows, 2))
        return X, np.sin(2.0 * np.pi * X[:, 0] + phase[0]) + 0.5 * np.cos(np.pi * X[:, 1] + phase[1])

    return sample


WARM_UP = {"n_iter": 1, "es": {"n_rules": 1}, "ga": {"generations": 1}}

# The fit and bench workloads also report the predict metrics, from a
# short probe: a small 4-d model trained on fixed data, the same in every
# run, serves query rows made from the workload seed. A model fitted in
# the run would not do: its rule count, and so its predict cost, moves
# with the seed.
PROBE_SEED = 7
PROBE_CONFIG = {"n_iter": 2, "es": {"n_rules": 4}, "ga": {"generations": 4}}
PROBE_ROWS = 600
PROBE_QUERY_ROWS = 40_000
PROBE_SIZES = (12, 2500)
"""Batch calls and single-row calls per pass of the probe; the query
rows also go through `rulemix predict` once per pass, in chunks. A pass
takes about a second, so that the fastest call of each kind is likely to
meet a moment when other tenants of the host leave this process alone."""


def probe_data():
    sample = piecewise_4d(PROBE_SEED)
    X, y = sample(np.random.default_rng(PROBE_SEED), PROBE_ROWS)
    return sample, X, y


def probe(seed: int, k: int, work: str, batch_calls: int, singles: int) -> Served:
    """Train and save the probe model, write its query CSVs, warm it up."""
    sample, X, y = probe_data()
    model = fit(X, y, config_from_dict(PROBE_CONFIG, LearnerConfig(master_seed=PROBE_SEED)))
    X_query, _ = sample(np.random.default_rng(sub_seed(seed, k, 9)), PROBE_QUERY_ROWS)
    served = Served(
        model=model,
        model_path=os.path.join(work, f"probe-model{k}.json"),
        X=X_query,
        chunks=write_chunks(X_query, work, f"probe{k}"),
        batch_calls=batch_calls,
        single_rows=single_rows(PROBE_QUERY_ROWS, singles),
    )
    persistence.save_model(model, served.model_path)
    served.warm_up(work)
    return served


PROBE_FIT = {
    "n_iter": 1,
    "es": {"n_rules": 1, "lambda_": 8, "delta": 2},
    "ga": {"generations": 2, "population_size": 8, "n_elitists": 2},
}
PROBE_FITS = 40
"""Fits of PROBE_FIT on the probe data (about 11 ms each, every stage of
a fit on a tiny scale) that serve times before each round and after the
last."""


# -- fit_1d and fit_4d ----------------------------------------------------


class FitWorkload:
    """One fit per round, with the probe serving its queries
    `probe_passes` times before and after it, so that probe samples come
    from two stretches of time. fit_1d's fits take 10 to 14 s, so its
    probe gets two passes: its samples fall in only three stretches of a
    run, and with one pass each its fastest `rulemix predict` call spread
    32% over ten runs while the host was slow."""

    def __init__(self, units, config: dict, make_data, mse_share: float, nominal_round_s: float, probe_passes: int):
        self.units = units
        self.config = config
        self.make_data = make_data
        self.mse_share = mse_share
        self.nominal_round_s = nominal_round_s
        self.probe_passes = probe_passes

    def probe_half(self, unit: dict, rec: Record, call) -> None:
        for _ in range(self.probe_passes):
            unit["probe"].serve(rec, call)

    def setup(self, seed: int, k: int, work: str) -> dict:
        X, y, sample = self.make_data(sub_seed(seed, k, 0))
        X_fresh, y_fresh = sample(np.random.default_rng(sub_seed(seed, k, 1)), FRESH_ROWS)
        config = config_from_dict(self.config, LearnerConfig(master_seed=sub_seed(seed, k, 2)))
        fit(X, y, config_from_dict(WARM_UP, config))
        unit = {"X": X, "y": y, "X_fresh": X_fresh, "y_fresh": y_fresh, "config": config}
        unit.update(model=None, model_path=os.path.join(work, f"model{k}.json"))
        unit["probe"] = probe(seed, k, work, *PROBE_SIZES)
        return unit

    def round(self, units: list, r: int, rec: Record, call=plain_call) -> None:
        unit = units[r % len(units)]
        self.probe_half(unit, rec, call)
        model, seconds = rec.op(call, "fit", fit, unit["X"], unit["y"], unit["config"])
        if model is not None:
            rec.fit_s.append(seconds)
            rec.main_s.append(seconds)
            unit["model"] = model
            persistence.save_model(model, unit["model_path"])
        self.probe_half(unit, rec, call)

    def check(self, units: list) -> list[str]:
        problems = []
        for unit in units:
            if unit["model"] is None:
                continue
            config = unit["config"]
            problems += oracles.check_fit(
                unit["model"],
                oracles.ModelDoc(unit["model_path"]),
                unit["X"],
                unit["y"],
                config.n_iter * config.es.n_rules,
                config.ridge_coeff,
                unit["X_fresh"],
                unit["y_fresh"],
                self.mse_share,
            )
            problems += unit["probe"].check()
        return problems


def data_1d(seed: int):
    dataset, sample = piecewise_1d(seed, 750)
    return dataset.X, dataset.y, sample


def data_4d(seed: int):
    sample = piecewise_4d(seed)
    X, y = sample(np.random.default_rng([seed, 1]), 5000)
    return X, y, sample


# -- serve -------------------------------------------------------------

SERVE_CONFIG = {"n_iter": 3, "es": {"n_rules": 8}, "ga": {"generations": 8}}
SERVE_MODEL_SEED = 2022
SERVE_TRAIN_ROWS = 1000
SERVE_QUERY_ROWS = 100_000
SERVE_OUTSIDE_ROWS = 1_000


class ServeWorkload:
    """Three trained 4-d models served from their files, one per round;
    no training in the timed part. The models are the same in every run
    (their training data does not depend on the workload seed), so the
    work per query row is too; the seed makes the query rows."""

    units = 3
    nominal_round_s = 3.3

    def setup(self, seed: int, k: int, work: str) -> dict:
        sample = piecewise_4d(sub_seed(SERVE_MODEL_SEED, k, 0))
        X, y = sample(np.random.default_rng(sub_seed(SERVE_MODEL_SEED, k, 1)), SERVE_TRAIN_ROWS)
        config = config_from_dict(SERVE_CONFIG, LearnerConfig(master_seed=sub_seed(SERVE_MODEL_SEED, k, 2)))
        trained = fit(X, y, config)
        model_path = os.path.join(work, f"model{k}.json")
        persistence.save_model(trained, model_path)
        rng = np.random.default_rng(sub_seed(seed, k, 3))
        inside = rng.uniform(0.0, 1.0, size=(SERVE_QUERY_ROWS - SERVE_OUTSIDE_ROWS, 4))
        outside = rng.uniform(1.25, 1.5, size=(SERVE_OUTSIDE_ROWS, 4))
        X_query = np.vstack([inside, outside])
        served = Served(
            model=persistence.load_model(model_path),
            model_path=model_path,
            X=X_query,
            chunks=write_chunks(X_query, work, f"serve{k}"),
            batch_calls=8,
            single_rows=single_rows(SERVE_QUERY_ROWS, 1000),
        )
        served.warm_up(work)
        return {"served": served, "trained": trained}

    def round(self, units: list, r: int, rec: Record, call=plain_call) -> None:
        started = time.perf_counter()
        units[r % len(units)]["served"].serve(rec, call)
        rec.main_s.append(time.perf_counter() - started)

    def between_rounds(self, units: list, rec: Record) -> None:
        """PROBE_FITS small fixed fits, outside the rounds so that no
        timed round trains: serve's fit_s is the fastest of these. Short
        and made between all rounds, they sample the whole run, as the
        fastest call must (see README, "Machine and environment")."""
        _, X, y = probe_data()
        config = config_from_dict(PROBE_FIT, LearnerConfig(master_seed=PROBE_SEED))
        for _ in range(PROBE_FITS):
            model, seconds = rec.op(fit, X, y, config)
            if model is not None:
                rec.fit_s.append(seconds)

    def check(self, units: list) -> list[str]:
        problems = []
        for unit in units:
            served = unit["served"]
            if served.batch is None:
                continue
            problems += served.check(unit["trained"].predict(served.X))
        return problems


# -- bench -------------------------------------------------------------

BENCH_SETTINGS = {"n_iter": 6, "ga.generations": 16, "benchmark.n_seeds": 2, "benchmark.n_splits": 3}
BENCH_WARM_UP = {"n_iter": 1, "es.n_rules": 1, "ga.generations": 1, "benchmark.n_seeds": 1, "benchmark.n_splits": 2}
BENCH_DATASETS = 2
BENCH_JOBS = 2


def settings_argv(settings: dict) -> list[str]:
    argv = []
    for key, value in settings.items():
        argv += ["--set", f"{key}={value}"]
    return argv


class BenchWorkload:
    """`rulemix benchmark --jobs 2` over two generated CSV datasets, with
    the probe serving its queries before and after it."""

    units = 3
    nominal_round_s = 10.0

    def setup(self, seed: int, k: int, work: str) -> dict:
        unit_dir = os.path.join(work, f"bench{k}")
        os.makedirs(unit_dir)
        piecewise, _ = piecewise_1d(sub_seed(seed, k, 0), 500, noise_std=0.05)
        piecewise.name = "piecewise_1d"
        sample = smooth_2d(sub_seed(seed, k, 1))
        X, y = sample(np.random.default_rng(sub_seed(seed, k, 2)), 500)
        smooth = replace(piecewise, name="smooth_2d", X=X, y=y, feature_names=["x0", "x1"], metadata={})
        registry = {"datasets": {}}
        for dataset in (piecewise, smooth):
            path = os.path.join(unit_dir, f"{dataset.name}.csv")
            write_csv(dataset, path)
            registry["datasets"][dataset.name] = path
        registry_path = os.path.join(unit_dir, "registry.json")
        with open(registry_path, "w") as fh:
            json.dump(registry, fh)
        unit = {"registry": registry_path, "out": os.path.join(unit_dir, "out"), "seed": sub_seed(seed, k, 5) % 2**31}
        unit["code"] = None
        if quiet(cli.main, self.argv(unit, os.path.join(unit_dir, "warm"), BENCH_WARM_UP)) != 0:
            raise RuntimeError("warm-up rulemix benchmark failed")
        unit["probe"] = probe(seed, k, unit_dir, *PROBE_SIZES)
        return unit

    @staticmethod
    def argv(unit: dict, out: str, settings: dict) -> list[str]:
        argv = ["benchmark", unit["registry"], "--out", out, "--jobs", str(BENCH_JOBS), "--seed", str(unit["seed"])]
        return argv + settings_argv(settings)

    def round(self, units: list, r: int, rec: Record, call=plain_call) -> None:
        """One `rulemix benchmark`; the report run_benchmark returns is kept
        for the per-run fit times it carries."""
        unit = units[r % len(units)]
        unit["probe"].serve(rec, call)
        reports = []
        original = cli.run_benchmark

        def keep_report(*args, **kwargs):
            reports.append(original(*args, **kwargs))
            return reports[-1]

        cli.run_benchmark = keep_report
        try:
            seconds = rec.cli(call, "cli.benchmark", self.argv(unit, unit["out"], BENCH_SETTINGS))
        finally:
            cli.run_benchmark = original
        unit["code"] = 0 if seconds is not None else 1
        if seconds is not None:
            rec.main_s.append(seconds)
            rec.fit_s += [record.elapsed for record in reports[0].records]
        unit["probe"].serve(rec, call)

    def check(self, units: list) -> list[str]:
        problems = []
        expected = BENCH_DATASETS * BENCH_SETTINGS["benchmark.n_seeds"] * BENCH_SETTINGS["benchmark.n_splits"]
        for unit in units:
            if unit["code"] is None:
                continue
            problems += oracles.check_bench(unit["out"], unit["code"], expected)
            problems += unit["probe"].check()
        return problems


WORKLOADS = {
    "fit_1d": FitWorkload(3, {}, data_1d, mse_share=0.05, nominal_round_s=10.0, probe_passes=2),
    "fit_4d": FitWorkload(
        3, {"n_iter": 2, "es": {"n_rules": 8}, "ga": {"generations": 8}}, data_4d, mse_share=0.25, nominal_round_s=6.5, probe_passes=1
    ),
    "serve": ServeWorkload(),
    "bench": BenchWorkload(),
}
