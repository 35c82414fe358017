#!/usr/bin/env python3
"""Print a sha256 manifest of what fixed fits produce, to check that a
change to rulemix keeps every output byte for byte.

    PYTHONPATH=src python3 scripts/digests.py                # the 1d and 4d fits
    PYTHONPATH=src python3 scripts/digests.py --fit tiny     # a fit of under a second

For each fit, on data made by rulemix.data.gen_piecewise_linear (a 4-d
set stacks four 1-d sets and sums their targets), the manifest holds the
digests of the saved model file, the fitness history, the predictions
of a query batch in C and in Fortran order and of its rows one at a
time, and the CSV that `rulemix predict --out` writes. It then holds the
digests of report.json and records.csv of one `rulemix benchmark` over
the fits' datasets, at --jobs 1 and at --jobs 2. Run it on two
checkouts and diff the output: equal manifests mean equal bytes.
"""

from __future__ import annotations

import os

# the determinism contract holds at any BLAS thread count; one thread
# keeps the run cheap and free of thread scheduling
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile

import numpy as np

from rulemix import cli, persistence
from rulemix.data import Dataset, gen_piecewise_linear, write_csv
from rulemix.learner import LearnerConfig, config_from_dict, fit

# name: (features, training rows, data seed, learner config as in a
# `rulemix fit --config` file)
FITS = {
    "tiny": (2, 120, 3, {"n_iter": 2, "es": {"n_rules": 2, "lambda": 4}, "ga": {"population_size": 8, "generations": 4}}),
    "1d": (1, 750, 1, {}),
    "4d": (4, 2000, 2, {"n_iter": 8, "es": {"n_rules": 3}}),
}
QUERY_ROWS = 600
# rows predicted one at a time, a slice of the query batch
SINGLE_ROWS = 150
# the benchmark reruns each fit's settings over n_seeds x n_splits splits
BENCHMARK_SETTINGS = {"n_seeds": 2, "n_splits": 2}


def dataset(dim: int, n: int, seed: int) -> Dataset:
    """dim generated 1-d sets side by side, the target their sum, with
    noise so that no rule fits its rows exactly."""
    parts = [gen_piecewise_linear(n, 3, noise_std=0.05, seed=seed * 100 + j) for j in range(dim)]
    return Dataset(
        name=f"piecewise_{dim}d",
        X=np.hstack([part.X for part in parts]),
        y=np.sum([part.y for part in parts], axis=0),
        feature_names=[f"x{j}" for j in range(dim)],
        target_name="y",
    )


def queries(data: Dataset, seed: int) -> np.ndarray:
    """Rows inside the training range, on its bounds and outside it."""
    gen = np.random.default_rng(seed)
    low, high = data.X.min(axis=0), data.X.max(axis=0)
    X = gen.uniform(low - 0.1 * (high - low), high + 0.1 * (high - low), size=(QUERY_ROWS, data.dim))
    X[:10] = np.where(gen.random((10, data.dim)) < 0.5, low, high)
    return X


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def quiet_main(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != cli.EXIT_OK:
        raise RuntimeError(f"rulemix {' '.join(argv)} exited with {status}")


def fit_digests(name: str, work: str) -> list[tuple[str, str]]:
    dim, n, seed, settings = FITS[name]
    data = dataset(dim, n, seed)
    model = fit(data.X, data.y, config_from_dict(settings, LearnerConfig(master_seed=seed)))
    model_path = os.path.join(work, f"{name}.json")
    persistence.save_model(model, model_path)
    X = queries(data, seed)
    singles = np.array([model.predict(X[i : i + 1])[0] for i in range(SINGLE_ROWS)])
    query_path, csv_path = os.path.join(work, f"{name}_query.csv"), os.path.join(work, f"{name}_predictions.csv")
    np.savetxt(query_path, X, delimiter=",", header=",".join(data.feature_names), comments="", fmt="%.17g")
    quiet_main(["predict", model_path, query_path, "--out", csv_path])
    write_csv(data, os.path.join(work, f"{name}_train.csv"))
    return [
        (f"{name}/model.json", file_sha256(model_path)),
        (f"{name}/fitness_history", sha256(np.array(model.fitness_history).tobytes())),
        (f"{name}/predict_c", sha256(model.predict(np.ascontiguousarray(X)).tobytes())),
        (f"{name}/predict_f", sha256(model.predict(np.asfortranarray(X)).tobytes())),
        (f"{name}/predict_rows", sha256(singles.tobytes())),
        (f"{name}/predict_csv", file_sha256(csv_path)),
    ]


def benchmark_digests(names: list[str], work: str) -> list[tuple[str, str]]:
    """One `rulemix benchmark` over the fits' training sets, under the
    first fit's learner settings, at --jobs 1 and 2."""
    registry, config = os.path.join(work, "registry.json"), os.path.join(work, "config.json")
    with open(registry, "w") as fh:
        json.dump({"datasets": {name: os.path.join(work, f"{name}_train.csv") for name in names}}, fh)
    with open(config, "w") as fh:
        json.dump({**FITS[names[0]][3], "benchmark": BENCHMARK_SETTINGS}, fh)
    lines = []
    for jobs in (1, 2):
        out = os.path.join(work, f"benchmark_jobs{jobs}")
        quiet_main(["benchmark", registry, "--out", out, "--jobs", str(jobs), "--config", config])
        lines += [(f"benchmark/jobs{jobs}/{file}", file_sha256(os.path.join(out, file))) for file in ("report.json", "records.csv")]
    return lines


def manifest(names: list[str]) -> str:
    """The manifest of the named fits, one `digest  name` line each."""
    with tempfile.TemporaryDirectory() as work:
        lines = [line for name in names for line in fit_digests(name, work)]
        lines += benchmark_digests(names, work)
    return "".join(f"{digest}  {name}\n" for name, digest in lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fit", action="append", choices=sorted(FITS), help="fit to digest, repeatable (default: 1d and 4d)")
    args = parser.parse_args(argv)
    sys.stdout.write(manifest(args.fit or ["1d", "4d"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
