"""scripts/digests.py, the byte-identity manifest, run as a user runs it."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_digests(*args: str) -> str:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "digests.py"), *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_tiny_fit_gives_the_same_manifest_twice():
    """Two runs of the tiny fit print one sha256 line per output, equal
    bytes in both; the benchmark's report and records are the same at
    --jobs 1 and 2, and C and Fortran order predict the same bits."""
    first = run_digests("--fit", "tiny")
    assert run_digests("--fit", "tiny") == first
    digests = dict(reversed(line.split("  ")) for line in first.splitlines())
    assert list(digests) == [
        "tiny/model.json",
        "tiny/fitness_history",
        "tiny/predict_c",
        "tiny/predict_f",
        "tiny/predict_rows",
        "tiny/predict_csv",
        "benchmark/jobs1/report.json",
        "benchmark/jobs1/records.csv",
        "benchmark/jobs2/report.json",
        "benchmark/jobs2/records.csv",
    ]
    assert all(len(digest) == 64 for digest in digests.values())
    assert digests["tiny/predict_c"] == digests["tiny/predict_f"]
    for file in ("report.json", "records.csv"):
        assert digests[f"benchmark/jobs1/{file}"] == digests[f"benchmark/jobs2/{file}"]
