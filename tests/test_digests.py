"""scripts/digests.py, the byte-identity manifest, run as a user runs it.

tests/digests.sha256 holds the tiny fit's manifest under a header that
names the build it was made on. A change that moves bits on purpose
rewrites it with

    PYTHONPATH=src python3 tests/test_digests.py
"""

import os
import pathlib
import platform
import subprocess
import sys
from itertools import zip_longest

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "digests.sha256"


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


def build_header() -> list[str]:
    """The build the tiny fit's bits depend on, one `# name value` line
    each: Python, numpy, its BLAS and the SIMD extensions numpy found.
    OpenBLAS built with DYNAMIC_ARCH picks its kernels by CPU, so the
    SIMD list stands in for the CPU as well."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return [
        f"# python {platform.python_version()}",
        f"# numpy {np.__version__}",
        f"# blas {blas.get('openblas configuration', blas.get('name', 'unknown'))}",
        f"# simd {' '.join(config.get('SIMD Extensions', {}).get('found', [])) or 'unknown'}",
    ]


def test_tiny_fit_matches_the_committed_manifest():
    """Every output of the tiny fit has the digest tests/digests.sha256
    records, on the build that file was made on; on another build gemv
    and dot may round differently, so the test skips naming what differs."""
    lines = GOLDEN.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    different = [f"{made} (here {ours})" for made, ours in zip_longest(header, build_header()) if made != ours]
    if different:
        pytest.skip("digests.sha256 was made on another build: " + "; ".join(different))
    assert run_digests("--fit", "tiny").splitlines() == [line for line in lines if not line.startswith("#")]


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(build_header()) + "\n" + run_digests("--fit", "tiny"))
