"""Run one benchmark workload against the rulemix sources of this checkout.

    python3 perfbench/run.py --workload fit_1d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end figures, measured with the
program untouched; with --trace 1 they are the per-layer figures of a
traced run, which alternates untraced and traced rounds of the same
work and reports the tracing overhead beside them.
"""

from __future__ import annotations

import os

# One BLAS thread: `rulemix benchmark --jobs 2` must not oversubscribe
# the two cores, and timings must not depend on BLAS thread scheduling.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def import_program() -> None:
    """Put the checkout's src/ first on the path and make sure rulemix is
    imported from there, not from anywhere else."""
    package = ROOT / "src" / "rulemix"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a rulemix checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import rulemix

    if Path(rulemix.__file__).resolve().parent != package:
        sys.exit(f"error: rulemix imported from {rulemix.__file__}, not from {package}")


def timed_rounds(workload, units, seconds: float, rec) -> None:
    """Whole rounds for about `seconds`: as many as fit in it at the
    workload's nominal round length on the reference machine, so that
    every run of a given length does the same work. A count set by the
    time rounds take made a run two rounds on one seed and three on the
    next whenever a round took about a third or half of the run, and its
    probe sampled fewer moments. A workload may also time work of its
    own before each round and after the last."""
    between = getattr(workload, "between_rounds", None)
    for r in range(max(1, round(seconds / workload.nominal_round_s))):
        if between:
            between(units, rec)
        started = time.perf_counter()
        workload.round(units, r, rec)
        rec.round_s.append(time.perf_counter() - started)
    if between:
        between(units, rec)


def traced_rounds(workload, units, seconds: float, untraced, traced, tracer) -> tuple[list, int]:
    """Pairs of an untraced and a traced round of the same work (unit 0),
    for about `seconds`. Returns the traced records of this process and
    the number of pairs."""
    records = []

    def pair() -> float:
        started = time.perf_counter()
        workload.round(units, 0, untraced)
        with tracer:
            workload.round(units, 0, traced, tracer.call)
        records.append(tracer.record)
        return time.perf_counter() - started

    first = pair()
    pairs = max(1, round(seconds / first))
    for _ in range(1, pairs):
        pair()
    return records, pairs


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(name: str, units, setup_s: list, rec) -> dict:
    """The end-to-end figures.

    Calls whose work is the same in every run (predict calls on fixed
    models, serve's small fixed fits) report the fastest of many short
    calls: other tenants of the host slow this process by 1.1x to 1.8x
    from moment to moment, and over 20-second windows the mean of a fixed
    loop moved by 19% (quartile spread), the fastest of its 14 ms calls by
    7% and the fastest of its 1.1 s blocks by 17%. Fits of seeded
    datasets report their mean, set-up and rounds their median.
    """
    if name == "serve":
        fit_s = min(rec.fit_s)
    else:
        fit_s = statistics.fmean(rec.fit_s)
    round_s = rec.main_s if name == "bench" else rec.round_s
    single = rec.single_us
    p99 = statistics.quantiles(single, n=100)[98]
    print(
        f"predict_row_us: fastest {min(single):.1f} median {statistics.median(single):.1f} "
        f"p99 {p99:.1f} over {len(single)} calls"
    )
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "fit_s": (fit_s, "s"),
        "predict_rows_per_s": (max(rec.batch_rows_per_s), "1/s"),
        "predict_row_us": (min(single), "us"),
        "file_predict_rows_per_s": (max(rec.file_rows_per_s), "1/s"),
        "benchmark_s": (statistics.median(round_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_efficiency": "ratio", "_bytes": "bytes"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("fit_1d", "fit_4d", "serve", "bench"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; every input derives from it")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_program()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    units, setup_s = [], []
    for k in range(workload.units):
        started = time.perf_counter()
        units.append(workload.setup(args.seed, k, str(WORK)))
        setup_s.append(time.perf_counter() - started)

    if args.trace:
        untraced, traced = workloads.Record(), workloads.Record()
        tracer = tracing.Tracer(str(WORK / "worker-spans"))
        records, pairs = traced_rounds(workload, units, args.seconds, untraced, traced, tracer)
        records += tracer.worker_records()
        with open(WORK / f"trace-{args.workload}.jsonl", "w") as fh:
            for record in records:
                fh.write(record.to_json() + "\n")
        layers = tracing.layer_metrics(records, pairs)
        layers["trace.untraced_s"] = statistics.fmean(untraced.main_s)
        layers["trace.traced_s"] = statistics.fmean(traced.main_s)
        layers["trace.overhead_ratio"] = layers["trace.traced_s"] / layers["trace.untraced_s"]
        metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    else:
        rec = workloads.Record()
        timed_rounds(workload, units, args.seconds, rec)
        metrics = end_to_end(args.workload, units, setup_s, rec)
        attempted, failed = rec.attempted, rec.failed

    problems = workload.check(units)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
