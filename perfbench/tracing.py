"""Spans around the public functions of each rulemix module.

The wrappers are installed from outside the package, at run time: every
module attribute that is one of the wrapped functions is replaced, so a
call made through a `from .rules import match_mask` style import is
caught as well. Nothing under src/ changes, and uninstalling restores
the original objects, so untraced rounds run the program untouched.

A span is (id, name, start, end, parent id), appended when the call
returns; counts (rows, rules, unique genomes, ...) are summed at the
boundary they describe. Both stay in memory while a round runs. Worker
processes of `rulemix benchmark` inherit the wrappers through fork and
append the spans and counts of each task to a file of their own, which
the parent reads back after the round.
"""

from __future__ import annotations

import functools
import json
import os
import time
import weakref
from collections import defaultdict

import rulemix
from rulemix import benchmark, cli, composition, data, discovery, learner, persistence, rules

MODULES = (rulemix, benchmark, cli, composition, data, discovery, learner, persistence, rules)


class Trace:
    """The spans and summed counts of one process over one piece of work."""

    def __init__(self, spans=None, sums=None):
        self.spans: list[tuple] = spans if spans is not None else []
        self.sums: dict[str, float] = defaultdict(float, sums or {})

    def to_json(self) -> str:
        return json.dumps({"spans": self.spans, "sums": self.sums})

    @classmethod
    def from_json(cls, line: str) -> "Trace":
        doc = json.loads(line)
        return cls([tuple(span) for span in doc["spans"]], doc["sums"])


# -- count hooks: hook(tracer, parent, seconds, args, kwargs, result) -------


def _fit_submodel(tracer, parent, seconds, args, kwargs, rule):
    tracer.record.sums["rules.fit_submodel.rows"] += rule.experience


def _mix_predict(tracer, parent, seconds, args, kwargs, result):
    sums = tracer.record.sums
    sums["rules.mix_predict.rows"] += len(result)
    sums["rules.mix_predict.rules"] += len(args[0])


def _evaluate(tracer, parent, seconds, args, kwargs, individual):
    """Counts genomes not evaluated before in the same GA run (the
    enclosing compose_solution span)."""
    if parent != tracer.seen_parent:
        tracer.seen_parent = parent
        tracer.seen_genomes = set()
    key = individual.genome.tobytes()
    if key not in tracer.seen_genomes:
        tracer.seen_genomes.add(key)
        tracer.record.sums["composition.evaluate.unique"] += 1


def _evaluator(tracer, parent, seconds, args, kwargs, result):
    """Counts the rules a PoolEvaluator precomputes, and how many of them
    no earlier evaluator over the same pool had."""
    pool = args[1]
    sums = tracer.record.sums
    sums["composition.evaluator_build.rules"] += len(pool)
    sums["composition.evaluator_build.new"] += len(pool) - tracer.pool_sizes.get(pool, 0)
    tracer.pool_sizes[pool] = len(pool)


def _load_csv(tracer, parent, seconds, args, kwargs, dataset):
    tracer.record.sums["data.load_csv.rows"] += dataset.n


def _load_model(tracer, parent, seconds, args, kwargs, result):
    tracer.record.sums["persistence.load_model.bytes"] += os.path.getsize(str(args[0]))


def _run_benchmark(tracer, parent, seconds, args, kwargs, report):
    jobs = kwargs.get("jobs", args[6] if len(args) > 6 else 1)
    sums = tracer.record.sums
    sums["benchmark.run_benchmark.runs"] += len(report.records)
    sums["benchmark.run_benchmark.fit_s"] += sum(r.elapsed for r in report.records)
    sums["benchmark.run_benchmark.capacity_s"] += jobs * seconds


TARGETS = (
    # (owner, attribute, span name, count hook)
    (discovery, "discover_rules", "discovery.discover_rules", None),
    (discovery, "evolve_rule", "discovery.evolve_rule", None),
    (rules, "fit_submodel", "rules.fit_submodel", _fit_submodel),
    (rules, "match_mask", "rules.match_mask", None),
    (rules, "mix_predict", "rules.mix_predict", _mix_predict),
    (composition, "compose_solution", "composition.compose_solution", None),
    (composition.PoolEvaluator, "__init__", "composition.evaluator_build", _evaluator),
    (composition.PoolEvaluator, "evaluate", "composition.evaluate", _evaluate),
    (data, "load_csv", "data.load_csv", _load_csv),
    (persistence, "save_model", "persistence.save_model", None),
    (persistence, "load_model", "persistence.load_model", _load_model),
    (benchmark, "run_benchmark", "benchmark.run_benchmark", _run_benchmark),
    (benchmark, "write_report_json", "benchmark.report_write", None),
    (benchmark, "write_records_csv", "benchmark.report_write", None),
    (benchmark, "format_summary_text", "benchmark.report_write", None),
)


class Tracer:
    """Install with `with tracer:`; each entry starts a fresh Trace."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.owner_pid = os.getpid()
        self.pool_sizes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._saved: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.record = Trace()
        self.stack: list[int] = []
        self.next_id = 0
        self.seen_parent = -1
        self.seen_genomes: set[bytes] = set()

    def _wrap(self, name: str, fn, hook=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.record.spans.append((span_id, name, start, end, parent))
            if hook is not None:
                hook(tracer, parent, end - start, args, kwargs, result)
            return result

        return wrapped

    def call(self, name: str, fn, /, *args):
        """Run fn inside a span of the given name (the benchmark's own
        calls into the program)."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        """Replace the wrapped functions wherever a module holds them."""
        for owner, attr, name, hook in TARGETS:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, hook)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapped)
        task = getattr(benchmark, "_execute_task", None)
        if task is not None:
            self._saved.append((benchmark, "_execute_task", task))
            benchmark._execute_task = self._worker_task(task)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _worker_task(self, fn):
        """Wrap the benchmark's per-run task so that a worker process
        writes the spans and counts of each task to a file of its own.
        The wrapper keeps the task's module and name, so the process pool
        pickles it by reference as before."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(task):
            if os.getpid() == tracer.owner_pid:
                return fn(task)
            tracer._reset()
            try:
                return fn(task)
            finally:
                with open(os.path.join(tracer.worker_dir, f"{os.getpid()}.jsonl"), "a") as fh:
                    fh.write(tracer.record.to_json() + "\n")

        return wrapped

    def __enter__(self):
        self.owner_pid = os.getpid()
        self._reset()
        os.makedirs(self.worker_dir, exist_ok=True)
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def worker_records(self) -> list[Trace]:
        """What worker processes wrote, one Trace per task."""
        out = []
        for name in sorted(os.listdir(self.worker_dir)):
            with open(os.path.join(self.worker_dir, name)) as fh:
                out.extend(Trace.from_json(line) for line in fh if line.strip())
        return out


def layer_metrics(records: list[Trace], rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round, from the records of every process."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    csv_io = 0.0
    for record in records:
        for key, value in record.sums.items():
            sums[key] += value
        names = {span[0]: span[1] for span in record.spans}
        for span_id, name, start, end, parent in record.spans:
            seconds[name] += end - start
            calls[name] += 1
            if name == "cli.predict":
                csv_io += end - start
            elif names.get(parent) == "cli.predict" and name in ("persistence.load_model", "rules.mix_predict"):
                csv_io -= end - start

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    ga = seconds["composition.compose_solution"]
    evaluate = seconds["composition.evaluate"]
    build = seconds["composition.evaluator_build"]
    per_round = {
        "discovery.es_s": seconds["discovery.discover_rules"],
        "discovery.es_runs": calls["discovery.evolve_rule"],
        "rules.fit_submodel_s": seconds["rules.fit_submodel"],
        "rules.fit_submodel_calls": calls["rules.fit_submodel"],
        "rules.fit_submodel_rows": sums["rules.fit_submodel.rows"],
        "rules.match_mask_s": seconds["rules.match_mask"],
        "rules.match_mask_calls": calls["rules.match_mask"],
        "rules.mix_predict_s": seconds["rules.mix_predict"],
        "rules.mix_predict_rows": sums["rules.mix_predict.rows"],
        "rules.mix_rule_passes": sums["rules.mix_predict.rules"],
        "composition.ga_s": ga,
        "composition.evaluate_s": evaluate,
        "composition.evaluations": calls["composition.evaluate"],
        "composition.unique_evaluations": sums["composition.evaluate.unique"],
        "composition.evaluator_build_s": build,
        "composition.evaluator_rules": sums["composition.evaluator_build.rules"],
        "composition.operators_s": ga - evaluate - build,
        "data.load_csv_s": seconds["data.load_csv"],
        "data.load_csv_rows": sums["data.load_csv.rows"],
        "persistence.load_model_s": seconds["persistence.load_model"],
        "persistence.save_model_s": seconds["persistence.save_model"],
        "cli.csv_io_s": csv_io,
        "benchmark.run_benchmark_s": seconds["benchmark.run_benchmark"],
        "benchmark.runs": sums["benchmark.run_benchmark.runs"],
        "benchmark.report_write_s": seconds["benchmark.report_write"],
        "benchmark.worker_fit_s": sums["benchmark.run_benchmark.fit_s"],
    }
    metrics = {name: value / rounds for name, value in per_round.items()}
    metrics["composition.unique_ratio"] = ratio(sums["composition.evaluate.unique"], calls["composition.evaluate"])
    metrics["composition.evaluator_new_ratio"] = ratio(
        sums["composition.evaluator_build.new"], sums["composition.evaluator_build.rules"]
    )
    metrics["persistence.model_bytes"] = ratio(sums["persistence.load_model.bytes"], calls["persistence.load_model"])
    metrics["benchmark.parallel_efficiency"] = ratio(
        sums["benchmark.run_benchmark.fit_s"], sums["benchmark.run_benchmark.capacity_s"]
    )
    return metrics
