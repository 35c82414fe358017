"""The call structure that perfbench's tracer (perfbench/tracing.py)
reads its per-layer figures from.

The tracer wraps functions from outside the package: it replaces every
module attribute of rulemix that holds one of them, and methods on their
class. Its counts are therefore facts about how the package calls those
functions, and a change to that call structure silently empties or
redefines a per-layer figure. These tests wrap the same functions the
same way over a small fit and pin what the figures assume.
"""

from __future__ import annotations

import numpy as np
import pytest

import rulemix
from rulemix import benchmark, cli, composition, data, discovery, learner, persistence, rules
from rulemix.learner import LearnerConfig, config_from_dict, fit

MODULES = (rulemix, benchmark, cli, composition, data, discovery, learner, persistence, rules)
SMALL = {"n_iter": 3, "es": {"n_rules": 2}, "ga": {"generations": 4, "population_size": 8, "n_elitists": 2}}


@pytest.fixture
def calls(monkeypatch):
    """Wrap the traced functions as the tracer does; each call appends
    (name, depth inside compose_solution, pool size of an evaluator
    build) to the returned list."""
    log: list[tuple[str, int, int | None]] = []
    depth = [0]

    def wrap(name, fn):
        def wrapped(*args, **kwargs):
            log.append((name, depth[0], len(args[1]) if name == "__init__" else None))
            if name == "compose_solution":
                depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if name == "compose_solution":
                    depth[0] -= 1

        return wrapped

    for owner, name in ((discovery, "evolve_rule"), (rules, "fit_submodel"), (composition, "compose_solution")):
        original = getattr(owner, name)
        wrapped = wrap(name, original)
        for module in MODULES:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapped)
    for name in ("__init__", "evaluate"):
        monkeypatch.setattr(composition.PoolEvaluator, name, wrap(name, getattr(composition.PoolEvaluator, name)))
    return log


def test_traced_call_structure_of_a_fit(calls):
    gen = np.random.default_rng(0)
    X = gen.uniform(-1.0, 1.0, size=(200, 4))
    y = np.abs(X[:, 0]) + X[:, 1] * X[:, 2]
    config = config_from_dict(SMALL, LearnerConfig(master_seed=1))
    fit(X, y, config)
    ga, es = config.ga, config.es

    def named(name):
        return [entry for entry in calls if entry[0] == name]

    # composition.evaluations: every genome is scored through evaluate
    per_run = ga.population_size + 1 + ga.generations * (ga.population_size - ga.n_elitists)
    assert len(named("evaluate")) == config.n_iter * per_run
    # composition.evaluator_build_s and _rules: one evaluator per cycle,
    # built inside compose_solution (whose span the GA time is), over the
    # pool as grown by that cycle
    builds = named("__init__")
    assert len(named("compose_solution")) == len(builds) == config.n_iter
    assert all(depth == 1 for _, depth, _ in builds)
    assert [size for _, _, size in builds] == [es.n_rules * (cycle + 1) for cycle in range(config.n_iter)]
    # discovery.es_runs and rules.fit_submodel_calls: each ES run fits its
    # first parent and the rule it returns through fit_submodel
    assert len(named("evolve_rule")) == config.n_iter * es.n_rules
    assert len(named("fit_submodel")) == 2 * config.n_iter * es.n_rules
