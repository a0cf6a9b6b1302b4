"""The benchmark's tracer wraps package names; every one must still exist.

The benchmark also keeps its own copy of the weak pipeline's density
promise, which must match the package's.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

from _inputs import joined_gadgets

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    mods = SimpleNamespace(
        **{
            name: importlib.import_module(f"matchboost.{name}")
            for name in ("engine", "dynamic", "graph", "oracles", "structures")
        }
    )
    targets = tracing._targets(mods)
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not hasattr(owner, attr)
    ]
    assert missing == []


def test_every_traced_span_records_a_call(monkeypatch):
    # A name can resolve and still be dead, when the code that called it
    # through that module has moved.  Only tests build the double cover.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    mods = SimpleNamespace(
        **{
            name: importlib.import_module(f"matchboost.{name}")
            for name in ("engine", "dynamic", "graph", "oracles", "structures")
        }
    )
    corpus = importlib.import_module("matchboost.corpus")
    tracer = tracing.Tracer(mods)
    with tracer:
        # the joined gadgets keep two structures that can meet at mu, so
        # op_contract runs
        g = joined_gadgets()
        mods.engine.boost(g, 0.25, mods.oracles.GreedyOracle(seed=1), hooks=tracer.hooks)
        updates = corpus.gen_update_stream(64, 128, seed=1)
        mods.dynamic.problem1_harness(64, updates, 0.25, seed=1)
    names = {name for _, _, name in tracing._targets(mods)} | {"oracles.weak_query"}
    silent = sorted(name for name in names if tracer.spans.calls[name] == 0)
    assert silent == ["dynamic.materialize"]


def test_benchmark_density_promise_matches_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    dynamic = importlib.import_module("matchboost.dynamic")
    assert workloads.T_CONST == dynamic.DENSITY_COEFF
