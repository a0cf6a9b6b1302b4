"""The benchmark's tracer wraps package names; every one must still exist."""

import importlib
from pathlib import Path
from types import SimpleNamespace

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
