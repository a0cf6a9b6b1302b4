"""Benchmark of matchboost: three seeded workloads, end to end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload boost-tail --seed 1 --seconds 34 --trace 0

``--trace 0`` times the workload with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` alternates plain rounds with traced
rounds and prints the per-layer metrics.  ``--workload all`` runs every
workload in turn.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS, exact_problems

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 24
MODULES = ("engine", "dynamic", "graph", "oracles", "structures")


def import_package() -> SimpleNamespace:
    """A fresh import of the package from this checkout's ``src``."""
    for key in [k for k in sys.modules if k.split(".")[0] == "matchboost"]:
        del sys.modules[key]
    pkg = importlib.import_module("matchboost")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported matchboost from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"matchboost.{name}") for name in MODULES}
    )


def fingerprint(outs: list) -> str:
    blob = json.dumps(outs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _calls_after_last_path(outs: list) -> int:
    total = 0
    for out in outs:
        if isinstance(out, dict) and "per_scale" in out:
            found = [i for i, sc in enumerate(out["per_scale"]) if sc[1]]
            last = found[-1] if found else -1
            total += sum(sc[2] for sc in out["per_scale"][last + 1 :])
    return total


def layer_metrics(tracer: Tracer, rounds: int, outs: list, overhead: float) -> dict:
    """Per-round means of the traced rounds, named after the module."""
    sp = tracer.spans

    def per(x):
        return x / rounds

    def s(name):
        return _metric(per(sp.total[name]), "s")

    def self_s(name):
        return _metric(per(sp.self_time[name]), "s")

    def calls(name):
        return _metric(per(sp.calls[name]), "count")

    m = {
        "engine.initial_matching.s": s("engine.initial_matching"),
        "engine.run_phase.calls": calls("engine.run_phase"),
        "engine.run_phase.self_s": self_s("engine.run_phase"),
        "engine.build_h_prime.calls": calls("engine.build_h_prime"),
        "engine.build_h_prime.s": s("engine.build_h_prime"),
        "engine.build_h_prime_s.calls": calls("engine.build_h_prime_s"),
        "engine.build_h_prime_s.s": s("engine.build_h_prime_s"),
        "engine.exhaust_type1.s": s("engine.exhaust_type1"),
        "engine.backtrack_pass.s": s("engine.backtrack_pass"),
        "engine.bundles": _metric(per(tracer.bundles), "count"),
        "engine.bundles_with_op_ratio": _metric(
            tracer.bundles_with_op / tracer.bundles if tracer.bundles else 0.0, "ratio"
        ),
        "engine.calls_after_last_path": _metric(_calls_after_last_path(outs), "count"),
    }
    for op in ("op_augment", "op_contract", "op_overtake"):
        m[f"structures.{op}.calls"] = calls(f"structures.{op}")
        m[f"structures.{op}.s"] = s(f"structures.{op}")
    m["blossoms.lift_full_path.s"] = s("blossoms.lift_full_path")
    m["graph.augment_all.s"] = s("graph.augment_all")
    m["oracles.find.s"] = s("oracles.find")
    m["oracles.aux_vertices"] = _metric(per(tracer.aux_vertices), "count")
    m["oracles.aux_edges"] = _metric(per(tracer.aux_edges), "count")
    m["oracles.aux_nonisolated_ratio"] = _metric(
        tracer.aux_nonisolated / tracer.aux_vertices if tracer.aux_vertices else 0.0, "ratio"
    )
    m["oracles.weak_query.s"] = s("oracles.weak_query")
    m["oracles.weak_bottoms"] = _metric(per(sp.weak_bottoms), "count")
    m["dynamic.static_from_weak.calls"] = calls("dynamic.static_from_weak")
    m["dynamic.sampled_extend_active_path.self_s"] = self_s(
        "dynamic.sampled_extend_active_path"
    )
    m["dynamic.sampled_contract_and_augment.self_s"] = self_s(
        "dynamic.sampled_contract_and_augment"
    )
    m["dynamic.audit.self_s"] = self_s("dynamic.audit")
    m["dynamic.materialize.s"] = s("dynamic.materialize")
    m["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return m


def _set_up(wl, seed: int):
    """Import the package afresh and make the inputs; returns (seconds, mods, inputs)."""
    t0 = perf_counter()
    mods = import_package()
    inputs = wl.make_inputs(seed)
    return perf_counter() - t0, mods, inputs


def _round(wl, mods, inputs, hooks=None, between=None) -> tuple[list[float], list]:
    """Every solve once; returns the time of each solve and their outputs.

    ``between`` runs after each solve, outside the timed span.
    """
    times, outs = [], []
    for i in range(wl.solves(inputs)):
        t0 = perf_counter()
        outs += wl.solve(mods, inputs, i, hooks)
        times.append(perf_counter() - t0)
        if between:
            between()
    return times, outs


def _round_time(rounds: list[list[float]]) -> float:
    """One round's time: each solve's median over the rounds, summed.

    A burst of load on the host slows the solves that meet it; the
    per-solve median leaves it out, where a sum of whole rounds keeps it.
    """
    return sum(statistics.median(ts) for ts in zip(*rounds))


def _peak_heap_mb(wl, mods, inputs) -> float:
    """Peak heap allocated by the first solve, on a freshly imported package."""
    tracemalloc.start()
    try:
        wl.solve(mods, inputs, 0)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, mods, inputs = _set_up(wl, seed)
    setup = [setup_s]
    start = perf_counter()

    def set_up_on_schedule():
        # Spread the set-up repeats over the run, so that they meet the
        # same host as the solves rather than one moment at its start.
        share = (perf_counter() - start) / seconds if seconds > 0 else 1.0
        due = min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * share))
        while len(setup) < due:
            setup.append(_set_up(wl, seed)[0])

    plain: list[list[float]] = []
    traced: list[list[float]] = []
    tracer = Tracer(mods) if trace else None
    problems: list[list[str]] = []
    first = None
    while True:
        times, outs = _round(wl, mods, inputs, between=None if tracer else set_up_on_schedule)
        plain.append(times)
        problems += wl.check(inputs, outs)
        first = first or outs
        if tracer:
            with tracer:
                times, touts = _round(wl, mods, inputs, tracer.hooks)
                traced.append(times)
            problems += wl.check(inputs, touts)
        per_round = _round_time(plain) + (_round_time(traced) if traced else 0)
        if perf_counter() - start + per_round > seconds:
            break

    # A wrong optimum from the program's exact matcher fails every solve of that case.
    bad_cases = exact_problems(mods, inputs)
    n_cases = len(inputs.cases)
    failed = 0
    for i, probs in enumerate(problems):
        probs = probs + bad_cases[i % n_cases]
        if probs:
            failed += 1
            for p in probs[:3]:
                print(f"{wl.name} case {i % n_cases}: {p}", file=sys.stderr)

    good = [o for o in first if isinstance(o, dict)]
    mu = sum(c.mu for c in inputs.cases)
    run_s = _round_time(plain)
    if tracer:
        metrics = layer_metrics(tracer, len(traced), first, _round_time(traced) / run_s)
    else:
        while len(setup) < SETUP_REPEATS:
            setup.append(_set_up(wl, seed)[0])
        _, fresh_mods, fresh_inputs = _set_up(wl, seed)
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "run_s": _metric(run_s, "s"),
            "oracle_calls": _metric(sum(wl.calls(o) for o in good), "count"),
            "matched_ratio": _metric(sum(wl.matched(o) for o in good) / mu, "ratio"),
            "peak_heap_mb": _metric(_peak_heap_mb(wl, fresh_mods, fresh_inputs), "MB"),
        }
    print(
        f"{wl.name} seed {seed}: {n_cases} solves per round, {len(plain)} plain and "
        f"{len(traced)} traced rounds, fingerprint {fingerprint(first)}"
    )
    return {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=34)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "matchboost" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({name: results[name]}, sort_keys=True))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
