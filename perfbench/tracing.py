"""Per-layer spans, recorded from outside the package.

``Tracer`` swaps the public functions of each module for timing
wrappers where their callers look them up (the engine's functions are
imported by name into ``dynamic``, ``lift_full_path`` into
``structures``, ``augment_all`` into ``engine`` and ``dynamic``) and
restores them on exit.  A span's self time is its duration minus the
time of the spans it encloses.  Spans are aggregated per name in
memory; nothing is written while the workload runs.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

OPS = ("op_augment", "op_contract", "op_overtake")


class Spans:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.weak_bottoms = 0
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]

        return timed

    def op_calls(self) -> int:
        return sum(self.calls[f"structures.{op}"] for op in OPS)


def _targets(mods):
    """(owner, attribute, span name) for every wrapped entry point."""
    engine, dynamic = mods.engine, mods.dynamic
    out = [
        (engine, "initial_matching", "engine.initial_matching"),
        (engine, "run_phase", "engine.run_phase"),
        (mods.structures, "lift_full_path", "blossoms.lift_full_path"),
        (mods.oracles.CountedOracle, "find", "oracles.find"),
        (dynamic, "static_from_weak", "dynamic.static_from_weak"),
        (dynamic, "sampled_extend_active_path", "dynamic.sampled_extend_active_path"),
        (dynamic, "sampled_contract_and_augment", "dynamic.sampled_contract_and_augment"),
        (dynamic.ValidatingWeakProvider, "query", "dynamic.audit"),
        (dynamic.DoubleCover, "materialize", "dynamic.materialize"),
    ]
    for fn in ("build_h_prime", "build_h_prime_s", "exhaust_type1", "backtrack_pass"):
        out += [(mod, fn, f"engine.{fn}") for mod in (engine, dynamic)]
    out += [(mod, "augment_all", "graph.augment_all") for mod in (engine, dynamic)]
    out += [(mods.structures.PhaseState, op, f"structures.{op}") for op in OPS]
    return out


class Tracer:
    """Context manager: install the wrappers and hooks, restore on exit."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = Spans()
        self.bundles = 0
        self.bundles_with_op = 0
        self.aux_vertices = 0
        self.aux_edges = 0
        self.aux_nonisolated = 0
        self._ops_at_start = 0
        self.hooks = self._make_hooks()
        self._saved: list[tuple] = []

    def _make_hooks(self):
        tracer = self

        class CountingHooks(self.mods.engine.TraceHooks):
            def on_bundle_start(self, state, tau):
                tracer.bundles += 1
                tracer._ops_at_start = tracer.spans.op_calls()

            def on_bundle_end(self, state, tau):
                if tracer.spans.op_calls() > tracer._ops_at_start:
                    tracer.bundles_with_op += 1

            def on_oracle_graph(self, aux):
                tracer.aux_vertices += aux.n
                tracer.aux_edges += aux.m
                tracer.aux_nonisolated += sum(1 for a in aux.adj if a)

        return CountingHooks()

    def _wrap_weak_query(self, fn):
        spans = self.spans
        timed = spans.wrap("oracles.weak_query", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = timed(*args, **kwargs)
            if out is None:
                spans.weak_bottoms += 1
            return out

        return counted

    def __enter__(self):
        weak = self.mods.oracles.WeakFromMatchingOracle
        for owner, attr, name in _targets(self.mods):
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.spans.wrap(name, fn))
        self._saved.append((weak, "query", weak.query))
        weak.query = self._wrap_weak_query(weak.query)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False
