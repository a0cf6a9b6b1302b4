"""Expanding the scales ``boost`` skipped as replays of its last phase.

``boost`` stops after a settled phase without a path and lists every
smaller scale as ``skipped``, with no phase and no call.  With an
oracle each such scale would have run exactly one phase: a copy of the
stopping one.
:func:`expand_replayed` writes those copies back in, so digests
recorded while every scale still ran can be checked unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchboost.engine import TraceHooks, boost
from matchboost.oracles import CountedOracle, OracleStats


@dataclass
class PhaseRecord:
    h: float
    calls: int
    steps: list[int]
    bundles: int
    paths: int
    held: bool
    settled: bool
    tau_max: int


class PhaseRecorder(TraceHooks):
    """Records each phase's oracle calls from ``stats``, its steps and bundles from its state."""

    def __init__(self, stats: OracleStats):
        self.stats = stats
        self.phases: list[PhaseRecord] = []

    def on_phase_start(self, params, scale, phase):
        self._start = (scale, self.stats.calls)
        self._bundles = 0

    def on_bundle_start(self, state, tau):
        self._bundles += 1

    def on_phase_end(self, state):
        h, calls = self._start
        self.phases.append(
            PhaseRecord(
                h=h,
                calls=self.stats.calls - calls,
                steps=list(state.steps),
                bundles=self._bundles,
                paths=len(state.found_paths),
                held=state.held,
                settled=state.settled,
                tau_max=state.params.tau_max,
            )
        )


def recorded_boost(g, eps, oracle, **kwargs):
    """``boost`` with a :class:`PhaseRecorder` on its hooks; returns both."""
    counted = CountedOracle(oracle)
    rec = PhaseRecorder(counted.stats)
    return boost(g, eps, counted, hooks=rec, **kwargs), rec


def expand_replayed(res, rec: PhaseRecorder) -> tuple[int, list[list], list[int]]:
    """``(oracle_calls, per_scale rows, processing_steps)`` with replays run out.

    Each skipped scale becomes one phase without a path, with the
    stopping phase's calls and processing steps appended in scale order.
    """
    calls, steps, rows = res.oracle_calls, list(res.stats.processing_steps), []
    for sc in res.per_scale:
        if sc.skipped:
            last = rec.phases[-1]
            calls += last.calls
            steps += last.steps
            rows.append([sc.h, 1, 0, last.calls])
        else:
            rows.append([sc.h, sc.phases_run, sc.paths_found, sc.oracle_calls])
    return calls, rows, steps
