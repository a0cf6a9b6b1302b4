"""Expanding what ``boost`` skipped or resumed instead of replaying it.

``boost`` stops after a settled phase without a path and lists every
smaller scale as ``skipped``, with no phase and no call.  With an
oracle each such scale would have run exactly one phase: a copy of the
stopping one.  A phase held without a path is resumed by the next
scale's first phase from the start of its first held bundle; that
phase would have replayed the bundles before it, with their calls and
steps.  :func:`expand_replayed` writes both back in, so digests
recorded while every scale still ran and every phase started afresh
can be checked unchanged.
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
    resumed_steps: int
    paths: int
    held: bool
    settled: bool
    tau_max: int


class PhaseRecorder(TraceHooks):
    """Records each phase's oracle calls from ``stats``, its steps and bundles from its state.

    A resumed phase is recorded whole, as the phase it continues would
    have run afresh: its calls, steps and bundles count those before the
    bundle it resumed at.  ``resumed_steps`` is how many of its steps
    came before that bundle, read at its first bundle start; a phase
    that runs no bundle has only those.
    """

    def __init__(self, stats: OracleStats):
        self.stats = stats
        self.phases: list[PhaseRecord] = []

    def on_phase_start(self, params, scale, phase):
        self._start = (scale, self.stats.calls)
        self._resumed_steps = None

    def on_bundle_start(self, state, tau):
        if self._resumed_steps is None:
            self._resumed_steps = len(state.steps)

    def on_phase_end(self, state):
        h, calls = self._start
        self.phases.append(
            PhaseRecord(
                h=h,
                calls=self.stats.calls - calls + state.resumed_calls,
                steps=list(state.steps),
                bundles=state.bundles,
                resumed_steps=(
                    len(state.steps) if self._resumed_steps is None else self._resumed_steps
                ),
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

    Each scale's resumed calls are added back to it, and each resumed
    phase's steps before the bundle it resumed at go back in before the
    steps ``res`` reports for it.  Each skipped scale becomes one phase
    without a path, with the stopping phase's calls and processing
    steps appended in scale order.
    """
    calls, steps, rows = res.oracle_calls, [], []
    reported, at = res.stats.processing_steps, 0
    for phase in rec.phases:
        own = len(phase.steps) - phase.resumed_steps
        steps += phase.steps[: phase.resumed_steps] + reported[at : at + own]
        at += own
    assert at == len(reported), "reported steps are not the phases' own steps"
    for sc in res.per_scale:
        if sc.skipped:
            last = rec.phases[-1]
            calls += last.calls
            steps += last.steps
            rows.append([sc.h, 1, 0, last.calls])
        else:
            calls += sc.resumed_calls
            rows.append([sc.h, sc.phases_run, sc.paths_found, sc.oracle_calls + sc.resumed_calls])
    return calls, rows, steps
