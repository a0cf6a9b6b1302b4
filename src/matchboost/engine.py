"""The boosting engine: the pass-bundle simulation, its phases and scales.

One *phase* walks pass bundles over the current matching: each bundle
extends structures along matched arcs whose labels still allow it
(stage by stage, lowest working-vertex label first, in
``extend_active_path``), then contracts odd cycles and augments across
structure pairs (``contract_and_augment``), then backtracks every
structure that failed to make progress.  Phases are grouped into
geometric scales; each scale bounds structure sizes through the on-hold
limit.

Both pipelines run these loops and differ only in their *finder*, which
picks one batch of disjoint operations per iteration
(``extension_batch``, ``augment_batch``; possibly empty):
``OracleFinder`` asks a matching oracle on a small auxiliary graph, the
structure-pair graph or one bipartite layer graph per stage, and
``dynamic.SampledFinder`` a weak oracle on a sample.  The finder also
caps the iterations, says how many empty batches in a row end a loop,
may ``sweep`` a stage, and tells ``run_scales`` its ``patience`` and
``calls``.  When a phase is done is the engine's own test (see
``run_phase``): a pass bundle that is a fixpoint, or live structures
no two of which can meet in an augmenting path
(``PhaseState.could_meet``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InternalConsistencyError, PreconditionError
from .graph import (
    Arc,
    AltPath,
    Graph,
    Matching,
    augment_all,
    edge_key,
    free_vertices_with_edge,
)
from .oracles import CountedOracle, OracleStats, counted, require_shape
from .params import Constants, PhaseParams, normalize_epsilon, scale_sequence
from .structures import PhaseState, Structure


class TraceHooks:
    """Callback surface for instrumentation; defaults do nothing."""

    def on_phase_start(self, params: PhaseParams, scale: float, phase: int) -> None: ...

    def on_bundle_start(self, state: PhaseState, tau: int) -> None: ...

    def on_stage_end(self, state: PhaseState, stage: int) -> None: ...

    def on_augment_round_end(self, state: PhaseState) -> None: ...

    def on_after_simulations(self, state: PhaseState, tau: int) -> None: ...

    def on_bundle_end(self, state: PhaseState, tau: int) -> None: ...

    def on_phase_end(self, state: PhaseState) -> None: ...

    def on_oracle_graph(self, aux: Graph) -> None: ...


# -- auxiliary graph construction ----------------------------------------------


def find_type1_arc(state: PhaseState, s: Structure) -> Arc | None:
    """A same-structure outer-outer arc out of the working vertex, if any.

    The smallest one: the arcs come from ``state.boundary_arcs``, since
    an arc inside the working vertex joins no two blossoms.
    """
    if s.working is None:
        return None
    root_of, depth = state.omega.root_of, s.view.depth
    mate, structure_of = state.mate, state.structure_of
    for x, ys in state.boundary_arcs(s.working):
        for y in ys:
            # a removed vertex is in no structure
            if mate[x] == y or structure_of.get(y) != s.owner:
                continue
            # y is in s outside the working vertex, so its blossom is
            # another node of the tree
            if depth[root_of[y]] % 2 == 0:
                return Arc(x, y)
    return None


def build_h_prime(state: PhaseState):
    """Structure-pair graph: one edge per pair joined by an outer-outer arc.

    Returns a dict that maps each joined ``(owner_a, owner_b)`` (a < b)
    to its lexicographically smallest witness arc, which runs from
    ``owner_a``'s structure to ``owner_b``'s.  Only the arcs out of
    ``state.fresh`` are scanned, since every type-2 arc has an endpoint
    there.  Fresh vertices that are no longer outer in a live structure
    leave it, and it is cleared when no pair is found.
    """
    root_of = state.omega.root_of
    structures, structure_of = state.structures, state.structure_of

    def outer_owner(x: int) -> int | None:
        o = structure_of.get(x)
        if o is None or structures[o].view.depth[root_of[x]] % 2:
            return None
        return o

    fresh = state.fresh
    stale = []
    pairs: dict[tuple[int, int], Arc] = {}
    for x in fresh:
        a = outer_owner(x)
        if a is None:
            stale.append(x)
            continue
        for y in state.adj_sorted[x]:
            b = outer_owner(y)
            # Live structures hold no removed vertex, and outer vertices of
            # two structures are never matched to each other.
            if b is None or b == a:
                continue
            key, arc = ((a, b), Arc(x, y)) if a < b else ((b, a), Arc(y, x))
            cur = pairs.get(key)
            if cur is None or arc < cur:
                pairs[key] = arc
    if pairs:
        fresh.difference_update(stale)
    else:
        fresh.clear()
    return pairs


def _head_eligible(state: PhaseState, y: int, stage: int) -> bool:
    """Head test: inner or unvisited-and-matched, with label headroom."""
    o = state.structure_of.get(y)
    if o is not None:
        # y is in o's structure, so its blossom is a node of the tree;
        # an inner node is a matched vertex
        if state.structures[o].view.depth[state.omega.root_of[y]] % 2 == 0:
            return False
    elif state.removed[y]:
        return False
    t = state.mate[y]
    return t is not None and state.label((y, t)) > stage + 1


def build_h_prime_s(state: PhaseState, stage: int) -> dict[tuple[int, int], Arc]:
    """Bipartite layer graph for one stage, as one witness arc per edge.

    Left: working vertices with entry label ``stage`` of structures that
    are neither on hold nor already extended, read from
    ``state.ready_at(stage)``.  Right: inner or unvisited matched
    vertices whose downward label exceeds ``stage + 1`` and that have at
    least one candidate arc from the left.  Returns ``pairs``, which maps
    each (owner, head) edge to its smallest candidate arc.  Heads are
    found among the arcs that leave each working vertex, read from
    ``state.boundary_arcs`` (an arc inside it never reaches a head),
    and each head is tested once per call.
    """
    left = state.ready_at(stage)
    mate = state.mate
    head_ok: dict[int, bool] = {}
    pairs: dict[tuple[int, int], Arc] = {}
    for s in left:
        owner = s.owner
        for x, ys in state.boundary_arcs(s.working):
            for y in ys:
                if mate[x] == y:
                    continue
                ok = head_ok.get(y)
                if ok is None:
                    ok = head_ok[y] = _head_eligible(state, y, stage)
                if not ok:
                    continue
                key = (owner, y)
                # x ascends, so an owner's first arc to a head is its smallest
                if key not in pairs:
                    pairs[key] = Arc(x, y)
    return pairs


def _aux_graph_pairs(pairs) -> tuple[Graph, list[int]]:
    """The pair graph on the owners that carry an edge, numbered in ascending order."""
    owners = sorted({o for key in pairs for o in key})
    idx = {o: i for i, o in enumerate(owners)}
    return Graph(len(owners), [(idx[a], idx[b]) for a, b in sorted(pairs)]), owners


def _aux_graph_bipartite(pairs) -> tuple[Graph, list[tuple[str, int]]]:
    """The layer graph on the owners and heads that carry an edge.

    Left owners come first, then right heads, each ascending, so the
    numbering keeps the order of a graph that also held isolated
    vertices and a built-in oracle returns the image of its answer there.
    """
    nodes = [("L", o) for o in sorted({o for o, _ in pairs})]
    nodes += [("R", y) for y in sorted({y for _, y in pairs})]
    idx = {node: i for i, node in enumerate(nodes)}
    edges = [(idx[("L", o)], idx[("R", y)]) for o, y in sorted(pairs)]
    return Graph(len(nodes), edges), nodes


# -- simulations ----------------------------------------------------------------


def exhaust_type1(state: PhaseState) -> bool:
    """Contract until no structure has an outer-outer arc at its working vertex.

    Only the dirty structures can hold such an arc, so only they are
    visited, in ascending owner order; a contraction changes no other
    structure.  Leaves ``state.dirty`` empty.
    """
    changed = False
    for owner in sorted(state.dirty):
        s = state.structures[owner]
        contracted = False
        while True:
            arc = find_type1_arc(state, s)
            if arc is None:
                break
            state.op_contract(arc)
            changed = contracted = True
        if contracted:
            state.note_step(len(s.vertices))
    state.dirty.clear()
    return changed


def apply_augments(state: PhaseState, arcs) -> None:
    """Augment along a non-empty batch of arcs, in order, as one step.

    Every arc must join outer vertices of two distinct structures;
    anything else is a broken promise of the finder and raises.
    """
    step_size = 1
    for arc in arcs:
        sa, sb = state.structure_at(arc.tail), state.structure_at(arc.head)
        try:
            state.op_augment(arc)
        except PreconditionError as exc:
            raise InternalConsistencyError(f"augment batch: {exc}") from None
        step_size = max(step_size, len(sa.vertices), len(sb.vertices))
    state.note_step(step_size)


def apply_overtakes(state: PhaseState, stage: int, batch) -> None:
    """Overtake along a non-empty batch of ``(owner, x, y)`` extensions, in order.

    Each extension is re-validated first.  One can stop being feasible
    mid-batch for one harmless reason: an earlier overtake of the same
    batch consumed the head's matched edge (both copies of one matched
    edge were handed out), and it is skipped.  Anything else failing
    validation is a broken invariant and raises.  The first extension
    always applies, so the batch is one step.
    """
    taken: set[tuple[int, int]] = set()
    step_size = 1
    for owner, x, y in batch:
        mate_y = state.mate[y]
        if not _extension_feasible(state, owner, x, y, stage):
            if mate_y is not None and edge_key(y, mate_y) in taken:
                continue
            raise InternalConsistencyError(
                f"stage {stage}: extension ({owner}, {x}, {y}) is not feasible"
            )
        state.op_overtake(Arc(x, y), Arc(y, mate_y), stage + 1)
        taken.add(edge_key(y, mate_y))
        step_size = max(step_size, len(state.structures[owner].vertices))
    state.note_step(step_size)


def _extension_feasible(state: PhaseState, owner: int, x: int, y: int, stage: int) -> bool:
    """Can ``owner``'s structure, ready at ``stage``, overtake along ``(x, y)``?"""
    s = state.structures.get(owner)
    if s is None or s.ready_label != stage or state.omega.root_of[x] != s.working:
        return False
    return _head_eligible(state, y, stage)


def extend_active_path(state: PhaseState, finder, hooks: TraceHooks | None = None) -> bool:
    """Stage-by-stage extension, then a contract-and-augment round.

    Stage ``s`` lets every structure whose working vertex sits at entry
    label ``s`` overtake one matched arc with label above ``s + 1``.
    While the stage's layer graph has an edge, the finder picks a batch
    of disjoint extensions, applied in order, for at most the finder's
    extension iterations; ``finder.fruitless_limit`` empty batches in a
    row end the stage.  ``finder.sweep`` runs at the stage's start and
    after every batch.  A stage that ends any other way than on an empty
    layer graph, at the iteration cap (0 included) or at the fruitless
    limit, may leave an extension behind and sets ``state.gave_up``.

    A stage with no ready structure has no left side, so its sweep,
    layer graph and batch would all be empty.  The loop visits only the
    others: after each stage it steps to the smallest label above it, up
    to ``ell_max``, that has a ready structure, and
    ``hooks.on_stage_end`` fires for the stages visited.  A structure
    that an operation makes ready below the current stage waits for the
    next bundle.
    """
    changed = False
    iterations = finder.iterations(state.params)[0]
    stage = _next_ready_stage(state, -1)
    while stage is not None:
        changed |= finder.sweep(state, stage)
        fruitless = 0
        for _ in range(iterations):
            pairs = build_h_prime_s(state, stage)
            if not pairs:
                break
            if fruitless >= finder.fruitless_limit:
                state.gave_up = True
                break
            batch = finder.extension_batch(state, stage, pairs, hooks)
            if batch:
                apply_overtakes(state, stage, batch)
                changed = True
                fruitless = 0
            else:
                fruitless += 1
            changed |= finder.sweep(state, stage)
        else:
            state.gave_up = True
        if hooks:
            hooks.on_stage_end(state, stage)
        stage = _next_ready_stage(state, stage)
    changed |= contract_and_augment(state, finder, hooks)
    return changed


def _next_ready_stage(state: PhaseState, stage: int) -> int | None:
    """The smallest label in ``stage + 1 .. ell_max`` with a ready structure, if any."""
    ell_max = state.params.ell_max
    return min(
        (k for k, owners in state.ready.items() if owners and stage < k <= ell_max),
        default=None,
    )


def contract_and_augment(state: PhaseState, finder, hooks: TraceHooks | None = None) -> bool:
    """Exhaust contractions, then augment along the finder's batches.

    Runs while the structure-pair graph has an edge, for at most the
    finder's augment iterations, until ``finder.fruitless_limit`` empty
    batches in a row.  ``state.pairs_left`` records whether its last
    build still had an edge, which ``run_phase``'s fixpoint test reads;
    with no iteration there is no build, and no bundle acts on a pair.
    As in ``extend_active_path``, a loop that ends any other way than on
    an empty graph sets ``state.gave_up``.
    """
    changed = exhaust_type1(state)
    fruitless = 0
    pairs = {}
    for _ in range(finder.iterations(state.params)[1]):
        pairs = build_h_prime(state)
        if not pairs:
            break
        if fruitless >= finder.fruitless_limit:
            state.gave_up = True
            break
        arcs = finder.augment_batch(state, pairs, hooks)
        if arcs:
            apply_augments(state, arcs)
            changed = True
            fruitless = 0
        else:
            fruitless += 1
    else:
        state.gave_up = True
    state.pairs_left = bool(pairs)
    if hooks:
        hooks.on_augment_round_end(state)
    return changed


def backtrack_pass(state: PhaseState) -> bool:
    sizes = [
        len(s.vertices)
        for s in state.live_structures()
        if not (s.on_hold or s.modified or s.working is None)
    ]
    moved = state.backtrack_stuck()
    if moved:
        state.note_step(max(sizes, default=1))
    return moved


# -- phase and scale drivers ------------------------------------------------------


class OracleFinder:
    """Finds batches of disjoint operations with a matching oracle.

    The oracle sees only the auxiliary graphs, and a batch is never
    empty: ``CountedOracle`` rejects an empty answer on a graph with an
    edge.  A deterministic oracle on unchanged input repeats a phase
    verbatim, so a scale stops after its first phase without a path, and
    the finder ``replays``.  For the same reason the scales skipped after
    a settled phase without a path would only have replayed that phase,
    and a phase held without a path is resumed at the next scale from the
    start of its first held bundle instead of replayed up to it (see
    ``run_scales``).
    """

    patience = 1
    fruitless_limit = 1
    replays = True

    def __init__(self, oracle: CountedOracle):
        self.oracle = oracle

    @property
    def calls(self) -> int:
        """Oracle calls made so far."""
        return self.oracle.stats.calls

    def iterations(self, params: PhaseParams) -> tuple[int, int]:
        """The iteration caps of an extension stage and of an augment round."""
        k = params.sim_iterations(self.oracle.c)
        return k, k

    def sweep(self, state: PhaseState, stage: int) -> bool:
        return False

    def extension_batch(self, state: PhaseState, stage: int, pairs, hooks=None):
        """``(owner, x, y)`` extensions of an oracle matching of the layer graph.

        A witness's tail lies in its owner's working vertex, so ``(x, y)``
        orders the batch as the witness arcs do.
        """
        aux, nodes = _aux_graph_bipartite(pairs)
        if hooks:
            hooks.on_oracle_graph(aux)
        batch = []
        for a, b in self.oracle.find(aux).edges:
            na, nb = nodes[a], nodes[b]
            owner, y = (na[1], nb[1]) if na[0] == "L" else (nb[1], na[1])
            batch.append((owner, pairs[(owner, y)].tail, y))
        return sorted(batch, key=lambda e: e[1:])

    def augment_batch(self, state: PhaseState, pairs, hooks=None) -> list[Arc]:
        """Witness arcs of an oracle matching of the structure-pair graph, by pair."""
        aux, owners = _aux_graph_pairs(pairs)
        if hooks:
            hooks.on_oracle_graph(aux)
        keys = sorted(
            (owners[min(a, b)], owners[max(a, b)]) for a, b in self.oracle.find(aux).edges
        )
        return [pairs[key] for key in keys]


def run_phase(
    state: PhaseState, finder, hooks: TraceHooks | None = None
) -> tuple[list[AltPath], PhaseState]:
    """One phase from ``state``: vertex-disjoint augmenting paths for ``state.m``, and ``state``.

    ``state`` is a new ``PhaseState(g, m, params)``, or a held start
    that a later phase resumes (see below).  ``finder`` supplies the
    batches of each pass bundle (an ``OracleFinder`` or
    ``dynamic.SampledFinder``).  ``g`` and ``m`` are left untouched:
    what the phase changes, its removal flags and its processing steps
    among it, is in ``state``.

    A pass bundle is a fixpoint, and the bundle loop stops there with
    the outcome of all ``tau_max`` bundles, when it changed nothing,
    backtracking moved nothing, and its last contract-and-augment loop
    did not stop with the structure-pair graph still holding an edge
    (``state.pairs_left``).  No operation is then left: a structure
    neither modified (a change) nor on hold is backtracked, so every
    structure with a working vertex is on hold and has no type-3 arc;
    ``exhaust_type1`` emptied ``state.dirty``, which only an operation
    or a move refills; and nothing changed since the last, empty,
    pair-graph build.  An oracle batch on a graph with an edge is never
    empty, so with an oracle no pair is left once nothing changed.

    The bundle loop also stops, before its next bundle, once no two
    live structures can meet in an augmenting path
    (``state.could_meet``): no two owners share a component with an odd
    cycle, and no bipartite component has an owner on each side.  An
    augmenting path joins two free vertices that have an edge, in one
    component, and in a bipartite component it has odd length, so its
    ends lie on opposite sides (Berge, PNAS 1957).  Every path the phase
    finds augments ``m`` in ``g`` and ends in two live owners, and the
    phase began with one structure for each free vertex that has an
    edge; only ``op_augment`` drops a structure, and nothing in a phase
    makes one.  So no further path can be found, and what the live
    structures could still do changes no output.  A phase that stops
    there with paths keeps them.  One that stops there without a path
    never augmented, so no two free vertices of ``m`` can meet in an
    augmenting path, and ``m`` is maximum.  It stops before its first
    bundle: a held start is copied only after this test passed, with
    no augmentation since.

    ``state.settled`` records a stop at the fixpoint or on live
    structures that cannot meet, with no structure put on hold in any
    bundle and no simulation loop that gave up with work possibly left
    (``state.gave_up``): such a phase looked at all its work, or had
    none that could lead to a path, and ``run_scales`` ends the run on
    it when it found no path.

    With a finder that ``replays``, a phase that has found no path yet
    keeps a copy of its state in ``state.held_start`` when it is about
    to put its first structure on hold: at the start of that bundle,
    before the marks are set.  The copy's ``resumed_calls`` are the
    calls its phase made before that bundle, its own resumed ones
    included.  A later phase on the same ``g`` and ``m`` may pass that
    copy here, with its own ``params`` set on it, and goes on from that
    bundle; hooks see no event of the bundles before it.
    """
    replays = finder.replays
    calls_at_entry = finder.calls if replays else 0
    while state.bundles < state.params.tau_max:
        if not state.could_meet():
            state.settled = not state.held and not state.gave_up
            break
        if (
            replays
            and not (state.held or state.found_paths)
            and any(map(state.holds, state.structures.values()))
        ):
            state.held_start = state.copy()
            state.held_start.resumed_calls += finder.calls - calls_at_entry
        state.bundles += 1
        tau = state.bundles
        state.mark_for_pass_bundle()
        if hooks:
            hooks.on_bundle_start(state, tau)
        changed = extend_active_path(state, finder, hooks)
        # The extension round ends with a contract-and-augment of its own,
        # so this one does work only when that one stopped at its iteration
        # cap or at sample patience.  Over the benchmark's three workloads
        # at seed 1 and the tests' golden corpora, its 15,273 calls with an
        # oracle and 19,357 sampled ones asked no oracle, drew no random
        # number and changed nothing; a test in test_dynamic.py has it
        # find a path.
        changed |= contract_and_augment(state, finder, hooks)
        if hooks:
            hooks.on_after_simulations(state, tau)
        moved = backtrack_pass(state)
        if hooks:
            hooks.on_bundle_end(state, tau)
        if not changed and not moved and not state.pairs_left:
            state.settled = not state.held and not state.gave_up
            break
    if hooks:
        hooks.on_phase_end(state)
    return state.found_paths, state


def initial_matching(g: Graph, oracle: CountedOracle) -> Matching:
    """Seed matching: 2c rounds of the oracle on the unmatched-induced subgraph.

    Always performs exactly ``2c`` oracle calls (even when the
    unmatched vertices span no edge); the result is at least a quarter
    of the maximum matching.  Each subgraph holds only the free vertices
    that have an edge: any other would be isolated in it, and
    ``Graph.induced`` numbers the vertices in ascending order, so the
    oracle sees the same edges in the same order either way, and costs
    what the edged part of the graph costs.
    """
    m = Matching(g.n)
    for _ in range(2 * math.ceil(oracle.c)):
        sub, back = g.induced(free_vertices_with_edge(g, m))
        found = oracle.find(sub)
        for a, b in sorted(found.edges):
            m.add(back[a], back[b])
    return m


@dataclass
class ScaleStats:
    """One scale of ``run_scales``.

    ``oracle_calls`` counts the calls made at this scale, and
    ``resumed_calls`` those that a resumed phase did not repeat.
    """

    h: float
    phases_run: int = 0
    paths_found: int = 0
    oracle_calls: int = 0
    skipped: bool = False
    resumed_calls: int = 0


def run_scales(
    g: Graph,
    m: Matching,
    eps: float,
    consts: Constants,
    finder,
    stats: OracleStats,
    hooks: TraceHooks | None = None,
) -> tuple[Matching, list[ScaleStats]]:
    """Every scale from 1/2 down to the epsilon-dependent floor, from ``m``.

    Each scale runs phases until ``finder.patience`` phases in a row
    find no augmenting path.  ``oracle_calls`` counts ``finder.calls``.
    Each phase's steps go to ``stats.processing_steps`` after it.

    The run ends after the first *settled* phase that finds no path,
    whatever the finder (see ``run_phase``).  Such a phase is a
    certificate that ``m`` has no augmenting path of at most ``ell_max``
    arcs (the phase analysis of Fischer, Mitrović and Uitto, STOC 2022):
    every backtrack in it moved a working vertex that had no operation
    left, since no loop gave up with work possibly left; nothing was
    held, so no structure stopped short of the depth cap; and no vertex
    was removed, since no path was found.  By Hopcroft and Karp (1973),
    ``|m| >= k / (k + 1) * mu`` with ``k = (ell_max + 1) // 2``, and
    ``ell_max = ceil(ell_coeff / eps)`` makes that at least
    ``mu / (1 + eps)`` for any ``ell_coeff >= 2`` (3 by default).  A phase
    settled on live structures that cannot meet certifies more: no two
    free vertices of ``m`` lie in one component with an odd cycle or on
    the two sides of a bipartite one, while an augmenting path needs
    such a pair (Berge, 1957), so ``m`` is maximum and every later phase
    would stop the same way at once.  A phase that finds paths and then
    stops on such structures leaves the next phase the same free
    vertices with an edge, its live owners, so that phase settles at
    once and ends the run.  With an
    ``OracleFinder`` the skipped scales also give up nothing: each
    smaller scale's first phase would replay the stopping one, since
    the matching is unchanged, ``ell_max`` and the simulation
    iterations do not depend on the scale, ``limit_h`` and ``tau_max``
    only grow as it shrinks, and ``delta_h`` is read only by the
    checks.  Each scale left out is recorded as ``skipped``, with no
    phase, path or call; hooks see no phase of it.

    The same argument resumes a phase that finds no path but is not
    settled because it put a structure on hold.  Up to the first bundle
    that held a structure, the next scale's first phase would replay it:
    at every mark before that bundle each structure had fewer than the
    old ``limit_h`` vertices, so fewer than the new one too, and the
    bundles ran exactly alike.  With a finder that ``replays``, that
    phase therefore starts from the copy the held phase kept at the start
    of that bundle (``PhaseState.held_start``), with the new scale's
    params, and continues from that bundle.  Its steps before the bundle
    are not added again, and its scale records the calls it did not
    repeat as ``resumed_calls``; hooks see no event of those bundles.
    Skipping the scales after a settled phase is the case of a phase
    never held, which the next scale would replay whole.
    ``dynamic.SampledFinder`` does not replay, since its random stream
    advances, and never resumes.  The finished phase's state is dropped
    before the next phase runs; only its held start lives on.

    Returns the final matching and one record per scale.
    """
    per_scale = []
    settled = False
    resume = None
    for h in scale_sequence(eps, consts):
        if settled:
            per_scale.append(ScaleStats(h, skipped=True))
            continue
        params = PhaseParams.for_scale(eps, h, consts)
        sc = ScaleStats(h=h)
        calls_before = finder.calls
        empty_streak = 0
        for phase in range(1, params.phases + 1):
            if hooks:
                hooks.on_phase_start(params, h, phase)
            if resume is None:
                state = PhaseState(g, m, params)
            else:
                state = resume
                state.params = params
                sc.resumed_calls += state.resumed_calls
            steps_before = len(state.steps)
            paths, state = run_phase(state, finder, hooks)
            stats.processing_steps += state.steps[steps_before:]
            if paths:
                m = augment_all(m, paths)
            sc.phases_run += 1
            sc.paths_found += len(paths)
            empty_streak = 0 if paths else empty_streak + 1
            settled = state.settled and not paths
            resume = None if paths or settled else state.held_start
            del state
            if settled or empty_streak >= finder.patience:
                break
        sc.oracle_calls = finder.calls - calls_before
        per_scale.append(sc)
    return m, per_scale


@dataclass
class BoostResult:
    matching: Matching
    epsilon: float
    stats: OracleStats
    per_scale: list[ScaleStats] = field(default_factory=list)

    @property
    def oracle_calls(self) -> int:
        return self.stats.calls


def boost(
    g: Graph,
    epsilon: float,
    oracle,
    constants: Constants | None = None,
    hooks: TraceHooks | None = None,
) -> BoostResult:
    """Boost the oracle's approximation to ``1 + epsilon`` on ``g``.

    Runs the seed matching, then the scales from 1/2 down to the
    epsilon-dependent floor; each scale runs phases until one finds no
    augmenting path.  Once such a phase is settled, the smaller scales
    would only replay it, so they are skipped and listed in
    ``per_scale`` as ``skipped``.  A phase held without a path is resumed
    by the next scale's first phase from the start of its first held
    bundle, and the calls that saved are listed as ``resumed_calls``
    (see ``run_scales``).
    """
    eps = normalize_epsilon(epsilon)
    require_shape(oracle, "matching", "boost's oracle")
    oracle = counted(oracle)
    m = initial_matching(g, oracle)
    m, per_scale = run_scales(
        g, m, eps, constants or Constants(), OracleFinder(oracle), oracle.stats, hooks
    )
    return BoostResult(m, eps, oracle.stats, per_scale)
