"""Runtime consistency checks and trace instrumentation.

These checkers verify the structural promises the engine relies on:
laminar blossoms, disjoint alternating trees with trivial single-child
inner vertices, bounded structure sizes, monotone matched-arc labels,
and the two coverage guarantees (every outer-outer arc at a bundle
boundary is accounted for; no short augmenting path escapes unnoticed).
They are wired into a run through :class:`InvariantHooks`, which also
keeps the contamination ledger the two coverage checks read: the
undirected edges a simulation round left as candidates without acting
on them.
"""

from __future__ import annotations

from .blossoms import TreeView, check_laminarity, validate_blossom
from .engine import TraceHooks, build_h_prime_s
from .errors import InternalConsistencyError
from .graph import Graph, edge_key
from .params import PhaseParams
from .structures import PhaseState, Structure


def active_arc_pairs(state: PhaseState) -> set[tuple[int, int]]:
    """Blossom-id pairs realized by arcs on some active path, both directions."""
    pairs: set[tuple[int, int]] = set()
    for s in state.live_structures():
        if s.working is None:
            continue
        view = s.view
        for bid in view.path_to_root(s.working):
            arc = view.parent_arc.get(bid)
            if arc is None:
                continue
            a, b = state.omega.root(arc.tail), state.omega.root(arc.head)
            pairs.add((a, b))
            pairs.add((b, a))
    return pairs


def critical_free_vertices(state: PhaseState) -> set[int]:
    return {s.owner for s in state.live_structures() if s.working is not None}


def _build_view(state: PhaseState, s: Structure) -> TreeView:
    """The reference rebuild of ``s``'s tree from its arcs and the blossoms.

    Every arc of ``s`` between two root blossoms is the parent arc of
    its head's blossom; arcs inside one blossom are skipped.  Raises
    ``InternalConsistencyError`` when a blossom has two parent arcs or
    the tree does not span the blossoms of ``s``'s vertices.
    """
    omega = state.omega
    root = omega.root(s.owner)
    view = TreeView(root=root)
    nodes = {omega.root(v) for v in s.vertices}
    for arc in s.arcs:
        bu, bv = omega.root(arc.tail), omega.root(arc.head)
        if bu == bv:
            continue
        if bv in view.parent_arc:
            raise InternalConsistencyError(
                f"structure {s.owner}: blossom {bv} has two parent arcs"
            )
        view.parent[bv] = bu
        view.parent_arc[bv] = arc
        view.children.setdefault(bu, []).append(bv)
    view.depth[root] = 0
    stack = [root]
    while stack:
        cur = stack.pop()
        for ch in view.children.get(cur, []):
            view.depth[ch] = view.depth[cur] + 1
            stack.append(ch)
    if set(view.depth) != nodes:
        raise InternalConsistencyError(
            f"structure {s.owner}: tree does not span its blossoms"
        )
    return view


def view_mismatches(state: PhaseState, s: Structure) -> list[str]:
    """The fields in which ``s``'s kept tree differs from ``_build_view``.

    Children lists are compared as sets, since their order carries no
    meaning.  Raises as ``_build_view`` does.
    """
    kept, ref = s.view, _build_view(state, s)
    out = [
        name
        for name in ("root", "parent", "parent_arc", "depth")
        if getattr(kept, name) != getattr(ref, name)
    ]
    if _child_sets(kept) != _child_sets(ref):
        out.append("children")
    return out


def _child_sets(view: TreeView) -> dict[int, set[int]]:
    return {b: set(kids) for b, kids in view.children.items() if kids}


def _check_one_structure(state: PhaseState, s: Structure, problems: list[str]) -> None:
    tag = f"structure {s.owner}"
    if state.mate[s.owner] is not None:
        problems.append(f"{tag}: owner is matched")
    if state.removed[s.owner]:
        problems.append(f"{tag}: owner is removed")
    if s.owner not in s.vertices:
        problems.append(f"{tag}: owner not among its vertices")
    for v in s.vertices:
        if state.structure_of.get(v) != s.owner:
            problems.append(f"{tag}: vertex {v} not registered to it")
        if state.removed[v]:
            problems.append(f"{tag}: contains removed vertex {v}")
        w = state.mate[v]
        if w is not None and w not in s.vertices:
            problems.append(f"{tag}: matched pair ({v}, {w}) split across structures")
    for arc in s.arcs:
        if arc.tail not in s.vertices or arc.head not in s.vertices:
            problems.append(f"{tag}: arc {tuple(arc)} leaves the structure")
    try:
        wrong = view_mismatches(state, s)
    except InternalConsistencyError as exc:
        problems.append(f"{tag}: tree does not build: {exc}")
        return
    if wrong:
        problems.append(f"{tag}: kept tree differs from its rebuild in {', '.join(wrong)}")
        return
    view = s.view
    if s.working is not None:
        if not view.contains(s.working):
            problems.append(f"{tag}: working vertex {s.working} not in tree")
        elif not view.is_outer(s.working):
            problems.append(f"{tag}: working vertex {s.working} is inner")
    for bid, d in view.depth.items():
        if d % 2 == 1:
            if not state.omega.is_trivial(bid):
                problems.append(f"{tag}: inner vertex {bid} is a nontrivial blossom")
            if len(view.children.get(bid, [])) != 1:
                problems.append(f"{tag}: inner vertex {bid} lacks a single child")
    if s.working is not None and view.contains(s.working):
        labels = []
        for bid in reversed(view.path_to_root(s.working)):
            labels.append(state.entry_label(s, bid) if view.is_outer(bid) else None)
        outer_labels = [x for x in labels if x is not None]
        if outer_labels and outer_labels[0] != 0:
            problems.append(f"{tag}: active path does not start at label 0")
        for a, b in zip(outer_labels, outer_labels[1:]):
            if b < a:
                problems.append(f"{tag}: active path labels decrease ({a} -> {b})")
        if outer_labels and outer_labels[-1] > state.params.ell_max + 1:
            problems.append(f"{tag}: working vertex label out of range")


def check_state(
    state: PhaseState, at_bundle_start: bool = False, context: str = ""
) -> list[str]:
    """All structural invariants; returns human-readable problems."""
    problems: list[str] = []
    try:
        check_laminarity(state.omega)
    except Exception as exc:
        problems.append(f"laminarity: {exc}")
    for bid in state.omega.blossoms:
        try:
            validate_blossom(state.omega, bid, state.mate)
        except Exception as exc:
            problems.append(f"blossom {bid}: {exc}")
    seen: dict[int, int] = {}
    for s in state.live_structures():
        for v in s.vertices:
            if v in seen:
                problems.append(f"vertex {v} in structures {seen[v]} and {s.owner}")
            seen[v] = s.owner
        if len(s.vertices) > state.params.delta_h:
            problems.append(
                f"structure {s.owner} has {len(s.vertices)} vertices, "
                f"cap is {state.params.delta_h}"
            )
        if at_bundle_start:
            if s.on_hold != state.holds(s):
                problems.append(f"structure {s.owner}: stale hold mark")
            if s.modified or s.extended:
                problems.append(f"structure {s.owner}: stale progress mark")
        _check_one_structure(state, s, problems)
    for v, owner in state.structure_of.items():
        if owner not in state.structures or v not in state.structures[owner].vertices:
            problems.append(f"vertex {v} registered to missing structure {owner}")
    for arc, lab in state.labels.items():
        if not 0 <= lab <= state.params.ell_max + 1:
            problems.append(f"label of {arc} out of range: {lab}")
    # Only overtakes and contractions store a label, and both put the
    # vertex into a structure, which it leaves only by being removed.
    top = state.params.ell_max + 1
    for u, v in sorted(state.m.edges):
        if state.removed[u] or u in state.structure_of or v in state.structure_of:
            continue
        if (u, v) in state.labels or (v, u) in state.labels:
            problems.append(
                f"unvisited matched edge ({u}, {v}) has labels "
                f"{state.label((u, v))}/{state.label((v, u))}, not {top}"
            )
    if context:
        problems = [f"{context}: {p}" for p in problems]
    return problems


def check_outer_outer_covered(state: PhaseState, ledger, context: str = "") -> list[str]:
    """No arc joins two outer vertices of distinct blossoms, unless in ``ledger``.

    Holds at the start of every pass bundle after the first.
    """
    problems = []
    for u, v in sorted(state.g.edges):
        if state.removed[u] or state.removed[v]:
            continue
        bu, bv = state.omega.root(u), state.omega.root(v)
        if bu == bv:
            continue
        su, sv = state.structure_at(u), state.structure_at(v)
        if su is None or sv is None:
            continue
        if su.view.is_outer(bu) and sv.view.is_outer(bv):
            if edge_key(u, v) not in ledger:
                problems.append(
                    f"{context}: outer-outer edge ({u}, {v}) is not in the ledger"
                )
    return problems


def check_no_actionable_arcs(state: PhaseState, ledger, context: str = "") -> list[str]:
    """After a full simulation round, every actionable arc is in ``ledger``.

    Type-3 arcs of structures that extended this bundle are exempt: an
    extended structure sits out the rest of the bundle by design.
    """
    problems = []
    for u, v in sorted(state.g.edges):
        if edge_key(u, v) in ledger:
            continue
        for a, b in ((u, v), (v, u)):
            kind = state.classify(a, b)
            if kind is None:
                continue
            if kind == 3:
                s = state.structure_at(a)
                if s is not None and s.extended:
                    continue
            problems.append(f"{context}: leftover type {kind} arc ({a}, {b})")
    return problems


# -- short augmenting path audit ---------------------------------------------------


def enumerate_short_augmenting_paths(g: Graph, mate, max_arcs: int, removed=None):
    """Yield augmenting paths with at most ``max_arcs`` arcs, each once.

    Paths are vertex sequences, each undirected one in one orientation
    (smaller endpoint first); vertices flagged in ``removed`` (default
    none) are skipped.  For small graphs: a pruned alternating DFS.
    """
    removed = removed or [False] * g.n
    free = [v for v in range(g.n) if not removed[v] and mate[v] is None]
    for alpha in free:
        stack = [(alpha, [alpha], frozenset([alpha]))]
        while stack:
            v, path, used = stack.pop()
            arcs_so_far = len(path) - 1
            want_matched = arcs_so_far % 2 == 1
            for y in sorted(g.adj[v], reverse=True):
                if removed[y] or y in used:
                    continue
                if want_matched != (mate[v] == y):
                    continue
                if not want_matched and mate[y] is None:
                    if y > alpha:
                        yield path + [y]
                    continue
                if arcs_so_far + 1 < max_arcs:
                    stack.append((y, path + [y], used | {y}))


def check_short_paths_covered(state: PhaseState, ledger, context: str = "") -> list[str]:
    """Every short augmenting path is pinned by the current search state.

    A path escapes only if neither endpoint's structure is active, no
    arc of it lies on an active path, and no arc of it is in
    ``ledger``.  Quadratic-ish in the path count, so keep the graphs
    small.
    """
    act_pairs = active_arc_pairs(state)
    act_free = critical_free_vertices(state)
    problems = []
    for path in enumerate_short_augmenting_paths(
        state.g, state.mate, state.params.ell_max, state.removed
    ):
        if path[0] in act_free and path[-1] in act_free:
            continue
        covered = False
        for x, y in zip(path, path[1:]):
            bx, by = state.omega.root(x), state.omega.root(y)
            if bx != by and (bx, by) in act_pairs:
                covered = True
                break
            if edge_key(x, y) in ledger:
                covered = True
                break
        if not covered:
            problems.append(
                f"{context}: augmenting path {path} escapes the search state"
            )
    return problems


# -- hook wiring -----------------------------------------------------------------


class InvariantHooks(TraceHooks):
    """Raises on the first violated invariant; counts what it checked.

    Keeps the contamination ledger of the phase whose state it last saw:
    the candidate arcs each extension stage leaves, and every type-2
    edge after each contract-and-augment round.  A new ``PhaseState``
    starts an empty ledger, unless it is the held start of the last
    phase (``engine.run_phase``): then it starts from a copy of the
    ledger as it stood when that copy was made.
    ``audit_paths`` additionally runs the short-path coverage audit at
    every bundle boundary, which is only affordable on small graphs.
    """

    def __init__(self, g: Graph, epsilon: float, audit_paths: bool = False):
        self.g = g
        self.epsilon = epsilon
        self.audit_paths = audit_paths
        self.scale = 0.0
        self.phase = 0
        self.bundles_checked = 0
        self.paths_audited = 0
        self._label_snapshot: dict[tuple[int, int], int] | None = None
        self.ledger: set[tuple[int, int]] = set()
        self._ledger_state: PhaseState | None = None
        self._held_start: PhaseState | None = None
        self._held_ledger: set[tuple[int, int]] = set()

    def _ctx(self, tau: int | None = None) -> str:
        where = f"scale {self.scale:g} phase {self.phase}"
        return where if tau is None else f"{where} bundle {tau}"

    def _fail_on(self, problems: list[str]) -> None:
        if problems:
            raise InternalConsistencyError("; ".join(problems[:8]))

    def _check_labels_monotone(self, state: PhaseState, ctx: str) -> None:
        if self._label_snapshot is not None:
            for arc, old in self._label_snapshot.items():
                new = state.labels.get(arc, old)
                if new > old:
                    raise InternalConsistencyError(
                        f"{ctx}: label of {arc} rose from {old} to {new}"
                    )
        self._label_snapshot = dict(state.labels)

    def ledger_of(self, state: PhaseState) -> set[tuple[int, int]]:
        """The ledger of ``state``'s phase, reset when the state is new."""
        if self._ledger_state is not state:
            self._ledger_state = state
            self.ledger = set(self._held_ledger) if state is self._held_start else set()
        return self.ledger

    def on_phase_start(self, params: PhaseParams, scale: float, phase: int) -> None:
        self.scale = scale
        self.phase = phase
        self._label_snapshot = None

    def on_bundle_start(self, state: PhaseState, tau: int) -> None:
        ctx = self._ctx(tau)
        ledger = self.ledger_of(state)
        if state.held_start is not None and state.held_start is not self._held_start:
            self._held_start, self._held_ledger = state.held_start, set(ledger)
        problems = check_state(state, at_bundle_start=True, context=ctx)
        if tau >= 2:
            problems += check_outer_outer_covered(state, ledger, ctx)
        self._fail_on(problems)
        self._check_labels_monotone(state, ctx)
        if self.audit_paths:
            self._fail_on(check_short_paths_covered(state, ledger, ctx))
            self.paths_audited += 1
        self.bundles_checked += 1

    def on_stage_end(self, state: PhaseState, stage: int) -> None:
        arcs = build_h_prime_s(state, stage)[1]
        self.ledger_of(state).update(edge_key(x, y) for x, y in arcs)

    def on_augment_round_end(self, state: PhaseState) -> None:
        self.ledger_of(state).update(e for e in state.g.edges if state.classify(*e) == 2)

    def on_after_simulations(self, state: PhaseState, tau: int) -> None:
        ctx = self._ctx(tau)
        problems = check_state(state, context=ctx)
        problems += check_no_actionable_arcs(state, self.ledger_of(state), ctx)
        self._fail_on(problems)
        self._check_labels_monotone(state, ctx)

    def on_bundle_end(self, state: PhaseState, tau: int) -> None:
        ctx = self._ctx(tau)
        self._fail_on(check_state(state, context=ctx))
        self._check_labels_monotone(state, ctx)

    def on_phase_end(self, state: PhaseState) -> None:
        self._fail_on(check_state(state, context=self._ctx()))

    def on_oracle_graph(self, aux: Graph) -> None:
        if aux.n == 0:
            return
        bound = (2.0 / self.epsilon**3) * max(1, self.g.max_degree())
        if aux.max_degree() > bound:
            raise InternalConsistencyError(
                f"oracle graph degree {aux.max_degree()} exceeds {bound:g}"
            )
