"""Per-free-vertex search structures and the three basic operations.

A structure is a vertex- and arc-set owned by one free vertex with an
edge; its contraction by the blossom family is a rooted alternating
tree.  A free vertex with no edge can never augment, contract or
overtake, so it owns no structure and takes no part in a phase.  All
structures of a phase share one :class:`PhaseState`: the blossom
family, the matched-arc labels, the removal flags, the augmenting paths
and processing steps so far, and three indexes of the structures by
what they can do next.

Neither the graph nor the matching changes inside a phase.  Augmentations
are recorded as paths and applied by the driver at phase end.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .blossoms import LaminarBlossomSet, TreeView, find_cycle_blossom, lift_full_path
from .errors import InternalConsistencyError, InvalidPathError, PreconditionError
from .graph import AltPath, Arc, Graph, Matching, free_vertices_with_edge
from .params import PhaseParams


@dataclass
class Structure:
    """One free vertex's search structure.

    ``vertices`` and ``arcs`` are the structure as a vertex- and
    arc-set; ``view`` is the alternating tree it contracts to under the
    blossom family, over root blossom ids.  The view is made with the
    structure and kept current by the basic operations, never rebuilt;
    :class:`PhaseState` says which operation changes what.
    ``checks.check_state`` compares it against a rebuild from ``arcs``.
    """

    owner: int
    view: TreeView
    vertices: set[int] = field(default_factory=set)
    arcs: set[Arc] = field(default_factory=set)
    working: int | None = None
    on_hold: bool = False
    modified: bool = False
    extended: bool = False
    # The entry label under which the structure sits in ``PhaseState.ready``.
    ready_label: int | None = None

    def copy(self) -> "Structure":
        """An independent copy: its own tree and its own vertex and arc sets."""
        return replace(
            self, view=self.view.copy(), vertices=set(self.vertices), arcs=set(self.arcs)
        )


class PhaseState:
    """Shared mutable state of one phase: all that the phase changes.

    ``labels`` stores only the matched-arc labels an operation lowered;
    :meth:`label` reads any other as ``ell_max + 1``.

    There is one structure per free vertex with an edge, listed by
    ``graph.free_vertices_with_edge``.  A free vertex with no edge is in
    no structure and no index, and nothing in the phase reads it.

    Besides the structures themselves it keeps three indexes of them,
    by what they can do next:

    ``ready``
        Maps an entry label to the owners of the live structures that
        have a working vertex with that entry label and are neither on
        hold nor extended: the left side of that stage's layer graph.
        Read it through :meth:`ready_at`.
    ``dirty``
        The owners of the live structures with two or more vertices
        that were touched since the last ``exhaust_type1``.  No other
        live structure has a type-1 arc.
    ``fresh``
        The vertices that became outer or changed structure since
        ``build_h_prime`` last found no pair.  Every type-2 arc has an
        endpoint in ``fresh``.  It starts with the free vertices that
        have a free neighbour, since at phase start the roots are the
        only outer vertices.  The outer mate of an unvisited overtake,
        the inner vertices of a contracted cycle and the vertices moved
        by a cross overtake are added; nothing else makes a vertex outer
        or moves it, since a same-structure overtake keeps the parity of
        the subtree it re-hangs, and a cycle's outer members stay outer
        in the same structure.  ``build_h_prime`` drops
        the vertices that are no longer outer and clears it when it
        finds no pair.

    All three are valid at all times, as long as structures change only
    through the basic operations, ``backtrack_stuck`` and
    ``mark_for_pass_bundle``: the operations :meth:`touch` every
    structure whose working vertex, tree or entry labels they change
    and add to ``fresh`` as above, and ``mark_for_pass_bundle``
    rebuilds ``ready`` with the new marks.

    Each structure's tree, ``Structure.view``, is kept current the same
    way: every basic operation edits the trees it changes in place, and
    no tree is ever rebuilt.  An unvisited overtake hangs
    the head and its mate under the working vertex; a same-structure
    overtake moves the head's subtree under the working vertex; a cross
    overtake moves it out of the donor's tree into the taker's and
    copies the donor's dicts down to size, so a donor does not keep the
    memory of what it gave away; a contraction puts the new blossom in
    the place of the cycle's top node, the root if the top was the
    root, and re-hangs the cycle's other children under it.  An
    augmentation drops both structures, trees and all; their blossoms
    stay, since every reader skips a removed vertex before its blossom.

    ``boundary`` holds, per non-trivial root blossom, what
    :meth:`boundary_arcs` returns for it: the arcs that leave it.
    ``op_contract`` builds the new blossom's entry from its children's,
    merged by tail, with the heads inside the new blossom dropped, so a
    member's full adjacency is read only when it first goes into a
    blossom; it drops the children's entries.  A blossom's members
    never change, and neither do the matching and the sorted adjacency
    within a phase, so an entry stays valid until its blossom goes into
    a new one.

    Four flags describe the phase as a whole: ``held`` says whether
    ``mark_for_pass_bundle`` has put any structure on hold;
    ``pairs_left``, set by ``engine.contract_and_augment``, whether its
    last loop stopped with a structure pair still joined; ``gave_up``,
    set by the engine's simulation loops and never reset, whether any
    loop stopped with its graph still holding an edge, or at an
    iteration cap; and ``settled``, set by ``engine.run_phase``, whether
    the bundle loop stopped, at its fixpoint or on live structures no
    two of which can meet (:meth:`could_meet`, which labels only the
    live owners' components through ``Graph.side``), with ``held`` and
    ``gave_up`` still false.

    ``engine.run_phase`` also keeps ``bundles``, the pass bundles begun,
    and ``held_start``, a :meth:`copy` of the state made at the start of
    the first bundle that puts a structure on hold.  ``resumed_calls``
    are the oracle calls a phase run from this state does not repeat:
    on such a copy, those its phase made before that bundle; on a fresh
    state, 0.
    """

    def __init__(self, g: Graph, m: Matching, params: PhaseParams):
        self.g = g
        self.m = m
        self.mate = m.mate
        self.params = params
        # The edge set is fixed for the whole phase; scans want sorted order.
        self.adj_sorted: list[Sequence[int]] = g.sorted_adj
        self.omega = LaminarBlossomSet(g.n)
        self.structures: dict[int, Structure] = {}
        self.structure_of: dict[int, int] = {}
        self.labels: dict[tuple[int, int], int] = {}
        self.removed: list[bool] = [False] * g.n
        self.found_paths: list[AltPath] = []
        self.steps: list[int] = []
        self.ready: dict[int, set[int]] = {}
        self.dirty: set[int] = set()
        self.boundary: dict[int, list[tuple[int, list[int]]]] = {}
        self.held = False
        self.pairs_left = False
        self.gave_up = False
        self.settled = False
        self.bundles = 0
        self.resumed_calls = 0
        self.held_start: PhaseState | None = None
        for a in free_vertices_with_edge(g, m):
            self.init_structure(a)
        self.fresh: set[int] = {
            a
            for a in self.structures
            if any(y in self.structures for y in self.adj_sorted[a])
        }

    # -- bookkeeping ----------------------------------------------------------

    def copy(self) -> "PhaseState":
        """An independent copy, made by hand rather than by ``copy.deepcopy``.

        Shared with the copy: the graph, the matching, the sorted
        adjacency and the params, which no phase changes, and the lists
        in ``boundary``, which never change once built.
        Everything a phase changes is copied down to its sets, lists and
        dicts, ``boundary`` itself included, since the copy hands out
        blossom ids that the original may have given to other blossoms;
        a blossom changes only its ``parent`` once made.  The copy has
        no ``held_start`` of its own.
        """
        new = copy.copy(self)
        new.omega = self.omega.copy()
        new.structures = {o: s.copy() for o, s in self.structures.items()}
        new.structure_of = dict(self.structure_of)
        new.labels = dict(self.labels)
        new.removed = list(self.removed)
        new.found_paths = list(self.found_paths)
        new.steps = list(self.steps)
        new.ready = {k: set(owners) for k, owners in self.ready.items()}
        new.dirty = set(self.dirty)
        new.fresh = set(self.fresh)
        new.boundary = dict(self.boundary)
        new.held_start = None
        return new

    def init_structure(self, alpha: int) -> Structure:
        """The singleton structure of the free vertex ``alpha``.

        Leaves ``fresh`` to the caller, which at phase start seeds it
        from all the roots at once.
        """
        if self.mate[alpha] is not None or self.removed[alpha]:
            raise PreconditionError(f"vertex {alpha} is not free", code="not-free")
        s = Structure(
            owner=alpha,
            view=TreeView(root=alpha, depth={alpha: 0}),
            vertices={alpha},
            working=alpha,
        )
        self.structures[alpha] = s
        self.structure_of[alpha] = alpha
        self.touch(s)
        return s

    # -- indexes by what a structure can do next ---------------------------------

    def touch(self, s: Structure) -> None:
        """Re-file ``s`` in ``ready`` and ``dirty`` after a change to it.

        Every change to a structure's working vertex, tree, marks or
        entry labels must be followed by a touch for the indexes to stay
        valid.  A structure that is no longer live leaves both indexes.
        A singleton is never dirty: it has no arc of its own.
        """
        self._unfile(s)
        if self.structures.get(s.owner) is not s:
            self.dirty.discard(s.owner)
            return
        if not (s.on_hold or s.extended):
            self._file(s)
        if len(s.vertices) >= 2:
            self.dirty.add(s.owner)
        else:
            self.dirty.discard(s.owner)

    def ready_at(self, stage: int) -> list[Structure]:
        """The live structures whose working vertex has entry label ``stage``.

        Only those neither on hold nor extended, in ascending owner
        order; read from ``ready``, so valid whenever it is.
        """
        return [self.structures[o] for o in sorted(self.ready.get(stage, ()))]

    def _file(self, s: Structure) -> None:
        if s.working is None:
            return
        label = self.entry_label(s, s.working)
        self.ready.setdefault(label, set()).add(s.owner)
        s.ready_label = label

    def _unfile(self, s: Structure) -> None:
        if s.ready_label is not None:
            self.ready[s.ready_label].discard(s.owner)
            s.ready_label = None

    def could_meet(self) -> bool:
        """Could two live structures still meet in an augmenting path?

        True when two live owners share a component with an odd cycle,
        or lie on the two sides of a bipartite component.  An augmenting
        path joins two free vertices of one component, and in a
        bipartite one it has odd length, so its ends lie on opposite
        sides (Berge, PNAS 1957).  Reads ``Graph.side`` of each live
        owner, so it labels only the owners' components, each once per
        graph, and then costs one pass over the live owners.
        """
        side_of = self.g.side
        seen: dict[int, int | None] = {}
        for o in self.structures:
            comp, side = side_of(o)
            if comp not in seen:
                seen[comp] = side
            elif side is None or side != seen[comp]:
                return True
        return False

    def live_structures(self) -> list[Structure]:
        return [self.structures[k] for k in sorted(self.structures)]

    def structure_at(self, v: int) -> Structure | None:
        owner = self.structure_of.get(v)
        return None if owner is None else self.structures[owner]

    def note_step(self, max_component: int) -> None:
        """Log one processing step by the largest structure it touched, at least 1."""
        self.steps.append(max(1, max_component))

    def holds(self, s: Structure) -> bool:
        """The hold rule: ``s`` has reached ``limit_h`` vertices."""
        return len(s.vertices) >= self.params.limit_h

    def mark_for_pass_bundle(self) -> None:
        """Reset marks; the structures that :meth:`holds` go on hold for the bundle.

        Rebuilds ``ready`` from the reset marks in the same pass.
        """
        self.ready = {}
        for s in self.live_structures():
            s.on_hold = self.holds(s)
            self.held |= s.on_hold
            s.modified = False
            s.extended = False
            s.ready_label = None
            if not s.on_hold:
                self._file(s)

    def boundary_arcs(self, bid: int) -> Sequence[tuple[int, Sequence[int]]]:
        """The arcs out of the root blossom ``bid``, by tail: ``(x, ys)`` pairs.

        ``x`` runs over the members with a neighbour outside the blossom,
        ascending, and ``ys`` lists those neighbours in ``adj_sorted``
        order, so the arcs come in the order of a scan of every member's
        sorted adjacency that skips the arcs inside the blossom.  A
        trivial blossom reads ``adj_sorted`` directly; a non-trivial one
        reads ``boundary``, which ``op_contract`` fills.
        """
        if bid < self.omega.n:
            return ((bid, self.adj_sorted[bid]),)
        return self.boundary[bid]

    # -- label helpers ----------------------------------------------------------

    def label(self, arc: tuple[int, int]) -> int:
        """Label of the matched ``arc``: the stored one, else ``ell_max + 1``."""
        return self.labels.get(arc, self.params.ell_max + 1)

    def head_label(self, v: int) -> int:
        """Label of the matched arc leaving ``v`` (its downward arc)."""
        t = self.mate[v]
        if t is None:
            raise PreconditionError(f"vertex {v} is unmatched", code="unmatched")
        return self.label((v, t))

    def entry_label(self, s: Structure, bid: int) -> int:
        """Label of the matched arc entering the outer blossom ``bid``; 0 at the root."""
        view = s.view
        if bid == view.root:
            return 0
        return self.labels[view.parent_arc[bid]]

    # -- classification (used by checks and by the aux-graph builders) --------

    def classify(self, u: int, v: int) -> int | None:
        """Type of the arc (u, v): 1, 2, 3, or None.

        Type 1: both endpoints outer in one structure, one of them its
        working vertex.  Type 2: outer endpoints in two different
        structures.  Type 3: tail inside the working vertex of a
        structure not on hold, head inner or unvisited-and-matched, and
        the head's downward label exceeds the tail's entry label + 1.
        """
        if self.removed[u] or self.removed[v] or self.mate[u] == v:
            return None
        bu, bv = self.omega.root(u), self.omega.root(v)
        if bu == bv:
            return None
        su, sv = self.structure_at(u), self.structure_at(v)
        if su is not None and sv is not None:
            vu, vv = su.view, sv.view
            if vu.is_outer(bu) and vv.is_outer(bv):
                if su is sv:
                    if su.working in (bu, bv):
                        return 1
                    return None
                return 2
        if su is None:
            return None
        if su.working != bu or su.on_hold:
            return None
        if sv is None:
            head_ok = self.mate[v] is not None
        else:
            head_ok = sv.view.is_inner(bv)
        if not head_ok:
            return None
        if self.head_label(v) > self.entry_label(su, bu) + 1:
            return 3
        return None

    # -- basic operation: augment ---------------------------------------------

    def op_augment(self, g_arc: Arc) -> AltPath:
        """Record the augmenting path through ``g_arc``; drop both structures.

        ``g_arc`` must join outer vertices of two distinct structures.
        The path runs from one owner through the lifted tree paths and
        the connecting arc to the other owner.  Before it is recorded it
        must step only along edges, repeat no vertex, alternate and end
        at free vertices, else ``InternalConsistencyError`` is raised.
        All vertices of both structures are hypothetically removed.
        """
        u, v = g_arc
        su, sv = self.structure_at(u), self.structure_at(v)
        if su is None or sv is None or su is sv:
            raise PreconditionError(
                f"arc ({u}, {v}) does not join two structures", code="augment-structures"
            )
        bu, bv = self.omega.root(u), self.omega.root(v)
        view_u, view_v = su.view, sv.view
        if not view_u.is_outer(bu) or not view_v.is_outer(bv):
            raise PreconditionError(
                f"arc ({u}, {v}) endpoints must be outer", code="augment-outer"
            )
        down = list(reversed(view_u.path_to_root(bu)))
        up = view_v.path_to_root(bv)
        blossom_path = down + up
        connectors = [view_u.parent_arc[b] for b in down[1:]]
        connectors.append(Arc(u, v))
        connectors += [view_v.parent_arc[b].reverse() for b in up[:-1]]
        lifted = lift_full_path(self.omega, self.mate, blossom_path, connectors)
        path = AltPath(lifted)
        try:
            path.validate(self.g, self.m)
        except InvalidPathError as exc:
            raise InternalConsistencyError(f"lifted path {lifted}: {exc}") from exc
        if not path.is_augmenting(self.m):
            raise InternalConsistencyError(f"lifted path {lifted} is not augmenting")
        self.found_paths.append(path)
        for x in su.vertices | sv.vertices:
            self.removed[x] = True
            self.structure_of.pop(x, None)
        del self.structures[su.owner]
        del self.structures[sv.owner]
        self.touch(su)
        self.touch(sv)
        return path

    # -- basic operation: contract ----------------------------------------------

    def op_contract(self, g_arc: Arc) -> int:
        """Contract the unique odd cycle closed by ``g_arc``; returns the blossom id.

        The tail's root blossom must be the working vertex of its
        structure and the head an outer vertex of the same structure.
        Matched arcs inside the new blossom get label 0 in both
        directions, and the blossom becomes the working vertex.  Only
        its own cycle is reset: labels never rise, and a nested
        blossom's matched arcs got label 0 when it was contracted.
        """
        u, v = g_arc
        s = self.structure_at(u)
        if s is None or self.omega.root(u) != s.working:
            raise PreconditionError(
                f"tail of ({u}, {v}) is not inside the working vertex", code="P1"
            )
        if self.structure_at(v) is not s:
            raise PreconditionError(
                f"head of ({u}, {v}) is not in the same structure", code="contract-structure"
            )
        children, cycle = find_cycle_blossom(s.view, self.omega, g_arc)
        depth = s.view.depth
        # Inner nodes are trivial blossoms.  Only they turn outer: the
        # outer children were outer already, in this structure.
        inner = [c for c in children if depth[c] % 2]
        b = self.omega.contract(children, cycle)
        members = b.members
        arcs = []
        for cid in children:
            for x, ys in self.boundary_arcs(cid):
                ys = [y for y in ys if y not in members]
                if ys:
                    arcs.append((x, ys))
            self.boundary.pop(cid, None)
        # the children's members are disjoint, so this sorts by tail alone
        arcs.sort()
        self.boundary[b.id] = arcs
        s.view.contract(children, b.id)
        s.arcs.add(g_arc)
        for arc in b.cycle_arcs:
            if self.mate[arc.tail] == arc.head:
                self.labels[(arc.tail, arc.head)] = 0
                self.labels[(arc.head, arc.tail)] = 0
        s.working = b.id
        s.modified = True
        s.extended = True
        self.fresh.update(inner)
        self.touch(s)
        return b.id

    # -- basic operation: overtake ------------------------------------------------

    def op_overtake(self, g_arc: Arc, a_arc: Arc, k: int) -> None:
        """Extend the tail's structure across ``g_arc`` and the matched ``a_arc``.

        Preconditions: (P1) the tail's root blossom is the working
        vertex of its structure; (P2) the head's root blossom is
        unvisited or inner, and in the same structure it must not be an
        ancestor of the working vertex; (P3) ``k`` is strictly below the
        current label of ``a_arc``.  The label of ``a_arc`` drops to
        ``k``.
        """
        u, v = g_arc
        va, t = a_arc
        if va != v or self.mate[v] != t:
            raise PreconditionError(
                f"arc ({va}, {t}) is not the matched arc out of {v}", code="P2"
            )
        s_alpha = self.structure_at(u)
        if s_alpha is None or self.omega.root(u) != s_alpha.working:
            raise PreconditionError(
                f"tail of ({u}, {v}) is not inside the working vertex", code="P1"
            )
        if k >= self.label((v, t)):
            raise PreconditionError(
                f"new label {k} does not undercut {self.label((v, t))}", code="P3"
            )
        s_beta = self.structure_at(v)
        if s_beta is None:
            self._overtake_unvisited(s_alpha, g_arc, a_arc, k)
        elif s_beta is s_alpha:
            self._overtake_same(s_alpha, g_arc, a_arc, k)
        else:
            self._overtake_cross(s_alpha, s_beta, g_arc, a_arc, k)

    def _overtake_unvisited(self, s: Structure, g_arc: Arc, a_arc: Arc, k: int) -> None:
        v, t = a_arc
        if t in self.structure_of:
            raise InternalConsistencyError(
                f"vertex {v} unvisited but its mate {t} is in a structure"
            )
        s.vertices.update((v, t))
        self.structure_of[v] = s.owner
        self.structure_of[t] = s.owner
        s.arcs.add(g_arc)
        s.arcs.add(a_arc)
        s.view.hang(v, s.working, g_arc)
        s.view.hang(t, v, a_arc)
        self.labels[(v, t)] = k
        s.working = t
        s.modified = True
        s.extended = True
        self.fresh.add(t)
        self.touch(s)

    def _check_inner_head(self, s_beta: Structure, v: int) -> tuple[int, int]:
        """Common case-2 validation; returns (parent blossom, child blossom) of {v}."""
        view = s_beta.view
        bv = self.omega.root(v)
        if not view.is_inner(bv):
            raise PreconditionError(
                f"head {v} is neither unvisited nor inner", code="P2"
            )
        if bv != v:
            raise InternalConsistencyError(f"inner vertex {v} is not a trivial blossom")
        kids = view.children.get(bv, [])
        if len(kids) != 1:
            raise InternalConsistencyError(
                f"inner vertex {v} has {len(kids)} children"
            )
        return view.parent[bv], kids[0]

    def _overtake_same(self, s: Structure, g_arc: Arc, a_arc: Arc, k: int) -> None:
        v = g_arc.head
        _, t_prime = self._check_inner_head(s, v)
        view = s.view
        if v in view.path_to_root(s.working):
            raise PreconditionError(
                f"head {v} is an ancestor of the working vertex", code="P2"
            )
        # {v} is a trivial inner blossom, so its parent arc is the only arc into it.
        s.arcs.remove(view.parent_arc[v])
        s.arcs.add(g_arc)
        view.rehang(v, s.working, g_arc)
        self.labels[a_arc] = k
        s.working = t_prime
        s.modified = True
        s.extended = True
        self.touch(s)

    def _overtake_cross(
        self, s_alpha: Structure, s_beta: Structure, g_arc: Arc, a_arc: Arc, k: int
    ) -> None:
        v = g_arc.head
        p_prime, t_prime = self._check_inner_head(s_beta, v)
        # {v} is a trivial inner blossom, so its parent arc is the only arc into it.
        s_beta.arcs.remove(s_beta.view.parent_arc[v])
        moved_roots = s_beta.view.move_subtree(v, s_alpha.view, s_alpha.working, g_arc)
        moved_vertices: set[int] = set()
        for b in moved_roots:
            moved_vertices |= self.omega.members_of(b)
        moved_arcs = {
            a for a in s_beta.arcs if a.tail in moved_vertices and a.head in moved_vertices
        }
        for a in s_beta.arcs - moved_arcs:
            if a.tail in moved_vertices or a.head in moved_vertices:
                raise InternalConsistencyError(
                    f"arc {a} straddles the moved subtree after detachment"
                )
        s_beta.arcs -= moved_arcs
        s_beta.vertices -= moved_vertices
        s_alpha.arcs |= moved_arcs
        s_alpha.vertices |= moved_vertices
        for x in moved_vertices:
            self.structure_of[x] = s_alpha.owner
        self.fresh |= moved_vertices
        s_alpha.arcs.add(g_arc)
        self.labels[a_arc] = k
        if s_beta.working in moved_roots:
            s_alpha.working = s_beta.working
            s_beta.working = p_prime
        else:
            s_alpha.working = t_prime
        s_alpha.modified = True
        s_alpha.extended = True
        s_beta.modified = True
        # The donor is the one structure whose stage can change in a
        # bundle without it being marked extended.
        self.touch(s_alpha)
        self.touch(s_beta)

    # -- backtracking -------------------------------------------------------------

    def backtrack_stuck(self) -> bool:
        """Move stuck structures' working vertices two levels up.

        A structure is stuck when it is neither on hold nor modified.
        At the root the working vertex becomes empty.  Returns whether
        anything moved.
        """
        changed = False
        for s in self.live_structures():
            if s.on_hold or s.modified or s.working is None:
                continue
            view = s.view
            if s.working == view.root:
                s.working = None
            else:
                s.working = view.parent[view.parent[s.working]]
            self.touch(s)
            changed = True
        return changed
