"""Per-free-vertex search structures and the three basic operations.

A structure is a vertex- and arc-set owned by one free vertex with an
edge; its contraction by the blossom family is a rooted alternating
tree.  A free vertex with no edge can never augment, contract or
overtake, so it owns no structure and is only listed in
``PhaseState.edgeless``.  All structures of a phase share one
:class:`PhaseState`: the blossom family, the matched-arc labels, the
removal flags, the augmenting paths found so far, and three indexes of
the structures by what they can do next.

The matching itself never changes inside a phase.  Augmentations are
recorded as paths and applied by the driver at phase end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blossoms import LaminarBlossomSet, TreeView, find_cycle_blossom, lift_full_path
from .errors import InternalConsistencyError, PreconditionError
from .graph import AltPath, Arc, Graph, Matching, free_vertices
from .params import PhaseParams


@dataclass
class Structure:
    owner: int
    vertices: set[int] = field(default_factory=set)
    arcs: set[Arc] = field(default_factory=set)
    blossom_ids: set[int] = field(default_factory=set)
    working: int | None = None
    on_hold: bool = False
    modified: bool = False
    extended: bool = False
    # The entry label under which the structure sits in ``PhaseState.ready``.
    ready_label: int | None = None
    _view: TreeView | None = None

    def invalidate(self) -> None:
        self._view = None

    def to_debug_json(self, state: "PhaseState") -> dict:
        view = state.tree(self)
        active = (
            list(reversed(view.path_to_root(self.working)))
            if self.working is not None
            else []
        )
        return {
            "owner": self.owner,
            "vertices": sorted(self.vertices),
            "arcs": sorted(map(tuple, self.arcs)),
            "blossoms": sorted(self.blossom_ids),
            "working": self.working,
            "active_path": active,
            "active_labels": [
                state.entry_label(self, b) for b in active if view.is_outer(b)
            ],
            "marks": {
                "on_hold": self.on_hold,
                "modified": self.modified,
                "extended": self.extended,
            },
        }


class PhaseState:
    """Shared mutable state of one phase.

    There is one structure per free vertex with an edge.  The free
    vertices with no edge are kept apart, ascending, in ``edgeless``;
    they are in no structure and no index.  Two things still behave as
    if each owned a singleton structure: the samplers of the weak
    pipeline draw once for each of them, in owner order, and the first
    :meth:`backtrack_stuck` of the phase reports their move from the
    root to no working vertex.

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
        the members of a new blossom and the vertices moved by a cross
        overtake are added; nothing else makes a vertex outer or moves
        it, since a same-structure overtake keeps the parity of the
        subtree it re-hangs.  ``build_h_prime`` drops
        the vertices that are no longer outer and clears it when it
        finds no pair.

    All three are valid at all times, as long as structures change only
    through the basic operations, ``backtrack_stuck`` and
    ``mark_for_pass_bundle``: the operations :meth:`touch` every
    structure whose working vertex, tree or entry labels they change
    and add to ``fresh`` as above, and ``mark_for_pass_bundle``
    rebuilds ``ready`` with the new marks.
    """

    def __init__(
        self,
        g: Graph,
        m: Matching,
        params: PhaseParams,
        track_contamination: bool = False,
    ):
        self.g = g
        self.m = m
        self.mate = m.mate
        self.params = params
        # The edge set is fixed for the whole phase; scans want sorted order.
        self.adj_sorted: list[list[int]] = [sorted(a) for a in g.adj]
        self.omega = LaminarBlossomSet(g.n)
        self.structures: dict[int, Structure] = {}
        self.structure_of: dict[int, int] = {}
        self.edgeless: list[int] = []
        self.labels: dict[tuple[int, int], int] = {}
        self.found_paths: list[AltPath] = []
        self.ready: dict[int, set[int]] = {}
        self.dirty: set[int] = set()
        self.contaminated: set[tuple[int, int]] | None = (
            set() if track_contamination else None
        )
        for u, v in m.edges:
            self.labels[(u, v)] = params.ell_max + 1
            self.labels[(v, u)] = params.ell_max + 1
        for a in free_vertices(g, m):
            if self.adj_sorted[a]:
                self.init_structure(a)
            else:
                self.edgeless.append(a)
        self.fresh: set[int] = {
            a
            for a in self.structures
            if any(y in self.structures for y in self.adj_sorted[a])
        }
        # Whether the edgeless vertices still hold the working vertex
        # their singleton structures would have had.
        self._edgeless_working = bool(self.edgeless)

    # -- bookkeeping ----------------------------------------------------------

    def init_structure(self, alpha: int) -> Structure:
        """The singleton structure of the free vertex ``alpha``.

        Leaves ``fresh`` to the caller, which at phase start seeds it
        from all the roots at once.
        """
        if self.mate[alpha] is not None or self.g.removed[alpha]:
            raise PreconditionError(f"vertex {alpha} is not free", code="not-free")
        s = Structure(owner=alpha, vertices={alpha}, working=alpha)
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

    def live_structures(self) -> list[Structure]:
        return [self.structures[k] for k in sorted(self.structures)]

    def structure_at(self, v: int) -> Structure | None:
        owner = self.structure_of.get(v)
        return None if owner is None else self.structures[owner]

    def root(self, v: int) -> int:
        return self.omega.root(v)

    def tree(self, s: Structure) -> TreeView:
        if s._view is None:
            s._view = self._build_view(s)
        return s._view

    def _build_view(self, s: Structure) -> TreeView:
        root = self.omega.root(s.owner)
        view = TreeView(root=root)
        nodes = {self.omega.root(v) for v in s.vertices}
        for arc in s.arcs:
            bu, bv = self.omega.root(arc.tail), self.omega.root(arc.head)
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

    def mark_for_pass_bundle(self) -> None:
        """Reset marks; large structures go on hold for the bundle.

        Rebuilds ``ready`` from the reset marks in the same pass.
        """
        self.ready = {}
        for s in self.live_structures():
            s.on_hold = len(s.vertices) >= self.params.limit_h
            s.modified = False
            s.extended = False
            s.ready_label = None
            if not s.on_hold:
                self._file(s)

    # -- label helpers ----------------------------------------------------------

    def head_label(self, v: int) -> int:
        """Label of the matched arc leaving ``v`` (its downward arc)."""
        t = self.mate[v]
        if t is None:
            raise PreconditionError(f"vertex {v} is unmatched", code="unmatched")
        return self.labels[(v, t)]

    def entry_label(self, s: Structure, bid: int) -> int:
        """Label of the matched arc entering the outer blossom ``bid``; 0 at the root."""
        if bid == self.omega.root(s.owner):
            return 0
        view = self.tree(s)
        arc = view.parent_arc[bid]
        return self.labels[(arc.tail, arc.head)]

    # -- classification (used by checks and by the aux-graph builders) --------

    def classify(self, u: int, v: int) -> int | None:
        """Type of the arc (u, v): 1, 2, 3, or None.

        Type 1: both endpoints outer in one structure, one of them its
        working vertex.  Type 2: outer endpoints in two different
        structures.  Type 3: tail inside the working vertex of a
        structure not on hold, head inner or unvisited-and-matched, and
        the head's downward label exceeds the tail's entry label + 1.
        """
        g = self.g
        if g.removed[u] or g.removed[v]:
            return None
        if self.mate[u] == v:
            return None
        bu, bv = self.omega.root(u), self.omega.root(v)
        if bu == bv:
            return None
        su, sv = self.structure_at(u), self.structure_at(v)
        if su is not None and sv is not None:
            vu, vv = self.tree(su), self.tree(sv)
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
            head_ok = self.tree(sv).is_inner(bv)
        if not head_ok:
            return None
        if self.head_label(v) > self.entry_label(su, bu) + 1:
            return 3
        return None

    # -- contamination ledger ---------------------------------------------------

    def contaminate(self, arcs) -> int:
        if self.contaminated is None:
            return 0
        before = len(self.contaminated)
        for a in arcs:
            self.contaminated.add((a[0], a[1]))
        return len(self.contaminated) - before

    def contaminate_type2(self) -> None:
        """Mark both directions of every type-2 edge, if contamination is tracked."""
        if self.contaminated is None:
            return
        fresh = []
        for u, v in sorted(self.g.edges):
            if self.classify(u, v) == 2:
                fresh += [(u, v), (v, u)]
        self.contaminate(fresh)

    def is_contaminated_edge(self, u: int, v: int) -> bool:
        return self.contaminated is not None and (
            (u, v) in self.contaminated or (v, u) in self.contaminated
        )

    # -- basic operation: augment ---------------------------------------------

    def op_augment(self, g_arc: Arc) -> AltPath:
        """Record the augmenting path through ``g_arc``; drop both structures.

        ``g_arc`` must join outer vertices of two distinct structures.
        The path runs from one owner through the lifted tree paths and
        the connecting arc to the other owner.  All vertices of both
        structures are hypothetically removed.
        """
        u, v = g_arc
        su, sv = self.structure_at(u), self.structure_at(v)
        if su is None or sv is None or su is sv:
            raise PreconditionError(
                f"arc ({u}, {v}) does not join two structures", code="augment-structures"
            )
        bu, bv = self.omega.root(u), self.omega.root(v)
        view_u, view_v = self.tree(su), self.tree(sv)
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
        if not path.is_augmenting(self.m):
            raise InternalConsistencyError(
                f"lifted path {lifted} is not augmenting"
            )
        self.found_paths.append(path)
        dead = su.vertices | sv.vertices
        self.g.remove_vertices(dead)
        for x in dead:
            self.structure_of.pop(x, None)
        self.omega.dissolve(su.blossom_ids | sv.blossom_ids)
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
        directions, and the blossom becomes the working vertex.
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
        children, cycle = find_cycle_blossom(self.tree(s), self.omega, g_arc)
        b = self.omega.contract(children, cycle)
        s.blossom_ids.add(b.id)
        s.arcs.add(g_arc)
        s.invalidate()
        for arc in self.omega.defining_edges(b.id):
            if self.mate[arc.tail] == arc.head:
                self.labels[(arc.tail, arc.head)] = 0
                self.labels[(arc.head, arc.tail)] = 0
        s.working = b.id
        s.modified = True
        s.extended = True
        # the cycle's inner vertices turn outer
        self.fresh |= b.members
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
        if k >= self.labels[(v, t)]:
            raise PreconditionError(
                f"new label {k} does not undercut {self.labels[(v, t)]}", code="P3"
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
        self.labels[(v, t)] = k
        s.working = self.omega.root(t)
        s.modified = True
        s.extended = True
        s.invalidate()
        self.fresh.add(t)
        self.touch(s)

    def _check_inner_head(self, s_beta: Structure, v: int) -> tuple[int, int]:
        """Common case-2 validation; returns (parent blossom, child blossom) of {v}."""
        view = self.tree(s_beta)
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
        u, v = g_arc
        p_prime, t_prime = self._check_inner_head(s, v)
        view = self.tree(s)
        if v in view.path_to_root(self.omega.root(u)):
            raise PreconditionError(
                f"head {v} is an ancestor of the working vertex", code="P2"
            )
        for arc in [a for a in s.arcs if a.head == v and self.omega.root(a.tail) == p_prime]:
            s.arcs.remove(arc)
        s.arcs.add(g_arc)
        self.labels[a_arc] = k
        s.working = t_prime
        s.modified = True
        s.extended = True
        s.invalidate()
        self.touch(s)

    def _overtake_cross(
        self, s_alpha: Structure, s_beta: Structure, g_arc: Arc, a_arc: Arc, k: int
    ) -> None:
        u, v = g_arc
        p_prime, t_prime = self._check_inner_head(s_beta, v)
        view_beta = self.tree(s_beta)
        moved_roots = view_beta.subtree(v)
        beta_working_moved = s_beta.working in moved_roots
        old_beta_working = s_beta.working
        for arc in [a for a in s_beta.arcs if a.head == v and self.omega.root(a.tail) == p_prime]:
            s_beta.arcs.remove(arc)
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
        moved_blossoms: set[int] = set()
        for b in moved_roots:
            if not self.omega.is_trivial(b):
                moved_blossoms |= self.omega.descendants(b)
        s_beta.blossom_ids -= moved_blossoms
        s_alpha.blossom_ids |= moved_blossoms
        s_alpha.arcs.add(g_arc)
        self.labels[a_arc] = k
        if beta_working_moved:
            s_alpha.working = old_beta_working
            s_beta.working = p_prime
        else:
            s_alpha.working = t_prime
        s_alpha.modified = True
        s_alpha.extended = True
        s_beta.modified = True
        s_alpha.invalidate()
        s_beta.invalidate()
        # The donor is the one structure whose stage can change in a
        # bundle without it being marked extended.
        self.touch(s_alpha)
        self.touch(s_beta)

    # -- backtracking -------------------------------------------------------------

    def backtrack_stuck(self) -> bool:
        """Move stuck structures' working vertices two levels up.

        A structure is stuck when it is neither on hold nor modified.
        At the root the working vertex becomes empty.  Returns whether
        anything moved, counting the edgeless vertices' move off the
        root, which their singleton structures would make in the first
        call unless on hold.
        """
        changed = False
        if self._edgeless_working and self.params.limit_h > 1:
            self._edgeless_working = False
            changed = True
        for s in self.live_structures():
            if s.on_hold or s.modified or s.working is None:
                continue
            view = self.tree(s)
            if s.working == view.root:
                s.working = None
            else:
                s.working = view.parent[view.parent[s.working]]
            self.touch(s)
            changed = True
        return changed
