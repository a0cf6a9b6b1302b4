"""Laminar blossom families and path lifting.

A blossom is either trivial (a single vertex; represented implicitly)
or an odd cycle of child blossoms.  Non-trivial blossoms carry their
cycle order and the exact graph endpoints of each cycle edge, which is
what makes lifting contracted paths back to graph paths deterministic.

Blossom ids: trivial blossoms reuse the vertex id; non-trivial ones are
assigned ids starting at ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import InternalConsistencyError, PreconditionError, UnknownVertexError
from .graph import Arc

MateArray = list  # list[int | None], indexed by vertex


@dataclass
class Blossom:
    id: int
    members: set[int]
    base: int
    children: list[int]            # child blossom ids, cycle order; children[0] holds base
    cycle_arcs: list[Arc]          # cycle_arcs[i] joins children[i] -> children[i+1 mod k]
    parent: int | None = None      # enclosing blossom id in the laminar forest


class LaminarBlossomSet:
    """All blossoms over a fixed vertex range, trivial ones implicit.

    ``root_of[v]`` is the id of the maximal (root) blossom containing
    ``v``; it is updated eagerly on contraction, which doubles as a
    fully-compressed union-find.  The explicit parent links form the
    laminar forest.
    """

    def __init__(self, n: int):
        self.n = n
        self.blossoms: dict[int, Blossom] = {}
        self.root_of: list[int] = list(range(n))
        self._next_id = n

    def copy(self) -> "LaminarBlossomSet":
        """An independent copy; a blossom changes only its ``parent`` once made."""
        new = LaminarBlossomSet.__new__(LaminarBlossomSet)
        new.n = self.n
        new.blossoms = {bid: replace(b) for bid, b in self.blossoms.items()}
        new.root_of = list(self.root_of)
        new._next_id = self._next_id
        return new

    def is_trivial(self, bid: int) -> bool:
        return bid < self.n

    def members_of(self, bid: int) -> set[int]:
        if bid < self.n:
            return {bid}
        return self.blossoms[bid].members

    def base_of(self, bid: int) -> int:
        if bid < self.n:
            return bid
        return self.blossoms[bid].base

    def root(self, v: int) -> int:
        """Root blossom id of vertex ``v``."""
        if not (0 <= v < self.n):
            raise UnknownVertexError(f"vertex {v} outside [0, {self.n})")
        return self.root_of[v]

    def contract(self, children: list[int], cycle_arcs: list[Arc]) -> Blossom:
        """Register the odd cycle of root blossoms as a new blossom."""
        if len(children) < 3 or len(children) % 2 == 0:
            raise PreconditionError(
                f"blossom needs an odd cycle of >= 3 children, got {len(children)}",
                code="odd-cycle",
            )
        if len(cycle_arcs) != len(children):
            raise PreconditionError(
                f"{len(children)} children need {len(children)} cycle arcs",
                code="odd-cycle",
            )
        members: set[int] = set()
        for cid in children:
            if not self.is_trivial(cid) and self.blossoms[cid].parent is not None:
                raise PreconditionError(f"child {cid} is not a root blossom", code="not-root")
            got = self.members_of(cid)
            if members & got:
                raise PreconditionError("children overlap", code="laminarity")
            members |= got
        for i, arc in enumerate(cycle_arcs):
            nxt = children[(i + 1) % len(children)]
            if arc.tail not in self.members_of(children[i]) or arc.head not in self.members_of(nxt):
                raise PreconditionError(
                    f"cycle arc {arc} does not join children {children[i]} -> {nxt}",
                    code="odd-cycle",
                )
        b = Blossom(
            id=self._next_id,
            members=members,
            base=self.base_of(children[0]),
            children=list(children),
            cycle_arcs=list(cycle_arcs),
        )
        self._next_id += 1
        self.blossoms[b.id] = b
        for cid in children:
            if not self.is_trivial(cid):
                self.blossoms[cid].parent = b.id
        for v in members:
            self.root_of[v] = b.id
        return b


def validate_blossom(omega: LaminarBlossomSet, bid: int, mate: MateArray) -> None:
    """Debug check of the regular-set properties of one blossom."""
    if omega.is_trivial(bid):
        return
    b = omega.blossoms[bid]
    if len(b.children) % 2 == 0 or len(b.children) < 3:
        raise InternalConsistencyError(f"blossom {bid} has {len(b.children)} children")
    union: set[int] = set()
    for cid in b.children:
        got = omega.members_of(cid)
        if union & got:
            raise InternalConsistencyError(f"blossom {bid} children overlap")
        union |= got
    if union != b.members:
        raise InternalConsistencyError(f"blossom {bid} member set mismatch")
    if b.base not in omega.members_of(b.children[0]):
        raise InternalConsistencyError(f"blossom {bid} base not in first child")
    for i, arc in enumerate(b.cycle_arcs):
        want_matched = i % 2 == 1
        if (mate[arc.tail] == arc.head) != want_matched:
            raise InternalConsistencyError(
                f"blossom {bid} cycle arc {i} has wrong matched parity"
            )
    for v in b.members:
        if v == b.base:
            if mate[v] is not None and mate[v] in b.members:
                raise InternalConsistencyError(f"blossom {bid} base matched inside")
        elif mate[v] is None or mate[v] not in b.members:
            raise InternalConsistencyError(
                f"blossom {bid} member {v} not matched inside"
            )
    for cid in b.children:
        validate_blossom(omega, cid, mate)


def check_laminarity(omega: LaminarBlossomSet) -> None:
    """Every pair of blossoms must nest or be disjoint."""
    blos = list(omega.blossoms.values())
    for i, a in enumerate(blos):
        for b in blos[i + 1 :]:
            inter = a.members & b.members
            if inter and not (a.members <= b.members or b.members <= a.members):
                raise InternalConsistencyError(
                    f"blossoms {a.id} and {b.id} cross: share {sorted(inter)[:4]}"
                )


# -- alternating tree view ----------------------------------------------------


@dataclass
class TreeView:
    """A rooted alternating tree over root blossom ids.

    ``children`` holds a list only for a node with a child; the order of
    a list carries no meaning.  The methods below the queries edit the
    tree in place, for the basic operations that grow, re-hang and
    contract it.
    """

    root: int
    parent: dict[int, int] = field(default_factory=dict)
    parent_arc: dict[int, Arc] = field(default_factory=dict)
    children: dict[int, list[int]] = field(default_factory=dict)
    depth: dict[int, int] = field(default_factory=dict)

    def copy(self) -> "TreeView":
        return TreeView(
            self.root,
            dict(self.parent),
            dict(self.parent_arc),
            {b: list(kids) for b, kids in self.children.items()},
            dict(self.depth),
        )

    def contains(self, bid: int) -> bool:
        return bid in self.depth

    def is_outer(self, bid: int) -> bool:
        return self.depth.get(bid, 1) % 2 == 0

    def is_inner(self, bid: int) -> bool:
        return self.depth.get(bid, 0) % 2 == 1

    def path_to_root(self, bid: int) -> list[int]:
        out = [bid]
        while out[-1] != self.root:
            out.append(self.parent[out[-1]])
        return out

    def subtree(self, bid: int) -> set[int]:
        out = {bid}
        stack = [bid]
        while stack:
            for c in self.children.get(stack.pop(), []):
                out.add(c)
                stack.append(c)
        return out

    def hang(self, bid: int, parent: int, arc: Arc) -> None:
        """Add ``bid`` as a leaf under ``parent``, entered by ``arc``."""
        self._attach(bid, parent, arc)
        self.depth[bid] = self.depth[parent] + 1

    def rehang(self, bid: int, parent: int, arc: Arc) -> None:
        """Move the subtree of ``bid`` under ``parent``, entered by ``arc``.

        ``parent`` must lie outside that subtree.  The subtree's depths
        shift by one constant.
        """
        self._detach(bid)
        self._shift(self.subtree(bid), self.depth[parent] + 1 - self.depth[bid])
        self._attach(bid, parent, arc)

    def move_subtree(self, bid: int, taker: TreeView, parent: int, arc: Arc) -> set[int]:
        """Move the subtree of ``bid`` into ``taker``, under its node ``parent``.

        Returns the moved nodes.  Their depths shift by one constant.
        This tree's dicts are then copied down to size: a dict keeps its
        table after ``pop``, so a donor that gave away most of its nodes
        would otherwise still hold the memory of all of them.
        """
        nodes = self.subtree(bid)
        self._detach(bid)
        delta = taker.depth[parent] + 1 - self.depth[bid]
        for b in nodes:
            taker.parent[b] = self.parent.pop(b)
            taker.parent_arc[b] = self.parent_arc.pop(b)
            kids = self.children.pop(b, None)
            if kids is not None:
                taker.children[b] = kids
            taker.depth[b] = self.depth.pop(b) + delta
        taker._attach(bid, parent, arc)
        self.parent = dict(self.parent)
        self.parent_arc = dict(self.parent_arc)
        self.children = dict(self.children)
        self.depth = dict(self.depth)
        return nodes

    def contract(self, cycle: list[int], bid: int) -> None:
        """Replace the nodes of ``cycle``, its top first, by the blossom ``bid``.

        ``bid`` takes the top's place, and becomes the root when the top
        was the root.  The other children of the cycle's nodes hang
        under ``bid`` with their subtrees, whose depths shift by the rise
        of their parent.
        """
        top = cycle[0]
        top_depth = self.depth[top]
        if top == self.root:
            self.root = bid
        else:
            up = self.parent[top]
            self.parent[bid] = up
            self.parent_arc[bid] = self.parent_arc[top]
            kids = self.children[up]
            kids[kids.index(top)] = bid
        self.depth[bid] = top_depth
        on_cycle = set(cycle)
        hanging = []
        for c in cycle:
            delta = top_depth - self.depth.pop(c)
            self.parent.pop(c, None)
            self.parent_arc.pop(c, None)
            for x in self.children.pop(c, ()):
                if x not in on_cycle:
                    self.parent[x] = bid
                    hanging.append(x)
                    self._shift(self.subtree(x), delta)
        if hanging:
            self.children[bid] = hanging

    def _attach(self, bid: int, parent: int, arc: Arc) -> None:
        self.parent[bid] = parent
        self.parent_arc[bid] = arc
        self.children.setdefault(parent, []).append(bid)

    def _detach(self, bid: int) -> None:
        kids = self.children[self.parent[bid]]
        kids.remove(bid)
        if not kids:
            del self.children[self.parent[bid]]

    def _shift(self, nodes: set[int], delta: int) -> None:
        if delta:
            for b in nodes:
                self.depth[b] += delta


def find_cycle_blossom(
    view: TreeView, omega: LaminarBlossomSet, g_arc: Arc
) -> tuple[list[int], list[Arc]]:
    """Cycle data for contracting the tree arc ``g_arc`` joins.

    ``g_arc`` must connect two distinct outer vertices of the tree.  The
    result is the unique odd cycle through their tree paths to the
    lowest common ancestor: a child list in cycle order (the ancestor
    first) and the cycle arcs, ready for ``LaminarBlossomSet.contract``.
    """
    bu, bv = omega.root(g_arc.tail), omega.root(g_arc.head)
    for b in (bu, bv):
        if not view.contains(b):
            raise PreconditionError(f"blossom {b} not in this tree", code="different-trees")
        if not view.is_outer(b):
            raise PreconditionError(f"blossom {b} is not outer", code="endpoints-not-outer")
    if bu == bv:
        raise PreconditionError("arc lies inside one blossom", code="endpoints-not-outer")
    up_u = view.path_to_root(bu)
    up_v = view.path_to_root(bv)
    on_u = set(up_u)
    top = next(b for b in up_v if b in on_u)
    path_u = up_u[: up_u.index(top) + 1]  # bu .. top
    path_v = up_v[: up_v.index(top) + 1]  # bv .. top
    # Cycle order: top, down to bu, across g_arc, back up from bv.
    children = list(reversed(path_u)) + path_v[:-1]
    arcs: list[Arc] = []
    for node in reversed(path_u[:-1]):  # downward: parent's arc into node
        arcs.append(view.parent_arc[node])
    arcs.append(g_arc)
    for node in path_v[:-1]:  # upward: reverse of node's parent arc
        arcs.append(view.parent_arc[node].reverse())
    return children, arcs


# -- lifting ------------------------------------------------------------------


def lift_even_path(
    omega: LaminarBlossomSet, mate: MateArray, bid: int, target: int
) -> list[int]:
    """Even alternating path from ``base(bid)`` to ``target`` inside the blossom.

    The path starts with an unmatched edge at the base (or is a single
    vertex), alternates, and ends with a matched edge at ``target``.
    """
    if omega.is_trivial(bid):
        if target != bid:
            raise PreconditionError(
                f"vertex {target} not in trivial blossom {bid}", code="not-in-blossom"
            )
        return [target]
    b = omega.blossoms[bid]
    if target not in b.members:
        raise PreconditionError(
            f"vertex {target} not in blossom {bid}", code="not-in-blossom"
        )
    idx = next(i for i, c in enumerate(b.children) if target in omega.members_of(c))
    if idx == 0:
        return lift_even_path(omega, mate, b.children[0], target)
    k = len(b.children)
    if idx % 2 == 0:
        # Forward around the cycle: arrive at children[idx] on a matched arc.
        seq = list(range(0, idx + 1))
        conns = [b.cycle_arcs[j] for j in range(0, idx)]
    else:
        # Backward: traverse cycle arcs reversed, arrive on a matched arc.
        seq = [0] + list(range(k - 1, idx - 1, -1))
        conns = [b.cycle_arcs[j].reverse() for j in range(k - 1, idx - 1, -1)]
    ids = [b.children[j] for j in seq]
    # The last child is entered by a matched arc, on its base.
    head = lift_full_path(omega, mate, ids[:-1], conns[:-1])
    return head + lift_even_path(omega, mate, ids[-1], target)


def lift_full_path(
    omega: LaminarBlossomSet,
    mate: MateArray,
    blossom_ids: list[int],
    connectors: list[Arc],
) -> list[int]:
    """Lift a contracted path to a full graph path.

    ``blossom_ids`` is the path in the contracted graph; ``connectors[j]``
    is the exact graph arc from ``blossom_ids[j]`` to ``blossom_ids[j+1]``.
    One rule crosses each blossom: one entered by an unmatched arc is
    crossed from the entry vertex back to its base; any other (the
    first, or one entered by a matched arc, on its base) from its base
    to the tail of the next connector, or to its own base at the end.
    The ends are thus the bases of the end blossoms.  The result is not
    checked against the graph here; ``PhaseState.op_augment`` does that.
    """
    if len(connectors) != len(blossom_ids) - 1:
        raise InternalConsistencyError("connector count must be len(ids) - 1")
    out: list[int] = []
    for j, bid in enumerate(blossom_ids):
        entry = connectors[j - 1] if j > 0 else None
        if entry is not None and mate[entry.tail] != entry.head:
            out.extend(reversed(lift_even_path(omega, mate, bid, entry.head)))
        else:
            end = connectors[j].tail if j < len(connectors) else omega.base_of(bid)
            out.extend(lift_even_path(omega, mate, bid, end))
    return out
