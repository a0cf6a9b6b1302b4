"""Core graph and matching types.

Vertices are dense integers ``0 .. n-1``.  Edges are unordered pairs,
stored canonically as ``(min, max)`` tuples; directed *arcs* are plain
``(tail, head)`` tuples and exist only as two views of an edge.  Graphs
are simple: no self loops, no parallel edges.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DuplicateEdgeError,
    GraphFormatError,
    InvalidPathError,
    SelfLoopError,
    UnknownVertexError,
)

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical form of the edge {u, v}."""
    return (u, v) if u <= v else (v, u)


class Arc(NamedTuple):
    """A directed view (tail, head) of an edge."""

    tail: int
    head: int

    def reverse(self) -> "Arc":
        return Arc(self.head, self.tail)


class Graph:
    """An undirected simple graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : iterable of (int, int)
        Edge list.  Endpoints must lie in ``[0, n)``, be distinct, and
        no edge may appear twice (in either orientation).  Each edge is
        appended to both adjacency lists in the order given.
    """

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise GraphFormatError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.edges: set[Edge] = set()
        self._sorted_adj: list[Sequence[int]] | None = None
        # Component labels, filled per component by ``side``: the
        # component's smallest vertex (-1 while unlabelled), and the side,
        # 0 or 1, or -1 in a component with an odd cycle.
        self._comp: list[int] | None = None
        self._side: list[int] = []
        self._add_edges(edges)

    def add_edge(self, u: int, v: int) -> None:
        self._add_edges(((u, v),))

    def _add_edges(self, edges: Iterable[Edge]) -> None:
        """Add each edge in turn, checked for range, self loop and duplicate.

        The one path by which edges enter a graph.  The checks run
        inline, since a graph of many edges is built in one call.
        """
        n, adj, seen = self.n, self.adj, self.edges
        self._sorted_adj = self._comp = None
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertexError(f"edge ({u}, {v}) outside vertex range [0, {n})")
            if u == v:
                raise SelfLoopError(f"self loop at vertex {u}")
            k = (u, v) if u < v else (v, u)
            if k in seen:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            seen.add(k)
            adj[u].append(v)
            adj[v].append(u)

    def remove_edge(self, u: int, v: int) -> None:
        k = edge_key(u, v)
        if k not in self.edges:
            raise UnknownVertexError(f"edge ({u}, {v}) not present")
        self.edges.remove(k)
        self.adj[u].remove(v)
        self.adj[v].remove(u)
        self._sorted_adj = self._comp = None

    @property
    def sorted_adj(self) -> list[Sequence[int]]:
        """Every adjacency list in ascending order; read-only.

        Built on first use and kept until ``add_edge`` or
        ``remove_edge`` changes the graph, so the phases of one run
        share it.  The vertices with no edge share one empty tuple.
        """
        if self._sorted_adj is None:
            self._sorted_adj = [sorted(a) if a else () for a in self.adj]
        return self._sorted_adj

    def side(self, v: int) -> tuple[int, int | None]:
        """``(component, side)`` of the vertex ``v``.

        ``component`` is the smallest vertex of ``v``'s connected
        component.  ``side`` is 0 or 1 by the parity of the distance
        from that vertex when the component is bipartite, and ``None``
        when it has an odd cycle.  The first call for any vertex of a
        component labels the whole component by one breadth-first
        search, so a caller pays only for the components it asks about.
        The labels are kept until ``add_edge`` or ``remove_edge`` changes
        the graph, as ``sorted_adj`` is.
        """
        comp = self._comp
        if comp is None:
            comp = self._comp = [-1] * self.n
            self._side = [0] * self.n
        if comp[v] < 0:
            self._label_component(v)
        s = self._side[v]
        return comp[v], (None if s < 0 else s)

    def _label_component(self, r: int) -> None:
        adj, comp, side = self.adj, self._comp, self._side
        comp[r], side[r] = r, 0
        members, bipartite = [r], True
        for v in members:
            for w in adj[v]:
                if comp[w] < 0:
                    comp[w], side[w] = r, side[v] ^ 1
                    members.append(w)
                elif side[w] == side[v]:
                    bipartite = False
        low = min(members)
        flip = side[low]
        for v in members:
            comp[v] = low
            side[v] = side[v] ^ flip if bipartite else -1

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    @property
    def m(self) -> int:
        return len(self.edges)

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def arcs(self) -> Iterator[Arc]:
        """Both orientations of every edge."""
        for u, v in self.edges:
            yield Arc(u, v)
            yield Arc(v, u)

    # -- derived graphs ------------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Subgraph induced on ``vertices``, relabelled densely.

        Returns ``(sub, back)`` where ``back[i]`` is the original id of
        the subgraph vertex ``i``.
        """
        back = sorted(set(vertices))
        fwd = {v: i for i, v in enumerate(back)}
        pairs = ((fwd[v], fwd[w]) for v in back for w in self.adj[v] if v < w and w in fwd)
        return Graph(len(back), pairs), back

    def copy(self) -> "Graph":
        """An independent copy whose adjacency lists keep their order."""
        new = Graph(self.n)
        new.adj = [list(a) for a in self.adj]
        new.edges = set(self.edges)
        return new

    # -- serialization ---------------------------------------------------------

    def to_edge_list(self) -> str:
        lines = [f"# n={self.n}"]
        lines += [f"{u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": sorted(self.edges)})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _parse_edge_pairs(text: str) -> tuple[list[Edge], int | None]:
    """Parse "u v" lines; '#' starts a comment.  Returns (pairs, max id seen)."""
    pairs: list[Edge] = []
    hi: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"expected two fields, got {len(fields)}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex id in {fields!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative vertex id in ({u}, {v})", lineno)
        pairs.append((u, v))
        hi = max(hi if hi is not None else -1, u, v)
    return pairs, hi


def load_graph(text: str, n: int | None = None) -> Graph:
    """Build a :class:`Graph` from edge-list text or a JSON object.

    Edge-list format: one ``"u v"`` pair per line, ``#`` comments allowed.
    JSON format: ``{"n": int, "edges": [[u, v], ...]}``.  For edge lists,
    ``n`` defaults to one past the largest vertex id seen.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"bad JSON: {exc}") from None
        if not isinstance(obj.get("n"), int) or not isinstance(obj.get("edges"), list):
            raise GraphFormatError('JSON graph needs integer "n" and list "edges"')
        g = Graph(obj["n"])
        for e in obj["edges"]:
            if not (isinstance(e, list) and len(e) == 2):
                raise GraphFormatError(f"bad edge entry {e!r}")
            g.add_edge(e[0], e[1])
        return g
    pairs, hi = _parse_edge_pairs(text)
    if n is None:
        n = (hi + 1) if hi is not None else 0
    g = Graph(n)
    for u, v in pairs:
        g.add_edge(u, v)
    return g


class Matching:
    """A set of pairwise vertex-disjoint edges, with O(1) mate lookup."""

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        self.n = n
        self.mate: list[int | None] = [None] * n
        self.edges: set[Edge] = set()
        for u, v in edges:
            self.add(u, v)

    def add(self, u: int, v: int) -> None:
        if u == v:
            raise SelfLoopError(f"self loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise UnknownVertexError(f"matched pair ({u}, {v}) outside [0, {self.n})")
        if self.mate[u] is not None or self.mate[v] is not None:
            raise InvalidPathError(f"vertex covered twice by matched pair ({u}, {v})")
        self.mate[u] = v
        self.mate[v] = u
        self.edges.add(edge_key(u, v))

    def discard(self, u: int, v: int) -> None:
        k = edge_key(u, v)
        if k in self.edges:
            self.edges.remove(k)
            self.mate[k[0]] = None
            self.mate[k[1]] = None

    def covers(self, v: int) -> bool:
        return self.mate[v] is not None

    def has(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def __len__(self) -> int:
        return len(self.edges)

    def copy(self) -> "Matching":
        return Matching(self.n, self.edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matching) and self.n == other.n and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"Matching(n={self.n}, size={len(self.edges)})"


def load_matching(text: str, n: int) -> Matching:
    pairs, hi = _parse_edge_pairs(text)
    if hi is not None and hi >= n:
        raise UnknownVertexError(f"matching mentions vertex {hi}, graph has {n}")
    return Matching(n, pairs)


def is_matching(g: Graph, m: Matching) -> bool:
    """True iff every edge of ``m`` is an edge of ``g`` and no vertex repeats."""
    if m.n != g.n:
        return False
    seen: set[int] = set()
    for u, v in m.edges:
        if not g.has_edge(u, v):
            return False
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def free_vertices_with_edge(g: Graph, m: Matching) -> list[int]:
    """Free vertices that have an edge, ascending.

    Only these can end an augmenting path or an edge of a matching, so
    they are all that a seed query or a phase needs of the free ones.
    """
    adj, mate = g.adj, m.mate
    return [v for v in range(g.n) if mate[v] is None and adj[v]]


class AltPath:
    """A walk stored as its full vertex sequence.

    The compressed rendering used in reports lists only the matched
    arcs; unmatched connector arcs are implied by adjacency of the
    matched ones and by the optional free endpoints.
    """

    def __init__(self, vertices: list[int]):
        self.vertices = list(vertices)

    def __len__(self) -> int:
        return max(0, len(self.vertices) - 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AltPath) and self.vertices == other.vertices

    def __repr__(self) -> str:
        return f"AltPath({self.vertices})"

    def edges(self) -> list[Edge]:
        vs = self.vertices
        return [edge_key(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]

    def validate(self, g: Graph, m: Matching) -> None:
        """Check simplicity, edge existence, and strict alternation."""
        vs = self.vertices
        if len(set(vs)) != len(vs):
            raise InvalidPathError(f"repeated vertex in path {vs}")
        flags = []
        for i in range(len(vs) - 1):
            if not g.has_edge(vs[i], vs[i + 1]):
                raise InvalidPathError(f"({vs[i]}, {vs[i + 1]}) is not an edge")
            flags.append(m.has(vs[i], vs[i + 1]))
        for a, b in zip(flags, flags[1:]):
            if a == b:
                raise InvalidPathError(f"path does not alternate at flags {flags}")

    def is_augmenting(self, m: Matching) -> bool:
        vs = self.vertices
        if len(vs) < 2 or len(vs) % 2 != 0:
            return False
        if m.covers(vs[0]) or m.covers(vs[-1]):
            return False
        for i in range(len(vs) - 1):
            want_matched = i % 2 == 1
            if m.has(vs[i], vs[i + 1]) != want_matched:
                return False
        return True


def augment_all(m: Matching, paths: Iterable[AltPath]) -> Matching:
    """Apply a collection of vertex-disjoint augmenting paths in order.

    Each path must start and end at free vertices, repeat no vertex and
    alternate unmatched/matched, checked against the matching left by
    the ones before it; a path that is not raises ``InvalidPathError``.
    Returns a new matching; ``m`` itself is not modified.
    """
    out = m.copy()
    for p in paths:
        vs = p.vertices
        if len(set(vs)) != len(vs):
            raise InvalidPathError(f"repeated vertex in path {vs}")
        if not p.is_augmenting(out):
            raise InvalidPathError(f"path {vs} is not augmenting for the matching")
        for i in range(1, len(vs) - 1, 2):
            out.discard(vs[i], vs[i + 1])
        for i in range(0, len(vs) - 1, 2):
            out.add(vs[i], vs[i + 1])
    return out
