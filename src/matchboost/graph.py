"""Core graph and matching types.

Vertices are dense integers ``0 .. n-1``.  Edges are unordered pairs,
stored canonically as ``(min, max)`` tuples; directed *arcs* are plain
``(tail, head)`` tuples and exist only as two views of an edge.  Graphs
are simple: no self loops, no parallel edges.

A per-vertex ``removed`` flag supports the hypothetical removal used by
the phase engine: removed vertices stay in the vertex range but are
skipped by the operations that honour the flag.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, NamedTuple

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
        no edge may appear twice (in either orientation).
    """

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise GraphFormatError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.edges: set[Edge] = set()
        self.removed: list[bool] = [False] * n
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise UnknownVertexError(f"edge ({u}, {v}) outside vertex range [0, {self.n})")
        if u == v:
            raise SelfLoopError(f"self loop at vertex {u}")
        k = edge_key(u, v)
        if k in self.edges:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        self.edges.add(k)
        self.adj[u].append(v)
        self.adj[v].append(u)

    def remove_edge(self, u: int, v: int) -> None:
        k = edge_key(u, v)
        if k not in self.edges:
            raise UnknownVertexError(f"edge ({u}, {v}) not present")
        self.edges.remove(k)
        self.adj[u].remove(v)
        self.adj[v].remove(u)

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

    # -- hypothetical removal ------------------------------------------------

    def remove_vertices(self, vs: Iterable[int]) -> None:
        for v in vs:
            self.removed[v] = True

    def clear_removed(self) -> None:
        self.removed = [False] * self.n

    # -- derived graphs ------------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Subgraph induced on ``vertices``, relabelled densely.

        Returns ``(sub, back)`` where ``back[i]`` is the original id of
        the subgraph vertex ``i``.
        """
        back = sorted(set(vertices))
        fwd = {v: i for i, v in enumerate(back)}
        sub = Graph(len(back))
        for v in back:
            for w in self.adj[v]:
                if v < w and w in fwd:
                    sub.add_edge(fwd[v], fwd[w])
        return sub, back

    def copy(self) -> "Graph":
        g = Graph(self.n, self.edges)
        g.removed = list(self.removed)
        return g

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

    def to_edge_list(self) -> str:
        lines = [f"# n={self.n}"]
        lines += [f"{u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + "\n"

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
    """True iff every edge of ``m`` is an edge of ``g`` and no vertex repeats.

    The ``removed`` flags are ignored: a matching may keep covering
    vertices that a phase hypothetically removed.
    """
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


def free_vertices(g: Graph, m: Matching) -> list[int]:
    """Non-removed vertices with no incident matched edge, ascending."""
    return [v for v in range(g.n) if not g.removed[v] and m.mate[v] is None]


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


def augment_along(m: Matching, p: AltPath) -> Matching:
    """Symmetric difference of ``m`` with an augmenting path.

    ``p`` must start and end at free vertices, have pairwise-distinct
    vertices, and alternate unmatched/matched.  Returns a new matching
    one edge larger.
    """
    out = m.copy()
    _augment_in_place(out, p)
    return out


def _augment_in_place(m: Matching, p: AltPath) -> None:
    vs = p.vertices
    if len(set(vs)) != len(vs):
        raise InvalidPathError(f"repeated vertex in path {vs}")
    if not p.is_augmenting(m):
        raise InvalidPathError(f"path {vs} is not augmenting for the matching")
    for i in range(1, len(vs) - 1, 2):
        m.discard(vs[i], vs[i + 1])
    for i in range(0, len(vs) - 1, 2):
        m.add(vs[i], vs[i + 1])


def augment_all(m: Matching, paths: Iterable[AltPath]) -> Matching:
    """Apply a collection of vertex-disjoint augmenting paths in order.

    Each path is checked against the matching left by the ones before
    it.  Returns a new matching; ``m`` itself is not modified.
    """
    out = m.copy()
    for p in paths:
        _augment_in_place(out, p)
    return out
