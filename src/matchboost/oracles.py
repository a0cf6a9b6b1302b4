"""Matching oracles and the counting wrapper around them.

Two oracle shapes are used by the engine:

* a *matching oracle* has a declared approximation constant ``c`` and a
  ``find(g)`` method returning a matching of size at least ``mu(g)/c``;
* a *weak oracle* is bound to a host and answers induced-subgraph
  queries ``query(s, delta)`` with either a matching of ``host[s]`` of
  size at least ``lam * delta * n`` or None, and may answer None only
  when ``mu(host[s]) < delta * n``.  A host is a ``Graph`` or a
  ``dynamic.DoubleCover``: anything with the members of :class:`Host`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Protocol

from .errors import OracleContractError, PreconditionError
from .graph import Edge, Graph, Matching, edge_key


class GreedyOracle:
    """Inclusion-wise maximal matching; a 2-approximation.

    Edges are scanned in sorted order, so the result is deterministic.
    Passing a seed shuffles the scan order reproducibly instead.
    """

    c = 2

    def __init__(self, seed: int | None = None):
        self.seed = seed

    def find(self, g: Graph) -> Matching:
        edges = sorted(g.edges)
        if self.seed is not None:
            random.Random(self.seed).shuffle(edges)
        m = Matching(g.n)
        for u, v in edges:
            if m.mate[u] is None and m.mate[v] is None:
                m.add(u, v)
        return m


# -- exact maximum matching (blossom search) ---------------------------------


def _blossom_mcm(n: int, adj: list[list[int]]) -> list[int]:
    """Array-based blossom algorithm; returns the mate array (-1 = free).

    A search costs what its forest touches: it lists the vertices it
    puts in the forest, and the next search resets only those.  A
    contraction costs what it absorbs: each non-trivial base keeps the
    list of vertices it stands for, so a new blossom relabels only the
    members of the bases it swallows, not the whole forest.
    """
    match = [-1] * n
    # Cheap maximal matching first; the search then only runs from the
    # leftover free vertices.
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break

    p = [-1] * n  # parent in the alternating forest
    base = list(range(n))
    used = [False] * n  # in the queue: an outer vertex
    touched: list[int] = []  # the forest of the last search, each vertex once
    members: dict[int, list[int]] = {}  # non-trivial base -> the vertices it stands for
    seen = [0] * n  # seen[x] == stamp: x is on the first path of this lca
    stamp = 0

    def lca(a: int, b: int) -> int:
        nonlocal stamp
        stamp += 1
        x = a
        while True:
            x = base[x]
            seen[x] = stamp
            if match[x] == -1:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if seen[y] == stamp:
                return y
            y = p[match[y]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> int:
        for i in touched:
            p[i] = -1
            base[i] = i
            used[i] = False
        touched.clear()
        members.clear()
        touched.append(root)
        used[root] = True
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # Odd cycle found: contract the blossom.  The vertices
                    # of ``curbase`` are already outer, so only those of
                    # the other bases move, visited in ascending order.
                    curbase = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    blossom.discard(curbase)
                    absorbed: list[int] = []
                    for b in blossom:
                        absorbed += members.pop(b, (b,))
                    absorbed.sort()
                    for i in absorbed:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
                    members.setdefault(curbase, [curbase]).extend(absorbed)
                elif p[to] == -1:
                    # Neither ``to`` nor its mate is in the forest yet.
                    p[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    touched.append(match[to])
                    queue.append(match[to])
        return -1

    for v in range(n):
        # A free vertex with no edges has nothing to find; skipping it
        # also spares resetting the last search's forest.
        if match[v] == -1 and adj[v]:
            u = find_path(v)
            if u == -1:
                continue
            while u != -1:
                pv = p[u]
                ppv = match[pv]
                match[u] = pv
                match[pv] = u
                u = ppv
    return match


class ExactOracle:
    """Maximum cardinality matching; the c = 1 oracle."""

    c = 1

    def find(self, g: Graph) -> Matching:
        mate = _blossom_mcm(g.n, g.adj)
        m = Matching(g.n)
        for u in range(g.n):
            v = mate[u]
            if v > u:
                m.add(u, v)
        return m


def exact_mcm(g: Graph) -> Matching:
    return ExactOracle().find(g)


class AdversarialOracle:
    """Returns exactly ceil(mu/c) edges of a maximum matching.

    The worst matching a c-approximate oracle is allowed to return, used
    to stress the boosting engine.  It keeps the first ceil(mu/c) pairs
    ``(u, mate[u])`` of the blossom matcher's mate array with
    ``u < mate[u]``, in ascending ``u``: the smallest edges of that
    maximum matching.
    """

    def __init__(self, c_target: int):
        if c_target < 1:
            raise ValueError(f"approximation constant must be >= 1, got {c_target}")
        self.c = c_target

    def find(self, g: Graph) -> Matching:
        mate = _blossom_mcm(g.n, g.adj)
        pairs = [(u, v) for u, v in enumerate(mate) if v > u]
        keep = -(-len(pairs) // self.c)  # ceil
        m = Matching(g.n)
        for u, v in pairs[:keep]:
            m.add(u, v)
        return m


def make_oracle(name: str, seed: int | None = None):
    """Oracle registry used by the CLI: exact | greedy | adversarial:<c>."""
    if name == "exact":
        return ExactOracle()
    if name == "greedy":
        return GreedyOracle(seed)
    if name.startswith("adversarial"):
        c = int(name.split(":", 1)[1]) if ":" in name else 2
        return AdversarialOracle(c)
    raise ValueError(f"unknown oracle {name!r}")


# -- weak oracles -------------------------------------------------------------


class Host(Protocol):
    """What a weak oracle reads of its host."""

    n: int

    def has_edge(self, u: int, v: int) -> bool: ...

    def induced(self, vertices: Iterable[int]) -> tuple[Graph, list[int]]: ...


class WeakFromMatchingOracle:
    """Induced-subgraph weak oracle built from a matching oracle.

    Bound to a host.  ``query(s, delta)`` runs the inner oracle on
    ``host[s]`` and reports None when the found matching is smaller than
    ``lam * delta * n``, with ``lam = 1/c`` for a c-approximate inner
    oracle.
    """

    def __init__(self, host: Host, inner):
        self.host = host
        self.inner = inner
        self.lam = 1.0 / inner.c

    def query(self, s: set[int], delta: float) -> list[Edge] | None:
        sub, back = self.host.induced(s)
        found = self.inner.find(sub)
        # The answer's edges take the place of the subgraph's, not their sum.
        del sub
        threshold = self.lam * delta * self.host.n
        if len(found) < threshold:
            return None
        return sorted(edge_key(back[u], back[v]) for u, v in found.edges)


def weak_from_exact(host: Host) -> WeakFromMatchingOracle:
    return WeakFromMatchingOracle(host, ExactOracle())


def weak_from_greedy(host: Host) -> WeakFromMatchingOracle:
    return WeakFromMatchingOracle(host, GreedyOracle())


def make_weak_backend(name: str):
    """Weak-oracle factory registry: weak-exact | weak-greedy.

    Returns a callable binding a host to a fresh weak oracle.
    """
    if name == "weak-exact":
        return weak_from_exact
    if name == "weak-greedy":
        return weak_from_greedy
    raise ValueError(f"unknown weak backend {name!r}")


# -- counting -----------------------------------------------------------------


@dataclass
class OracleStats:
    """What happened across the counted calls.

    ``processing_steps`` holds one entry per engine processing step: the
    largest component (structure) size the step touched, copied from
    each phase's ``PhaseState.steps`` by ``engine.run_scales``.  The
    reporting layer derives the simulated round models from them.
    """

    calls: int = 0
    weak_calls: int = 0
    weak_bottoms: int = 0
    processing_steps: list[int] = field(default_factory=list)


def check_answer(g: Graph, m: Matching, call: int) -> None:
    """Raise :class:`OracleContractError` unless ``m`` is a fit answer for ``g``.

    ``m`` must be sized for ``g``, hold only edges of ``g`` and cover no
    vertex twice, counted from its edges rather than its ``mate`` array.
    It must be nonempty when ``g`` has an edge: a c-approximate oracle
    returns at least mu/c >= 1/c > 0 edges.  Costs O(|m|).
    """
    if m.n != g.n:
        raise OracleContractError(
            f"oracle call {call}: answer is sized for {m.n} vertices, the graph has {g.n}"
        )
    covered: set[int] = set()
    for u, v in m.edges:
        if not g.has_edge(u, v):
            raise OracleContractError(
                f"oracle call {call}: ({u}, {v}) is not an edge of the graph"
            )
        for x in (u, v):
            if x in covered:
                raise OracleContractError(f"oracle call {call}: vertex {x} is covered twice")
            covered.add(x)
    if not m.edges and g.m > 0:
        raise OracleContractError(
            f"oracle call {call}: empty matching on a graph with {g.m} edges"
        )


class CountedOracle:
    """Counting wrapper; wrapping a wrapped oracle composes the counts.

    Every answer is checked by :func:`check_answer` before it is counted.
    """

    def __init__(self, inner):
        self.inner = inner
        self.stats = OracleStats()
        self.c = inner.c

    def find(self, g: Graph) -> Matching:
        m = self.inner.find(g)
        check_answer(g, m, self.stats.calls + 1)
        self.stats.calls += 1
        return m


class CountedWeakOracle:
    """Counting wrapper for weak oracles; exposes the same query shape."""

    def __init__(self, inner):
        self.inner = inner
        self.stats = OracleStats()
        self.lam = inner.lam

    def query(self, s: set[int], delta: float) -> list[Edge] | None:
        out = self.inner.query(s, delta)
        self.stats.weak_calls += 1
        if out is None:
            self.stats.weak_bottoms += 1
        return out


# The members of each oracle shape.
SHAPES = {"matching": ("find", "c"), "weak": ("query", "lam")}


def require_shape(oracle, shape: str, role: str) -> None:
    """Raise :class:`PreconditionError` unless ``oracle`` has the members of ``shape``."""
    members = SHAPES[shape]
    if not all(hasattr(oracle, name) for name in members):
        raise PreconditionError(
            f"{role} must be a {shape} oracle with {' and '.join(members)}, "
            f"got {type(oracle).__name__}"
        )


def counted(oracle) -> CountedOracle | CountedWeakOracle:
    """Wrap either oracle shape with call counting; a counted one is returned as is."""
    if isinstance(oracle, (CountedOracle, CountedWeakOracle)):
        return oracle
    if hasattr(oracle, "query"):
        return CountedWeakOracle(oracle)
    return CountedOracle(oracle)
