"""Seeded graph generators for experiments and tests.

Everything here is deterministic from its arguments: the same spec and
seed always produce the identical graph, which is what makes failing
trials replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PreconditionError
from .graph import Graph, edge_key


def gen_path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError(f"cycle needs >= 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_long_paths(k: int, copies: int) -> Graph:
    """``copies`` disjoint paths on ``2k + 2`` vertices each.

    In each copy the ``2k`` inner vertices come first, in path order,
    then the two ends.  Scanning edges in sorted order, a greedy
    matching takes every other inner edge and leaves both ends free:
    one augmenting path of ``2k + 1`` edges per copy, which a search
    capped below that length cannot find.
    """
    if k < 1 or copies < 0:
        raise PreconditionError(f"need k >= 1 and copies >= 0, got k = {k}, copies = {copies}")
    size = 2 * k + 2
    g = Graph(size * copies)
    for base in range(0, size * copies, size):
        inner = range(base, base + 2 * k)
        for v in inner[:-1]:
            g.add_edge(v, v + 1)
        g.add_edge(base + 2 * k, inner[0])
        g.add_edge(inner[-1], base + 2 * k + 1)
    return g


def gen_er(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, p), edges decided in fixed (u, v) order."""
    rng = random.Random(seed)
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def gen_bipartite(n_left: int, n_right: int, p: float, seed: int) -> Graph:
    """Random bipartite graph; left side is ``0 .. n_left - 1``."""
    rng = random.Random(seed)
    g = Graph(n_left + n_right)
    for u in range(n_left):
        for v in range(n_left, n_left + n_right):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def gen_blossom_gadget(petals: int, petal_len: int = 5, tail: int = 2) -> Graph:
    """Odd cycles glued at a hub, each with a pendant path.

    Greedy matchers tend to orphan the hub side of each petal, so these
    graphs exercise contraction and the approximation gap.
    """
    if petals < 1 or petal_len < 3 or petal_len % 2 == 0:
        raise PreconditionError("petals >= 1 and odd petal_len >= 3 required")
    edges: list[tuple[int, int]] = []
    hub = 0
    nxt = 1
    for _ in range(petals):
        cyc = [hub] + list(range(nxt, nxt + petal_len - 1))
        nxt += petal_len - 1
        for i in range(len(cyc)):
            edges.append((cyc[i], cyc[(i + 1) % len(cyc)]))
        anchor = cyc[len(cyc) // 2]
        for _ in range(tail):
            edges.append((anchor, nxt))
            anchor = nxt
            nxt += 1
    return Graph(nxt, edges)


def gen_planted(n: int, coverage: float, extra: float, seed: int) -> Graph:
    """Random graph with a planted matching on ``coverage`` of the vertices.

    The planted edges guarantee a large matching; ``extra * n`` random
    edges are layered on top.  The true maximum may exceed the plant.
    """
    rng = random.Random(seed)
    g = Graph(n)
    vs = list(range(n))
    rng.shuffle(vs)
    k = int(coverage * n / 2)
    for i in range(k):
        g.add_edge(vs[2 * i], vs[2 * i + 1])
    want = int(extra * n)
    guard = 0
    while want > 0 and guard < 50 * n:
        guard += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
            want -= 1
    return g


GENERATORS = ("path", "cycle", "er", "bipartite", "blossom-gadget", "planted")


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: a generator kind plus its knobs, all seeded."""

    kind: str
    trials: int = 1
    n: int = 16
    n_max: int | None = None
    p: float = 0.15
    petals: int = 3
    coverage: float = 0.8
    extra: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATORS and self.kind != "mixed":
            raise PreconditionError(f"unknown generator kind {self.kind!r}")
        if self.trials < 0:
            raise PreconditionError(f"trials must be non-negative, got {self.trials}")
        if not 0.0 <= self.p <= 1.0:
            raise PreconditionError(f"p must be in [0, 1], got {self.p}")
        if self.n_max is not None and self.n_max < self.n:
            raise PreconditionError(f"n_max {self.n_max} is below n {self.n}")


def build_one(spec: CorpusSpec, trial: int) -> tuple[str, Graph]:
    """Instance ``trial`` of a spec; (name, graph), both seed-determined."""
    rng = random.Random(spec.seed * 1_000_003 + trial)
    hi = spec.n_max or spec.n
    n = spec.n if hi <= spec.n else rng.randint(spec.n, hi)
    sub = rng.randrange(1 << 30)
    kind = spec.kind
    if kind == "mixed":
        kind = GENERATORS[trial % len(GENERATORS)]
    if kind == "path":
        g = gen_path(n)
    elif kind == "cycle":
        g = gen_cycle(max(3, n))
    elif kind == "er":
        g = gen_er(n, spec.p, sub)
    elif kind == "bipartite":
        g = gen_bipartite(n // 2, n - n // 2, min(1.0, 2 * spec.p), sub)
    elif kind == "blossom-gadget":
        petals = max(1, min(spec.petals, n // 6)) if spec.kind == "mixed" else spec.petals
        g = gen_blossom_gadget(petals)
    elif kind == "planted":
        g = gen_planted(n, spec.coverage, spec.extra, sub)
    else:
        raise PreconditionError(f"unknown generator kind {kind!r}")
    return f"{kind}-{trial:04d}-n{g.n}", g


def build_corpus(spec: CorpusSpec) -> list[tuple[str, Graph]]:
    return [build_one(spec, t) for t in range(spec.trials)]


def standard_corpus(trials: int, n_lo: int, n_hi: int, seed: int) -> list[tuple[str, Graph]]:
    """The mixed benchmark corpus: even rotation over all generator kinds."""
    spec = CorpusSpec(kind="mixed", trials=trials, n=n_lo, n_max=n_hi, seed=seed)
    return build_corpus(spec)


def gen_update_stream(
    n: int, count: int, seed: int, remove_frac: float = 0.25, empty_frac: float = 0.1
) -> list[tuple]:
    """Random valid update stream: adds, removes of present edges, empties."""
    rng = random.Random(seed)
    present: list[tuple[int, int]] = []
    have: set[tuple[int, int]] = set()
    out: list[tuple] = []
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        r = rng.random()
        if r < empty_frac:
            out.append((".",))
        elif r < empty_frac + remove_frac and present:
            i = rng.randrange(len(present))
            u, v = present.pop(i)
            have.remove((u, v))
            out.append(("-", u, v))
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or edge_key(u, v) in have:
                continue
            k = edge_key(u, v)
            present.append(k)
            have.add(k)
            out.append(("+", k[0], k[1]))
    while len(out) < count:
        out.append((".",))
    return out


def format_update_stream(updates: list[tuple]) -> str:
    lines = []
    for rec in updates:
        lines.append("." if rec[0] == "." else f"{rec[0]} {rec[1]} {rec[2]}")
    return "\n".join(lines) + "\n"
