"""Weak-oracle pipeline: sampled simulations over induced subgraphs.

The scale, phase and simulation loops are the engine's own
(``engine.run_scales``, ``run_phase``, ``extend_active_path`` and
``contract_and_augment``); a ``SampledFinder`` feeds them one batch per
iteration.  The oracle here only answers induced-subgraph queries
(``query(S, delta)`` with a bottom answer allowed when the subgraph's
matching is small).  An augment batch comes from sampling one outer
vertex per structure and querying the sample
(``sampled_contract_and_augment``), an extension batch from querying
the graph's bipartite double cover (``sampled_extend_active_path``), a
``DoubleCover`` host that answers from the graph without being built.
A harness at the bottom replays update streams of any size in
fixed-size chunks and validates every answer the oracle gives.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from dataclasses import dataclass, field
from typing import Iterable

# perfbench's tracer wraps the names marked unused here.
from .engine import (
    ScaleStats,
    TraceHooks,
    backtrack_pass,  # unused
    build_h_prime,  # unused
    build_h_prime_s,  # unused
    exhaust_type1,  # unused
    run_scales,
    _head_eligible,
)
from .errors import InternalConsistencyError, PreconditionError
from .graph import (
    Arc,
    Graph,
    Matching,
    augment_all,  # unused
    free_vertices_with_edge,
)
from .oracles import Host, OracleStats, counted, exact_mcm, make_weak_backend, require_shape
from .params import Constants, PhaseParams, normalize_epsilon
from .structures import PhaseState, Structure

# Fruitless sampling iterations in a row after which a stage, or a
# contract-and-augment round, gives up.
SAMPLE_PATIENCE = 12

# Graphs with at most this many vertices go to the exact matcher.
SMALL_N_CUTOFF = 4

# The paper's exponents are delta = eps^107, iteration counts
# 1/(2*lam*delta) + 1, and an exact-matcher fallback on graphs of at most
# eps^-300 vertices, which takes every input small enough to run.  The
# values here (delta = eps^7 in ``static_from_weak``, the two below)
# saturate progress on graphs small enough to test, with early exits
# doing the actual termination work.
#
# Iteration cap of each sampled extension stage and augment round.
SAMPLE_ITERATIONS = 48
# The density promise: the guarantee covers graphs whose maximum
# matching is at least ``DENSITY_COEFF * epsilon * n``.
DENSITY_COEFF = 0.25


# -- double cover ---------------------------------------------------------------


class DoubleCover:
    """Bipartite double cover of a graph: outer copy ``v``, inner copy ``v + n``.

    Each base edge ``(u, v)`` gives the cover edges ``(u, v + n)`` and
    ``(v, u + n)``.  The cover is the weak-oracle host of the extension
    queries: it has the host members ``n``, ``has_edge`` and
    ``induced`` and answers them from the base graph, so it is never
    built.  ``materialize`` builds it for tests that compare against it.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.n = 2 * g.n

    def has_edge(self, x: int, y: int) -> bool:
        n = self.g.n
        if x > y:
            x, y = y, x
        return x < n <= y and self.g.has_edge(x, y - n)

    def induced(self, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
        """Subgraph induced on ``vertices``, as ``Graph.induced`` numbers it.

        Every cover edge has its outer copy as the smaller end, so only
        the outer copies' base neighbours are walked, ascending, as the
        built cover's adjacency lists are.  Costs O(|S| + edges) plus
        the sort of each walked list.
        """
        back = sorted(set(vertices))
        fwd = {x: i for i, x in enumerate(back)}
        n = self.g.n
        adj = self.g.sorted_adj
        pairs = []
        for i, x in enumerate(back):
            if x >= n:
                break
            for w in adj[x]:
                j = fwd.get(w + n)
                if j is not None:
                    pairs.append((i, j))
        return Graph(len(back), pairs), back

    def materialize(self) -> Graph:
        n = self.g.n
        pairs = []
        for u, v in sorted(self.g.edges):
            pairs += [(u, v + n), (v, u + n)]
        return Graph(2 * n, pairs)


# -- initial matching -------------------------------------------------------------


def dyn_initial_matching(g: Graph, weak, epsilon: float) -> Matching:
    """Thirds-approximate seed: query the unmatched set until bottom.

    Sound when the graph's maximum matching is at least
    ``DENSITY_COEFF * epsilon * n``; each non-bottom answer adds at least
    one edge, so the loop always terminates.  Each query names only the
    free vertices that have an edge: the rest add nothing to
    ``mu(g[S])``, and the answer's threshold reads the host's ``n``, not
    ``|S|``, so the answers are those of the whole unmatched set while
    a query costs what the edged part of the graph costs.
    """
    delta = DENSITY_COEFF * epsilon / 3
    m = Matching(g.n)
    for _ in range(g.n + 2):
        res = weak.query(free_vertices_with_edge(g, m), delta)
        if res is None:
            return m
        if not res:
            raise InternalConsistencyError("weak oracle returned an empty matching")
        for u, v in res:
            m.add(u, v)
    raise InternalConsistencyError("seed matching loop failed to converge")


# -- sampled simulations -----------------------------------------------------------


def _sample_one(rng: random.Random, state: PhaseState, s: Structure, outer_only: bool):
    if outer_only:
        root_of, depth = state.omega.root_of, s.view.depth
        pool = sorted(v for v in s.vertices if depth[root_of[v]] % 2 == 0)
    else:
        pool = sorted(s.vertices)
    return pool[rng.randrange(len(pool))]


def sampled_contract_and_augment(
    state: PhaseState, weak_g, delta: float, rng: random.Random
) -> list[Arc]:
    """One augment batch: sample one outer vertex per structure, query the sample.

    Every returned edge must join outer vertices of two distinct
    structures; ``engine.apply_augments`` checks that.  Empty when the
    query answers bottom or nothing.
    """
    sample = [
        _sample_one(rng, state, s, outer_only=True) for s in state.live_structures()
    ]
    return [Arc(u, v) for u, v in sorted(weak_g.query(sorted(sample), delta) or ())]


def _in_structure_sweep(state: PhaseState, stage: int) -> bool:
    """Overtake every in-structure arc that is still feasible at this stage.

    Keeps the invariant that sampled iterations never need to look for
    same-structure work: every such arc that leaves a working vertex,
    read from ``state.boundary_arcs``, has been consumed before the
    oracle is asked.
    """
    changed = False
    # An in-structure overtake changes only its own structure, so the
    # structures ready at the start stay ready until they are visited.
    for s in state.ready_at(stage):
        hit = None
        for x, ys in state.boundary_arcs(s.working):
            for y in ys:
                if state.structure_of.get(y) != s.owner or state.mate[x] == y:
                    continue
                if _head_eligible(state, y, stage):
                    hit = (x, y)
                    break
            if hit:
                break
        if hit:
            x, y = hit
            state.op_overtake(Arc(x, y), Arc(y, state.mate[y]), stage + 1)
            changed = True
    return changed


def sampled_extend_active_path(
    state: PhaseState,
    stage: int,
    weak_b,
    delta: float,
    rng: random.Random,
) -> list[tuple[int, int, int]]:
    """One extension batch of a stage, through a double-cover query.

    Samples one vertex per structure and builds the cover-side query
    set: outer copies of eligible working-vertex samples, inner copies
    of label-eligible inner samples, plus inner copies of the unvisited
    matched vertices when ``stage < ell_max``.  Those are the endpoints
    of the phase's matching that are in no structure and not removed,
    so their matched arc still has its initial label ``ell_max + 1``
    (``checks.check_state`` audits this), which exceeds ``stage + 1``
    exactly then.  Each
    answer edge runs from an outer copy to an inner copy and is
    projected back to an ``(owner, x, y)`` extension.  Empty when the
    query answers bottom or nothing.
    """
    n = state.g.n
    query_set: list[int] = []
    for s in state.live_structures():
        v = _sample_one(rng, state, s, outer_only=False)
        bv = state.omega.root_of[v]
        if s.view.is_outer(bv):
            if s.ready_label == stage and bv == s.working:
                query_set.append(v)
        elif state.head_label(v) > stage + 1:
            query_set.append(v + n)
    if stage < state.params.ell_max:
        removed, structure_of = state.removed, state.structure_of
        query_set += [
            v + n
            for e in state.m.edges
            for v in e
            if not removed[v] and v not in structure_of
        ]
    res = weak_b.query(sorted(query_set), delta) or ()
    return [(state.structure_of.get(p, -1), p, q - n) for p, q in sorted(res)]


class SampledFinder:
    """Finds batches by sampling one vertex per structure for weak queries.

    ``weak_g`` answers on the graph, ``weak_b`` on its double cover, both
    asked at the threshold ``delta``; ``calls`` reads both counters, so
    ``run_scales`` needs them counted.
    Each batch comes from one sample and one weak query, which may miss
    work that exists, so ``SAMPLE_PATIENCE`` empty batches in a row end
    a loop, and the in-structure sweep consumes the in-structure arcs
    that leave a working vertex before every sample.  A loop that stops
    that way may have missed work, so its phase is not settled, and a
    sampled phase without a path may have missed one: a scale stops
    after two such phases in a row.  The generator advances between phases, so no phase repeats
    another, ``replays`` is false and no held phase is resumed.
    The run still ends after a settled phase without a path, which
    certifies the matching whatever the finder (see
    ``engine.run_scales``).
    """

    patience = 2
    fruitless_limit = SAMPLE_PATIENCE
    replays = False

    def __init__(self, weak_g, weak_b, delta: float, rng: random.Random):
        self.weak_g = weak_g
        self.weak_b = weak_b
        self.delta = delta
        self.rng = rng

    @property
    def calls(self) -> int:
        """Weak queries made so far, on the graph and on its cover."""
        return self.weak_g.stats.weak_calls + self.weak_b.stats.weak_calls

    def iterations(self, params: PhaseParams) -> tuple[int, int]:
        return SAMPLE_ITERATIONS, SAMPLE_ITERATIONS

    def sweep(self, state: PhaseState, stage: int) -> bool:
        return _in_structure_sweep(state, stage)

    def extension_batch(self, state: PhaseState, stage: int, pairs, hooks=None):
        return sampled_extend_active_path(state, stage, self.weak_b, self.delta, self.rng)

    def augment_batch(self, state: PhaseState, pairs, hooks=None) -> list[Arc]:
        return sampled_contract_and_augment(state, self.weak_g, self.delta, self.rng)


# -- full pipeline -----------------------------------------------------------------


@dataclass
class DynRunResult:
    matching: Matching
    epsilon: float
    stats_g: OracleStats
    stats_b: OracleStats
    fallback: bool = False
    warned: bool = False
    per_scale: list[ScaleStats] = field(default_factory=list)

    @property
    def weak_calls(self) -> int:
        return self.stats_g.weak_calls + self.stats_b.weak_calls


def static_from_weak(
    g: Graph,
    epsilon: float,
    backend: str = "weak-exact",
    *,
    seed: int = 0,
    constants: Constants | None = None,
    hooks: TraceHooks | None = None,
    weak_g=None,
    weak_b=None,
) -> DynRunResult:
    """Boost to (1 + epsilon) using only induced-subgraph weak queries.

    Falls back to the exact matcher on graphs of at most
    ``SMALL_N_CUTOFF`` vertices or with no edge.  Warns,
    without failing, when the seed matching shows the graph is too
    sparse for the guarantee's density promise.
    """
    eps = normalize_epsilon(epsilon)
    for role, weak in (("weak_g", weak_g), ("weak_b", weak_b)):
        if weak is not None:
            require_shape(weak, "weak", role)
    consts = constants or Constants()
    if g.n <= SMALL_N_CUTOFF or g.m == 0:
        return DynRunResult(exact_mcm(g), eps, OracleStats(), OracleStats(), True)
    rng = random.Random(seed)
    if weak_g is None:
        weak_g = make_weak_backend(backend)(g)
    if weak_b is None:
        weak_b = make_weak_backend(backend)(DoubleCover(g))
    weak_g, weak_b = counted(weak_g), counted(weak_b)
    m = dyn_initial_matching(g, weak_g, eps)
    result = DynRunResult(m, eps, weak_g.stats, weak_b.stats)
    if 3 * len(m) < DENSITY_COEFF * eps * g.n:
        warnings.warn(
            "matching density below the promised bound; no approximation "
            "guarantee for this run",
            RuntimeWarning,
            stacklevel=2,
        )
        result.warned = True
    finder = SampledFinder(weak_g, weak_b, eps**7, rng)
    result.matching, result.per_scale = run_scales(
        g, m, eps, consts, finder, weak_g.stats, hooks
    )
    return result


# -- update-stream harness -----------------------------------------------------------


def parse_update_stream(text: str) -> list[tuple]:
    """One record per line: "+ u v", "- u v", or "." for an empty update."""
    out: list[tuple] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == ".":
            out.append((".",))
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("+", "-"):
            raise PreconditionError(f"line {ln}: bad update record {line!r}")
        try:
            out.append((parts[0], int(parts[1]), int(parts[2])))
        except ValueError:
            raise PreconditionError(
                f"line {ln}: bad update record {line!r}"
            ) from None
    return out


class ValidatingWeakProvider:
    """The query side of the update-stream game, with answer auditing.

    Wraps a weak oracle over a host, the graph or its double cover, and
    checks every answer against the contract: a returned matching must
    be a real matching inside the queried induced subgraph and big
    enough for the advertised constant, and a bottom answer is only
    legal when the subgraph's maximum matching is below ``delta * n``.
    The bottom check is exact: when ``delta * n <= 1`` it reduces to
    edge existence, otherwise the exact matcher runs on the subgraph
    unless it has fewer edges than ``delta * n``, since mu <= m.
    """

    def __init__(self, host: Host, inner, label: str):
        self.host = host
        self.inner = inner
        self.lam = inner.lam
        self.label = label
        self.queries = 0
        self.violations: list[str] = []

    def _mu_reaches(self, s, bound: float) -> bool:
        sub, _ = self.host.induced(sorted(s))
        if bound <= 1:
            return sub.m > 0
        # mu <= m, so a subgraph with fewer edges than the bound misses it
        return sub.m >= bound and len(exact_mcm(sub)) >= bound

    def query(self, s, delta: float):
        self.queries += 1
        out = self.inner.query(s, delta)
        tag = f"{self.label} query {self.queries}"
        n = self.host.n
        if out is None:
            if self._mu_reaches(s, delta * n):
                self.violations.append(
                    f"{tag}: bottom although the subgraph clears delta*n = {delta * n:g}"
                )
            return None
        sset = set(s)
        used: set[int] = set()
        for u, v in out:
            if u not in sset or v not in sset or not self.host.has_edge(u, v):
                self.violations.append(f"{tag}: edge ({u}, {v}) outside the subgraph")
            if u in used or v in used:
                self.violations.append(f"{tag}: edges share endpoint {u if u in used else v}")
            used.update((u, v))
        if len(out) + 1e-9 < self.lam * delta * n:
            self.violations.append(
                f"{tag}: matching of {len(out)} below lam*delta*n = "
                f"{self.lam * delta * n:g}"
            )
        return out


def problem1_harness(
    n: int,
    updates: list[tuple],
    epsilon: float,
    backend: str = "weak-exact",
    q_budget: int | None = None,
    seed: int = 0,
) -> dict:
    """Replay an update stream in fixed chunks and audit the query answers.

    The graph starts empty.  Each chunk applies exactly
    ``max(1, ceil(epsilon^2 * n))`` updates (the stream is padded with empty
    updates), then the full weak-oracle pipeline recomputes a matching
    of the current graph, with every query it issues validated against
    the contract.  Reports one record per chunk.
    """
    if n < 1:
        raise PreconditionError(f"an update stream needs at least one vertex, got n = {n}")
    eps = normalize_epsilon(epsilon)
    chunk_size = max(1, math.ceil(eps * eps * n))
    g = Graph(n)
    stream = list(updates)
    if len(stream) % chunk_size:
        stream += [(".",)] * (chunk_size - len(stream) % chunk_size)
    make = make_weak_backend(backend)
    chunks = []
    total_violations = 0
    for ci in range(0, len(stream), chunk_size):
        chunk = stream[ci : ci + chunk_size]
        empties = 0
        for rec in chunk:
            if rec[0] == ".":
                empties += 1
            elif rec[0] == "+":
                g.add_edge(rec[1], rec[2])
            else:
                g.remove_edge(rec[1], rec[2])
        t0 = time.perf_counter()
        provider_g = ValidatingWeakProvider(g, make(g), "G")
        b = DoubleCover(g)
        provider_b = ValidatingWeakProvider(b, make(b), "B")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # Only the size is kept, so no chunk's result outlives its chunk.
            matched = len(
                static_from_weak(
                    g, eps, seed=seed + ci, weak_g=provider_g, weak_b=provider_b
                ).matching
            )
        queries = provider_g.queries + provider_b.queries
        violations = provider_g.violations + provider_b.violations
        total_violations += len(violations)
        chunks.append(
            {
                "chunk_index": ci // chunk_size,
                "updates": len(chunk),
                "empty_updates": empties,
                "graph_edges": g.m,
                "matching_size": matched,
                "queries": queries,
                "over_budget": bool(q_budget is not None and queries > q_budget),
                "violations": violations,
                "wall_ms": round(1000 * (time.perf_counter() - t0), 3),
            }
        )
    return {
        "n": n,
        "epsilon": eps,
        "chunk_size": chunk_size,
        "chunks": chunks,
        "total_violations": total_violations,
    }
