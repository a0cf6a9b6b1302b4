"""Weak-oracle pipeline: sampled simulations over induced subgraphs.

The scale/phase machinery is the engine's own: ``engine.run_scales``
and ``engine.run_phase`` drive it, fed by a ``SampledFinder``.  The
oracle here only answers induced-subgraph queries (``query(S, delta)``
with a bottom answer allowed when the subgraph's matching is small).
Cross structure work is found by sampling one vertex per structure and
querying the sample, extension work by querying a bipartite double
cover of the graph.  A harness at the bottom replays update streams in
fixed-size chunks and validates every answer the oracle gives.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import (
    TraceHooks,
    apply_augments,
    apply_overtakes,
    backtrack_pass,  # unused here, but perfbench's tracer wraps this name
    build_h_prime,
    build_h_prime_s,
    contaminate_leftover,
    exhaust_type1,
    find_type1_arc,
    run_scales,
    _head_eligible,
)
from .errors import InternalConsistencyError, PreconditionError
from .graph import (
    Arc,
    Graph,
    Matching,
    augment_all,  # unused here, but perfbench's tracer wraps this name
    edge_key,
)
from .oracles import (
    CountedWeakOracle,
    ExactOracle,
    GreedyOracle,
    OracleStats,
    exact_mcm,
    make_weak_backend,
)
from .params import Constants, PhaseParams, normalize_epsilon
from .structures import PhaseState, Structure

MATERIALIZE_LIMIT = 2048
# Fruitless sampling iterations in a row after which a stage, or a
# contract-and-augment round, gives up.
SAMPLE_PATIENCE = 12


# -- double cover ---------------------------------------------------------------


class DoubleCover:
    """Bipartite split view of a graph: outer copy ``v``, inner copy ``v + n``.

    Adjacency is answered from the underlying graph in O(1); the
    explicit bipartite graph exists only below ``MATERIALIZE_LIMIT``
    vertices, where it is used for differential testing and as a weak
    oracle host.
    """

    def __init__(self, g: Graph):
        self.g = g

    @property
    def n_vertices(self) -> int:
        return 2 * self.g.n

    def split(self, x: int) -> tuple[int, bool]:
        """(original vertex, is outer copy)."""
        n = self.g.n
        return (x, True) if x < n else (x - n, False)

    def adjacent(self, x: int, y: int) -> bool:
        u, xo = self.split(x)
        v, yo = self.split(y)
        if xo == yo:
            return False
        return u != v and self.g.has_edge(u, v)

    def materialize(self) -> Graph:
        n = self.g.n
        if n > MATERIALIZE_LIMIT:
            raise ValueError(
                f"double cover of {n} vertices stays implicit "
                f"(limit {MATERIALIZE_LIMIT})"
            )
        b = Graph(2 * n)
        for u, v in sorted(self.g.edges):
            b.add_edge(u, v + n)
            b.add_edge(v, u + n)
        return b


class ImplicitCoverWeakOracle:
    """Weak oracle over a non-materialized double cover.

    Builds only the induced subgraph of the queried vertex set, using
    O(1) adjacency answers from the underlying graph.
    """

    def __init__(self, cover: DoubleCover, inner, lam: float):
        self.cover = cover
        self.inner = inner
        self.lam = lam

    def query(self, s, delta: float):
        ids = sorted(s)
        sub = Graph(len(ids))
        for i, x in enumerate(ids):
            for j in range(i + 1, len(ids)):
                if self.cover.adjacent(x, ids[j]):
                    sub.add_edge(i, j)
        found = self.inner.find(sub)
        if len(found) < self.lam * delta * self.cover.n_vertices:
            return None
        return sorted(edge_key(ids[u], ids[v]) for u, v in found.edges)


def _cover_weak_oracle(cover: DoubleCover, backend: str) -> ImplicitCoverWeakOracle:
    if backend == "weak-exact":
        return ImplicitCoverWeakOracle(cover, ExactOracle(), 1.0)
    if backend == "weak-greedy":
        return ImplicitCoverWeakOracle(cover, GreedyOracle(), 0.5)
    raise ValueError(f"unknown weak backend {backend!r}")


def lift_bipartite_matching(mb, n: int) -> Matching:
    """Turn a double-cover matching into a matching of the base graph.

    Projects each cover edge to its base edge (deduplicating the two
    copies), which yields a degree-at-most-2 edge set; picking every
    other edge along its paths and cycles gives a matching of at least
    a sixth of the input size.
    """
    proj: set[tuple[int, int]] = set()
    for p, q in mb:
        o, i = (p, q) if p < n else (q, p)
        if not (o < n <= i) or o == i - n:
            raise InternalConsistencyError(f"not a cover edge: ({p}, {q})")
        proj.add(edge_key(o, i - n))
    adj: dict[int, list[int]] = {}
    for u, v in sorted(proj):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v, nbrs in adj.items():
        if len(nbrs) > 2:
            raise InternalConsistencyError(f"projection has degree {len(nbrs)} at {v}")
    out = Matching(n)
    done: set[tuple[int, int]] = set()

    def walk(start: int) -> list[tuple[int, int]]:
        run = []
        cur, prev = start, None
        while True:
            nxt = None
            for y in adj[cur]:
                if y != prev and edge_key(cur, y) not in done:
                    nxt = y
                    break
            if nxt is None:
                return run
            done.add(edge_key(cur, nxt))
            run.append((cur, nxt))
            prev, cur = cur, nxt

    starts = sorted(v for v, nbrs in adj.items() if len(nbrs) == 1)
    comps = [walk(v) for v in starts]
    for v in sorted(adj):  # leftovers are cycles
        run = walk(v)
        if run:
            # Odd cycle: the last picked edge would touch the first.
            if len(run) % 2 == 1:
                run = run[:-1]
            comps.append(run)
    for run in comps:
        for k in range(0, len(run), 2):
            out.add(*run[k])
    return out


# -- parameters -----------------------------------------------------------------


@dataclass(frozen=True)
class DynParams:
    """Knobs of the sampled pipeline.

    ``paper`` keeps the published exponents (delta = eps^107, iteration
    counts 1/(2*lam*delta) + 1, cutoff eps^-300, all computed with exact
    rational arithmetic); they are only useful for parameter plumbing
    since the cutoff forces the exact fallback on any feasible input.
    ``desk`` picks values that saturate progress on graphs small enough
    to test, with early exits doing the actual termination work.
    """

    profile: str
    delta: float
    i_caa: int
    i_eap: int
    t_const: float = 0.25
    small_n_cutoff: int = 4

    @staticmethod
    def paper(epsilon: float, lam: float = 1.0) -> "DynParams":
        feps = Fraction(epsilon)
        flam = Fraction(lam).limit_denominator(10**9)
        delta = feps**107
        i_caa = int(Fraction(1) / (2 * flam * delta)) + 1
        i_eap = int(Fraction(1) / (2 * flam * feps**100)) + 1
        cutoff = math.ceil(Fraction(1) / feps**300)
        return DynParams(
            profile="paper",
            delta=float(delta),
            i_caa=i_caa,
            i_eap=i_eap,
            small_n_cutoff=cutoff,
        )

    @staticmethod
    def desk(epsilon: float) -> "DynParams":
        return DynParams(profile="desk", delta=epsilon**7, i_caa=48, i_eap=48)


# -- initial matching -------------------------------------------------------------


def dyn_initial_matching(
    g: Graph, weak, epsilon: float, d_const: float = 0.25
) -> Matching:
    """Thirds-approximate seed: query the unmatched set until bottom.

    Sound when the graph's maximum matching is at least
    ``d_const * epsilon * n``; each non-bottom answer adds at least one
    edge, so the loop always terminates.
    """
    delta = d_const * epsilon / 3
    m = Matching(g.n)
    for _ in range(g.n + 2):
        free = [v for v in range(g.n) if not g.removed[v] and m.mate[v] is None]
        res = weak.query(free, delta)
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
        view = state.tree(s)
        pool = sorted(
            v for v in s.vertices if view.is_outer(state.root(v))
        )
    else:
        pool = sorted(s.vertices)
    return pool[rng.randrange(len(pool))]


def _sampled_structures(rng: random.Random, state: PhaseState):
    """The live structures in ascending owner order, for one draw each.

    Each edgeless free vertex still takes its draw, ``randrange(1)``,
    at its place in that order, as its singleton structure would, so
    the random stream stays that of one structure per free vertex.
    The caller must draw for each structure before taking the next.
    """
    edgeless = state.edgeless
    i = 0
    for owner in sorted(state.structures):
        while i < len(edgeless) and edgeless[i] < owner:
            rng.randrange(1)
            i += 1
        yield state.structures[owner]
    for _ in range(i, len(edgeless)):
        rng.randrange(1)


def sampled_contract_and_augment(
    state: PhaseState,
    weak,
    dynp: DynParams,
    stats: OracleStats,
    rng: random.Random,
) -> bool:
    """In-structure contraction sweep, then sampled cross-structure augments.

    Each iteration samples one outer vertex per structure and queries
    the weak oracle on the sample; every returned edge must join outer
    vertices of two distinct structures and is augmented along.
    """
    changed = exhaust_type1(state, stats)
    fruitless = 0
    for _ in range(dynp.i_caa):
        _, pairs = build_h_prime(state)
        if not pairs:
            break
        if fruitless >= SAMPLE_PATIENCE:
            break
        sample = [
            _sample_one(rng, state, s, outer_only=True)
            for s in _sampled_structures(rng, state)
        ]
        res = weak.query(sorted(sample), dynp.delta)
        if not res:
            fruitless += 1
            continue
        fruitless = 0
        apply_augments(state, [Arc(u, v) for u, v in sorted(res)], stats)
        changed = True
    state.contaminate_type2()
    return changed


def _in_structure_sweep(state: PhaseState, stage: int) -> bool:
    """Overtake every in-structure arc that is still feasible at this stage.

    Keeps the invariant that sampled iterations never need to look for
    same-structure work: anything findable by a member scan has been
    consumed before the oracle is asked.
    """
    changed = False
    # An in-structure overtake changes only its own structure, so the
    # structures ready at the start stay ready until they are visited.
    for s in state.ready_at(stage):
        hit = None
        for x in sorted(state.omega.members_of(s.working)):
            for y in state.adj_sorted[x]:
                if state.structure_of.get(y) != s.owner:
                    continue
                if state.mate[x] == y or state.g.removed[y]:
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
    weak_g,
    weak_b,
    dynp: DynParams,
    params: PhaseParams,
    stats: OracleStats,
    rng: random.Random,
) -> bool:
    """Stage-by-stage extension through double-cover queries.

    Per stage: sweep in-structure overtakes, then iterate {sample one
    vertex per structure, build the cover-side query set (outer copies
    of eligible working-vertex samples, inner copies of label-eligible
    inner samples plus all eligible unvisited matched vertices), query,
    project matched pairs back and overtake}.  Ends with a sampled
    contract-and-augment round.
    """
    n = state.g.n
    # The matching is fixed for the phase, so its vertices are listed once.
    matched = [v for v in range(n) if state.mate[v] is not None]
    changed = False
    for stage in range(0, params.ell_max + 1):
        changed |= _in_structure_sweep(state, stage)
        fruitless = 0
        for _ in range(dynp.i_eap):
            _, _, pairs, _ = build_h_prime_s(state, stage)
            if not pairs:
                break
            if fruitless >= SAMPLE_PATIENCE:
                break
            query_set: list[int] = []
            for s in _sampled_structures(rng, state):
                v = _sample_one(rng, state, s, outer_only=False)
                view = state.tree(s)
                if view.is_outer(state.root(v)):
                    if (
                        not s.on_hold
                        and not s.extended
                        and state.root(v) == s.working
                        and state.entry_label(s, s.working) == stage
                    ):
                        query_set.append(v)
                elif state.head_label(v) > stage + 1:
                    query_set.append(v + n)
            for v in matched:
                if (
                    not state.g.removed[v]
                    and state.structure_of.get(v) is None
                    and state.head_label(v) > stage + 1
                ):
                    query_set.append(v + n)
            res = weak_b.query(sorted(query_set), dynp.delta)
            if not res:
                fruitless += 1
                changed |= _in_structure_sweep(state, stage)
                continue
            fruitless = 0
            # Each answer edge runs from an outer copy to an inner copy.
            batch = [(state.structure_of.get(p, -1), p, q - n) for p, q in sorted(res)]
            apply_overtakes(state, stage, batch, stats)
            changed = True
            changed |= _in_structure_sweep(state, stage)
        contaminate_leftover(state, stage)
    changed |= sampled_contract_and_augment(state, weak_g, dynp, stats, rng)
    return changed


def _any_pending_work(state: PhaseState, params: PhaseParams) -> bool:
    """Would a fresh pass bundle (cleared marks) still find an operation?

    Exact: ignores the per-bundle marks except the size-based hold, so
    a run never stops while an op is reachable.
    """
    for owner in sorted(state.dirty):
        if find_type1_arc(state, state.structures[owner]) is not None:
            return True
    if build_h_prime(state)[1]:
        return True
    for s in state.live_structures():
        if s.working is None or len(s.vertices) >= params.limit_h:
            continue
        stage = state.entry_label(s, s.working)
        if stage > params.ell_max:
            continue
        for x in sorted(state.omega.members_of(s.working)):
            for y in state.adj_sorted[x]:
                if state.g.removed[y] or state.mate[x] == y:
                    continue
                if _head_eligible(state, y, stage):
                    return True
    return False


class SampledFinder:
    """Finds batches by sampling one vertex per structure for weak queries.

    ``weak_g`` answers on the graph, ``weak_b`` on its double cover.  A
    sampled phase without a path may have missed one, so a scale stops
    after two such phases in a row, and a bundle that changes nothing
    ends the phase only once no operation is reachable.
    """

    patience = 2

    def __init__(self, weak_g, weak_b, dynp: DynParams, rng: random.Random):
        self.weak_g = weak_g
        self.weak_b = weak_b
        self.dynp = dynp
        self.rng = rng

    def extend(self, state: PhaseState, params: PhaseParams, stats, hooks=None) -> bool:
        return sampled_extend_active_path(
            state, self.weak_g, self.weak_b, self.dynp, params, stats, self.rng
        )

    def contract_and_augment(
        self, state: PhaseState, params: PhaseParams, stats, hooks=None
    ) -> bool:
        return sampled_contract_and_augment(state, self.weak_g, self.dynp, stats, self.rng)

    def pending_work(self, state: PhaseState, params: PhaseParams) -> bool:
        return _any_pending_work(state, params)


# -- full pipeline -----------------------------------------------------------------


@dataclass
class DynRunResult:
    matching: Matching
    epsilon: float
    stats_g: OracleStats
    stats_b: OracleStats
    fallback: bool = False
    warned: bool = False
    per_scale: list[dict] = field(default_factory=list)

    @property
    def weak_calls(self) -> int:
        return self.stats_g.weak_calls + self.stats_b.weak_calls


def _counted_weak(oracle) -> CountedWeakOracle:
    return oracle if isinstance(oracle, CountedWeakOracle) else CountedWeakOracle(oracle)


def static_from_weak(
    g: Graph,
    epsilon: float,
    backend: str = "weak-exact",
    *,
    dyn_params: DynParams | None = None,
    seed: int = 0,
    constants: Constants | None = None,
    hooks: TraceHooks | None = None,
    track_contamination: bool = False,
    weak_g=None,
    weak_b=None,
) -> DynRunResult:
    """Boost to (1 + epsilon) using only induced-subgraph weak queries.

    Falls back to the exact matcher below the profile's size cutoff
    (under the "paper" profile that is every practical input).  Warns,
    without failing, when the seed matching shows the graph is too
    sparse for the guarantee's density promise.
    """
    eps = normalize_epsilon(epsilon)
    consts = constants or Constants()
    dynp = dyn_params or DynParams.desk(eps)
    if g.n <= dynp.small_n_cutoff or g.m == 0:
        return DynRunResult(exact_mcm(g), eps, OracleStats(), OracleStats(), True)
    rng = random.Random(seed)
    if weak_g is None:
        weak_g = make_weak_backend(backend)(g)
    if weak_b is None:
        cover = DoubleCover(g)
        if g.n <= MATERIALIZE_LIMIT:
            weak_b = make_weak_backend(backend)(cover.materialize())
        else:
            weak_b = _cover_weak_oracle(cover, backend)
    weak_g, weak_b = _counted_weak(weak_g), _counted_weak(weak_b)
    g.clear_removed()
    m = dyn_initial_matching(g, weak_g, eps, dynp.t_const)
    result = DynRunResult(m, eps, weak_g.stats, weak_b.stats)
    if 3 * len(m) < dynp.t_const * eps * g.n:
        warnings.warn(
            "matching density below the promised bound; no approximation "
            "guarantee for this run",
            RuntimeWarning,
            stacklevel=2,
        )
        result.warned = True
    finder = SampledFinder(weak_g, weak_b, dynp, rng)
    result.matching, scales = run_scales(
        g, m, eps, consts, finder, weak_g.stats, hooks, track_contamination
    )
    result.per_scale = [
        {"h": sc.h, "phases_run": sc.phases_run, "paths_found": sc.paths_found}
        for sc in scales
    ]
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

    Wraps a weak oracle over a host graph and checks every answer
    against the contract: a returned matching must be a real matching
    inside the queried induced subgraph and big enough for the
    advertised constant, and a bottom answer is only legal when the
    subgraph's maximum matching is below ``delta * n``.  The bottom
    check is exact: when ``delta * n <= 1`` it reduces to edge
    existence, otherwise the exact matcher runs on the subgraph.
    """

    def __init__(self, host: Graph, inner, label: str):
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
        return len(exact_mcm(sub)) >= bound

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
    dyn_params: DynParams | None = None,
) -> dict:
    """Replay an update stream in fixed chunks and audit the query answers.

    The graph starts empty.  Each chunk applies exactly
    ``ceil(epsilon^2 * n)`` updates (the stream is padded with empty
    updates), then the full weak-oracle pipeline recomputes a matching
    of the current graph, with every query it issues validated against
    the contract.  Reports one record per chunk.
    """
    if n > MATERIALIZE_LIMIT:
        raise PreconditionError(
            f"answer validation needs an explicit double cover; n = {n} "
            f"exceeds the materialization limit {MATERIALIZE_LIMIT}"
        )
    eps = normalize_epsilon(epsilon)
    chunk_size = math.ceil(eps * eps * n)
    dynp = dyn_params or DynParams.desk(eps)
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
        b = DoubleCover(g).materialize()
        provider_b = ValidatingWeakProvider(b, make(b), "B")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = static_from_weak(
                g,
                eps,
                backend,
                dyn_params=dynp,
                seed=seed + ci,
                weak_g=provider_g,
                weak_b=provider_b,
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
                "matching_size": len(res.matching),
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
        "profile": dynp.profile,
        "chunks": chunks,
        "total_violations": total_violations,
    }
