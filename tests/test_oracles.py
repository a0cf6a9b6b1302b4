import math
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import exhaustive_mcm_edges, exhaustive_mcm_size, full_reset_blossom_mcm
from _inputs import joined_gadgets
from matchboost.corpus import gen_bipartite, gen_blossom_gadget, gen_er, gen_planted
from matchboost.engine import boost
from matchboost.errors import InternalConsistencyError, OracleContractError
from matchboost.graph import Graph, Matching, edge_key, is_matching
from matchboost.oracles import (
    AdversarialOracle,
    CountedOracle,
    CountedWeakOracle,
    ExactOracle,
    GreedyOracle,
    WeakFromMatchingOracle,
    _blossom_mcm,
    check_answer,
    counted,
    exact_mcm,
    make_oracle,
    make_weak_backend,
    weak_from_exact,
    weak_from_greedy,
)

# Optimum sizes computed by the independent exhaustive search, frozen.
FROZEN_MU = {
    ("er14", 1): 5,
    ("er14", 2): 5,
    ("er14", 3): 6,
    ("er14", 4): 7,
    ("er14", 5): 7,
    ("gadget", 1): 3,
    ("gadget", 2): 6,
    ("gadget", 3): 9,
}


class TestExactAgainstExhaustive:
    """The verifier of the verifier: nothing else may vouch for exact_mcm."""

    def test_frozen_er_instances(self):
        for seed in (1, 2, 3, 4, 5):
            g = gen_er(14, 0.2, seed=seed)
            assert len(exact_mcm(g)) == FROZEN_MU[("er14", seed)]

    def test_frozen_gadgets(self):
        for petals in (1, 2, 3):
            g = gen_blossom_gadget(petals)
            assert len(exact_mcm(g)) == FROZEN_MU[("gadget", petals)]

    def test_frozen_bipartite_and_planted(self):
        assert len(exact_mcm(gen_bipartite(8, 9, 0.3, seed=7))) == 8
        assert len(exact_mcm(gen_planted(18, 0.8, 0.4, seed=3))) == 8

    def test_random_sweep(self, small_er_corpus):
        for g in small_er_corpus:
            m = exact_mcm(g)
            assert is_matching(g, m)
            assert len(m) == exhaustive_mcm_size(g.n, g.edges)

    def test_known_shapes(self):
        assert len(exact_mcm(Graph(0))) == 0
        assert len(exact_mcm(Graph(5))) == 0
        for n in range(2, 12):
            path = Graph(n, [(i, i + 1) for i in range(n - 1)])
            assert len(exact_mcm(path)) == n // 2
        for n in range(3, 12):
            cyc = Graph(n, [(i, (i + 1) % n) for i in range(n)])
            assert len(exact_mcm(cyc)) == n // 2

    def test_exhaustive_edges_helper_consistent(self):
        g = gen_er(10, 0.3, seed=4)
        edges = exhaustive_mcm_edges(g.n, g.edges)
        assert len(edges) == exhaustive_mcm_size(g.n, g.edges)
        assert is_matching(g, Matching(g.n, edges))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(possible)) if possible else st.just(set()))
    return Graph(n, edges)


@given(small_graphs())
def test_exact_matches_exhaustive_property(g):
    m = exact_mcm(g)
    assert is_matching(g, m)
    assert len(m) == exhaustive_mcm_size(g.n, g.edges)


def random_adjacency(n: int, p: float, bipartite: bool, rng: random.Random):
    """``(n, adj)``: each edge present with probability ``p``, each list in random order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    # a bipartite graph joins only u < n // 2 to v >= n // 2
    for u in range(n // 2 if bipartite else n):
        for v in range(n // 2 if bipartite else u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    for nbrs in adj:
        rng.shuffle(nbrs)
    return n, adj


@st.composite
def shuffled_adjacency(draw):
    """``(n, adj)``: a random general or bipartite graph, each list in random order."""
    n = draw(st.integers(min_value=0, max_value=64))
    # sparse graphs leave the most free vertices to search from
    p = draw(st.sampled_from([1.5, 2.5, 4, 8])) / max(n, 1)
    bipartite = draw(st.booleans())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return random_adjacency(n, p, bipartite, rng)


@st.composite
def dense_adjacency(draw):
    """``(n, adj)``: a denser general graph, each list in random order.

    Dense graphs make nested blossoms, whose bases stand for many
    vertices when a later blossom absorbs them.
    """
    n = draw(st.integers(min_value=12, max_value=30))
    p = draw(st.sampled_from([0.1, 0.2, 0.3]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return random_adjacency(n, p, False, rng)


def relabelled(g: Graph, rng: random.Random) -> tuple[int, list[list[int]]]:
    """``(n, adj)`` of ``g`` under a random relabelling, each list in random order."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in sorted(g.edges):
        adj[perm[u]].append(perm[v])
        adj[perm[v]].append(perm[u])
    for nbrs in adj:
        rng.shuffle(nbrs)
    return g.n, adj


@st.composite
def relabelled_gadgets(draw):
    """``(n, adj)``: a blossom gadget or three joined ones, relabelled at random."""
    make = draw(st.sampled_from([gen_blossom_gadget, joined_gadgets]))
    g = make(draw(st.integers(min_value=1, max_value=6)))
    return relabelled(g, random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1))))


class TestBlossomSearch:
    @settings(max_examples=300)
    @given(shuffled_adjacency())
    def test_same_mates_as_the_full_reset_search(self, case):
        n, adj = case
        assert _blossom_mcm(n, adj) == full_reset_blossom_mcm(n, adj)

    @settings(max_examples=500)
    @given(dense_adjacency())
    def test_same_mates_on_dense_graphs(self, case):
        n, adj = case
        assert _blossom_mcm(n, adj) == full_reset_blossom_mcm(n, adj)

    @settings(max_examples=100)
    @given(relabelled_gadgets())
    def test_same_mates_on_relabelled_gadgets(self, case):
        n, adj = case
        assert _blossom_mcm(n, adj) == full_reset_blossom_mcm(n, adj)

    def test_a_large_star_is_fast(self):
        # each leaf's search touches three vertices; resetting all
        # 20,001 for every search took about 21 s
        star = Graph(20_001, [(0, v) for v in range(1, 20_001)])
        start = time.perf_counter()
        m = exact_mcm(star)
        assert time.perf_counter() - start < 1.0
        assert len(m) == 1 and m.mate[0] is not None

    def test_a_wide_gadget_is_fast(self):
        # one failed search contracts a blossom per petal; relabelling
        # the whole forest at each contraction took about 0.74 s at
        # 1,000 petals, growing with the square of the petals
        petals = 3000
        n, adj = relabelled(gen_blossom_gadget(petals), random.Random(1))
        g = Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
        start = time.perf_counter()
        m = exact_mcm(g)
        assert time.perf_counter() - start < 1.0
        assert len(m) == 3 * petals


@st.composite
def padded_graphs(draw):
    """(compact, padded, slots): ``padded`` adds isolated vertices to ``compact``.

    Vertex ``v`` of ``compact`` is ``slots[v]`` of ``padded``; ``slots``
    ascends, and both graphs receive their edges in the same order.
    """
    n = draw(st.integers(min_value=0, max_value=14))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    pad = draw(st.integers(min_value=0, max_value=8))
    slots = sorted(draw(st.permutations(range(n + pad)))[:n])
    padded = Graph(n + pad, [(slots[u], slots[v]) for u, v in edges])
    return Graph(n, edges), padded, slots


@given(
    padded_graphs(),
    st.sampled_from([GreedyOracle(), GreedyOracle(seed=3), ExactOracle(), AdversarialOracle(2)]),
)
def test_isolated_vertices_do_not_change_answers(case, oracle):
    # The engine hands oracles only vertices that carry an edge; this is
    # why its matchings equal those on graphs padded with isolated ones.
    compact, padded, slots = case
    image = sorted(edge_key(slots[u], slots[v]) for u, v in oracle.find(compact).edges)
    assert sorted(oracle.find(padded).edges) == image


class TestGreedy:
    def test_maximal(self, small_er_corpus):
        for g in small_er_corpus[:20]:
            m = GreedyOracle().find(g)
            assert is_matching(g, m)
            for u, v in g.edges:  # maximality: no edge with both ends free
                assert m.mate[u] is not None or m.mate[v] is not None

    def test_two_approximation(self, small_er_corpus):
        for g in small_er_corpus:
            m = GreedyOracle(seed=13).find(g)
            assert 2 * len(m) >= exhaustive_mcm_size(g.n, g.edges)

    def test_seed_determinism(self):
        g = gen_er(20, 0.3, seed=2)
        a = GreedyOracle(seed=5).find(g).edges
        b = GreedyOracle(seed=5).find(g).edges
        assert a == b

    def test_suboptimal_when_first_edge_blocks_both(self):
        # Sorted-order greedy takes (0,1) and loses the other two edges.
        g = Graph(4, [(0, 1), (0, 2), (1, 3)])
        assert len(GreedyOracle().find(g)) == 1
        assert exhaustive_mcm_size(g.n, g.edges) == 2


class TestAdversarial:
    def test_returns_exact_ceiling(self, small_er_corpus):
        for g in small_er_corpus[:25]:
            mu = exhaustive_mcm_size(g.n, g.edges)
            for c in (2, 3):
                m = AdversarialOracle(c).find(g)
                assert is_matching(g, m)
                assert len(m) == math.ceil(mu / c)

    def test_keeps_the_smallest_edges_of_the_exact_matching(self, small_er_corpus):
        graphs = small_er_corpus + [gen_blossom_gadget(4), joined_gadgets(3)]
        for g in graphs:
            full = sorted(exact_mcm(g).edges)
            for c in (1, 2, 3):
                keep = math.ceil(len(full) / c)
                assert AdversarialOracle(c).find(g).edges == set(full[:keep])

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            AdversarialOracle(0)


class TestRegistry:
    def test_names(self):
        assert isinstance(make_oracle("exact"), ExactOracle)
        assert isinstance(make_oracle("greedy", seed=3), GreedyOracle)
        assert make_oracle("adversarial:3").c == 3
        assert make_oracle("adversarial").c == 2
        with pytest.raises(ValueError):
            make_oracle("psychic")

    def test_weak_backends(self):
        g = gen_er(10, 0.4, seed=1)
        assert make_weak_backend("weak-exact")(g).lam == 1.0
        assert make_weak_backend("weak-greedy")(g).lam == 0.5
        with pytest.raises(ValueError):
            make_weak_backend("weak-psychic")


class TestWeakOracle:
    def test_answers_inside_subgraph(self):
        g = gen_er(16, 0.3, seed=6)
        w = weak_from_exact(g)
        s = list(range(8))
        out = w.query(s, delta=0.01)
        assert out is not None
        used = set()
        for u, v in out:
            assert u in s and v in s and g.has_edge(u, v)
            assert u not in used and v not in used
            used.update((u, v))
        assert out == sorted(out)

    def test_bottoms_below_threshold(self):
        g = Graph(10, [(0, 1)])
        w = weak_from_exact(g)
        # mu(G[S]) = 1 < delta * n = 5: bottom is allowed and required here.
        assert w.query(list(range(10)), delta=0.5) is None

    def test_never_bottoms_when_rich(self, small_er_corpus):
        # Contract: must answer whenever mu(G[S]) >= delta * n.
        for g in small_er_corpus[:25]:
            if g.m == 0:
                continue
            w = weak_from_exact(g)
            s = list(range(g.n))
            mu = exhaustive_mcm_size(g.n, g.edges)
            if g.n and mu >= 0.1 * g.n:
                assert w.query(s, delta=0.1) is not None

    def test_greedy_lambda_halves_threshold(self):
        g = gen_er(12, 0.5, seed=8)
        wg = weak_from_greedy(g)
        out = wg.query(list(range(12)), delta=0.05)
        assert out is not None
        assert len(out) >= 0.5 * 0.05 * 12

    def test_subgraph_is_freed_before_the_answer_is_built(self):
        freed = []

        class Probe(ExactOracle):
            def find(self, g):
                sub = weakref.ref(g)
                m = super().find(g)

                class Edges(set):
                    def __iter__(self):
                        freed.append(sub() is None)
                        return super().__iter__()

                m.edges = Edges(m.edges)
                return m

        g = gen_er(16, 0.3, seed=6)
        out = WeakFromMatchingOracle(g, Probe()).query(list(range(16)), delta=0.01)
        assert out == weak_from_exact(g).query(list(range(16)), delta=0.01)
        assert freed == [True]


class TestCounting:
    def test_counted_oracle(self):
        g = gen_er(12, 0.3, seed=3)
        c = CountedOracle(GreedyOracle())
        c.find(g)
        c.find(g)
        assert c.stats.calls == 2
        assert c.c == 2

    def test_counted_rejects_empty_on_nonempty(self):
        class Lazy:
            c = 2

            def find(self, g):
                return Matching(g.n)

        g = Graph(2, [(0, 1)])
        with pytest.raises(InternalConsistencyError):
            CountedOracle(Lazy()).find(g)
        # Empty on empty is fine.
        assert len(CountedOracle(Lazy()).find(Graph(3))) == 0

    def test_counted_weak(self):
        g = Graph(10, [(0, 1)])
        w = CountedWeakOracle(weak_from_exact(g))
        w.query(list(range(10)), delta=0.5)
        w.query([0, 1], delta=0.01)
        assert w.stats.weak_calls == 2
        assert w.stats.weak_bottoms == 1
        assert w.lam == 1.0

    def test_counted_dispatch(self):
        g = Graph(4, [(0, 1)])
        assert isinstance(counted(GreedyOracle()), CountedOracle)
        assert isinstance(counted(weak_from_exact(g)), CountedWeakOracle)
        # an oracle that already counts comes back as is
        for c in (CountedOracle(GreedyOracle()), CountedWeakOracle(weak_from_exact(g))):
            assert counted(c) is c
        # wrapping one directly still counts at both levels
        inner = CountedOracle(GreedyOracle())
        outer = CountedOracle(inner)
        outer.find(g)
        assert inner.stats.calls == outer.stats.calls == 1


class Faulty:
    """Greedy through the seed matching, then one bad answer.

    The fault goes into the first later answer whose graph allows it:
    an answer with a non-edge, with two edges sharing an endpoint,
    sized for one vertex too many, or empty.  ``bad_call`` is that
    call's number.
    """

    c = 2

    def __init__(self, fault: str):
        self.fault = fault
        self.calls = 0
        self.bad_call = None

    def find(self, g):
        self.calls += 1
        m = GreedyOracle().find(g)
        if self.calls <= 2 * self.c or self.bad_call is not None:
            return m
        bad = self.spoil(g, m)
        if bad is not None:
            self.bad_call = self.calls
            return bad
        return m

    def spoil(self, g, m):
        if self.fault == "wrong-n":
            return Matching(g.n + 1, m.edges)
        bad = Matching(g.n)
        # set the edges directly: Matching.add would refuse them
        if self.fault == "non-edge":
            pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
            bad.edges = set([p for p in pairs if not g.has_edge(*p)][:1])
        elif self.fault == "shared-endpoint":
            x = next((x for x in range(g.n) if len(g.adj[x]) >= 2), None)
            if x is not None:
                bad.edges = {edge_key(x, g.adj[x][0]), edge_key(x, g.adj[x][1])}
        return bad if bad.edges or self.fault == "empty" else None


FAULTS = ["non-edge", "shared-endpoint", "wrong-n", "empty"]


class TestAnswersAtTheBoundary:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_boost_fails_at_the_bad_call(self, fault):
        # without the check a non-edge ends in a KeyError in the engine,
        # and a wrong size or a shared endpoint can pass unnoticed
        oracle = Faulty(fault)
        with pytest.raises(OracleContractError) as info:
            boost(gen_er(24, 0.15, seed=0), 0.25, oracle)
        assert oracle.bad_call is not None and oracle.bad_call > 4
        assert str(info.value).startswith(f"oracle call {oracle.bad_call}:")

    def test_each_fault_is_named(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        bad = Matching(4)
        bad.edges = {(0, 2)}
        with pytest.raises(OracleContractError, match="call 7: .0, 2. is not an edge"):
            check_answer(g, bad, 7)
        bad.edges = {(0, 1), (1, 2)}
        with pytest.raises(OracleContractError, match="vertex 1 is covered twice"):
            check_answer(g, bad, 7)
        with pytest.raises(OracleContractError, match="sized for 5 vertices"):
            check_answer(g, Matching(5, [(0, 1)]), 7)
        with pytest.raises(OracleContractError, match="empty matching"):
            check_answer(g, Matching(4), 7)
        check_answer(g, Matching(4, [(0, 1), (2, 3)]), 7)
        check_answer(Graph(3), Matching(3), 7)

    def test_a_rejected_answer_is_not_counted(self):
        c = CountedOracle(Faulty("empty"))
        g = Graph(2, [(0, 1)])
        for _ in range(4):
            c.find(g)
        with pytest.raises(OracleContractError, match="oracle call 5:"):
            c.find(g)
        assert c.stats.calls == 4

    def test_contract_errors_are_internal_errors(self):
        assert issubclass(OracleContractError, InternalConsistencyError)
