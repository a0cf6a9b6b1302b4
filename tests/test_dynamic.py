"""Weak-oracle pipeline: cover, lifting, sampling, and the stream harness."""

import hashlib
import json
import math
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scistats

from matchboost.checks import InvariantHooks
from matchboost.corpus import (
    format_update_stream,
    gen_er,
    gen_path,
    gen_planted,
    gen_update_stream,
    standard_corpus,
)
from matchboost.dynamic import (
    DENSITY_COEFF,
    SAMPLE_ITERATIONS,
    SAMPLE_PATIENCE,
    DoubleCover,
    SampledFinder,
    ValidatingWeakProvider,
    _in_structure_sweep,
    _sample_one,
    dyn_initial_matching,
    parse_update_stream,
    problem1_harness,
    sampled_contract_and_augment,
    static_from_weak,
)
from matchboost.engine import TraceHooks, contract_and_augment, extend_active_path, run_phase
from matchboost.errors import InternalConsistencyError, PreconditionError, UnknownVertexError
from matchboost.graph import AltPath, Arc, Graph, Matching, edge_key, is_matching
from matchboost.oracles import (
    AdversarialOracle,
    CountedWeakOracle,
    ExactOracle,
    GreedyOracle,
    exact_mcm,
    make_weak_backend,
    weak_from_exact,
)
from matchboost.params import PhaseParams, scale_sequence
from matchboost.structures import PhaseState

from _inputs import with_joined_gadgets


def quarter_params() -> PhaseParams:
    return PhaseParams.for_scale(0.25, 0.5)


def path6_state() -> PhaseState:
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    m = Matching(6)
    m.add(1, 2)
    m.add(3, 4)
    return PhaseState(g, m, quarter_params())


def interleaved_state() -> PhaseState:
    """Free 0, 1, 4, 5, 8, of which 0, 4 and 8 have no edge.

    1 has grown over the matched (2, 3), so its structure holds 1, 2, 3
    with outer 1 and 3; 5 is a singleton with (3, 5) to 1's structure
    and the matched (6, 7) ahead.  A new bundle has begun.
    """
    g = Graph(9, [(1, 2), (2, 3), (3, 5), (5, 6), (6, 7)])
    m = Matching(9)
    m.add(2, 3)
    m.add(6, 7)
    state = PhaseState(g, m, quarter_params())
    state.op_overtake(Arc(1, 2), Arc(2, 3), 1)
    state.mark_for_pass_bundle()
    return state


def capped_finder(weak_g, weak_b, rng: random.Random, iterations: tuple[int, int]):
    """A ``SampledFinder`` whose extension and augment loops stop at ``iterations``."""

    class Capped(SampledFinder):
        def iterations(self, params):
            return iterations

    return Capped(weak_g, weak_b, 0.25**7, rng)


class TestDoubleCover:
    def test_ids_and_split(self):
        # outer copy v, inner copy v + n
        cover = DoubleCover(Graph(5, [(1, 2)]))
        assert cover.n == 10
        assert cover.has_edge(1, 7) and cover.has_edge(2, 6)
        assert cover.induced([3, 8]) == (Graph(2), [3, 8])

    def test_adjacency(self):
        cover = DoubleCover(Graph(5, [(1, 2), (0, 3)]))
        assert cover.has_edge(1, 7)  # 1+ to 2-
        assert cover.has_edge(7, 1)
        assert cover.has_edge(2, 6)  # 2+ to 1-
        assert not cover.has_edge(1, 2)  # same side
        assert not cover.has_edge(6, 7)
        assert not cover.has_edge(1, 6)  # the two copies of one vertex
        assert not cover.has_edge(1, 8)  # (1, 3) is not an edge

    def test_materialize_frozen(self):
        b = DoubleCover(Graph(3, [(0, 1), (1, 2)])).materialize()
        assert b.n == 6
        assert sorted(b.edges) == [(0, 4), (1, 3), (1, 5), (2, 4)]

    def test_matching_never_shrinks_in_cover(self):
        # mu(G[S]) <= mu(B[S+ u S-]) for arbitrary S
        rng = random.Random(99)
        for seed in range(12):
            g = gen_er(10, 0.35, seed=seed)
            s = [v for v in range(g.n) if rng.random() < 0.6]
            sub_g, _ = g.induced(s)
            sub_b, _ = DoubleCover(g).induced(s + [v + g.n for v in s])
            assert len(exact_mcm(sub_g)) <= len(exact_mcm(sub_b))


class TestLift:
    def test_sixth_guarantee_on_random_covers(self):
        # a cover matching projects to base edges of degree at most 2,
        # whose maximum matching keeps a sixth of it
        for seed in range(25):
            g = gen_er(12, 0.3, seed=seed)
            if g.m == 0:
                continue
            b, _ = DoubleCover(g).induced(range(2 * g.n))
            mb = GreedyOracle(seed=seed).find(b)
            base = Graph(g.n, sorted({edge_key(u, v - g.n) for u, v in mb.edges}))
            assert base.max_degree() <= 2
            out = exact_mcm(base)
            assert is_matching(g, out)
            assert len(out) >= math.ceil(len(mb) / 6)


def shuffled_graph(n: int, p: float, rng: random.Random) -> Graph:
    """An ER graph whose edges go in in random order and orientation.

    A quarter of them are removed again, so the adjacency lists are
    neither ascending nor in the order the edges were drawn.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    rng.shuffle(pairs)
    g = Graph(n)
    for u, v in pairs:
        g.add_edge(*((u, v) if rng.random() < 0.5 else (v, u)))
    for u, v in pairs[: len(pairs) // 4]:
        g.remove_edge(u, v)
    return g


class TestImplicitCover:
    """The cover host answers from the graph as the built cover would."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([0.2, 0.4, 0.7]),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_induced_and_has_edge_match_the_built_cover(self, n, p, seed):
        rng = random.Random(seed)
        g = shuffled_graph(n, p, rng)
        cover = DoubleCover(g)
        b = cover.materialize()
        assert cover.n == b.n
        for _ in range(4):
            s = [x for x in range(cover.n) if rng.random() < 0.6]
            sub, back = cover.induced(s)
            want, want_back = b.induced(s)
            assert back == want_back
            assert sub.edges == want.edges
            assert sub.adj == want.adj
        assert all(
            cover.has_edge(x, y) == b.has_edge(x, y)
            for x in range(cover.n)
            for y in range(cover.n)
        )

    def test_matches_materialized_backend(self):
        rng = random.Random(7)
        for seed in range(10):
            g = shuffled_graph(10, 0.3, random.Random(100 + seed))
            cover = DoubleCover(g)
            implicit = make_weak_backend("weak-exact")(cover)
            explicit = make_weak_backend("weak-exact")(cover.materialize())
            s = [x for x in range(cover.n) if rng.random() < 0.7]
            assert implicit.query(s, 0.005) == explicit.query(s, 0.005)
            assert implicit.query(s, 0.9) is None
            assert explicit.query(s, 0.9) is None

    def test_greedy_backend_agrees_too(self):
        g = shuffled_graph(9, 0.4, random.Random(3))
        cover = DoubleCover(g)
        implicit = make_weak_backend("weak-greedy")(cover)
        explicit = make_weak_backend("weak-greedy")(cover.materialize())
        s = list(range(cover.n))
        assert implicit.query(s, 0.004) == explicit.query(s, 0.004)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_weak_backend("weak-psychic")(DoubleCover(Graph(2)))


class TestDeskConstants:
    def test_desk_profile(self, monkeypatch):
        deltas = []

        class Spy(SampledFinder):
            def __init__(self, weak_g, weak_b, delta, rng):
                deltas.append(delta)
                super().__init__(weak_g, weak_b, delta, rng)

        monkeypatch.setattr("matchboost.dynamic.SampledFinder", Spy)
        static_from_weak(gen_planted(32, 0.85, 0.5, seed=11), 0.25, seed=1)
        assert deltas == [0.25**7]
        assert (SAMPLE_ITERATIONS, DENSITY_COEFF) == (48, 0.25)
        assert SampledFinder(None, None, 0.25**7, None).iterations(None) == (48, 48)
        assert (SampledFinder.patience, SAMPLE_PATIENCE) == (2, 12)


class TestSeedMatching:
    def test_meets_density_bound(self):
        g = gen_planted(32, 0.9, 0.3, seed=5)
        m = dyn_initial_matching(g, weak_from_exact(g), 0.25)
        assert is_matching(g, m)
        mu = len(exact_mcm(g))
        delta = 0.25 * 0.25 / 3
        assert 2 * len(m) >= mu - delta * g.n - 1e-9

    def test_rejects_empty_answer(self):
        class Liar:
            lam = 1.0

            def query(self, s, delta):
                return []

        with pytest.raises(InternalConsistencyError, match="empty"):
            dyn_initial_matching(Graph(4, [(0, 1)]), Liar(), 0.25)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=14),
        st.sampled_from([0.1, 0.25, 0.5]),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.001, 0.05, 0.2]),
    )
    def test_vertices_with_no_edge_change_no_answer(self, n, p, seed, delta):
        # The seed queries name only the free vertices that have an edge;
        # every oracle must answer as it does on the whole set.
        rng = random.Random(seed)
        g = shuffled_graph(n, p, rng)
        s = [v for v in range(n) if rng.random() < 0.7]
        edged = [v for v in s if g.adj[v]]
        for oracle in (
            GreedyOracle(),
            GreedyOracle(seed),
            ExactOracle(),
            AdversarialOracle(2),
        ):
            answers = []
            for vs in (s, edged):
                sub, back = g.induced(vs)
                answers.append({edge_key(back[u], back[v]) for u, v in oracle.find(sub).edges})
            assert answers[0] == answers[1], oracle
        cover = DoubleCover(g)
        cs = [x for x in range(cover.n) if rng.random() < 0.7]
        for host, vs in ((g, s), (cover, cs)):
            edged = [x for x in vs if g.adj[x % n]]
            for backend in ("weak-exact", "weak-greedy"):
                provider = ValidatingWeakProvider(host, make_weak_backend(backend)(host), "H")
                assert provider.query(vs, delta) == provider.query(edged, delta), backend
                assert provider.violations == []


class TestSampling:
    def test_uniform_over_members_and_outers(self):
        st_state = path6_state()
        st_state.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        s = st_state.structure_at(0)
        rng = random.Random(1234)
        for outer_only, pool in [(False, [0, 1, 2]), (True, [0, 2])]:
            draws = Counter(
                _sample_one(rng, st_state, s, outer_only) for _ in range(6000)
            )
            assert sorted(draws) == pool
            _, p_value = scistats.chisquare([draws[v] for v in pool])
            assert p_value >= 0.01

    def test_in_structure_sweep_undercuts(self):
        # chain grown to labels 1, 2, 3; a chord from label-1 territory
        # reaches the label-3 pair two stages cheaper
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 5)])
        m = Matching(7)
        m.add(1, 2)
        m.add(3, 4)
        m.add(5, 6)
        state = PhaseState(g, m, quarter_params())
        s = state.structure_at(0)
        state.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        state.op_overtake(Arc(2, 3), Arc(3, 4), 2)
        state.op_overtake(Arc(4, 5), Arc(5, 6), 3)
        state.mark_for_pass_bundle()
        assert state.backtrack_stuck()  # 6 -> 4
        assert state.backtrack_stuck()  # 4 -> 2
        assert s.working == 2
        assert not _in_structure_sweep(state, 0)
        assert _in_structure_sweep(state, 1)
        assert state.labels[(5, 6)] == 2
        assert s.working == 6
        assert Arc(2, 5) in s.arcs and Arc(4, 5) not in s.arcs
        assert not _in_structure_sweep(state, 1)

    def test_sampled_augment_on_isolated_pairs(self):
        g = Graph(4, [(0, 1), (2, 3)])
        state = PhaseState(g, Matching(4), quarter_params())
        weak = CountedWeakOracle(weak_from_exact(g))
        batch = sampled_contract_and_augment(state, weak, 0.25**7, random.Random(0))
        assert batch == [Arc(0, 1), Arc(2, 3)] and state.found_paths == []
        finder = SampledFinder(weak, None, 0.25**7, random.Random(0))
        assert contract_and_augment(state, finder)
        assert sorted(p.vertices for p in state.found_paths) == [[0, 1], [2, 3]]


    def test_both_samplers_draw_once_per_live_structure(self):
        # one sampling iteration each: 1 draws from its pool, then 5 from
        # a pool of one; the edgeless 0, 4 and 8 draw nothing
        for seed in range(20):
            state = interleaved_state()
            g = state.g
            rng = random.Random(seed)
            finder = capped_finder(weak_from_exact(g), None, rng, (48, 1))
            contract_and_augment(state, finder)
            want = random.Random(seed)
            picked = [1, 3][want.randrange(2)]
            want.randrange(1)
            assert rng.getstate() == want.getstate()
            # the sample holds 5 and 1's pick; only 3 has the edge to 5
            assert bool(state.found_paths) == (picked == 3)

            state = interleaved_state()
            rng = random.Random(seed)
            weak_b = CountedWeakOracle(weak_from_exact(DoubleCover(g)))
            finder = capped_finder(weak_from_exact(g), weak_b, rng, (1, 0))
            extend_active_path(state, finder)
            # stage 0 samples once and 5 takes (6, 7); no later stage has work
            assert weak_b.stats.weak_calls == 1 and state.labels[(6, 7)] == 1
            want = random.Random(seed)
            want.randrange(3)
            want.randrange(1)
            assert rng.getstate() == want.getstate()


class TestRunPhaseSampled:
    def test_path6_finds_the_path(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        m = Matching(6)
        m.add(1, 2)
        m.add(3, 4)
        weak_g = CountedWeakOracle(weak_from_exact(g))
        weak_b = CountedWeakOracle(make_weak_backend("weak-exact")(DoubleCover(g)))
        finder = SampledFinder(weak_g, weak_b, 0.25**7, random.Random(3))
        paths, _ = run_phase(PhaseState(g, m, quarter_params()), finder)
        assert paths == [AltPath([0, 1, 2, 3, 4, 5])]
        assert weak_b.stats.weak_calls > 0

    def test_second_contract_and_augment_does_work(self):
        # With an augment cap of 1 the extension round's own
        # contract-and-augment samples once.  0 and 5 grow over (1, 2) and
        # (3, 4), and only the outer 2 and 3 share an edge, so a sample
        # can miss it; with seed 4 the first round misses and the bundle's
        # second one finds the path.
        record = []

        class Spy(TraceHooks):
            def on_augment_round_end(self, state):
                record.append(len(state.found_paths))

        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        m = Matching(6, [(1, 2), (3, 4)])
        weak_b = weak_from_exact(DoubleCover(g))
        finder = capped_finder(weak_from_exact(g), weak_b, random.Random(4), (48, 1))
        paths, _ = run_phase(PhaseState(g, m, quarter_params()), finder, Spy())
        assert paths == [AltPath([0, 1, 2, 3, 4, 5])]
        assert record[:2] == [0, 1]


class TestStaticFromWeak:
    def test_planted_reaches_bound(self):
        g = gen_planted(32, 0.85, 0.5, seed=11)
        mu = len(exact_mcm(g))
        res = static_from_weak(g, 0.25, seed=1)
        assert is_matching(g, res.matching)
        assert len(res.matching) >= math.ceil(mu / 1.25)
        assert not res.fallback
        assert res.weak_calls > 0
        assert len(res.per_scale) == len(scale_sequence(0.25))

    def test_per_scale_calls_and_seed_queries_make_up_the_weak_calls(self):
        # the first planted seed whose phase at mu has structures that can
        # meet, so that its first scale asks the weak oracle
        g = gen_planted(32, 0.85, 0.5, seed=4)
        seed_weak = CountedWeakOracle(weak_from_exact(g))
        dyn_initial_matching(g, seed_weak, 0.25)
        res = static_from_weak(g, 0.25, seed=1)
        scale_calls = [sc.oracle_calls for sc in res.per_scale]
        assert res.weak_calls == 4 and scale_calls[0] > 0
        assert sum(scale_calls) + seed_weak.stats.weak_calls == res.weak_calls
        # the first scale's phase settles without a path; the rest are skipped
        first, *rest = res.per_scale
        assert not first.skipped and first.phases_run == 1
        assert rest and all(sc.skipped for sc in rest)
        assert all(sc.phases_run == sc.oracle_calls == 0 for sc in rest)

    def test_greedy_backend_bound(self):
        g = gen_planted(28, 0.9, 0.4, seed=4)
        mu = len(exact_mcm(g))
        res = static_from_weak(g, 0.25, "weak-greedy", seed=2)
        assert len(res.matching) >= math.ceil(mu / 1.25)

    @pytest.mark.parametrize("role", ["weak_g", "weak_b"])
    def test_a_matching_oracle_is_rejected_at_entry(self, role):
        with pytest.raises(PreconditionError, match="weak oracle with query and lam"):
            static_from_weak(gen_path(8), 0.25, **{role: GreedyOracle()})

    def test_small_graph_falls_back(self):
        g = Graph(4, [(0, 1), (2, 3)])
        res = static_from_weak(g, 0.25)
        assert res.fallback
        assert len(res.matching) == 2
        assert res.weak_calls == 0

    def test_edgeless_falls_back(self):
        res = static_from_weak(Graph(9), 0.25)
        assert res.fallback and len(res.matching) == 0

    def test_size_cutoff_is_four_vertices(self):
        at = static_from_weak(gen_path(4), 0.25)
        assert at.fallback and at.weak_calls == 0
        above = static_from_weak(gen_path(5), 0.25)
        assert not above.fallback and above.weak_calls > 0

    def test_sparse_graph_warns_not_fails(self):
        g = Graph(50, [(0, 1)])
        with pytest.warns(RuntimeWarning, match="density"):
            res = static_from_weak(g, 0.25, seed=0)
        assert res.warned
        assert len(res.matching) == 1

    def test_deterministic_under_seed(self):
        g = gen_planted(24, 0.8, 0.5, seed=8)
        a = static_from_weak(g, 0.25, seed=42)
        b = static_from_weak(g, 0.25, seed=42)
        assert sorted(a.matching.edges) == sorted(b.matching.edges)
        assert a.weak_calls == b.weak_calls

    def test_invariants_hold_under_sampling(self):
        g = with_joined_gadgets(gen_planted(24, 0.9, 0.4, seed=17))
        hooks = InvariantHooks(g, 0.25)
        res = static_from_weak(g, 0.25, seed=5, hooks=hooks)
        assert hooks.bundles_checked > 0
        assert len(res.matching) >= 1


class TestValidatingProvider:
    def test_honest_oracle_no_violations(self):
        g = gen_planted(20, 0.9, 0.4, seed=1)
        provider = ValidatingWeakProvider(g, make_weak_backend("weak-exact")(g), "G")
        out = provider.query(list(range(g.n)), 0.01)
        assert out and provider.violations == []
        assert provider.queries == 1

    def test_legal_bottom(self):
        g = Graph(5)
        provider = ValidatingWeakProvider(g, make_weak_backend("weak-exact")(g), "G")
        assert provider.query([0, 1, 2], 0.1) is None
        assert provider.violations == []

    def test_illegal_bottom_caught(self):
        class Bottom:
            lam = 1.0

            def query(self, s, delta):
                return None

        g = Graph(6, [(0, 1), (2, 3)])
        provider = ValidatingWeakProvider(g, Bottom(), "G")
        assert provider.query(list(range(6)), 0.01) is None
        assert any("bottom" in v for v in provider.violations)

    def test_out_of_subgraph_edges_caught(self):
        class OffTarget:
            lam = 1.0

            def query(self, s, delta):
                return [(0, 2)]

        g = Graph(6, [(0, 1), (2, 3)])
        provider = ValidatingWeakProvider(g, OffTarget(), "G")
        provider.query([0, 1, 2, 3], 0.01)
        assert any("outside the subgraph" in v for v in provider.violations)
        provider2 = ValidatingWeakProvider(g, OffTarget(), "G")
        provider2.query([0, 2], 0.01)  # 2 is in S, but (0, 2) is a non-edge
        assert any("outside the subgraph" in v for v in provider2.violations)

    def test_overlapping_edges_caught(self):
        class Overlap:
            lam = 1.0

            def query(self, s, delta):
                return [(0, 1), (1, 2)]

        g = Graph(4, [(0, 1), (1, 2)])
        provider = ValidatingWeakProvider(g, Overlap(), "G")
        provider.query([0, 1, 2], 0.01)
        assert any("share endpoint 1" in v for v in provider.violations)

    @settings(max_examples=200)
    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.one_of(st.integers(min_value=1, max_value=8), st.floats(min_value=0.01, max_value=8)),
    )
    def test_the_bottom_audit_reads_mu_against_the_bound(self, n, seed, bound):
        # _mu_reaches returns False at once when the subgraph has fewer
        # edges than the bound; the verdict must be the exact matcher's
        rng = random.Random(seed)
        p = rng.choice([0.1, 0.3, 0.6])
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        s = [v for v in range(n) if rng.random() < 0.7]
        provider = ValidatingWeakProvider(g, make_weak_backend("weak-exact")(g), "G")
        sub, _ = g.induced(s)
        assert provider._mu_reaches(s, bound) == (len(exact_mcm(sub)) >= bound)

    def test_undersized_answer_caught(self):
        class Stingy:
            lam = 1.0

            def query(self, s, delta):
                return [(0, 1)]

        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        provider = ValidatingWeakProvider(g, Stingy(), "G")
        provider.query(list(range(6)), 0.5)
        assert any("below lam*delta*n" in v for v in provider.violations)


class TestValidatingProviderOnTheCover:
    class Fixed:
        lam = 1.0

        def __init__(self, answer):
            self.answer = answer

        def query(self, s, delta):
            return self.answer

    def test_honest_cover_oracle_no_violations(self):
        cover = DoubleCover(gen_planted(20, 0.9, 0.4, seed=1))
        provider = ValidatingWeakProvider(cover, make_weak_backend("weak-exact")(cover), "B")
        assert provider.query(list(range(cover.n)), 0.01)
        assert provider.violations == []

    def test_edges_off_the_cover_caught(self):
        # (0, 1) is an edge of the graph, but it joins two outer copies;
        # (1, 4) joins 1 to its own inner copy
        cover = DoubleCover(Graph(3, [(0, 1), (1, 2)]))
        for edge in [(0, 1), (1, 4)]:
            provider = ValidatingWeakProvider(cover, self.Fixed([edge]), "B")
            provider.query(list(range(6)), 0.01)
            assert any("outside the subgraph" in v for v in provider.violations)

    def test_illegal_bottom_caught(self):
        cover = DoubleCover(Graph(3, [(0, 1), (1, 2)]))
        provider = ValidatingWeakProvider(cover, self.Fixed(None), "B")
        provider.query(list(range(6)), 0.01)
        assert any("bottom" in v for v in provider.violations)


class TestUpdateStream:
    def test_parse_frozen(self):
        text = "# header\n+ 0 1\n- 0 1\n.\n\n+ 2 3\n"
        assert parse_update_stream(text) == [
            ("+", 0, 1),
            ("-", 0, 1),
            (".",),
            ("+", 2, 3),
        ]

    @pytest.mark.parametrize("bad", ["x 0 1", "+ 1", "+ a b", "+- 1 2", "+ 1 2 3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(PreconditionError, match="bad update record"):
            parse_update_stream(bad)

    def test_generator_roundtrip(self):
        updates = gen_update_stream(32, 40, seed=9)
        assert parse_update_stream(format_update_stream(updates)) == updates


class TestProblem1:
    def test_chunking_and_padding_frozen(self):
        updates = [("+", 2 * i, 2 * i + 1) for i in range(6)]
        report = problem1_harness(64, updates, 0.25, seed=3)
        assert report["chunk_size"] == 4
        assert report["epsilon"] == 0.25
        assert len(report["chunks"]) == 2
        assert [c["updates"] for c in report["chunks"]] == [4, 4]
        assert [c["empty_updates"] for c in report["chunks"]] == [0, 2]
        assert [c["graph_edges"] for c in report["chunks"]] == [4, 6]
        assert [c["matching_size"] for c in report["chunks"]] == [4, 6]
        assert report["total_violations"] == 0

    def test_removals_apply(self):
        updates = [("+", 0, 1), ("+", 2, 3), ("-", 0, 1)]
        report = problem1_harness(16, updates, 0.25, seed=0)
        assert report["chunk_size"] == 1
        assert [c["graph_edges"] for c in report["chunks"]] == [1, 2, 1]
        assert [c["matching_size"] for c in report["chunks"]] == [1, 2, 1]
        assert report["total_violations"] == 0

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_vertex(self, n):
        with pytest.raises(PreconditionError, match="at least one vertex"):
            problem1_harness(n, [], 0.25)

    def test_phases_see_each_chunks_edges(self, monkeypatch):
        seen = set()

        class Recording(PhaseState):
            def __init__(self, g, m, params):
                super().__init__(g, m, params)
                want = [sorted(a) if a else () for a in g.adj]
                assert self.adj_sorted == want, "phase read a stale sorted adjacency"
                seen.add(tuple(sorted(g.edges)))

        monkeypatch.setattr("matchboost.engine.PhaseState", Recording)
        updates = [("+", 0, 1), ("+", 1, 2), ("-", 0, 1)]
        problem1_harness(16, updates, 0.25, seed=0)
        assert seen == {((0, 1),), ((0, 1), (1, 2)), ((1, 2),)}

    def test_no_chunk_result_outlives_its_chunk(self, monkeypatch):
        results = []

        def recording(*args, **kwargs):
            assert all(r() is None for r in results), "an earlier chunk's result is alive"
            res = static_from_weak(*args, **kwargs)
            results.append(weakref.ref(res))
            return res

        monkeypatch.setattr("matchboost.dynamic.static_from_weak", recording)
        report = problem1_harness(16, [("+", 0, 1), ("+", 2, 3), ("+", 4, 5)], 0.25, seed=0)
        assert len(results) == 3
        assert [c["matching_size"] for c in report["chunks"]] == [1, 2, 3]

    def test_budget_flagging(self):
        updates = [("+", 0, 1), ("+", 1, 2)]
        report = problem1_harness(16, updates, 0.25, q_budget=1, seed=0)
        assert any(c["over_budget"] for c in report["chunks"])

    def test_audited_run_above_2048_vertices(self):
        # no size limit: the cover host answers without being built
        updates = gen_update_stream(2049, 300, seed=4)
        report = problem1_harness(2049, updates, 0.25, seed=4)
        assert len(report["chunks"]) == 3
        assert report["chunks"][-1]["matching_size"] > 0
        assert report["total_violations"] == 0

    def test_unknown_vertex_above_2048_vertices(self):
        with pytest.raises(UnknownVertexError, match="outside vertex range"):
            problem1_harness(2049, [("+", 0, 3000)], 0.25)


def _recorded_scale_fields(per_scale) -> list[dict]:
    """The per-scale fields the weak digests were recorded with."""
    return [
        {"h": sc.h, "phases_run": sc.phases_run, "paths_found": sc.paths_found}
        for sc in per_scale
    ]


def _digest(obj) -> str:
    blob = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Digests of problem1_harness chunk records without wall_ms, and of
# static_from_weak's matching, weak calls per oracle and per-scale stats
# on standard_corpus(6, 24, 64, seed=11), all at eps = 1/4.  Recorded
# once the run ended after its first settled phase without a path.  The
# planted digests were recorded again once a free vertex with no edge
# stopped taking a random draw.  The harness, cycle, bipartite and
# gadget digests were recorded again once a phase stopped on fewer than
# two live structures, which settles those runs at mu, and the
# weak-exact er, cycle, bipartite and gadget ones once ``Graph.copy``
# kept each adjacency list's order.  The harness digests were recorded
# again once a phase stopped when no two live structures could meet in
# an augmenting path: their matchings stand, their query counts fall.
GOLDEN_HARNESS = {
    (40, 48, 3): "92793f33b26e8026",
    (64, 64, 8): "43b29dcc908eb880",
}
GOLDEN_WEAK = {
    ("path-0000-n64", "weak-exact"): "9f32800710937629",
    ("path-0000-n64", "weak-greedy"): "9f32800710937629",
    ("cycle-0001-n37", "weak-exact"): "e9438932be2de945",
    ("cycle-0001-n37", "weak-greedy"): "e9438932be2de945",
    ("er-0002-n44", "weak-exact"): "caac4954d331f64c",
    ("er-0002-n44", "weak-greedy"): "d4ce447d424fc2b1",
    ("bipartite-0003-n27", "weak-exact"): "c5b9ee0b903eb7e2",
    ("bipartite-0003-n27", "weak-greedy"): "6c67f340c1908cc6",
    ("blossom-gadget-0004-n19", "weak-exact"): "f744bc60a85ec4b2",
    ("blossom-gadget-0004-n19", "weak-greedy"): "f744bc60a85ec4b2",
    ("planted-0005-n54", "weak-exact"): "10f1ee3772563988",
    ("planted-0005-n54", "weak-greedy"): "5736110cd6f8c5d6",
}


class TestGoldenReplay:
    def test_harness_reproduces_recorded_digests(self):
        got = {}
        for n, count, seed in GOLDEN_HARNESS:
            res = problem1_harness(n, gen_update_stream(n, count, seed), 0.25, seed=seed)
            chunks = [{k: v for k, v in c.items() if k != "wall_ms"} for c in res["chunks"]]
            got[(n, count, seed)] = _digest(chunks)
        assert got == GOLDEN_HARNESS

    def test_static_from_weak_reproduces_recorded_digests(self):
        got = {}
        for name, g in standard_corpus(6, 24, 64, seed=11):
            bound = math.ceil(len(exact_mcm(g)) / 1.25)
            for backend in ("weak-exact", "weak-greedy"):
                res = static_from_weak(g.copy(), 0.25, backend, seed=5)
                assert len(res.matching) >= bound, (name, backend)
                got[(name, backend)] = _digest(
                    {
                        "matching": sorted(res.matching.edges),
                        "weak_calls": [res.stats_g.weak_calls, res.stats_b.weak_calls],
                        "per_scale": _recorded_scale_fields(res.per_scale),
                    }
                )
        assert got == GOLDEN_WEAK
