"""Weak-oracle pipeline: cover, lifting, sampling, and the stream harness."""

import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scistats

from matchboost.checks import InvariantHooks
from matchboost.corpus import (
    format_update_stream,
    gen_er,
    gen_planted,
    gen_update_stream,
    standard_corpus,
)
from matchboost.dynamic import (
    MATERIALIZE_LIMIT,
    SAMPLE_PATIENCE,
    DoubleCover,
    SampledFinder,
    DynParams,
    ValidatingWeakProvider,
    _cover_weak_oracle,
    _in_structure_sweep,
    _any_pending_work,
    _sample_one,
    dyn_initial_matching,
    lift_bipartite_matching,
    parse_update_stream,
    problem1_harness,
    sampled_contract_and_augment,
    sampled_extend_active_path,
    static_from_weak,
)
from matchboost.engine import run_phase
from matchboost.errors import InternalConsistencyError, PreconditionError
from matchboost.graph import AltPath, Arc, Graph, Matching, is_matching
from matchboost.oracles import (
    CountedWeakOracle,
    ExactOracle,
    GreedyOracle,
    OracleStats,
    exact_mcm,
    make_weak_backend,
    weak_from_exact,
)
from matchboost.params import PhaseParams, scale_sequence
from matchboost.structures import PhaseState


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


def one_draw_per_free_vertex(seed: int, pool_sizes: list[int]) -> random.Random:
    """The stream after one draw per free vertex, ascending, from its pool."""
    rng = random.Random(seed)
    for k in pool_sizes:
        rng.randrange(k)
    return rng


class TestDoubleCover:
    def test_ids_and_split(self):
        cover = DoubleCover(Graph(5, [(1, 2)]))
        assert cover.n_vertices == 10
        assert cover.split(3) == (3, True)
        assert cover.split(8) == (3, False)

    def test_adjacency(self):
        cover = DoubleCover(Graph(5, [(1, 2), (0, 3)]))
        assert cover.adjacent(1, 7)  # 1+ to 2-
        assert cover.adjacent(2, 6)  # 2+ to 1-
        assert not cover.adjacent(1, 2)  # same side
        assert not cover.adjacent(1, 6)  # the two copies of one vertex
        assert not cover.adjacent(1, 8)  # (1, 3) is not an edge

    def test_materialize_frozen(self):
        b = DoubleCover(Graph(3, [(0, 1), (1, 2)])).materialize()
        assert b.n == 6
        assert sorted(b.edges) == [(0, 4), (1, 3), (1, 5), (2, 4)]

    def test_materialize_limit(self):
        with pytest.raises(ValueError, match="implicit"):
            DoubleCover(Graph(MATERIALIZE_LIMIT + 1)).materialize()

    def test_matching_never_shrinks_in_cover(self):
        # mu(G[S]) <= mu(B[S+ u S-]) for arbitrary S
        rng = random.Random(99)
        for seed in range(12):
            g = gen_er(10, 0.35, seed=seed)
            b = DoubleCover(g).materialize()
            s = [v for v in range(g.n) if rng.random() < 0.6]
            sub_g, _ = g.induced(s)
            sub_b, _ = b.induced(sorted(s + [v + g.n for v in s]))
            assert len(exact_mcm(sub_g)) <= len(exact_mcm(sub_b))


class TestLift:
    def test_duplicate_copies_merge(self):
        out = lift_bipartite_matching([(0, 4), (1, 3)], 3)
        assert sorted(out.edges) == [(0, 1)]

    def test_path_takes_every_other_edge(self):
        out = lift_bipartite_matching([(0, 4), (2, 4)], 3)
        assert sorted(out.edges) == [(0, 1)]

    def test_even_cycle_perfect(self):
        out = lift_bipartite_matching([(0, 5), (1, 6), (2, 7), (3, 4)], 4)
        assert sorted(out.edges) == [(0, 1), (2, 3)]

    def test_odd_cycle_drops_one(self):
        out = lift_bipartite_matching([(0, 4), (1, 5), (2, 3)], 3)
        assert sorted(out.edges) == [(0, 1)]

    def test_rejects_non_cover_edges(self):
        with pytest.raises(InternalConsistencyError, match="cover edge"):
            lift_bipartite_matching([(0, 1)], 3)
        with pytest.raises(InternalConsistencyError, match="cover edge"):
            lift_bipartite_matching([(0, 3)], 3)

    def test_rejects_projection_degree_three(self):
        with pytest.raises(InternalConsistencyError, match="degree"):
            lift_bipartite_matching([(0, 5), (2, 5), (1, 7)], 4)

    def test_sixth_guarantee_on_random_covers(self):
        for seed in range(25):
            g = gen_er(12, 0.3, seed=seed)
            if g.m == 0:
                continue
            b = DoubleCover(g).materialize()
            mb = GreedyOracle(seed=seed).find(b)
            out = lift_bipartite_matching(sorted(mb.edges), g.n)
            assert is_matching(g, out)
            assert len(out) >= math.ceil(len(mb) / 6)


class TestImplicitCover:
    def test_matches_materialized_backend(self):
        rng = random.Random(7)
        for seed in range(10):
            g = gen_er(10, 0.3, seed=100 + seed)
            cover = DoubleCover(g)
            implicit = _cover_weak_oracle(cover, "weak-exact")
            explicit = make_weak_backend("weak-exact")(cover.materialize())
            s = [x for x in range(cover.n_vertices) if rng.random() < 0.7]
            assert implicit.query(s, 0.005) == explicit.query(s, 0.005)
            assert implicit.query(s, 0.9) is None
            assert explicit.query(s, 0.9) is None

    def test_greedy_backend_agrees_too(self):
        g = gen_er(9, 0.4, seed=3)
        cover = DoubleCover(g)
        implicit = _cover_weak_oracle(cover, "weak-greedy")
        explicit = make_weak_backend("weak-greedy")(cover.materialize())
        s = list(range(cover.n_vertices))
        assert implicit.query(s, 0.004) == explicit.query(s, 0.004)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            _cover_weak_oracle(DoubleCover(Graph(2)), "weak-psychic")


class TestDynParams:
    def test_desk_profile(self):
        p = DynParams.desk(0.25)
        assert p.profile == "desk"
        assert p.delta == 0.25**7
        assert p.i_caa == p.i_eap == 48
        assert p.small_n_cutoff == 4
        assert (SampledFinder.patience, SAMPLE_PATIENCE) == (2, 12)

    def test_paper_profile_exact_arithmetic(self):
        p = DynParams.paper(0.25)
        assert p.profile == "paper"
        assert p.delta == float(Fraction(1, 4) ** 107)
        assert p.i_caa == 2**213 + 1
        assert p.i_eap == 2**199 + 1
        assert p.small_n_cutoff == 4**300

    def test_paper_profile_scales_with_lambda(self):
        assert DynParams.paper(0.25, lam=0.5).i_caa == 2**214 + 1


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

    def test_pending_work_scan(self):
        state = path6_state()
        assert _any_pending_work(state, state.params)
        state.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        state.op_overtake(Arc(2, 3), Arc(3, 4), 2)
        assert _any_pending_work(state, state.params)  # the (4, 5) augment
        state.op_augment(Arc(4, 5))
        assert not _any_pending_work(state, state.params)

    def test_sampled_augment_on_isolated_pairs(self):
        g = Graph(4, [(0, 1), (2, 3)])
        state = PhaseState(g, Matching(4), quarter_params())
        weak = CountedWeakOracle(weak_from_exact(g))
        changed = sampled_contract_and_augment(
            state, weak, DynParams.desk(0.25), OracleStats(), random.Random(0)
        )
        assert changed
        assert sorted(p.vertices for p in state.found_paths) == [[0, 1], [2, 3]]


    def test_both_samplers_draw_once_per_free_vertex(self):
        # one sampling iteration each; the edgeless 0, 4 and 8 draw from a
        # pool of one, in their place between 1's and 5's draws
        dynp = DynParams.desk(0.25)
        for seed in range(20):
            state = interleaved_state()
            g = state.g
            rng = random.Random(seed)
            sampled_contract_and_augment(
                state,
                weak_from_exact(g),
                dataclasses.replace(dynp, i_caa=1),
                OracleStats(),
                rng,
            )
            want = one_draw_per_free_vertex(seed, [1])
            picked = [1, 3][want.randrange(2)]
            for k in [1, 1, 1]:
                want.randrange(k)
            assert rng.getstate() == want.getstate()
            # the sample holds 5 and 1's pick; only 3 has the edge to 5
            assert bool(state.found_paths) == (picked == 3)

            state = interleaved_state()
            rng = random.Random(seed)
            weak_b = CountedWeakOracle(weak_from_exact(DoubleCover(g).materialize()))
            sampled_extend_active_path(
                state,
                weak_from_exact(g),
                weak_b,
                dataclasses.replace(dynp, i_eap=1, i_caa=0),
                state.params,
                OracleStats(),
                rng,
            )
            # stage 0 samples once and 5 takes (6, 7); no later stage has work
            assert weak_b.stats.weak_calls == 1 and state.labels[(6, 7)] == 1
            want = one_draw_per_free_vertex(seed, [1, 3, 1, 1, 1])
            assert rng.getstate() == want.getstate()


class TestRunPhaseSampled:
    def test_path6_finds_the_path(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        m = Matching(6)
        m.add(1, 2)
        m.add(3, 4)
        weak_g = CountedWeakOracle(weak_from_exact(g))
        weak_b = CountedWeakOracle(
            make_weak_backend("weak-exact")(DoubleCover(g).materialize())
        )
        finder = SampledFinder(weak_g, weak_b, DynParams.desk(0.25), random.Random(3))
        paths, _ = run_phase(g, m, quarter_params(), finder, OracleStats())
        assert paths == [AltPath([0, 1, 2, 3, 4, 5])]
        assert weak_b.stats.weak_calls > 0

    def test_second_contract_and_augment_does_work(self):
        # With i_caa = 1 the extension round's own contract-and-augment
        # samples once.  0 and 5 grow over (1, 2) and (3, 4), and only
        # the outer 2 and 3 share an edge, so a sample can miss it; with
        # seed 4 the first round misses and the bundle's second one finds
        # the path.
        record = []

        class Spy(SampledFinder):
            def contract_and_augment(self, state, params, stats, hooks=None):
                before = len(state.found_paths)
                changed = super().contract_and_augment(state, params, stats, hooks)
                record.append((before, changed, len(state.found_paths)))
                return changed

        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        m = Matching(6, [(1, 2), (3, 4)])
        dynp = dataclasses.replace(DynParams.desk(0.25), i_caa=1)
        weak_b = weak_from_exact(DoubleCover(g).materialize())
        finder = Spy(weak_from_exact(g), weak_b, dynp, random.Random(4))
        paths, _ = run_phase(g, m, quarter_params(), finder, OracleStats())
        assert paths == [AltPath([0, 1, 2, 3, 4, 5])]
        assert record[0] == (0, True, 1)


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

    def test_greedy_backend_bound(self):
        g = gen_planted(28, 0.9, 0.4, seed=4)
        mu = len(exact_mcm(g))
        res = static_from_weak(g, 0.25, "weak-greedy", seed=2)
        assert len(res.matching) >= math.ceil(mu / 1.25)

    def test_small_graph_falls_back(self):
        g = Graph(4, [(0, 1), (2, 3)])
        res = static_from_weak(g, 0.25)
        assert res.fallback
        assert len(res.matching) == 2
        assert res.weak_calls == 0

    def test_edgeless_falls_back(self):
        res = static_from_weak(Graph(9), 0.25)
        assert res.fallback and len(res.matching) == 0

    def test_paper_profile_forces_fallback(self):
        g = gen_er(16, 0.3, seed=2)
        res = static_from_weak(g, 0.25, dyn_params=DynParams.paper(0.25))
        assert res.fallback
        assert len(res.matching) == len(exact_mcm(g))

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
        g = gen_planted(24, 0.9, 0.4, seed=17)
        hooks = InvariantHooks(g, 0.25)
        res = static_from_weak(
            g, 0.25, seed=5, hooks=hooks, track_contamination=True
        )
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

    def test_undersized_answer_caught(self):
        class Stingy:
            lam = 1.0

            def query(self, s, delta):
                return [(0, 1)]

        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        provider = ValidatingWeakProvider(g, Stingy(), "G")
        provider.query(list(range(6)), 0.5)
        assert any("below lam*delta*n" in v for v in provider.violations)


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

    def test_budget_flagging(self):
        updates = [("+", 0, 1), ("+", 1, 2)]
        report = problem1_harness(16, updates, 0.25, q_budget=1, seed=0)
        assert any(c["over_budget"] for c in report["chunks"])

    def test_oversized_instance_rejected(self):
        with pytest.raises(PreconditionError, match="materialization limit"):
            problem1_harness(MATERIALIZE_LIMIT + 1, [("+", 0, 1)], 0.25)

    def test_oversized_instance_rejected_before_its_updates(self):
        # vertex 3000 does not exist; the size check comes first
        with pytest.raises(PreconditionError, match="materialization limit"):
            problem1_harness(MATERIALIZE_LIMIT + 1, [("+", 0, 3000)], 0.25)


def _digest(obj) -> str:
    blob = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Digests recorded before the phase state kept its ready and dirty
# indexes: problem1_harness chunk records without wall_ms, and
# static_from_weak's matching, weak calls per oracle and per-scale
# stats on standard_corpus(6, 24, 64, seed=11), all at eps = 1/4.
GOLDEN_HARNESS = {
    (40, 48, 3): "c1c1d2d087de5760",
    (64, 64, 8): "c994632166109370",
}
GOLDEN_WEAK = {
    ("path-0000-n64", "weak-exact"): "7cda9d540fc29f49",
    ("path-0000-n64", "weak-greedy"): "7cda9d540fc29f49",
    ("cycle-0001-n37", "weak-exact"): "afa202c90eb545bf",
    ("cycle-0001-n37", "weak-greedy"): "578651bce6b3d6ce",
    ("er-0002-n44", "weak-exact"): "10951baea54b187d",
    ("er-0002-n44", "weak-greedy"): "03b352c95604c2aa",
    ("bipartite-0003-n27", "weak-exact"): "3f310c8657cdfa3d",
    ("bipartite-0003-n27", "weak-greedy"): "54c9e1961501b2ae",
    ("blossom-gadget-0004-n19", "weak-exact"): "fbcefa76239ca29d",
    ("blossom-gadget-0004-n19", "weak-greedy"): "2c48abd0ecca91cc",
    ("planted-0005-n54", "weak-exact"): "2e485742e699dbcd",
    ("planted-0005-n54", "weak-greedy"): "9df2613368e9646b",
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
            for backend in ("weak-exact", "weak-greedy"):
                res = static_from_weak(g.copy(), 0.25, backend, seed=5)
                got[(name, backend)] = _digest(
                    {
                        "matching": sorted(res.matching.edges),
                        "weak_calls": [res.stats_g.weak_calls, res.stats_b.weak_calls],
                        "per_scale": res.per_scale,
                    }
                )
        assert got == GOLDEN_WEAK
