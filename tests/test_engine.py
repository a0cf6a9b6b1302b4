"""Phase driver and boosting loop on small graphs with known optima."""

import hashlib
import json
import math
import random
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchboost.checks import enumerate_short_augmenting_paths, view_mismatches
from matchboost.corpus import (
    gen_bipartite,
    gen_blossom_gadget,
    gen_er,
    gen_long_paths,
    gen_path,
    gen_planted,
    standard_corpus,
)
from matchboost.dynamic import DoubleCover, SampledFinder, static_from_weak
from matchboost.engine import (
    OracleFinder,
    TraceHooks,
    _aux_graph_bipartite,
    _aux_graph_pairs,
    _head_eligible,
    apply_augments,
    boost,
    build_h_prime,
    build_h_prime_s,
    exhaust_type1,
    find_type1_arc,
    initial_matching,
    run_phase,
    run_scales,
)
from matchboost.errors import InternalConsistencyError, PreconditionError
from matchboost.graph import AltPath, Arc, Graph, Matching, augment_all, is_matching
from matchboost.oracles import (
    AdversarialOracle,
    CountedOracle,
    ExactOracle,
    GreedyOracle,
    OracleStats,
    exact_mcm,
    make_oracle,
    weak_from_exact,
)
from matchboost.params import Constants, PhaseParams, scale_sequence
from matchboost.structures import PhaseState

from _inputs import disjoint_union, joined_gadgets, with_joined_gadgets
from _replay import PhaseRecorder, expand_replayed, recorded_boost


def quarter_params() -> PhaseParams:
    return PhaseParams.for_scale(0.25, 0.5)


def path6() -> tuple[Graph, Matching]:
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    m = Matching(6)
    m.add(1, 2)
    m.add(3, 4)
    return g, m


def triangle_tail() -> tuple[Graph, Matching]:
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)])
    m = Matching(5)
    m.add(1, 2)
    return g, m


def approx_floor(mu: int, eps: float) -> int:
    return math.ceil(mu / (1.0 + eps))


class TestInitialMatching:
    def test_exact_call_count_and_quality(self):
        g = gen_er(14, 0.2, seed=3)
        counted = CountedOracle(ExactOracle())
        m = initial_matching(g, counted)
        assert counted.stats.calls == 2
        assert is_matching(g, m)
        assert 4 * len(m) >= len(exact_mcm(g))

    def test_two_c_calls(self):
        g = gen_er(14, 0.2, seed=4)
        for oracle, want in [
            (GreedyOracle(), 4),
            (AdversarialOracle(3), 6),
        ]:
            counted = CountedOracle(oracle)
            m = initial_matching(g, counted)
            assert counted.stats.calls == want
            assert 4 * len(m) >= len(exact_mcm(g))

    def test_edgeless_still_calls(self):
        counted = CountedOracle(GreedyOracle())
        m = initial_matching(Graph(5), counted)
        assert counted.stats.calls == 4
        assert len(m) == 0


class TestAuxBuilders:
    def test_layer_graph_fresh_path(self):
        g, m = path6()
        state = PhaseState(g, m, quarter_params())
        pairs, arcs = build_h_prime_s(state, 0)
        assert pairs == {(0, 1): Arc(0, 1), (5, 4): Arc(5, 4)}
        assert arcs == [Arc(0, 1), Arc(5, 4)]

    def test_aux_graphs_hold_only_vertices_with_an_edge(self):
        # path6 plus an isolated free vertex 6, which owns no structure;
        # heads 2 and 3 are eligible but no left working vertex reaches them
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        m = Matching(7)
        m.add(1, 2)
        m.add(3, 4)
        state = PhaseState(g, m, quarter_params())
        assert _head_eligible(state, 2, 0) and _head_eligible(state, 3, 0)
        assert 6 not in state.structures and 6 not in state.structure_of
        assert all(6 not in owners for owners in state.ready.values())
        assert 6 not in state.dirty and 6 not in state.fresh
        pairs, _ = build_h_prime_s(state, 0)
        aux, nodes = _aux_graph_bipartite(pairs)
        assert nodes == [("L", 0), ("L", 5), ("R", 1), ("R", 4)]
        assert sorted(aux.edges) == [(0, 2), (1, 3)]
        state.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        state.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        aux, owners = _aux_graph_pairs(build_h_prime(state))
        assert owners == [0, 5]
        assert sorted(aux.edges) == [(0, 1)]

    def test_layer_graph_empty_without_tails(self):
        g, m = path6()
        state = PhaseState(g, m, quarter_params())
        assert build_h_prime_s(state, 1) == ({}, [])

    def test_pair_graph_after_growth(self):
        g, m = path6()
        state = PhaseState(g, m, quarter_params())
        assert build_h_prime(state) == {}
        state.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        state.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        assert build_h_prime(state) == {(0, 5): Arc(2, 3)}

    def test_type1_detection_and_exhaust(self):
        g, m = triangle_tail()
        state = PhaseState(g, m, quarter_params())
        s = state.structure_at(0)
        assert find_type1_arc(state, s) is None
        state.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        assert find_type1_arc(state, s) == Arc(2, 0)
        assert exhaust_type1(state)
        assert state.omega.root(0) == state.omega.root(2) == 5
        assert find_type1_arc(state, s) is None
        assert state.steps == [3]

    def test_a_bad_augment_arc_is_an_internal_error(self):
        g, m = path6()
        state = PhaseState(g, m, quarter_params())
        state.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        # 3 is in no structure; 0 and 2 share one
        for arc in (Arc(2, 3), Arc(2, 0)):
            with pytest.raises(InternalConsistencyError, match="does not join two structures"):
                apply_augments(state, [arc])
        assert state.found_paths == [] and state.steps == []


class TestRunPhase:
    def test_path6_single_path(self):
        g, m = path6()
        oracle = CountedOracle(ExactOracle())
        paths, state = run_phase(PhaseState(g, m, quarter_params()), OracleFinder(oracle))
        assert paths == [AltPath([0, 1, 2, 3, 4, 5])]
        assert state.structures == {}
        m2 = augment_all(m, paths)
        assert len(m2) == 3

    def test_blossom_and_benign_skip(self):
        # both free ends race for vertex 2; the loser's pair is consumed
        # in the same batch, then the triangle contracts and augments
        g, m = triangle_tail()
        oracle = CountedOracle(ExactOracle())
        paths, state = run_phase(PhaseState(g, m, quarter_params()), OracleFinder(oracle))
        assert paths == [AltPath([0, 1, 2, 3])]
        # the isolated 4 owns no structure
        assert state.structures == {} and 4 not in state.structure_of
        assert all(4 not in owners for owners in state.ready.values())
        assert 4 not in state.dirty and 4 not in state.fresh

    def test_empty_matching_pairs_up_free_ends(self):
        g = Graph(4, [(0, 1), (2, 3)])
        oracle = CountedOracle(ExactOracle())
        paths, _ = run_phase(PhaseState(g, Matching(4), quarter_params()), OracleFinder(oracle))
        assert [p.vertices for p in paths] == [[0, 1], [2, 3]]

    def test_a_phase_leaves_the_graph_and_matching_as_it_found_them(self):
        # nothing is cleared between the two phases: the removal flags
        # live on each phase's own state
        for g, m in (path6(), triangle_tail(), (gen_er(16, 0.3, seed=4), Matching(16))):
            g0, m0 = g.copy(), m.copy()
            runs = [
                run_phase(
                    PhaseState(g, m, quarter_params()), OracleFinder(CountedOracle(ExactOracle()))
                )
                for _ in range(2)
            ]
            (first, s1), (second, s2) = runs
            assert first and first == second and s1.steps == s2.steps
            assert s1.removed == s2.removed and any(s1.removed)
            assert g == g0 and m == m0

    def test_stats_instance_reused(self):
        g, m = path6()
        oracle = CountedOracle(ExactOracle())
        stats = oracle.stats
        run_phase(PhaseState(g, m, quarter_params()), OracleFinder(oracle))
        assert oracle.stats is stats and stats.calls > 0

    @pytest.mark.parametrize("spec", ["greedy", "adversarial:2"])
    def test_isolated_vertices_change_no_output(self, spec):
        # a free vertex with no edge owns no structure and takes no part
        # in a phase, even one that ends with no structure left
        for name, g in standard_corpus(6, 24, 64, seed=11):
            base = boost(g.copy(), 0.25, make_oracle(spec))
            padded = boost(_padded(g, 5), 0.25, make_oracle(spec))
            assert sorted(padded.matching.edges) == sorted(base.matching.edges), name
            assert padded.per_scale == base.per_scale, name
            assert padded.stats.processing_steps == base.stats.processing_steps, name


def _padded(g: Graph, extra: int) -> Graph:
    """``g`` with ``extra`` isolated vertices appended; each adjacency list keeps its order."""
    h = g.copy()
    h.n += extra
    h.adj += [[] for _ in range(extra)]
    return h


class StageRecorder(TraceHooks):
    """The stages that end in each extension round, and those that built a layer graph."""

    def __init__(self):
        self.ell_max = None
        self.ended: list[list[int]] = []
        self.built: list[set[int]] = []

    def on_phase_start(self, params, scale, phase):
        self.ell_max = params.ell_max

    def on_bundle_start(self, state, tau):
        self.ended.append([])
        self.built.append(set())

    def on_stage_end(self, state, stage):
        self.ended[-1].append(stage)


class TestStageEnds:
    """An extension round visits, and ends, only the stages with a ready structure."""

    @pytest.mark.parametrize("pipeline", ["boost", "weak"])
    def test_every_stage_ends_in_every_round(self, pipeline, monkeypatch):
        rec = StageRecorder()

        def counted(state, stage):
            rec.built[-1].add(stage)
            return build_h_prime_s(state, stage)

        monkeypatch.setattr("matchboost.engine.build_h_prime_s", counted)
        g = with_joined_gadgets(gen_er(40, 0.08, seed=3))
        if pipeline == "boost":
            boost(g, 0.25, GreedyOracle(seed=1), hooks=rec)
        else:
            static_from_weak(g, 0.25, seed=1, hooks=rec)
        assert rec.ended and rec.ell_max is not None
        # every visited stage builds its layer graph, in ascending order
        assert all(ended == sorted(built) for ended, built in zip(rec.ended, rec.built))
        # stages were visited, and some were skipped
        assert 0 < sum(map(len, rec.ended)) < len(rec.ended) * (rec.ell_max + 1)

    def test_a_tiny_epsilon_returns_within_a_second(self):
        # ell_max is 3 * 2**30 here, so walking every stage would not end
        t0 = time.perf_counter()
        res = boost(gen_path(8), 2**-30, GreedyOracle())
        assert time.perf_counter() - t0 < 1.0
        assert len(res.matching) == 4


def idle(finder_cls, iterations=(0, 0)):
    """A finder of ``finder_cls``'s patience that never finds an operation.

    With ``iterations`` above zero it is asked for batches and returns
    empty ones, so every structure pair stays joined.
    """

    class Idle(finder_cls):
        calls = 0

        def __init__(self):
            pass

        def iterations(self, params):
            return iterations

        def sweep(self, state, stage):
            return False

        def extension_batch(self, state, stage, pairs, hooks=None):
            return []

        def augment_batch(self, state, pairs, hooks=None):
            return []

    return Idle()


class TestRunScales:
    @pytest.mark.parametrize("finder_cls, patience", [(OracleFinder, 1), (SampledFinder, 2)])
    def test_each_scale_runs_patience_phases_without_a_path(self, finder_cls, patience):
        g = gen_er(12, 0.3, seed=1)
        stats = OracleStats()
        m, per_scale = run_scales(g, Matching(12), 0.25, Constants(), idle(finder_cls), stats)
        assert finder_cls.patience == patience
        assert [sc.h for sc in per_scale] == scale_sequence(0.25)
        assert all(PhaseParams.for_scale(0.25, sc.h).phases > 2 for sc in per_scale)
        # zero iterations certify nothing, so no phase settles and every scale runs
        assert [sc.phases_run for sc in per_scale] == [patience] * len(per_scale)
        assert not any(sc.skipped for sc in per_scale)
        assert all(sc.paths_found == sc.oracle_calls == 0 for sc in per_scale)
        assert m.edges == set() and stats.calls == 0


class FlightRecorder(TraceHooks):
    def __init__(self):
        self.phases = 0
        self.phase_ends = 0
        self.bundles = 0
        self.bundle_ends = 0
        self.aux_graphs = 0
        self.aux_max_n = 0

    def on_phase_start(self, params, scale, phase):
        self.phases += 1

    def on_phase_end(self, state):
        self.phase_ends += 1

    def on_bundle_start(self, state, tau):
        self.bundles += 1

    def on_bundle_end(self, state, tau):
        self.bundle_ends += 1

    def on_oracle_graph(self, aux):
        self.aux_graphs += 1
        self.aux_max_n = max(self.aux_max_n, aux.n)


class TestBoost:
    def test_exact_oracle_frozen_optima(self):
        for seed, want in [(1, 5), (2, 5), (3, 6), (4, 7), (5, 7)]:
            g = gen_er(14, 0.2, seed=seed)
            res = boost(g, 0.25, ExactOracle())
            assert is_matching(g, res.matching)
            assert len(res.matching) == want

    def test_gadget_with_greedy(self):
        for petals, mu in [(1, 3), (2, 6), (3, 9)]:
            g = gen_blossom_gadget(petals)
            res = boost(g, 0.25, GreedyOracle(seed=11))
            assert is_matching(g, res.matching)
            assert len(res.matching) >= approx_floor(mu, 0.25)

    def test_adversarial_oracle_bound(self):
        for seed in (1, 2, 3):
            g = gen_er(16, 0.25, seed=seed)
            mu = len(exact_mcm(g))
            res = boost(g, 0.25, AdversarialOracle(2))
            assert len(res.matching) >= approx_floor(mu, 0.25)

    def test_epsilon_snapped(self):
        g = gen_er(10, 0.3, seed=1)
        with pytest.warns(UserWarning):
            res = boost(g, 0.2, ExactOracle())
        assert res.epsilon == 0.125

    def test_per_scale_accounting(self):
        g = gen_er(14, 0.2, seed=2)
        res = boost(g, 0.25, GreedyOracle())
        assert len(res.per_scale) == len(scale_sequence(0.25))
        assert all(sc.phases_run >= 1 for sc in res.per_scale if not sc.skipped)
        skipped = [sc for sc in res.per_scale if sc.skipped]
        assert skipped == res.per_scale[-len(skipped):]
        assert all(sc.phases_run == sc.paths_found == sc.oracle_calls == 0 for sc in skipped)
        assert sum(sc.oracle_calls for sc in res.per_scale) + 4 == res.oracle_calls
        assert res.oracle_calls == res.stats.calls

    def test_trivial_graphs(self):
        assert len(boost(Graph(0), 0.25, ExactOracle()).matching) == 0
        assert len(boost(Graph(3), 0.25, GreedyOracle()).matching) == 0
        g = Graph(2, [(0, 1)])
        assert sorted(boost(g, 0.25, ExactOracle()).matching.edges) == [(0, 1)]

    def test_hooks_see_everything(self):
        # odd vertex count: some structure survives and works every phase
        g = gen_blossom_gadget(2)
        rec = FlightRecorder()
        res = boost(g, 0.25, GreedyOracle(seed=3), hooks=rec)
        assert rec.phases == rec.phase_ends == sum(
            sc.phases_run for sc in res.per_scale
        )
        assert rec.bundles == rec.bundle_ends > 0
        assert rec.aux_graphs > 0
        # oracle inputs are always small structure-pair or layer graphs
        assert rec.aux_max_n <= g.n

    def test_determinism_same_seed(self):
        g = gen_er(18, 0.2, seed=6)
        a = boost(g, 0.25, make_oracle("greedy", seed=5))
        b = boost(g, 0.25, make_oracle("greedy", seed=5))
        assert sorted(a.matching.edges) == sorted(b.matching.edges)
        assert a.stats.calls == b.stats.calls

    def test_constants_override_plumbs_through(self):
        g = gen_er(12, 0.25, seed=4)
        consts = Constants().with_overrides({"scale_floor_coeff": 4})
        res = boost(g, 0.25, ExactOracle(), constants=consts)
        assert len(res.per_scale) == len(scale_sequence(0.25, consts))
        assert len(res.per_scale) < len(scale_sequence(0.25))

    def test_a_weak_oracle_is_rejected_at_entry(self):
        g = gen_path(6)
        with pytest.raises(PreconditionError, match="matching oracle with find and c"):
            boost(g, 0.25, weak_from_exact(g))


class ApproxAudit:
    """A matching oracle that checks each of ``inner``'s answers against ``exact_mcm``.

    Every answer on a graph of at most 64 vertices, auxiliary or seed,
    must hold at least mu/c edges.
    """

    def __init__(self, inner):
        self.inner = inner
        self.c = inner.c
        self.checked = 0

    def find(self, g: Graph) -> Matching:
        m = self.inner.find(g)
        if g.n <= 64:
            mu = len(exact_mcm(g))
            assert len(m) * self.c >= mu, f"{len(m)} edges, mu = {mu}, c = {self.c}"
            self.checked += 1
        return m


class TestOracleApproximation:
    @pytest.mark.parametrize("spec", ["greedy", "adversarial:2", "adversarial:3"])
    def test_every_answer_holds_mu_over_c(self, spec):
        for _, g in standard_corpus(12, 16, 64, seed=5):
            audit = ApproxAudit(make_oracle(spec, seed=1))
            res = boost(g, 0.25, audit)
            assert audit.checked == res.oracle_calls > 0


class TestStopRule:
    """A settled phase without a path ends ``boost``'s scale loop, and only such a phase."""

    def test_every_skipped_scale_would_replay_the_stopping_phase(self):
        stops = 0
        for name, g in standard_corpus(6, 24, 64, seed=11):
            for spec in ("greedy", "adversarial:2"):
                res, rec = recorded_boost(g, 0.25, make_oracle(spec))
                last = rec.phases[-1]
                skipped = [sc.h for sc in res.per_scale if sc.skipped]
                if not skipped:
                    continue
                stops += 1
                assert last.settled and not last.held and last.paths == 0
                for h in skipped:
                    oracle = CountedOracle(make_oracle(spec))
                    again = PhaseRecorder(oracle.stats)
                    again.on_phase_start(None, h, 1)
                    params = PhaseParams.for_scale(0.25, h)
                    state = PhaseState(g, res.matching, params)
                    paths, state = run_phase(state, OracleFinder(oracle), again)
                    (phase,) = again.phases
                    assert paths == [] and state.settled
                    assert (phase.calls, phase.steps, phase.bundles) == (
                        last.calls, last.steps, last.bundles
                    )
        assert stops == 12

    def test_a_structure_on_hold_keeps_the_scales_running(self):
        # limit_h == 3 at h = 1/2: the first phase holds a structure and
        # finds no path, and the next scale, with limit_h == 5, finds one
        consts = Constants().with_overrides({"limit_coeff": 1})
        res, rec = recorded_boost(gen_er(16, 0.15, seed=8), 0.25, GreedyOracle(), constants=consts)
        first = rec.phases[0]
        assert first.held and not first.settled and first.paths == 0
        assert res.per_scale[0].phases_run == 1 and res.per_scale[0].paths_found == 0
        assert not res.per_scale[1].skipped and res.per_scale[1].paths_found >= 1

    def test_a_phase_that_runs_out_of_bundles_keeps_the_scales_running(self):
        # tau_max == 8 at h = 1/2 and the first phase uses all 8 bundles;
        # the next scale's first phase, allowed 16, stops at its fixpoint.
        # Two paths of 9, joined by (0, 10) and with a triangle closed by
        # (0, 2), keep two free vertices at mu in one non-bipartite
        # component, so the phases run bundles there.
        consts = Constants().with_overrides({"bundle_coeff": 1})
        paths = disjoint_union(gen_path(9), gen_path(9))
        g = Graph(paths.n, sorted(paths.edges) + [(0, 2), (0, 10)])
        res, rec = recorded_boost(g, 0.25, GreedyOracle(), constants=consts)
        first, second = rec.phases[:2]
        assert first.bundles == first.tau_max == 8 and not first.held
        assert not first.settled and first.paths == 0
        assert not res.per_scale[1].skipped and second.h == 0.25
        assert first.bundles < second.bundles < second.tau_max

    def test_the_rule_waits_while_an_augmenting_path_exists(self):
        # the path 0-1-2-3 with (1, 2) matched: its free ends sit on the
        # two sides of one bipartite component, and the path joins them
        g, m = Graph(4, [(0, 1), (1, 2), (2, 3)]), Matching(4, [(1, 2)])
        state = PhaseState(g, m, quarter_params())
        assert state.could_meet()
        paths, state = run_phase(state, OracleFinder(CountedOracle(ExactOracle())))
        assert [sorted(p.edges()) for p in paths] == [[(0, 1), (1, 2), (2, 3)]]
        assert state.bundles == 1 and not state.could_meet()

    def test_free_vertices_on_one_side_stop_the_phase_before_its_first_bundle(self):
        # the star on 0 with (0, 1) matched: the free leaves 2 and 3 own
        # two structures, but sit on one side of a bipartite component
        g, m = Graph(4, [(0, 1), (0, 2), (0, 3)]), Matching(4, [(0, 1)])
        oracle = CountedOracle(ExactOracle())
        state = PhaseState(g, m, quarter_params())
        assert sorted(state.structures) == [2, 3] and not state.could_meet()
        paths, state = run_phase(state, OracleFinder(oracle))
        assert paths == [] and state.bundles == 0 and state.settled
        assert oracle.stats.calls == 0

    def test_two_free_vertices_with_an_odd_cycle_keep_the_phase_running(self):
        # at mu the joined gadgets leave two free vertices in one
        # component with odd cycles, so the phase runs bundles
        g = joined_gadgets()
        m = Matching(g.n, exact_mcm(g).edges)
        state = PhaseState(g, m, quarter_params())
        assert len(state.structures) == 2 and state.could_meet()
        paths, state = run_phase(state, OracleFinder(CountedOracle(ExactOracle())))
        assert paths == [] and state.bundles > 0 and state.could_meet()

    def test_no_iterations_certify_nothing(self):
        # with no simulation iteration every phase reaches its fixpoint, but
        # its loops looked at nothing: zero iterations certify nothing, and
        # every scale runs one phase without a path and without a call
        consts = Constants(iter_coeff=0)
        res, rec = recorded_boost(
            gen_er(40, 0.1, seed=3), 0.25, make_oracle("adversarial:3"), constants=consts
        )
        assert [sc.h for sc in res.per_scale] == scale_sequence(0.25)
        assert all(sc.phases_run == 1 and not sc.skipped for sc in res.per_scale)
        assert all(sc.paths_found == sc.oracle_calls == 0 for sc in res.per_scale)
        # each phase stops at its fixpoint, not at tau_max, and still is not settled
        assert all(p.bundles < p.tau_max and not p.held and not p.settled for p in rec.phases)
        assert res.oracle_calls == 6


def _state_digest(state: PhaseState) -> str:
    """Everything a phase changes in ``state``, as one string."""
    structures = {
        o: (
            sorted(s.vertices), sorted(s.arcs), s.working, s.on_hold, s.modified,
            s.extended, s.ready_label, s.view.root, sorted(s.view.parent.items()),
            sorted(s.view.parent_arc.items()), sorted(s.view.depth.items()),
            sorted((b, sorted(k)) for b, k in s.view.children.items()),
        )
        for o, s in sorted(state.structures.items())
    }
    omega = state.omega
    blossoms = [(b.id, b.parent, sorted(b.members)) for b in omega.blossoms.values()]
    return repr((
        structures, sorted(state.structure_of.items()), sorted(state.labels.items()),
        state.removed, [p.vertices for p in state.found_paths], state.steps,
        sorted((k, sorted(v)) for k, v in state.ready.items()), sorted(state.dirty),
        sorted(state.fresh), omega.root_of, blossoms, omega._next_id, state.bundles,
        state.held, state.pairs_left, state.gave_up, state.settled,
        sorted(state.boundary.items()),
    ))


class ResumeRecorder(TraceHooks):
    """Keeps every ended phase's state, and the calls it made itself."""

    def __init__(self, stats: OracleStats | None = None):
        self.stats = stats
        self.ended: list[tuple[PhaseState, int]] = []

    def on_phase_start(self, params, scale, phase):
        self._calls = self.stats.calls if self.stats else 0

    def on_phase_end(self, state):
        self.ended.append((state, (self.stats.calls if self.stats else 0) - self._calls))


class TestResume:
    """A phase held without a path is resumed by the next scale, not replayed."""

    def test_the_finders_say_whether_they_replay(self):
        assert OracleFinder.replays and not SampledFinder.replays

    @pytest.mark.parametrize("spec", ["greedy", "adversarial:2"])
    def test_a_resumed_phase_ends_as_a_fresh_one(self, spec):
        resumed = 0
        for name, g in standard_corpus(6, 24, 64, seed=11):
            oracle = CountedOracle(make_oracle(spec))
            rec = ResumeRecorder(oracle.stats)
            res = boost(g, 0.25, oracle, hooks=rec)
            assert sum(sc.resumed_calls for sc in res.per_scale) == sum(
                state.resumed_calls for state, _ in rec.ended
            )
            for state, calls in rec.ended:
                if not state.resumed_calls:
                    continue
                resumed += 1
                fresh_oracle = CountedOracle(make_oracle(spec))
                fresh = PhaseState(g, state.m, state.params)
                paths, fresh = run_phase(fresh, OracleFinder(fresh_oracle))
                assert paths == state.found_paths, name
                assert fresh.steps == state.steps, name
                assert (fresh.held, fresh.settled, fresh.gave_up) == (
                    state.held, state.settled, state.gave_up
                ), name
                assert fresh.bundles == state.bundles, name
                assert fresh_oracle.stats.calls == calls + state.resumed_calls, name
        assert resumed >= 1

    def test_the_held_start_is_taken_before_the_marks(self):
        # at the start of its first held bundle no structure of the copy is
        # on hold yet, and one has reached limit_h
        class StartAudit(TraceHooks):
            starts = 0

            def on_phase_end(self, state):
                # read before the next phase resumes, and so changes, the copy
                start = state.held_start
                if start is not None:
                    self.starts += 1
                    assert not (start.held or start.found_paths) and start.bundles >= 1
                    assert any(map(start.holds, start.structures.values()))
                    assert not any(s.on_hold for s in start.structures.values())

        audit = StartAudit()
        for _, g in standard_corpus(6, 24, 64, seed=11):
            boost(g, 0.25, make_oracle("greedy"), hooks=audit)
        assert audit.starts >= 1

    def test_a_copy_keeps_its_state_while_the_phase_goes_on(self):
        # copy the state at every bundle start; once the phase is over,
        # every copy must still read as it did when it was made
        class Copier(TraceHooks):
            def __init__(self):
                self.copies = []

            def on_bundle_start(self, state, tau):
                copy = state.copy()
                self.copies.append((copy, _state_digest(copy)))

        g = joined_gadgets()
        hooks = Copier()
        m = initial_matching(g, CountedOracle(GreedyOracle()))
        finder = OracleFinder(CountedOracle(GreedyOracle()))
        run_phase(PhaseState(g, m, quarter_params()), finder, hooks)
        assert len(hooks.copies) > 2
        for copy, digest in hooks.copies:
            assert _state_digest(copy) == digest

    def test_a_copy_keeps_its_own_boundaries(self):
        # two triangles rooted at the free vertices 0 and 3; each side
        # contracts a different one into the same new blossom id and
        # caches its boundary before either is checked
        g = Graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 6), (4, 7)])
        m = Matching(8, [(1, 2), (4, 5)])
        state = PhaseState(g, m, quarter_params())
        copy = state.copy()
        for side, (r, u, w) in ((state, (0, 1, 2)), (copy, (3, 4, 5))):
            side.op_overtake(Arc(r, u), Arc(u, w), 1)
            assert side.op_contract(Arc(w, r)) == 8
            side.boundary_arcs(8)
        assert state.boundary_arcs(8) == [(1, [6])]
        assert copy.boundary_arcs(8) == [(4, [7])]

    def test_the_weak_pipeline_never_resumes(self):
        held = 0
        for _, g in standard_corpus(6, 24, 64, seed=11):
            rec = ResumeRecorder()
            res = static_from_weak(g, 0.25, seed=5, hooks=rec)
            assert all(sc.resumed_calls == 0 for sc in res.per_scale)
            assert all(s.held_start is None and s.resumed_calls == 0 for s, _ in rec.ended)
            held += sum(s.held for s, _ in rec.ended)
        assert held > 0


@st.composite
def er_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    p = draw(st.sampled_from([0.1, 0.2, 0.35]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return gen_er(n, p, seed=seed)


@st.composite
def bipartite_graphs(draw):
    n_left = draw(st.integers(min_value=1, max_value=12))
    n_right = draw(st.integers(min_value=1, max_value=12))
    p = draw(st.sampled_from([0.1, 0.2, 0.35]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return gen_bipartite(n_left, n_right, p, seed=seed)


class TestBoostProperties:
    @settings(max_examples=25, deadline=None)
    @given(er_graphs(), st.sampled_from(["exact", "greedy", "adversarial:2"]))
    def test_approximation_bound(self, g, spec):
        mu = len(exact_mcm(g))
        res = boost(g, 0.25, make_oracle(spec, seed=1))
        assert is_matching(g, res.matching)
        assert len(res.matching) >= approx_floor(mu, 0.25)


class LeftoverAudit(TraceHooks):
    """Checks what each phase leaves behind at its end.

    A phase whose live structures can no longer meet in an augmenting
    path (``certified``: no two owners share a component with an odd
    cycle or sit on the two sides of a bipartite one) may still have an
    operation left, but none that leads to a path: once its paths
    apply, the matching is maximum, which ``exact_mcm`` checks apart
    from the rule.  Any other phase whose bundle loop stops before
    ``tau_max`` (``early``) leaves no operation behind.  ``apart``
    counts the certified phases that end with two or more structures
    live.
    """

    def __init__(self):
        self.bundles = 0
        self.early = 0
        self.certified = 0
        self.apart = 0

    def on_phase_start(self, params, scale, phase):
        self.bundles = 0

    def on_bundle_start(self, state, tau):
        self.bundles += 1

    def on_phase_end(self, state):
        if not state.could_meet():
            assert len(exact_mcm(state.g)) == len(state.m) + len(state.found_paths)
            self.certified += 1
            self.apart += len(state.structures) >= 2
        elif self.bundles < state.params.tau_max:
            assert [arc for arc in sorted(state.g.arcs()) if state.classify(*arc)] == []
            self.early += 1


PIPELINES = ["greedy", "exact", "adversarial:2", "weak-exact", "weak-greedy"]


def _run_pipeline(g: Graph, eps: float, spec: str, hooks: TraceHooks) -> None:
    """``boost`` with a matching oracle, or ``static_from_weak`` with a weak backend."""
    if spec.startswith("weak"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            static_from_weak(g, eps, spec, seed=1, hooks=hooks)
    else:
        boost(g, eps, make_oracle(spec, seed=1), hooks=hooks)


class TestFixpoint:
    def test_a_pair_left_joined_keeps_the_bundles_running(self):
        # the free edge (0, 1) joins two structures in every bundle
        params, audit = quarter_params(), LeftoverAudit()
        finder = idle(OracleFinder, iterations=(1, 1))
        state = PhaseState(Graph(2, [(0, 1)]), Matching(2), params)
        paths, state = run_phase(state, finder, hooks=audit)
        assert paths == [] and state.pairs_left and not state.settled
        assert audit.bundles == params.tau_max and audit.early == 0

    @pytest.mark.parametrize("cap", [3, 1, 0])
    def test_a_stage_that_gives_up_with_pairs_left_spoils_the_fixpoint(self, cap):
        # stage 0 of path6 has the arcs 0 -> 1 and 5 -> 4, and the idle
        # finder returns empty batches: with 3 iterations the stage stops
        # at fruitless_limit (1), with 1 or 0 at its cap, each time with
        # both arcs left; the structures are backtracked, and the bundle
        # loop reaches its fixpoint with nothing held
        g, m = path6()
        params, rec = quarter_params(), FlightRecorder()
        finder = idle(OracleFinder, iterations=(cap, 3))
        assert finder.fruitless_limit == 1
        paths, state = run_phase(PhaseState(g, m, params), finder, hooks=rec)
        assert paths == [] and not state.held and not state.pairs_left
        assert rec.bundles < params.tau_max
        assert state.gave_up and not state.settled

    def test_an_augment_round_with_no_iteration_spoils_the_fixpoint(self):
        # the free edge (0, 1) has no layer graph, and a round capped at 0
        # never builds the pair graph: the bundle loop reaches its fixpoint
        # with the augmenting path (0, 1) left, so the phase is not settled
        params, rec = quarter_params(), FlightRecorder()
        g, m = Graph(2, [(0, 1)]), Matching(2)
        finder = idle(OracleFinder, iterations=(1, 0))
        paths, state = run_phase(PhaseState(g, m, params), finder, hooks=rec)
        assert paths == [] and not state.held and not state.pairs_left
        assert rec.bundles < params.tau_max
        assert list(enumerate_short_augmenting_paths(g, m.mate, params.ell_max)) == [[0, 1]]
        assert state.gave_up and not state.settled

    @settings(max_examples=40, deadline=None)
    @given(er_graphs(), st.sampled_from([0.25, 0.125]), st.sampled_from(PIPELINES))
    def test_a_phase_that_stops_early_leaves_no_operation(self, g, eps, spec):
        _run_pipeline(g, eps, spec, LeftoverAudit())

    @pytest.mark.parametrize("spec", PIPELINES)
    def test_the_audit_sees_early_stops(self, spec):
        audit = LeftoverAudit()
        for _, g in standard_corpus(10, 8, 40, seed=2026):
            _run_pipeline(g, 0.25, spec, audit)
        assert audit.certified > 0
        _run_pipeline(joined_gadgets(), 0.25, spec, audit)
        assert audit.early > 0


class TestCertifiedStop:
    """A phase whose live structures cannot meet leaves a maximum matching."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(er_graphs(), bipartite_graphs()), st.sampled_from(PIPELINES))
    def test_every_certified_stop_leaves_a_maximum_matching(self, g, spec):
        _run_pipeline(g, 0.25, spec, LeftoverAudit())

    @pytest.mark.parametrize("spec", ["greedy", "weak-exact"])
    def test_certified_stops_see_structures_that_cannot_meet(self, spec):
        audit = LeftoverAudit()
        for seed in range(6):
            _run_pipeline(gen_bipartite(14, 10, 0.2, seed=seed), 0.25, spec, audit)
        assert audit.apart > 0


class CertificateAudit(TraceHooks):
    """A settled phase without a path leaves no augmenting path of at most ``ell_max`` arcs."""

    def __init__(self):
        self.certified = 0

    def on_phase_end(self, state):
        if state.settled and not state.found_paths:
            short = enumerate_short_augmenting_paths(state.g, state.mate, state.params.ell_max)
            assert next(short, None) is None
            self.certified += 1


class TestCertificate:
    @settings(max_examples=60, deadline=None)
    @given(er_graphs(), st.sampled_from([0.25, 0.125]), st.sampled_from(PIPELINES))
    def test_a_settled_phase_without_a_path_leaves_no_short_path(self, g, eps, spec):
        _run_pipeline(g, eps, spec, CertificateAudit())

    @pytest.mark.parametrize("spec", ["greedy", "weak-exact"])
    def test_the_audit_sees_settled_phases(self, spec):
        audit = CertificateAudit()
        for _, g in standard_corpus(10, 8, 24, seed=2026):
            _run_pipeline(g, 0.125, spec, audit)
        assert audit.certified > 0

    def test_static_from_weak_stops_at_its_first_settled_phase(self):
        g = gen_planted(32, 0.85, 0.5, seed=11)
        audit = CertificateAudit()
        res = static_from_weak(g, 0.25, seed=1, hooks=audit)
        first, *rest = res.per_scale
        assert audit.certified == first.phases_run == 1 and first.paths_found == 0
        assert rest and all(sc.skipped and sc.phases_run == 0 for sc in rest)
        assert len(res.matching) == len(exact_mcm(g))

    @pytest.mark.parametrize("backend", ["weak-exact", "weak-greedy"])
    def test_sampled_runs_with_one_free_vertex_at_mu_settle(self, backend):
        # each keeps one free vertex with an edge at mu, whose lone
        # structure's samples can miss at every scale; its phase stops on
        # it, settled
        names = {"cycle-0001-n37", "bipartite-0003-n27", "blossom-gadget-0004-n19"}
        runs = 0
        for name, g in standard_corpus(6, 24, 64, seed=11):
            if name not in names:
                continue
            audit = CertificateAudit()
            res = static_from_weak(g, 0.25, backend, seed=5, hooks=audit)
            assert len(res.matching) == len(exact_mcm(g)), name
            assert audit.certified == 1 and res.per_scale[-1].skipped, name
            runs += 1
        assert runs == 3


class TestDepthCap:
    """``gen_long_paths`` leaves one augmenting path of ``2k + 1`` edges per copy.

    Two structures grow towards each other from the path's ends, each
    up to ``ell_max`` matched arcs deep, so ``boost`` finds the paths
    up to ``k = 2 * ell_max`` and settles without them above it.
    """

    @pytest.mark.parametrize("eps, k", [(0.25, 24), (0.125, 48)])
    def test_paths_within_the_cap_are_found(self, eps, k):
        g = gen_long_paths(k, 20)
        res = boost(g, eps, GreedyOracle())
        assert 2 * PhaseParams.for_scale(eps, 0.5).ell_max == k
        assert len(res.matching) == len(exact_mcm(g)) == 20 * (k + 1)

    @pytest.mark.parametrize("eps, k", [(0.25, 25), (0.125, 49)])
    def test_paths_beyond_the_cap_end_a_settled_run(self, eps, k):
        g = gen_long_paths(k, 20)
        audit = CertificateAudit()
        res = boost(g, eps, GreedyOracle(), hooks=audit)
        mu = len(exact_mcm(g))
        assert (len(res.matching), mu) == (20 * k, 20 * (k + 1))
        assert audit.certified == 1 and res.per_scale[-1].skipped
        ell_max = PhaseParams.for_scale(eps, 0.5).ell_max
        half = (ell_max + 1) // 2
        assert len(res.matching) * (half + 1) >= half * mu


def _eligible_owners(state: PhaseState, stage: int) -> list[int]:
    return [
        s.owner
        for s in state.live_structures()
        if not (s.on_hold or s.extended or s.working is None)
        and state.entry_label(s, s.working) == stage
    ]


def _sparse_matching(g: Graph, seed: int) -> Matching:
    rng = random.Random(seed)
    m = Matching(g.n)
    for u, v in sorted(g.edges):
        if rng.random() < 0.4 and m.mate[u] is None and m.mate[v] is None:
            m.add(u, v)
    return m


def _phases_then_boost(g: Graph, seed: int, audit) -> None:
    """Two phases from a sparse random matching, then a whole ``boost``.

    ``audit`` is both the oracle and the hooks.
    """
    m = _sparse_matching(g, seed)
    for h in (0.5, 0.125):
        params = PhaseParams.for_scale(0.25, h)
        run_phase(PhaseState(g, m, params), OracleFinder(CountedOracle(audit)), hooks=audit)
    boost(g, 0.25, audit, hooks=audit)


class BuilderAudit(TraceHooks):
    """Checks both builders against ``PhaseState.classify`` over every arc.

    The reference walks all arcs of the graph, so it shares no scan with
    the builders: H' is the minimum type-2 witness per owner pair,
    oriented from the smaller owner, and H'_s at each stage is every
    type-3 arc whose tail structure is eligible at that stage.  Checks
    run at the start of each bundle, after its simulations, and before
    each oracle call of the phase, where the builders' answers are used.
    """

    def __init__(self, oracle):
        self.inner = oracle
        self.c = oracle.c
        self.state: PhaseState | None = None
        self.checks = 0
        self.nonempty = {2: 0, 3: 0}

    def find(self, g):
        if self.state is not None:
            self.audit(self.state)
        return self.inner.find(g)

    def on_bundle_start(self, state, tau):
        self.state = state
        self.audit(state)

    def on_after_simulations(self, state, tau):
        self.audit(state)

    def on_phase_end(self, state):
        self.state = None

    def audit(self, state: PhaseState) -> None:
        by_type: dict[int, list[Arc]] = {2: [], 3: []}
        for arc in sorted(state.g.arcs()):
            kind = state.classify(*arc)
            if kind in by_type:
                by_type[kind].append(arc)
        want_pairs: dict[tuple[int, int], Arc] = {}
        for x, y in by_type[2]:
            a, b = state.structure_of[x], state.structure_of[y]
            if a < b and (a, b) not in want_pairs:
                want_pairs[(a, b)] = Arc(x, y)
        assert build_h_prime(state) == want_pairs
        for stage in range(state.params.ell_max + 1):
            owners = _eligible_owners(state, stage)
            want_arcs = [a for a in by_type[3] if state.structure_of[a.tail] in owners]
            want_layer: dict[tuple[int, int], Arc] = {}
            for x, y in want_arcs:
                want_layer.setdefault((state.structure_of[x], y), Arc(x, y))
            pairs, arcs = build_h_prime_s(state, stage)
            assert pairs == want_layer
            assert sorted(arcs) == want_arcs and len(set(arcs)) == len(arcs)
            self.nonempty[3] += bool(pairs)
        self.nonempty[2] += bool(want_pairs)
        self.checks += 1


class TestBuildersAgainstClassify:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=14),
        st.sampled_from([0.2, 0.35, 0.5]),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["greedy", "exact", "adversarial:2"]),
    )
    def test_builders_match_reference(self, n, p, seed, spec):
        # A phase from a sparse random matching joins many structures
        # (H' is rarely nonempty after the seed matching); a whole boost
        # then runs many bundles of layer graphs.
        audit = BuilderAudit(make_oracle(spec))
        _phases_then_boost(with_joined_gadgets(gen_er(n, p, seed=seed)), seed, audit)
        assert audit.checks > 0

    def test_reference_sees_both_graphs_nonempty(self):
        g, m = path6()
        audit = BuilderAudit(ExactOracle())
        finder = OracleFinder(CountedOracle(audit))
        run_phase(PhaseState(g, m, quarter_params()), finder, hooks=audit)
        assert audit.nonempty[2] > 0 and audit.nonempty[3] > 0


class IndexAudit(TraceHooks):
    """Checks the phase state's indexes and kept trees against a full rescan.

    At each bundle start, after the simulations and at each bundle end:
    every live structure's kept tree equals ``checks``' rebuild from its
    arcs; for every stage, ``ready_at`` lists exactly the eligible
    owners in ascending order; no live structure outside ``dirty`` has
    a type-1 arc; and every type-2 arc has an endpoint in ``fresh``,
    found with ``classify`` and no builder; every live structure's
    ``boundary_arcs`` equal a scan of its working vertex's members, and
    every cached boundary belongs to a root blossom.  Given an oracle, it also
    wraps it and checks before each call, in the middle of the
    simulations; ``AuditedWeak`` does the same for weak queries.
    """

    def __init__(self, oracle=None):
        self.inner = oracle
        self.c = getattr(oracle, "c", 1)
        self.state: PhaseState | None = None
        self.checks = 0
        self.ready_seen = 0
        self.type1_in_dirty = 0
        self.type2_seen = 0
        self.blossom_trees_seen = 0
        self.boundaries_seen = 0

    def find(self, g):
        self.audit(self.state)
        return self.inner.find(g)

    def on_bundle_start(self, state, tau):
        self.state = state
        self.audit(state)

    def on_after_simulations(self, state, tau):
        self.audit(state)

    def on_bundle_end(self, state, tau):
        self.audit(state)

    def on_phase_end(self, state):
        self.state = None

    def audit(self, state: PhaseState | None) -> None:
        if state is None:  # the seed matching's calls come before any phase
            return
        for s in state.live_structures():
            assert view_mismatches(state, s) == [], s.owner
            self.blossom_trees_seen += any(not state.omega.is_trivial(b) for b in s.view.depth)
        top = state.params.ell_max + 1
        for stage in range(top + 1):
            owners = [s.owner for s in state.ready_at(stage)]
            assert owners == _eligible_owners(state, stage)
            assert all(state.structures[o].ready_label == stage for o in owners)
            self.ready_seen += bool(owners)
        assert all(0 <= k <= top for k, owners in state.ready.items() if owners)
        assert state.dirty <= set(state.structures)
        for s in state.live_structures():
            if s.owner not in state.dirty:
                assert find_type1_arc(state, s) is None
            elif find_type1_arc(state, s) is not None:
                self.type1_in_dirty += 1
        type2 = [a for a in state.g.arcs() if state.classify(*a) == 2]
        assert all(x in state.fresh or y in state.fresh for x, y in type2)
        self.type2_seen += bool(type2)
        for s in state.live_structures():
            if s.working is not None:
                want = _boundary_scan(state.g, state.omega.members_of(s.working))
                assert list(state.boundary_arcs(s.working)) == want, s.owner
                self.boundaries_seen += not state.omega.is_trivial(s.working)
        assert all(state.omega.blossoms[b].parent is None for b in state.boundary)
        self.checks += 1


def _boundary_scan(g: Graph, members: set[int]) -> list[tuple[int, list[int]]]:
    """The arcs out of ``members`` by tail, each member's heads ascending."""
    out = []
    for x in sorted(members):
        ys = sorted(y for y in g.adj[x] if y not in members)
        if ys:
            out.append((x, ys))
    return out


class AuditedWeak:
    """A weak oracle that runs an ``IndexAudit`` before each query."""

    def __init__(self, audit: IndexAudit, inner):
        self.audit = audit
        self.inner = inner
        self.lam = inner.lam

    def query(self, s, delta):
        self.audit.audit(self.audit.state)
        return self.inner.query(s, delta)


def _sampled_phases_then_static(g: Graph, seed: int, audit: IndexAudit) -> None:
    """Two sampled phases from a sparse random matching, then ``static_from_weak``.

    Both run on weak-exact oracles and are audited at the hooks and
    before each weak query.
    """
    weak_g = AuditedWeak(audit, weak_from_exact(g))
    weak_b = AuditedWeak(audit, weak_from_exact(DoubleCover(g)))
    m = _sparse_matching(g, seed)
    for h in (0.5, 0.125):
        params = PhaseParams.for_scale(0.25, h)
        finder = SampledFinder(weak_g, weak_b, 0.25**7, random.Random(seed))
        run_phase(PhaseState(g, m, params), finder, audit)
    static_from_weak(g, 0.25, seed=seed, hooks=audit, weak_g=weak_g, weak_b=weak_b)


class TestIndexesAgainstRescan:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=14),
        st.sampled_from([0.2, 0.35, 0.5]),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["greedy", "exact", "adversarial:2"]),
    )
    def test_boost(self, n, p, seed, spec):
        audit = IndexAudit(make_oracle(spec, seed=1))
        _phases_then_boost(with_joined_gadgets(gen_er(n, p, seed=seed)), seed, audit)
        assert audit.checks > 0

    @settings(max_examples=15, deadline=None)
    @given(er_graphs())
    def test_static_from_weak(self, g):
        _sampled_phases_then_static(g, 3, IndexAudit())

    def test_audit_sees_ready_and_type1_work(self):
        # a dirty structure holds a type-1 arc at some oracle call, some
        # checks see a type-2 arc, and some a tree with a blossom, so no
        # check is vacuous
        audit = IndexAudit(make_oracle("greedy"))
        _phases_then_boost(gen_er(14, 0.35, seed=4), 4, audit)
        assert audit.ready_seen > 0 and audit.type1_in_dirty > 0
        assert audit.type2_seen > 0 and audit.blossom_trees_seen > 0
        weak = IndexAudit()
        _sampled_phases_then_static(gen_er(24, 0.1, seed=2), 2, weak)
        assert weak.ready_seen > 0 and weak.type2_seen > 0
        # some checks see a working vertex that is a blossom, on both finders
        for spec in ("greedy", "adversarial:2"):
            oracle = IndexAudit(make_oracle(spec))
            _phases_then_boost(joined_gadgets(), 3, oracle)
            assert oracle.boundaries_seen > 0, spec
        weak = IndexAudit()
        _sampled_phases_then_static(joined_gadgets(), 3, weak)
        assert weak.boundaries_seen > 0


def _boost_digest(res, rec) -> str:
    """The recorded digest of ``res`` with its replayed scales run out."""
    calls, rows, _ = expand_replayed(res, rec)
    blob = json.dumps(
        {
            "matching": sorted(res.matching.edges),
            "oracle_calls": calls,
            "per_scale": rows,
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Digests of boost at eps = 1/4 on standard_corpus(6, 24, 64, seed=11),
# recorded before the auxiliary graphs dropped their isolated vertices
# and while every scale still ran.  The cycle, bipartite and gadget
# digests were recorded again once a phase stopped on fewer than two
# live structures, and the adversarial:2 cycle, er, bipartite and
# gadget ones once ``Graph.copy`` kept each adjacency list's order.
GOLDEN_BOOST = {
    ("path-0000-n64", "greedy"): "f7f43c93b3a532dc",
    ("path-0000-n64", "adversarial:2"): "8b18823f70458fa7",
    ("cycle-0001-n37", "greedy"): "59b1016e545d35d8",
    ("cycle-0001-n37", "adversarial:2"): "a67042babc5eb3f9",
    ("er-0002-n44", "greedy"): "f3947ffe42e21ef4",
    ("er-0002-n44", "adversarial:2"): "97413553a9ec14b1",
    ("bipartite-0003-n27", "greedy"): "21e5b72580d549d7",
    ("bipartite-0003-n27", "adversarial:2"): "e78d85e871a3a9c0",
    ("blossom-gadget-0004-n19", "greedy"): "a9f77a46e68d977f",
    ("blossom-gadget-0004-n19", "adversarial:2"): "a9f77a46e68d977f",
    ("planted-0005-n54", "greedy"): "cbcaf02ce082d45c",
    ("planted-0005-n54", "adversarial:2"): "f6a91c491e93735e",
}


class TestGoldenReplay:
    def test_boost_reproduces_recorded_digests(self):
        got = {}
        for name, g in standard_corpus(6, 24, 64, seed=11):
            for spec in ("greedy", "adversarial:2"):
                got[(name, spec)] = _boost_digest(
                    *recorded_boost(g.copy(), 0.25, make_oracle(spec))
                )
        assert got == GOLDEN_BOOST
