"""Phase driver and boosting loop on small graphs with known optima."""

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchboost.corpus import gen_blossom_gadget, gen_er, standard_corpus
from matchboost.dynamic import DoubleCover, DynParams, SampledFinder, static_from_weak
from matchboost.engine import (
    OracleFinder,
    TraceHooks,
    _aux_graph_bipartite,
    _aux_graph_pairs,
    _head_eligible,
    boost,
    build_h_prime,
    build_h_prime_s,
    exhaust_type1,
    find_type1_arc,
    initial_matching,
    run_phase,
    run_scales,
)
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
        left, right, pairs, arcs = build_h_prime_s(state, 0)
        assert left == [0, 5]
        assert right == [1, 4]
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
        assert state.edgeless == [6] and 6 not in state.structure_of
        left, right, pairs, _ = build_h_prime_s(state, 0)
        assert left == [0, 5]
        assert right == [1, 4]
        aux, nodes = _aux_graph_bipartite(pairs)
        assert nodes == [("L", 0), ("L", 5), ("R", 1), ("R", 4)]
        assert sorted(aux.edges) == [(0, 2), (1, 3)]
        state.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        state.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        owners, pairs = build_h_prime(state)
        assert owners == [0, 5]
        aux, owners = _aux_graph_pairs(pairs)
        assert owners == [0, 5]
        assert sorted(aux.edges) == [(0, 1)]

    def test_layer_graph_empty_without_tails(self):
        g, m = path6()
        state = PhaseState(g, m, quarter_params())
        assert build_h_prime_s(state, 1) == ([], [], {}, [])

    def test_pair_graph_after_growth(self):
        g, m = path6()
        state = PhaseState(g, m, quarter_params())
        owners, pairs = build_h_prime(state)
        assert owners == [0, 5]
        assert pairs == {}
        state.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        state.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        _, pairs = build_h_prime(state)
        assert pairs == {(0, 5): Arc(2, 3)}

    def test_type1_detection_and_exhaust(self):
        g, m = triangle_tail()
        state = PhaseState(g, m, quarter_params())
        s = state.structure_at(0)
        assert find_type1_arc(state, s) is None
        state.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        assert find_type1_arc(state, s) == Arc(2, 0)
        stats = OracleStats()
        assert exhaust_type1(state, stats)
        assert state.root(0) == state.root(2) == 5
        assert find_type1_arc(state, s) is None
        assert stats.processing_steps == [3]


class TestRunPhase:
    def test_path6_single_path(self):
        g, m = path6()
        oracle = CountedOracle(ExactOracle())
        paths, state = run_phase(g, m, quarter_params(), OracleFinder(oracle))
        assert paths == [AltPath([0, 1, 2, 3, 4, 5])]
        assert state.structures == {}
        g.clear_removed()
        m2 = augment_all(m, paths)
        assert len(m2) == 3

    def test_blossom_and_benign_skip(self):
        # both free ends race for vertex 2; the loser's pair is consumed
        # in the same batch, then the triangle contracts and augments
        g, m = triangle_tail()
        oracle = CountedOracle(ExactOracle())
        paths, state = run_phase(g, m, quarter_params(), OracleFinder(oracle))
        assert paths == [AltPath([0, 1, 2, 3])]
        # the isolated 4 owns no structure
        assert state.structures == {} and state.edgeless == [4]
        assert 4 not in state.structure_of and 4 not in state.fresh

    def test_empty_matching_pairs_up_free_ends(self):
        g = Graph(4, [(0, 1), (2, 3)])
        oracle = CountedOracle(ExactOracle())
        paths, _ = run_phase(g, Matching(4), quarter_params(), OracleFinder(oracle))
        g.clear_removed()
        assert [p.vertices for p in paths] == [[0, 1], [2, 3]]

    def test_stats_instance_reused(self):
        g, m = path6()
        stats = OracleStats()
        oracle = CountedOracle(ExactOracle(), stats)
        run_phase(g, m, quarter_params(), OracleFinder(oracle), stats)
        assert stats.calls > 0
        assert len(stats.per_call_sizes) == stats.calls


def idle(finder_cls):
    """A finder of ``finder_cls``'s patience that never finds an operation."""

    class Idle(finder_cls):
        def __init__(self):
            pass

        def extend(self, state, params, stats, hooks=None):
            return False

        contract_and_augment = extend

        def pending_work(self, state, params):
            return False

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
        assert [sc.phases_run for sc in per_scale] == [patience] * len(per_scale)
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
        assert all(sc.phases_run >= 1 for sc in res.per_scale)
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


@st.composite
def er_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    p = draw(st.sampled_from([0.1, 0.2, 0.35]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return gen_er(n, p, seed=seed)


class TestBoostProperties:
    @settings(max_examples=25, deadline=None)
    @given(er_graphs(), st.sampled_from(["exact", "greedy", "adversarial:2"]))
    def test_approximation_bound(self, g, spec):
        mu = len(exact_mcm(g))
        res = boost(g, 0.25, make_oracle(spec, seed=1))
        assert is_matching(g, res.matching)
        assert len(res.matching) >= approx_floor(mu, 0.25)


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
        run_phase(g, m, params, OracleFinder(CountedOracle(audit)), hooks=audit)
        g.clear_removed()
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
        assert build_h_prime(state) == (sorted(state.structures), want_pairs)
        for stage in range(state.params.ell_max + 1):
            owners = _eligible_owners(state, stage)
            want_arcs = [a for a in by_type[3] if state.structure_of[a.tail] in owners]
            want_layer: dict[tuple[int, int], Arc] = {}
            for x, y in want_arcs:
                want_layer.setdefault((state.structure_of[x], y), Arc(x, y))
            left, right, pairs, arcs = build_h_prime_s(state, stage)
            assert left == owners
            assert right == sorted({y for _, y in want_layer})
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
        _phases_then_boost(gen_er(n, p, seed=seed), seed, audit)
        assert audit.checks > 0

    def test_reference_sees_both_graphs_nonempty(self):
        g, m = path6()
        audit = BuilderAudit(ExactOracle())
        run_phase(g, m, quarter_params(), OracleFinder(CountedOracle(audit)), hooks=audit)
        assert audit.nonempty[2] > 0 and audit.nonempty[3] > 0


class IndexAudit(TraceHooks):
    """Checks the phase state's indexes against a full rescan.

    At each bundle start, after the simulations and at each bundle end:
    for every stage, ``ready_at`` lists exactly the eligible owners in
    ascending order; no live structure outside ``dirty`` has a type-1
    arc; and every type-2 arc has an endpoint in ``fresh``, found with
    ``classify`` and no builder.  Given an oracle, it also wraps it and
    checks before each call, in the middle of the simulations;
    ``AuditedWeak`` does the same for weak queries.
    """

    def __init__(self, oracle=None):
        self.inner = oracle
        self.c = getattr(oracle, "c", 1)
        self.state: PhaseState | None = None
        self.checks = 0
        self.ready_seen = 0
        self.type1_in_dirty = 0
        self.type2_seen = 0

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
        self.checks += 1


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
    weak_b = AuditedWeak(audit, weak_from_exact(DoubleCover(g).materialize()))
    m = _sparse_matching(g, seed)
    for h in (0.5, 0.125):
        params = PhaseParams.for_scale(0.25, h)
        finder = SampledFinder(weak_g, weak_b, DynParams.desk(0.25), random.Random(seed))
        run_phase(g, m, params, finder, OracleStats(), audit)
        g.clear_removed()
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
        _phases_then_boost(gen_er(n, p, seed=seed), seed, audit)
        assert audit.checks > 0

    @settings(max_examples=15, deadline=None)
    @given(er_graphs())
    def test_static_from_weak(self, g):
        _sampled_phases_then_static(g, 3, IndexAudit())

    def test_audit_sees_ready_and_type1_work(self):
        # a dirty structure holds a type-1 arc at some oracle call, and
        # some checks see a type-2 arc, so neither check is vacuous
        audit = IndexAudit(make_oracle("greedy"))
        _phases_then_boost(gen_er(14, 0.35, seed=4), 4, audit)
        assert audit.ready_seen > 0 and audit.type1_in_dirty > 0
        assert audit.type2_seen > 0
        weak = IndexAudit()
        _sampled_phases_then_static(gen_er(24, 0.1, seed=2), 2, weak)
        assert weak.ready_seen > 0 and weak.type2_seen > 0


def _boost_digest(res) -> str:
    blob = json.dumps(
        {
            "matching": sorted(res.matching.edges),
            "oracle_calls": res.oracle_calls,
            "per_scale": [
                [sc.h, sc.phases_run, sc.paths_found, sc.oracle_calls]
                for sc in res.per_scale
            ],
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Digests of boost at eps = 1/4 on standard_corpus(6, 24, 64, seed=11),
# recorded before the auxiliary graphs dropped their isolated vertices.
GOLDEN_BOOST = {
    ("path-0000-n64", "greedy"): "f7f43c93b3a532dc",
    ("path-0000-n64", "adversarial:2"): "8b18823f70458fa7",
    ("cycle-0001-n37", "greedy"): "7b288350efe593ae",
    ("cycle-0001-n37", "adversarial:2"): "424d794886cac8c6",
    ("er-0002-n44", "greedy"): "f3947ffe42e21ef4",
    ("er-0002-n44", "adversarial:2"): "9736386b5f14d070",
    ("bipartite-0003-n27", "greedy"): "637f4184c2a396d6",
    ("bipartite-0003-n27", "adversarial:2"): "bd24da7785f5483e",
    ("blossom-gadget-0004-n19", "greedy"): "f78d4e14b60c5a8b",
    ("blossom-gadget-0004-n19", "adversarial:2"): "6391f6baffdccd27",
    ("planted-0005-n54", "greedy"): "cbcaf02ce082d45c",
    ("planted-0005-n54", "adversarial:2"): "f6a91c491e93735e",
}


class TestGoldenReplay:
    def test_boost_reproduces_recorded_digests(self):
        got = {}
        for name, g in standard_corpus(6, 24, 64, seed=11):
            for spec in ("greedy", "adversarial:2"):
                got[(name, spec)] = _boost_digest(boost(g.copy(), 0.25, make_oracle(spec)))
        assert got == GOLDEN_BOOST
