"""Invariant checkers: clean states pass, seeded corruptions are caught."""

import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchboost.checks as checks
from matchboost.checks import (
    InvariantHooks,
    active_arc_pairs,
    check_no_actionable_arcs,
    check_outer_outer_covered,
    check_short_paths_covered,
    check_state,
    critical_free_vertices,
    enumerate_short_augmenting_paths,
)
from matchboost.corpus import gen_blossom_gadget, gen_er
from matchboost.dynamic import static_from_weak
from matchboost.engine import boost
from matchboost.errors import InternalConsistencyError
from matchboost.graph import Arc, Graph, Matching, edge_key, is_matching
from matchboost.oracles import GreedyOracle, exact_mcm, make_oracle
from matchboost.params import Constants, PhaseParams
from matchboost.structures import PhaseState

from _inputs import joined_gadgets, with_joined_gadgets


def params() -> PhaseParams:
    return PhaseParams.for_scale(0.25, 0.5)


def path6() -> PhaseState:
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    m = Matching(6)
    m.add(1, 2)
    m.add(3, 4)
    return PhaseState(g, m, params())


def grown_path6() -> PhaseState:
    st = path6()
    st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
    st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
    return st


class TestCheckState:
    def test_clean_states(self):
        assert check_state(path6(), at_bundle_start=True) == []
        st = grown_path6()
        assert check_state(st) == []

    def test_unregistered_vertex(self):
        st = path6()
        st.structure_of[3] = 0
        assert any("registered to missing" in p for p in check_state(st))

    def test_vertex_in_two_structures(self):
        st = path6()
        st.structure_at(0).vertices.add(5)
        problems = check_state(st)
        assert any("in structures 0 and 5" in p for p in problems)

    def test_label_out_of_range(self):
        st = path6()
        st.labels[(1, 2)] = 99
        assert any("out of range" in p for p in check_state(st))

    def test_lowered_unvisited_label(self):
        """An unvisited matched edge stores no label: it keeps ell_max + 1 both ways."""
        top = params().ell_max + 1
        for arc in ((1, 2), (2, 1)):
            for lab in (top - 1, top):
                st = path6()
                st.labels[arc] = lab
                assert any("unvisited matched edge (1, 2)" in p for p in check_state(st))
        st = grown_path6()
        st.labels[(2, 1)] = top - 1  # visited: lowering is legal
        assert check_state(st) == []
        st = path6()
        st.removed[1] = st.removed[2] = True
        st.labels[(1, 2)] = 0  # removed: no longer unvisited
        assert check_state(st) == []

    def test_inner_working_vertex(self):
        st = grown_path6()
        st.structure_at(0).working = 1
        assert any("is inner" in p for p in check_state(st))

    def test_kept_tree_differs_from_its_rebuild(self):
        st = grown_path6()
        st.structure_at(0).view.depth[2] = 4  # still outer, but too deep
        assert any(
            "structure 0: kept tree differs from its rebuild in depth" in p
            for p in check_state(st)
        )
        st = grown_path6()
        view = st.structure_at(5).view
        view.children[5].remove(4)  # 4 keeps its parent: no longer a child
        assert any("in children" in p for p in check_state(st))
        st = grown_path6()
        st.structure_at(0).view.parent_arc[1] = Arc(0, 2)
        assert any("in parent_arc" in p for p in check_state(st))

    def test_stale_marks_at_bundle_start(self):
        st = grown_path6()
        problems = check_state(st, at_bundle_start=True)
        assert any("stale progress mark" in p for p in problems)
        st.mark_for_pass_bundle()
        assert check_state(st, at_bundle_start=True) == []
        st.structure_at(0).on_hold = True
        problems = check_state(st, at_bundle_start=True)
        assert any("stale hold mark" in p for p in problems)

    def test_split_matched_pair(self):
        st = grown_path6()
        s5 = st.structure_at(5)
        s5.vertices.discard(3)
        problems = check_state(st)
        assert any("split across structures" in p for p in problems)

    def test_context_prefix(self):
        st = path6()
        st.labels[(1, 2)] = 99
        assert check_state(st, context="here")[0].startswith("here: ")


class TestShortPathEnumeration:
    def test_path6_single_path(self):
        st = path6()
        found = list(enumerate_short_augmenting_paths(st.g, st.mate, 5))
        assert found == [[0, 1, 2, 3, 4, 5]]

    def test_arc_budget_cuts_off(self):
        st = path6()
        assert list(enumerate_short_augmenting_paths(st.g, st.mate, 4)) == []

    def test_one_orientation_only(self):
        g = Graph(2, [(0, 1)])
        m = Matching(2)
        assert list(enumerate_short_augmenting_paths(g, m.mate, 3)) == [[0, 1]]

    def test_triangle_tail(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)])
        m = Matching(5)
        m.add(1, 2)
        found = list(enumerate_short_augmenting_paths(g, m.mate, 3))
        assert found == [[0, 1, 2, 3]]

    def test_respects_removal(self):
        st = path6()
        assert list(enumerate_short_augmenting_paths(st.g, st.mate, 5, st.removed)) != []
        st.removed[3] = True
        assert list(enumerate_short_augmenting_paths(st.g, st.mate, 5, st.removed)) == []


class TestCoverageChecks:
    def test_outer_outer_needs_ledger(self):
        # only the ledger entry of the edge itself covers it
        st = grown_path6()
        assert check_outer_outer_covered(st, set()) != []
        assert check_outer_outer_covered(st, {edge_key(0, 1)}) != []
        assert check_outer_outer_covered(st, {edge_key(2, 3)}) == []

    def test_outer_outer_found_and_cleared(self):
        st = grown_path6()
        problems = check_outer_outer_covered(st, set(), "ctx")
        assert problems == ["ctx: outer-outer edge (2, 3) is not in the ledger"]
        assert check_outer_outer_covered(st, {edge_key(3, 2)}) == []

    def test_actionable_arcs_exempt_extended(self):
        st = path6()
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        problems = check_no_actionable_arcs(st, set(), "ctx")
        # the type-3 arc of the freshly extended structure is exempt;
        # the idle structure's arc is a genuine leftover
        assert problems == ["ctx: leftover type 3 arc (5, 4)"]
        assert check_no_actionable_arcs(st, {edge_key(5, 4)}) == []

    def test_active_path_bookkeeping(self):
        st = grown_path6()
        assert critical_free_vertices(st) == {0, 5}
        pairs = active_arc_pairs(st)
        assert (0, 1) in pairs and (1, 0) in pairs
        assert (4, 3) in pairs and (5, 4) in pairs

    def test_short_paths_covered_by_active_ends(self):
        st = grown_path6()
        assert check_short_paths_covered(st, set()) == []

    def test_short_paths_escape_detected(self):
        st = grown_path6()
        st.structure_at(0).working = None
        st.structure_at(5).working = None
        problems = check_short_paths_covered(st, set(), "ctx")
        assert problems == ["ctx: augmenting path [0, 1, 2, 3, 4, 5] escapes the search state"]
        assert check_short_paths_covered(st, {edge_key(2, 3)}) == []


class TestInvariantHooks:
    def test_clean_boost_run(self):
        g = gen_blossom_gadget(2)
        hooks = InvariantHooks(g, 0.25, audit_paths=True)
        res = boost(g, 0.25, GreedyOracle(seed=1), hooks=hooks)
        assert hooks.bundles_checked > 0
        assert hooks.paths_audited == hooks.bundles_checked
        assert len(res.matching) >= 1

    @pytest.mark.parametrize("run", ["boost", "static_from_weak"])
    def test_keeps_the_ledger_and_runs_its_checks(self, run, monkeypatch):
        # No flag switches the ledger on: every ledger check must run,
        # and with a non-empty ledger at least once.  An oracle run
        # leaves work behind only when a loop stops at its iteration
        # cap, so the boost run cuts the cap to 3 rounds and halves every
        # answer: the 8 free edges its seed matching leaves need 4.
        # A sampled run leaves work when its samples miss.
        seen: dict[str, list[int]] = {}
        for name in (
            "check_outer_outer_covered", "check_no_actionable_arcs", "check_short_paths_covered"
        ):
            def spy(state, ledger, context="", _name=name, _fn=getattr(checks, name)):
                assert isinstance(ledger, set)
                seen.setdefault(_name, []).append(len(ledger))
                return _fn(state, ledger, context)

            monkeypatch.setattr(checks, name, spy)
        if run == "boost":
            g = with_joined_gadgets(Graph(256, [(2 * i, 2 * i + 1) for i in range(128)]))
            hooks = InvariantHooks(g, 0.25, audit_paths=True)
            boost(
                g, 0.25, make_oracle("adversarial:2"), Constants(iter_coeff=1), hooks=hooks
            )
        else:
            g = joined_gadgets()
            hooks = InvariantHooks(g, 0.25, audit_paths=True)
            static_from_weak(g, 0.25, hooks=hooks)
        assert sorted(seen) == [
            "check_no_actionable_arcs", "check_outer_outer_covered", "check_short_paths_covered"
        ]
        assert all(max(sizes) > 0 for sizes in seen.values()), seen
        assert hooks.paths_audited == hooks.bundles_checked == len(seen["check_short_paths_covered"])

    def test_stage_end_records_leftover_arcs_undirected(self):
        # stage 0 leaves the type-3 arcs (0, 1) and (5, 4) unused
        st = path6()
        hooks = InvariantHooks(st.g, 0.25)
        assert check_no_actionable_arcs(st, hooks.ledger_of(st)) != []
        hooks.on_stage_end(st, 0)
        assert hooks.ledger == {(0, 1), (4, 5)}
        assert check_no_actionable_arcs(st, hooks.ledger) == []

    def test_augment_round_end_records_type2_edges(self):
        st = grown_path6()
        hooks = InvariantHooks(st.g, 0.25)
        hooks.on_augment_round_end(st)
        assert hooks.ledger == {(2, 3)}
        assert check_outer_outer_covered(st, hooks.ledger) == []

    def test_ledger_resets_for_each_state(self):
        st = grown_path6()
        hooks = InvariantHooks(st.g, 0.25)
        hooks.on_augment_round_end(st)
        assert hooks.ledger_of(st) == {(2, 3)}
        other = grown_path6()
        assert hooks.ledger_of(other) == set()
        with pytest.raises(InternalConsistencyError, match="not in the ledger"):
            hooks.on_bundle_start(other, 2)

    def test_a_resumed_held_start_keeps_the_ledger(self):
        # the held start a later phase resumes goes on with the ledger as it
        # stood when the copy was made, as it would in a fresh phase
        st = grown_path6()
        st.mark_for_pass_bundle()
        hooks = InvariantHooks(st.g, 0.25)
        hooks.on_augment_round_end(st)
        st.held_start = st.copy()
        hooks.on_bundle_start(st, 2)
        hooks.on_bundle_start(st.held_start, 2)
        assert hooks.ledger == {(2, 3)}
        with pytest.raises(InternalConsistencyError, match="not in the ledger"):
            hooks.on_bundle_start(st.copy(), 2)

    def test_raises_on_corruption(self):
        st = path6()
        st.labels[(1, 2)] = 99
        hooks = InvariantHooks(st.g, 0.25)
        with pytest.raises(InternalConsistencyError, match="out of range"):
            hooks.on_bundle_end(st, 1)

    # The hand-set labels sit on the visited matched edge (1, 2): an
    # unvisited one must keep its top label (see test_lowered_unvisited_label).
    def test_label_monotonicity_window(self):
        st = grown_path6()
        hooks = InvariantHooks(st.g, 0.25)
        hooks.on_phase_start(params(), 0.5, 1)
        hooks.on_bundle_end(st, 1)
        st.labels[(2, 1)] = 5
        hooks.on_bundle_end(st, 2)
        st.labels[(2, 1)] = 9
        with pytest.raises(InternalConsistencyError, match="rose"):
            hooks.on_bundle_end(st, 3)

    def test_snapshot_resets_per_phase(self):
        st = grown_path6()
        hooks = InvariantHooks(st.g, 0.25)
        hooks.on_phase_start(params(), 0.5, 1)
        st.labels[(2, 1)] = 5
        hooks.on_bundle_end(st, 1)
        st.labels[(2, 1)] = 13
        hooks.on_phase_start(params(), 0.5, 2)
        hooks.on_bundle_end(st, 1)  # fresh snapshot, no complaint

    def test_oracle_graph_degree_guard(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        hooks = InvariantHooks(g, 0.25)
        hooks.on_oracle_graph(Graph(0))
        hooks.on_oracle_graph(Graph(3, [(0, 1), (1, 2)]))
        star = Graph(600)
        for v in range(1, 600):
            star.add_edge(0, v)
        with pytest.raises(InternalConsistencyError, match="degree"):
            hooks.on_oracle_graph(star)


@st.composite
def graphs_with_isolated_vertices(draw) -> Graph:
    """A small ER graph plus up to six isolated vertices, labels shuffled."""
    n = draw(st.integers(min_value=2, max_value=14))
    p = draw(st.sampled_from([0.1, 0.2, 0.35]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    k = draw(st.integers(min_value=0, max_value=6))
    perm = list(range(n + k))
    random.Random(seed).shuffle(perm)
    base = gen_er(n, p, seed=seed)
    return Graph(n + k, [(perm[u], perm[v]) for u, v in base.edges])


class TestInvariantProperties:
    @settings(max_examples=40, deadline=None)
    @given(graphs_with_isolated_vertices())
    def test_every_oracle_family_keeps_the_invariants_and_the_bound(self, g):
        # InvariantHooks raises InternalConsistencyError on the first
        # broken invariant, with the short-path audit on
        floor = math.ceil(len(exact_mcm(g)) / 1.25)
        for spec in ("greedy", "exact", "adversarial:2"):
            hooks = InvariantHooks(g, 0.25, audit_paths=True)
            res = boost(g.copy(), 0.25, make_oracle(spec, seed=1), hooks=hooks)
            assert is_matching(g, res.matching)
            assert len(res.matching) >= floor, spec
        hooks = InvariantHooks(g, 0.25, audit_paths=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = static_from_weak(g.copy(), 0.25, "weak-exact", seed=1, hooks=hooks)
        assert is_matching(g, res.matching)
        assert len(res.matching) >= floor
