"""Phase state, labels, and the three basic operations on small hand graphs."""

import pytest

from matchboost.engine import build_h_prime
from matchboost.errors import (
    InternalConsistencyError,
    InvalidEpsilonError,
    PreconditionError,
)
from matchboost.graph import AltPath, Arc, Graph, Matching
from matchboost.params import (
    Constants,
    PhaseParams,
    normalize_epsilon,
    scale_sequence,
)
from matchboost.structures import PhaseState


def params(epsilon: float = 0.25, h: float = 0.5, **overrides) -> PhaseParams:
    return PhaseParams.for_scale(epsilon, h, Constants().with_overrides(overrides))


def assert_edgeless(st: PhaseState, v: int) -> None:
    """``v`` is listed as an edgeless free vertex and sits in no index."""
    assert v in st.edgeless
    assert v not in st.structures and v not in st.structure_of
    assert all(v not in owners for owners in st.ready.values())
    assert v not in st.dirty and v not in st.fresh


def path6() -> tuple[Graph, Matching]:
    # 0 - 1 = 2 - 3 = 4 - 5   (= matched), free ends 0 and 5.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    m = Matching(6)
    m.add(1, 2)
    m.add(3, 4)
    return g, m


def triangle_tail() -> tuple[Graph, Matching]:
    # Triangle 0-1-2 with matched (1, 2), pendant 2-3, isolated 4.
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)])
    m = Matching(5)
    m.add(1, 2)
    return g, m


def branched() -> tuple[Graph, Matching]:
    # One free vertex 5 can grow a tree that branches at 3; a second
    # free vertex 0 reaches the inner vertex 2 through a chord.
    g = Graph(10, [(5, 4), (4, 3), (3, 2), (2, 1), (3, 8), (8, 9), (0, 2), (9, 2)])
    m = Matching(10)
    m.add(3, 4)
    m.add(1, 2)
    m.add(8, 9)
    return g, m


class TestParams:
    def test_for_scale_frozen(self):
        p = PhaseParams.for_scale(0.25, 0.5)
        assert (p.ell_max, p.limit_h, p.tau_max) == (12, 13, 576)
        assert (p.delta_h, p.phases) == (288, 1152)

    def test_sim_iterations(self):
        p = PhaseParams.for_scale(0.25, 0.5)
        assert p.sim_iterations(1) == 31
        assert p.sim_iterations(2) == 61

    def test_normalize_epsilon(self):
        assert normalize_epsilon(0.25) == 0.25
        assert normalize_epsilon(1 / 8) == 1 / 8
        with pytest.warns(UserWarning):
            assert normalize_epsilon(0.2) == 0.125
        with pytest.raises(InvalidEpsilonError):
            normalize_epsilon(0.3)
        with pytest.raises(InvalidEpsilonError):
            normalize_epsilon(0.0)

    def test_scale_sequence_quarter(self):
        scales = scale_sequence(0.25)
        assert scales[0] == 0.5
        assert scales[-1] == 2.0**-10
        assert len(scales) == 10

    def test_overrides(self):
        c = Constants().with_overrides({"limit_coeff": 1})
        assert c.limit_coeff == 1
        assert Constants().with_overrides(None) == Constants()
        with pytest.raises(InvalidEpsilonError):
            Constants().with_overrides({"mystery": 3})


class TestStateInit:
    def test_initial_structures(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        assert sorted(st.structures) == [0, 5]
        assert st.structure_at(0).owner == 0
        assert st.structure_at(1) is None
        assert [s.owner for s in st.live_structures()] == [0, 5]

    def test_initial_labels(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        top = st.params.ell_max + 1
        assert st.labels[(1, 2)] == top
        assert st.labels[(2, 1)] == top
        assert st.head_label(3) == top

    def test_init_structure_rejects_matched(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        with pytest.raises(PreconditionError):
            st.init_structure(1)

    def test_head_label_unmatched(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        with pytest.raises(PreconditionError):
            st.head_label(0)


class TestClassify:
    def test_fresh_path(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        assert st.classify(0, 1) == 3
        assert st.classify(1, 0) is None  # tail not in any structure
        assert st.classify(1, 2) is None  # matched arc
        assert st.classify(2, 3) is None  # tail unvisited

    def test_after_growth(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        assert st.classify(2, 3) == 3
        st.op_overtake(Arc(2, 3), Arc(3, 4), 2)
        assert st.classify(4, 5) == 2
        assert st.classify(5, 4) == 2

    def test_hold_blocks_type3(self):
        g, m = path6()
        st = PhaseState(g, m, params(limit_coeff=0))  # limit_h == 1
        st.mark_for_pass_bundle()
        assert st.structure_at(0).on_hold
        assert st.classify(0, 1) is None

    def test_type1_on_triangle(self):
        g, m = triangle_tail()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        assert st.classify(2, 0) == 1
        assert st.classify(0, 2) == 1

    def test_removed_endpoint(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        g.remove_vertices([1])
        assert st.classify(0, 1) is None


class TestOvertake:
    def test_unvisited_extends(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        s = st.structure_at(0)
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        assert s.vertices == {0, 1, 2}
        assert s.arcs == {Arc(0, 1), Arc(1, 2)}
        assert s.working == 2
        assert s.modified and s.extended
        assert st.labels[(1, 2)] == 1
        assert st.labels[(2, 1)] == st.params.ell_max + 1
        assert st.structure_of[1] == 0 and st.structure_of[2] == 0
        view = st.tree(s)
        assert view.depth == {0: 0, 1: 1, 2: 2}
        assert st.entry_label(s, 2) == 1

    def test_label_must_drop(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        top = st.params.ell_max + 1
        with pytest.raises(PreconditionError, match="undercut"):
            st.op_overtake(Arc(0, 1), Arc(1, 2), top)

    def test_matched_arc_must_leave_head(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        with pytest.raises(PreconditionError):
            st.op_overtake(Arc(0, 1), Arc(2, 1), 1)

    def test_tail_must_be_working(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        with pytest.raises(PreconditionError):
            st.op_overtake(Arc(1, 2), Arc(2, 1), 1)
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        # working vertex moved to 2, so the tail 0 no longer qualifies
        with pytest.raises(PreconditionError):
            st.op_overtake(Arc(0, 1), Arc(1, 2), 0)

    def test_ancestor_head_rejected(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
        m = Matching(5)
        m.add(1, 2)
        m.add(3, 4)
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(2, 3), Arc(3, 4), 2)
        with pytest.raises(PreconditionError, match="ancestor"):
            st.op_overtake(Arc(4, 1), Arc(1, 2), 0)

    def test_same_structure_reroute(self):
        g, m = branched()
        st = PhaseState(g, m, params())
        s = st.structure_at(5)
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        st.op_overtake(Arc(3, 2), Arc(2, 1), 2)
        st.mark_for_pass_bundle()
        assert st.backtrack_stuck()
        assert s.working == 3
        st.op_overtake(Arc(3, 8), Arc(8, 9), 2)
        assert s.working == 9
        # reach the inner vertex 2 again, on a shorter path through 9
        st.op_overtake(Arc(9, 2), Arc(2, 1), 1)
        assert st.labels[(2, 1)] == 1
        assert s.working == 1
        assert Arc(3, 2) not in s.arcs
        assert Arc(9, 2) in s.arcs
        view = st.tree(s)
        assert view.parent[2] == 9
        assert view.depth[1] == 6

    def test_cross_structure_steal(self):
        g, m = branched()
        st = PhaseState(g, m, params())
        s5 = st.structure_at(5)
        s0 = st.structure_at(0)
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        st.op_overtake(Arc(3, 2), Arc(2, 1), 2)
        st.mark_for_pass_bundle()
        assert st.classify(0, 2) == 3
        st.op_overtake(Arc(0, 2), Arc(2, 1), 1)
        assert s0.vertices == {0, 1, 2}
        assert s5.vertices == {3, 4, 5}
        assert st.structure_of[1] == 0
        assert st.labels[(2, 1)] == 1
        # the donor lost its working vertex, so it retreats to the cut point
        assert s0.working == 1
        assert s5.working == 3
        assert s5.modified and not s5.extended
        assert Arc(3, 2) not in s5.arcs
        # the donor is filed under its new working vertex's entry label;
        # the extended taker leaves the ready sets
        assert st.entry_label(s5, 3) == 1
        assert s5.ready_label == 1
        assert [s.owner for s in st.ready_at(1)] == [5]
        assert st.ready_at(2) == []
        assert st.ready_at(0) == []
        assert_edgeless(st, 6)
        assert_edgeless(st, 7)
        assert s0.ready_label is None
        assert st.dirty == {0, 5}

    def test_cross_structure_keeps_donor_working(self):
        g, m = branched()
        st = PhaseState(g, m, params())
        s5 = st.structure_at(5)
        s0 = st.structure_at(0)
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        st.op_overtake(Arc(3, 2), Arc(2, 1), 2)
        st.mark_for_pass_bundle()
        s5.working = 3  # retreated, as after a stuck bundle
        st.op_overtake(Arc(3, 8), Arc(8, 9), 2)
        # donor keeps working on its other branch after the theft
        st.op_overtake(Arc(0, 2), Arc(2, 1), 1)
        assert s0.vertices == {0, 1, 2}
        assert s0.working == 1
        assert s5.working == 9
        assert s5.vertices == {3, 4, 5, 8, 9}


class TestContract:
    def test_triangle_blossom(self):
        g, m = triangle_tail()
        st = PhaseState(g, m, params())
        s = st.structure_at(0)
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        bid = st.op_contract(Arc(2, 0))
        assert bid == 5
        assert st.root(0) == st.root(1) == st.root(2) == bid
        assert st.omega.members_of(bid) == {0, 1, 2}
        assert s.working == bid
        assert bid in s.blossom_ids
        assert st.labels[(1, 2)] == 0 and st.labels[(2, 1)] == 0
        assert st.tree(s).depth == {bid: 0}

    def test_contract_requires_same_structure(self):
        g, m = triangle_tail()
        st = PhaseState(g, m, params())
        with pytest.raises(PreconditionError):
            st.op_contract(Arc(0, 1))

    def test_contract_requires_working_tail(self):
        g, m = triangle_tail()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        with pytest.raises(PreconditionError):
            st.op_contract(Arc(0, 2))


class TestAugment:
    def test_path6_end_to_end(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(2, 3), Arc(3, 4), 2)
        path = st.op_augment(Arc(4, 5))
        assert path == AltPath([0, 1, 2, 3, 4, 5])
        assert st.found_paths == [path]
        assert st.structures == {}
        assert all(g.removed[v] for v in range(6))

    def test_meet_in_the_middle(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        path = st.op_augment(Arc(3, 2))
        assert path == AltPath([5, 4, 3, 2, 1, 0])

    def test_through_blossom(self):
        g, m = triangle_tail()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_contract(Arc(2, 0))
        assert st.classify(2, 3) == 2
        path = st.op_augment(Arc(2, 3))
        assert path == AltPath([0, 1, 2, 3])
        assert st.structures == {}
        assert_edgeless(st, 4)
        assert not g.removed[4]

    def test_rejects_same_structure(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        with pytest.raises(PreconditionError):
            st.op_augment(Arc(0, 1))

    def test_rejects_inner_endpoint(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(2, 3), Arc(3, 4), 2)
        with pytest.raises(PreconditionError, match="outer"):
            st.op_augment(Arc(3, 5))


class TestBundleBookkeeping:
    def test_mark_resets_and_holds(self):
        g, m = path6()
        st = PhaseState(g, m, params(limit_coeff=1))  # limit_h == 3
        s = st.structure_at(0)
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        assert s.modified and s.extended
        st.mark_for_pass_bundle()
        assert s.on_hold and not s.modified and not s.extended
        assert not st.structure_at(5).on_hold

    def test_backtrack_two_levels(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        s = st.structure_at(0)
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.mark_for_pass_bundle()
        assert st.backtrack_stuck()
        assert s.working == 0
        assert st.backtrack_stuck()
        assert s.working is None
        assert st.structure_at(5).working is None

    def test_backtrack_skips_busy(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        # only the untouched structure retreats; the modified one is exempt
        assert st.backtrack_stuck()
        assert st.structure_at(0).working == 2
        assert st.structure_at(5).working is None

    def test_first_backtrack_moves_the_edgeless_vertices(self):
        # the only free vertices, 2 and 3, have no edge: their singleton
        # structures would have left the root in the first backtrack,
        # unless on hold, as all are when limit_h == 1
        g = Graph(4, [(0, 1)])
        m = Matching(4)
        m.add(0, 1)
        for limit_coeff, moves in [(6, [True, False]), (0, [False, False])]:
            st = PhaseState(g, m, params(limit_coeff=limit_coeff))
            assert st.edgeless == [2, 3] and st.structures == {}
            for want in moves:
                st.mark_for_pass_bundle()
                assert st.backtrack_stuck() == want

    def test_debug_json(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        snap = st.structure_at(0).to_debug_json(st)
        assert snap["owner"] == 0
        assert snap["vertices"] == [0, 1, 2]
        assert snap["working"] == 2
        assert snap["active_path"] == [0, 1, 2]
        assert snap["active_labels"] == [0, 1]
        assert snap["marks"] == {"on_hold": False, "modified": True, "extended": True}


def _ready(st: PhaseState) -> dict[int, list[int]]:
    return {k: sorted(v) for k, v in st.ready.items() if v}


class TestIndexes:
    def test_fresh_state_files_every_free_vertex_at_zero(self):
        # every free vertex with an edge; the isolated 4 is in no index
        g, m = triangle_tail()
        st = PhaseState(g, m, params())
        assert _ready(st) == {0: [0, 3]}
        assert [s.owner for s in st.ready_at(0)] == [0, 3]
        assert st.ready_at(1) == []
        assert st.dirty == set()
        assert_edgeless(st, 4)

    def test_overtake_and_contract_refile(self):
        g, m = triangle_tail()
        st = PhaseState(g, m, params())
        s = st.structure_at(0)
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        # extended: out of the ready sets until the next bundle, and dirty
        assert _ready(st) == {0: [3]} and st.dirty == {0}
        st.mark_for_pass_bundle()
        assert _ready(st) == {0: [3], 1: [0]}
        st.op_contract(Arc(2, 0))
        assert s.ready_label is None and _ready(st) == {0: [3]}
        st.mark_for_pass_bundle()
        # the blossom holds the root, so its entry label is 0
        assert _ready(st) == {0: [0, 3]} and s.ready_label == 0
        assert_edgeless(st, 4)

    def test_augment_drops_both_structures(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(2, 3), Arc(3, 4), 2)
        assert st.dirty == {0} and _ready(st) == {0: [5]}
        st.op_augment(Arc(4, 5))
        assert _ready(st) == {} and st.dirty == set()

    def test_backtrack_refiles(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.mark_for_pass_bundle()
        assert _ready(st) == {0: [5], 1: [0]}
        st.backtrack_stuck()
        assert _ready(st) == {0: [0]} and st.dirty == {0}
        st.backtrack_stuck()
        assert _ready(st) == {}

    def test_structures_on_hold_are_not_ready(self):
        g, m = path6()
        st = PhaseState(g, m, params(limit_coeff=1))  # limit_h == 3
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.mark_for_pass_bundle()
        assert st.structure_at(0).on_hold and _ready(st) == {0: [5]}

    def test_fresh_starts_with_the_free_vertices(self):
        # those with a free neighbour: 0 has only the matched 1, and 5
        # has no edge at all
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        m = Matching(6)
        m.add(1, 2)
        st = PhaseState(g, m, params())
        assert sorted(st.structures) == [0, 3, 4]
        assert st.fresh == {3, 4}
        assert_edgeless(st, 5)

    def test_unvisited_overtake_adds_the_outer_mate(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.fresh.clear()
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        assert st.fresh == {2}

    def test_contract_adds_the_blossom(self):
        # triangle 0-1-2 with matched (1, 2); the free 3 hangs off 1
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (1, 3)])
        m = Matching(4)
        m.add(1, 2)
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        # (1, 3) leaves an inner vertex, so no pair yet
        assert build_h_prime(st) == ([0, 3], {}) and st.fresh == set()
        st.op_contract(Arc(2, 0))
        # the inner vertex 1 turns outer, and (1, 3) joins two structures
        assert st.fresh == {0, 1, 2}
        assert build_h_prime(st) == ([0, 3], {(0, 3): Arc(1, 3)})

    def test_cross_overtake_adds_the_moved_vertices(self):
        g, m = branched()
        g.add_edge(1, 5)
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        st.op_overtake(Arc(3, 2), Arc(2, 1), 2)
        st.mark_for_pass_bundle()
        # (1, 5) lies inside one structure
        assert build_h_prime(st)[1] == {} and st.fresh == set()
        st.op_overtake(Arc(0, 2), Arc(2, 1), 1)
        # 1 and 2 move to 0's structure, so (1, 5) joins two structures
        assert st.fresh == {1, 2}
        assert build_h_prime(st)[1] == {(0, 5): Arc(1, 5)}

    def test_same_overtake_backtrack_and_marks_add_nothing(self):
        g, m = branched()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        st.op_overtake(Arc(3, 2), Arc(2, 1), 2)
        st.mark_for_pass_bundle()
        assert st.backtrack_stuck()
        st.op_overtake(Arc(3, 8), Arc(8, 9), 2)
        st.fresh.clear()
        # re-hangs the inner vertex 2 under the outer 9: parities stay
        st.op_overtake(Arc(9, 2), Arc(2, 1), 1)
        st.mark_for_pass_bundle()
        assert st.backtrack_stuck()
        assert st.fresh == set()

    def test_augment_adds_nothing_and_an_empty_build_clears(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        assert st.fresh == {2, 3}
        st.op_augment(Arc(2, 3))
        assert st.fresh == {2, 3}
        assert build_h_prime(st) == ([], {})
        assert st.fresh == set()

    def test_a_nonempty_build_keeps_fresh_but_drops_stale_vertices(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        st.fresh.add(1)  # inner: no type-2 arc can leave it
        assert build_h_prime(st) == ([0, 5], {(0, 5): Arc(2, 3)})
        assert st.fresh == {2, 3}


class TestContamination:
    def test_ledger_records_both_orientations(self):
        g, m = path6()
        st = PhaseState(g, m, params(), track_contamination=True)
        added = st.contaminate([Arc(0, 1)])
        assert added == 1
        assert st.is_contaminated_edge(0, 1)
        assert st.is_contaminated_edge(1, 0)
        assert not st.is_contaminated_edge(2, 3)

    def test_ledger_off_by_default(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        assert st.contaminate([Arc(0, 1)]) == 0
        assert not st.is_contaminated_edge(0, 1)
