"""Phase state, labels, and the three basic operations on small hand graphs."""

import sys

import pytest

from matchboost.checks import check_state, view_mismatches
from matchboost.engine import OracleFinder, build_h_prime, run_phase
from matchboost.errors import (
    InternalConsistencyError,
    InvalidEpsilonError,
    PreconditionError,
)
from matchboost.graph import AltPath, Arc, Graph, Matching
from matchboost.oracles import CountedOracle, ExactOracle
from matchboost.params import (
    Constants,
    PhaseParams,
    normalize_epsilon,
    scale_sequence,
)
from matchboost import structures
from matchboost.structures import PhaseState


def params(epsilon: float = 0.25, h: float = 0.5, **overrides) -> PhaseParams:
    return PhaseParams.for_scale(epsilon, h, Constants().with_overrides(overrides))


def assert_outside_phase(st: PhaseState, v: int) -> None:
    """``v`` is in no structure and no index."""
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

    def test_scale_sequence_small_epsilon(self):
        # the floor 2^-60 is below 1e-18; the scales stop exactly at it
        scales = scale_sequence(2.0**-27)
        assert len(scales) == 60 and scales[-1] == 2.0**-60
        with pytest.raises(InvalidEpsilonError, match=r"too small: eps\^2 / 64 is 0\.0"):
            scale_sequence(2.0**-600)

    def test_counts_that_overflow_are_an_epsilon_error(self):
        # at 2^-340 the smallest scale's bundle count is inf; at 2^-336
        # every scale's counts are finite
        scales = scale_sequence(2.0**-340)
        PhaseParams.for_scale(2.0**-340, scales[0])
        with pytest.raises(InvalidEpsilonError, match="too small: tau_max is inf"):
            PhaseParams.for_scale(2.0**-340, scales[-1])
        # at 2^-360, h * eps underflows to 0.0 on the smallest scale
        with pytest.raises(InvalidEpsilonError, match="too small: tau_max is inf"):
            PhaseParams.for_scale(2.0**-360, scale_sequence(2.0**-360)[-1])
        eps = 2.0**-336
        assert all(PhaseParams.for_scale(eps, h).phases > 0 for h in scale_sequence(eps))

    def test_overrides(self):
        c = Constants().with_overrides({"limit_coeff": 1})
        assert c.limit_coeff == 1
        assert Constants().with_overrides(None) == Constants()
        with pytest.raises(InvalidEpsilonError):
            Constants().with_overrides({"mystery": 3})

    def test_overrides_must_be_whole_and_in_range(self):
        assert Constants().with_overrides({"limit_coeff": 0}).limit_coeff == 0
        assert Constants().with_overrides({"bundle_coeff": 4.0}).bundle_coeff == 4
        for bad in (1.5, -3, -1.0, float("nan"), float("inf"), "7"):
            with pytest.raises(InvalidEpsilonError, match="non-negative integer"):
                Constants().with_overrides({"ell_coeff": bad})
        for name in ("scale_floor_coeff", "phase_coeff", "bundle_coeff"):
            with pytest.raises(InvalidEpsilonError, match="must be positive"):
                Constants().with_overrides({name: 0})


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
        # no label is stored until an operation lowers one
        assert st.labels == {}
        assert st.label((1, 2)) == st.label((2, 1)) == top
        assert st.head_label(3) == top

    def test_note_step_floors_at_one(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.note_step(0)
        st.note_step(7)
        assert st.steps == [1, 7]

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
        st.removed[1] = True
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
        assert st.labels == {(1, 2): 1}
        assert st.label((2, 1)) == st.params.ell_max + 1
        assert st.structure_of[1] == 0 and st.structure_of[2] == 0
        view = s.view
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
        view = s.view
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
        assert_outside_phase(st, 6)
        assert_outside_phase(st, 7)
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
        assert st.omega.root(0) == st.omega.root(1) == st.omega.root(2) == bid
        assert st.omega.members_of(bid) == {0, 1, 2}
        assert s.working == bid
        assert st.labels[(1, 2)] == 0 and st.labels[(2, 1)] == 0
        assert s.view.depth == {bid: 0}

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


def assert_kept(st: PhaseState) -> None:
    """Every live structure's kept tree equals its rebuild from the arcs."""
    for s in st.live_structures():
        assert view_mismatches(st, s) == [], s.owner


def child_sets(view) -> dict[int, set[int]]:
    return {b: set(kids) for b, kids in view.children.items()}


def backtrack(st: PhaseState, times: int) -> None:
    for _ in range(times):
        st.mark_for_pass_bundle()
        assert st.backtrack_stuck()


class TestKeptTrees:
    """The operations keep each tree equal to a rebuild from the arcs."""

    def test_contraction_at_the_root(self):
        # triangle 0-1-2 with matched (1, 2) at the root 0; the branches
        # 2-3=4 and 0-5=6 hang off the cycle
        g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6)])
        m = Matching(7)
        for e in ((1, 2), (3, 4), (5, 6)):
            m.add(*e)
        st = PhaseState(g, m, params())
        s = st.structure_at(0)
        st.op_overtake(Arc(0, 5), Arc(5, 6), 1)
        backtrack(st, 1)
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(2, 3), Arc(3, 4), 2)
        backtrack(st, 1)
        assert_kept(st)
        bid = st.op_contract(Arc(2, 0))
        view = s.view
        assert view.root == bid == s.working
        assert view.parent == {5: bid, 6: 5, 3: bid, 4: 3}
        assert view.parent_arc[5] == Arc(0, 5) and view.parent_arc[3] == Arc(2, 3)
        assert view.depth == {bid: 0, 5: 1, 6: 2, 3: 1, 4: 2}
        assert child_sets(view) == {bid: {3, 5}, 5: {6}, 3: {4}}
        assert_kept(st)

    def test_contraction_mid_tree(self):
        # 0-1=2, then the odd cycle 2-3=4-6=5-2 closed by (6, 4) below
        # the outer 2, with 4-7=8 and 6-9=10 hanging off both sides
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (4, 6)]
        g = Graph(11, edges + [(4, 7), (7, 8), (6, 9), (9, 10)])
        m = Matching(11)
        for e in ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)):
            m.add(*e)
        st = PhaseState(g, m, params())
        s = st.structure_at(0)
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(2, 3), Arc(3, 4), 2)
        st.op_overtake(Arc(4, 7), Arc(7, 8), 3)
        backtrack(st, 2)
        st.op_overtake(Arc(2, 5), Arc(5, 6), 2)
        st.op_overtake(Arc(6, 9), Arc(9, 10), 3)
        backtrack(st, 1)
        assert s.view.depth[8] == s.view.depth[10] == 6
        bid = st.op_contract(Arc(6, 4))
        view = s.view
        assert view.root == 0
        assert view.parent == {1: 0, bid: 1, 7: bid, 8: 7, 9: bid, 10: 9}
        assert view.parent_arc[bid] == Arc(1, 2)
        assert view.parent_arc[7] == Arc(4, 7) and view.parent_arc[9] == Arc(6, 9)
        # the blossom sits at its top's depth 2, and each hanging
        # subtree rises by the depth its parent lost
        assert view.depth == {0: 0, 1: 1, bid: 2, 7: 3, 8: 4, 9: 3, 10: 4}
        assert child_sets(view) == {0: {1}, 1: {bid}, bid: {7, 9}, 7: {8}, 9: {10}}
        assert_kept(st)

    def test_cross_overtake_moves_the_donors_working_vertex(self):
        g, m = branched()
        st = PhaseState(g, m, params())
        s5, s0 = st.structure_at(5), st.structure_at(0)
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        st.op_overtake(Arc(3, 2), Arc(2, 1), 2)
        st.mark_for_pass_bundle()
        st.op_overtake(Arc(0, 2), Arc(2, 1), 1)
        assert s0.working == 1 and s5.working == 3
        taker, donor = s0.view, s5.view
        assert taker.parent == {2: 0, 1: 2} and taker.depth == {0: 0, 2: 1, 1: 2}
        assert taker.parent_arc == {2: Arc(0, 2), 1: Arc(2, 1)}
        assert child_sets(taker) == {0: {2}, 2: {1}}
        # the donor keeps no entry of the moved nodes
        assert donor.parent == {4: 5, 3: 4} and donor.depth == {5: 0, 4: 1, 3: 2}
        assert donor.parent_arc == {4: Arc(5, 4), 3: Arc(4, 3)}
        assert child_sets(donor) == {5: {4}, 4: {3}}
        assert_kept(st)

    def test_cross_overtake_copies_the_donor_down_to_size(self):
        # the path 0-1=2-...=20 grows from 0; the free 21 takes all of
        # it but the root through the inner 1
        g = Graph(22, [(i, i + 1) for i in range(20)] + [(21, 1)])
        m = Matching(22)
        for i in range(1, 20, 2):
            m.add(i, i + 1)
        st = PhaseState(g, m, params())
        s0, s21 = st.structure_at(0), st.structure_at(21)
        for k, x in enumerate(range(0, 20, 2), start=1):
            st.op_overtake(Arc(x, x + 1), Arc(x + 1, x + 2), k)
        names = ("parent", "parent_arc", "children", "depth")
        before = {name: sys.getsizeof(getattr(s0.view, name)) for name in names}
        st.op_overtake(Arc(21, 1), Arc(1, 2), 0)
        assert s21.working == 20 and s0.working == 0
        assert s0.view.depth == {0: 0} and s21.view.depth[20] == 20
        for name in names:
            assert sys.getsizeof(getattr(s0.view, name)) < before[name], name
        assert_kept(st)

    def test_same_structure_rehang(self):
        # the path 0-1=2-3=4-5=6-7=8 and a chord (0, 5): the inner 5
        # re-hangs under the root with its subtree, four levels up
        g = Graph(9, [(i, i + 1) for i in range(8)] + [(0, 5)])
        m = Matching(9)
        for i in range(1, 8, 2):
            m.add(i, i + 1)
        st = PhaseState(g, m, params())
        s = st.structure_at(0)
        for k, x in enumerate(range(0, 8, 2), start=1):
            st.op_overtake(Arc(x, x + 1), Arc(x + 1, x + 2), k)
        backtrack(st, 4)
        assert s.working == 0
        st.op_overtake(Arc(0, 5), Arc(5, 6), 1)
        assert s.working == 6 and Arc(4, 5) not in s.arcs
        view = s.view
        assert view.parent == {1: 0, 2: 1, 3: 2, 4: 3, 5: 0, 6: 5, 7: 6, 8: 7}
        assert view.parent_arc[5] == Arc(0, 5)
        assert view.depth == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 1, 6: 2, 7: 3, 8: 4}
        assert child_sets(view) == {0: {1, 5}, 1: {2}, 2: {3}, 3: {4}, 5: {6}, 6: {7}, 7: {8}}
        assert_kept(st)


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
        assert st.removed == [True] * 6
        assert (g, m) == path6()  # the phase changes only its state

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
        assert_outside_phase(st, 4)
        assert st.removed == [True] * 4 + [False]
        # The blossom outlives its structure and still passes the checks.
        assert st.omega.root(0) == 5 and check_state(st) == []

    @pytest.mark.parametrize(
        "lifted, message",
        [
            # free ends and alternating in the matching, but (0, 2) and
            # (1, 5) are no edges of the path
            ([0, 2, 1, 5], r"\(0, 2\) is not an edge"),
            ([0, 1, 2, 1, 2, 5], "repeated vertex"),
        ],
        ids=["non-edge", "repeat"],
    )
    def test_a_bad_lifted_path_is_an_internal_error(self, monkeypatch, lifted, message):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        monkeypatch.setattr(structures, "lift_full_path", lambda *args: list(lifted))
        with pytest.raises(InternalConsistencyError, match=f"lifted path .*{message}"):
            st.op_augment(Arc(2, 3))
        assert st.found_paths == []

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

    def test_free_vertices_with_no_edge_take_no_part(self):
        # the only free vertices, 2 and 3, have no edge: nothing moves in
        # a backtrack, and with no structure live the phase settles before
        # its first bundle, without a processing step, whatever limit_h
        g = Graph(4, [(0, 1)])
        m = Matching(4)
        m.add(0, 1)
        for limit_coeff in (6, 0):
            st = PhaseState(g, m, params(limit_coeff=limit_coeff))
            assert st.structures == {}
            assert_outside_phase(st, 2)
            assert_outside_phase(st, 3)
            st.mark_for_pass_bundle()
            assert not st.backtrack_stuck()
            oracle = CountedOracle(ExactOracle())
            st = PhaseState(g, m, params(limit_coeff=limit_coeff))
            paths, st = run_phase(st, OracleFinder(oracle))
            assert paths == [] and st.settled and st.bundles == 0
            assert st.steps == [] and oracle.stats.calls == 0


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
        assert_outside_phase(st, 4)

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
        assert_outside_phase(st, 4)

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
        assert_outside_phase(st, 5)

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
        assert build_h_prime(st) == {} and st.fresh == set()
        st.op_contract(Arc(2, 0))
        # the inner vertex 1 turns outer, and (1, 3) joins two structures;
        # the outer 0 and 2 were outer already
        assert st.fresh == {1}
        assert build_h_prime(st) == {(0, 3): Arc(1, 3)}

    def test_cross_overtake_adds_the_moved_vertices(self):
        g, m = branched()
        g.add_edge(1, 5)
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        st.op_overtake(Arc(3, 2), Arc(2, 1), 2)
        st.mark_for_pass_bundle()
        # (1, 5) lies inside one structure
        assert build_h_prime(st) == {} and st.fresh == set()
        st.op_overtake(Arc(0, 2), Arc(2, 1), 1)
        # 1 and 2 move to 0's structure, so (1, 5) joins two structures
        assert st.fresh == {1, 2}
        assert build_h_prime(st) == {(0, 5): Arc(1, 5)}

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
        assert build_h_prime(st) == {}
        assert st.fresh == set()

    def test_a_nonempty_build_keeps_fresh_but_drops_stale_vertices(self):
        g, m = path6()
        st = PhaseState(g, m, params())
        st.op_overtake(Arc(0, 1), Arc(1, 2), 1)
        st.op_overtake(Arc(5, 4), Arc(4, 3), 1)
        st.fresh.add(1)  # inner: no type-2 arc can leave it
        assert build_h_prime(st) == {(0, 5): Arc(2, 3)}
        assert st.fresh == {2, 3}

