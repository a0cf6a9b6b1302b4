import pytest

from matchboost.blossoms import (
    LaminarBlossomSet,
    TreeView,
    check_laminarity,
    find_cycle_blossom,
    lift_even_path,
    lift_full_path,
    validate_blossom,
)
from matchboost.corpus import standard_corpus
from matchboost.engine import TraceHooks, boost
from matchboost.errors import InternalConsistencyError, PreconditionError
from matchboost.graph import Arc
from matchboost.oracles import make_oracle

from _inputs import joined_gadgets


def triangle_set():
    """Blossom over {0,1,2}: cycle 0-1-2-0, matched edge (1,2), base 0."""
    omega = LaminarBlossomSet(5)
    mate = [None, 2, 1, None, None]
    b = omega.contract([0, 1, 2], [Arc(0, 1), Arc(1, 2), Arc(2, 0)])
    return omega, mate, b


class TestLaminarSet:
    def test_trivial_queries(self):
        omega = LaminarBlossomSet(3)
        assert omega.is_trivial(2)
        assert omega.members_of(1) == {1}
        assert omega.base_of(1) == 1
        assert omega.root(2) == 2

    def test_contract_updates_roots(self):
        omega, mate, b = triangle_set()
        assert b.id == 5 and not omega.is_trivial(5)
        assert omega.members_of(5) == {0, 1, 2}
        assert omega.base_of(5) == 0
        assert all(omega.root(v) == 5 for v in (0, 1, 2))
        assert omega.root(3) == 3

    def test_nested_contract_and_descendants(self):
        omega, mate, b = triangle_set()
        mate[3] = 4
        mate[4] = 3
        outer = omega.contract([5, 3, 4], [Arc(0, 3), Arc(3, 4), Arc(4, 1)])
        assert omega.root(1) == outer.id
        assert omega.members_of(outer.id) == {0, 1, 2, 3, 4}
        # Child blossom keeps its identity but gains a parent.
        assert omega.blossoms[5].parent == outer.id

    def test_contract_rejects_even_cycle(self):
        omega = LaminarBlossomSet(4)
        with pytest.raises(PreconditionError):
            omega.contract([0, 1], [Arc(0, 1), Arc(1, 0)])

    def test_contract_rejects_wrong_arcs(self):
        omega = LaminarBlossomSet(4)
        with pytest.raises(PreconditionError):
            omega.contract([0, 1, 2], [Arc(0, 1), Arc(1, 2), Arc(3, 0)])

    def test_contract_rejects_non_root_child(self):
        omega, mate, b = triangle_set()
        omega.contract([b.id, 3, 4], [Arc(0, 3), Arc(3, 4), Arc(4, 1)])
        with pytest.raises(PreconditionError):
            omega.contract([b.id, 3, 4], [Arc(0, 3), Arc(3, 4), Arc(4, 1)])


class TestValidation:
    def test_valid_blossom_passes(self):
        omega, mate, b = triangle_set()
        validate_blossom(omega, b.id, mate)

    def test_detects_wrong_cycle_parity(self):
        omega = LaminarBlossomSet(3)
        # (0,1) should be unmatched in cycle position 0.
        mate = [1, 0, None]
        omega.contract([0, 1, 2], [Arc(0, 1), Arc(1, 2), Arc(2, 0)])
        with pytest.raises(InternalConsistencyError):
            validate_blossom(omega, 3, mate)

    def test_detects_base_matched_inside(self):
        omega, mate, b = triangle_set()
        mate[0] = 1
        mate[1] = 0
        mate[2] = None
        with pytest.raises(InternalConsistencyError):
            validate_blossom(omega, b.id, mate)

    def test_laminarity_check(self):
        omega, mate, b = triangle_set()
        check_laminarity(omega)
        # Force a crossing pair by hand.
        from matchboost.blossoms import Blossom

        omega.blossoms[99] = Blossom(id=99, members={2, 3, 4}, base=2, children=[2, 3, 4], cycle_arcs=[])
        with pytest.raises(InternalConsistencyError):
            check_laminarity(omega)


def path_tree():
    """Alternating tree 0 -> 1 -> 2 over trivial blossoms (0 free, (1,2) matched)."""
    view = TreeView(root=0)
    view.parent = {1: 0, 2: 1}
    view.parent_arc = {1: Arc(0, 1), 2: Arc(1, 2)}
    view.children = {0: [1], 1: [2]}
    view.depth = {0: 0, 1: 1, 2: 2}
    return view


class TestTreeView:
    def test_parity_and_paths(self):
        view = path_tree()
        assert view.is_outer(0) and view.is_inner(1) and view.is_outer(2)
        assert not view.contains(9) and not view.is_outer(9)
        assert view.path_to_root(2) == [2, 1, 0]
        assert view.subtree(1) == {1, 2}

    def test_find_cycle_blossom(self):
        view = path_tree()
        omega = LaminarBlossomSet(3)
        children, arcs = find_cycle_blossom(view, omega, Arc(2, 0))
        assert children == [0, 1, 2]
        assert arcs == [Arc(0, 1), Arc(1, 2), Arc(2, 0)]

    def test_find_cycle_blossom_below_the_root(self):
        # 0 -> 1 -> 2, then two branches 2 -> 3 -> 4 and 2 -> 5 -> 6: the
        # arc (4, 6) closes a cycle whose top is 2, not the root.
        view = TreeView(root=0, depth={0: 0})
        for parent, kid in [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]:
            view.hang(kid, parent, Arc(parent, kid))
        omega = LaminarBlossomSet(7)
        children, arcs = find_cycle_blossom(view, omega, Arc(4, 6))
        assert children == [2, 3, 4, 6, 5]
        assert arcs == [Arc(2, 3), Arc(3, 4), Arc(4, 6), Arc(6, 5), Arc(5, 2)]

    def test_find_cycle_rejects_inner_endpoint(self):
        view = path_tree()
        omega = LaminarBlossomSet(3)
        with pytest.raises(PreconditionError):
            find_cycle_blossom(view, omega, Arc(2, 1))
        with pytest.raises(PreconditionError):
            find_cycle_blossom(view, omega, Arc(0, 0))


class TestLifting:
    def test_lift_even_path_inside_triangle(self):
        omega, mate, b = triangle_set()
        assert lift_even_path(omega, mate, b.id, 0) == [0]
        assert lift_even_path(omega, mate, b.id, 2) == [0, 1, 2]
        assert lift_even_path(omega, mate, b.id, 1) == [0, 2, 1]

    def test_lift_even_path_trivial(self):
        omega = LaminarBlossomSet(2)
        assert lift_even_path(omega, [None, None], 1, 1) == [1]
        with pytest.raises(PreconditionError):
            lift_even_path(omega, [None, None], 1, 0)

    def test_lift_even_path_rejects_outsider(self):
        omega, mate, b = triangle_set()
        with pytest.raises(PreconditionError):
            lift_even_path(omega, mate, b.id, 4)

    def test_lift_full_path_through_blossom(self):
        # Free 3 -- blossom{0,1,2} (base 0 free): augmenting pair.
        omega, mate, b = triangle_set()
        out = lift_full_path(omega, mate, [3, b.id], [Arc(3, 0)])
        assert out == [3, 0]

    def test_lift_full_path_ends_inside(self):
        # Entry at 1 on an unmatched arc walks the even path back to base.
        omega, mate, b = triangle_set()
        out = lift_full_path(omega, mate, [3, b.id], [Arc(3, 1)])
        assert out == [3, 1, 2, 0]
        # Sanity: alternates unmatched, matched, unmatched.
        assert mate[1] == 2 and mate[0] is None

    def test_lift_nested(self):
        # Outer blossom {0..4} around the triangle, entered from 5; the
        # universe must include the entry vertex so its arc can be parity
        # checked.
        omega = LaminarBlossomSet(6)
        mate = [None, 2, 1, 4, 3, None]
        b = omega.contract([0, 1, 2], [Arc(0, 1), Arc(1, 2), Arc(2, 0)])
        outer = omega.contract([b.id, 3, 4], [Arc(0, 3), Arc(3, 4), Arc(4, 1)])
        out = lift_full_path(omega, mate, [5, outer.id], [Arc(5, 2)])
        assert out == [5, 2, 1, 0]


class LiftAudit(TraceHooks):
    """At every bundle end, lifts each member of each blossom and checks the path.

    The path must run from the base to the member inside the blossom,
    with an odd vertex count and no repeat, along edges of the graph,
    with the matched steps exactly at the odd positions.  Dead blossoms
    are audited too: the graph and matching are fixed within a phase.
    """

    def __init__(self):
        self.nested = 0

    def on_bundle_end(self, state, tau):
        omega, mate, g = state.omega, state.mate, state.g
        for b in omega.blossoms.values():
            self.nested += any(not omega.is_trivial(c) for c in b.children)
            for v in b.members:
                path = lift_even_path(omega, mate, b.id, v)
                assert path[0] == b.base and path[-1] == v
                assert len(path) % 2 == 1 and len(set(path)) == len(path)
                assert set(path) <= b.members
                for i, (x, y) in enumerate(zip(path, path[1:])):
                    assert g.has_edge(x, y), (b.id, v, path)
                    assert (mate[x] == y) == (i % 2 == 1), (b.id, v, path)


@pytest.mark.parametrize("oracle", ["greedy", "adversarial:2"])
def test_every_blossom_member_lifts_to_an_even_path(oracle):
    graphs = [g for _, g in standard_corpus(40, 8, 40, seed=7)]
    # joined copies, so that two free vertices that can meet stay at mu
    graphs += [joined_gadgets(petals) for petals in range(1, 5)]
    audit = LiftAudit()
    for g in graphs:
        boost(g, 0.25, make_oracle(oracle), hooks=audit)
    assert audit.nested > 0
