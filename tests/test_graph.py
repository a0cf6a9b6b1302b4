import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchboost.errors import (
    DuplicateEdgeError,
    GraphFormatError,
    InvalidPathError,
    SelfLoopError,
    UnknownVertexError,
)
from matchboost.graph import (
    AltPath,
    Arc,
    Graph,
    Matching,
    augment_all,
    augment_along,
    edge_key,
    free_vertices,
    is_matching,
    load_graph,
    load_matching,
)


def test_edge_key_orders():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)
    assert edge_key(2, 2) == (2, 2)


def test_arc_reverse():
    assert Arc(1, 5).reverse() == Arc(5, 1)
    assert Arc(1, 5).tail == 1 and Arc(1, 5).head == 5


class TestGraph:
    def test_build_and_query(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert g.n == 4 and g.m == 2
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)
        assert g.max_degree() == 2
        assert sorted(g.adj[1]) == [0, 2]

    def test_rejects_bad_edges(self):
        g = Graph(3)
        with pytest.raises(SelfLoopError):
            g.add_edge(1, 1)
        with pytest.raises(UnknownVertexError):
            g.add_edge(0, 3)
        g.add_edge(0, 1)
        with pytest.raises(DuplicateEdgeError):
            g.add_edge(1, 0)
        with pytest.raises(GraphFormatError):
            Graph(-1)

    def test_remove_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        g.remove_edge(1, 0)
        assert g.m == 1 and not g.has_edge(0, 1)
        assert g.adj[0] == [] and g.adj[1] == [2]
        with pytest.raises(UnknownVertexError):
            g.remove_edge(0, 1)

    def test_removal_flags(self):
        g = Graph(4, [(0, 1)])
        g.remove_vertices([1, 3])
        assert g.removed == [False, True, False, True]
        # Flags do not touch the edge set.
        assert g.has_edge(0, 1)
        g.clear_removed()
        assert g.removed == [False] * 4

    def test_induced(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub, back = g.induced([4, 0, 1])
        assert back == [0, 1, 4]
        assert sub.n == 3
        assert sub.edges == {(0, 1), (0, 2)}

    def test_copy_is_independent(self):
        g = Graph(3, [(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.m == 1 and h.m == 2
        assert g == Graph(3, [(0, 1)])

    def test_arcs_both_orientations(self):
        g = Graph(2, [(0, 1)])
        assert sorted(g.arcs()) == [Arc(0, 1), Arc(1, 0)]


class TestLoading:
    def test_edge_list(self):
        g = load_graph("0 1\n2 3   # tail pair\n\n# comment\n")
        assert g.n == 4 and g.edges == {(0, 1), (2, 3)}

    def test_edge_list_explicit_n(self):
        g = load_graph("0 1\n", n=5)
        assert g.n == 5

    def test_json(self):
        g = load_graph('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        assert g.n == 3 and g.m == 2

    @pytest.mark.parametrize(
        "text",
        ["0\n", "a b\n", "-1 2\n", '{"edges": []}', '{"n": 2, "edges": [[0]]}', "{broken"],
    )
    def test_rejects_garbage(self, text):
        with pytest.raises(GraphFormatError):
            load_graph(text)

    def test_roundtrip(self):
        g = Graph(4, [(0, 3), (1, 2)])
        assert load_graph(g.to_edge_list()) == g
        assert load_graph(g.to_json()) == g

    def test_load_matching(self):
        m = load_matching("0 1\n", n=3)
        assert m.mate[0] == 1 and m.mate[2] is None
        with pytest.raises(UnknownVertexError):
            load_matching("0 9\n", n=3)


class TestMatching:
    def test_add_and_discard(self):
        m = Matching(4)
        m.add(2, 0)
        assert m.covers(0) and m.has(0, 2) and len(m) == 1
        m.discard(0, 2)
        assert len(m) == 0 and m.mate[0] is None

    def test_rejects_double_cover(self):
        m = Matching(3, [(0, 1)])
        with pytest.raises(InvalidPathError):
            m.add(1, 2)
        with pytest.raises(SelfLoopError):
            m.add(2, 2)

    def test_is_matching(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert is_matching(g, Matching(4, [(0, 1), (2, 3)]))
        assert not is_matching(g, Matching(4, [(0, 2)]))  # not an edge
        assert not is_matching(g, Matching(3))  # wrong n

    def test_free_vertices_respects_removal(self):
        g = Graph(4, [(0, 1)])
        m = Matching(4, [(0, 1)])
        assert free_vertices(g, m) == [2, 3]
        g.remove_vertices([2])
        assert free_vertices(g, m) == [3]


class TestAltPath:
    def test_validate_and_flags(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        m = Matching(4, [(1, 2)])
        p = AltPath([0, 1, 2, 3])
        p.validate(g, m)
        assert p.is_augmenting(m)
        assert len(p) == 3

    def test_validate_rejects(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        m = Matching(4)
        with pytest.raises(InvalidPathError):
            AltPath([0, 1, 0]).validate(g, m)  # repeated vertex
        with pytest.raises(InvalidPathError):
            AltPath([0, 2]).validate(g, m)  # not an edge
        with pytest.raises(InvalidPathError):
            AltPath([0, 1, 2]).validate(g, m)  # two unmatched in a row

    def test_is_augmenting_rejects(self):
        m = Matching(4, [(1, 2)])
        assert not AltPath([1, 2]).is_augmenting(m)  # endpoints covered
        assert not AltPath([0, 1, 2]).is_augmenting(m)  # odd vertex count
        assert not AltPath([0]).is_augmenting(m)

    def test_augment_along(self):
        m = Matching(4, [(1, 2)])
        out = augment_along(m, AltPath([0, 1, 2, 3]))
        assert out.edges == {(0, 1), (2, 3)}
        assert m.edges == {(1, 2)}  # input untouched

    def test_augment_along_rejects_non_augmenting(self):
        m = Matching(2)
        with pytest.raises(InvalidPathError):
            augment_along(m, AltPath([0, 1, 0, 1]))
        m2 = Matching(3, [(0, 1)])
        with pytest.raises(InvalidPathError):
            augment_along(m2, AltPath([0, 1]))

    def test_augment_all(self):
        m = Matching(6)
        out = augment_all(m, [AltPath([0, 1]), AltPath([4, 5])])
        assert len(out) == 2
        assert len(m) == 0 and m.mate == [None] * 6  # input untouched

    def test_augment_all_checks_each_path_against_the_running_matching(self):
        m = Matching(6, [(1, 2)])
        out = augment_all(m, [AltPath([0, 1, 2, 3]), AltPath([4, 5])])
        assert out.edges == {(0, 1), (2, 3), (4, 5)}
        # the second path was augmenting for m but no longer is after the first
        with pytest.raises(InvalidPathError):
            augment_all(m, [AltPath([0, 1, 2, 3]), AltPath([3, 4])])
        with pytest.raises(InvalidPathError):
            augment_all(m, [AltPath([4, 5, 4, 5])])
        assert m.edges == {(1, 2)}
        assert m.mate == [None, 2, 1, None, None, None]


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(possible), max_size=len(possible)) if possible else st.just(set()))
    return Graph(n, edges)


@given(graphs())
def test_induced_keeps_exactly_internal_edges(g):
    import random

    rng = random.Random(7)
    keep = [v for v in range(g.n) if rng.random() < 0.5]
    sub, back = g.induced(keep)
    fwd = {v: i for i, v in enumerate(back)}
    expect = {
        (fwd[u], fwd[v]) for u, v in g.edges if u in fwd and v in fwd
    }
    assert sub.edges == expect


@given(st.integers(min_value=1, max_value=9))
def test_full_path_augmentation_gives_perfect_matching(k):
    n = 2 * k
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    m = Matching(n, [(2 * i + 1, 2 * i + 2) for i in range(k - 1)])
    out = augment_along(m, AltPath(list(range(n))))
    assert len(out) == k
    assert is_matching(g, out)
