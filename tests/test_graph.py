import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchboost.corpus import standard_corpus
from matchboost.engine import boost
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
    edge_key,
    free_vertices_with_edge,
    is_matching,
    load_graph,
    load_matching,
)
from matchboost.oracles import make_oracle


def test_edge_key_orders():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)
    assert edge_key(2, 2) == (2, 2)


def test_arc_reverse():
    assert Arc(1, 5).reverse() == Arc(5, 1)
    assert Arc(1, 5).tail == 1 and Arc(1, 5).head == 5


def _sides(g: Graph) -> list:
    return [g.side(v) for v in range(g.n)]


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

    @pytest.mark.parametrize(
        "edges, error",
        [
            ([(0, 3)], UnknownVertexError),
            ([(-1, 0)], UnknownVertexError),
            ([(0, 1), (2, 2)], SelfLoopError),
            ([(0, 1), (1, 2), (1, 0)], DuplicateEdgeError),
        ],
    )
    def test_constructor_rejects_bad_edges(self, edges, error):
        with pytest.raises(error):
            Graph(3, edges)

    def test_adjacency_keeps_the_given_order(self):
        # the exact matcher walks adj as stored, so the order is part of the result
        g = Graph(4, [(2, 1), (0, 1), (1, 3)])
        assert g.adj[1] == [2, 0, 3] and g.adj[0] == [1]
        g.add_edge(0, 2)
        assert g.adj[0] == [1, 2] and g.sorted_adj[2] == [0, 1]

    def test_remove_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        g.remove_edge(1, 0)
        assert g.m == 1 and not g.has_edge(0, 1)
        assert g.adj[0] == [] and g.adj[1] == [2]
        with pytest.raises(UnknownVertexError):
            g.remove_edge(0, 1)

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

    def test_copy_keeps_each_adjacency_order(self):
        # the edges' insertion order is not the order of the edge set
        g = Graph(4, [(0, 3), (2, 0), (1, 0), (3, 2)])
        h = g.copy()
        assert h.adj == g.adj == [[3, 2, 1], [0], [0, 3], [0, 2]]
        h.add_edge(1, 2)
        assert g.adj[1] == [0] and h.adj[1] == [0, 2]

    def test_boost_runs_on_a_copy_as_on_the_original(self):
        # an order-sensitive oracle sees the same graph in both
        for name, g in standard_corpus(6, 24, 64, seed=11):
            h = g.copy()
            assert h.adj == g.adj, name
            want = boost(g, 0.25, make_oracle("adversarial:2"))
            got = boost(h, 0.25, make_oracle("adversarial:2"))
            assert got.matching == want.matching, name
            assert got.per_scale == want.per_scale, name
            assert got.stats.processing_steps == want.stats.processing_steps, name

    def test_sorted_adj_follows_edits(self):
        g = Graph(4, [(0, 3), (0, 1)])
        first = g.sorted_adj
        assert first == [[1, 3], [0], (), [0]]
        assert g.sorted_adj is first  # kept while the graph is unchanged
        g.add_edge(2, 0)
        assert g.sorted_adj == [[1, 2, 3], [0], [0], [0]]
        g.remove_edge(1, 0)
        assert g.sorted_adj == [[2, 3], (), [0], [0]]

    def test_sides_name_each_component_and_its_parity(self):
        # the path 1-0-2, the triangle 3-4-5 and the isolated vertex 6
        g = Graph(7, [(0, 1), (0, 2), (3, 4), (4, 5), (5, 3)])
        assert _sides(g) == [(0, 0), (0, 1), (0, 1), (3, None), (3, None), (3, None), (6, 0)]

    def test_sides_follow_edits(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert _sides(g) == [(0, 0), (0, 1), (2, 0), (2, 1)]
        first = g._comp
        assert _sides(g) == [(0, 0), (0, 1), (2, 0), (2, 1)]
        assert g._comp is first  # kept while the graph is unchanged
        g.add_edge(1, 2)
        assert _sides(g) == [(0, 0), (0, 1), (0, 0), (0, 1)]
        g.add_edge(0, 2)  # closes the triangle 0-1-2
        assert _sides(g) == [(0, None)] * 4
        g.remove_edge(1, 2)
        assert _sides(g) == [(0, 0), (0, 1), (0, 1), (0, 0)]

    def test_a_copy_labels_its_own_edges(self):
        g = Graph(3, [(0, 1), (1, 2)])
        first = _sides(g)
        labels = g._comp
        h = g.copy()
        assert h._comp is None  # a copy starts without labels
        assert _sides(h) == first and h._comp is not labels
        h.add_edge(0, 2)
        assert _sides(h) == [(0, None)] * 3 and _sides(g) == first and g._comp is labels

    def test_a_vertex_labels_only_its_own_component(self):
        # the path 0-1-2, the triangle 3-4-5 and the isolated vertex 6
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        assert g.side(4) == (3, None)
        assert g._comp == [-1, -1, -1, 3, 3, 3, -1]
        assert g.side(2) == (0, 0)
        assert g._comp == [0, 0, 0, 3, 3, 3, -1]

    @given(
        st.integers(min_value=1, max_value=9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
                st.permutations(range(n)),
            )
        )
    )
    def test_sides_agree_with_a_brute_force_two_colouring(self, case):
        n, pairs, asked = case
        g = Graph(n, sorted({edge_key(u, v) for u, v in pairs if u != v}))
        # ask in a random order, so a component is labelled from any of its vertices
        sides = [None] * n
        for v in asked:
            sides[v] = g.side(v)
        # a component's id is its smallest vertex: n rounds of passing the
        # smaller label along every edge carry it to every member
        comp = list(range(n))
        for _ in range(n):
            for u, v in g.edges:
                comp[u] = comp[v] = min(comp[u], comp[v])
        assert [c for c, _ in sides] == comp
        for c in set(comp):
            members = [v for v in range(n) if comp[v] == c]
            inner = [(u, v) for u, v in g.edges if u in members]
            colourable = any(
                all((mask >> u & 1) != (mask >> v & 1) for u, v in inner)
                for mask in range(2 ** n)
            )
            if not colourable:
                assert all(sides[v][1] is None for v in members)
            else:
                assert all(sides[u][1] is not None and sides[u][1] != sides[v][1] for u, v in inner)
                assert sides[c][1] == 0

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

    def test_free_vertices_reads_the_matching(self):
        g = Graph(4, [(0, 1)])
        m = Matching(4, [(0, 1)])
        assert free_vertices_with_edge(g, m) == []
        m.discard(0, 1)
        assert free_vertices_with_edge(g, m) == [0, 1]


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

    def test_augment_all_one_path(self):
        m = Matching(4, [(1, 2)])
        out = augment_all(m, [AltPath([0, 1, 2, 3])])
        assert out.edges == {(0, 1), (2, 3)}
        assert m.edges == {(1, 2)}  # input untouched

    def test_augment_all_rejects_non_augmenting(self):
        m = Matching(2)
        with pytest.raises(InvalidPathError):
            augment_all(m, [AltPath([0, 1, 0, 1])])
        m2 = Matching(3, [(0, 1)])
        with pytest.raises(InvalidPathError):
            augment_all(m2, [AltPath([0, 1])])

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
    out = augment_all(m, [AltPath(list(range(n)))])
    assert len(out) == k
    assert is_matching(g, out)
