"""Generators: determinism, shape guarantees, and the corpus specs."""

import pytest

from matchboost.corpus import (
    GENERATORS,
    CorpusSpec,
    build_corpus,
    build_one,
    gen_bipartite,
    gen_blossom_gadget,
    gen_cycle,
    gen_er,
    gen_long_paths,
    gen_path,
    gen_planted,
    gen_update_stream,
    standard_corpus,
)
from matchboost.errors import PreconditionError
from matchboost.graph import Graph
from matchboost.oracles import GreedyOracle, exact_mcm


class TestGenerators:
    def test_path_and_cycle(self):
        assert sorted(gen_path(5).edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert gen_path(1).m == 0
        c = gen_cycle(5)
        assert c.m == 5 and c.has_edge(0, 4)
        with pytest.raises(PreconditionError):
            gen_cycle(2)

    def test_er_deterministic(self):
        a = gen_er(16, 0.3, seed=5)
        b = gen_er(16, 0.3, seed=5)
        assert a == b
        assert gen_er(16, 0.0, seed=1).m == 0
        assert gen_er(6, 1.0, seed=1).m == 15

    def test_bipartite_sides(self):
        g = gen_bipartite(4, 7, 0.5, seed=2)
        assert g.n == 11
        assert all(u < 4 <= v for u, v in g.edges)

    def test_gadget_shape(self):
        g = gen_blossom_gadget(2)
        assert g.n == 13
        assert len(g.adj[0]) == 4  # hub joins both petal cycles
        with pytest.raises(PreconditionError):
            gen_blossom_gadget(0)
        with pytest.raises(PreconditionError):
            gen_blossom_gadget(1, petal_len=4)

    def test_planted_guarantee(self):
        for seed in range(6):
            g = gen_planted(24, 0.75, 0.5, seed=seed)
            assert len(exact_mcm(g)) >= int(0.75 * 24 / 2)
        sparse = gen_planted(9, 1.0, 0.0, seed=1)
        assert sparse.m == 4

    def test_long_paths_leave_one_long_augmenting_path_per_copy(self):
        g = gen_long_paths(3, 2)
        # copy 0: inner 0..5 in path order, ends 6 and 7
        assert sorted(g.edges)[:7] == [(0, 1), (0, 6), (1, 2), (2, 3), (3, 4), (4, 5), (5, 7)]
        assert g.n == 16 and g.m == 14 and len(exact_mcm(g)) == 8
        m = GreedyOracle().find(g)
        assert sorted(m.edges) == [(0, 1), (2, 3), (4, 5), (8, 9), (10, 11), (12, 13)]
        with pytest.raises(PreconditionError):
            gen_long_paths(0, 1)


class TestCorpusSpec:
    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            CorpusSpec(kind="hypercube")

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"trials": -1}, "trials must be non-negative"),
            ({"p": -0.5}, r"p must be in \[0, 1\]"),
            ({"p": float("nan")}, r"p must be in \[0, 1\]"),
            ({"n": 10, "n_max": 3}, "n_max 3 is below n 10"),
        ],
        ids=["negative-trials", "p-below-0", "p-nan", "n-max-below-n"],
    )
    def test_rejects_bad_knobs(self, knobs, message):
        with pytest.raises(PreconditionError, match=message):
            CorpusSpec(kind="er", **knobs)

    def test_edge_knobs_are_valid(self):
        CorpusSpec(kind="er", trials=0, p=0.0, n=10, n_max=10)
        CorpusSpec(kind="er", p=1.0)

    def test_fixed_n_naming(self):
        name, g = build_one(CorpusSpec(kind="path", n=6), 3)
        assert name == "path-0003-n6"
        assert g.m == 5

    def test_mixed_rotates_kinds(self):
        spec = CorpusSpec(kind="mixed", trials=len(GENERATORS), n=12, n_max=18)
        names = [name for name, _ in build_corpus(spec)]
        assert {n.rsplit("-", 2)[0] for n in names} == set(GENERATORS)

    def test_standard_corpus_reproducible(self):
        a = standard_corpus(8, 8, 20, seed=3)
        b = standard_corpus(8, 8, 20, seed=3)
        assert [name for name, _ in a] == [name for name, _ in b]
        assert all(ga == gb for (_, ga), (_, gb) in zip(a, b))
        # gadget sizes are petal-determined (7, 13, 19); the rest stay in range
        assert all(7 <= g.n <= 20 for _, g in a)

    def test_n_range_respected(self):
        spec = CorpusSpec(kind="er", trials=20, n=10, n_max=15, seed=1)
        assert all(10 <= g.n <= 15 for _, g in build_corpus(spec))


class TestUpdateStreamGen:
    def test_replayable_and_valid(self):
        updates = gen_update_stream(20, 60, seed=4)
        assert updates == gen_update_stream(20, 60, seed=4)
        assert len(updates) == 60
        g = Graph(20)
        for rec in updates:
            if rec[0] == "+":
                g.add_edge(rec[1], rec[2])  # raises on duplicates
            elif rec[0] == "-":
                g.remove_edge(rec[1], rec[2])  # raises on absent edges
            else:
                assert rec == (".",)

    def test_empty_fraction_only(self):
        updates = gen_update_stream(5, 10, seed=0, remove_frac=0.0, empty_frac=1.0)
        assert updates == [(".",)] * 10
