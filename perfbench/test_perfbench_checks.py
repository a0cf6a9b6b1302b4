"""The benchmark's own checks and optima, on hand-made answers.

Run with ``python3 -m pytest perfbench``; it takes about a second and
needs no part of the package under test.
"""

import itertools
import random

from checks import ceil_bound, check_chunk, check_matching, check_optimum
from workloads import bipartite_mu, blossom_gadget, sparse_bipartite

# A 6-cycle 0-1-2-3-4-5-0 with the chord 0-3; mu = 3.
EDGES = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)}


def brute_mu(n, edges):
    edges = sorted(edges)
    for k in range(n // 2, 0, -1):
        for pick in itertools.combinations(edges, k):
            if len({x for e in pick for x in e}) == 2 * k:
                return k
    return 0


def test_ceil_bound_is_exact():
    assert ceil_bound(4, 0.25) == 4  # 3.2 rounds up
    assert ceil_bound(5, 0.25) == 4  # exactly 4
    assert ceil_bound(0, 0.25) == 0


def test_matching_accepts_an_optimum():
    assert check_matching(EDGES, [(0, 1), (2, 3), (4, 5)], 3, 0.25) == []


def test_matching_rejects_a_non_edge():
    probs = check_matching(EDGES, [(0, 2), (3, 4), (1, 5)], 3, 0.25)
    assert any("not an edge" in p for p in probs)


def test_matching_rejects_a_shared_endpoint():
    probs = check_matching(EDGES, [(0, 1), (1, 2), (3, 4)], 3, 0.25)
    assert any("matched twice" in p for p in probs)


def test_matching_rejects_a_size_below_the_bound():
    probs = check_matching(EDGES, [(0, 1), (2, 3)], 3, 0.25)
    assert any("below" in p for p in probs)


def test_matching_rejects_a_size_above_the_optimum():
    probs = check_matching(EDGES, [(0, 1), (2, 3), (4, 5)], 2, 0.25)
    assert any("exceed" in p for p in probs)


def test_optimum_check():
    assert check_optimum(3, 3) == []
    assert check_optimum(2, 3) != []


def _chunk(**over):
    rec = {"updates": 16, "graph_edges": 40, "violations": [], "matching_size": 20}
    rec.update(over)
    return rec


def test_chunk_accepts_a_good_record():
    assert check_chunk(_chunk(), 16, 40, 20, 0.25, 256, 0.25) == []


def test_chunk_rejects_a_wrong_size():
    probs = check_chunk(_chunk(updates=15), 16, 40, 20, 0.25, 256, 0.25)
    assert any("updates" in p for p in probs)


def test_chunk_rejects_edges_violations_and_sizes():
    assert check_chunk(_chunk(graph_edges=41), 16, 40, 20, 0.25, 256, 0.25)
    assert check_chunk(_chunk(violations=["x"]), 16, 40, 20, 0.25, 256, 0.25)
    assert check_chunk(_chunk(matching_size=21), 16, 40, 20, 0.25, 256, 0.25)
    assert check_chunk(_chunk(matching_size=15), 16, 40, 20, 0.25, 256, 0.25)


def test_chunk_waives_the_bound_below_the_density_promise():
    # mu = 15 < 0.25 * 0.25 * 256 = 16: a small matching is allowed.
    assert check_chunk(_chunk(matching_size=1), 16, 40, 15, 0.25, 256, 0.25) == []


def test_independent_optima_match_exhaustive_search():
    rng = random.Random(5)
    for _ in range(20):
        n, edges, left = sparse_bipartite(5, 4, 2.0, rng)
        assert bipartite_mu(left, edges) == brute_mu(n, edges) == 4
        some = [e for e in edges if rng.random() < 0.5]
        assert bipartite_mu(left, some) == brute_mu(n, some)
    for petals in (1, 2):
        n, edges = blossom_gadget(petals, rng)
        assert n == 6 * petals + 1
        assert brute_mu(n, edges) == 3 * petals
