"""Golden replays on graphs that are mostly isolated vertices.

Each graph applies a prefix of a ``gen_update_stream`` stream to an
empty graph on 64 vertices, so most free vertices have no edge.  The
digests cover the processing steps, from which the reports' round
columns are computed, as well as the matching and the call counts.
"""

import hashlib
import json
import math
import warnings

from matchboost.corpus import gen_update_stream
from matchboost.dynamic import static_from_weak
from matchboost.graph import Graph
from matchboost.oracles import exact_mcm, make_oracle

from _replay import expand_replayed, recorded_boost

PREFIXES = [(seed, k) for seed in (1, 2, 3) for k in (16, 40, 96)]


def stream_prefix_graph(seed: int, k: int) -> Graph:
    g = Graph(64)
    for rec in gen_update_stream(64, 96, seed)[:k]:
        if rec[0] == "+":
            g.add_edge(rec[1], rec[2])
        elif rec[0] == "-":
            g.remove_edge(rec[1], rec[2])
    return g


def _digest(obj) -> str:
    blob = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Recorded at eps = 1/4, once a free vertex with no edge took no part in
# a phase: it takes no random draw, and a phase with no structure to
# backtrack logs no processing step.  The weak digests of (2, 40),
# (3, 16) and (3, 40), which that left alone, were recorded once the run
# ended after its first settled phase without a path.  The boost
# digests hash the result with its skipped scales run out as replays
# (see _replay.py); those of (2, 40) and of seed 3 date from when every
# free vertex still owned a structure and every scale still ran.
GOLDEN_SPARSE_WEAK = {
    (1, 16, "weak-exact"): "f989c7ea652a6fa1",
    (1, 16, "weak-greedy"): "f989c7ea652a6fa1",
    (1, 40, "weak-exact"): "be9ae70a973c2d8c",
    (1, 40, "weak-greedy"): "38c78e0c45c44e30",
    (1, 96, "weak-exact"): "33b908547accc274",
    (1, 96, "weak-greedy"): "a2bcf145fc8e3ca9",
    (2, 16, "weak-exact"): "19335a0035faa194",
    (2, 16, "weak-greedy"): "19335a0035faa194",
    (2, 40, "weak-exact"): "51f22cc383368c20",
    (2, 40, "weak-greedy"): "127be528450e7acb",
    (2, 96, "weak-exact"): "e5f243edc8004f0a",
    (2, 96, "weak-greedy"): "474717d8f3300a71",
    (3, 16, "weak-exact"): "38862964b4fabb7c",
    (3, 16, "weak-greedy"): "38862964b4fabb7c",
    (3, 40, "weak-exact"): "c8873d63211c40f2",
    (3, 40, "weak-greedy"): "c8873d63211c40f2",
    (3, 96, "weak-exact"): "b888ab15e64d3022",
    (3, 96, "weak-greedy"): "c271522a6b9ec856",
}
GOLDEN_SPARSE_BOOST = {
    (1, 16, "greedy"): "498eba978e4d0c49",
    (1, 16, "adversarial:2"): "41dbb2c185a8f4ab",
    (1, 40, "greedy"): "524e1cd85b2fb405",
    (1, 40, "adversarial:2"): "5d43df03a00a0de3",
    (1, 96, "greedy"): "9399aacf1f8015e5",
    (1, 96, "adversarial:2"): "d4df85ba88fb1480",
    (2, 16, "greedy"): "15d51edc49459287",
    (2, 16, "adversarial:2"): "d4ccec4e8013089d",
    (2, 40, "greedy"): "3913ad8d4c621894",
    (2, 40, "adversarial:2"): "2377b2fbbf8796ba",
    (2, 96, "greedy"): "2f14221cc0dbd8f7",
    (2, 96, "adversarial:2"): "273fef9970cf5b98",
    (3, 16, "greedy"): "0ee741905afa1f8d",
    (3, 16, "adversarial:2"): "60119174a744b73a",
    (3, 40, "greedy"): "83521c5f0bb68d36",
    (3, 40, "adversarial:2"): "be34c65c0c28353a",
    (3, 96, "greedy"): "482b14077879f8be",
    (3, 96, "adversarial:2"): "4bd064ed583381c5",
}


def test_static_from_weak_reproduces_recorded_digests():
    got = {}
    for seed, k in PREFIXES:
        g = stream_prefix_graph(seed, k)
        bound = math.ceil(len(exact_mcm(g)) / 1.25)
        for backend in ("weak-exact", "weak-greedy"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                res = static_from_weak(g, 0.25, backend, seed=5)
            assert len(res.matching) >= bound, (seed, k, backend)
            got[(seed, k, backend)] = _digest(
                {
                    "matching": sorted(res.matching.edges),
                    "weak_calls": [res.stats_g.weak_calls, res.stats_b.weak_calls],
                    "per_scale": [
                        {"h": sc.h, "phases_run": sc.phases_run, "paths_found": sc.paths_found}
                        for sc in res.per_scale
                    ],
                    "processing_steps": [
                        res.stats_g.processing_steps,
                        res.stats_b.processing_steps,
                    ],
                }
            )
    assert got == GOLDEN_SPARSE_WEAK


def test_boost_reproduces_recorded_digests():
    got = {}
    for seed, k in PREFIXES:
        for spec in ("greedy", "adversarial:2"):
            res, rec = recorded_boost(stream_prefix_graph(seed, k), 0.25, make_oracle(spec))
            calls, rows, steps = expand_replayed(res, rec)
            got[(seed, k, spec)] = _digest(
                {
                    "matching": sorted(res.matching.edges),
                    "oracle_calls": calls,
                    "per_scale": rows,
                    "processing_steps": steps,
                }
            )
    assert got == GOLDEN_SPARSE_BOOST
