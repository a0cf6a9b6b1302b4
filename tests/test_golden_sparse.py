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


# Recorded at eps = 1/4.  The weak digests were recorded once the run
# ended after its first settled phase without a path.  The boost digests
# were recorded while every free vertex still owned a structure and
# every scale still ran, and hash the result with its skipped scales run
# out as replays (see _replay.py).
GOLDEN_SPARSE_WEAK = {
    (1, 16, "weak-exact"): "f896c9f91716cd97",
    (1, 16, "weak-greedy"): "f896c9f91716cd97",
    (1, 40, "weak-exact"): "ca5c8b073d5a1147",
    (1, 40, "weak-greedy"): "4aed49e61fcf2ec7",
    (1, 96, "weak-exact"): "4a80e6b6a8f120ce",
    (1, 96, "weak-greedy"): "ca5f303dbdaf0c0f",
    (2, 16, "weak-exact"): "40a50e1c12de3df8",
    (2, 16, "weak-greedy"): "40a50e1c12de3df8",
    (2, 40, "weak-exact"): "51f22cc383368c20",
    (2, 40, "weak-greedy"): "127be528450e7acb",
    (2, 96, "weak-exact"): "410bb00a203db910",
    (2, 96, "weak-greedy"): "62b64e69b4e53b69",
    (3, 16, "weak-exact"): "38862964b4fabb7c",
    (3, 16, "weak-greedy"): "38862964b4fabb7c",
    (3, 40, "weak-exact"): "c8873d63211c40f2",
    (3, 40, "weak-greedy"): "c8873d63211c40f2",
    (3, 96, "weak-exact"): "4a0571ec6ff505a1",
    (3, 96, "weak-greedy"): "b11e31a6b234fa5c",
}
GOLDEN_SPARSE_BOOST = {
    (1, 16, "greedy"): "90e64f5b796cd93d",
    (1, 16, "adversarial:2"): "bd38e9ef9d65417a",
    (1, 40, "greedy"): "7ea6dde5ab423947",
    (1, 40, "adversarial:2"): "9db794323ae775f3",
    (1, 96, "greedy"): "5923d87d430a31e6",
    (1, 96, "adversarial:2"): "1083707b9692d6f7",
    (2, 16, "greedy"): "56ab56e603acc14c",
    (2, 16, "adversarial:2"): "d34f02caa2a33106",
    (2, 40, "greedy"): "3913ad8d4c621894",
    (2, 40, "adversarial:2"): "2377b2fbbf8796ba",
    (2, 96, "greedy"): "f47b46305438437e",
    (2, 96, "adversarial:2"): "5dcd19b2a50b4f64",
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
