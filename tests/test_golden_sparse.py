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
# free vertex still owned a structure and every scale still ran.  All
# but those of (1, 96) and (3, 96) were recorded again once a phase
# stopped when no two live structures could meet in an augmenting path:
# their matchings stand, their calls and processing steps fall.
GOLDEN_SPARSE_WEAK = {
    (1, 16, "weak-exact"): "08e12209accfad00",
    (1, 16, "weak-greedy"): "08e12209accfad00",
    (1, 40, "weak-exact"): "47201fc09c93619b",
    (1, 40, "weak-greedy"): "6718a39e77bbe9f8",
    (1, 96, "weak-exact"): "33b908547accc274",
    (1, 96, "weak-greedy"): "a2bcf145fc8e3ca9",
    (2, 16, "weak-exact"): "1bf571e407fe9945",
    (2, 16, "weak-greedy"): "1bf571e407fe9945",
    (2, 40, "weak-exact"): "d4b3a4fbda342119",
    (2, 40, "weak-greedy"): "54a707b14176f8c0",
    (2, 96, "weak-exact"): "8dffec0ff5a5bbf9",
    (2, 96, "weak-greedy"): "9cf00ce172a62f56",
    (3, 16, "weak-exact"): "6d1ee7f189ae970b",
    (3, 16, "weak-greedy"): "6d1ee7f189ae970b",
    (3, 40, "weak-exact"): "b9a6e3f612a0aacb",
    (3, 40, "weak-greedy"): "b9a6e3f612a0aacb",
    (3, 96, "weak-exact"): "b888ab15e64d3022",
    (3, 96, "weak-greedy"): "c271522a6b9ec856",
}
GOLDEN_SPARSE_BOOST = {
    (1, 16, "greedy"): "c242ab11588939a8",
    (1, 16, "adversarial:2"): "c242ab11588939a8",
    (1, 40, "greedy"): "2963df9fb6d8429a",
    (1, 40, "adversarial:2"): "2b6e3148d07c4742",
    (1, 96, "greedy"): "9399aacf1f8015e5",
    (1, 96, "adversarial:2"): "d4df85ba88fb1480",
    (2, 16, "greedy"): "dffd7e767ab51ed8",
    (2, 16, "adversarial:2"): "dffd7e767ab51ed8",
    (2, 40, "greedy"): "3b8a24091db78a0f",
    (2, 40, "adversarial:2"): "9ac70eb62b5a0160",
    (2, 96, "greedy"): "592592856fdf9f63",
    (2, 96, "adversarial:2"): "1ecdc7a6c079c9da",
    (3, 16, "greedy"): "b0408572a533918f",
    (3, 16, "adversarial:2"): "b0408572a533918f",
    (3, 40, "greedy"): "ddf64a74bcc615ca",
    (3, 40, "adversarial:2"): "ddf64a74bcc615ca",
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
