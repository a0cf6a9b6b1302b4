"""Acceptance suite: every shipped guarantee, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible even
under capture) before asserting, so a full run reads as a checklist.
The heavyweight corpus and the per-(oracle, epsilon) boost sweeps are
session fixtures shared across criteria to keep the wall time down.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _brute import exhaustive_mcm_size  # noqa: E402

from matchboost.bench import ExperimentConfig, run_experiment
from matchboost.checks import InvariantHooks
from matchboost.corpus import (
    CorpusSpec,
    gen_er,
    gen_planted,
    gen_update_stream,
    standard_corpus,
)
from matchboost.dynamic import (
    DENSITY_COEFF,
    SAMPLE_ITERATIONS,
    DoubleCover,
    problem1_harness,
    static_from_weak,
)
from matchboost.engine import boost, initial_matching
from matchboost.graph import Graph, edge_key, is_matching
from matchboost.oracles import CountedOracle, exact_mcm, make_oracle
from matchboost.params import PhaseParams, scale_sequence

ORACLES = ("exact", "greedy", "adversarial:2", "adversarial:3")


def report(num: int, ok: bool, detail: str, capsys) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def corpus300():
    """300 mixed graphs up to n=80 with their exact optima."""
    return [
        (name, g, len(exact_mcm(g.copy())))
        for name, g in standard_corpus(300, 8, 80, seed=2026)
    ]


@pytest.fixture(scope="session")
def sweep(corpus300):
    """Memoized boost runs per (oracle, epsilon) over the shared corpus.

    Returns rows aligned with the corpus: (matched, oracle_calls).
    """
    cache: dict[tuple[str, float], list[tuple[int, int]]] = {}

    def cell(spec: str, eps: float) -> list[tuple[int, int]]:
        key = (spec, eps)
        if key not in cache:
            rows = []
            for trial, (name, g, mu) in enumerate(corpus300):
                res = boost(g.copy(), eps, make_oracle(spec, seed=7000 + trial))
                rows.append((len(res.matching), res.oracle_calls))
            cache[key] = rows
        return cache[key]

    return cell


def test_criterion_01_exact_matcher_vs_exhaustive_search(capsys):
    t0 = time.perf_counter()
    corpus = standard_corpus(1000, 4, 16, seed=11)
    agree = sum(
        1
        for name, g in corpus
        if len(exact_mcm(g.copy())) == exhaustive_mcm_size(g.n, g.edges)
    )
    dt = time.perf_counter() - t0
    ok = agree == 1000 and dt <= 60
    report(1, ok, f"{agree}/1000 optima agree with exhaustive search, {dt:.1f}s", capsys)


def test_criterion_02_approximation_bound(corpus300, sweep, capsys):
    t0 = time.perf_counter()
    runs = misses = 0
    for eps in (0.25, 0.125):
        for spec in ORACLES:
            for (name, g, mu), (matched, _) in zip(corpus300, sweep(spec, eps)):
                runs += 1
                if matched < math.ceil(mu / (1 + eps)):
                    misses += 1
    dt = time.perf_counter() - t0
    ok = runs == 2400 and misses == 0 and dt <= 600
    report(2, ok, f"{runs - misses}/{runs} runs met the ceiling bound, {dt:.1f}s", capsys)


def test_criterion_03_seed_matching_calls_and_quarter_bound(corpus300, capsys):
    runs = bad = 0
    for spec in ("greedy", "adversarial:2"):  # the two 2-approximate oracles
        for trial, (name, g, mu) in enumerate(corpus300):
            counted = CountedOracle(make_oracle(spec, seed=9000 + trial))
            m = initial_matching(g.copy(), counted)
            runs += 1
            if counted.stats.calls != 4 or 4 * len(m) < mu:
                bad += 1
    report(
        3, bad == 0,
        f"{runs - bad}/{runs} seeds used exactly 4 calls and hit the quarter bound",
        capsys,
    )


def test_criterion_04_oracle_budget_scaling(corpus300, sweep, capsys):
    t0 = time.perf_counter()

    def envelope(eps: float) -> float:
        return eps**-7 * math.log2(1 / eps)

    fit_c = max(calls for _, calls in sweep("greedy", 0.25)) / envelope(0.25)
    over = 0
    for eps in (0.125, 0.0625):
        allowed = fit_c * envelope(eps)
        over += sum(1 for _, calls in sweep("greedy", eps) if calls > allowed)
    dt = time.perf_counter() - t0
    ok = over == 0 and dt <= 1800
    report(
        4, ok,
        f"calls <= {fit_c:.4f}*eps^-7*log2(1/eps) held at eps=1/8 and 1/16, {dt:.1f}s",
        capsys,
    )


def test_criterion_05_bundle_invariants_on_traced_runs(capsys):
    t0 = time.perf_counter()
    bundles = 0
    violation = None
    for trial, (name, g) in enumerate(standard_corpus(50, 8, 40, seed=505)):
        hooks = InvariantHooks(g, 0.25)
        try:
            boost(
                g, 0.25, make_oracle(ORACLES[trial % 4], seed=trial),
                hooks=hooks,
            )
        except Exception as exc:  # noqa: BLE001 - any escape is a finding
            violation = f"{name}: {exc}"
            break
        bundles += hooks.bundles_checked
    dt = time.perf_counter() - t0
    ok = violation is None and bundles > 0
    report(
        5, ok,
        violation or f"50 traced runs, {bundles} bundle boundaries checked, {dt:.1f}s",
        capsys,
    )


def test_criterion_06_short_path_coverage_audit(capsys):
    t0 = time.perf_counter()
    audited = 0
    violation = None
    for trial, (name, g) in enumerate(standard_corpus(20, 8, 24, seed=606)):
        hooks = InvariantHooks(g, 0.25, audit_paths=True)
        try:
            boost(
                g, 0.25, make_oracle("greedy", seed=trial),
                hooks=hooks,
            )
        except Exception as exc:  # noqa: BLE001
            violation = f"{name}: {exc}"
            break
        audited += hooks.paths_audited
    dt = time.perf_counter() - t0
    ok = violation is None and audited > 0 and dt <= 300
    report(
        6, ok,
        violation or f"20 instances, {audited} short-path audits clean, {dt:.1f}s",
        capsys,
    )


def test_criterion_07_weak_oracle_pipeline(capsys):
    t0 = time.perf_counter()
    eps = 0.25
    lam = 1.0  # the exact-backed weak oracle answers at full strength
    # n-free call budget from the configured caps: the seed loop grows
    # by lam*delta'*n edges per answer, the simulations are cut off at
    # SAMPLE_ITERATIONS queries per stage and per augment round per bundle
    seed_budget = math.ceil(3 / (2 * lam * DENSITY_COEFF * eps)) + 1
    stages = PhaseParams.for_scale(eps, 0.5).ell_max + 1
    per_bundle = stages * SAMPLE_ITERATIONS + SAMPLE_ITERATIONS
    budget = seed_budget + sum(
        PhaseParams.for_scale(eps, h).phases
        * PhaseParams.for_scale(eps, h).tau_max
        * per_bundle
        for h in scale_sequence(eps)
    )
    misses = over = 0
    worst_calls = 0
    for i in range(100):
        n = 24 + (i % 4) * 8
        g = gen_planted(n, 0.85, 0.5, 1000 + i)
        mu = len(exact_mcm(g.copy()))
        assert mu >= eps * n / 4  # planted instances are dense enough
        res = static_from_weak(g, eps, "weak-exact", seed=i)
        if len(res.matching) < math.ceil(mu / (1 + eps)):
            misses += 1
        if res.weak_calls > budget:
            over += 1
        worst_calls = max(worst_calls, res.weak_calls)
    dt = time.perf_counter() - t0
    ok = misses == 0 and over == 0 and dt <= 900
    report(
        7, ok,
        f"100 planted runs met the bound; worst {worst_calls} weak calls "
        f"within the {budget:.2g} budget, {dt:.1f}s",
        capsys,
    )


def test_criterion_08_cover_lifting_and_optimum_inequality(capsys):
    bad_lifts = 0
    for i in range(500):
        rng = random.Random(900 + i)
        g = gen_er(5 + i % 24, 0.1 + 0.05 * (i % 7), 3 * i + 1)
        edges = sorted(DoubleCover(g).materialize().edges)
        rng.shuffle(edges)
        used: set[int] = set()
        mb = []
        for u, v in edges:
            if u not in used and v not in used:
                mb.append((u, v))
                used.update((u, v))
        # The projection to base edges keeps at least half the edges, and
        # each base vertex has two copies, so it has degree at most 2 and
        # a maximum matching of at least a third of its edges.
        base = Graph(g.n, sorted({edge_key(u, v - g.n) for u, v in mb}))
        lifted = exact_mcm(base)
        if (
            base.max_degree() > 2
            or not is_matching(g, lifted)
            or len(lifted) < math.ceil(len(mb) / 6)
        ):
            bad_lifts += 1
    rng = random.Random(4242)
    bad_mu = 0
    for i in range(200):
        g = gen_er(4 + i % 14, 0.15 + 0.04 * (i % 5), 7 * i + 2)
        s = sorted(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
        sub_g, _ = g.induced(s)
        b = DoubleCover(g).materialize()
        sub_b, _ = b.induced(s + [v + g.n for v in s])
        if len(exact_mcm(sub_g)) > len(exact_mcm(sub_b)):
            bad_mu += 1
    ok = bad_lifts == 0 and bad_mu == 0
    report(
        8, ok,
        f"500/500 lifts valid at a sixth of the cover size, "
        f"200/200 induced optima dominated by the cover's",
        capsys,
    )


def test_criterion_09_update_stream_contract(capsys):
    t0 = time.perf_counter()
    violations = 0
    sizing_ok = True
    for seed in range(20):
        result = problem1_harness(
            256, gen_update_stream(256, 50, seed), 0.25,
            backend="weak-exact", seed=seed,
        )
        violations += result["total_violations"]
        sizing_ok &= result["chunk_size"] == 16
        sizing_ok &= len(result["chunks"]) == math.ceil(50 / 16)
        sizing_ok &= all(c["updates"] == 16 for c in result["chunks"])
    dt = time.perf_counter() - t0
    ok = violations == 0 and sizing_ok
    report(
        9, ok,
        f"20 streams replayed, {violations} contract violations, "
        f"chunking exact with padding, {dt:.1f}s",
        capsys,
    )


def test_criterion_10_deterministic_replay(capsys):
    cfg = ExperimentConfig(
        mode="boost",
        epsilons=(0.25,),
        oracle="adversarial:2",
        seed=5,
        corpus=CorpusSpec(kind="mixed", trials=10, n=8, n_max=24, seed=5),
    )
    csv_match = run_experiment(cfg).stable_csv() == run_experiment(cfg).stable_csv()

    def replay_p1() -> dict:
        out = problem1_harness(64, gen_update_stream(64, 20, 5), 0.25, seed=5)
        for chunk in out["chunks"]:
            chunk.pop("wall_ms", None)
        return out

    ok = csv_match and replay_p1() == replay_p1()
    report(
        10, ok,
        "experiment CSV and update-stream reports replay byte-identically",
        capsys,
    )
