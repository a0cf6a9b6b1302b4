"""Experiment runner and reporting.

A run is fully described by an :class:`ExperimentConfig`; re-running
the same config yields byte-identical CSV and JSON apart from the wall
time columns.  Reports carry, per trial, the exact optimum, the
achieved size, the oracle traffic, and simulated round counts for the
two message-passing cost models.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field

from .corpus import CorpusSpec, build_corpus
from .dynamic import static_from_weak
from .engine import boost
from .errors import PreconditionError
from .graph import Graph, is_matching
from .oracles import OracleStats, exact_mcm, make_oracle, make_weak_backend
from .params import Constants, normalize_epsilon


def component_cap(epsilon: float) -> float:
    """The largest component a processing step may touch: ``1 / epsilon**3``.

    Taken as a product of reciprocals, so an epsilon whose cube
    underflows (at or below ``2**-359``) gives an infinite cap, which no
    step exceeds, rather than a division by zero.
    """
    inv = 1.0 / epsilon
    return inv * inv * inv


def round_accounting_report(
    stats: OracleStats, model: str, epsilon: float, t_unit: int = 1
) -> dict:
    """Simulated round counts for one run.

    Both models charge ``t_unit`` rounds per oracle call.  The parallel
    model adds one round per processing step; the distributed model
    adds the step's maximum component size, which the engine is
    supposed to keep at or below ``1 / epsilon**3`` (violations are
    reported, not raised).
    """
    if model not in ("mpc", "congest"):
        raise PreconditionError(f"unknown round model {model!r}")
    cap = component_cap(epsilon)
    if model == "mpc":
        rounds = stats.calls * t_unit + len(stats.processing_steps)
    else:
        rounds = stats.calls * t_unit + sum(stats.processing_steps)
    violations = [
        {"step": i, "component": s, "cap": cap}
        for i, s in enumerate(stats.processing_steps)
        if s > cap
    ]
    return {
        "model": model,
        "rounds": rounds,
        "oracle_calls": stats.calls,
        "processing_steps": len(stats.processing_steps),
        "component_cap": cap,
        "violations": violations,
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializable, reproducible from seed."""

    mode: str = "boost"  # boost | dynamic
    epsilons: tuple[float, ...] = (0.25,)
    oracle: str = "greedy"  # boost oracle name, or weak backend for dynamic
    seed: int = 0
    corpus: CorpusSpec = field(default_factory=lambda: CorpusSpec(kind="mixed", trials=10))
    constants: tuple[tuple[str, float], ...] = ()
    verify: bool = True
    t_unit: int = 1

    def __post_init__(self):
        if self.mode not in ("boost", "dynamic"):
            raise PreconditionError(f"unknown mode {self.mode!r}")
        Constants().with_overrides(dict(self.constants))

    def to_json(self) -> str:
        d = asdict(self)
        d["corpus"] = asdict(self.corpus)
        return json.dumps(d, sort_keys=True)


CSV_COLUMNS = [
    "trial",
    "graph",
    "n",
    "m",
    "epsilon",
    "oracle",
    "seed",
    "mu_exact",
    "matched",
    "ratio",
    "ok",
    "oracle_calls",
    "weak_calls",
    "mpc_rounds",
    "congest_rounds",
    "wall_ms",
]
WALL_COLUMNS = ("wall_ms",)


@dataclass
class RunReport:
    config: ExperimentConfig
    rows: list[dict] = field(default_factory=list)
    per_scale: list[dict] = field(default_factory=list)
    failures: int = 0

    def aggregates(self) -> list[dict]:
        """One summary per epsilon the rows ran at, in first-seen order.

        Rows hold the normalized epsilon, not the configured one.
        """
        groups: dict[float, list[dict]] = {}
        for r in self.rows:
            groups.setdefault(r["epsilon"], []).append(r)
        out = []
        for eps, sub in groups.items():
            ratios = [r["ratio"] for r in sub if r["ratio"] is not None]
            out.append(
                {
                    "epsilon": eps,
                    "trials": len(sub),
                    "failures": sum(1 for r in sub if not r["ok"]),
                    "worst_ratio": min(ratios) if ratios else None,
                    "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
                    "max_oracle_calls": max(r["oracle_calls"] for r in sub),
                    "max_weak_calls": max(r["weak_calls"] for r in sub),
                }
            )
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        w.writeheader()
        for r in self.rows:
            w.writerow({k: r.get(k, "") for k in CSV_COLUMNS})
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": json.loads(self.config.to_json()),
                "rows": self.rows,
                "per_scale": self.per_scale,
                "aggregates": self.aggregates(),
                "failures": self.failures,
            },
            sort_keys=True,
            indent=1,
        )

    def stable_csv(self) -> str:
        """The CSV with wall-time columns blanked; used by replay checks."""
        return strip_wall_columns(self.to_csv())


def strip_wall_columns(csv_text: str) -> str:
    rows = list(csv.reader(io.StringIO(csv_text)))
    head = rows[0]
    drop = [i for i, name in enumerate(head) if name in WALL_COLUMNS]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in rows:
        w.writerow([c for i, c in enumerate(row) if i not in drop])
    return buf.getvalue()


def _run_boost_trial(g: Graph, eps: float, config: ExperimentConfig, trial: int) -> tuple:
    consts = Constants().with_overrides(dict(config.constants))
    oracle = make_oracle(config.oracle, seed=(config.seed * 1_000_003 + trial))
    res = boost(g, eps, oracle, constants=consts)
    return res.matching, res.stats, [asdict(s) for s in res.per_scale]


def _run_dynamic_trial(g: Graph, eps: float, config: ExperimentConfig, trial: int) -> tuple:
    res = static_from_weak(
        g, eps, config.oracle, seed=config.seed * 1_000_003 + trial,
        constants=Constants().with_overrides(dict(config.constants)),
    )
    stats = OracleStats(calls=res.weak_calls, weak_calls=res.weak_calls)
    stats.processing_steps = res.stats_g.processing_steps
    return res.matching, stats, [asdict(s) for s in res.per_scale]


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run every (epsilon, trial) cell of the config and verify results.

    Verification computes the exact optimum per graph and checks the
    ceiling bound ``matched >= ceil(mu / (1 + eps))``; failures are
    counted, never silently dropped.  An oracle name the mode does not
    know (a weak backend in dynamic mode) raises ``PreconditionError``
    before the first trial.
    """
    try:
        (make_weak_backend if config.mode == "dynamic" else make_oracle)(config.oracle)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None
    corpus = build_corpus(config.corpus)
    mu_cache: dict[int, int] = {}
    report = RunReport(config=config)
    for eps_raw in config.epsilons:
        eps = normalize_epsilon(eps_raw)
        for trial, (name, g0) in enumerate(corpus):
            g = g0.copy()
            t0 = time.perf_counter()
            if config.mode == "boost":
                m, stats, per_scale = _run_boost_trial(g, eps, config, trial)
            else:
                m, stats, per_scale = _run_dynamic_trial(g, eps, config, trial)
            wall_ms = round(1000 * (time.perf_counter() - t0), 3)
            if not is_matching(g0, m):
                raise PreconditionError(f"trial {name}: result is not a matching")
            mu = mu_cache.get(trial)
            if mu is None and config.verify:
                mu = mu_cache[trial] = len(exact_mcm(g0.copy()))
            ratio = (len(m) / mu) if mu else None
            ok = True
            if config.verify and mu:
                ok = len(m) >= math.ceil(mu / (1 + eps))
            if not ok:
                report.failures += 1
            mpc = round_accounting_report(stats, "mpc", eps, config.t_unit)
            congest = round_accounting_report(stats, "congest", eps, config.t_unit)
            row = {
                "trial": trial,
                "graph": name,
                "n": g0.n,
                "m": g0.m,
                "epsilon": eps,
                "oracle": config.oracle,
                "seed": config.seed,
                "mu_exact": mu,
                "matched": len(m),
                "ratio": None if ratio is None else round(ratio, 6),
                "ok": ok,
                "oracle_calls": stats.calls,
                "weak_calls": stats.weak_calls,
                "mpc_rounds": mpc["rounds"],
                "congest_rounds": congest["rounds"],
                # JSON only: both models share the component cap
                "cap_violations": len(mpc["violations"]),
                "wall_ms": wall_ms,
            }
            report.rows.append(row)
            report.per_scale.append(
                {"trial": trial, "epsilon": eps, "scales": per_scale}
            )
    return report


def write_report(report: RunReport, out_base: str) -> tuple[str, str]:
    """Write ``<base>.csv`` and ``<base>.json``; returns the two paths."""
    csv_path, json_path = out_base + ".csv", out_base + ".json"
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    with open(json_path, "w") as fh:
        fh.write(report.to_json())
    return csv_path, json_path
