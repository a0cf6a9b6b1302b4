"""Command line front end.

Verbs: ``gen`` (write a corpus to disk), ``boost`` / ``dynamic`` (run
experiments), ``problem1`` (update-stream harness), ``verify`` (boost
with the hard ratio assertion as the only output), ``report`` (sums the
round counts of a finished JSON report and flags component-cap
violations).  Exit status is 0 iff nothing failed an assertion or
contract check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import ExperimentConfig, RunReport, component_cap, run_experiment, write_report
from .corpus import CorpusSpec, build_corpus, format_update_stream, gen_update_stream
from .dynamic import DynParams, parse_update_stream, problem1_harness
from .errors import InternalConsistencyError, MatchboostError, PreconditionError
from .oracles import exact_mcm, make_oracle, make_weak_backend


def _parse_constants(text: str | None) -> tuple[tuple[str, float], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(","):
        k, _, v = part.partition("=")
        if not _:
            raise SystemExit(f"bad constants entry {part!r}, want k=v")
        num = float(v)
        out.append((k.strip(), int(num) if num.is_integer() else num))
    return tuple(out)


def _parse_epsilons(values: list[str]) -> tuple[float, ...]:
    out: list[float] = []
    for v in values:
        for tok in v.split(","):
            try:
                if "/" in tok:
                    a, b = tok.split("/")
                    out.append(float(a) / float(b))
                else:
                    out.append(float(tok))
            except (ValueError, ZeroDivisionError):
                raise PreconditionError(
                    f"bad epsilon {tok!r}, want a number or a fraction like 1/8"
                ) from None
    return tuple(out)


def _check_oracle(name: str, factory) -> None:
    """An oracle name ``factory`` rejects is bad input, found before any run."""
    try:
        factory(name)
    except ValueError as exc:
        raise PreconditionError(f"--oracle: {exc}") from None


def _corpus_spec(args) -> CorpusSpec:
    return CorpusSpec(
        kind=args.kind,
        trials=args.trials,
        n=args.n,
        n_max=args.n_max,
        p=args.p,
        petals=args.petals,
        seed=args.seed,
    )


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="mixed", help="generator kind or 'mixed'")
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--p", type=float, default=0.15)
    p.add_argument("--petals", type=int, default=3)
    p.add_argument("--trials", type=int, default=10)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", action="append", default=None, help="value, fraction like 1/8, or comma list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report base path (writes .csv and .json)")
    p.add_argument("--constants", default=None, help="comma list of coefficient overrides k=v")
    p.add_argument("--profile", choices=("desk", "paper"), default="desk")
    _add_corpus_flags(p)


def _finish_run(report: RunReport, out: str | None) -> int:
    for agg in report.aggregates():
        print(
            f"epsilon={agg['epsilon']:g}: {agg['trials']} trials, "
            f"{agg['failures']} failures, worst ratio "
            f"{agg['worst_ratio'] if agg['worst_ratio'] is not None else 'n/a'}, "
            f"max oracle calls {agg['max_oracle_calls']}"
        )
    if out:
        csv_path, json_path = write_report(report, out)
        print(f"wrote {csv_path} and {json_path}")
    if report.failures:
        print(f"FAIL: {report.failures} trial(s) below the ratio bound", file=sys.stderr)
        return 1
    return 0


def cmd_gen(args) -> int:
    spec = _corpus_spec(args)
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    for name, g in build_corpus(spec):
        path = os.path.join(args.out, name + ".edges")
        with open(path, "w") as fh:
            fh.write(g.to_edge_list())
        manifest.append(
            {"name": name, "file": os.path.basename(path), "n": g.n, "m": g.m,
             "mu_exact": len(exact_mcm(g))}
        )
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump({"spec": vars(args) | {"func": None}, "graphs": manifest}, fh, indent=1, sort_keys=True, default=str)
    print(f"wrote {len(manifest)} graphs to {args.out}")
    return 0


def cmd_boost(args, mode: str = "boost") -> int:
    _check_oracle(args.oracle, make_weak_backend if mode == "dynamic" else make_oracle)
    config = ExperimentConfig(
        mode=mode,
        epsilons=_parse_epsilons(args.epsilon or ["0.25"]),
        oracle=args.oracle,
        seed=args.seed,
        corpus=_corpus_spec(args),
        constants=_parse_constants(args.constants),
        profile=args.profile,
    )
    return _finish_run(run_experiment(config), args.out)


def cmd_dynamic(args) -> int:
    return cmd_boost(args, mode="dynamic")


def cmd_verify(args) -> int:
    rc = cmd_boost(args)
    print("verify: OK" if rc == 0 else "verify: FAILED")
    return rc


def cmd_problem1(args) -> int:
    _check_oracle(args.oracle, make_weak_backend)
    eps = _parse_epsilons([args.epsilon or "0.25"])[0]
    updates = gen_update_stream(args.n, args.updates, args.seed)
    if args.stream:
        with open(args.stream) as fh:
            updates = parse_update_stream(fh.read())
    dynp = DynParams.paper(eps) if args.profile == "paper" else DynParams.desk(eps)
    result = problem1_harness(
        args.n, updates, eps, backend=args.oracle, q_budget=args.q_budget,
        seed=args.seed, dyn_params=dynp,
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    if args.emit_stream:
        sys.stdout.write(format_update_stream(updates))
    bad = result["total_violations"]
    print(
        f"{len(result['chunks'])} chunks of {result['chunk_size']} updates, "
        f"{bad} contract violation(s)"
    )
    return 1 if bad else 0


REPORT_COLUMNS = (
    "trial", "graph", "epsilon", "oracle_calls", "mpc_rounds", "congest_rounds",
    "cap_violations",
)


def cmd_report(args) -> int:
    """Sum the rows' own round counts; exit 1 iff a row broke the component cap."""
    with open(args.path) as fh:
        rows = json.load(fh).get("rows", [])
    for i, r in enumerate(rows):
        missing = [k for k in REPORT_COLUMNS if k not in r]
        if missing:
            raise PreconditionError(
                f"{args.path}: row {i} lacks {', '.join(missing)}; rerun the experiment"
            )
    over = [
        {
            "trial": r["trial"],
            "graph": r["graph"],
            "epsilon": r["epsilon"],
            "component_cap": component_cap(r["epsilon"]),
            "violations": r["cap_violations"],
        }
        for r in rows
        if r["cap_violations"]
    ]
    acct = {
        "model": args.model,
        "rows": len(rows),
        "rounds": sum(r[f"{args.model}_rounds"] for r in rows),
        "oracle_calls": sum(r["oracle_calls"] for r in rows),
        "violations": over,
    }
    print(json.dumps(acct, indent=1, sort_keys=True))
    if over:
        print(f"FAIL: {len(over)} row(s) exceed the component cap", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="matchboost", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="write a seeded corpus to a directory")
    _add_corpus_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("boost", help="run the boosting pipeline over a corpus")
    _add_run_flags(p)
    p.add_argument("--oracle", default="greedy", help="exact | greedy | adversarial:<c>")
    p.set_defaults(func=cmd_boost)

    p = sub.add_parser("dynamic", help="run the weak-oracle pipeline over a corpus")
    _add_run_flags(p)
    p.add_argument("--oracle", default="weak-exact", help="weak-exact | weak-greedy")
    p.set_defaults(func=cmd_dynamic)

    p = sub.add_parser("verify", help="boost with the ratio assertion as the outcome")
    _add_run_flags(p)
    p.add_argument("--oracle", default="greedy")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("problem1", help="chunked update-stream harness")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--updates", type=int, default=320)
    p.add_argument("--epsilon", default="0.25")
    p.add_argument("--oracle", default="weak-exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q-budget", type=int, default=None)
    p.add_argument("--profile", choices=("desk", "paper"), default="desk")
    p.add_argument("--stream", default=None, help="read updates from a file instead")
    p.add_argument("--emit-stream", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_problem1)

    p = sub.add_parser("report", help="round accounting over a finished JSON report")
    p.add_argument("path")
    p.add_argument("--model", choices=("mpc", "congest"), default="mpc")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalConsistencyError:
        raise
    except MatchboostError as exc:
        # bad inputs get one line; internal errors still traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
