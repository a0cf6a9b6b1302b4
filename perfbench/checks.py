"""Output checks against optima computed apart from the program.

Every check returns a list of problems; an empty list means the answer
passed.  The checks work on plain tuples and integers, so they need
neither the package under test nor scipy.
"""

from __future__ import annotations

import math
from fractions import Fraction


def ceil_bound(mu: int, epsilon: float) -> int:
    """The guarantee ``ceil(mu / (1 + epsilon))``, in exact arithmetic."""
    return math.ceil(Fraction(mu) / (1 + Fraction(epsilon)))


def check_matching(
    edges: set[tuple[int, int]],
    matching: list[tuple[int, int]],
    mu: int,
    epsilon: float,
) -> list[str]:
    """A returned matching: real edges, disjoint, at most mu, at least the bound."""
    problems = []
    seen: set[int] = set()
    for u, v in matching:
        if (min(u, v), max(u, v)) not in edges:
            problems.append(f"({u}, {v}) is not an edge of the input")
        for x in (u, v):
            if x in seen:
                problems.append(f"vertex {x} is matched twice")
            seen.add(x)
    if len(matching) > mu:
        problems.append(f"{len(matching)} edges exceed the optimum {mu}")
    want = ceil_bound(mu, epsilon)
    if len(matching) < want:
        problems.append(f"{len(matching)} edges fall below ceil(mu/(1+eps)) = {want}")
    return problems


def check_optimum(program_mu: int, mu: int) -> list[str]:
    """The program's exact matcher must agree with the independent optimum."""
    if program_mu != mu:
        return [f"exact_mcm found {program_mu}, the independent optimum is {mu}"]
    return []


def check_chunk(
    record: dict,
    chunk_size: int,
    replay_edges: int,
    mu: int,
    epsilon: float,
    n: int,
    t_const: float,
) -> list[str]:
    """One chunk record of the update-stream harness against the replay.

    The ratio bound is only promised on chunks dense enough for the
    pipeline, ``mu >= t_const * epsilon * n``.
    """
    problems = []
    if record["updates"] != chunk_size:
        problems.append(f"chunk holds {record['updates']} updates, not {chunk_size}")
    if record["graph_edges"] != replay_edges:
        problems.append(
            f"chunk reports {record['graph_edges']} edges, the replay has {replay_edges}"
        )
    if record["violations"]:
        problems.append(f"{len(record['violations'])} contract violation(s)")
    size = record["matching_size"]
    if size > mu:
        problems.append(f"matching of {size} exceeds the optimum {mu}")
    if mu >= t_const * epsilon * n and size < ceil_bound(mu, epsilon):
        problems.append(
            f"matching of {size} falls below ceil(mu/(1+eps)) = {ceil_bound(mu, epsilon)}"
        )
    return problems
