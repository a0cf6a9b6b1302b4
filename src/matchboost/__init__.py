"""Boosting any constant-factor matching oracle to a (1 + eps) guarantee.

The package exposes three layers: an exact matcher and oracle zoo, the
phase engine that drives oracles over small auxiliary graphs, and a
weak-oracle pipeline (induced-subgraph queries only) with an
update-stream harness.
"""

from .engine import (
    BoostResult,
    OracleFinder,
    TraceHooks,
    boost,
    initial_matching,
    run_phase,
    run_scales,
)
from .dynamic import (
    DoubleCover,
    DynRunResult,
    parse_update_stream,
    SampledFinder,
    problem1_harness,
    static_from_weak,
)
from .errors import (
    GraphFormatError,
    InternalConsistencyError,
    MatchboostError,
    OracleContractError,
    PreconditionError,
)
from .graph import (
    AltPath,
    Arc,
    Graph,
    Matching,
    augment_all,
    augment_along,
    edge_key,
    is_matching,
    load_graph,
    load_matching,
)
from .oracles import (
    AdversarialOracle,
    CountedOracle,
    CountedWeakOracle,
    ExactOracle,
    GreedyOracle,
    OracleStats,
    exact_mcm,
    make_oracle,
    make_weak_backend,
    weak_from_exact,
    weak_from_greedy,
)
from .params import Constants, PhaseParams, normalize_epsilon, scale_sequence

__version__ = "0.1.0"

__all__ = [
    "AltPath",
    "Arc",
    "AdversarialOracle",
    "BoostResult",
    "Constants",
    "CountedOracle",
    "CountedWeakOracle",
    "DoubleCover",
    "DynRunResult",
    "ExactOracle",
    "Graph",
    "GraphFormatError",
    "GreedyOracle",
    "InternalConsistencyError",
    "Matching",
    "MatchboostError",
    "OracleContractError",
    "OracleFinder",
    "OracleStats",
    "PhaseParams",
    "PreconditionError",
    "SampledFinder",
    "TraceHooks",
    "augment_all",
    "augment_along",
    "boost",
    "edge_key",
    "exact_mcm",
    "initial_matching",
    "is_matching",
    "load_graph",
    "load_matching",
    "make_oracle",
    "make_weak_backend",
    "normalize_epsilon",
    "parse_update_stream",
    "problem1_harness",
    "run_phase",
    "run_scales",
    "scale_sequence",
    "static_from_weak",
    "weak_from_exact",
    "weak_from_greedy",
]
