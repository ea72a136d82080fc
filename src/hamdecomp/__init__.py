"""Exact solvers for the second Hamiltonian decomposition problem.

Given two Hamiltonian cycles x and y on the same vertices, their union
multigraph is 4-regular (undirected) or in/out-2-regular (directed). This
package decides whether that union splits into a pair of edge-disjoint
Hamiltonian cycles different from x and y, with two backtracking algorithms,
an exhaustive oracle for small sizes, a seeded instance generator, and a
benchmark CLI.
"""

from .bcef import chain_fix, preprocess_parallel, select_branch_edge, solve_bcef
from .bsp import solve_bsp
from .errors import (
    AlreadyFixedError,
    HamdecompError,
    InstanceSemanticError,
    InstanceSyntaxError,
    InvalidCycleError,
    InvalidMarkError,
    MismatchedInstancesError,
    NotCompleteError,
    ParseError,
    TooLargeError,
)
from .instances import (
    Certificate,
    Instance,
    SplitMix64,
    certificate_of,
    gen_cycle,
    gen_instance,
    parse_certificate,
    parse_instance,
    write_certificate,
    write_instance,
)
from .multigraph import (
    HamCycle,
    Mode,
    UnionMultigraph,
    build_union,
    cycle_edge_multiset,
    parallel_edge_pairs,
)
from .oracle import DecompositionSet, enumerate_decompositions, second_decomposition_exists
from .result import SolveResult, SolveStats, SolveStatus
from .state import FREE, W, Z, FixOutcome, PartialState, SolveLimits
from .verify import decomposition_problems, is_valid_decomposition

# chain_fix, preprocess_parallel, select_branch_edge and FREE are engine
# internals, and cycle_edge_multiset a reference the tracer and the demos
# use: importable by name, but not part of the public API.
__all__ = [
    "AlreadyFixedError",
    "Certificate",
    "DecompositionSet",
    "FixOutcome",
    "HamCycle",
    "HamdecompError",
    "Instance",
    "InstanceSemanticError",
    "InstanceSyntaxError",
    "InvalidCycleError",
    "InvalidMarkError",
    "MismatchedInstancesError",
    "Mode",
    "NotCompleteError",
    "ParseError",
    "PartialState",
    "SolveLimits",
    "SolveResult",
    "SolveStats",
    "SolveStatus",
    "SplitMix64",
    "TooLargeError",
    "UnionMultigraph",
    "W",
    "Z",
    "build_union",
    "certificate_of",
    "decomposition_problems",
    "enumerate_decompositions",
    "gen_cycle",
    "gen_instance",
    "is_valid_decomposition",
    "parallel_edge_pairs",
    "parse_certificate",
    "parse_instance",
    "second_decomposition_exists",
    "solve_bcef",
    "solve_bsp",
    "write_certificate",
    "write_instance",
]

__version__ = "0.1.0"
