"""Exact solvers for the second Hamiltonian decomposition problem.

Given two Hamiltonian cycles x and y on the same vertices, their union
multigraph is 4-regular (undirected) or in/out-2-regular (directed). This
package decides whether that union splits into a pair of edge-disjoint
Hamiltonian cycles different from x and y, with two backtracking algorithms,
an exhaustive oracle for small sizes, a seeded instance generator, and a
benchmark CLI.
"""

from .bcef import solve_bcef
from .bsp import solve_bsp
from .errors import (
    HamdecompError,
    InstanceSemanticError,
    InstanceSyntaxError,
    InvalidCycleError,
    MismatchedInstancesError,
    ParseError,
    TooLargeError,
)
from .instances import (
    Certificate,
    Instance,
    certificate_of,
    gen_instance,
    parse_certificate,
    parse_instance,
    write_certificate,
    write_instance,
)
from .multigraph import HamCycle, Mode, UnionMultigraph, build_union
from .oracle import DecompositionSet, enumerate_decompositions, second_decomposition_exists
from .result import SolveResult, SolveStats, SolveStatus
from .state import SolveLimits
from .verify import decomposition_problems

# the public surface; the engine's internals stay in their modules (see the
# README's library quick start)
__all__ = [
    "Certificate",
    "DecompositionSet",
    "HamCycle",
    "HamdecompError",
    "Instance",
    "InstanceSemanticError",
    "InstanceSyntaxError",
    "InvalidCycleError",
    "MismatchedInstancesError",
    "Mode",
    "ParseError",
    "SolveLimits",
    "SolveResult",
    "SolveStats",
    "SolveStatus",
    "TooLargeError",
    "UnionMultigraph",
    "build_union",
    "certificate_of",
    "decomposition_problems",
    "enumerate_decompositions",
    "gen_instance",
    "parse_certificate",
    "parse_instance",
    "second_decomposition_exists",
    "solve_bcef",
    "solve_bsp",
    "write_certificate",
    "write_instance",
]

__version__ = "0.1.0"
