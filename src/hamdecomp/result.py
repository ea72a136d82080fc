"""Solver verdicts and search statistics."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .multigraph import HamCycle


class SolveStatus(enum.Enum):
    DECOMPOSED = "DECOMPOSED"
    NONE_EXISTS = "NONE"
    TIMED_OUT = "TIMEOUT"


@dataclass
class SolveStats:
    nodes: int = 0
    edges_fixed: int = 0
    max_depth: int = 0
    elapsed_ms: float = 0.0  # wall time of the solve, in ms


@dataclass
class SolveResult:
    """Outcome of one solver run.

    DECOMPOSED carries a witness pair (z, w): two edge-disjoint Hamiltonian
    cycles partitioning the union's edge multiset, with z's multiset different
    from both inputs. NONE_EXISTS is an exact negative verdict; TIMED_OUT
    means a budget expired first.
    """

    status: SolveStatus
    z: HamCycle | None = None
    w: HamCycle | None = None
    stats: SolveStats = field(default_factory=SolveStats)
