"""Exhaustive reference enumerator of Hamiltonian decompositions.

Certifies the solvers at small sizes and generates ground-truth fixtures. The
enumeration is a plain depth-first Z/W assignment over the 2n edges with only
the state engine's degree and cycle pruning: no propagation, no branching
heuristics, no difference check, and no early exit. Edge 0 is pinned to the
first component (pure naming symmetry); the residual duplicates from swapping
parallel copies collapse under canonicalization.

The edges are assigned in a static *vertex-completion order*, computed once
before the search: start at edge 0's tail, list its incident edges in
ascending id, then repeatedly visit the unvisited vertex with the most edges
already listed (lowest id on ties) and list its remaining edges. Each visit
completes the edge set of a vertex next to the ones before it, so a port
that overflows is caught a few levels down. Edge-id order would assign all n
edges of the first cycle before any of the second; no port can overflow
before its second-cycle edges arrive, so about 2^(n-1) partial assignments
would be enumerated before anything could fail. The order of the levels
cannot change the set of complete assignments, so the census is the same in
any order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchedInstancesError, TooLargeError
from .multigraph import HamCycle, UnionMultigraph
from .state import CLOSES_NON_HAM_CYCLE, CONFLICT, W, Z, PartialState

MAX_ORACLE_N = 14


@dataclass(frozen=True)
class DecompositionSet:
    """All decompositions of a union, as canonical unordered multiset pairs."""

    decompositions: tuple[tuple[tuple, tuple], ...]
    count: int


def _canonical_pair(a_pairs, b_pairs):
    a = tuple(sorted(a_pairs))
    b = tuple(sorted(b_pairs))
    return (a, b) if a <= b else (b, a)


def canonical_input_pair(x: HamCycle, y: HamCycle):
    """The instance's own decomposition in the oracle's canonical form."""
    return _canonical_pair(x.edge_pairs(), y.edge_pairs())


def _vertex_completion_order(g: UnionMultigraph) -> list[int]:
    """Edge ids vertex by vertex, each next vertex the one with most edges listed."""
    inc = [[] for _ in range(g.n + 1)]
    for e in range(g.num_edges):
        inc[g.tails[e]].append(e)
        inc[g.heads[e]].append(e)
    listed_at = [0] * (g.n + 1)
    unvisited = set(range(1, g.n + 1))
    order = []
    v = g.tails[0]
    while True:
        unvisited.discard(v)
        for e in inc[v]:
            u = g.tails[e] + g.heads[e] - v
            if u in unvisited:  # otherwise e was listed when u was visited
                order.append(e)
                listed_at[u] += 1
        if not unvisited:
            return order
        v = min(unvisited, key=lambda u: (-listed_at[u], u))


def enumerate_decompositions(g: UnionMultigraph) -> DecompositionSet:
    """Every unordered pair of edge-disjoint Hamiltonian cycles covering g."""
    if g.n > MAX_ORACLE_N:
        raise TooLargeError(f"exhaustive enumeration capped at n={MAX_ORACLE_N}, got n={g.n}")
    state = PartialState(g)
    order = _vertex_completion_order(g)  # starts with edge 0
    found = set()
    fix_edge = state.fix_edge
    fix_edge(0, Z)
    _assign(state, fix_edge, order, 1, found)
    return DecompositionSet(tuple(sorted(found)), len(found))


def _assign(state, fix_edge, order, i, found):
    """Both components for edge order[i], then the rest; complete states into found.

    A module-level function rather than a closure: a nested function that
    calls itself is a reference cycle, which would keep every call's state
    alive until the cyclic garbage collector ran.
    """
    if i == len(order):
        if state.is_complete():
            found.add(_canonical_pair(state.component_pairs(Z), state.component_pairs(W)))
        return
    e = order[i]
    mark = len(state.trail)
    for comp in (Z, W):
        r = fix_edge(e, comp)
        if r is not CONFLICT and r is not CLOSES_NON_HAM_CYCLE:
            _assign(state, fix_edge, order, i + 1, found)
        state.undo_to(mark)


def second_decomposition_exists(g: UnionMultigraph, x: HamCycle, y: HamCycle) -> bool:
    """True iff the union decomposes into a pair other than the inputs; g must
    be ``build_union(x, y)``."""
    if g.cycles != (x, y):
        raise MismatchedInstancesError("graph was not built from these cycles")
    input_pair = canonical_input_pair(x, y)
    ds = enumerate_decompositions(g)
    return any(pair != input_pair for pair in ds.decompositions)
