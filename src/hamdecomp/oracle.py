"""Exhaustive reference enumerator of Hamiltonian decompositions.

Certifies the solvers at small sizes and generates ground-truth fixtures. The
enumeration is a plain depth-first Z/W assignment over the 2n edges on its own
small state, not the solvers' search engine, with only degree and path-end
pruning: a port never holds more edges of a component than it has room for,
and no edge closes a cycle of fewer than n edges. There is no propagation, no
branching heuristic, no difference check and no early exit.

Two symmetries are broken, so that each decomposition, an unordered pair of
edge multisets, is reached by exactly one complete assignment:

- *Copy swaps.* An edge shared by x and y has two parallel copies with the
  same endpoints and ports, and a Hamiltonian cycle holds at most one, so
  swapping the copies between Z and W gives the same pair. The lower id of
  each copy pair goes to Z. The oracle finds the copies itself, as two edges
  with equal endpoints, by the rule ``bcef.preprocess_parallel`` also uses.
- *Naming.* Swapping Z and W gives the same pair. The lowest edge with no
  copy goes to Z; it lies in exactly one of the two cycles, so which one is
  Z is fixed. A union with no such edge is x doubled, with one pair.

Neither loses a pair: any decomposition becomes one that keeps both rules by
swapping Z and W if the lowest unshared edge is in W, and then the copies of
each shared edge whose lower id is in W, which leaves that edge in place.

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
from .multigraph import HamCycle, Mode, UnionMultigraph
from .state import W, Z

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
    order = _vertex_completion_order(g)  # starts with edge 0
    run = _Enumeration(g, order)
    _assign(run, 0)
    return DecompositionSet(tuple(sorted(run.found)), len(run.found))


class _Enumeration:
    """The enumeration's own search state, one level per edge of ``order``.

    Per level, the edge's two ports (see ``UnionMultigraph``) and its endpoint
    pair. Per component, the edges fixed at each port, and ``pend``, which
    pairs the two open ports at the ends of every fixed path: a lone
    undirected vertex is its own pair, a lone directed vertex the pair of its
    out-port v and in-port n + v. An edge that joins the two ends of one path
    closes a cycle. ``comps`` holds each assigned level's component, and
    ``choices`` the components a level may take: Z alone for an edge pinned
    by one of the two symmetry rules (see the module docstring).
    """

    __slots__ = ("n", "capacity", "ports", "pairs", "choices", "deg", "pend", "counts",
                 "comps", "found")

    def __init__(self, g: UnionMultigraph, order: list[int]):
        n = self.n = g.n
        self.ports = [(g.tails[e], g.head_port[e]) for e in order]
        self.pairs = [(g.tails[e], g.heads[e]) for e in order]
        # the lower id of each shared edge's two copies goes to Z, and so
        # does the lowest edge with no copy; if every edge has one, x and y
        # are one cycle and edge 0, a lower copy, is already pinned
        lowest = {}
        pinned = set()
        for e, pair in sorted(zip(order, self.pairs)):
            lo = lowest.setdefault(pair, e)
            if lo != e:
                pinned.add(lo)
        pinned.add(min((e for e in lowest.values() if e not in pinned), default=0))
        self.choices = [(Z,) if e in pinned else (Z, W) for e in order]
        size = len(g.ports)
        if g.mode is Mode.DIRECTED:
            ends = [0, *range(n + 1, size), *range(1, n + 1)]
            self.capacity = 1
        else:
            ends = list(range(size))
            self.capacity = 2
        self.deg = ([0] * size, [0] * size)
        self.pend = (ends, ends[:])
        self.counts = [0, 0]
        self.comps = [Z] * len(order)
        self.found = []


def _assign(run, i):
    """Each of level i's components in turn, then the rest; the pair of each
    complete assignment, a new one every time, into ``run.found``.

    A module-level function rather than a closure: a nested function that
    calls itself is a reference cycle, which would keep every call's state
    alive until the cyclic garbage collector ran.
    """
    ports = run.ports
    if i == len(ports):
        # all 2n edges are placed and the port caps hold at most n edges of
        # a component, so both hold n; with no short cycle, both are
        # Hamiltonian
        pairs = run.pairs
        comps = run.comps
        z = [p for p, c in zip(pairs, comps) if c == Z]
        w = [p for p, c in zip(pairs, comps) if c == W]
        run.found.append(_canonical_pair(z, w))
        return
    u, v = ports[i]
    capacity = run.capacity
    counts = run.counts
    for c in run.choices[i]:
        deg = run.deg[c]
        if deg[u] == capacity or deg[v] == capacity:
            continue
        pend = run.pend[c]
        eu = pend[u]
        ev = pend[v]
        closes = eu == v
        if closes:
            # u and v are the two ends of one fixed path
            if counts[c] + 1 < run.n:
                continue
        else:
            pend[eu] = ev
            pend[ev] = eu
        deg[u] += 1
        deg[v] += 1
        counts[c] += 1
        run.comps[i] = c
        _assign(run, i + 1)
        deg[u] -= 1
        deg[v] -= 1
        counts[c] -= 1
        if not closes:
            pend[eu] = u
            pend[ev] = v


def second_decomposition_exists(g: UnionMultigraph, x: HamCycle, y: HamCycle) -> bool:
    """True iff the union decomposes into a pair other than the inputs; g must
    be ``build_union(x, y)``."""
    if g.cycles != (x, y):
        raise MismatchedInstancesError("graph was not built from these cycles")
    input_pair = canonical_input_pair(x, y)
    ds = enumerate_decompositions(g)
    return any(pair != input_pair for pair in ds.decompositions)
