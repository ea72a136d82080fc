"""Union multigraph of two Hamiltonian cycles.

The model is deliberately narrow: vertices are 1..n, the edge set is exactly
one copy of every edge of each input cycle (2n edges total), and every edge
carries a stable integer identity so that parallel copies stay distinguishable.
Edge ids 0..n-1 follow the first cycle's traversal order, n..2n-1 the second's.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from .errors import InvalidCycleError, MismatchedInstancesError


class Mode(enum.Enum):
    UNDIRECTED = "undirected"
    DIRECTED = "directed"


@dataclass(frozen=True)
class HamCycle:
    """A Hamiltonian cycle as a vertex sequence; the closing edge is implicit."""

    vertices: tuple[int, ...]
    mode: Mode

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        n = len(self.vertices)
        if n < 3:
            raise InvalidCycleError(f"a Hamiltonian cycle needs at least 3 vertices, got {n}")
        seen = set(self.vertices)
        if len(seen) != n or min(seen) != 1 or max(seen) != n:
            raise InvalidCycleError(f"vertex sequence is not a permutation of 1..{n}: {self.vertices}")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_pairs(self):
        """Yield the n endpoint pairs in traversal order, normalized per mode."""
        vs = self.vertices
        n = len(vs)
        if self.mode is Mode.DIRECTED:
            for i in range(n):
                yield vs[i], vs[(i + 1) % n]
        else:
            for i in range(n):
                u, v = vs[i], vs[(i + 1) % n]
                yield (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class EdgeMultiset:
    """Multiplicity map over normalized endpoint pairs of one mode."""

    mode: Mode
    counts: Counter


class UnionMultigraph:
    """Immutable union of two Hamiltonian cycles with per-edge identities.

    Undirected edges are stored with (min, max) endpoint order; the edge id
    disambiguates parallel copies. Incidence lists are tuples and safe to
    share across concurrent solver runs.

    Every edge end sits at a *port*. Undirected, port v is vertex v and holds
    two edges of each component. Directed, a tail sits at out-port u and a
    head at in-port n + v, one arc of each component per port. ``ports``
    lists the edges at each port (index 0 is empty) and ``head_port`` the
    port of each edge's head; edge e joins ports ``tails[e]`` and
    ``head_port[e]``. ``inc`` (undirected) and ``out_inc``/``in_inc``
    (directed) are per-vertex views of ``ports``. ``cycles`` is the pair
    ``build_union`` built the graph from, None otherwise.
    """

    __slots__ = ("n", "mode", "tails", "heads", "inc", "out_inc", "in_inc", "ports", "head_port",
                 "cycles")

    def __init__(self, n, mode, tails, heads):
        self.n = n
        self.mode = mode
        self.tails = tuple(tails)
        self.heads = tuple(heads)
        self.cycles = None
        directed = mode is Mode.DIRECTED
        self.head_port = tuple([n + v for v in self.heads]) if directed else self.heads
        ports = [[] for _ in range(2 * n + 1 if directed else n + 1)]
        for e, (u, v) in enumerate(zip(self.tails, self.head_port)):
            ports[u].append(e)
            ports[v].append(e)
        self.ports = tuple([tuple(lst) for lst in ports])
        if directed:
            self.inc = None
            self.out_inc = self.ports[:n + 1]
            self.in_inc = ((),) + self.ports[n + 1:]
        else:
            self.inc = self.ports
            self.out_inc = self.in_inc = None

    @property
    def num_edges(self) -> int:
        return 2 * self.n

    def endpoints(self, e) -> tuple[int, int]:
        return self.tails[e], self.heads[e]

    def edge_multiset(self) -> EdgeMultiset:
        return EdgeMultiset(self.mode, Counter(zip(self.tails, self.heads)))


def build_union(x: HamCycle, y: HamCycle) -> UnionMultigraph:
    """Build the union multigraph of x and y; shared edges appear as two parallel copies."""
    if x.n != y.n or x.mode is not y.mode:
        raise MismatchedInstancesError(
            f"cycles disagree: n={x.n}/{y.n}, mode={x.mode.value}/{y.mode.value}"
        )
    tails = []
    heads = []
    for cycle in (x, y):
        for u, v in cycle.edge_pairs():
            tails.append(u)
            heads.append(v)
    g = UnionMultigraph(x.n, x.mode, tails, heads)
    g.cycles = (x, y)
    return g


def parallel_edge_pairs(g: UnionMultigraph) -> list[tuple[int, int]]:
    """Edge-id pairs of doubled endpoint pairs, lower id first, sorted by lower id.

    Each input cycle is simple, so multiplicities never exceed two and every
    doubled pair couples one edge of each cycle: x's edge (ids below n), which
    is the lower id, and y's.
    """
    n = g.n
    t = g.tails
    h = g.heads
    in_x = dict(zip(zip(t[:n], h[:n]), range(n)))
    in_y = dict(zip(zip(t[n:], h[n:]), range(n, 2 * n)))
    return sorted((in_x[p], in_y[p]) for p in in_x.keys() & in_y.keys())


def cycle_edge_multiset(c: HamCycle) -> EdgeMultiset:
    """The n-edge multiset of a cycle, endpoint pairs normalized per mode."""
    return EdgeMultiset(c.mode, Counter(c.edge_pairs()))


def multiset_equals(a: EdgeMultiset, b: EdgeMultiset) -> bool:
    if a.mode is not b.mode:
        raise MismatchedInstancesError(f"mode mismatch: {a.mode.value} vs {b.mode.value}")
    return a.counts == b.counts
