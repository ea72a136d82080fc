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


def _first_misfit(vertices):
    """Where a sequence of n vertices first stops being a permutation of 1..n."""
    n = len(vertices)
    seen = set()
    for i, v in enumerate(vertices, start=1):
        if v not in range(1, n + 1):
            return f"vertex {v} at position {i} is outside 1..{n}"
        if v in seen:
            return f"vertex {v} at position {i} repeats"
        seen.add(v)


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
            raise InvalidCycleError(
                f"vertex sequence is not a permutation of 1..{n}: {_first_misfit(self.vertices)}"
            )

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


class UnionMultigraph:
    """Immutable union of two Hamiltonian cycles with per-edge identities.

    Undirected edges are stored with (min, max) endpoint order; the edge id
    disambiguates parallel copies. Incidence lists are tuples, so solver runs
    on one graph can share them.

    Every edge end sits at a *port*. Undirected, port v is vertex v and holds
    two edges of each component. Directed, a tail sits at out-port u and a
    head at in-port n + v, one arc of each component per port. ``ports``
    lists the edges at each port (index 0 is empty) and ``head_port`` the
    port of each edge's head; edge e joins ports ``tails[e]`` and
    ``head_port[e]``. A port holds ``capacity`` edges of one component (2,
    directed 1), and ``ends`` pairs each lone vertex's open ports, where the
    path-end maps start. ``build_union`` makes every table; ``cycles`` is the
    pair it built them from, and None marks a graph of no known pair.

    A directed union splits into alternating cycles, its *rings*: an x-arc,
    the y-arc at its out-port, the x-arc at that y-arc's in-port, and so on
    back to the first. Every port holds two arcs of one ring, the vertices a
    ring's x-arcs leave make up one cycle of pi = y^-1 x, and the 2-rings are
    the parallel pairs. ``rings`` lists them as tuples of arc ids, each
    from its lowest x-arc id and in that order. An undirected union has no
    rings: ``rings`` is empty.
    """

    __slots__ = ("n", "mode", "tails", "heads", "ports", "head_port", "cycles", "rings",
                 "capacity", "ends")

    def __init__(self, n, mode, tails, heads, head_port, ports, cycles, rings=()):
        self.n = n
        self.mode = mode
        self.tails = tails
        self.heads = heads
        self.head_port = head_port
        self.ports = ports
        self.cycles = cycles
        self.rings = rings
        self.capacity = 1 if mode is Mode.DIRECTED else 2
        # out-port v pairs with in-port n + v; with no port past n, v with v
        self.ends = (0, *range(n + 1, len(ports)), *range(1, n + 1))

    @property
    def num_edges(self) -> int:
        return 2 * self.n


def build_union(x: HamCycle, y: HamCycle) -> UnionMultigraph:
    """Build the union multigraph of x and y; shared edges appear as two parallel copies.

    The edge leaving the vertex at position i of x has id i and the edge
    arriving there id i - 1 (mod n), and likewise n + i and n + i - 1 in y,
    so every port's edges follow from the two cycles' position tables.
    """
    if x.n != y.n or x.mode is not y.mode:
        raise MismatchedInstancesError(
            f"cycles disagree: n={x.n}/{y.n}, mode={x.mode.value}/{y.mode.value}"
        )
    n = x.n
    directed = x.mode is Mode.DIRECTED
    leaving = []  # per cycle, the id of the edge leaving each vertex (slot 0 unused)
    tails = []
    heads = []
    for base, c in ((0, x), (n, y)):
        vs = c.vertices
        pos = [0] * (n + 1)
        for i, v in enumerate(vs, base):
            pos[v] = i
        leaving.append(pos)
        nxt = vs[1:] + vs[:1]
        if directed:
            tails += vs
            heads += nxt
        else:
            tails += [u if u < v else v for u, v in zip(vs, nxt)]
            heads += [v if u < v else u for u, v in zip(vs, nxt)]
    tails = tuple(tails)
    heads = tuple(heads)
    px, py = leaving
    lx = px[1:]
    ly = py[1:]
    if not directed:
        # the two edges at the vertex where edge i leaves, lower id first
        at = ((0, n - 1), *zip(range(n - 1), range(1, n)),
              (n, 2 * n - 1), *zip(range(n, 2 * n - 1), range(n + 1, 2 * n)))
        ports = ((), *[at[a] + at[b] for a, b in zip(lx, ly)])
        return UnionMultigraph(n, x.mode, tails, heads, heads, ports, (x, y))
    # out-port v holds the arcs leaving v, in-port n + v those arriving
    arriving = (n - 1, *range(n - 1), 2 * n - 1, *range(n, 2 * n - 1))
    ports = ((), *zip(lx, ly), *zip(map(arriving.__getitem__, lx), map(arriving.__getitem__, ly)))
    head_port = tuple([n + v for v in heads])
    # Ring steps: x's arc a leaves tails[a], where y's arc b leaves too, and
    # b enters heads[b], where x's arc arriving[px[heads[b]]] enters.
    # ``step`` takes an x-arc to the next x-arc of its ring.
    y_at_tail = [py[v] for v in x.vertices]
    x_at_head = [0] * n + [arriving[px[v]] for v in heads[n:]]
    step = [x_at_head[b] for b in y_at_tail]
    rings = []
    seen = bytearray(n)  # per x-arc, whether a ring holds it yet
    for first in range(n):
        if seen[first]:
            continue
        xs = []
        a = first
        while not seen[a]:
            seen[a] = 1
            xs.append(a)
            a = step[a]
        ring = xs * 2
        ring[::2] = xs
        ring[1::2] = [y_at_tail[a] for a in xs]
        rings.append(tuple(ring))
    return UnionMultigraph(n, x.mode, tails, heads, head_port, ports, (x, y), tuple(rings))


def parallel_edge_pairs(g: UnionMultigraph) -> list[tuple[int, int]]:
    """Edge-id pairs of doubled endpoint pairs, lower id first, sorted by lower id.

    Each input cycle is simple, so multiplicities never exceed two and every
    doubled pair couples one edge of each cycle: x's edge (ids below n), which
    is the lower id, and y's. A directed union's doubled pairs are its
    2-rings, already in this order. In an undirected union the y-copy of an
    x-edge shares its tail port, where y's two edges follow x's two.
    """
    if g.mode is Mode.DIRECTED:
        return [ring for ring in g.rings if len(ring) == 2]
    n = g.n
    tails = g.tails
    heads = g.heads
    ports = g.ports
    return [(a, b) for a, t, h in zip(range(n), tails, heads)
            for b in ports[t][2:] if heads[b] == h]


def cycle_edge_multiset(c: HamCycle) -> Counter:
    """The n-edge multiset of a cycle: counts of its endpoint pairs, normalized
    per mode."""
    return Counter(c.edge_pairs())
