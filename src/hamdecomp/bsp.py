"""Backtracking solver based on simple-path extension: moves for the shared driver.

Component z grows as one simple path from vertex 1; every edge displaced at a
saturated path vertex is forced into component w. A branch dies as soon as
either component closes a short cycle or w exceeds its degree bounds, both of
which the state engine reports at fix time. When the path closes into a
Hamiltonian cycle, all remaining free edges are flushed into w and the result
is accepted only if z's edge multiset differs from both inputs.

``take(e)`` extends the path by e and sends the displaced edges to w; when e
closes the path it flushes the rest to w and asks for the state to be judged.
``refute(e)`` commits nothing and returns OK: the alternative to e as the
next path edge is another candidate at the same path head, which the driver
tries next.
"""

from __future__ import annotations

from .multigraph import HamCycle, UnionMultigraph
from .result import SolveResult
from .state import COMPLETES_COMPONENT, FREE, OK, W, Z, SolveLimits, solve


def solve_bsp(g: UnionMultigraph, x: HamCycle, y: HamCycle,
              limits: SolveLimits = SolveLimits()) -> SolveResult:
    """Decide whether the union admits a second decomposition, by path extension."""
    return solve(g, x, y, limits, _moves)


def _moves(state):
    g = state.g
    tails = g.tails
    heads = g.heads
    head_port = g.head_port
    ports = g.ports
    assignment = state.assignment
    fix_edge = state.fix_edge
    num_edges = g.num_edges
    capacity = state.capacity
    degz, degw = state.deg
    # z is one path from vertex 1, and ends[root] is its head: the path's
    # open port at vertex 1, its in-port when directed, is paired with port 1
    ends = state.pend[Z]
    root = ends[1]

    def to_w(edges):
        for f in edges:
            if assignment[f] == FREE:
                r = fix_edge(f, W)
                if r is not OK and r is not COMPLETES_COMPONENT:
                    return r
        return OK

    def start():
        # The first edge must land in one of the two cycles of any
        # decomposition; naming that cycle z makes the choice branch-free.
        # Lowest id at vertex 1.
        return take(min(ports[1]))

    def expand():
        # Free edges at the path head, cheapest continuation first: fewest
        # free edges at the far end k, counted over k's out- and in-port
        # (undirected: twice over its one port, which orders the same). Two
        # free parallel copies are interchangeable, so only the lower id is
        # tried.
        h = ends[root]
        cands = []
        for e in ports[h]:
            if assignment[e] == FREE:
                if tails[e] == h:
                    k = heads[e]
                    kp = head_port[e]
                else:
                    k = kp = tails[e]
                cands.append((-degz[k] - degw[k] - degz[kp] - degw[kp], k, e))
        cands.sort()
        out = []
        last_k = 0
        for _, k, e in cands:
            if k != last_k:
                out.append(e)
                last_k = k
        return out

    def take(e):
        r = fix_edge(e, Z)
        if r is OK:
            # a port that e filled to capacity in z (the old path head; when
            # directed also e's head) sends its free edges to w
            u = tails[e]
            if degz[u] == capacity:
                r = to_w(ports[u])
            v = head_port[e]
            if r is OK and degz[v] == capacity:
                r = to_w(ports[v])
            return r
        if r is COMPLETES_COMPONENT:
            r = to_w(range(num_edges))
            return COMPLETES_COMPONENT if r is OK else r
        return r

    def refute(e):
        return OK

    return start, expand, take, refute
