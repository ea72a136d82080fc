"""Backtracking solver based on simple-path extension: moves for the shared driver.

Component z grows as one simple path from vertex 1; every edge displaced at a
saturated path vertex is forced into component w. A branch dies as soon as
either component closes a short cycle or w exceeds its degree bounds, both of
which the state engine reports at fix time. When the path closes into a
Hamiltonian cycle, all remaining free edges are flushed into w and the result
is accepted only if z's edge multiset differs from both inputs.

``take(e)`` extends the path by e and sends the displaced edges to w; when e
closes the path it flushes the rest to w and asks for the state to be judged.
There is no ``refute``: after a failed edge the driver just tries the next
candidate at the same path head.
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
    directed = state.directed
    tails = g.tails
    heads = g.heads
    assignment = state.assignment
    fix_edge = state.fix_edge
    num_edges = g.num_edges
    # z is one path from vertex 1, and ends[1] is its head
    if directed:
        inc = g.out_inc
        in_inc = g.in_inc
        ends = state.fwd[Z]
        odegz, odegw = state.odeg
        idegz, idegw = state.ideg
    else:
        inc = g.inc
        ends = state.pend[Z]
        degz, degw = state.deg

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
        e0 = min(inc[1])
        return take(e0) if directed else fix_edge(e0, Z)

    def expand():
        # Free edges at the path head, cheapest continuation first. Two free
        # parallel copies are interchangeable, so only the lower id is tried.
        h = ends[1]
        cands = []
        for e in inc[h]:
            if assignment[e] == FREE:
                k = heads[e] if tails[e] == h else tails[e]
                if directed:
                    free = 4 - odegz[k] - odegw[k] - idegz[k] - idegw[k]
                else:
                    free = 4 - degz[k] - degw[k]
                cands.append((free, k, e))
        cands.sort()
        out = []
        last_k = 0
        for _, k, e in cands:
            if k != last_k:
                out.append(e)
                last_k = k
        return out

    def take(e):
        h = ends[1]
        r = fix_edge(e, Z)
        if r is OK:
            # h has no z-slot left: its free edges (directed: its free out-arcs
            # and the free in-arcs of e's head) belong to w
            r = to_w(inc[h])
            if r is OK and directed:
                r = to_w(in_inc[heads[e]])
            return r
        if r is COMPLETES_COMPONENT:
            r = to_w(range(num_edges))
            return COMPLETES_COMPONENT if r is OK else r
        return r

    return start, expand, take, None
