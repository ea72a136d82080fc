"""Backtracking solver based on chain edge fixing: moves for the shared driver.

Every decision is followed by a forced-assignment cascade: a port (see
``UnionMultigraph``) that a fix fills to capacity in one component sends its
remaining free edges to the other. Undirected, that is a vertex reaching two
fixed edges in one component; directed, fixing an arc (i, j) fills i's
out-port and j's in-port, so i's other out-arc and j's other in-arc go to the
opposite component. Cascades run breadth-first off a work queue, touch each
edge at most once, and leave all performed fixes on the trail so the caller
can undo to a mark after a failure. The cascade, ``chain_fix``, lives in
``state.py`` next to ``fix_edge``, whose checks it performs in place; one
push step, the free edges at each port a fix filled, serves both modes. It
is imported here, so ``bcef.chain_fix`` names it too. The branch vertex,
``select_branch_edge``, is one rule for both modes too; its candidates are
the free edges at its port, which for a directed vertex is its out-port.

``take(e)`` cascades e into z, and ``refute(e)`` cascades e into w once its
z subtree has failed. A candidate that an earlier cascade already put in z
is taken without a move and cannot be refuted, so its failure closes the
node; one already in w is skipped. The moves call ``chain_fix`` directly.
The invariant scans, ``PartialState.check_invariants`` and
``check_propagation_closure``, are never run by the search; tests run them
after every cascade.
"""

from __future__ import annotations

from .multigraph import HamCycle, UnionMultigraph, parallel_edge_pairs
from .result import SolveResult
from .state import (
    CLOSES_NON_HAM_CYCLE,
    COMPLETES_COMPONENT,
    CONFLICT,
    FREE,
    OK,
    W,
    Z,
    FixOutcome,
    PartialState,
    SolveLimits,
    chain_fix,
    solve,
)


def preprocess_parallel(state: PartialState, g: UnionMultigraph) -> FixOutcome:
    """Split every parallel pair between the components, cascading each fix.

    Parallel copies can never share a Hamiltonian cycle, and because any
    decomposition puts one copy in each component, orienting the lower id
    into Z is a pure naming convention that loses no solutions. Each pair's
    two copies are taken lower id first, and a free copy goes to Z when its
    partner is free too, else to the component opposite its partner, which a
    cascade from an earlier pair or from the lower copy may have placed.
    """
    assignment = state.assignment
    for lo, hi in parallel_edge_pairs(g):
        for e, partner in ((lo, hi), (hi, lo)):
            if assignment[e] == FREE:
                a = assignment[partner]
                r = chain_fix(state, e, Z if a == FREE else 1 - a, g)
                if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                    return r
        if assignment[lo] == assignment[hi]:
            # unreachable through the fix engine, which rejects same-component
            # copies as a two-edge cycle or a slot conflict; kept as a guard
            state.invalid = True
            return CONFLICT
    return COMPLETES_COMPONENT if state.is_complete() else OK


def select_branch_edge(state: PartialState, g: UnionMultigraph):
    """Pick the branch vertex and its ordered candidate edges, or None.

    One rule serves both modes. ``state.placed`` counts each vertex's fixed
    edge ends, an end at its branch port (undirected its one port, directed
    its out-port, where the candidates sit) as ``2 // capacity`` and any
    other as 1. ``bytearray.find``, a C memchr, looks for the counts 3, 2, 1
    and 0 in turn and returns the lowest vertex with the first one present;
    slot 0 holds 4, so it is never chosen. Candidates are the branch port's
    free edges, ascending by the fixed edges at the far end's port, then by
    far vertex and edge id.

    The state must be closed by a full cascade, as the search's are: then
    every directed port holds 0 or 2 fixed arcs, and a free arc's in-port 0.
    So undirected, the vertex has the minimum nonzero free degree; directed,
    the most fixed arcs among those whose out-port is not full, so a decision
    propagates from both endpoints at once, and candidates ascend by head.
    A lone ``fix_edge`` leaves an open state, where the choice may differ.
    """
    find = state.placed.find
    for c in (3, 2, 1, 0):
        best = find(c)
        if best > 0:
            break
    else:
        return None
    assignment = state.assignment
    degz, degw = state.deg
    tails = g.tails
    heads = g.heads
    head_port = g.head_port
    cands = []
    for e in g.ports[best]:
        if assignment[e] == FREE:
            if tails[e] == best:
                k = heads[e]
                kp = head_port[e]
            else:
                k = kp = tails[e]
            cands.append((-degz[kp] - degw[kp], k, e))
    cands.sort()
    return best, [e for _, _, e in cands]


def solve_bcef(g: UnionMultigraph, x: HamCycle, y: HamCycle,
               limits: SolveLimits = SolveLimits()) -> SolveResult:
    """Decide whether the union admits a second decomposition, by chain fixing."""
    return solve(g, x, y, limits, _moves)


def _moves(state):
    g = state.g
    assignment = state.assignment

    def start():
        r = preprocess_parallel(state, g)
        if r is not OK:
            return r  # failed, or already complete
        # The first free edge lands in one of the two cycles of any
        # decomposition; naming that cycle z makes the choice branch-free.
        return chain_fix(state, assignment.index(FREE), Z, g)

    def expand():
        if state.is_complete():
            return None
        sel = select_branch_edge(state, g)
        return None if sel is None else sel[1]

    def take(e):
        a = assignment[e]
        if a == FREE:
            r = chain_fix(state, e, Z, g)
            return OK if r is COMPLETES_COMPONENT else r
        # an earlier cascade placed e already: in z the child needs no move,
        # in w there is nothing to try
        return OK if a == Z else CONFLICT

    def refute(e):
        a = assignment[e]
        if a == FREE:
            return chain_fix(state, e, W, g)
        # already placed: in w the alternative holds, in z it contradicts
        return OK if a == W else CONFLICT

    return start, expand, take, refute


def check_propagation_closure(state: PartialState, g: UnionMultigraph):
    """Assert no forced assignment was left behind by a cascade."""
    assignment = state.assignment
    for comp in (Z, W):
        deg = state.deg[comp]
        for p, edges in enumerate(g.ports):
            if deg[p] == state.capacity:
                for e in edges:
                    assert assignment[e] != FREE, (
                        f"port {p}: at capacity in component {comp} with a free edge"
                    )
