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
and ``walk_ring`` are imported here, so ``bcef`` names them too.

A directed cascade stays on one ring of the union (see ``UnionMultigraph``):
from a free ring it fixes exactly that ring, x's arcs into one component and
y's into the other, so each directed decision decides one ring. Directed
search branches on the longest undecided ring, offering its first x-arc,
then the y-arc at the same out-port, and decides it with ``walk_ring``,
which fixes the ring's x-arcs, then its y-arcs, in two passes. Undirected
search branches at the vertex ``select_branch_edge`` picks, among the free
edges at its port, and cascades with ``chain_fix``; ``preprocess_parallel``
uses ``chain_fix`` in both modes.

``take(e)`` cascades e into z, and ``refute(e)`` cascades e into w once its
z subtree has failed. A candidate that an earlier cascade already put in z
is taken without a move and cannot be refuted, so its failure closes the
node; one already in w is skipped. The search never runs the invariant
scans; tests run them after every cascade that does not fail.
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
    walk_ring,
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
    """Pick the branch vertex of an undirected state and its ordered
    candidate edges, or None when every vertex is saturated.

    ``state.placed`` counts each vertex's fixed edge ends. ``bytearray.find``,
    a C memchr, looks for the counts 3, 2, 1 and 0 in turn and returns the
    lowest vertex with the first one present, the vertex of minimum nonzero
    free degree; slot 0 holds 4, so it is never chosen. Candidates are the
    vertex's free edges, ascending by the far end's free degree, then by far
    vertex and edge id. Directed search branches on rings and never calls it.
    """
    placed = state.placed
    find = placed.find
    for c in (3, 2, 1, 0):
        best = find(c)
        if best > 0:
            break
    else:
        return None
    assignment = state.assignment
    tails = g.tails
    heads = g.heads
    cands = []
    for e in g.ports[best]:
        if assignment[e] == FREE:
            k = heads[e] if tails[e] == best else tails[e]
            cands.append((-placed[k], k, e))
    cands.sort()
    return best, [e for _, _, e in cands]


def solve_bcef(g: UnionMultigraph, x: HamCycle, y: HamCycle,
               limits: SolveLimits = SolveLimits()) -> SolveResult:
    """Decide whether the union admits a second decomposition, by chain fixing."""
    return solve(g, x, y, limits, _moves)


def _moves(state):
    g = state.g
    assignment = state.assignment
    if state.directed:
        # A cascade from a free ring fixes that ring and nothing else, so each
        # node decides one nontrivial ring: the longest undecided one (ties in
        # table order), at its first out-port, x's arc into z first, then y's.
        rings = sorted((r for r in g.rings if len(r) > 2), key=len, reverse=True)
        branches = [r[:2] for r in rings]
        ring_at = {r[0]: r for r in rings}

        def cascade(e, comp):
            # Only a free ring's first x-arc gets here: expand offers r[:2],
            # and the y-arc r[1] is taken only after refute(r[0]) has decided
            # the ring, which leaves r[1] fixed.
            return walk_ring(state, ring_at[e], comp, g)

        def expand():
            for cands in branches:
                if assignment[cands[0]] == FREE:
                    return cands
            return None
    else:
        branches = None

        def cascade(e, comp):
            return chain_fix(state, e, comp, g)

        def expand():
            sel = select_branch_edge(state, g)
            return None if sel is None else sel[1]

    def start():
        r = preprocess_parallel(state, g)
        if r is not OK:
            return r  # failed, or already complete
        # The edge lands in one of the two cycles of any decomposition; naming
        # that cycle z makes the choice branch-free. Directed, the edge is the
        # longest ring's first x-arc, undirected the first free edge.
        e = assignment.index(FREE) if branches is None else branches[0][0]
        return cascade(e, Z)

    def take(e):
        a = assignment[e]
        if a == FREE:
            r = cascade(e, Z)
            return OK if r is COMPLETES_COMPONENT else r
        # an earlier cascade placed e already: in z the child needs no move,
        # in w there is nothing to try
        return OK if a == Z else CONFLICT

    def refute(e):
        a = assignment[e]
        if a == FREE:
            return cascade(e, W)
        # already placed: in w the alternative holds, in z it contradicts
        return OK if a == W else CONFLICT

    return start, expand, take, refute
