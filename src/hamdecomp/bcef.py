"""Backtracking solver based on chain edge fixing: moves for the shared driver.

Every decision is followed by a forced-assignment cascade: in the directed
case fixing an arc (i, j) into one component sends i's other out-arc and j's
other in-arc to the opposite component; in the undirected case a vertex that
reaches two fixed edges in one component sends its remaining free edges to the
other. Cascades run breadth-first off a work queue, touch each edge at most
once, and leave all performed fixes on the trail so the caller can undo to a
mark after a failure.

``take(e)`` cascades e into z, and ``refute(e)`` cascades e into w once its
z subtree has failed. A candidate that an earlier cascade already put in z
is taken without a move and cannot be refuted, so its failure closes the
node; one already in w is skipped.
"""

from __future__ import annotations

from collections import deque

from .errors import AlreadyFixedError
from .multigraph import HamCycle, Mode, UnionMultigraph, parallel_edge_pairs
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
    solve,
)


def chain_fix(state: PartialState, e: int, comp: int, g: UnionMultigraph) -> FixOutcome:
    """Fix a free edge and propagate all forced consequences.

    Returns the first failure encountered, with every fix performed so far
    left on the trail for the caller to undo. A pending forced fix that finds
    its edge already in the opposite component is a contradiction and reports
    CONFLICT. Work per cascade is linear: each edge is fixed at most once.
    """
    if state.assignment[e] != FREE:
        raise AlreadyFixedError(f"edge {e} already fixed")
    assignment = state.assignment
    queue = deque()
    queue.append((e, comp))
    completed = False
    if g.mode is Mode.DIRECTED:
        out_inc = g.out_inc
        in_inc = g.in_inc
        tails = g.tails
        heads = g.heads
        while queue:
            f, c = queue.popleft()
            a = assignment[f]
            if a == c:
                continue
            if a != FREE:
                state.invalid = True
                return CONFLICT
            r = state.fix_edge(f, c)
            if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                return r
            if r is COMPLETES_COMPONENT:
                completed = True
            u = tails[f]
            v = heads[f]
            o = 1 - c
            pair = out_inc[u]
            sib = pair[1] if pair[0] == f else pair[0]
            if assignment[sib] == FREE:
                queue.append((sib, o))
            pair = in_inc[v]
            sib = pair[1] if pair[0] == f else pair[0]
            if assignment[sib] == FREE:
                queue.append((sib, o))
    else:
        inc = g.inc
        tails = g.tails
        heads = g.heads
        deg = state.deg
        while queue:
            f, c = queue.popleft()
            a = assignment[f]
            if a == c:
                continue
            if a != FREE:
                state.invalid = True
                return CONFLICT
            r = state.fix_edge(f, c)
            if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                return r
            if r is COMPLETES_COMPONENT:
                completed = True
            degc = deg[c]
            o = 1 - c
            u = tails[f]
            if degc[u] == 2:
                for fe in inc[u]:
                    if assignment[fe] == FREE:
                        queue.append((fe, o))
            v = heads[f]
            if degc[v] == 2:
                for fe in inc[v]:
                    if assignment[fe] == FREE:
                        queue.append((fe, o))
    return COMPLETES_COMPONENT if completed else OK


def preprocess_parallel(state: PartialState, g: UnionMultigraph,
                        after_fix=None) -> FixOutcome:
    """Split every parallel pair between the components, cascading each fix.

    Parallel copies can never share a Hamiltonian cycle, and because any
    decomposition puts one copy in each component, orienting the lower id
    into Z is a pure naming convention that loses no solutions. Cascades from
    earlier pairs may already have placed a copy; the partner is then forced
    to the opposite component. ``after_fix`` runs after each successful
    cascade (debug hook).
    """
    def fix(edge, comp):
        r = chain_fix(state, edge, comp, g)
        if after_fix is not None and r is not CONFLICT and r is not CLOSES_NON_HAM_CYCLE:
            after_fix()
        return r

    for lo, hi in parallel_edge_pairs(g):
        a_lo = state.assignment[lo]
        a_hi = state.assignment[hi]
        if a_lo == FREE and a_hi == FREE:
            r = fix(lo, Z)
            if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                return r
            if state.assignment[hi] == FREE:
                r = fix(hi, W)
                if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                    return r
        elif a_lo == FREE:
            r = fix(lo, 1 - a_hi)
            if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                return r
        elif a_hi == FREE:
            r = fix(hi, 1 - a_lo)
            if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                return r
        elif a_lo == a_hi:
            # unreachable through the fix engine, which rejects same-component
            # copies as a two-edge cycle or a slot conflict; kept as a guard
            state.invalid = True
            return CONFLICT
    return COMPLETES_COMPONENT if state.is_complete() else OK


def select_branch_edge(state: PartialState, g: UnionMultigraph):
    """Pick the branch vertex and its ordered candidate edges, or None.

    Directed: the vertex with free out-arcs whose incident fixed-arc count is
    maximal, so a decision propagates from both endpoints at once; candidates
    ascend by head vertex. Undirected: the vertex with the minimum nonzero
    free degree; candidates ascend by the neighbor's free degree. Ties break
    toward lower vertex and edge ids.

    The undirected vertex is found without a Python loop over the vertices:
    ``state.placed`` counts each vertex's fixed edges, and C-level list scans
    look for the counts 3, 2, 1 and 0 in turn. The first count present is
    the largest short of 4, that is the minimum nonzero free degree, and
    ``index`` returns its lowest vertex, which keeps the tie-break. Slot 0
    holds 4, so it is never chosen.
    """
    n = g.n
    assignment = state.assignment
    if g.mode is Mode.DIRECTED:
        odegz, odegw = state.odeg[Z], state.odeg[W]
        idegz, idegw = state.ideg[Z], state.ideg[W]
        best = 0
        best_fixed = -1
        for v in range(1, n + 1):
            if odegz[v] + odegw[v] == 2:
                continue
            fixed = odegz[v] + odegw[v] + idegz[v] + idegw[v]
            if fixed > best_fixed:
                best = v
                best_fixed = fixed
        if not best:
            return None
        cands = sorted(
            (g.heads[e], e) for e in g.out_inc[best] if assignment[e] == FREE
        )
        return best, [e for _, e in cands]
    placed = state.placed
    for c in (3, 2, 1, 0):
        if c in placed:
            best = placed.index(c)
            break
    else:
        return None
    degz, degw = state.deg[Z], state.deg[W]
    tails = g.tails
    heads = g.heads
    cands = []
    for e in g.inc[best]:
        if assignment[e] == FREE:
            k = heads[e] if tails[e] == best else tails[e]
            cands.append((4 - degz[k] - degw[k], k, e))
    cands.sort()
    return best, [e for _, _, e in cands]


def solve_bcef(g: UnionMultigraph, x: HamCycle, y: HamCycle,
               limits: SolveLimits = SolveLimits(),
               validate: bool = False) -> SolveResult:
    """Decide whether the union admits a second decomposition, by chain fixing.

    ``validate`` runs a full-state invariant scan after every cascade; meant
    for debug runs and tests.
    """
    return solve(g, x, y, limits, lambda state: _moves(state, validate))


def _moves(state, validate):
    g = state.g
    assignment = state.assignment

    def scan():
        state.check_invariants()
        check_propagation_closure(state, g)

    def cascade(e, comp):
        r = chain_fix(state, e, comp, g)
        if validate and r is not CONFLICT and r is not CLOSES_NON_HAM_CYCLE:
            scan()
        return r

    def start():
        r = preprocess_parallel(state, g, after_fix=scan if validate else None)
        if r is not OK:
            return r  # failed, or already complete
        # The first free edge lands in one of the two cycles of any
        # decomposition; naming that cycle z makes the choice branch-free.
        return cascade(assignment.index(FREE), Z)

    def expand():
        if state.is_complete():
            return None
        sel = select_branch_edge(state, g)
        return None if sel is None else sel[1]

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


def check_propagation_closure(state: PartialState, g: UnionMultigraph):
    """Assert no forced assignment was left behind by a cascade."""
    assignment = state.assignment
    if g.mode is Mode.DIRECTED:
        for comp in (Z, W):
            odeg = state.odeg[comp]
            ideg = state.ideg[comp]
            for v in range(1, g.n + 1):
                if odeg[v]:
                    for e in g.out_inc[v]:
                        assert assignment[e] != FREE, (
                            f"vertex {v}: fixed out-arc with free sibling"
                        )
                if ideg[v]:
                    for e in g.in_inc[v]:
                        assert assignment[e] != FREE, (
                            f"vertex {v}: fixed in-arc with free sibling"
                        )
    else:
        for comp in (Z, W):
            deg = state.deg[comp]
            for v in range(1, g.n + 1):
                if deg[v] == 2:
                    for e in g.inc[v]:
                        assert assignment[e] != FREE, (
                            f"vertex {v}: saturated in component {comp} with a free edge"
                        )
