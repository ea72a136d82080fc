"""Mutable search state shared by both solvers.

Edges are assigned to one of two components (Z or W) one at a time. The state
keeps per-port degree counters and, per component, a pairing of the two ends
of every maximal fixed path. Joining the two ends of the same path is the only
way a fixed component can close a cycle, so cycle detection is O(1) per fix.
Every successful fix pushes its edge id on the trail and saves, per edge, the
endpoint map keys it overwrote, which makes undo exact without any
recomputation or any allocation per fix. One fix body serves both modes: they
differ only in how many edges of a component a port holds, which the state
keeps as ``capacity``.

Both solvers also share the search itself: ``solve`` sets up a run and
``backtrack`` is the one depth-first driver, to which a solver supplies only
its moves, the same four for both: ``start``, ``expand``, ``take`` and
``refute``. The driver refutes every failed move and judges every complete
state by edge id. The chain-fixing cascade, ``chain_fix``, lives here too,
because it writes its forced fixes into the state's fields directly, and so
does ``walk_ring``, which decides a free directed ring in two passes: its
x-arcs into one component, then its y-arcs into the other.
"""

from __future__ import annotations

import enum
import time
from collections import Counter
from dataclasses import dataclass

from .errors import AlreadyFixedError, InvalidMarkError, MismatchedInstancesError, NotCompleteError
from .multigraph import HamCycle, Mode, UnionMultigraph
from .result import SolveResult, SolveStats, SolveStatus

FREE = -1
Z = 0
W = 1


class FixOutcome(enum.Enum):
    OK = "ok"
    CLOSES_NON_HAM_CYCLE = "closes-non-ham-cycle"
    CONFLICT = "conflict"
    COMPLETES_COMPONENT = "completes-component"


OK = FixOutcome.OK
CLOSES_NON_HAM_CYCLE = FixOutcome.CLOSES_NON_HAM_CYCLE
CONFLICT = FixOutcome.CONFLICT
COMPLETES_COMPONENT = FixOutcome.COMPLETES_COMPONENT


@dataclass(frozen=True)
class SolveLimits:
    """Wall-clock and node budgets; 0 means unlimited."""

    time_budget: float = 0.0
    node_budget: int = 0

    def __post_init__(self):
        # written so that NaN, which compares false, is rejected too
        if not (self.time_budget >= 0 and self.node_budget >= 0):
            raise ValueError("budgets must be non-negative")


class BudgetExceeded(Exception):
    """Internal signal that a solver ran out of time or nodes."""


class BudgetClock:
    """Node counter plus a wall clock read at every node."""

    __slots__ = ("node_budget", "deadline", "nodes")

    def __init__(self, limits: SolveLimits):
        self.node_budget = limits.node_budget
        self.deadline = time.monotonic() + limits.time_budget if limits.time_budget else None
        self.nodes = 0

    def charge_node(self):
        self.nodes += 1
        if self.node_budget and self.nodes > self.node_budget:
            raise BudgetExceeded
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded


def solve(g: UnionMultigraph, x: HamCycle, y: HamCycle, limits: SolveLimits,
          moves) -> SolveResult:
    """Decide whether the union of x and y has a second decomposition.

    ``moves(state)`` returns one solver's ``(start, expand, take, refute)``
    for a fresh state on g; ``backtrack`` describes them. g must be
    ``build_union(x, y)``, as complete states are judged against its edge
    ids; any other graph raises MismatchedInstancesError.
    """
    if g.cycles != (x, y):
        raise MismatchedInstancesError("graph was not built from these cycles")
    began = time.perf_counter()
    state = PartialState(g)
    clock = BudgetClock(limits)
    stats = SolveStats()
    try:
        witness = backtrack(state, clock, stats, *moves(state))
        status = SolveStatus.DECOMPOSED if witness else SolveStatus.NONE_EXISTS
    except BudgetExceeded:
        witness = None
        status = SolveStatus.TIMED_OUT
    stats.nodes = clock.nodes
    stats.edges_fixed = state.edges_fixed
    stats.elapsed_ms = (time.perf_counter() - began) * 1000
    if witness:
        return SolveResult(status, witness[0], witness[1], stats)
    return SolveResult(status, stats=stats)


def backtrack(state, clock, stats, start, expand, take, refute):
    """Depth-first search over one solver's moves; the first complete state
    that ``state.differs_from_cycles`` accepts, as its decomposition, or None
    once the search space is exhausted.

    The root costs one node, charged before ``start()`` makes the branch-free
    root moves. Each further node is charged as it opens; ``expand()`` then
    returns its ordered candidate edges, or None for a leaf. ``take(e)``
    makes candidate e's move: OK opens a child node, COMPLETES_COMPONENT has
    the state judged as it stands, and a failure rejects the move. Once a
    move or its subtree fails, the state is undone to the mark taken before
    the move and ``refute(e)`` commits the alternative. Its outcome decides
    the node: OK goes on to the next candidate; CONFLICT or
    CLOSES_NON_HAM_CYCLE closes the node; COMPLETES_COMPONENT has a complete
    state judged, returned when accepted and closing the node otherwise, and
    goes on to the next candidate when the state is not complete. Raises
    BudgetExceeded when the clock runs out.
    """
    is_complete = state.is_complete
    accepted = state.differs_from_cycles
    clock.charge_node()
    r = start()
    if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
        return None
    if is_complete():
        return state.extract_decomposition() if accepted() else None
    charge_node = clock.charge_node
    trail = state.trail
    undo_to = state.undo_to
    frames = []  # per open node: [candidates, index of the next one, mark before the last move]
    while True:
        charge_node()
        cands = expand()
        if cands is not None:
            frames.append([cands, 0, 0])
            if len(frames) > stats.max_depth:
                stats.max_depth = len(frames)
        elif is_complete() and accepted():
            return state.extract_decomposition()
        failed = cands is None
        while frames:
            frame = frames[-1]
            cands, idx, mark = frame
            if failed:
                # the move at cands[idx - 1], or its subtree, failed
                undo_to(mark)
                r = refute(cands[idx - 1])
                if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                    frames.pop()
                    continue
                # a state completes only by a fix closing a cycle, so no other outcome can
                if r is COMPLETES_COMPONENT and is_complete():
                    if accepted():
                        return state.extract_decomposition()
                    frames.pop()
                    continue
            if idx == len(cands):
                # every candidate failed, so the node does
                frames.pop()
                failed = True
                continue
            frame[1] = idx + 1
            frame[2] = len(trail)
            r = take(cands[idx])
            if r is OK:
                break  # open the child node the move made
            if r is COMPLETES_COMPONENT and is_complete() and accepted():
                return state.extract_decomposition()
            failed = True  # refuted at the top of the loop
        else:
            return None


class PartialState:
    """Edge assignments for one solver run; never shared between runs.

    The counters are kept per port (see ``UnionMultigraph``): an undirected
    vertex is one port with room for two edges of each component, a directed
    vertex v an out-port v and an in-port n + v with room for one arc each.
    Every fixed path of a component has one open port at each end, and
    ``pend`` pairs them; a lone undirected vertex is its own pair, a lone
    directed vertex the pair (v, n + v). Fixing an edge that joins the two
    ends of one path closes a cycle.

    Public attributes read by the solvers:
      assignment  -- per-edge component, FREE when unassigned
      counts      -- fixed-edge totals per component
      trail       -- fix log of edge ids, oldest first; its length is the
                     undo mark space, and a fixed edge's component is its
                     ``assignment``
      saved_a, saved_b -- per edge, the far ends of the two paths its fix
                     joined, the pend keys the fix overwrote (0 and 0 when it
                     closed a cycle); meaningful only while the edge is fixed,
                     so a trail entry e is (e, assignment[e], saved_a[e],
                     saved_b[e]) in full
      edges_fixed -- monotone total of successful fixes (survives undo)
      capacity    -- edges of one component a port holds: 2, directed 1
      deg         -- per component, fixed edges at each port
      pend        -- per component, the open port at the other end of the
                     path that ends at a port (kept only at path ends)
      placed      -- a bytearray of the fixed edge ends at each vertex, both
                     components together; undirected search reads it to pick
                     its branch vertex. Slot 0, no vertex, holds 4 so it reads
                     as saturated. It is a view synced from the trail when
                     read, not kept by ``fix_edge``: a read counts the trail
                     entries pushed since ``_synced``, the length of the trail
                     prefix it holds, and ``undo_to`` uncounts the entries of
                     that prefix it pops. A state whose view is never read,
                     as in bsp and directed bcef, pays nothing.
    """

    __slots__ = (
        "g", "n", "directed", "assignment", "counts", "trail", "saved_a", "saved_b", "invalid",
        "edges_fixed", "capacity", "deg", "pend", "_placed", "_synced",
    )

    def __init__(self, g: UnionMultigraph):
        self.g = g
        n = self.n = g.n
        self.directed = g.mode is Mode.DIRECTED
        self.assignment = [FREE] * g.num_edges
        self.counts = [0, 0]
        self.trail = []
        self.saved_a = [0] * g.num_edges
        self.saved_b = [0] * g.num_edges
        self._synced = 0
        self.invalid = False
        self.edges_fixed = 0
        size = len(g.ports)
        self.deg = ([0] * size, [0] * size)
        if self.directed:
            ends = [0, *range(n + 1, size), *range(1, n + 1)]
            self.capacity = 1
        else:
            ends = list(range(size))
            self.capacity = 2
        self.pend = (ends, ends[:])
        self._placed = bytearray([4]) + bytearray(n)

    @property
    def placed(self):
        placed = self._placed
        trail = self.trail
        k = self._synced
        if k != len(trail):
            tails = self.g.tails
            heads = self.g.heads
            for e in trail[k:]:
                placed[tails[e]] += 1
                placed[heads[e]] += 1
            self._synced = len(trail)
        return placed

    # -- fixing ---------------------------------------------------------
    #
    # fix_edge(e, comp) -> FixOutcome assigns a free edge to a component.
    # Failing outcomes (CONFLICT, CLOSES_NON_HAM_CYCLE) leave the state
    # unchanged but flagged invalid until the caller undoes to a mark.
    # One body serves both modes, checking ports against ``capacity``. It has
    # one name per mode, which ``fix_edge`` looks up on each read, so a
    # wrapper set on one name sees that mode's fixes. Hot loops read
    # ``state.fix_edge`` once; ``chain_fix`` does not call it but performs the
    # same fix in place. It is looked up rather than stored on the state: a
    # bound method kept in a slot is a reference cycle, so every finished
    # state would wait for the cyclic garbage collector instead of being
    # freed on return.

    @property
    def fix_edge(self):
        return self._fix_directed if self.directed else self._fix_undirected

    def _fix_undirected(self, e, comp):
        if self.assignment[e] != FREE:
            raise AlreadyFixedError(f"edge {e} already fixed")
        u = self.g.tails[e]
        v = self.g.head_port[e]
        deg = self.deg[comp]
        capacity = self.capacity
        if deg[u] == capacity or deg[v] == capacity:
            self.invalid = True
            return CONFLICT
        pend = self.pend[comp]
        eu = pend[u]
        ev = pend[v]
        if eu == v:
            # u and v are the two ends of one fixed path: this edge closes a cycle
            if self.counts[comp] + 1 < self.n:
                self.invalid = True
                return CLOSES_NON_HAM_CYCLE
            eu = ev = 0
            r = COMPLETES_COMPONENT
        else:
            pend[eu] = ev
            pend[ev] = eu
            r = OK
        self.assignment[e] = comp
        deg[u] += 1
        deg[v] += 1
        self.counts[comp] += 1
        self.trail.append(e)
        self.saved_a[e] = eu
        self.saved_b[e] = ev
        self.edges_fixed += 1
        return r

    _fix_directed = _fix_undirected

    # -- undo -----------------------------------------------------------

    def undo_to(self, mark: int):
        """Revert every fix after ``mark`` and clear the invalid flag."""
        trail = self.trail
        if mark < 0 or mark > len(trail):
            raise InvalidMarkError(f"mark {mark} outside trail of length {len(trail)}")
        tails = self.g.tails
        heads = self.g.head_port
        assignment = self.assignment
        saved_a = self.saved_a
        saved_b = self.saved_b
        counts = self.counts
        degs = self.deg
        pends = self.pend
        synced = self._synced
        if mark < synced:
            # the view counts vertices, so an arc's head is heads[e], not its in-port
            placed = self._placed
            vertex_heads = self.g.heads
            for e in trail[mark:synced]:
                placed[tails[e]] -= 1
                placed[vertex_heads[e]] -= 1
            self._synced = mark
        while len(trail) > mark:
            e = trail.pop()
            u = tails[e]
            v = heads[e]
            comp = assignment[e]
            assignment[e] = FREE
            deg = degs[comp]
            deg[u] -= 1
            deg[v] -= 1
            counts[comp] -= 1
            eu = saved_a[e]
            if eu:
                pend = pends[comp]
                pend[eu] = u
                pend[saved_b[e]] = v
        self.invalid = False

    # -- queries --------------------------------------------------------

    def is_complete(self) -> bool:
        """Both components hold n edges; with the degree and cycle guards that
        is equivalent to both being Hamiltonian cycles."""
        return not self.invalid and self.counts[Z] == self.n and self.counts[W] == self.n

    def extract_decomposition(self) -> tuple[HamCycle, HamCycle]:
        """The two completed cycles as canonical vertex sequences from vertex 1.

        Directed sequences follow arc orientation; undirected ones take the
        smaller neighbor of 1 as the second vertex.
        """
        if not self.is_complete():
            raise NotCompleteError("state is not a pair of complete Hamiltonian cycles")
        return self._extract(Z), self._extract(W)

    def _extract(self, comp):
        g = self.g
        tails = g.tails
        heads = g.heads
        ports = g.ports
        assignment = self.assignment
        # Each vertex's port holds two edges of the component when undirected,
        # and directed its one out-arc; the far end of e from v is
        # tails[e] + heads[e] - v.
        e = min((f for f in ports[1] if assignment[f] == comp), key=lambda f: tails[f] + heads[f])
        seq = [1]
        v = tails[e] + heads[e] - 1
        while v != 1:
            seq.append(v)
            for f in ports[v]:
                if f != e and assignment[f] == comp:
                    break
            e = f
            v = tails[e] + heads[e] - v
        return HamCycle(tuple(seq), g.mode)

    def differs_from_inputs(self, x_ms: Counter, y_ms: Counter) -> bool:
        """True iff component Z's edge multiset differs from both inputs,
        given as counts of endpoint pairs (``cycle_edge_multiset``).

        Checking Z alone suffices: W is the exact multiset complement of Z in
        the union, so Z = x forces W = y and vice versa.
        """
        if not self.is_complete():
            raise NotCompleteError("difference check needs a complete state")
        tails = self.g.tails
        heads = self.g.heads
        z_counts = Counter((tails[e], heads[e]) for e, c in enumerate(self.assignment) if c == Z)
        return z_counts != x_ms and z_counts != y_ms

    def differs_from_cycles(self) -> bool:
        """``differs_from_inputs`` for the cycles g was built from, by edge id.

        Z and both inputs are Hamiltonian cycles of n edges on distinct
        endpoint pairs, so Z equals x exactly when every y-edge (id >= n) in Z
        is a parallel copy of an x-edge, and equals y exactly when every
        x-edge in Z is a copy of a y-edge. Copies are rare, so each scan stops
        at the first edge without one, a few edges in.
        """
        if not self.is_complete():
            raise NotCompleteError("difference check needs a complete state")
        n = self.n
        return not self._z_only_copies(n, 2 * n) and not self._z_only_copies(0, n)

    def _z_only_copies(self, lo, hi):
        """True iff every edge with id in [lo, hi) fixed in Z has a parallel
        copy."""
        index = self.assignment.index
        g = self.g
        tails = g.tails
        heads = g.heads
        ports = g.ports
        e = lo
        try:
            while True:
                e = index(Z, e, hi)
                t = tails[e]
                h = heads[e]
                # a copy shares e's tail, so it sits at e's tail port
                for f in ports[t]:
                    if f != e and tails[f] == t and heads[f] == h:
                        break
                else:
                    return False
                e += 1
        except ValueError:
            return True


def chain_fix(state: PartialState, e: int, comp: int, g: UnionMultigraph) -> FixOutcome:
    """Fix a free edge and propagate all forced consequences.

    A port that a fix fills to capacity in one component sends its free edges
    to the other, breadth-first off a work queue. Returns the first failure
    encountered, with every fix performed so far left on the trail for the
    caller to undo. A pending forced fix that finds its edge already in the
    opposite component is a contradiction and reports CONFLICT. Work per
    cascade is linear: each edge is fixed at most once.

    Each forced fix is ``fix_edge`` written out in place, with the same checks
    in the same order, the same trail entry and the same saved ends, so the
    cascade pays no call per edge. One push step serves both modes: the free
    edges at each port the fix filled, the tail's port first. A directed fix
    fills both of its ports, and the one free arc left at each is its sibling,
    so a directed cascade stays on e's ring (see ``UnionMultigraph``); from a
    free ring's first x-arc it fixes what ``walk_ring``'s two passes fix.
    """
    assignment = state.assignment
    if assignment[e] != FREE:
        raise AlreadyFixedError(f"edge {e} already fixed")
    ports = g.ports
    tails = g.tails
    heads = g.head_port
    degs = state.deg
    pends = state.pend
    counts = state.counts
    push_trail = state.trail.append
    saved_a = state.saved_a
    saved_b = state.saved_b
    capacity = state.capacity
    n = state.n
    queue = [e, comp]  # pending fixes, flat: edge, component, edge, ...
    push = queue.append
    i = 0
    fixed = 0
    r = OK
    while i < len(queue):
        f = queue[i]
        c = queue[i + 1]
        i += 2
        a = assignment[f]
        if a == c:
            continue
        if a != FREE:
            r = CONFLICT
            break
        u = tails[f]
        v = heads[f]
        deg = degs[c]
        du = deg[u] + 1
        dv = deg[v] + 1
        if du > capacity or dv > capacity:
            r = CONFLICT
            break
        pend = pends[c]
        eu = pend[u]
        ev = pend[v]
        if eu == v:
            # u and v are the two ends of one fixed path: f closes a cycle
            cnt = counts[c] + 1
            if cnt < n:
                r = CLOSES_NON_HAM_CYCLE
                break
            counts[c] = cnt
            saved_a[f] = saved_b[f] = 0
            r = COMPLETES_COMPONENT
        else:
            counts[c] += 1
            saved_a[f] = eu
            saved_b[f] = ev
            pend[eu] = ev
            pend[ev] = eu
        push_trail(f)
        assignment[f] = c
        deg[u] = du
        deg[v] = dv
        fixed += 1
        o = 1 - c
        if du == capacity:
            for s in ports[u]:
                if assignment[s] == FREE:
                    push(s)
                    push(o)
        if dv == capacity:
            for s in ports[v]:
                if assignment[s] == FREE:
                    push(s)
                    push(o)
    state.edges_fixed += fixed
    if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
        state.invalid = True
    return r


def walk_ring(state: PartialState, ring: tuple, comp: int, g: UnionMultigraph) -> FixOutcome:
    """``chain_fix`` of a free ring's first x-arc ``ring[0]`` into comp.

    Each port a free ring touches holds two of its arcs and no other, so the
    cascade fixes the x-arcs ``ring[0::2]`` into comp and the y-arcs
    ``ring[1::2]`` into the other component. The two endpoint maps are
    disjoint and no outcome hangs on which arc goes first, so the walk fixes
    the x-arcs, then the y-arcs, with the cascade's cycle test and trail.
    """
    tails, heads = g.tails, g.head_port
    assignment, counts = state.assignment, state.counts
    saved_a, saved_b = state.saved_a, state.saved_b
    r = OK
    for c, arcs in ((comp, ring[0::2]), (1 - comp, ring[1::2])):
        pend, deg = state.pend[c], state.deg[c]
        for count, f in enumerate(arcs, counts[c] + 1):
            u = tails[f]
            v = heads[f]
            eu = pend[u]
            ev = pend[v]
            if eu == v:
                # u and v are the two ends of one fixed path: f closes a cycle
                if count < state.n:
                    arcs = arcs[:count - 1 - counts[c]]
                    r = CLOSES_NON_HAM_CYCLE
                    break
                saved_a[f] = saved_b[f] = 0
                r = COMPLETES_COMPONENT
            else:
                saved_a[f], saved_b[f] = eu, ev
                pend[eu], pend[ev] = ev, eu
            assignment[f] = c
            deg[u] = deg[v] = 1
        state.trail += arcs
        state.edges_fixed += len(arcs)
        counts[c] += len(arcs)
        if r is CLOSES_NON_HAM_CYCLE:
            state.invalid = True
            return r
    return r
