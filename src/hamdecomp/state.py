"""Mutable search state shared by both solvers.

Edges are assigned to one of two components (Z or W) one at a time. The state
keeps per-vertex degree counters and, per component, a pairing of the two ends
of every maximal fixed path. Joining the two ends of the same path is the only
way a fixed component can close a cycle, so cycle detection is O(1) per fix.
Every successful fix pushes one trail entry carrying the overwritten endpoint
map keys, which makes undo exact without any recomputation.

Both solvers also share the search itself: ``solve`` sets up a run and
``backtrack`` is the one depth-first driver, to which a solver supplies only
its moves.
"""

from __future__ import annotations

import enum
import time
from collections import Counter
from dataclasses import dataclass

from .errors import AlreadyFixedError, InvalidMarkError, MismatchedInstancesError, NotCompleteError
from .multigraph import EdgeMultiset, HamCycle, Mode, UnionMultigraph, cycle_edge_multiset
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
    """Node counter plus a wall clock read only every 1024 nodes."""

    __slots__ = ("node_budget", "deadline", "nodes")

    def __init__(self, limits: SolveLimits):
        self.node_budget = limits.node_budget
        self.deadline = time.monotonic() + limits.time_budget if limits.time_budget else None
        self.nodes = 0

    def charge_node(self):
        self.nodes += 1
        if self.node_budget and self.nodes > self.node_budget:
            raise BudgetExceeded
        if self.deadline is not None and not (self.nodes & 1023):
            if time.monotonic() > self.deadline:
                raise BudgetExceeded


def solve(g: UnionMultigraph, x: HamCycle, y: HamCycle, limits: SolveLimits,
          moves) -> SolveResult:
    """Decide whether the union of x and y has a second decomposition.

    ``moves(state)`` returns one solver's ``(start, expand, take, refute)``
    for a fresh state on g; ``backtrack`` describes them.
    """
    if x.n != y.n or x.mode is not y.mode:
        raise MismatchedInstancesError(
            f"cycles disagree: n={x.n}/{y.n}, mode={x.mode.value}/{y.mode.value}"
        )
    if g.n != x.n or g.mode is not x.mode:
        raise MismatchedInstancesError(
            f"graph does not match cycles: n={g.n}/{x.n}, mode={g.mode.value}/{x.mode.value}"
        )
    state = PartialState(g)
    x_ms = cycle_edge_multiset(x)
    y_ms = cycle_edge_multiset(y)
    clock = BudgetClock(limits)
    stats = SolveStats()
    began = time.perf_counter()

    def accepted():
        return state.differs_from_inputs(x_ms, y_ms)

    try:
        witness = backtrack(state, clock, stats, accepted, *moves(state))
        status = SolveStatus.DECOMPOSED if witness else SolveStatus.NONE_EXISTS
    except BudgetExceeded:
        witness = None
        status = SolveStatus.TIMED_OUT
    stats.nodes = clock.nodes
    stats.edges_fixed = state.edges_fixed
    stats.elapsed_ms = int((time.perf_counter() - began) * 1000)
    if witness:
        return SolveResult(status, witness[0], witness[1], stats)
    return SolveResult(status, stats=stats)


def backtrack(state, clock, stats, accepted, start, expand, take, refute):
    """Depth-first search over one solver's moves; the first accepted
    decomposition, or None once the search space is exhausted.

    The root costs one node, charged before ``start()`` makes the branch-free
    root moves. Each further node is charged as it opens; ``expand()`` then
    returns its ordered candidate edges, or None for a leaf. ``take(e)``
    makes candidate e's move: OK opens a child node, COMPLETES_COMPONENT has
    the state judged as it stands, and a failure rejects the move. Once a
    move or its subtree fails, the state is undone to the mark taken before
    the move and ``refute(e)``, if given, commits the alternative; the node
    closes when that fails or completes a state that is not accepted.
    Complete states are judged by ``accepted()``. Raises BudgetExceeded when
    the clock runs out.
    """
    is_complete = state.is_complete
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
                if refute is not None:
                    r = refute(cands[idx - 1])
                    if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                        frames.pop()
                        continue
                    if is_complete():
                        if accepted():
                            return state.extract_decomposition()
                        frames.pop()
                        continue
                failed = False
            n = len(cands)
            while idx < n:
                e = cands[idx]
                idx += 1
                mark = len(trail)
                r = take(e)
                if r is OK:
                    break
                if r is COMPLETES_COMPONENT and is_complete() and accepted():
                    return state.extract_decomposition()
                if refute is not None:
                    failed = True  # refuted at the top of the loop
                    break
                undo_to(mark)
            else:
                # every candidate failed, so the node does
                frames.pop()
                failed = True
                continue
            frame[1] = idx
            frame[2] = mark
            if not failed:
                break  # open the child node take(e) made
        else:
            return None


class PartialState:
    """Edge assignments for one solver run; never shared between runs.

    Public attributes read by the solvers:
      assignment  -- per-edge component, FREE when unassigned
      counts      -- fixed-edge totals per component
      trail       -- fix log; its length is the undo mark space
      edges_fixed -- monotone total of successful fixes (survives undo)
      placed      -- undirected: edges fixed at each vertex, both components
                     together; slot 0, no vertex, holds 4 so it reads as
                     saturated (None when directed)
    """

    __slots__ = (
        "g", "n", "directed", "assignment", "counts", "trail", "invalid",
        "edges_fixed", "deg", "pend", "placed", "odeg", "ideg", "fwd", "bwd", "fix_edge",
    )

    def __init__(self, g: UnionMultigraph):
        self.g = g
        self.n = g.n
        self.directed = g.mode is Mode.DIRECTED
        self.assignment = [FREE] * g.num_edges
        self.counts = [0, 0]
        self.trail = []
        self.invalid = False
        self.edges_fixed = 0
        size = g.n + 1
        if self.directed:
            self.odeg = ([0] * size, [0] * size)
            self.ideg = ([0] * size, [0] * size)
            self.fwd = (list(range(size)), list(range(size)))
            self.bwd = (list(range(size)), list(range(size)))
            self.deg = None
            self.pend = None
            self.placed = None
            self.fix_edge = self._fix_directed
        else:
            self.deg = ([0] * size, [0] * size)
            self.pend = (list(range(size)), list(range(size)))
            self.placed = [0] * size
            self.placed[0] = 4
            self.odeg = self.ideg = None
            self.fwd = self.bwd = None
            self.fix_edge = self._fix_undirected

    # -- fixing ---------------------------------------------------------
    #
    # fix_edge(e, comp) -> FixOutcome assigns a free edge to a component.
    # Failing outcomes (CONFLICT, CLOSES_NON_HAM_CYCLE) leave the state
    # unchanged but flagged invalid until the caller undoes to a mark.
    # Bound per mode at construction to keep the hot path dispatch-free.

    def _fix_undirected(self, e, comp):
        if self.assignment[e] != FREE:
            raise AlreadyFixedError(f"edge {e} already fixed")
        u = self.g.tails[e]
        v = self.g.heads[e]
        deg = self.deg[comp]
        if deg[u] == 2 or deg[v] == 2:
            self.invalid = True
            return CONFLICT
        pend = self.pend[comp]
        eu = pend[u]
        ev = pend[v]
        if eu == v:
            # u and v are the two ends of one fixed path: this edge closes a cycle
            cnt = self.counts[comp] + 1
            if cnt < self.n:
                self.invalid = True
                return CLOSES_NON_HAM_CYCLE
            self.assignment[e] = comp
            deg[u] += 1
            deg[v] += 1
            placed = self.placed
            placed[u] += 1
            placed[v] += 1
            self.counts[comp] = cnt
            self.trail.append((e, comp, 0, 0))
            self.edges_fixed += 1
            return COMPLETES_COMPONENT
        self.assignment[e] = comp
        deg[u] += 1
        deg[v] += 1
        placed = self.placed
        placed[u] += 1
        placed[v] += 1
        self.counts[comp] += 1
        self.trail.append((e, comp, eu, ev))
        pend[eu] = ev
        pend[ev] = eu
        self.edges_fixed += 1
        return OK

    def _fix_directed(self, e, comp):
        if self.assignment[e] != FREE:
            raise AlreadyFixedError(f"edge {e} already fixed")
        u = self.g.tails[e]
        v = self.g.heads[e]
        odeg = self.odeg[comp]
        ideg = self.ideg[comp]
        if odeg[u] or ideg[v]:
            self.invalid = True
            return CONFLICT
        fwd = self.fwd[comp]
        bwd = self.bwd[comp]
        t = fwd[v]  # head end of the path starting at v
        s = bwd[u]  # tail end of the path ending at u
        if t == u:
            cnt = self.counts[comp] + 1
            if cnt < self.n:
                self.invalid = True
                return CLOSES_NON_HAM_CYCLE
            self.assignment[e] = comp
            odeg[u] = 1
            ideg[v] = 1
            self.counts[comp] = cnt
            self.trail.append((e, comp, 0, 0))
            self.edges_fixed += 1
            return COMPLETES_COMPONENT
        self.assignment[e] = comp
        odeg[u] = 1
        ideg[v] = 1
        self.counts[comp] += 1
        self.trail.append((e, comp, s, t))
        fwd[s] = t
        bwd[t] = s
        self.edges_fixed += 1
        return OK

    # -- undo -----------------------------------------------------------

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int):
        """Revert every fix after ``mark`` and clear the invalid flag."""
        trail = self.trail
        if mark < 0 or mark > len(trail):
            raise InvalidMarkError(f"mark {mark} outside trail of length {len(trail)}")
        tails = self.g.tails
        heads = self.g.heads
        if self.directed:
            while len(trail) > mark:
                e, comp, s, t = trail.pop()
                u = tails[e]
                v = heads[e]
                self.assignment[e] = FREE
                self.odeg[comp][u] = 0
                self.ideg[comp][v] = 0
                self.counts[comp] -= 1
                if s:
                    self.fwd[comp][s] = u
                    self.bwd[comp][t] = v
        else:
            placed = self.placed
            while len(trail) > mark:
                e, comp, eu, ev = trail.pop()
                u = tails[e]
                v = heads[e]
                self.assignment[e] = FREE
                deg = self.deg[comp]
                deg[u] -= 1
                deg[v] -= 1
                placed[u] -= 1
                placed[v] -= 1
                self.counts[comp] -= 1
                if eu:
                    pend = self.pend[comp]
                    pend[eu] = u
                    pend[ev] = v
        self.invalid = False

    # -- queries --------------------------------------------------------

    def free_degree(self, v: int) -> int:
        """Incident edges of v still free (directed: free out- plus in-arcs)."""
        if self.directed:
            return self.free_out_degree(v) + self.free_in_degree(v)
        return 4 - self.placed[v]

    def free_out_degree(self, v: int) -> int:
        return 2 - self.odeg[Z][v] - self.odeg[W][v]

    def free_in_degree(self, v: int) -> int:
        return 2 - self.ideg[Z][v] - self.ideg[W][v]

    def is_complete(self) -> bool:
        """Both components hold n edges; with the degree and cycle guards that
        is equivalent to both being Hamiltonian cycles."""
        return not self.invalid and self.counts[Z] == self.n and self.counts[W] == self.n

    def component_pairs(self, comp: int):
        tails = self.g.tails
        heads = self.g.heads
        return [
            (tails[e], heads[e])
            for e in range(self.g.num_edges)
            if self.assignment[e] == comp
        ]

    def extract_decomposition(self) -> tuple[HamCycle, HamCycle]:
        """The two completed cycles as canonical vertex sequences from vertex 1.

        Directed sequences follow arc orientation; undirected ones take the
        smaller neighbor of 1 as the second vertex.
        """
        if not self.is_complete():
            raise NotCompleteError("state is not a pair of complete Hamiltonian cycles")
        return self._extract(Z), self._extract(W)

    def _extract(self, comp):
        n = self.n
        if self.directed:
            nxt = [0] * (n + 1)
            for e in range(self.g.num_edges):
                if self.assignment[e] == comp:
                    nxt[self.g.tails[e]] = self.g.heads[e]
            seq = [1]
            v = nxt[1]
            while v != 1:
                seq.append(v)
                v = nxt[v]
            return HamCycle(tuple(seq), Mode.DIRECTED)
        adj = [[] for _ in range(n + 1)]
        for u, v in self.component_pairs(comp):
            adj[u].append(v)
            adj[v].append(u)
        seq = [1, min(adj[1])]
        prev, cur = 1, seq[1]
        while True:
            a, b = adj[cur]
            nxt = b if a == prev else a
            if nxt == 1:
                break
            seq.append(nxt)
            prev, cur = cur, nxt
        return HamCycle(tuple(seq), Mode.UNDIRECTED)

    def differs_from_inputs(self, x_ms: EdgeMultiset, y_ms: EdgeMultiset) -> bool:
        """True iff component Z's edge multiset differs from both inputs.

        Checking Z alone suffices: W is the exact multiset complement of Z in
        the union, so Z = x forces W = y and vice versa.
        """
        if not self.is_complete():
            raise NotCompleteError("difference check needs a complete state")
        z_counts = Counter(self.component_pairs(Z))
        return z_counts != x_ms.counts and z_counts != y_ms.counts

    # -- debug ----------------------------------------------------------

    def check_invariants(self):
        """Full-scan consistency check; raises AssertionError on any violation.

        Intended for debug runs and tests, not the hot path.
        """
        n = self.n
        g = self.g
        assert len(self.trail) == self.counts[Z] + self.counts[W], "trail length mismatch"
        for comp in (Z, W):
            pairs = self.component_pairs(comp)
            assert len(pairs) == self.counts[comp], "count mismatch"
            if self.directed:
                odeg = [0] * (n + 1)
                ideg = [0] * (n + 1)
                for u, v in pairs:
                    odeg[u] += 1
                    ideg[v] += 1
                assert odeg == list(self.odeg[comp]), "out-degree counters drifted"
                assert ideg == list(self.ideg[comp]), "in-degree counters drifted"
                assert max(odeg) <= 1 and max(ideg) <= 1, "degree bound violated"
            else:
                deg = [0] * (n + 1)
                for u, v in pairs:
                    deg[u] += 1
                    deg[v] += 1
                assert deg == list(self.deg[comp]), "degree counters drifted"
                assert max(deg) <= 2, "degree bound violated"
            self._check_structure(comp, pairs)
        if not self.directed:
            degz, degw = self.deg
            assert self.placed == [4] + [degz[v] + degw[v] for v in range(1, n + 1)], (
                "placed-edge counters drifted"
            )

    def _check_structure(self, comp, pairs):
        # The fixed subgraph must be vertex-disjoint simple paths, or one
        # Hamiltonian cycle on all n vertices; endpoint maps must agree.
        n = self.n
        if self.directed:
            self._check_structure_directed(comp, pairs)
            return
        deg = self.deg[comp]
        pend = self.pend[comp]
        adj = [[] for _ in range(n + 1)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * (n + 1)
        for s in range(1, n + 1):
            if deg[s] != 1 or seen[s]:
                continue
            prev, cur = 0, s
            while True:
                assert not seen[cur], f"component {comp} path revisits vertex {cur}"
                seen[cur] = True
                options = [w for w in adj[cur] if w != prev]
                if not options:
                    break
                prev, cur = cur, options[0]
            assert pend[s] == cur and pend[cur] == s, "endpoint map stale at a path end"
        for s in range(1, n + 1):
            if deg[s] != 2 or seen[s]:
                continue
            length = 0
            prev, cur = 0, s
            while True:
                seen[cur] = True
                length += 1
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
                if cur == s:
                    break
            assert length == n and len(pairs) == n, f"component {comp} holds a short cycle"
        for v in range(1, n + 1):
            if deg[v] == 0:
                assert pend[v] == v, "trivial path endpoint drifted"

    def _check_structure_directed(self, comp, pairs):
        n = self.n
        odeg = self.odeg[comp]
        ideg = self.ideg[comp]
        nxt = [0] * (n + 1)
        for u, v in pairs:
            nxt[u] = v
        seen = [False] * (n + 1)
        for s in range(1, n + 1):
            if not (odeg[s] == 1 and ideg[s] == 0):
                continue
            # s starts a maximal path
            cur = s
            while True:
                assert not seen[cur], f"component {comp} path revisits vertex {cur}"
                seen[cur] = True
                if not odeg[cur]:
                    break
                cur = nxt[cur]
            assert self.fwd[comp][s] == cur, "forward endpoint map stale"
            assert self.bwd[comp][cur] == s, "backward endpoint map stale"
        for s in range(1, n + 1):
            if not odeg[s] or seen[s]:
                continue
            length = 0
            cur = s
            while True:
                seen[cur] = True
                length += 1
                cur = nxt[cur]
                if cur == s:
                    break
            assert length == n and len(pairs) == n, f"component {comp} holds a short cycle"
        for v in range(1, n + 1):
            if not odeg[v] and not ideg[v]:
                assert self.fwd[comp][v] == v and self.bwd[comp][v] == v, (
                    "isolated-vertex endpoint entries drifted"
                )

    def snapshot(self):
        """Deep copy of all mutable search fields, for replay comparisons."""
        data = {
            "assignment": tuple(self.assignment),
            "counts": tuple(self.counts),
            "trail": tuple(self.trail),
            "invalid": self.invalid,
        }
        if self.directed:
            data["odeg"] = tuple(tuple(a) for a in self.odeg)
            data["ideg"] = tuple(tuple(a) for a in self.ideg)
            data["fwd"] = tuple(tuple(a) for a in self.fwd)
            data["bwd"] = tuple(tuple(a) for a in self.bwd)
        else:
            data["deg"] = tuple(tuple(a) for a in self.deg)
            data["pend"] = tuple(tuple(a) for a in self.pend)
            data["placed"] = tuple(self.placed)
        return data
