"""Referees of the search engine that no solve runs: full-scan consistency
checks and replay snapshots of a ``PartialState``, and the deterministic
counters of a solve.

Each reads the state only through its public fields, the way ``verify.py``
referees a witness without the solvers' search state.
"""

from hamdecomp import FREE, W, Z


def counters(stats):
    """A ``SolveStats`` without its wall-clock time; equal across reruns."""
    return (stats.nodes, stats.edges_fixed, stats.max_depth)


def component_pairs(state, comp):
    """The endpoint pairs of the edges fixed in comp, by edge id."""
    g = state.g
    return [(g.tails[e], g.heads[e]) for e, c in enumerate(state.assignment) if c == comp]


def check_invariants(state):
    """Full-scan consistency check; raises AssertionError on any violation."""
    g = state.g
    assert len(state.trail) == state.counts[Z] + state.counts[W], "trail length mismatch"
    assert sorted(state.trail) == [e for e in range(g.num_edges) if state.assignment[e] != FREE], (
        "trail does not hold the fixed edges"
    )
    for comp in (Z, W):
        edges = [e for e in range(g.num_edges) if state.assignment[e] == comp]
        assert len(edges) == state.counts[comp], "count mismatch"
        deg = [0] * len(g.ports)
        for e in edges:
            deg[g.tails[e]] += 1
            deg[g.head_port[e]] += 1
        assert deg == state.deg[comp], "degree counters drifted"
        assert max(deg) <= state.capacity, "degree bound violated"
        _check_structure(state, comp, component_pairs(state, comp))
    placed = [4] + [0] * state.n
    for e in state.trail:
        placed[g.tails[e]] += 1
        placed[g.heads[e]] += 1
    assert list(state.placed) == placed, "placed-edge counters drifted"


def _check_structure(state, comp, pairs):
    # The fixed subgraph must be vertex-disjoint simple paths, or one
    # Hamiltonian cycle on all n vertices. The degree bound makes every
    # directed path consistently oriented, so paths are walked as
    # undirected; the open ports at a path's two ends must be paired in
    # pend.
    n = state.n
    deg = state.deg[comp]
    pend = state.pend[comp]
    in_port = n if state.directed else 0  # vertex v's in-port is v + in_port
    adj = [[] for _ in range(n + 1)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * (n + 1)
    for s in range(1, n + 1):
        if len(adj[s]) > 1 or seen[s]:
            continue
        prev, cur = 0, s
        while True:
            assert not seen[cur], f"component {comp} path revisits vertex {cur}"
            seen[cur] = True
            options = [w for w in adj[cur] if w != prev]
            if not options:
                break
            prev, cur = cur, options[0]
        ends = sorted({p for x in (s, cur) for p in (x, x + in_port)
                       if deg[p] < state.capacity})
        a, b = ends[0], ends[-1]
        assert pend[a] == b and pend[b] == a, "endpoint map stale at a path end"
    for s in range(1, n + 1):
        if seen[s]:
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


def snapshot(state):
    """Deep copy of all mutable search fields, for replay comparisons; the
    trail as (edge, component, a, b) entries, see ``PartialState.saved_a``."""
    snap = {
        name: _frozen(getattr(state, name))
        for name in ("assignment", "counts", "invalid", "deg", "pend", "placed")
    }
    snap["trail"] = tuple(
        (e, state.assignment[e], state.saved_a[e], state.saved_b[e]) for e in state.trail
    )
    return snap


def _frozen(value):
    """A list, or nested lists and tuples of them, as nested tuples; a
    bytearray as bytes."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    if isinstance(value, bytearray):
        return bytes(value)
    return value
