"""Shared scripted-search helpers and structured instance builders used by the
unit and acceptance tests."""

import random

from hamdecomp import FREE, HamCycle, Mode, PartialState, SolveLimits, W, Z, bcef
from hamdecomp.state import CLOSES_NON_HAM_CYCLE, CONFLICT
from invariants import check_invariants, snapshot


def solve_bcef_validated(g, x, y, limits=None):
    """``solve_bcef`` with full invariant scans after every cascade that does
    not fail: ``check_invariants`` and ``check_propagation_closure``, which
    raise AssertionError on a violation.

    The solver reaches its cascades through the module globals
    ``bcef.chain_fix`` (preprocessing, and undirected search) and
    ``bcef.walk_ring`` (directed search), so wrappers set on both see every
    cascade; the originals are restored on return.
    """
    originals = {name: getattr(bcef, name) for name in ("chain_fix", "walk_ring")}

    def checked(cascade):
        def run(state, *args):
            r = cascade(state, *args)
            if r is not CONFLICT and r is not CLOSES_NON_HAM_CYCLE:
                check_invariants(state)
                check_propagation_closure(state, state.g)
            return r
        return run

    for name, cascade in originals.items():
        setattr(bcef, name, checked(cascade))
    try:
        return bcef.solve_bcef(g, x, y, SolveLimits() if limits is None else limits)
    finally:
        for name, cascade in originals.items():
            setattr(bcef, name, cascade)


def check_propagation_closure(state, g):
    """Assert no forced assignment was left behind by a cascade: no port at
    capacity in a component still holds a free edge."""
    assignment = state.assignment
    for comp in (Z, W):
        deg = state.deg[comp]
        for p, edges in enumerate(g.ports):
            if deg[p] == state.capacity:
                for e in edges:
                    assert assignment[e] != FREE, (
                        f"port {p}: at capacity in component {comp} with a free edge"
                    )


def scripted_roundtrip(g, seed, steps=60):
    """Random fix/undo script; after every undo the state must equal a fresh
    replay of the surviving trail prefix. Returns the number of comparisons."""
    rng = random.Random(seed)
    state = PartialState(g)
    comparisons = 0
    for _ in range(steps):
        free_edges = [e for e in range(g.num_edges) if state.assignment[e] == FREE]
        do_undo = not free_edges or rng.random() < 0.3
        if do_undo:
            mark = rng.randint(0, len(state.trail))
            state.undo_to(mark)
            _assert_equals_replay(g, state)
            comparisons += 1
            continue
        e = rng.choice(free_edges)
        comp = rng.choice((Z, W))
        outcome = state.fix_edge(e, comp)
        if outcome in (CLOSES_NON_HAM_CYCLE, CONFLICT):
            # a failed fix leaves the state invalid until an undo
            state.undo_to(len(state.trail))
            _assert_equals_replay(g, state)
            comparisons += 1
    state.undo_to(0)
    _assert_equals_replay(g, state)
    return comparisons + 1


def _assert_equals_replay(g, state):
    fresh = PartialState(g)
    for e in state.trail:
        fresh.fix_edge(e, state.assignment[e])
    assert snapshot(fresh) == snapshot(state)


def double_bridge_pair(n, k, seed, mode=Mode.DIRECTED):
    """db(n, k): a random n-cycle x and the cycle y made from x by k random
    double-bridge moves, each cutting the vertex sequence into A B C D and
    joining it as A C B D. At k = n/4 a directed union has dozens of
    nontrivial rings."""
    rng = random.Random(seed)
    x = list(range(1, n + 1))
    rng.shuffle(x)
    y = x[:]
    for _ in range(k):
        i, j, m = sorted(rng.sample(range(1, n), 3))
        y = y[:i] + y[j:m] + y[i:j] + y[m:]
    return HamCycle(x, mode), HamCycle(y, mode)


def two_opt_pair(n, k, seed, mode=Mode.DIRECTED):
    """2opt(n, k): a random n-cycle x and the cycle y made from x by k random
    segment reversals ``y[i:j] = y[i:j][::-1]``, with i < j drawn from 1..n."""
    rng = random.Random(seed)
    x = list(range(1, n + 1))
    rng.shuffle(x)
    y = x[:]
    for _ in range(k):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        y[i:j] = y[i:j][::-1]
    return HamCycle(x, mode), HamCycle(y, mode)


def kernel(x, y):
    """The pair with every vertex that x and y pass the same way dropped:
    one whose x-neighbours equal its y-neighbours, as a set when undirected
    and as (predecessor, successor) when directed. Its four union edges are
    two parallel pairs, and every decomposition splits each pair, so both
    cycles run through it the same way and dropping it from both sequences
    keeps the census. The rest are renumbered 1.. by sorted label. None when
    fewer than 3 vertices remain, that is when x = y."""
    directed = x.mode is Mode.DIRECTED

    def neighbours(c):
        seq = c.vertices
        pairs = zip(seq[-1:] + seq[:-1], seq, seq[1:] + seq[:1])
        return {v: (p, s) if directed else frozenset((p, s)) for p, v, s in pairs}

    nx, ny = neighbours(x), neighbours(y)
    kept = sorted(v for v in nx if nx[v] != ny[v])
    if len(kept) < 3:
        return None
    label = {v: i for i, v in enumerate(kept, 1)}
    return tuple(HamCycle([label[v] for v in c.vertices if v in label], c.mode) for c in (x, y))
