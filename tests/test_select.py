"""Branch-vertex selection against the full scans it replaced.

``select_branch_edge`` finds the branch vertex in both modes from the
weighted counts of fixed edge ends in ``state.placed``, a view synced from
the trail when read. ``_reference_select`` is the undirected loop over every
vertex it replaced, and ``_reference_select_directed`` the directed one. The
undirected rule must make the same choice at every state a chain-fixing
search can reach, and at the open states a single fix leaves between
cascades. The directed rule is defined only on closed states, where every
port holds 0 or 2 fixed arcs, so its walk makes cascades only.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdecomp import FREE, HamCycle, Mode, PartialState, W, Z, build_union, chain_fix, select_branch_edge
from hamdecomp.state import CLOSES_NON_HAM_CYCLE, CONFLICT
from strategies import cycle_pairs


def _reference_select(state, g):
    """Minimum nonzero free degree by a scan over all vertices, ties to the
    lowest vertex; candidates ascend by the neighbor's free degree."""
    n = g.n
    assignment = state.assignment
    degz, degw = state.deg[Z], state.deg[W]
    best = 0
    best_free = 5
    for v in range(1, n + 1):
        free = 4 - degz[v] - degw[v]
        if 0 < free < best_free:
            best = v
            best_free = free
    if not best:
        return None
    tails = g.tails
    heads = g.heads
    cands = []
    for e in g.ports[best]:
        if assignment[e] == FREE:
            k = heads[e] if tails[e] == best else tails[e]
            cands.append((4 - degz[k] - degw[k], k, e))
    cands.sort()
    return best, [e for _, _, e in cands]


def _reference_select_directed(state, g):
    """The vertex with free out-arcs whose incident fixed-arc count is
    maximal, ties to the lowest vertex; candidates ascend by head vertex."""
    n = g.n
    assignment = state.assignment
    degz, degw = state.deg
    idegz = degz[n:]  # in-port counts: index v is port n + v
    idegw = degw[n:]
    best = 0
    best_fixed = -1
    for v in range(1, n + 1):
        fixed = degz[v] + degw[v]  # at the out-port
        if fixed == 2:
            continue
        fixed += idegz[v] + idegw[v]
        if fixed > best_fixed:
            best = v
            best_fixed = fixed
    if not best:
        return None
    cands = sorted(
        (g.heads[e], e) for e in g.ports[best] if assignment[e] == FREE
    )
    return best, [e for _, e in cands]


@settings(max_examples=60, deadline=None)
@given(cycle_pairs(min_n=4, max_n=12, mode=Mode.UNDIRECTED), st.integers(0, 2**32))
def test_selection_matches_full_scan(pair, seed):
    _compare_along_a_walk(pair, seed, _reference_select, lone_fixes=True)


@settings(max_examples=60, deadline=None)
@given(cycle_pairs(min_n=4, max_n=12, mode=Mode.DIRECTED), st.integers(0, 2**32))
def test_directed_selection_matches_full_scan(pair, seed):
    _compare_along_a_walk(pair, seed, _reference_select_directed, lone_fixes=False)


def _compare_along_a_walk(pair, seed, reference, lone_fixes):
    """Compare with ``reference`` at every state of a random walk of fixes
    and undos; ``lone_fixes`` mixes single fixes in among the cascades."""
    x, y = pair
    g = build_union(x, y)
    rng = random.Random(seed)
    state = PartialState(g)
    marks = [0]  # trail lengths of the states on the current path
    assert select_branch_edge(state, g) == reference(state, g)
    for _ in range(4 * g.n):
        free = [e for e in range(g.num_edges) if state.assignment[e] == FREE]
        if free and rng.random() < 0.75:
            e, comp = rng.choice(free), rng.choice((Z, W))
            # mostly cascades, which leave closed states as the search does;
            # a single fix can leave a vertex with three placed edges
            if not lone_fixes or rng.random() < 0.8:
                r = chain_fix(state, e, comp, g)
            else:
                r = state.fix_edge(e, comp)
            if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                state.undo_to(marks[-1])
            else:
                marks.append(len(state.trail))
        else:
            keep = rng.randrange(len(marks))
            state.undo_to(marks[keep])
            del marks[keep + 1:]
        assert select_branch_edge(state, g) == reference(state, g)


@pytest.mark.parametrize("y", [(1, 2, 3, 4, 5), (1, 3, 5, 2, 4)], ids=["doubled", "pentagram"])
def test_selection_none_when_every_vertex_saturated(y):
    g = build_union(HamCycle((1, 2, 3, 4, 5), Mode.UNDIRECTED), HamCycle(y, Mode.UNDIRECTED))
    state = PartialState(g)
    for e in range(g.num_edges):
        state.fix_edge(e, Z if e < g.n else W)
    assert state.is_complete()
    assert _reference_select(state, g) is None
    assert select_branch_edge(state, g) is None
