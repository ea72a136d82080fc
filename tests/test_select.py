"""Undirected branch-vertex selection against the full scan it replaced.

``select_branch_edge`` finds the undirected branch vertex from the
placed-edge counts that ``fix_edge`` and ``undo_to`` keep; ``_reference_select``
is the loop over every vertex it replaced. Both must make the same choice at
every state a chain-fixing search can reach, and at the open states a single
fix leaves between cascades.
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
    for e in g.inc[best]:
        if assignment[e] == FREE:
            k = heads[e] if tails[e] == best else tails[e]
            cands.append((4 - degz[k] - degw[k], k, e))
    cands.sort()
    return best, [e for _, _, e in cands]


@settings(max_examples=60, deadline=None)
@given(cycle_pairs(min_n=4, max_n=12, mode=Mode.UNDIRECTED), st.integers(0, 2**32))
def test_selection_matches_full_scan(pair, seed):
    x, y = pair
    g = build_union(x, y)
    rng = random.Random(seed)
    state = PartialState(g)
    marks = [0]  # trail lengths of the states on the current path
    assert select_branch_edge(state, g) == _reference_select(state, g)
    for _ in range(4 * g.n):
        free = [e for e in range(g.num_edges) if state.assignment[e] == FREE]
        if free and rng.random() < 0.75:
            e, comp = rng.choice(free), rng.choice((Z, W))
            # mostly cascades, which leave closed states as the search does;
            # a single fix can leave a vertex with three placed edges
            if rng.random() < 0.8:
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
        assert select_branch_edge(state, g) == _reference_select(state, g)


@pytest.mark.parametrize("y", [(1, 2, 3, 4, 5), (1, 3, 5, 2, 4)], ids=["doubled", "pentagram"])
def test_selection_none_when_every_vertex_saturated(y):
    g = build_union(HamCycle((1, 2, 3, 4, 5), Mode.UNDIRECTED), HamCycle(y, Mode.UNDIRECTED))
    state = PartialState(g)
    for e in range(g.num_edges):
        state.fix_edge(e, Z if e < g.n else W)
    assert state.is_complete()
    assert _reference_select(state, g) is None
    assert select_branch_edge(state, g) is None
