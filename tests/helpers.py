"""Shared scripted-search helpers used by the unit and acceptance tests."""

import random

from hamdecomp import FREE, PartialState, W, Z
from hamdecomp.state import CLOSES_NON_HAM_CYCLE, CONFLICT


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
    assert fresh.snapshot() == state.snapshot()
