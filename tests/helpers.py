"""Shared scripted-search helpers used by the unit and acceptance tests."""

import random

from hamdecomp import FREE, PartialState, SolveLimits, W, Z, bcef
from hamdecomp.state import CLOSES_NON_HAM_CYCLE, CONFLICT


def solve_bcef_validated(g, x, y, limits=None):
    """``solve_bcef`` with full invariant scans after every cascade that does
    not fail: ``PartialState.check_invariants`` and
    ``bcef.check_propagation_closure``, which raise AssertionError on a
    violation.

    ``preprocess_parallel`` and the search's moves both reach the cascade
    through the module global ``bcef.chain_fix``, so a wrapper set there sees
    every cascade; the original is restored on return.
    """
    cascade = bcef.chain_fix

    def checked(state, e, comp, g):
        r = cascade(state, e, comp, g)
        if r is not CONFLICT and r is not CLOSES_NON_HAM_CYCLE:
            state.check_invariants()
            bcef.check_propagation_closure(state, g)
        return r

    bcef.chain_fix = checked
    try:
        return bcef.solve_bcef(g, x, y, SolveLimits() if limits is None else limits)
    finally:
        bcef.chain_fix = cascade


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
