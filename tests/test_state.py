import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdecomp import (
    AlreadyFixedError,
    HamCycle,
    InvalidMarkError,
    Mode,
    NotCompleteError,
    PartialState,
    SolveLimits,
    W,
    Z,
    build_union,
    cycle_edge_multiset,
)
from hamdecomp.state import (
    CLOSES_NON_HAM_CYCLE,
    COMPLETES_COMPONENT,
    CONFLICT,
    FREE,
    OK,
)
from helpers import scripted_roundtrip
from strategies import cycle_pairs


def edge_id(g, u, v):
    """The lowest edge id with the given endpoints (normalized per mode)."""
    if g.mode is Mode.UNDIRECTED and u > v:
        u, v = v, u
    for e in range(g.num_edges):
        if g.tails[e] == u and g.heads[e] == v:
            return e
    raise AssertionError(f"no edge {u},{v}")


@pytest.fixture
def partial_state(feasible6_union):
    """The worked mid-search position: z holds the path 2-3-5-6, w holds
    the other (2,3) copy plus 3-4, 4-5, 5-1."""
    g = feasible6_union
    state = PartialState(g)
    for u, v in ((2, 3), (3, 5), (5, 6)):
        assert state.fix_edge(edge_id(g, u, v), Z) is OK
    assert state.fix_edge(9, W) is OK  # the second (2,3) copy
    for u, v in ((3, 4), (4, 5), (5, 1)):
        assert state.fix_edge(edge_id(g, u, v), W) is OK
    return state


def test_extension_closing_short_cycle_in_z(partial_state, feasible6_union):
    # continuing 2-3-5-6 with (6,2) would close the 4-cycle 2-3-5-6
    out = partial_state.fix_edge(edge_id(feasible6_union, 6, 2), Z)
    assert out is CLOSES_NON_HAM_CYCLE
    assert partial_state.invalid


def test_extension_overloading_w(partial_state, feasible6_union):
    g = feasible6_union
    assert partial_state.fix_edge(edge_id(g, 6, 1), Z) is OK
    assert partial_state.fix_edge(edge_id(g, 6, 2), W) is OK
    # w already holds 3-4 and 4-5, so (6,4) cannot join it; the engine
    # reports the degree overload rather than the resulting 2-3-4-6 cycle
    out = partial_state.fix_edge(edge_id(g, 6, 4), W)
    assert out is CONFLICT
    assert partial_state.invalid


def test_free_degree_in_partial_state(partial_state):
    # edges (6,1), (6,2), (6,4) are still free at vertex 6
    assert partial_state.free_degree(6) == 3


def test_free_degrees_on_empty_states(feasible6_union, rigid6_union):
    undirected = PartialState(feasible6_union)
    assert all(undirected.free_degree(v) == 4 for v in range(1, 7))
    directed = PartialState(rigid6_union)
    assert all(directed.free_out_degree(v) == 2 for v in range(1, 7))
    assert all(directed.free_in_degree(v) == 2 for v in range(1, 7))


def test_single_edge_fix_is_ok(feasible6_union):
    state = PartialState(feasible6_union)
    assert state.fix_edge(0, Z) is OK
    assert state.counts == [1, 0]


def test_refixing_raises(feasible6_union):
    state = PartialState(feasible6_union)
    state.fix_edge(0, Z)
    with pytest.raises(AlreadyFixedError):
        state.fix_edge(0, W)


def test_undo_to_mark(feasible6_union):
    state = PartialState(feasible6_union)
    for e in (0, 2, 4):
        state.fix_edge(e, Z)
    state.undo_to(1)
    assert state.counts[Z] + state.counts[W] == 1
    assert state.assignment[0] == Z
    assert state.assignment[2] == FREE


def test_undo_to_current_length_is_noop(feasible6_union):
    state = PartialState(feasible6_union)
    state.fix_edge(0, Z)
    before = state.snapshot()
    state.undo_to(len(state.trail))
    assert state.snapshot() == before


def test_undo_rejects_bad_marks(feasible6_union):
    state = PartialState(feasible6_union)
    with pytest.raises(InvalidMarkError):
        state.undo_to(1)
    with pytest.raises(InvalidMarkError):
        state.undo_to(-1)


def test_completion_and_extraction(feasible6, feasible6_union):
    g = feasible6_union
    state = PartialState(g)
    # the witness pair: z = 1-4-5-3-2-6 (x-copy of {2,3}), w = 1-2-3-4-6-5
    z_edges = [edge_id(g, u, v) for u, v in ((1, 4), (4, 5), (5, 3), (3, 2), (2, 6), (6, 1))]
    w_edges = [0, 9, edge_id(g, 3, 4), edge_id(g, 4, 6), edge_id(g, 6, 5), edge_id(g, 5, 1)]
    outcomes = [state.fix_edge(e, Z) for e in z_edges]
    assert outcomes[-1] is COMPLETES_COMPONENT
    assert not state.is_complete()
    outcomes = [state.fix_edge(e, W) for e in w_edges]
    assert outcomes[-1] is COMPLETES_COMPONENT
    assert state.is_complete()
    z, w = state.extract_decomposition()
    assert z.vertices == (1, 4, 5, 3, 2, 6)
    assert w.vertices == (1, 2, 3, 4, 6, 5)
    assert state.differs_from_inputs(
        cycle_edge_multiset(feasible6.x), cycle_edge_multiset(feasible6.y)
    )
    state.check_invariants()


def test_directed_input_pair_does_not_differ(rigid6, rigid6_union):
    g = rigid6_union
    state = PartialState(g)
    for e in range(6):
        state.fix_edge(e, Z)
    for e in range(6, 12):
        state.fix_edge(e, W)
    assert state.is_complete()
    z, w = state.extract_decomposition()
    assert z.vertices == (1, 2, 3, 4, 5, 6)
    assert w.vertices == (1, 4, 6, 2, 3, 5)
    assert not state.differs_from_inputs(
        cycle_edge_multiset(rigid6.x), cycle_edge_multiset(rigid6.y)
    )


def test_doubled_cycle_extracts_two_copies():
    x = HamCycle((1, 2, 3, 4), Mode.UNDIRECTED)
    g = build_union(x, x)
    state = PartialState(g)
    for e in range(4):
        state.fix_edge(e, Z)
    for e in range(4, 8):
        state.fix_edge(e, W)
    z, w = state.extract_decomposition()
    assert z.vertices == w.vertices == (1, 2, 3, 4)
    # the only decomposition of a doubled cycle is the input pair itself
    ms = cycle_edge_multiset(x)
    assert not state.differs_from_inputs(ms, ms)


def test_extraction_requires_completion(feasible6_union):
    state = PartialState(feasible6_union)
    state.fix_edge(0, Z)
    with pytest.raises(NotCompleteError):
        state.extract_decomposition()


def test_incomplete_when_one_component_short(feasible6_union):
    g = feasible6_union
    state = PartialState(g)
    z_edges = [edge_id(g, u, v) for u, v in ((1, 4), (4, 5), (5, 3), (3, 2), (2, 6), (6, 1))]
    for e in z_edges:
        state.fix_edge(e, Z)
    for e in (0, 9, edge_id(g, 3, 4), edge_id(g, 4, 6), edge_id(g, 6, 5)):
        state.fix_edge(e, W)
    assert state.counts == [6, 5]
    assert not state.is_complete()


def test_directed_two_cycle_is_rejected():
    x = HamCycle((1, 2, 3, 4), Mode.DIRECTED)
    y = HamCycle((2, 1, 3, 4), Mode.DIRECTED)
    g = build_union(x, y)
    state = PartialState(g)
    assert state.fix_edge(edge_id(g, 1, 2), Z) is OK
    assert state.fix_edge(edge_id(g, 2, 1), Z) is CLOSES_NON_HAM_CYCLE


def test_parallel_copies_cannot_share_a_component(feasible6_union):
    state = PartialState(feasible6_union)
    assert state.fix_edge(1, Z) is OK
    assert state.fix_edge(9, Z) is CLOSES_NON_HAM_CYCLE


@settings(max_examples=40, deadline=None)
@given(cycle_pairs(min_n=4, max_n=8), st.integers(0, 2**32))
def test_scripted_fix_undo_roundtrip(pair, seed):
    x, y = pair
    g = build_union(x, y)
    assert scripted_roundtrip(g, seed) > 0


@settings(max_examples=30, deadline=None)
@given(cycle_pairs(min_n=4, max_n=8), st.integers(0, 2**32))
def test_random_ok_states_pass_full_scan(pair, seed):
    import random

    x, y = pair
    g = build_union(x, y)
    rng = random.Random(seed)
    state = PartialState(g)
    for _ in range(g.num_edges):
        free = [e for e in range(g.num_edges) if state.assignment[e] == FREE]
        if not free:
            break
        out = state.fix_edge(rng.choice(free), rng.choice((Z, W)))
        if out in (CLOSES_NON_HAM_CYCLE, CONFLICT):
            state.undo_to(len(state.trail))
        state.check_invariants()


@settings(max_examples=30, deadline=None)
@given(cycle_pairs(min_n=4, max_n=8), st.integers(0, 2**32))
def test_completion_outcome_matches_explicit_cycle_walk(pair, seed):
    """COMPLETES_COMPONENT exactly when the closed cycle has n edges."""
    import random

    x, y = pair
    g = build_union(x, y)
    rng = random.Random(seed)
    state = PartialState(g)
    for _ in range(3 * g.num_edges):
        free = [e for e in range(g.num_edges) if state.assignment[e] == FREE]
        if not free:
            break
        e = rng.choice(free)
        comp = rng.choice((Z, W))
        pairs_before = state.component_pairs(comp)
        out = state.fix_edge(e, comp)
        if out in (COMPLETES_COMPONENT, CLOSES_NON_HAM_CYCLE):
            cycle_edges = _closed_cycle_length(g, pairs_before, e)
            assert cycle_edges is not None
            assert (out is COMPLETES_COMPONENT) == (cycle_edges == g.n)
        if out in (CLOSES_NON_HAM_CYCLE, CONFLICT):
            state.undo_to(len(state.trail))


def _closed_cycle_length(g, pairs_before, e):
    """Edges on the cycle that adding e to the component would close."""
    u, v = g.tails[e], g.heads[e]
    if g.mode is Mode.DIRECTED:
        nxt = {a: b for a, b in pairs_before}
        length = 1
        cur = v
        while cur in nxt:
            cur = nxt.pop(cur)
            length += 1
            if cur == u:
                return length
        return None
    adj = {}
    for a, b in pairs_before:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    prev, cur = None, v
    length = 1
    while True:
        options = [w for w in adj.get(cur, []) if w != prev]
        if not options:
            return None
        prev, cur = cur, options[0]
        length += 1
        if cur == u:
            return length


@pytest.mark.parametrize("field", ["time_budget", "node_budget"])
def test_limits_reject_nan_budgets(field):
    # a NaN budget never trips, so it would silently run unbounded
    with pytest.raises(ValueError):
        SolveLimits(**{field: math.nan})


def test_full_scan_catches_drifted_placed_counter(partial_state):
    partial_state.check_invariants()
    partial_state.placed[6] += 1
    with pytest.raises(AssertionError, match="placed"):
        partial_state.check_invariants()
