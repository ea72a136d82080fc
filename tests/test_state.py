import gc
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdecomp import (
    AlreadyFixedError,
    HamCycle,
    InvalidMarkError,
    MismatchedInstancesError,
    Mode,
    NotCompleteError,
    PartialState,
    SolveLimits,
    UnionMultigraph,
    W,
    Z,
    build_union,
    chain_fix,
    cycle_edge_multiset,
    enumerate_decompositions,
    gen_instance,
    second_decomposition_exists,
    solve_bcef,
    solve_bsp,
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
    assert 4 - partial_state.placed[6] == 3
    assert 4 - partial_state.deg[Z][6] - partial_state.deg[W][6] == 3


def test_free_degrees_on_empty_states(feasible6_union, rigid6_union):
    undirected = PartialState(feasible6_union)
    assert all(4 - undirected.placed[v] == 4 for v in range(1, 7))
    directed = PartialState(rigid6_union)
    assert list(directed.placed) == [4, 0, 0, 0, 0, 0, 0]
    # vertex v's out-port is v and its in-port n + v
    assert all(2 - directed.deg[Z][v] - directed.deg[W][v] == 2 for v in range(1, 7))
    assert all(2 - directed.deg[Z][6 + v] - directed.deg[W][6 + v] == 2 for v in range(1, 7))


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


def _check_drifted_placed_counter_is_caught(state):
    state.check_invariants()
    state.placed[6] += 1
    with pytest.raises(AssertionError, match="placed"):
        state.check_invariants()


def test_full_scan_catches_drifted_placed_counter(partial_state):
    _check_drifted_placed_counter_is_caught(partial_state)


def test_full_scan_catches_drifted_directed_placed_counter(directed_partial_state):
    _check_drifted_placed_counter_is_caught(directed_partial_state)


def _expected_placed(state):
    """Per vertex, both components' fixed ends: undirected at its one port;
    directed, twice those at its out-port v plus those at its in-port n + v."""
    degz, degw = state.deg
    n = state.n
    if state.directed:
        return [4] + [2 * (degz[v] + degw[v]) + degz[n + v] + degw[n + v]
                      for v in range(1, n + 1)]
    return [4] + [degz[v] + degw[v] for v in range(1, n + 1)]


@settings(max_examples=60, deadline=None)
@given(cycle_pairs(min_n=4, max_n=14, mode=Mode.UNDIRECTED), st.integers(0, 2**32))
def test_placed_view_syncs_with_the_trail(pair, seed):
    """``placed`` is brought up to date from the trail only when read, so
    many pushes and pops pile up between reads; each read must still equal
    the weighted per-vertex sum of the two degree counters."""
    _walk_reading_placed(pair, seed)


@settings(max_examples=60, deadline=None)
@given(cycle_pairs(min_n=4, max_n=14, mode=Mode.DIRECTED), st.integers(0, 2**32))
def test_directed_placed_view_syncs_with_the_trail(pair, seed):
    _walk_reading_placed(pair, seed)


def _walk_reading_placed(pair, seed):
    import random

    x, y = pair
    g = build_union(x, y)
    rng = random.Random(seed)
    state = PartialState(g)

    def read():
        first = bytes(state.placed)
        assert list(first) == _expected_placed(state)
        assert state.placed == first  # a read with no change between

    # A read, an undo and a fix of another edge: the trail is as long as
    # the counted entries again, but its last entry is a new one.
    assert state.fix_edge(0, Z) is OK
    read()
    state.undo_to(0)
    assert state.fix_edge(1, W) is OK
    read()
    marks = [0, 1]
    for _ in range(6 * g.n):
        free = [e for e in range(g.num_edges) if state.assignment[e] == FREE]
        roll = rng.random()
        if free and roll < 0.6:
            e, comp = rng.choice(free), rng.choice((Z, W))
            if roll < 0.3:
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
        if rng.random() < 0.2:
            read()
    read()


def test_placed_view_after_an_edge_returns_to_its_position(feasible6_union):
    """Trail entries are edge ids, so after an undo the same edge can sit at
    the same trail position again; the read must still see that the entry
    before it changed. Edges 0 (1-2), 2 (3-4) and 4 (5-6) share no vertex."""
    state = PartialState(feasible6_union)
    assert state.fix_edge(0, Z) is OK
    assert state.fix_edge(2, Z) is OK
    assert list(state.placed) == _expected_placed(state)
    state.undo_to(0)
    assert state.fix_edge(4, Z) is OK
    assert state.fix_edge(2, Z) is OK
    assert state.trail == [4, 2]
    assert list(state.placed) == _expected_placed(state)


def test_snapshot_does_not_alias_the_placed_view(feasible6_union):
    state = PartialState(feasible6_union)
    assert state.fix_edge(0, Z) is OK
    before = state.snapshot()
    placed_before = bytes(before["placed"])
    assert state.fix_edge(2, Z) is OK
    after = state.snapshot()
    assert before["placed"] == placed_before
    assert before["placed"] != after["placed"]


@pytest.fixture
def directed_partial_state(rigid6_union):
    """z holds the path 1->2->3, w the arc 1->4. Ports: out-port v, in-port 6 + v."""
    g = rigid6_union
    state = PartialState(g)
    for u, v in ((1, 2), (2, 3)):
        assert state.fix_edge(edge_id(g, u, v), Z) is OK
    assert state.fix_edge(edge_id(g, 1, 4), W) is OK
    # z's path is open at vertex 1's in-port and at vertex 3's out-port
    assert state.pend[Z][7] == 3 and state.pend[Z][3] == 7
    state.check_invariants()
    return state


def test_full_scan_catches_drifted_directed_endpoint(directed_partial_state):
    directed_partial_state.pend[Z][7] = 2
    with pytest.raises(AssertionError, match="endpoint"):
        directed_partial_state.check_invariants()


def test_full_scan_catches_drifted_directed_in_port_degree(directed_partial_state):
    directed_partial_state.deg[Z][6 + 3] = 0  # the in-port that 2->3 fills
    with pytest.raises(AssertionError, match="degree counters"):
        directed_partial_state.check_invariants()


def test_full_scan_catches_a_trail_entry_of_a_free_edge(directed_partial_state):
    state = directed_partial_state
    state.trail[-1] = state.assignment.index(FREE)
    with pytest.raises(AssertionError, match="trail does not hold"):
        state.check_invariants()


def _unreachable_after(call):
    """Objects that only the cyclic garbage collector could free after call()."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("mode", [Mode.UNDIRECTED, Mode.DIRECTED])
def test_searches_leave_no_reference_cycles(mode):
    """A finished state, solve or enumeration is freed by reference counting,
    so no collector pause lands inside a later call."""
    inst = gen_instance(9, mode, 3)
    g = build_union(inst.x, inst.y)
    limits = SolveLimits(time_budget=60.0, node_budget=100_000)

    def fix_one():
        state = PartialState(g)
        assert state.fix_edge(0, Z) is OK

    assert _unreachable_after(fix_one) == 0
    assert _unreachable_after(lambda: enumerate_decompositions(g)) == 0
    assert _unreachable_after(lambda: solve_bsp(g, inst.x, inst.y, limits)) == 0
    assert _unreachable_after(lambda: solve_bcef(g, inst.x, inst.y, limits)) == 0


def _complete_states(state, g, e=0):
    """Every complete state reachable by putting each edge, in id order, in
    Z or W; yields with the state complete, restored on return."""
    if e == g.num_edges:
        if state.is_complete():
            yield
        return
    for comp in (Z, W):
        mark = len(state.trail)
        r = state.fix_edge(e, comp)
        if r is not CONFLICT and r is not CLOSES_NON_HAM_CYCLE:
            yield from _complete_states(state, g, e + 1)
        state.undo_to(mark)


@pytest.mark.parametrize("mode", [Mode.UNDIRECTED, Mode.DIRECTED])
def test_edge_id_acceptance_matches_multisets(mode):
    """On every complete state of an exhaustive search, judging Z by edge ids
    agrees with comparing its endpoint multiset against both inputs, and each
    extracted cycle is its component read from vertex 1."""
    judged = 0
    differing = 0
    for n in range(3, 9):
        insts = [gen_instance(n, mode, seed) for seed in range(60)]
        doubled = (insts[0].x, insts[0].x)
        for x, y in [(inst.x, inst.y) for inst in insts] + [doubled]:
            g = build_union(x, y)
            x_ms = cycle_edge_multiset(x)
            y_ms = cycle_edge_multiset(y)
            state = PartialState(g)
            for _ in _complete_states(state, g):
                expected = state.differs_from_inputs(x_ms, y_ms)
                assert state.differs_from_cycles() == expected
                for comp, c in zip((Z, W), state.extract_decomposition()):
                    pairs = state.component_pairs(comp)
                    assert c.vertices[0] == 1
                    if mode is Mode.UNDIRECTED:
                        assert c.vertices[1] == min(u + v - 1 for u, v in pairs if 1 in (u, v))
                    assert Counter(c.edge_pairs()) == Counter(pairs)
                judged += 1
                differing += expected
    # both answers occur, so neither constant passes
    assert differing and judged - differing


def test_edge_id_acceptance_requires_completion(feasible6_union):
    state = PartialState(feasible6_union)
    state.fix_edge(0, Z)
    with pytest.raises(NotCompleteError):
        state.differs_from_cycles()


@pytest.mark.parametrize("mode", [Mode.UNDIRECTED, Mode.DIRECTED])
@pytest.mark.parametrize("entry", [solve_bsp, solve_bcef, second_decomposition_exists],
                         ids=["bsp", "bcef", "oracle"])
def test_graph_of_other_cycles_rejected(mode, entry):
    """A verdict is about the pair g was built from, so any other pair, or a
    graph not built by build_union, is refused rather than answered."""
    a = gen_instance(12, mode, 1)
    b = gen_instance(12, mode, 2)
    g = build_union(a.x, a.y)
    for x, y in ((a.x, b.y), (b.x, a.y), (a.y, a.x), (b.x, b.y)):
        with pytest.raises(MismatchedInstancesError):
            entry(g, x, y)
    bare = UnionMultigraph(g.n, g.mode, g.tails, g.heads, g.head_port, g.ports, None)
    with pytest.raises(MismatchedInstancesError):
        entry(bare, a.x, a.y)
    # equal cycles that are other objects are the same pair
    entry(g, HamCycle(a.x.vertices, mode), HamCycle(a.y.vertices, mode))
