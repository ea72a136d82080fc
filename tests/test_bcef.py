import pytest
from hypothesis import given, settings

import helpers
from hamdecomp import (
    AlreadyFixedError,
    HamCycle,
    Instance,
    Mode,
    PartialState,
    SolveLimits,
    SolveStatus,
    W,
    Z,
    bcef,
    build_union,
    chain_fix,
    decomposition_problems,
    gen_instance,
    is_valid_decomposition,
    preprocess_parallel,
    second_decomposition_exists,
    select_branch_edge,
    solve_bcef,
    solve_bsp,
)
from hamdecomp.state import CLOSES_NON_HAM_CYCLE, COMPLETES_COMPONENT, CONFLICT, FREE, OK
from helpers import double_bridge_pair, solve_bcef_validated
from invariants import counters
from strategies import cycle_pairs
from test_state import edge_id


def trail_moves(state, g, start=0):
    return [((g.tails[e], g.heads[e]), state.assignment[e]) for e in state.trail[start:]]


def test_directed_cascade_order(rigid6_union):
    """Fixing (1,2) after preprocessing forces the entire decomposition, with
    consequences spreading breadth-first from both endpoints of each arc."""
    g = rigid6_union
    state = PartialState(g)
    assert preprocess_parallel(state, g) is OK
    assert trail_moves(state, g) == [((2, 3), Z), ((2, 3), W)]
    mark = len(state.trail)
    out = chain_fix(state, edge_id(g, 1, 2), Z, g)
    assert out is COMPLETES_COMPONENT
    assert trail_moves(state, g, mark) == [
        ((1, 2), Z),
        ((1, 4), W), ((6, 2), W),
        ((3, 4), Z), ((6, 1), Z),
        ((3, 5), W), ((5, 1), W),
        ((4, 5), Z), ((5, 6), Z),
        ((4, 6), W),
    ]
    assert state.is_complete()


def test_single_free_edge_completes(rigid6_union):
    g = rigid6_union
    state = PartialState(g)
    last = edge_id(g, 5, 6)
    for e in range(12):
        if e == last:
            continue
        state.fix_edge(e, Z if e < 6 else W)
    out = chain_fix(state, last, Z, g)
    assert out is COMPLETES_COMPONENT
    assert state.is_complete()


def test_cascade_needs_a_saturated_vertex(feasible6_union):
    # one fixed edge saturates nothing, so the parallel copy is not forced
    state = PartialState(feasible6_union)
    out = chain_fix(state, 1, Z, feasible6_union)
    assert out is OK
    assert len(state.trail) == 1
    assert state.assignment[9] == FREE


def test_chain_fix_rejects_fixed_edges(feasible6_union):
    state = PartialState(feasible6_union)
    chain_fix(state, 1, Z, feasible6_union)
    with pytest.raises(AlreadyFixedError):
        chain_fix(state, 1, W, feasible6_union)


def test_undirected_saturation_transfers(feasible6_union):
    """Two z-edges at vertex 2 push its remaining free edge into w."""
    g = feasible6_union
    state = PartialState(g)
    preprocess_parallel(state, g)  # (2,3) copies split
    mark = len(state.trail)
    out = chain_fix(state, edge_id(g, 1, 2), Z, g)
    assert out is OK
    assert trail_moves(state, g, mark) == [((1, 2), Z), ((2, 6), W)]


def test_preprocess_splits_showcase_pair(rigid6_union):
    state = PartialState(rigid6_union)
    preprocess_parallel(state, rigid6_union)
    assert state.assignment[1] == Z
    assert state.assignment[9] == W


def test_preprocess_noop_without_parallel_edges():
    x = HamCycle((1, 2, 3, 4, 5), Mode.UNDIRECTED)
    y = HamCycle((1, 3, 5, 2, 4), Mode.UNDIRECTED)
    g = build_union(x, y)
    state = PartialState(g)
    assert preprocess_parallel(state, g) is OK
    assert len(state.trail) == 0


def test_preprocess_completes_doubled_square():
    x = HamCycle((1, 2, 3, 4), Mode.UNDIRECTED)
    g = build_union(x, x)
    state = PartialState(g)
    out = preprocess_parallel(state, g)
    assert out is COMPLETES_COMPONENT
    assert state.is_complete()
    z, w = state.extract_decomposition()
    assert z.vertices == w.vertices == (1, 2, 3, 4)
    # ... and the solver turns that into an exact negative verdict
    assert solve_bcef(g, x, x).status is SolveStatus.NONE_EXISTS


def test_select_prefers_lowest_vertex_on_ties(feasible6_union):
    g = feasible6_union
    state = PartialState(g)
    v, cands = select_branch_edge(state, g)
    assert v == 1
    # all free degrees tie at 4, so candidates ascend by neighbor vertex
    neighbors = [g.tails[e] + g.heads[e] - 1 for e in cands]
    assert neighbors == sorted(neighbors)


def test_select_prefers_minimum_free_degree(feasible6_union):
    g = feasible6_union
    state = PartialState(g)
    state.fix_edge(edge_id(g, 4, 5), Z)
    state.fix_edge(edge_id(g, 5, 6), W)
    # vertex 5 now has 2 free edges, everyone else 3 or 4
    v, cands = select_branch_edge(state, g)
    assert v == 5
    assert len(cands) == 2


def test_select_none_when_everything_fixed(feasible6_union):
    state = PartialState(feasible6_union)
    for e in range(12):
        state.fix_edge(e, Z if e < 6 else W)
    assert state.is_complete()
    assert select_branch_edge(state, feasible6_union) is None


def test_rigid_showcase_is_exact_negative(rigid6, rigid6_union):
    r = solve_bcef_validated(rigid6_union, rigid6.x, rigid6.y)
    assert r.status is SolveStatus.NONE_EXISTS
    assert r.stats.nodes == 1  # preprocessing plus one cascade settle it unbranched


def test_feasible_showcase_decomposed(feasible6, feasible6_union):
    r = solve_bcef_validated(feasible6_union, feasible6.x, feasible6.y)
    assert r.status is SolveStatus.DECOMPOSED
    assert is_valid_decomposition(feasible6, r.z.vertices, r.w.vertices)


def test_node_budget_times_out(feasible6, feasible6_union):
    r = solve_bcef(feasible6_union, feasible6.x, feasible6.y, SolveLimits(node_budget=1))
    assert r.status is SolveStatus.TIMED_OUT


def test_determinism(feasible6, feasible6_union):
    a = solve_bcef(feasible6_union, feasible6.x, feasible6.y)
    b = solve_bcef(feasible6_union, feasible6.x, feasible6.y)
    assert a.status is b.status
    assert a.z.vertices == b.z.vertices and a.w.vertices == b.w.vertices
    assert counters(a.stats) == counters(b.stats)


@settings(max_examples=60, deadline=None)
@given(cycle_pairs(min_n=4, max_n=8))
def test_verdict_matches_oracle_with_invariant_scans(pair):
    x, y = pair
    g = build_union(x, y)
    r = solve_bcef_validated(g, x, y)
    assert (r.status is SolveStatus.DECOMPOSED) == second_decomposition_exists(g, x, y)
    if r.z is not None:
        inst = Instance(x.mode, x.n, x, y)
        assert is_valid_decomposition(inst, r.z.vertices, r.w.vertices)
    assert 0 < r.stats.edges_fixed <= r.stats.nodes * 2 * x.n


@settings(max_examples=40, deadline=None)
@given(cycle_pairs(min_n=4, max_n=9))
def test_agrees_with_path_extension_solver(pair):
    x, y = pair
    g = build_union(x, y)
    assert solve_bcef(g, x, y).status is solve_bsp(g, x, y).status


@pytest.mark.parametrize("seed", range(20))
def test_double_bridge_pairs_decided(seed):
    """Structured directed pairs with dozens of nontrivial rings: branching on
    the longest undecided ring first decides each within 1000 nodes, and
    every witness is a valid second decomposition."""
    x, y = double_bridge_pair(1024, 256, seed)
    for a, b in ((x, y), (y, x)):
        r = solve_bcef(build_union(a, b), a, b, SolveLimits(node_budget=1000))
        assert r.status is not SolveStatus.TIMED_OUT
        if r.status is SolveStatus.DECOMPOSED:
            inst = Instance(Mode.DIRECTED, a.n, a, b)
            assert decomposition_problems(inst, r.z.vertices, r.w.vertices) == []


@pytest.mark.parametrize("n", range(8, 13))
def test_double_bridge_verdicts_match_oracle(n):
    for k in (1, 2, 3):
        for seed in range(8):
            x, y = double_bridge_pair(n, k, seed)
            for a, b in ((x, y), (y, x)):
                g = build_union(a, b)
                r = solve_bcef_validated(g, a, b)
                assert (r.status is SolveStatus.DECOMPOSED) == second_decomposition_exists(g, a, b)


@pytest.mark.parametrize("instance", ["rigid6", "gen(8, 9)", "db(12, 2) seed 2", "db(12, 2) seed 3"])
def test_validated_directed_solve_scans_after_every_walk(monkeypatch, rigid6, instance):
    """Directed search cascades through ``walk_ring``, not ``chain_fix``, so
    the validated solve wraps both: both invariant scans run right after
    every walk that does not fail, none after one that does, and at least
    one walk succeeds."""
    if instance == "rigid6":
        x, y = rigid6.x, rigid6.y
    elif instance == "gen(8, 9)":
        inst = gen_instance(8, Mode.DIRECTED, 9)
        x, y = inst.x, inst.y
    else:
        x, y = double_bridge_pair(12, 2, int(instance[-1]))
    events = []

    def logged(fn, event=None):
        def run(*args):
            r = fn(*args)
            events.append(r if event is None else event)
            return r
        return run

    monkeypatch.setattr(bcef, "walk_ring", logged(bcef.walk_ring))
    monkeypatch.setattr(helpers, "check_invariants",
                        logged(helpers.check_invariants, "invariants"))
    monkeypatch.setattr(helpers, "check_propagation_closure",
                        logged(helpers.check_propagation_closure, "closure"))
    solve_bcef_validated(build_union(x, y), x, y)
    walks = 0
    for i, r in enumerate(events):
        if isinstance(r, str):
            continue
        after = events[i + 1:i + 3]
        if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
            assert after[:1] != ["invariants"]
        else:
            assert after == ["invariants", "closure"]
            walks += 1
    assert walks >= 1
