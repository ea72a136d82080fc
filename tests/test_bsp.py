import pytest
from hypothesis import given, settings

from hamdecomp import (
    HamCycle,
    Instance,
    MismatchedInstancesError,
    Mode,
    SolveLimits,
    SolveStatus,
    build_union,
    gen_instance,
    is_valid_decomposition,
    second_decomposition_exists,
    solve_bsp,
)
from invariants import counters
from strategies import cycle_pairs


def test_feasible_showcase_is_decomposed(feasible6, feasible6_union):
    r = solve_bsp(feasible6_union, feasible6.x, feasible6.y)
    assert r.status is SolveStatus.DECOMPOSED
    assert is_valid_decomposition(feasible6, r.z.vertices, r.w.vertices)


def test_rigid_directed_showcase_has_none(rigid6, rigid6_union):
    r = solve_bsp(rigid6_union, rigid6.x, rigid6.y)
    assert r.status is SolveStatus.NONE_EXISTS
    assert r.z is None and r.w is None


@pytest.mark.parametrize("n", [3, 4, 6, 9, 17])
def test_doubled_cycle_has_none(n):
    x = HamCycle(tuple(range(1, n + 1)), Mode.UNDIRECTED)
    g = build_union(x, x)
    assert solve_bsp(g, x, x).status is SolveStatus.NONE_EXISTS


def test_mismatched_inputs_rejected(feasible6, rigid6_union):
    with pytest.raises(MismatchedInstancesError):
        solve_bsp(rigid6_union, feasible6.x, feasible6.y)


def test_node_budget_times_out(feasible6, feasible6_union):
    r = solve_bsp(feasible6_union, feasible6.x, feasible6.y, SolveLimits(node_budget=1))
    assert r.status is SolveStatus.TIMED_OUT


def test_time_budget_times_out():
    inst = gen_instance(128, Mode.UNDIRECTED, 0)  # a known multi-second search
    g = build_union(inst.x, inst.y)
    r = solve_bsp(g, inst.x, inst.y, SolveLimits(time_budget=0.05))
    assert r.status is SolveStatus.TIMED_OUT


def test_determinism(feasible6, feasible6_union):
    a = solve_bsp(feasible6_union, feasible6.x, feasible6.y)
    b = solve_bsp(feasible6_union, feasible6.x, feasible6.y)
    assert a.status is b.status
    assert a.z.vertices == b.z.vertices and a.w.vertices == b.w.vertices
    assert counters(a.stats) == counters(b.stats)


def test_feasible_directed_instance_found():
    # seed chosen so the directed instance is feasible (oracle-confirmed)
    inst = gen_instance(8, Mode.DIRECTED, 9)
    g = build_union(inst.x, inst.y)
    assert second_decomposition_exists(g, inst.x, inst.y)
    r = solve_bsp(g, inst.x, inst.y)
    assert r.status is SolveStatus.DECOMPOSED
    assert is_valid_decomposition(inst, r.z.vertices, r.w.vertices)


@settings(max_examples=60, deadline=None)
@given(cycle_pairs(min_n=4, max_n=8))
def test_verdict_matches_oracle(pair):
    x, y = pair
    g = build_union(x, y)
    r = solve_bsp(g, x, y)
    assert (r.status is SolveStatus.DECOMPOSED) == second_decomposition_exists(g, x, y)
    if r.z is not None:
        inst = Instance(x.mode, x.n, x, y)
        assert is_valid_decomposition(inst, r.z.vertices, r.w.vertices)
    assert 0 < r.stats.edges_fixed <= r.stats.nodes * 2 * x.n
