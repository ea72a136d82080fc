from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamdecomp import (
    HamCycle,
    InvalidCycleError,
    MismatchedInstancesError,
    Mode,
    build_union,
    cycle_edge_multiset,
    parallel_edge_pairs,
)
from strategies import cycle_pairs


def test_cycle_rejects_short_sequences():
    with pytest.raises(InvalidCycleError):
        HamCycle((1, 2), Mode.UNDIRECTED)


def test_cycle_rejects_repeats_and_gaps():
    with pytest.raises(InvalidCycleError):
        HamCycle((1, 2, 2, 4), Mode.UNDIRECTED)
    with pytest.raises(InvalidCycleError):
        HamCycle((2, 3, 4), Mode.DIRECTED)


def test_union_of_showcase_instance(feasible6, feasible6_union):
    g = feasible6_union
    assert g.num_edges == 12
    assert all(len(g.ports[v]) == 4 for v in range(1, 7))
    counts = Counter(zip(g.tails, g.heads))
    assert counts[(2, 3)] == 2


def test_union_doubles_every_edge_for_identical_inputs():
    x = HamCycle((1, 2, 3), Mode.UNDIRECTED)
    g = build_union(x, x)
    assert g.num_edges == 6
    counts = Counter(zip(g.tails, g.heads))
    assert counts == Counter({(1, 2): 2, (2, 3): 2, (1, 3): 2})


def test_union_directed_regularity(rigid6_union):
    g = rigid6_union
    # out-port v and in-port 6 + v
    assert all(len(g.ports[v]) == 2 for v in range(1, 7))
    assert all(len(g.ports[6 + v]) == 2 for v in range(1, 7))
    counts = Counter(zip(g.tails, g.heads))
    assert counts[(2, 3)] == 2


def test_union_rejects_mismatched_inputs():
    x = HamCycle((1, 2, 3), Mode.UNDIRECTED)
    y4 = HamCycle((1, 2, 3, 4), Mode.UNDIRECTED)
    yd = HamCycle((1, 2, 3), Mode.DIRECTED)
    with pytest.raises(MismatchedInstancesError):
        build_union(x, y4)
    with pytest.raises(MismatchedInstancesError):
        build_union(x, yd)


def test_parallel_pairs_of_showcase_instance(feasible6_union):
    # the one doubled edge {2,3}: x-copy id 1, y-copy id 9
    assert parallel_edge_pairs(feasible6_union) == [(1, 9)]


def test_parallel_pairs_empty_for_disjoint_cycles():
    x = HamCycle((1, 2, 3, 4, 5), Mode.UNDIRECTED)
    y = HamCycle((1, 3, 5, 2, 4), Mode.UNDIRECTED)
    assert parallel_edge_pairs(build_union(x, y)) == []


def test_parallel_pairs_doubled_cycle():
    x = HamCycle((1, 2, 3, 4), Mode.UNDIRECTED)
    pairs = parallel_edge_pairs(build_union(x, x))
    assert pairs == [(0, 4), (1, 5), (2, 6), (3, 7)]


def test_cycle_edge_multiset_triangle():
    ms = cycle_edge_multiset(HamCycle((1, 2, 3), Mode.UNDIRECTED))
    assert ms == Counter({(1, 2): 1, (2, 3): 1, (1, 3): 1})


def test_undirected_multiset_ignores_orientation():
    a = cycle_edge_multiset(HamCycle((1, 2, 3), Mode.UNDIRECTED))
    b = cycle_edge_multiset(HamCycle((1, 3, 2), Mode.UNDIRECTED))
    assert a == b


def test_directed_multiset_distinguishes_orientation():
    a = cycle_edge_multiset(HamCycle((1, 2, 3), Mode.DIRECTED))
    b = cycle_edge_multiset(HamCycle((1, 3, 2), Mode.DIRECTED))
    assert a != b


def test_showcase_witness_differs_from_input(feasible6):
    z = cycle_edge_multiset(HamCycle((1, 4, 5, 3, 2, 6), Mode.UNDIRECTED))
    x = cycle_edge_multiset(feasible6.x)
    assert z != x
    assert x == cycle_edge_multiset(feasible6.x)


@given(cycle_pairs())
def test_union_is_regular(pair):
    x, y = pair
    n = x.n
    g = build_union(x, y)
    assert g.num_edges == 2 * n
    if x.mode is Mode.DIRECTED:
        assert len(g.ports) == 2 * n + 1
        assert all(len(g.ports[v]) == 2 for v in range(1, 2 * n + 1))
        # in-port n + v lists exactly the arcs arriving at v
        assert g.ports[n + 1:] == tuple(
            tuple(e for e in range(2 * n) if g.heads[e] == v) for v in range(1, n + 1)
        )
    else:
        assert len(g.ports) == n + 1
        assert all(len(g.ports[v]) == 4 for v in range(1, n + 1))
    # edge ids follow x's traversal, then y's
    assert tuple(zip(g.tails, g.heads)) == (*x.edge_pairs(), *y.edge_pairs())
    if x.mode is Mode.DIRECTED:
        assert g.head_port == tuple(n + v for v in g.heads)
    else:
        assert g.head_port == g.heads
    # every port lists, in ascending id, the edges with an end at it
    assert g.ports[0] == ()
    assert g.ports[1:] == tuple(
        tuple(e for e in range(2 * n) if p in (g.tails[e], g.head_port[e]))
        for p in range(1, len(g.ports))
    )


@given(cycle_pairs())
def test_parallel_pair_count_matches_distinct_pairs(pair):
    # doubled pairs P and singles S satisfy P + S = distinct and 2P + S = 2n
    x, y = pair
    g = build_union(x, y)
    distinct = len(set(zip(g.tails, g.heads)))
    assert len(parallel_edge_pairs(g)) == 2 * x.n - distinct


@given(cycle_pairs())
def test_union_multiset_is_sum_of_cycle_multisets(pair):
    x, y = pair
    g = build_union(x, y)
    merged = cycle_edge_multiset(x) + cycle_edge_multiset(y)
    assert merged == Counter(zip(g.tails, g.heads))


def _setdefault_parallel_pairs(g):
    """Doubled endpoint pairs by grouping every edge id under its pair."""
    by_pair = {}
    for e in range(g.num_edges):
        by_pair.setdefault((g.tails[e], g.heads[e]), []).append(e)
    return sorted(tuple(ids) for ids in by_pair.values() if len(ids) == 2)


@given(cycle_pairs(max_n=14),
       st.sampled_from(["pair", "doubled", "swapped", "reversed", "rotated"]),
       st.integers(1, 13))
def test_parallel_pairs_match_grouping_by_pair(pair, kind, k):
    """Beyond random pairs: x with itself, where a pair's ids are a and
    a + n; the swapped pair; and x with x rotated by k, which doubles every
    edge, or with x reversed, which doubles every undirected edge and no
    directed one, so that the ids of a pair are not aligned."""
    x, y = pair
    vs = x.vertices
    k %= x.n
    first, second = {
        "pair": (x, y),
        "doubled": (x, x),
        "swapped": (y, x),
        "reversed": (x, HamCycle(vs[::-1], x.mode)),
        "rotated": (x, HamCycle(vs[k:] + vs[:k], x.mode)),
    }[kind]
    g = build_union(first, second)
    assert parallel_edge_pairs(g) == _setdefault_parallel_pairs(g)


def _nontrivial_pi_cycles(x, y):
    """The number of cycles of pi = y^-1 x longer than one vertex, from the
    two vertex sequences alone: pi(u) is the vertex before x's successor of u
    in y."""
    n = x.n
    succ_x = dict(zip(x.vertices, x.vertices[1:] + x.vertices[:1]))
    pred_y = dict(zip(y.vertices[1:] + y.vertices[:1], y.vertices))
    seen = set()
    count = 0
    for u in range(1, n + 1):
        if u in seen:
            continue
        length = 0
        while u not in seen:
            seen.add(u)
            length += 1
            u = pred_y[succ_x[u]]
        count += length > 1
    return count


@given(cycle_pairs(min_n=3, max_n=40, mode=Mode.DIRECTED),
       st.sampled_from(["pair", "doubled", "rotated"]), st.integers(1, 39))
def test_directed_rings_are_the_alternating_cycles(pair, kind, k):
    x, y = pair
    n = x.n
    vs = x.vertices
    k %= n
    if kind == "doubled":
        y = x
    elif kind == "rotated":
        # x rotated by k starts at another vertex but has x's arcs
        y = HamCycle(vs[k:] + vs[:k], Mode.DIRECTED)
    g = build_union(x, y)
    rings = g.rings
    # every arc in exactly one ring
    assert sorted(e for ring in rings for e in ring) == list(range(2 * n))
    # each ring from its lowest x-arc, in that order; x- and y-arcs alternate
    assert [ring[0] for ring in rings] == sorted(min(ring) for ring in rings)
    for ring in rings:
        assert len(ring) % 2 == 0
        assert all(a < n <= b for a, b in zip(ring[::2], ring[1::2]))
        # an x-arc and the next y-arc share an out-port, a y-arc and the next
        # x-arc an in-port
        for i in range(0, len(ring), 2):
            a, b, c = ring[i], ring[i + 1], ring[(i + 2) % len(ring)]
            assert g.tails[a] == g.tails[b]
            assert g.heads[b] == g.heads[c]
    assert [ring for ring in rings if len(ring) == 2] == _setdefault_parallel_pairs(g)
    assert sum(len(ring) > 2 for ring in rings) == _nontrivial_pi_cycles(x, y)


@given(cycle_pairs(min_n=3, max_n=40, mode=Mode.UNDIRECTED))
def test_undirected_union_has_no_rings(pair):
    g = build_union(*pair)
    assert g.rings == ()
