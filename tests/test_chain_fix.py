"""The chain-fixing cascade against the cascade built on ``fix_edge``.

``chain_fix`` performs each forced fix in place instead of calling
``fix_edge``. ``_reference_chain_fix`` is the cascade it replaces, one
``fix_edge`` call per forced fix and a loop over both edges of every port a
fix fills. Run side by side on two states, the two must return the same
outcome and leave the same state, trail order, ``edges_fixed`` and invalid
flag after every call, on success and on failure. ``walk_ring`` fixes a free
directed ring in two passes, its x-arcs and then its y-arcs, and must match
the same two passes of ``fix_edge`` just as exactly, and the queue's cascade
from the ring's first x-arc in outcome and, on success, in the fixed edges.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamdecomp
from hamdecomp import AlreadyFixedError, FREE, Mode, PartialState, W, Z, build_union, chain_fix
from hamdecomp.state import CLOSES_NON_HAM_CYCLE, COMPLETES_COMPONENT, CONFLICT, OK, walk_ring
from invariants import snapshot
from strategies import cycle_pairs


def _reference_chain_fix(state, e, comp, g):
    """Breadth-first cascade through ``state.fix_edge``: a port that a fix
    filled to capacity in c sends its free edges to the other component."""
    if state.assignment[e] != FREE:
        raise AlreadyFixedError(f"edge {e} already fixed")
    assignment = state.assignment
    ports = g.ports
    tails = g.tails
    heads = g.head_port
    deg = state.deg
    capacity = state.capacity
    fix_edge = state.fix_edge
    queue = deque()
    push = queue.append
    pop = queue.popleft
    push((e, comp))
    completed = False
    while queue:
        f, c = pop()
        a = assignment[f]
        if a == c:
            continue
        if a != FREE:
            state.invalid = True
            return CONFLICT
        r = fix_edge(f, c)
        if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
            return r
        if r is COMPLETES_COMPONENT:
            completed = True
        degc = deg[c]
        o = 1 - c
        u = tails[f]
        if degc[u] == capacity:
            for fe in ports[u]:
                if assignment[fe] == FREE:
                    push((fe, o))
        v = heads[f]
        if degc[v] == capacity:
            for fe in ports[v]:
                if assignment[fe] == FREE:
                    push((fe, o))
    return COMPLETES_COMPONENT if completed else OK


def _reference_walk_ring(state, ring, comp):
    """``fix_edge`` on the ring's x-arcs into comp, then on its y-arcs into
    the other component, stopping at the first failure."""
    fix_edge = state.fix_edge
    outcome = OK
    for c, arcs in ((comp, ring[0::2]), (1 - comp, ring[1::2])):
        for f in arcs:
            r = fix_edge(f, c)
            if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                return r
            if r is COMPLETES_COMPONENT:
                outcome = r
    return outcome


def _same(kernel, reference):
    assert snapshot(kernel) == snapshot(reference)
    assert kernel.edges_fixed == reference.edges_fixed
    assert kernel.invalid == reference.invalid


@pytest.mark.parametrize("mode", [Mode.UNDIRECTED, Mode.DIRECTED])
@settings(max_examples=80, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_cascade_matches_reference(mode, data, seed):
    x, y = data.draw(cycle_pairs(min_n=4, max_n=12, mode=mode))
    g = build_union(x, y)
    rng = random.Random(seed)
    kernel = PartialState(g)
    reference = PartialState(g)
    marks = [0]  # trail lengths of the states on the current path
    outcomes = set()
    for _ in range(6 * g.n):
        free = [e for e in range(g.num_edges) if kernel.assignment[e] == FREE]
        roll = rng.random()
        if free and roll < 0.7:
            e, comp = rng.choice(free), rng.choice((Z, W))
            if roll < 0.55:
                r = chain_fix(kernel, e, comp, g)
                assert _reference_chain_fix(reference, e, comp, g) is r
            else:
                r = kernel.fix_edge(e, comp)
                assert reference.fix_edge(e, comp) is r
            outcomes.add(r)
            _same(kernel, reference)
            if r is CONFLICT or r is CLOSES_NON_HAM_CYCLE:
                kernel.undo_to(marks[-1])
                reference.undo_to(marks[-1])
            else:
                marks.append(len(kernel.trail))
        elif roll < 0.75 and len(free) < g.num_edges:
            fixed = rng.choice([e for e in range(g.num_edges) if kernel.assignment[e] != FREE])
            with pytest.raises(AlreadyFixedError):
                chain_fix(kernel, fixed, rng.choice((Z, W)), g)
        else:
            keep = rng.randrange(len(marks))
            kernel.undo_to(marks[keep])
            reference.undo_to(marks[keep])
            del marks[keep + 1:]
        _same(kernel, reference)
    assert outcomes  # at least one fix was compared


@pytest.mark.parametrize("mode", [Mode.UNDIRECTED, Mode.DIRECTED])
def test_cascades_from_every_edge_match_reference(mode):
    """From the empty state, cascade every edge into each component: the
    long cascades, whole decompositions and failures of a first decision."""
    for n in range(3, 10):
        for seed in range(8):
            inst = hamdecomp.gen_instance(n, mode, seed)
            g = build_union(inst.x, inst.y)
            for e in range(g.num_edges):
                for comp in (Z, W):
                    kernel = PartialState(g)
                    reference = PartialState(g)
                    r = chain_fix(kernel, e, comp, g)
                    assert _reference_chain_fix(reference, e, comp, g) is r
                    _same(kernel, reference)


def test_ring_walk_matches_reference_on_search_states():
    """The states the search makes, each reached by successful cascades from
    free arcs, leave every ring fixed or free. From each such state, walk
    every free nontrivial ring into each component and compare with the two
    ``fix_edge`` passes, state for state, and with the queue built on
    ``fix_edge`` cascading the ring's first x-arc, which fixes the same arcs
    in another order and so may stop at another closing arc."""
    walks = []
    for n in range(3, 13):
        for seed in range(30):
            inst = hamdecomp.gen_instance(n, Mode.DIRECTED, seed)
            g = build_union(inst.x, inst.y)
            rng = random.Random(seed)
            kernel = PartialState(g)
            reference = PartialState(g)
            queue = PartialState(g)
            rings = []
            for ring in g.rings:
                if len(ring) > 2:
                    rings.append(ring)
                else:
                    # a parallel pair, split either way as preprocessing would
                    comp = rng.choice((Z, W))
                    chain_fix(kernel, ring[0], comp, g)
                    _reference_chain_fix(reference, ring[0], comp, g)
                    _reference_chain_fix(queue, ring[0], comp, g)
            _same(kernel, reference)
            while True:
                mark = len(kernel.trail)
                moves = []
                for ring in rings:
                    if kernel.assignment[ring[0]] != FREE:
                        continue
                    for comp in (Z, W):
                        r = walk_ring(kernel, ring, comp, g)
                        assert _reference_walk_ring(reference, ring, comp) is r
                        _same(kernel, reference)
                        assert _reference_chain_fix(queue, ring[0], comp, g) is r
                        walks.append(r)
                        if r is OK or r is COMPLETES_COMPONENT:
                            for name in ("assignment", "deg", "counts"):
                                assert getattr(kernel, name) == getattr(queue, name)
                            moves.append((ring, comp))
                        for state in (kernel, reference, queue):
                            state.undo_to(mark)
                if not moves:
                    break
                ring, comp = rng.choice(moves)
                walk_ring(kernel, ring, comp, g)
                _reference_walk_ring(reference, ring, comp)
                _reference_chain_fix(queue, ring[0], comp, g)
                _same(kernel, reference)
    assert len(walks) > 1000
    assert set(walks) == {OK, COMPLETES_COMPONENT, CLOSES_NON_HAM_CYCLE}


def test_ring_walk_matches_reference_beside_loose_arcs():
    """``walk_ring`` needs only its own ring free. With one side of other
    rings fixed an arc at a time, which no cascade leaves, the components
    hold different counts, so either pass of a walk can complete its
    component alone; both cases must occur."""
    alone = set()
    for n in range(4, 13):
        for seed in range(30):
            inst = hamdecomp.gen_instance(n, Mode.DIRECTED, seed)
            g = build_union(inst.x, inst.y)
            rng = random.Random(seed)
            kernel = PartialState(g)
            reference = PartialState(g)
            queue = PartialState(g)
            loose = [(ring[rng.randrange(2)::2], rng.choice((Z, W))) for ring in g.rings]
            for arcs, comp in rng.sample(loose, len(loose) // 2):
                for f in arcs:
                    for state in (kernel, reference, queue):
                        if state.fix_edge(f, comp) is CLOSES_NON_HAM_CYCLE:
                            state.undo_to(len(state.trail))
            _same(kernel, reference)
            mark = len(kernel.trail)
            for ring in g.rings:
                if len(ring) == 2 or any(kernel.assignment[f] != FREE for f in ring):
                    continue
                for comp in (Z, W):
                    r = walk_ring(kernel, ring, comp, g)
                    assert _reference_walk_ring(reference, ring, comp) is r
                    _same(kernel, reference)
                    assert _reference_chain_fix(queue, ring[0], comp, g) is r
                    if r is COMPLETES_COMPONENT and min(kernel.counts) < n:
                        alone.add(kernel.counts[comp] == n)
                    for state in (kernel, reference, queue):
                        state.undo_to(mark)
    assert alone == {True, False}


def test_one_cascade_under_every_name():
    assert hamdecomp.chain_fix is hamdecomp.bcef.chain_fix is hamdecomp.state.chain_fix
