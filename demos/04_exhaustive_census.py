#!/usr/bin/env python3
"""Enumerate every Hamiltonian decomposition of some small unions.

The exhaustive oracle assigns each edge to one of the two components with
degree and cycle pruning only, and reaches each decomposition once: the lower
copy of every shared edge and the lowest unshared edge go to the first
component. It is the ground truth the solvers are tested against. Capped at
n <= 14.

The edges are assigned in a fixed vertex-completion order: start at edge 0's
tail, then repeatedly move to the vertex with the most edges already listed
and list the rest of its edges. A vertex's edges then all sit a few levels
apart, so a vertex given too many edges of one component is cut off near the
top of the search rather than after the whole first cycle has been assigned.
"""

from hamdecomp import (
    HamCycle,
    Mode,
    build_union,
    enumerate_decompositions,
    second_decomposition_exists,
)

CASES = [
    ("doubled hexagon", (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), Mode.UNDIRECTED),
    ("feasible showcase", (1, 2, 3, 4, 5, 6), (1, 4, 6, 2, 3, 5), Mode.UNDIRECTED),
    ("rigid directed", (1, 2, 3, 4, 5, 6), (1, 4, 6, 2, 3, 5), Mode.DIRECTED),
    ("two disjoint 5-cycles (union = K5)", (1, 2, 3, 4, 5), (1, 3, 5, 2, 4), Mode.UNDIRECTED),
]

for label, xs, ys, mode in CASES:
    x = HamCycle(xs, mode)
    y = HamCycle(ys, mode)
    g = build_union(x, y)
    census = enumerate_decompositions(g)
    second = second_decomposition_exists(g, x, y)
    print(f"{label}: {census.count} decomposition(s), second exists: {second}")
    for za, wa in census.decompositions:
        print(f"    {{ {za} | {wa} }}")
    print()
