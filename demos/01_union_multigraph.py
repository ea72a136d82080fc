#!/usr/bin/env python3
"""Build the union multigraph of two Hamiltonian cycles and poke at it.

The union of two cycles on the same n vertices always has 2n edges and is
4-regular (undirected) or in/out-2-regular (directed). Edges the cycles share
show up twice, as parallel copies with distinct ids.
"""

from hamdecomp import (
    HamCycle,
    Mode,
    build_union,
    cycle_edge_multiset,
    parallel_edge_pairs,
)

x = HamCycle((1, 2, 3, 4, 5, 6), Mode.UNDIRECTED)
y = HamCycle((1, 4, 6, 2, 3, 5), Mode.UNDIRECTED)
g = build_union(x, y)

print(f"union of x={x.vertices} and y={y.vertices}")
print(f"  {g.num_edges} edges on {g.n} vertices")
for v in range(1, g.n + 1):
    # an undirected vertex is one port, listing every edge with an end there
    incident = ", ".join(f"e{e}={(g.tails[e], g.heads[e])}" for e in g.ports[v])
    print(f"  vertex {v} (degree {len(g.ports[v])}): {incident}")

pairs = parallel_edge_pairs(g)
print(f"\nparallel copies: {pairs}")
for lo, hi in pairs:
    print(f"  edge ids {lo} and {hi} both cover {(g.tails[lo], g.heads[lo])}")

print("\nedge multisets distinguish cycles only up to traversal:")
same = HamCycle((1, 6, 5, 4, 3, 2), Mode.UNDIRECTED)  # x read backwards
print(f"  x vs reversed x: equal = "
      f"{cycle_edge_multiset(x) == cycle_edge_multiset(same)}")
print(f"  x vs y:          equal = "
      f"{cycle_edge_multiset(x) == cycle_edge_multiset(y)}")
