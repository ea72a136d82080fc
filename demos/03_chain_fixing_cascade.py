#!/usr/bin/env python3
"""Watch one chain-fixing cascade settle an entire directed instance.

On the rigid directed showcase, after the doubled arc (2,3) is split between
the components, fixing the single arc (1,2) into z forces every remaining arc:
each fix fills an out-slot and an in-slot, and the displaced sibling arcs
cascade into the opposite component breadth-first.
"""

from hamdecomp import HamCycle, Mode, PartialState, Z, build_union, chain_fix, preprocess_parallel

x = HamCycle((1, 2, 3, 4, 5, 6), Mode.DIRECTED)
y = HamCycle((1, 4, 6, 2, 3, 5), Mode.DIRECTED)
g = build_union(x, y)
state = PartialState(g)

preprocess_parallel(state, g)
print("after preprocessing (parallel copies split):")
for e in state.trail:
    print(f"  arc {(g.tails[e], g.heads[e])} -> {'zw'[state.assignment[e]]}")

e12 = next(e for e in range(g.num_edges) if (g.tails[e], g.heads[e]) == (1, 2))
mark = len(state.trail)
outcome = chain_fix(state, e12, Z, g)
print(f"\nchain_fix((1,2) -> z) returned {outcome.name}; cascade order:")
for e in state.trail[mark:]:
    print(f"  arc {(g.tails[e], g.heads[e])} -> {'zw'[state.assignment[e]]}")

z, w = state.extract_decomposition()
print(f"\nforced decomposition: z={z.vertices}, w={w.vertices}")
print("... which is exactly the input pair, so no second decomposition exists.")
