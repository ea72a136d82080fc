"""Independent validation of claimed decompositions.

Works purely on vertex sequences and edge-multiset arithmetic, with no use of
the solvers' search state, so it can referee them.
"""

from __future__ import annotations

from collections import Counter

from .instances import Instance
from .multigraph import Mode


def _cycle_pairs(vertices, mode):
    n = len(vertices)
    for i in range(n):
        u, v = vertices[i], vertices[(i + 1) % n]
        if mode is Mode.DIRECTED:
            yield u, v
        else:
            yield (u, v) if u < v else (v, u)


def decomposition_problems(inst: Instance, z_seq, w_seq) -> list[str]:
    """Reasons the pair (z, w) is not a valid second decomposition; empty if valid."""
    problems = []
    n = inst.n
    for tag, seq in (("z", z_seq), ("w", w_seq)):
        if seq is None:
            problems.append(f"{tag} missing")
            continue
        if sorted(seq) != list(range(1, n + 1)):
            problems.append(f"{tag} is not a permutation of 1..{n}")
    if problems:
        return problems
    z_counts = Counter(_cycle_pairs(z_seq, inst.mode))
    w_counts = Counter(_cycle_pairs(w_seq, inst.mode))
    x_counts = Counter(_cycle_pairs(inst.x.vertices, inst.mode))
    y_counts = Counter(_cycle_pairs(inst.y.vertices, inst.mode))
    if z_counts + w_counts != x_counts + y_counts:
        problems.append("z and w do not partition the union's edge multiset")
    if z_counts in (x_counts, y_counts) or w_counts in (x_counts, y_counts):
        problems.append("decomposition equals the input pair")
    return problems
