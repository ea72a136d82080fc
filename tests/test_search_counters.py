"""Pinned search trajectories: verdict and deterministic counters per instance.

Each row is (algo, mode, n, seed, node_budget, status, nodes, edges_fixed,
max_depth) for ``gen_instance(n, mode, seed)``. The counters pin the exact
path of the depth-first search, so a refactor of the search driver has to
reproduce it node for node. The comments name the rarer bcef branches a row
goes through: a candidate that an earlier cascade already placed in z
("forced"), and a witness or a rejected input pair reached by the w cascade
that refutes a candidate ("w cascade").
"""

import pytest

from hamdecomp import Mode, SolveLimits, build_union, gen_instance, solve_bcef, solve_bsp
from helpers import solve_bcef_validated

SOLVERS = {"bsp": solve_bsp, "bcef": solve_bcef}

ROWS = [
    ("bcef", "undirected", 6, 5, 0, "DECOMPOSED", 4, 12, 2),        # forced
    ("bcef", "undirected", 6, 9, 0, "DECOMPOSED", 4, 16, 2),        # w cascade finds the witness
    ("bcef", "undirected", 6, 14, 0, "NONE", 2, 13, 1),             # w cascade completes the input pair
    ("bcef", "undirected", 8, 12, 0, "NONE", 7, 29, 4),             # forced twice
    ("bcef", "undirected", 8, 16, 0, "DECOMPOSED", 5, 26, 4),       # forced, both w cascade outcomes
    ("bcef", "undirected", 10, 0, 0, "DECOMPOSED", 11, 47, 5),      # forced five times
    ("bcef", "undirected", 12, 27, 0, "DECOMPOSED", 10, 55, 5),
    ("bcef", "undirected", 64, 0, 0, "DECOMPOSED", 46, 181, 43),
    ("bcef", "undirected", 256, 3, 0, "DECOMPOSED", 178, 1432, 142),
    ("bcef", "undirected", 512, 0, 60, "TIMEOUT", 61, 144, 59),
    ("bcef", "directed", 6, 1, 0, "NONE", 2, 12, 1),                # w cascade completes the input pair
    ("bcef", "directed", 8, 21, 0, "DECOMPOSED", 5, 24, 2),         # forced
    ("bcef", "directed", 8, 27, 0, "NONE", 4, 16, 2),               # forced
    ("bcef", "directed", 10, 7, 0, "DECOMPOSED", 5, 28, 2),         # forced, w cascade finds the witness
    ("bcef", "directed", 8, 25, 0, "DECOMPOSED", 3, 22, 1),         # w cascade finds the witness
    ("bcef", "directed", 64, 0, 0, "NONE", 3, 129, 1),
    ("bsp", "undirected", 6, 5, 0, "DECOMPOSED", 7, 17, 5),
    ("bsp", "undirected", 8, 12, 0, "NONE", 20, 62, 7),
    ("bsp", "undirected", 10, 0, 0, "DECOMPOSED", 16, 45, 9),
    ("bsp", "undirected", 12, 27, 0, "DECOMPOSED", 15, 36, 11),
    ("bsp", "undirected", 24, 1, 0, "DECOMPOSED", 63, 158, 23),
    ("bsp", "undirected", 64, 0, 500, "DECOMPOSED", 71, 148, 63),
    ("bsp", "undirected", 128, 0, 2000, "TIMEOUT", 2001, 5026, 108),
    ("bsp", "directed", 8, 21, 0, "DECOMPOSED", 14, 30, 7),
    ("bsp", "directed", 8, 27, 0, "NONE", 10, 24, 7),
    ("bsp", "directed", 10, 7, 0, "DECOMPOSED", 10, 20, 9),
    ("bsp", "directed", 24, 0, 0, "NONE", 94, 283, 23),
    ("bsp", "directed", 40, 2, 0, "NONE", 1205, 3782, 39),
]


def _row_id(row):
    algo, mode, n, seed = row[:4]
    return f"{algo}-{mode}-n{n}-s{seed}"


def _solve(algo, mode, n, seed, budget, solver=None):
    inst = gen_instance(n, Mode(mode), seed)
    g = build_union(inst.x, inst.y)
    return (solver or SOLVERS[algo])(g, inst.x, inst.y, SolveLimits(node_budget=budget))


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_counters_pinned(row):
    algo, mode, n, seed, budget, status, nodes, edges_fixed, max_depth = row
    r = _solve(algo, mode, n, seed, budget)
    assert r.status.value == status
    assert r.stats.deterministic_fields() == (nodes, edges_fixed, max_depth)


@pytest.mark.parametrize("row", [r for r in ROWS if r[0] == "bcef" and r[2] <= 64], ids=_row_id)
def test_validation_leaves_counters_alone(row):
    algo, mode, n, seed, budget, status, nodes, edges_fixed, max_depth = row
    r = _solve(algo, mode, n, seed, budget, solve_bcef_validated)
    assert r.status.value == status
    assert r.stats.deterministic_fields() == (nodes, edges_fixed, max_depth)


# The undirected-search benchmark shape: bcef on undirected n=512 under a
# 350-node budget, (seed, status, nodes, edges_fixed, max_depth). Every node
# picks a branch vertex, so one changed choice moves these counters.
UNDIRECTED_SEARCH_ROWS = [
    (0, "TIMEOUT", 351, 4090, 258),
    (1, "TIMEOUT", 351, 3203, 274),
    (2, "TIMEOUT", 351, 2844, 247),
]


def test_undirected_search_shape_pinned():
    got = []
    for seed, *_ in UNDIRECTED_SEARCH_ROWS:
        r = _solve("bcef", "undirected", 512, seed, 350)
        got.append((seed, r.status.value, *r.stats.deterministic_fields()))
    assert got == UNDIRECTED_SEARCH_ROWS


# The directed-cascade benchmark shape: bcef on directed n=2048 under a
# 1000-node budget, (seed, status, nodes, edges_fixed, max_depth). Each node
# cascades hundreds of arcs, so these pin the chain-fixing cascade on inputs
# far larger than the rows above.
DIRECTED_CASCADE_ROWS = [
    (0, "NONE", 4, 5348, 3),
    (1, "DECOMPOSED", 34, 12008, 12),
    (2, "NONE", 12, 4308, 5),
]


def test_directed_cascade_shape_pinned():
    got = []
    for seed, *_ in DIRECTED_CASCADE_ROWS:
        r = _solve("bcef", "directed", 2048, seed, 1000)
        got.append((seed, r.status.value, *r.stats.deterministic_fields()))
    assert got == DIRECTED_CASCADE_ROWS


# bcef on undirected n=1024 to 8192: (n, seed, node_budget, status, nodes,
# edges_fixed, max_depth).
LARGE_UNDIRECTED_ROWS = [
    (1024, 0, 0, "DECOMPOSED", 8060, 250543, 525),
    (2048, 0, 0, "DECOMPOSED", 1039, 5025, 1012),
    (2048, 1, 0, "DECOMPOSED", 3263, 129149, 1032),
    (4096, 0, 2000, "TIMEOUT", 2001, 7483, 1999),
    (8192, 0, 1000, "TIMEOUT", 1001, 2383, 999),
]


def test_large_undirected_trajectories_pinned():
    """The rows were measured while ``fix_edge`` and ``undo_to`` still kept
    a ``placed`` list count by count, before it became a view synced from
    the trail when read; branch selection must make the same choice at every
    node. The n=1024 row fixes 250k edges under heavy backtracking, so most
    fixes are undone again before the next read of the view."""
    got = []
    for n, seed, budget, *_ in LARGE_UNDIRECTED_ROWS:
        r = _solve("bcef", "undirected", n, seed, budget)
        got.append((n, seed, budget, r.status.value, *r.stats.deterministic_fields()))
    assert got == LARGE_UNDIRECTED_ROWS
