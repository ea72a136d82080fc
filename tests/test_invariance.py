"""Verdicts that cannot depend on how a pair is written down.

Whether the union of x and y has a second decomposition depends only on the
union up to isomorphism. So the verdict must not change when the pair is
swapped to (y, x), when the vertices are relabelled, when both cycles start
at another vertex, when an undirected x is read backwards, or when every
vertex that x and y pass the same way is dropped (``helpers.kernel``); and
each DECOMPOSED witness must be a valid second decomposition of the instance
it was found for. These are metamorphic relations (Chen, Cheung & Yiu 1998):
they check verdicts at sizes the oracle cannot referee, where a wrong NONE
is otherwise invisible. A TIMEOUT on either side leaves the pair unchecked.
"""

import random

import pytest

from hamdecomp import (
    HamCycle,
    Instance,
    Mode,
    SolveLimits,
    SolveStatus,
    build_union,
    decomposition_problems,
    enumerate_decompositions,
    gen_instance,
    solve_bcef,
    solve_bsp,
)
from helpers import double_bridge_pair, kernel, two_opt_pair

N = 64
LIMITS = SolveLimits(node_budget=2000)
SOLVERS = {"bsp": solve_bsp, "bcef": solve_bcef}


def _instances(mode):
    """Random pairs, then one double-bridge and one 2-opt pair, by name."""
    pairs = {}
    for seed in range(10):
        inst = gen_instance(N, mode, seed)
        pairs[f"gen({N}, {seed})"] = (inst.x, inst.y)
    pairs[f"db({N}, 4)"] = double_bridge_pair(N, 4, 0, mode)
    pairs[f"2opt({N}, 4)"] = two_opt_pair(N, 4, 0, mode)
    return pairs


def _relabelled(x, y):
    """x's first edge becomes (1, 2), and its other vertices take a seeded
    shuffle of 3..n, so a verdict that hangs on given labels shows."""
    rest = list(range(3, x.n + 1))
    random.Random(x.n).shuffle(rest)
    label = dict(zip(x.vertices, [1, 2, *rest]))
    return tuple(HamCycle([label[v] for v in c.vertices], c.mode) for c in (x, y))


def _rotated(x, y):
    """Each cycle read from another vertex, so the edge ids change."""
    return tuple(HamCycle(c.vertices[k:] + c.vertices[:k], c.mode) for c, k in ((x, 5), (y, 17)))


VARIANTS = {
    "swap": lambda x, y: (y, x),
    "relabel": _relabelled,
    "rotate": _rotated,
    "reverse-x": lambda x, y: (HamCycle(x.vertices[::-1], x.mode), y),
    # x = y has no kernel, and no second decomposition either way
    "kernel": lambda x, y: kernel(x, y) or (x, y),
}


def _solve(solver, x, y, limits=LIMITS):
    r = solver(build_union(x, y), x, y, limits)
    if r.status is SolveStatus.DECOMPOSED:
        inst = Instance(x, y)
        assert decomposition_problems(inst, r.z.vertices, r.w.vertices) == []
    return r.status


# reversing a directed cycle reverses its arcs, so that is another instance
CASES = [
    (algo, mode, variant)
    for algo in SOLVERS
    for mode in Mode
    for variant in VARIANTS
    if not (mode is Mode.DIRECTED and variant == "reverse-x")
]


@pytest.mark.parametrize("algo,mode,variant", CASES,
                         ids=[f"{a}-{m.value}-{v}" for a, m, v in CASES])
def test_verdict_survives_rewriting_the_pair(algo, mode, variant):
    solver = SOLVERS[algo]
    decided = 0
    for name, (x, y) in _instances(mode).items():
        before = _solve(solver, x, y)
        after = _solve(solver, *VARIANTS[variant](x, y))
        if SolveStatus.TIMED_OUT in (before, after):
            continue
        assert after is before, f"{name}: {before.value} before {variant}, {after.value} after"
        decided += 1
    assert decided, "every pair timed out"


@pytest.mark.parametrize("variant", ["swap", "relabel", "rotate"])
def test_directed_bcef_verdict_survives_rewriting_at_4096(variant):
    """Directed bcef decides each ring of thousands of arcs in one walk, at a
    size no oracle can referee, so a walk that fixes a ring wrongly shows
    here only as a verdict that changes with the writing of the pair."""
    limits = SolveLimits(node_budget=20000)
    decided = 0
    for seed in range(5):
        inst = gen_instance(4096, Mode.DIRECTED, seed)
        before = _solve(solve_bcef, inst.x, inst.y, limits)
        after = _solve(solve_bcef, *VARIANTS[variant](inst.x, inst.y), limits)
        if SolveStatus.TIMED_OUT in (before, after):
            continue
        assert after is before, f"seed {seed}: {before.value} before {variant}, {after.value} after"
        decided += 1
    assert decided, "every pair timed out"


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_kernel_keeps_the_census(mode):
    """Dropping a vertex that x and y pass the same way keeps every
    decomposition, so the oracle counts as many on the kernel as on the
    union, including the ones that shrink by several vertices."""
    shrunk = 0
    for n in range(5, 13):
        for seed in range(10):
            inst = gen_instance(n, mode, seed)
            pairs = [double_bridge_pair(n, 2, seed, mode), two_opt_pair(n, 2, seed, mode)]
            for x, y in [(inst.x, inst.y), *pairs]:
                k = kernel(x, y)
                if k is None:
                    continue
                count = enumerate_decompositions(build_union(x, y)).count
                assert enumerate_decompositions(build_union(*k)).count == count, (n, seed, x, y)
                shrunk += k[0].n < n
    assert shrunk > 100
