import hashlib
import itertools

import pytest
from hypothesis import given, settings

from hamdecomp import (
    HamCycle,
    Mode,
    SolveStatus,
    TooLargeError,
    build_union,
    enumerate_decompositions,
    gen_instance,
    is_valid_decomposition,
    second_decomposition_exists,
    solve_bcef,
    solve_bsp,
)
from hamdecomp.oracle import canonical_input_pair
from strategies import cycle_pairs


def test_doubled_hexagon_has_one_decomposition():
    x = HamCycle((1, 2, 3, 4, 5, 6), Mode.UNDIRECTED)
    ds = enumerate_decompositions(build_union(x, x))
    assert ds.count == 1
    assert ds.decompositions[0] == canonical_input_pair(x, x)


def test_feasible_showcase_contains_both_known_pairs(feasible6, feasible6_union):
    ds = enumerate_decompositions(feasible6_union)
    assert ds.count >= 2
    pairs = set(ds.decompositions)
    assert canonical_input_pair(feasible6.x, feasible6.y) in pairs
    witness = canonical_input_pair(
        HamCycle((1, 4, 5, 3, 2, 6), Mode.UNDIRECTED),
        HamCycle((1, 2, 3, 4, 6, 5), Mode.UNDIRECTED),
    )
    assert witness in pairs


def test_complete_graph_on_five_vertices():
    # union of two edge-disjoint 5-cycles is K5; frozen from the first
    # verified run and stable under canonical dedup
    x = HamCycle((1, 2, 3, 4, 5), Mode.UNDIRECTED)
    y = HamCycle((1, 3, 5, 2, 4), Mode.UNDIRECTED)
    ds = enumerate_decompositions(build_union(x, y))
    assert ds.count == 6


def test_second_decomposition_flags(feasible6_union, feasible6, rigid6_union, rigid6):
    assert second_decomposition_exists(feasible6_union, feasible6.x, feasible6.y)
    assert not second_decomposition_exists(rigid6_union, rigid6.x, rigid6.y)


@pytest.mark.parametrize("n", [3, 7, 12])
def test_doubled_cycles_never_have_second(n):
    x = HamCycle(tuple(range(1, n + 1)), Mode.UNDIRECTED)
    g = build_union(x, x)
    assert not second_decomposition_exists(g, x, x)


def test_size_guard():
    x = HamCycle(tuple(range(1, 16)), Mode.UNDIRECTED)
    with pytest.raises(TooLargeError):
        enumerate_decompositions(build_union(x, x))


@settings(max_examples=50, deadline=None)
@given(cycle_pairs(min_n=4, max_n=8))
def test_input_pair_always_enumerated(pair):
    x, y = pair
    ds = enumerate_decompositions(build_union(x, y))
    assert canonical_input_pair(x, y) in set(ds.decompositions)


@settings(max_examples=50, deadline=None)
@given(cycle_pairs(min_n=4, max_n=8))
def test_every_pair_partitions_the_union(pair):
    x, y = pair
    g = build_union(x, y)
    union_multiset = sorted(zip(g.tails, g.heads))
    for a, b in enumerate_decompositions(g).decompositions:
        assert sorted(a + b) == union_multiset
        assert len(a) == len(b) == x.n
        for side in (a, b):
            assert _is_hamiltonian_cycle(side, x.n, x.mode)


def _is_hamiltonian_cycle(pairs, n, mode):
    if mode is Mode.DIRECTED:
        nxt = dict(pairs)
        if len(nxt) != n:
            return False
        seen = set()
        cur = pairs[0][0]
        for _ in range(n):
            if cur in seen:
                return False
            seen.add(cur)
            cur = nxt[cur]
        return cur == pairs[0][0] and len(seen) == n
    adj = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if len(adj) != n or any(len(vs) != 2 for vs in adj.values()):
        return False
    start = pairs[0][0]
    seen = set()
    prev, cur = None, start
    for _ in range(n):
        seen.add(cur)
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
    return cur == start and len(seen) == n


@settings(max_examples=40, deadline=None)
@given(cycle_pairs(min_n=4, max_n=8, mode=Mode.DIRECTED))
def test_arc_reversal_preserves_the_census(pair):
    x, y = pair
    forward = enumerate_decompositions(build_union(x, y))
    xr = HamCycle(tuple(reversed(x.vertices)), Mode.DIRECTED)
    yr = HamCycle(tuple(reversed(y.vertices)), Mode.DIRECTED)
    backward = enumerate_decompositions(build_union(xr, yr))
    assert forward.count == backward.count

    def rev(side):
        return tuple(sorted((v, u) for u, v in side))

    mapped = set()
    for a, b in forward.decompositions:
        ra, rb = rev(a), rev(b)
        mapped.add((ra, rb) if ra <= rb else (rb, ra))
    assert mapped == set(backward.decompositions)


def _brute_force_census(g):
    """Every n-subset of the edge ids as z, kept when z and the rest are both
    Hamiltonian cycles; canonical pairs as the oracle writes them."""
    pairs = list(zip(g.tails, g.heads))
    found = set()
    for z_ids in itertools.combinations(range(g.num_edges), g.n):
        chosen = set(z_ids)
        z = [pairs[e] for e in z_ids]
        w = [pairs[e] for e in range(g.num_edges) if e not in chosen]
        if _is_hamiltonian_cycle(z, g.n, g.mode) and _is_hamiltonian_cycle(w, g.n, g.mode):
            a, b = tuple(sorted(z)), tuple(sorted(w))
            found.add((a, b) if a <= b else (b, a))
    return found


@pytest.mark.parametrize("mode", [Mode.UNDIRECTED, Mode.DIRECTED])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_census_matches_brute_force(mode, n):
    # an independent referee: subsets and cycle walks, no PartialState
    unions = [build_union(inst.x, inst.y)
              for inst in (gen_instance(n, mode, seed) for seed in range(6))]
    doubled = HamCycle(tuple(range(1, n + 1)), mode)
    unions.append(build_union(doubled, doubled))
    for g in unions:
        ds = enumerate_decompositions(g)
        assert set(ds.decompositions) == _brute_force_census(g)
        assert ds.count == len(ds.decompositions)


CENSUS = [
    ("undirected", 9, 0, 3, "6012f0b8ba3902a7209d81084ab0f07aceb493a01eb69b2edb1966eadb238e63"),
    ("undirected", 9, 1, 4, "523068dbcdd2d7e818307d36e0776ca985a6ac4df0de3ea09643b955ed37f8a1"),
    ("undirected", 9, 2, 6, "6ca06080de587b40c3cf5fbb7cd0869c178960046e7578d0d4879057d10e218e"),
    ("undirected", 11, 0, 6, "c89b63077de7dfd99254dcc784ea68418e57d0dd9f353baad27f51f53deddd6a"),
    ("undirected", 11, 1, 3, "674ef906b9c6489ed67f16d2e7b4415a7b4660ffdc7266e59979b0d7d16e69d2"),
    ("undirected", 11, 2, 10, "d3be5d98dc9764bcb2f06700d395f64b28f3919a2e6e825045e1750b8e1aa0b3"),
    ("undirected", 12, 0, 2, "504375e3e2f20b2f0870d6455c3752933d34e68c46f7fc9d3dc0d2a53497c475"),
    ("undirected", 12, 1, 2, "640bfea34394146f7bfbed510f5fc2277a2ef078692647d675c11cef08101ee2"),
    ("undirected", 12, 2, 5, "9e9acfee34bd02e6f68160d755a0818317ddbfac4fd3f579fdc8ae21ad3da609"),
    ("undirected", 13, 0, 4, "21f6c343fb4e68444248ba938ae56bda86dc2b7cc556b9e106e127887181434d"),
    ("undirected", 13, 1, 4, "0c13639e6ea89c18c707fb77b1c368a2f944e88fb623a23688530613576ee89a"),
    ("undirected", 13, 2, 32, "5c1266c77f900075bd77749465c714e8c01d5c4a45a7ea2ce96f13903d2f559c"),
    ("undirected", 14, 0, 15, "91f57c56f6ddab9a8a90e96c775fc63d29a8882bc125eaae4931a19ec2ed26d4"),
    ("undirected", 14, 1, 50, "e9ea610452017933d8e797ab84566dd95d42f946d3decd638233b1fa35b3f1c0"),
    ("undirected", 14, 2, 5, "342223ac256e3445589cd1af6a7891308f911e0948af586498f6dc2945897a7f"),
    ("directed", 9, 0, 2, "d4b2185384f4305fbc33ad725f6fec1a07680a41e664c0fa08e08743d1930ce5"),
    ("directed", 9, 1, 2, "1994d57dd7b882aca43f35f2195c638cadef8b9ac925ee3314504a9fa02beaec"),
    ("directed", 9, 2, 1, "670cb698d6b9ac18eef1a6032379ec8a11af541d12c7e489502e30e35650ba18"),
    ("directed", 11, 0, 1, "94e69016ce7c252163a72b72966038b90906cd5aae02fc8c66081488ea2effe6"),
    ("directed", 11, 1, 1, "277875b39cccda775e91514b89f66e83e72ff7239fd2bb928b9cd574000827b2"),
    ("directed", 11, 2, 1, "d453852789c7bc23b3219cf024579212fbb31f54e46d5a7dd8f27cea5cfe8102"),
    ("directed", 12, 0, 2, "05ce70cc6859ca66a04160dd83f6a88b4c184187be9db93633455b690b21c7f1"),
    ("directed", 12, 1, 1, "ecb7ac99af13bf67f114fe6a56842b9af4b24cb4ab924f0c5f43aaa5d120b7ca"),
    ("directed", 12, 2, 4, "a493f8b1c77f74f23fca3828c66ba5fa8208a923b0f3693f2004f1140798b36b"),
    ("directed", 13, 0, 1, "23cd3de59528ab28175e06f3f145877b41cb403414e228cafbefe7535f6a1e9a"),
    ("directed", 13, 1, 2, "a3046e90c2adc93ce5775aee8479d624bddf333df4a3f8fefeb651131e9161ca"),
    ("directed", 13, 2, 4, "467604ce3d02350928559966764b561621598088af8016d83e972307094c5e09"),
    ("directed", 14, 0, 1, "8423c6a5b730c3778d6f13a3e3f222dbbfa84af362a3668b7be8509f59788633"),
    ("directed", 14, 1, 1, "4e88e96963eba3727291ed41a1276506fb47e7d91d0eeaf6fdd74a6bb5b0cfb4"),
    ("directed", 14, 2, 1, "0a779410cac65b89327460942f27d55bd2e1955a827bec33d8f22fa0fb4d0105"),
]


@pytest.mark.parametrize("mode,n,seed,count,digest", CENSUS)
def test_census_pinned(mode, n, seed, count, digest):
    """(count, sha256 of repr(decompositions)) of ``gen_instance(n, mode, seed)``.

    The values were taken with the edge-id-order enumeration at commit
    8817e71, before the oracle assigned edges in vertex-completion order, so
    any change to the order (or the engine under it) must keep every census.
    """
    inst = gen_instance(n, Mode(mode), seed)
    ds = enumerate_decompositions(build_union(inst.x, inst.y))
    assert ds.count == count
    assert hashlib.sha256(repr(ds.decompositions).encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", [Mode.UNDIRECTED, Mode.DIRECTED])
@pytest.mark.parametrize("n", [13, 14])
def test_solvers_agree_with_oracle_at_the_cap(mode, n):
    mismatches = []
    for seed in range(30):
        inst = gen_instance(n, mode, seed)
        g = build_union(inst.x, inst.y)
        expected = second_decomposition_exists(g, inst.x, inst.y)
        for tag, solver in (("bsp", solve_bsp), ("bcef", solve_bcef)):
            r = solver(g, inst.x, inst.y)
            if r.status is SolveStatus.TIMED_OUT or (r.status is SolveStatus.DECOMPOSED) != expected:
                mismatches.append((tag, seed, r.status))
            elif r.status is SolveStatus.DECOMPOSED and \
                    not is_valid_decomposition(inst, r.z.vertices, r.w.vertices):
                mismatches.append((tag, seed, "invalid witness"))
    assert not mismatches
