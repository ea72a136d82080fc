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


def moved(x: HamCycle, moves) -> HamCycle:
    """x after ``moves`` on its vertex sequence, one after another: (i, j)
    reverses positions i to j - 1 (a segment reversal), and (i, j, k) cuts
    the sequence into A B C D at i, j and k and joins it as A C B D (a
    double-bridge move). After one or two moves most edges of the union are
    shared by both cycles."""
    seq = list(x.vertices)
    for move in moves:
        if len(move) == 2:
            i, j = move
            seq[i:j] = seq[i:j][::-1]
        else:
            i, j, k = move
            seq = seq[:i] + seq[j:k] + seq[i:j] + seq[k:]
    return HamCycle(tuple(seq), x.mode)


# moves for the brute-force census, each applied to a seed 0 cycle
BRUTE_FORCE_MOVES = {
    5: [((1, 3),), ((1, 2, 4),)],
    6: [((2, 5),), ((1, 3, 5), (2, 3, 4))],
    7: [((1, 4), (3, 6)), ((1, 3, 5), (2, 4, 6))],
    8: [((2, 6),), ((1, 4, 6), (2, 5, 7)), ((1, 3), (5, 7))],
}


@pytest.mark.parametrize("mode", [Mode.UNDIRECTED, Mode.DIRECTED])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_census_matches_brute_force(mode, n):
    # an independent referee: subsets and cycle walks, no PartialState;
    # random pairs up to n = 7, and pairs sharing most edges from n = 5
    unions = []
    if n <= 7:
        unions += [build_union(inst.x, inst.y)
                   for inst in (gen_instance(n, mode, seed) for seed in range(6))]
        doubled = HamCycle(tuple(range(1, n + 1)), mode)
        unions.append(build_union(doubled, doubled))
    x = gen_instance(n, mode, 0).x
    unions += [build_union(x, moved(x, moves)) for moves in BRUTE_FORCE_MOVES.get(n, ())]
    for g in unions:
        ds = enumerate_decompositions(g)
        # every pair, each reached once, in sorted order
        assert list(ds.decompositions) == sorted(_brute_force_census(g))
        assert ds.count == len(ds.decompositions)


def census_cycles(mode, n, pair):
    """The two cycles of a ``CENSUS`` row: ``gen_instance``'s pair when
    ``pair`` is a seed, else seed 0's x and x after the moves ``pair``."""
    if isinstance(pair, tuple):
        x = gen_instance(n, Mode(mode), 0).x
        return x, moved(x, pair)
    inst = gen_instance(n, Mode(mode), pair)
    return inst.x, inst.y


def census_id(value):
    """A test id for a row's moves without spaces; other values keep pytest's."""
    return str(value).replace(" ", "") if isinstance(value, tuple) else None


# (mode, n, seed or moves, count, sha256 of repr(decompositions)); the rows
# with moves were taken with the oracle that tried both copies of a shared
# edge in both components, at commit 60333c0
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
    ("undirected", 10, ((2, 7),), 1, "fcf3615abb14dd1fe44112ba97187ed01fb7214afa908e5a1d780ffc4ba9928a"),
    ("undirected", 10, ((1, 4, 8),), 1, "46f927203664588047393394768d06b73f8ac28147a4d6983f3b1f5292f3018a"),
    ("undirected", 10, ((7, 9), (2, 4)), 2, "a6bd9aa785482f47bf0f3c8fcf79859e4a1632c62eabcf52b130065512d9ff26"),
    ("undirected", 10, ((2, 3, 5), (2, 5, 6)), 2, "bf2e29b3a261fc876d50f7e88ab19a2b006537893c346b94e2b58a9d5d5b9c15"),
    ("undirected", 11, ((8, 10), (3, 7)), 2, "2daac3202af3dfc941f1dabb183e6824c2c65aea4092d6f1a7db8e277deb7c94"),
    ("undirected", 11, ((5, 7, 9), (4, 8, 9)), 2, "0f504e906b2290cf9ebc8dff974e8fc39eac0757ac3f9743ff30f2cc04e29ecd"),
    ("undirected", 12, ((3, 9),), 1, "b5800f3bd273f1b8fa0511428da168563282656eba17f3a6ead2a7cbfec92c98"),
    ("undirected", 12, ((2, 6, 10),), 1, "eee01eaa8ef6566b17acd21d610f9f2c5c5e1f1fd8ddd07b600959c39427e1ce"),
    ("undirected", 12, ((9, 11), (5, 8)), 2, "4aa64ba840a0829ffabb007a5354b77500710aa09519304bd2ed6ba4c821b76a"),
    ("undirected", 12, ((2, 6, 10), (7, 9, 11)), 3, "e367544dfcdeba06f9e57ab0a62734b71cdf69fd10fdf6dae8971b3bd2ac40fa"),
    ("undirected", 13, ((10, 12), (6, 8)), 2, "5ca0a99b003fca6e21c0faccef93e54cdc4315c0800ce455972287544d728387"),
    ("undirected", 13, ((4, 6, 11), (3, 5, 8)), 3, "c459f98e8d3c128e3ec37602502778590aaf0a8e0c6450a7b2ffc2a6f4329fc8"),
    ("undirected", 14, ((4, 11),), 1, "7e2bec8cab5c3fb8b389d61c1edc2632830276ee3e1f0111c5f5a9c8e2faf774"),
    ("undirected", 14, ((11, 13), (1, 9)), 2, "3438a8e575067a84468c5c9e9c4c87b4f2582a271817c16c5e02c43da55c770d"),
    ("undirected", 14, ((8, 10, 12), (4, 5, 6)), 2, "d8f2cd1be1331a2533db0bb39ac1a9fd97ca308f2e4fb84ad0f37511dd344feb"),
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
    ("directed", 10, ((2, 7),), 1, "a73bc51b3b71e3d7df335051bda9e6ddc0f140af810436fe5adc8ec1ccef779b"),
    ("directed", 10, ((1, 4, 8),), 1, "33ecd323a511bbd6d404fab1ba457157fc67dfc09194e8729eb015ebdf6f516e"),
    ("directed", 10, ((7, 9), (4, 6)), 2, "f163ab8f4ae27d2ad3518d7e7d8e06acf95052f254f94ddc97cf361d221899ec"),
    ("directed", 10, ((6, 8, 9), (2, 5, 8)), 2, "97b072986b44a1c62582f1b05ea2424f5d61dbbadc1a7244462d9f9f80801512"),
    ("directed", 11, ((3, 5), (8, 10)), 2, "a0a3ff3e76f51d98109716afc94e5eef6be67a2df2338a194731be540757c2d5"),
    ("directed", 11, ((4, 5, 10), (1, 5, 7)), 2, "689e750ca6f233b372a6a7d89f091bffd36c01d12150aa6b0187ad815265dac7"),
    ("directed", 12, ((3, 9),), 1, "c1ede40232c24513e94ce32bf5e13aa21bbbc2fe271637e5dadef16dba314b25"),
    ("directed", 12, ((2, 6, 10),), 1, "c719b73c0f4550c5d539b0b4c936c3a4ae3146f03a127cb1d73e89aa8e20341d"),
    ("directed", 12, ((7, 9), (2, 5)), 2, "c7356436f9f186c5d1cc7ef36daa4eeb799533516e07f96a7730a9a3ced16e81"),
    ("directed", 12, ((8, 9, 10), (1, 2, 5)), 2, "6a0c49258a9c586a60716717e93629c7cf8c077271501ef59d0fc05c7dc88567"),
    ("directed", 13, ((10, 12), (4, 6)), 2, "778a2682aa2caf5e77d550b80932ca8bdca1d3dc47eef9c585fc3a8dfccb1ab1"),
    ("directed", 13, ((7, 9, 12), (2, 3, 9)), 2, "1b931dfe9b253ea95eebda27a8d3ef49966441882a5f8f82ae4160cd616b1fe3"),
    ("directed", 14, ((4, 11),), 1, "28d8049be71cf2b28f307043d156d87e142bd5a6ff335682d19de1d7d85f88ed"),
    ("directed", 14, ((5, 7), (1, 3)), 2, "e4d8533edb66cd63832869bf183556a3de46d3589bc0513d7ae29f863a381896"),
    ("directed", 14, ((9, 10, 13), (2, 7, 8)), 2, "183eeb1d0665f96b44c1db2d08d1b1e77f8dd71701a98245b6165c0099819116"),
]


@pytest.mark.parametrize("mode,n,pair,count,digest", CENSUS, ids=census_id)
def test_census_pinned(mode, n, pair, count, digest):
    """(count, sha256 of repr(decompositions)) of a row's union.

    The values of the seeded rows were taken with the edge-id-order
    enumeration at commit 8817e71, before the oracle assigned edges in
    vertex-completion order, so any change to the order (or the engine under
    it) must keep every census.
    """
    x, y = census_cycles(mode, n, pair)
    ds = enumerate_decompositions(build_union(x, y))
    assert ds.count == count
    assert hashlib.sha256(repr(ds.decompositions).encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", [Mode.UNDIRECTED, Mode.DIRECTED])
@pytest.mark.parametrize("n", [13, 14])
def test_solvers_agree_with_oracle_at_the_cap(mode, n):
    mismatches = []
    for seed in range(200):
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
