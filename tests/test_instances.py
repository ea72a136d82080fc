from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdecomp import (
    Certificate,
    Instance,
    InstanceSemanticError,
    InstanceSyntaxError,
    InvalidCycleError,
    Mode,
    SolveStatus,
    SplitMix64,
    certificate_of,
    gen_cycle,
    gen_instance,
    parse_certificate,
    parse_instance,
    write_certificate,
    write_instance,
)
from strategies import cycle_pairs

_MASK = (1 << 64) - 1


def reference_stream(seed, k):
    """Straight-line transcription of the generator, kept independent of the
    library implementation on purpose."""
    state = seed & _MASK
    out = []
    for _ in range(k):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


# frozen from the straight-line reference above
SEED0_FIRST_THREE = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_generator_matches_frozen_vector():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_FIRST_THREE
    assert reference_stream(0, 3) == list(SEED0_FIRST_THREE)


def test_generator_determinism():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_nearby_seeds_diverge():
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()
    assert SplitMix64(1).next_u64() == 10451216379200822465


def test_gen_cycle_is_permutation():
    cycle = gen_cycle(3, SplitMix64(7))
    assert sorted(cycle.vertices) == [1, 2, 3]


def test_gen_cycle_matches_frozen_shuffle():
    # frozen from the straight-line reference: identity 1..8 shuffled from
    # the high index down, swap target next_u64() % (i + 1)
    assert gen_cycle(8, SplitMix64(42)).vertices == (4, 2, 7, 3, 5, 1, 8, 6)

    def reference_shuffle(n, seed):
        seq = list(range(1, n + 1))
        stream = reference_stream(seed, n - 1)
        for offset, i in enumerate(range(n - 1, 0, -1)):
            j = stream[offset] % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]
        return tuple(seq)

    assert reference_shuffle(8, 42) == (4, 2, 7, 3, 5, 1, 8, 6)


def test_gen_cycle_rejects_small_n():
    with pytest.raises(InvalidCycleError):
        gen_cycle(2, SplitMix64(0))


def test_shuffle_uniformity_at_n3():
    rng = SplitMix64(2024)
    counts = Counter(gen_cycle(3, rng).vertices for _ in range(6000))
    assert len(counts) == 6
    for freq in counts.values():
        assert abs(freq / 6000 - 1 / 6) < 0.05


def test_gen_instance_determinism_and_stream():
    a = gen_instance(8, Mode.UNDIRECTED, 42)
    b = gen_instance(8, Mode.UNDIRECTED, 42)
    assert a == b
    # x consumes the first part of the stream, y continues it
    assert a.x.vertices == (4, 2, 7, 3, 5, 1, 8, 6)
    assert a.y.vertices == (1, 2, 4, 8, 6, 3, 7, 5)


def test_mode_flag_only_reinterprets_edges():
    u = gen_instance(16, Mode.UNDIRECTED, 5)
    d = gen_instance(16, Mode.DIRECTED, 5)
    assert u.x.vertices == d.x.vertices
    assert u.y.vertices == d.y.vertices


def test_hundred_seeds_give_distinct_instances():
    seen = {gen_instance(32, Mode.UNDIRECTED, seed) for seed in range(100)}
    assert len(seen) == 100


# -- text formats ----------------------------------------------------------

def test_showcase_file_round_trip(feasible6):
    text = write_instance(feasible6)
    assert text == "p hd undirected 6\nx 1 2 3 4 5 6\ny 1 4 6 2 3 5\n"
    assert parse_instance(text) == feasible6


def test_parse_ignores_comments_and_blanks(feasible6):
    text = "# generated\n\np hd undirected 6\n# cycles\nx 1 2 3 4 5 6\ny 1 4 6 2 3 5\n"
    assert parse_instance(text) == feasible6


def test_parse_missing_cycle_line():
    with pytest.raises(InstanceSyntaxError):
        parse_instance("p hd undirected 6\nx 1 2 3 4 5 6\n")


def test_parse_repeated_vertex_is_semantic():
    with pytest.raises(InstanceSemanticError):
        parse_instance("p hd undirected 6\nx 1 2 2 4 5 6\ny 1 4 6 2 3 5\n")


def test_parse_small_n_is_semantic():
    with pytest.raises(InstanceSemanticError):
        parse_instance("p hd undirected 2\nx 1 2\ny 2 1\n")


@pytest.mark.parametrize("text", [
    "",
    "p hd sideways 6\nx 1 2 3 4 5 6\ny 1 4 6 2 3 5\n",
    "p hd undirected six\nx 1 2 3 4 5 6\ny 1 4 6 2 3 5\n",
    "p hd undirected 6\nx 1 2 3 4 5\ny 1 4 6 2 3 5\n",
    "p hd undirected 6\nx 1 2 3 4 5 6\ny 1 4 6 2 3 five\n",
    "p hd undirected 6\ny 1 4 6 2 3 5\nx 1 2 3 4 5 6\n",
    "p hd undirected 6\nx 1 2 3 4 5 6\ny 1 4 6 2 3 5\nz 1 2 3 4 5 6\n",
])
def test_parse_syntax_errors(text):
    with pytest.raises(InstanceSyntaxError):
        parse_instance(text)


def test_parse_error_carries_line_number():
    with pytest.raises(InstanceSyntaxError) as excinfo:
        parse_instance("# preamble\np hd undirected 6\nx 1 2 3 4 5 6\nx 1 4 6 2 3 5\n")
    assert excinfo.value.line == 4


@settings(max_examples=50, deadline=None)
@given(cycle_pairs(min_n=3, max_n=12))
def test_instance_round_trip_identity(pair):
    x, y = pair
    inst = Instance(x.mode, x.n, x, y)
    assert parse_instance(write_instance(inst)) == inst


# -- certificates -----------------------------------------------------------

def test_decomposed_certificate_format():
    cert = Certificate(
        SolveStatus.DECOMPOSED, (1, 4, 5, 3, 2, 6), (1, 2, 3, 4, 6, 5), 12, 34, 56
    )
    text = write_certificate(cert)
    assert text == "s DECOMPOSED\nz 1 4 5 3 2 6\nw 1 2 3 4 6 5\nt 12 34 56\n"
    assert parse_certificate(text) == cert


@pytest.mark.parametrize("status,expected", [
    (SolveStatus.NONE_EXISTS, "s NONE\nt 7 8 9\n"),
    (SolveStatus.TIMED_OUT, "s TIMEOUT\nt 7 8 9\n"),
])
def test_statusonly_certificate_round_trip(status, expected):
    cert = Certificate(status, None, None, 7, 8, 9)
    assert write_certificate(cert) == expected
    assert parse_certificate(expected) == cert


def test_certificate_of_solver_result(feasible6):
    from hamdecomp import build_union, solve_bcef

    r = solve_bcef(build_union(feasible6.x, feasible6.y), feasible6.x, feasible6.y)
    cert = certificate_of(r)
    assert parse_certificate(write_certificate(r)) == cert
    assert cert.status is SolveStatus.DECOMPOSED


def test_certificate_time_stays_whole_ms(feasible6):
    from hamdecomp import build_union, solve_bcef

    r = solve_bcef(build_union(feasible6.x, feasible6.y), feasible6.x, feasible6.y)
    r.stats.elapsed_ms = 12.75  # the solver's clock keeps fractions of a ms
    text = write_certificate(r)
    assert text.splitlines()[-1] == f"t 12 {r.stats.nodes} {r.stats.edges_fixed}"
    assert parse_certificate(text).elapsed_ms == 12


@pytest.mark.parametrize("text", [
    "",
    "s MAYBE\nt 1 2 3\n",
    "s DECOMPOSED\nt 1 2 3\n",
    "s NONE\n",
    "s NONE\nt 1 2\n",
    "s NONE\nt 1 2 3\nextra\n",
])
def test_certificate_syntax_errors(text):
    with pytest.raises(InstanceSyntaxError):
        parse_certificate(text)
