"""Seeded instance generation and bit-exact text serialization.

The random source is splitmix64: documented constants, a 64-bit seed, and the
same stream on every platform, which makes generated suites byte-identical
across reruns and machines. One instance consumes a single continuous stream:
cycle x is drawn first, then y. Shuffle indices come from a plain modulo,
whose bias is negligible for any n this toolkit handles. Draws are computed a
block at a time (``SplitMix64.draws``), which leaves the stream unchanged.

Instance file format (one item per line, '#' lines ignored):
    p hd <directed|undirected> <n>
    x <v1> ... <vn>
    y <v1> ... <vn>

Certificate format:
    s <DECOMPOSED|NONE|TIMEOUT>
    z <v1> ... <vn>      (DECOMPOSED only)
    w <v1> ... <vn>      (DECOMPOSED only)
    t <elapsed_ms> <nodes> <edges_fixed>
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

from .errors import InstanceSemanticError, InstanceSyntaxError, InvalidCycleError
from .multigraph import HamCycle, Mode
from .result import SolveResult, SolveStats, SolveStatus

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_BLOCK = 1024  # draws per big-int pass
_ORDER = sys.byteorder


def _packed(words):
    """Native bytes of the BLOCK words, each followed by a zero word: read
    with ``_ORDER``, one 128-bit field per word."""
    fields = array("Q", bytes(16 * _BLOCK))
    fields[::2] = words
    return fields.tobytes()


# per field k = 1..BLOCK: the state offset k*GAMMA, a 1 (to add the block's
# start state to every field in one product) and the 64-bit mask
_PACKED = tuple(_packed(words) for words in (
    array("Q", ((k * _GAMMA) & _MASK for k in range(1, _BLOCK + 1))),
    array("Q", [1]) * _BLOCK,
    array("Q", [_MASK]) * _BLOCK,
))
_FULL_BLOCK = tuple(int.from_bytes(b, _ORDER) for b in _PACKED)


class SplitMix64:
    """Deterministic 64-bit generator; state advances by a fixed increment."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def draws(self, m: int) -> list[int]:
        """The next m outputs of the stream, in order; the state advances m steps.

        Draw k of a block mixes the state start + k*GAMMA, so a block packs
        into one int, a 128-bit field per draw, and each step of the mix is
        one big-int operation over the whole block. A 64x64-bit product is
        below 2^128, so it never reaches another draw's word; whatever a
        carry, a product or a shift leaves in a zero word, the mask clears
        and the unpacking skips.
        """
        out = []
        s = self.state
        while m > 0:
            k = min(m, _BLOCK)
            size = 16 * k
            if k == _BLOCK:
                steps, ones, low = _FULL_BLOCK
            else:
                steps, ones, low = (int.from_bytes(b[:size], _ORDER) for b in _PACKED)
            z = (s * ones + steps) & low
            z = ((z ^ (z >> 30)) & low) * _MIX1 & low
            z = ((z ^ (z >> 27)) & low) * _MIX2 & low
            z ^= z >> 31
            out += memoryview(z.to_bytes(size, _ORDER)).cast("Q")[::2].tolist()
            s = (s + k * _GAMMA) & _MASK
            m -= k
        self.state = s
        return out


@dataclass(frozen=True)
class Instance:
    """One problem: two Hamiltonian cycles on the same vertices, in one mode."""

    x: HamCycle
    y: HamCycle

    def __post_init__(self):
        if self.x.n != self.y.n or self.x.mode is not self.y.mode:
            raise InvalidCycleError("cycles x and y differ in length or in mode")

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def mode(self) -> Mode:
        return self.x.mode


def gen_cycle(n: int, rng: SplitMix64, mode: Mode = Mode.UNDIRECTED) -> HamCycle:
    """A uniform random cycle via an in-place shuffle of the identity sequence."""
    if n < 3:
        raise InvalidCycleError(f"n must be at least 3, got {n}")
    seq = list(range(1, n + 1))
    for i, r in zip(range(n - 1, 0, -1), rng.draws(n - 1)):
        j = r % (i + 1)
        seq[i], seq[j] = seq[j], seq[i]
    return HamCycle(tuple(seq), mode)


def gen_instance(n: int, mode: Mode, seed: int) -> Instance:
    rng = SplitMix64(seed)
    x = gen_cycle(n, rng, mode)
    y = gen_cycle(n, rng, mode)
    return Instance(x, y)


# -- instance text format -------------------------------------------------

def _vertex_line(tag, vertices):
    """'<tag> v1 ... vn' from a tuple, the line format of instances and certificates."""
    return tag + " %d" * len(vertices) % vertices


def write_instance(inst: Instance) -> str:
    lines = [
        f"p hd {inst.mode.value} {inst.n}",
        _vertex_line("x", inst.x.vertices),
        _vertex_line("y", inst.y.vertices),
    ]
    return "\n".join(lines) + "\n"


def _significant_lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def _parse_vertex_line(tag, line, lineno, n=None):
    """The vertices on a '<tag> v1 ... vn' line; n, if given, is checked."""
    tokens = line.split()
    if tokens[0] != tag:
        raise InstanceSyntaxError(f"expected a '{tag}' line, got {tokens[0]!r}", lineno)
    if n is not None and len(tokens) != n + 1:
        raise InstanceSyntaxError(
            f"'{tag}' line needs {n} vertices, got {len(tokens) - 1}", lineno
        )
    try:
        vertices = tuple(map(int, tokens[1:]))
    except ValueError:
        raise InstanceSyntaxError(f"non-integer vertex on '{tag}' line", lineno) from None
    return vertices


def parse_instance(text: str) -> Instance:
    lines = list(_significant_lines(text))
    if not lines:
        raise InstanceSyntaxError("empty instance")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "hd":
        raise InstanceSyntaxError("header must be 'p hd <directed|undirected> <n>'", lineno)
    try:
        mode = Mode(tokens[2])
    except ValueError:
        raise InstanceSyntaxError(f"unknown mode {tokens[2]!r}", lineno) from None
    try:
        n = int(tokens[3])
    except ValueError:
        raise InstanceSyntaxError(f"bad vertex count {tokens[3]!r}", lineno) from None
    if n < 3:
        raise InstanceSemanticError(f"n must be at least 3, got {n}", lineno)
    if len(lines) < 3:
        raise InstanceSyntaxError("instance needs an 'x' and a 'y' line", lineno)
    if len(lines) > 3:
        raise InstanceSyntaxError("unexpected extra line", lines[3][0])
    cycles = {}
    for tag, (ln, line) in zip(("x", "y"), lines[1:3]):
        vertices = _parse_vertex_line(tag, line, ln, n)
        try:
            cycles[tag] = HamCycle(vertices, mode)
        except InvalidCycleError as exc:
            raise InstanceSemanticError(str(exc), ln) from None
    return Instance(cycles["x"], cycles["y"])


# -- certificate text format ----------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Parsed solver output: status, optional witness cycles, run counters."""

    status: SolveStatus
    z: tuple[int, ...] | None
    w: tuple[int, ...] | None
    elapsed_ms: int
    nodes: int
    edges_fixed: int


def write_certificate(result: Certificate | SolveResult) -> str:
    """Render a Certificate, or a SolveResult through ``certificate_of``, in the
    certificate format."""
    cert = certificate_of(result) if isinstance(result, SolveResult) else result
    lines = [f"s {cert.status.value}"]
    if cert.status is SolveStatus.DECOMPOSED:
        lines.append(_vertex_line("z", cert.z))
        lines.append(_vertex_line("w", cert.w))
    lines.append(f"t {cert.elapsed_ms} {cert.nodes} {cert.edges_fixed}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    lines = list(_significant_lines(text))
    if not lines:
        raise InstanceSyntaxError("empty certificate")
    lineno, status_line = lines[0]
    tokens = status_line.split()
    if len(tokens) != 2 or tokens[0] != "s":
        raise InstanceSyntaxError("certificate must start with 's <status>'", lineno)
    try:
        status = SolveStatus(tokens[1])
    except ValueError:
        raise InstanceSyntaxError(f"unknown status {tokens[1]!r}", lineno) from None
    z = w = None
    idx = 1
    if status is SolveStatus.DECOMPOSED:
        if len(lines) < 3:
            raise InstanceSyntaxError("DECOMPOSED certificate needs 'z' and 'w' lines", lineno)
        z = _parse_vertex_line("z", lines[1][1], lines[1][0])
        w = _parse_vertex_line("w", lines[2][1], lines[2][0])
        idx = 3
    if idx >= len(lines):
        raise InstanceSyntaxError("missing 't' stats line")
    ln, line = lines[idx]
    tokens = line.split()
    if len(tokens) != 4 or tokens[0] != "t":
        raise InstanceSyntaxError("stats line must be 't <elapsed_ms> <nodes> <edges_fixed>'", ln)
    try:
        elapsed_ms, nodes, edges_fixed = (int(t) for t in tokens[1:])
    except ValueError:
        raise InstanceSyntaxError("non-integer field on 't' line", ln) from None
    if idx + 1 < len(lines):
        raise InstanceSyntaxError("unexpected extra line", lines[idx + 1][0])
    return Certificate(status, z, w, elapsed_ms, nodes, edges_fixed)


def certificate_of(result: SolveResult) -> Certificate:
    """The Certificate view of a SolveResult; its time in whole ms, truncated."""
    z = result.z.vertices if result.z is not None else None
    w = result.w.vertices if result.w is not None else None
    stats: SolveStats = result.stats
    return Certificate(result.status, z, w, int(stats.elapsed_ms), stats.nodes, stats.edges_fixed)
