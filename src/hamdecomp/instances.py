"""Seeded instance generation and bit-exact text serialization.

The random source is splitmix64: documented constants, a 64-bit seed, and the
same stream on every platform, which makes generated suites byte-identical
across reruns and machines. One instance consumes a single continuous stream:
cycle x is drawn first, then y. Shuffle indices come from a plain modulo,
whose bias is negligible for any n this toolkit handles.

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

from dataclasses import dataclass

from .errors import InstanceSemanticError, InstanceSyntaxError, InvalidCycleError
from .multigraph import HamCycle, Mode
from .result import SolveResult, SolveStats, SolveStatus

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; state advances by a fixed increment."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)


@dataclass(frozen=True)
class Instance:
    """One problem: a mode and two Hamiltonian cycles on the same vertices."""

    mode: Mode
    n: int
    x: HamCycle
    y: HamCycle

    def __post_init__(self):
        if self.x.n != self.n or self.y.n != self.n:
            raise InvalidCycleError("cycle length disagrees with instance n")
        if self.x.mode is not self.mode or self.y.mode is not self.mode:
            raise InvalidCycleError("cycle mode disagrees with instance mode")


def gen_cycle(n: int, rng: SplitMix64, mode: Mode = Mode.UNDIRECTED) -> HamCycle:
    """A uniform random cycle via an in-place shuffle of the identity sequence."""
    if n < 3:
        raise InvalidCycleError(f"n must be at least 3, got {n}")
    seq = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        seq[i], seq[j] = seq[j], seq[i]
    return HamCycle(tuple(seq), mode)


def gen_instance(n: int, mode: Mode, seed: int) -> Instance:
    rng = SplitMix64(seed)
    x = gen_cycle(n, rng, mode)
    y = gen_cycle(n, rng, mode)
    return Instance(mode, n, x, y)


# -- instance text format -------------------------------------------------

def write_instance(inst: Instance) -> str:
    lines = [
        f"p hd {inst.mode.value} {inst.n}",
        "x " + " ".join(str(v) for v in inst.x.vertices),
        "y " + " ".join(str(v) for v in inst.y.vertices),
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
    if tokens[2] not in ("directed", "undirected"):
        raise InstanceSyntaxError(f"unknown mode {tokens[2]!r}", lineno)
    mode = Mode(tokens[2])
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
    return Instance(mode, n, cycles["x"], cycles["y"])


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
        lines.append("z " + " ".join(str(v) for v in cert.z))
        lines.append("w " + " ".join(str(v) for v in cert.w))
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
