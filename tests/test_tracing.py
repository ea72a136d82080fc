"""The benchmark's tracer still reaches every layer it names.

``perfbench/tracing.py`` wraps package functions and methods by name, and
counts ``fix_edge`` calls through the two method names ``fix_edge`` returns.
A rename, or a ``fix_edge`` that bypasses those names, would otherwise show
only when the benchmark runs with ``--trace 1``.
"""

import importlib.util
from pathlib import Path

import pytest

from hamdecomp import Mode, PartialState, bsp, build_union, gen_instance, oracle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for owner, attr, name, _, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_one_fix_body_under_both_traced_names():
    assert PartialState._fix_undirected is PartialState._fix_directed


def test_fix_edge_calls_are_traced(tracing):
    tracer = tracing.Tracer()
    fix_calls = {}
    with tracing.installed(tracer):
        for i, mode in enumerate((Mode.UNDIRECTED, Mode.DIRECTED)):
            inst = gen_instance(12, mode, 0)
            before = tracer.inside["state.fix_edge"][0]
            start = tracer.begin_op(i)
            bsp.solve_bsp(build_union(inst.x, inst.y), inst.x, inst.y)
            tracer.end_op(start)
            fix_calls[mode] = tracer.inside["state.fix_edge"][0] - before
        inst = gen_instance(8, Mode.UNDIRECTED, 0)
        start = tracer.begin_op(2)
        oracle.enumerate_decompositions(build_union(inst.x, inst.y))
        tracer.end_op(start)
    assert fix_calls[Mode.UNDIRECTED] > 0
    assert fix_calls[Mode.DIRECTED] > 0
    assert tracer.inside["bsp.solve_bsp"][0] == 2
    # the oracle enumerates on its own state, never through the engine it checks
    assert tracer.inside["oracle.enumerate_decompositions"][0] == 1
    assert tracer.counters["oracle.enumerate_decompositions.fix_edge_calls"] == 0
    # the wrappers are gone again
    assert not hasattr(PartialState._fix_undirected, "__wrapped__")
    assert not hasattr(PartialState._fix_directed, "__wrapped__")
