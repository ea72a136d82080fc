"""The package namespace is the public surface and nothing more: build a
union, solve it, generate, read, write and verify. Engine internals are
imported from their modules (``hamdecomp.state``, ``hamdecomp.bcef``,
``hamdecomp.multigraph``, ``hamdecomp.instances``, ``hamdecomp.errors``)."""

import types

import hamdecomp

TYPES = [
    "Certificate", "DecompositionSet", "HamCycle", "Instance", "Mode", "SolveLimits",
    "SolveResult", "SolveStats", "SolveStatus", "UnionMultigraph",
]
FUNCTIONS = [
    "build_union", "certificate_of", "decomposition_problems", "enumerate_decompositions",
    "gen_instance", "parse_certificate", "parse_instance", "second_decomposition_exists",
    "solve_bcef", "solve_bsp", "write_certificate", "write_instance",
]
ERRORS = [
    "HamdecompError", "ParseError", "InstanceSyntaxError", "InstanceSemanticError",
    "InvalidCycleError", "MismatchedInstancesError", "TooLargeError",
]


def test_all_is_the_public_surface():
    assert len(TYPES + FUNCTIONS + ERRORS) == 29
    assert sorted(hamdecomp.__all__) == sorted(TYPES + FUNCTIONS + ERRORS)


def test_every_exported_name_resolves():
    for name in hamdecomp.__all__:
        assert getattr(hamdecomp, name) is not None, name


def test_no_other_public_attribute_but_submodules():
    extra = {
        name for name in dir(hamdecomp)
        if not name.startswith("_") and name not in hamdecomp.__all__
    }
    for name in extra:
        value = getattr(hamdecomp, name)
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"hamdecomp.{name}", name
