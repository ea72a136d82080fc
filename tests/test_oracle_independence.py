"""The oracle referees the solvers, so it must not run on their engine.

With ``PartialState.__init__`` made to raise, so that no search state can be
built, and the solvers' helpers for shared edges (``parallel_edge_pairs`` and
``preprocess_parallel``) made to raise wherever they are looked up, the
oracle still reproduces its pinned censuses, the unions that share most of
their edges among them, and still answers whether a second decomposition
exists. So it finds the two copies of a shared edge by itself.
"""

import hashlib

import pytest

import hamdecomp
from hamdecomp import (
    bcef,
    build_union,
    enumerate_decompositions,
    multigraph,
    second_decomposition_exists,
    state,
)
from test_oracle import CENSUS, census_cycles, census_id


def _engine_used(*args, **kwargs):
    raise AssertionError("the oracle called the solvers' search engine or its helpers")


@pytest.fixture
def no_engine(monkeypatch):
    monkeypatch.setattr(state.PartialState, "__init__", _engine_used)
    # each helper in every namespace it is looked up in: its own module,
    # bcef's import of it and the package's
    for module in (multigraph, bcef, hamdecomp):
        monkeypatch.setattr(module, "parallel_edge_pairs", _engine_used)
    for module in (bcef, hamdecomp):
        monkeypatch.setattr(module, "preprocess_parallel", _engine_used)


@pytest.mark.parametrize("mode,n,pair,count,digest", [row for row in CENSUS if row[1] == 12],
                         ids=census_id)
def test_census_without_the_engine(no_engine, mode, n, pair, count, digest):
    x, y = census_cycles(mode, n, pair)
    g = build_union(x, y)
    # the engine and the helpers are really switched off
    for switched_off in (lambda: state.PartialState(g),
                         lambda: multigraph.parallel_edge_pairs(g),
                         lambda: bcef.parallel_edge_pairs(g),
                         lambda: hamdecomp.parallel_edge_pairs(g),
                         lambda: bcef.preprocess_parallel(None, g),
                         lambda: hamdecomp.preprocess_parallel(None, g)):
        with pytest.raises(AssertionError):
            switched_off()
    ds = enumerate_decompositions(g)
    assert ds.count == count
    assert hashlib.sha256(repr(ds.decompositions).encode()).hexdigest() == digest
    # the input pair is always in the census, so any other pair is a second one
    assert second_decomposition_exists(g, x, y) == (count > 1)
