"""The oracle referees the solvers, so it must not run on their engine.

With ``PartialState.__init__`` made to raise, so that no search state can be
built, the oracle still reproduces its pinned censuses and still answers
whether a second decomposition exists.
"""

import hashlib

import pytest

from hamdecomp import (
    Mode,
    build_union,
    enumerate_decompositions,
    gen_instance,
    second_decomposition_exists,
    state,
)
from test_oracle import CENSUS


def _engine_used(*args, **kwargs):
    raise AssertionError("the oracle called the solvers' search engine")


@pytest.fixture
def no_engine(monkeypatch):
    monkeypatch.setattr(state.PartialState, "__init__", _engine_used)


@pytest.mark.parametrize("mode,n,seed,count,digest", [row for row in CENSUS if row[1] == 12])
def test_census_without_the_engine(no_engine, mode, n, seed, count, digest):
    inst = gen_instance(n, Mode(mode), seed)
    g = build_union(inst.x, inst.y)
    with pytest.raises(AssertionError):
        state.PartialState(g)  # the engine is really switched off
    ds = enumerate_decompositions(g)
    assert ds.count == count
    assert hashlib.sha256(repr(ds.decompositions).encode()).hexdigest() == digest
    # the input pair is always in the census, so any other pair is a second one
    assert second_decomposition_exists(g, inst.x, inst.y) == (count > 1)
