import pytest

from hamdecomp import HamCycle, Instance, Mode, build_union


@pytest.fixture
def feasible6():
    """Undirected 6-vertex instance with a second decomposition.

    One witness pair: z = 1-4-5-3-2-6, w = 1-2-3-4-6-5. The union doubles
    the edge {2,3}.
    """
    x = HamCycle((1, 2, 3, 4, 5, 6), Mode.UNDIRECTED)
    y = HamCycle((1, 4, 6, 2, 3, 5), Mode.UNDIRECTED)
    return Instance(x, y)


@pytest.fixture
def rigid6():
    """Directed 6-vertex instance whose only decomposition is the input pair.

    Chain fixing solves it without branching: fixing (1,2) forces every other
    arc. The union doubles the arc (2,3).
    """
    x = HamCycle((1, 2, 3, 4, 5, 6), Mode.DIRECTED)
    y = HamCycle((1, 4, 6, 2, 3, 5), Mode.DIRECTED)
    return Instance(x, y)


@pytest.fixture
def feasible6_union(feasible6):
    return build_union(feasible6.x, feasible6.y)


@pytest.fixture
def rigid6_union(rigid6):
    return build_union(rigid6.x, rigid6.y)
