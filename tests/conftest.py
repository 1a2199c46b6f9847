import pytest

from expocolor.graphs import Graph, make_complete, make_cycle, make_grotzsch


@pytest.fixture
def k4():
    return make_complete(4)


@pytest.fixture
def c5():
    return make_cycle(5)


@pytest.fixture
def grotzsch():
    return make_grotzsch()


@pytest.fixture
def wheel5():
    """The wheel W_5: a 5-cycle 0..4 and a hub 5 joined to all of it (chi 4)."""
    rim = [(i, (i + 1) % 5) for i in range(5)]
    return Graph.from_edges(6, rim + [(i, 5) for i in range(5)])


@pytest.fixture
def moser_spindle():
    """The Moser spindle: two rhombi of triangles sharing vertex 0, their
    far tips 3 and 6 joined (7 vertices, 11 edges, chi 4)."""
    rhombus = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    other = [(0, 4), (0, 5), (4, 5), (4, 6), (5, 6)]
    return Graph.from_edges(7, rhombus + other + [(3, 6)])
