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


@pytest.fixture
def chvatal():
    """The Chvátal graph: 12 vertices, 24 edges, 4-regular, triangle-free, chi 4."""
    adjacency = {
        0: (1, 4, 6, 9),
        1: (2, 5, 7),
        2: (3, 6, 8),
        3: (4, 7, 9),
        4: (5, 8),
        5: (10, 11),
        6: (10, 11),
        7: (8, 11),
        8: (10,),
        9: (10, 11),
    }
    return Graph.from_edges(12, [(u, v) for u, vs in adjacency.items() for v in vs])
