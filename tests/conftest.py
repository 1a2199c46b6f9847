import pytest

from expocolor.graphs import Graph, make_complete, make_cycle, make_grotzsch

pytest.register_assert_rewrite("hosts")
from hosts import CHVATAL, MOSER


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
    return MOSER


@pytest.fixture
def chvatal():
    return CHVATAL
