"""Host-graph utilities: construction, bipartiteness, odd cycles, chi."""

import hashlib
import itertools
import json
import random

import pytest

from expocolor.errors import CapacityError, ParityDomainError
from expocolor.graphs import (
    CycleWitness,
    Graph,
    bipartition,
    chromatic_number_exact,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    is_proper_coloring,
    least_odd_cycle,
    load_graph,
    make_complete,
    make_cycle,
    make_grotzsch,
    make_mycielski,
    odd_cycle_in,
    odd_cycles,
    save_graph,
)


def test_graph_construction_and_validation():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (1, 3)])
    assert g.vertex_count == 4
    assert g.edge_count == 4
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 3)
    assert g.degree(1) == 3
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (1, 3)]


def test_graph_rejects_loops_and_bad_ids():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_graph_rejects_asymmetric_adjacency_at_first_pair():
    # 0 lists 2 and 1 lists 2, but 2 lists neither: (0,2) is the first
    # directed edge, in vertex then neighbour order, without its reverse
    with pytest.raises(ValueError, match=r"^asymmetric edge \(0,2\)$"):
        Graph(3, ((1, 2), (0, 2), ()))
    # every other check runs over all vertices before symmetry does
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, ((1, 2), (0,), (5,)))


def test_equal_graphs_hash_equal():
    # the frozen dataclass hashes its fields, so a graph built from edges
    # and the same graph given as adjacency lists are interchangeable keys
    built = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    listed = Graph(3, ((1, 2), (0, 2), (0, 1)))
    assert built == listed and built is not listed
    assert hash(built) == hash(listed)
    assert len({built, listed}) == 1


def test_make_cycle_rejects_even_and_tiny():
    with pytest.raises(ParityDomainError):
        make_cycle(4)
    with pytest.raises(ParityDomainError):
        make_cycle(1)
    assert make_cycle(5).edge_count == 5


def test_mycielski_of_k2_is_a_five_cycle():
    m = make_mycielski(make_complete(2))
    assert m.vertex_count == 5
    assert m.edges() == [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]
    assert chromatic_number_exact(m) == 3


def test_grotzsch_shape(grotzsch):
    assert grotzsch.vertex_count == 11
    assert grotzsch.edge_count == 20
    # triangle-free: no odd cycle shorter than 5
    assert all(len(c) >= 5 for c in odd_cycles(grotzsch, 5))


def test_chvatal_shape(chvatal):
    assert chvatal.vertex_count == 12
    assert chvatal.edge_count == 24
    assert {chvatal.degree(v) for v in range(12)} == {4}
    assert all(len(c) >= 5 for c in odd_cycles(chvatal, 5))
    assert chromatic_number_exact(chvatal) == 4


def test_mycielski_raises_chromatic_number():
    g = make_complete(2)
    for expected in (3, 4):
        g = make_mycielski(g)
        assert chromatic_number_exact(g) == expected


def test_is_proper_coloring():
    g = make_cycle(5)
    assert is_proper_coloring(g, [1, 2, 1, 2, 3], 3)
    assert not is_proper_coloring(g, [1, 1, 2, 1, 2], 3)
    assert not is_proper_coloring(g, [1, 2, 1, 2, 4], 3)


def test_bipartition_even_path_and_cycle():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    parts = bipartition(path)
    assert parts is not None
    a, b = parts
    assert a | b == set(range(4)) and not a & b
    for u, v in path.edges():
        assert (u in a) != (v in a)
    assert bipartition(make_cycle(5)) is None
    assert bipartition(make_complete(3)) is None


def test_bipartition_is_deterministic():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert bipartition(g) == bipartition(g)
    a, _ = bipartition(g)
    # the smallest vertex of each component lands on the first side
    assert {0, 2, 4} <= a


def _seeded_graphs(count, seed, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.choice((0.1, 0.2, 0.35, 0.6))
        yield Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )


def test_bipartition_and_odd_cycle_in_pinned():
    # outputs on 200 seeded graphs (91 of them not bipartite), as recorded
    # from the BFS that stopped at the first same-side edge
    out = []
    for g in _seeded_graphs(200, 20, 16):
        parts = bipartition(g)
        wit = odd_cycle_in(g)
        out.append((
            None if parts is None else (sorted(parts[0]), sorted(parts[1])),
            None if wit is None else wit.vertices,
        ))
    assert sum(parts is None for parts, _ in out) == 91
    assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == "6db0e203dfb8732d"


def test_odd_cycle_in_finds_a_witness(k4):
    wit = odd_cycle_in(k4)
    assert wit is not None
    wit.validate_in(k4)
    assert len(wit) % 2 == 1
    assert odd_cycle_in(make_cycle(5)) is not None
    assert odd_cycle_in(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) is None


def test_odd_cycles_enumerates_k4_triangles(k4):
    cycles = list(odd_cycles(k4, 4))
    assert len(cycles) == 4
    assert {c.vertices for c in cycles} == {
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)
    }
    # no odd cycle of length > 3 fits in 4 vertices
    assert list(odd_cycles(k4, 99)) == cycles


def test_odd_cycles_c5(c5):
    assert [c.vertices for c in odd_cycles(c5, 5)] == [(0, 1, 2, 3, 4)]
    assert list(odd_cycles(c5, 3)) == []


def test_odd_cycles_long_cycle_needs_no_recursion():
    # a path of 1201 vertices is deeper than the interpreter's recursion limit
    assert [c.vertices for c in odd_cycles(make_cycle(1201), 1201)] == [tuple(range(1201))]


@pytest.mark.parametrize(
    "mycielski_rounds, max_len, count, digest",
    [(0, 11, 146, "927b97a788af6fc5"), (1, 7, 10746, "13d7d6edb5d75fc3")],
)
def test_odd_cycles_order_pinned(grotzsch, mycielski_rounds, max_len, count, digest):
    # the full output sequence on Grötzsch and its Mycielskian, as recorded
    # from the recursive enumeration
    g = grotzsch
    for _ in range(mycielski_rounds):
        g = make_mycielski(g)
    cycles = [c.vertices for c in odd_cycles(g, max_len)]
    assert len(cycles) == count
    assert hashlib.sha256(repr(cycles).encode()).hexdigest()[:16] == digest


def test_least_odd_cycle_is_first_accepted_in_odd_cycles_order(k4, grotzsch):
    hosts = [k4, grotzsch, make_cycle(7), make_complete(5)]
    hosts += [g for g in _seeded_graphs(80, 21, 10) if g.vertex_count >= 3]
    for g in hosts:
        cycles = [c.vertices for c in odd_cycles(g, g.vertex_count)]
        # tuple-of-int hashes do not depend on the hash seed
        for accept in (
            lambda vs: True,
            lambda vs: False,
            lambda vs: hash(vs) % 3 == 0,
            lambda vs: len(vs) > 3 and hash(vs) % 2 == 0,
        ):
            got = least_odd_cycle(g, accept)
            want = next((vs for vs in cycles if accept(vs)), None)
            assert (got and got.vertices) == want


def test_cycle_witness_canonicalization():
    assert CycleWitness.canonical((2, 0, 1)).vertices == (0, 1, 2)
    assert CycleWitness.canonical((2, 1, 0)).vertices == (0, 1, 2)
    assert CycleWitness.canonical((3, 4, 0, 1, 2)).vertices == (0, 1, 2, 3, 4)
    assert CycleWitness.canonical((3, 2, 1, 0, 4)).vertices == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        CycleWitness((0, 1, 2, 3))
    with pytest.raises(ValueError):
        CycleWitness((0, 1, 1))


def test_chromatic_number_small_cases():
    assert chromatic_number_exact(Graph.from_edges(1, [])) == 1
    assert chromatic_number_exact(Graph.from_edges(3, [])) == 1
    assert chromatic_number_exact(Graph.from_edges(2, [(0, 1)])) == 2
    assert chromatic_number_exact(make_cycle(7)) == 3
    for k in (2, 3, 4, 5):
        assert chromatic_number_exact(make_complete(k)) == k
    assert chromatic_number_exact(make_grotzsch()) == 4


def test_chromatic_number_brute_force_cross_check():
    # independent oracle: try all colorings with k colors, smallest k wins
    def brute_chi(g):
        for k in range(1, g.vertex_count + 1):
            for coloring in itertools.product(range(1, k + 1), repeat=g.vertex_count):
                if is_proper_coloring(g, coloring, k):
                    return k
        return g.vertex_count

    graphs = [
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
        make_cycle(5),
        make_complete(4),
        Graph.from_edges(6, [(0, 1), (2, 3), (1, 2), (3, 4), (4, 5), (5, 0)]),
    ]
    for g in graphs:
        assert chromatic_number_exact(g) == brute_chi(g)


def test_chromatic_number_capacity_guard():
    huge = Graph.from_edges(300, [])
    with pytest.raises(CapacityError):
        chromatic_number_exact(huge)


def test_json_round_trip(tmp_path, grotzsch):
    d = graph_to_json_dict(grotzsch)
    assert d["n"] == 11
    assert graph_from_json_dict(d) == grotzsch
    assert graph_from_json_dict(json.loads(json.dumps(d))) == grotzsch
    path = tmp_path / "g.json"
    save_graph(grotzsch, path)
    assert load_graph(path) == grotzsch


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        graph_from_json_dict({"edges": [[0, 1]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 2, "edges": [[0, 2]]})


# Graph JSON that int() would read as a graph: it truncates a float,
# parses a string and takes true as 1.
NON_INTEGER_GRAPHS = {
    "float n": {"n": 4.9, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
    "float id": {"n": 4, "edges": [[0, 1.7], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
    "boolean n": {"n": True, "edges": []},
    "boolean id": {"n": 2, "edges": [[0, True]]},
    "string n": {"n": "4", "edges": [[0, 1]]},
    "string id": {"n": 2, "edges": [["0", 1]]},
}


@pytest.mark.parametrize("d", NON_INTEGER_GRAPHS.values(), ids=NON_INTEGER_GRAPHS)
def test_json_rejects_non_integer_n_and_ids(d):
    with pytest.raises(ValueError, match="malformed graph JSON"):
        graph_from_json_dict(d)


def test_dot_output_mentions_every_edge(c5):
    dot = graph_to_dot(c5)
    assert dot.startswith("graph")
    for u, v in c5.edges():
        assert f"{u} -- {v}" in dot
