"""Exponential-graph construction checked against the raw definition."""

import itertools

import numpy as np
import pytest

from expocolor.coloring import even_class_subgraph
from expocolor.errors import CapacityError
from expocolor.expo import (
    DEFAULT_CAP,
    ComponentClass,
    ExpoGraph,
    _check_assignment,
    allowed_colors,
    allowed_table,
    assignment_grid,
    build_exponential,
    components,
    is_isolated,
    isolated_rows,
    neighbor_pairs,
    neighbors,
    restrict,
    row_index,
)
from expocolor.graphs import CycleWitness, Graph, make_complete, make_cycle


def brute_adjacent(h, f, g, k, cycle_target=False):
    """Adjacency straight from the definition, no shortcuts."""
    def ok(x, y):
        if cycle_target:
            return (x - y) % k in (1, k - 1)
        return x != y

    for u, v in h.edges():
        if not ok(f[u], g[v]) or not ok(g[u], f[v]):
            return False
    return True


def component_of(h, f, k, cap=DEFAULT_CAP, cycle_target=False):
    """BFS closure of f under adjacency; capacity error past cap vertices.

    The single-assignment reference that :func:`expocolor.expo.components`
    is checked against.
    """
    start = tuple(f)
    _check_assignment(h, start, k)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in neighbors(h, cur, k, cycle_target):
                if g not in seen:
                    seen.add(g)
                    if len(seen) > cap:
                        raise CapacityError(
                            f"component exceeds cap {cap}", required=len(seen), cap=cap
                        )
                    nxt.append(g)
        frontier = nxt
    return seen


def all_assignments(h, k):
    return itertools.product(range(1, k + 1), repeat=h.vertex_count)


def test_are_adjacent_cycle_target_example():
    h = make_cycle(3)
    assert (2, 5, 2) in neighbors(h, (1, 3, 1), 5, cycle_target=True)
    assert (1, 3, 1) not in neighbors(h, (1, 3, 1), 5, cycle_target=True)


def brute_pairs(h, k, cycle_target=False):
    """Every ordered adjacent pair over the whole space, by the quadratic
    filter of the definition: (source rows, neighbor rows) in grid order."""
    def ok(x, y):
        if cycle_target:
            return (x - y) % k in (1, k - 1)
        return x != y

    ok_tab = np.array(
        [[x > 0 and y > 0 and ok(x, y) for y in range(k + 1)] for x in range(k + 1)]
    )
    rows = np.array(list(all_assignments(h, k)), dtype=np.int64)
    srcs, dsts = [], []
    # ok_g[v][x, b]: color x is compatible with g_b(v)
    ok_g = [ok_tab[:, rows[:, v]] for v in range(h.vertex_count)]
    for start in range(0, len(rows), 256):
        f = rows[start : start + 256]
        mask = np.ones((len(f), len(rows)), dtype=bool)
        for u, v in h.edges():
            # cell (a, b): f_a(u) ~ g_b(v) and g_b(u) ~ f_a(v)
            mask &= ok_g[v][f[:, u]] & ok_g[u][f[:, v]]
        src, dst = np.nonzero(mask)
        srcs.append(src + start)
        dsts.append(dst)
    src, dst = np.concatenate(srcs), np.concatenate(dsts)
    return src, rows[dst]


@pytest.mark.parametrize(
    "h, k, cyc",
    [
        (make_cycle(3), 3, False),
        (make_cycle(3), 5, True),
        (make_cycle(3), 7, True),
        (make_cycle(5), 3, False),
        (make_cycle(5), 5, True),
        (make_cycle(5), 7, True),
        (make_complete(4), 3, False),
    ],
    ids=["c3-k3", "c3-k5", "c3-k7", "c5-k3", "c5-k5", "c5-k7", "k4-k3"],
)
def test_neighbor_pairs_equals_quadratic_filter(h, k, cyc):
    want_src, want_gs = brute_pairs(h, k, cyc)
    rows = assignment_grid(h.vertex_count, k)
    src, gs = neighbor_pairs(h, rows, k, cyc)
    assert np.array_equal(src, want_src)
    assert np.array_equal(gs, want_gs)
    assert np.array_equal(row_index(rows, k), np.arange(len(rows)))
    # the one-row functions agree with the same filter, in the same order
    starts = np.searchsorted(want_src, np.arange(len(rows) + 1))
    for i, f in enumerate(map(tuple, rows.tolist())):
        want = [tuple(g) for g in want_gs[starts[i] : starts[i + 1]].tolist()]
        assert list(neighbors(h, f, k, cyc)) == want
        assert is_isolated(h, f, k, cyc) == (not want)


def test_neighbors_equals_brute_filter():
    cases = [
        (make_cycle(3), 3, False),
        (make_cycle(3), 5, True),
        (make_complete(4), 3, False),
    ]
    for h, k, cyc in cases:
        rows = np.array(list(all_assignments(h, k)))
        src, gs = neighbor_pairs(h, rows, k, cyc)
        stacked = [(rows[i].tolist(), g) for i, g in zip(src, gs.tolist())]
        brute = []
        for f in all_assignments(h, k):
            got = list(neighbors(h, f, k, cyc))
            want = [
                g for g in all_assignments(h, k) if brute_adjacent(h, f, g, k, cyc)
            ]
            assert got == want, (h.vertex_count, k, cyc, f)
            assert is_isolated(h, f, k, cyc) == (not want)
            brute += [(list(f), list(g)) for g in want]
        assert stacked == brute, (h.vertex_count, k, cyc)


def test_neighbor_pairs_rejects_bad_stacks():
    h = make_cycle(3)
    with pytest.raises(ValueError):
        neighbor_pairs(h, np.ones((2, 4), dtype=np.int8), 3)
    with pytest.raises(ValueError):
        neighbor_pairs(h, np.array([[1, 2, 4]]), 3)
    with pytest.raises(ValueError):
        neighbor_pairs(h, np.array([[0, 2, 3]]), 3)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("cyc", [False, True], ids=["complete", "cycle"])
def test_allowed_table_matches_allowed_colors_row_by_row(k, cyc):
    # built vertex-major from the transposed stack; each row must read
    # exactly the per-row sets, on hosts with isolated vertices too
    hosts = [make_complete(4), make_cycle(7), Graph.from_edges(6, [(0, 1), (1, 2), (0, 2)])]
    rng = np.random.default_rng(k + 2 * cyc)
    for h in hosts:
        for dtype in (np.int8, np.uint8, np.int64):
            fs = rng.integers(1, k + 1, size=(300, h.vertex_count)).astype(dtype)
            table = allowed_table(h, fs, k, cyc)
            assert table.shape == (300, h.vertex_count, k)
            for f, got in zip(fs.tolist(), table.tolist()):
                want = allowed_colors(h, f, k, cyc)
                assert [tuple(c + 1 for c in range(k) if row[c]) for row in got] == want
    assert allowed_table(make_cycle(3), np.ones((0, 3), np.int8), k, cyc).shape == (0, 3, k)


@pytest.mark.parametrize("k, cyc", [(3, False), (5, True)], ids=["K3", "C5"])
def test_isolated_rows_matches_allowed_table_and_is_isolated(k, cyc, grotzsch):
    # the bitmask AND must mark exactly the rows with an empty allowed set,
    # on hosts with isolated vertices too, and agree with the scalar test
    hosts = [
        make_complete(4),
        make_cycle(7),
        grotzsch,
        Graph.from_edges(6, [(0, 1), (1, 2), (0, 2)]),
    ]
    rng = np.random.default_rng(k)
    seen = set()
    for h in hosts:
        for dtype in (np.int8, np.uint8, np.int64):
            fs = rng.integers(1, k + 1, size=(400, h.vertex_count)).astype(dtype)
            got = isolated_rows(h, fs, k, cyc)
            assert got.dtype == bool and got.shape == (400,)
            want = ~allowed_table(h, fs, k, cyc).any(axis=2).all(axis=1)
            assert got.tolist() == want.tolist()
            assert got.tolist() == [is_isolated(h, f, k, cyc) for f in fs.tolist()]
            seen.update(got.tolist())
    assert seen == {False, True}
    assert isolated_rows(make_cycle(3), np.ones((0, 3), np.int8), k, cyc).shape == (0,)


def test_neighbors_is_product_of_allowed_sets():
    h = make_complete(4)
    f = (1, 1, 2, 2)
    allowed = allowed_colors(h, f, 3)
    assert allowed == [(3,), (3,), (3,), (3,)]
    assert list(neighbors(h, f, 3)) == [(3, 3, 3, 3)]


def test_build_exponential_sizes():
    assert build_exponential(make_cycle(3), 3).vertex_count == 27
    eg5 = build_exponential(make_cycle(5), 3)
    assert eg5.vertex_count == 243
    # self-loops are exactly the proper 3-colorings of the host
    assert len(eg5.loops) == 30
    assert build_exponential(make_complete(4), 3).vertex_count == 81


def test_build_exponential_loops_not_in_adjacency():
    eg = build_exponential(make_cycle(5), 3)
    for i in eg.loops:
        assert i not in eg.adjacency[i]


def test_build_exponential_capacity():
    with pytest.raises(CapacityError) as err:
        build_exponential(make_cycle(5), 3, cap=100)
    assert err.value.required == 243
    assert err.value.cap == 100


def test_component_of_k4_constant(k4):
    comp = component_of(k4, (1, 1, 1, 1), 3)
    # the two-or-fewer-color assignments form one component of 45
    assert len(comp) == 45
    assert (2, 3, 2, 3) in comp
    assert (1, 2, 3, 1) not in comp
    with pytest.raises(CapacityError):
        component_of(k4, (1, 1, 1, 1), 3, cap=10)


def test_classify_component_kinds(k4, c5):
    # the component of f has the expected class, and induced on its own
    # it is a single component of that class
    cases = [
        (k4, (1, 1, 1, 1), ComponentClass.THREE_CHROMATIC),
        # an isolated assignment is its own trivial component
        (k4, (1, 2, 3, 1), ComponentClass.ISOLATED),
        # a proper coloring of the host carries a self-loop
        (c5, (1, 2, 1, 2, 3), ComponentClass.REFLEXIVE_VERTEX),
    ]
    for h, f, want in cases:
        eg = build_exponential(h, 3)
        i = eg.vertices.index(f)
        members, cls = next(c for c in components(eg) if i in c[0])
        assert cls is want
        comp = ExpoGraph.from_rows(h, 3, False, np.array(eg.vertices)[list(members)])
        assert components(comp) == [(tuple(range(len(members))), want)]


@pytest.mark.parametrize(
    "host, classes",
    [
        ("k4", {"Isolated": 36, "ThreeChromatic": 1}),
        ("c5", {"ReflexiveVertex": 2, "ThreeChromatic": 1}),
        ("moser_spindle", {"Isolated": 1728, "Bipartite": 30, "ThreeChromatic": 1}),
    ],
)
def test_components_match_component_of(host, classes, request):
    h = request.getfixturevalue(host)
    eg = build_exponential(h, 3)
    found = components(eg)
    lowest = [members[0] for members, _ in found]
    assert lowest == sorted(lowest)
    everyone = sorted(v for members, _ in found for v in members)
    assert everyone == list(range(eg.vertex_count))
    hist = {}
    for members, cls in found:
        assert list(members) == sorted(members)
        want = component_of(h, eg.vertices[members[0]], 3)
        assert {eg.vertices[m] for m in members} == want
        assert (cls is ComponentClass.REFLEXIVE_VERTEX) == bool(eg.loops & set(members))
        hist[cls.value] = hist.get(cls.value, 0) + 1
    assert hist == classes


def test_from_rows_rejects_unsorted_or_duplicate_rows(c5):
    grid = assignment_grid(c5.vertex_count, 3)
    for rows in (grid[[0, 2, 1]], grid[[0, 1, 1, 2]], grid[::-1]):
        with pytest.raises(ValueError, match="sorted"):
            ExpoGraph.from_rows(c5, 3, False, rows)
    assert ExpoGraph.from_rows(c5, 3, False, grid[[0, 1, 2]]).vertex_count == 3


def test_from_rows_is_the_induced_subgraph(c5):
    # any sorted stack of rows: adjacency and loops straight from the
    # definition, with far ends outside the stack dropped
    rng = np.random.default_rng(11)
    for h, k, cycle_target in ((c5, 3, False), (make_cycle(3), 5, True)):
        grid = assignment_grid(h.vertex_count, k)
        for size in (0, 1, 17, len(grid) // 2):
            rows = grid[np.sort(rng.choice(len(grid), size, replace=False))]
            eg = ExpoGraph.from_rows(h, k, cycle_target, rows)
            verts = [tuple(r) for r in rows.tolist()]
            assert eg.vertices == tuple(verts)
            for i, f in enumerate(verts):
                adj = [
                    j
                    for j, g in enumerate(verts)
                    if j != i and brute_adjacent(h, f, g, k, cycle_target)
                ]
                assert list(eg.adjacency[i]) == adj
                assert (i in eg.loops) == brute_adjacent(h, f, f, k, cycle_target)


def test_restrict_projects_and_validates(k4):
    tri = CycleWitness((0, 1, 2))
    assert restrict(k4, (1, 2, 3, 1), tri) == (1, 2, 3)
    with pytest.raises(ValueError):
        restrict(k4, (1, 2, 3), tri)
    with pytest.raises(ValueError):
        restrict(make_cycle(5), (1, 2, 3, 1, 2), tri)  # 0-2 not a C_5 edge


def test_restrict_preserves_adjacency(k4):
    # restriction to a host cycle is a homomorphism of exponential graphs
    tri = CycleWitness((0, 1, 2))
    c3 = make_cycle(3)
    for f in itertools.product((1, 2, 3), repeat=4):
        for g in neighbors(k4, f, 3):
            assert brute_adjacent(c3, restrict(k4, f, tri), restrict(k4, g, tri), 3)


def test_to_graph_gives_the_graph_the_checked_constructor_accepts(c5, k4):
    # to_graph skips Graph's checks: from_rows must already meet them
    for eg in (build_exponential(c5, 3), build_exponential(k4, 3), even_class_subgraph(3)):
        g = eg.to_graph()
        checked = Graph(eg.vertex_count, eg.adjacency)
        assert g == checked and hash(g) == hash(checked)


def test_expo_graph_helpers(c5):
    eg = build_exponential(c5, 3)
    assert eg.vertices.index((1, 1, 1, 1, 1)) == 0
    g = eg.to_graph()
    assert g.vertex_count == eg.vertex_count
    assert g.neighbors == eg.adjacency
