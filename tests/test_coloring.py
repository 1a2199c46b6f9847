"""The O(n) coloring routines and the general-host pipeline."""

import itertools
import json

import numpy as np
import pytest

from expocolor import coloring, winding
from expocolor.coloring import (
    Branch,
    ColorVerdict,
    CycleCache,
    color_graph_baseline,
    color_in_kh,
    color_rows,
    color_rows_in_kh,
    color_vertex,
    color_vertex_ck,
    even_class_subgraph,
    find_even_cycle,
)
from expocolor.errors import (
    InvariantViolationError,
    IsolatedFunctionError,
    NoEvenCycleError,
    ParityDomainError,
)
from expocolor.expo import (
    ExpoGraph,
    allowed_colors,
    build_exponential,
    full_grid,
    is_isolated,
    isolated_rows,
    neighbor_pairs,
    neighbors,
    restrict,
    row_index,
)
from expocolor.graphs import (
    CycleWitness,
    least_odd_cycle,
    make_complete,
    make_cycle,
    make_mycielski,
    odd_cycle_in,
    odd_cycles,
)
from expocolor.winding import OddCycleCtx, in_even_class

from hosts import assert_same_colors, host_rows, isolated_row, kh_loop
from test_expo import brute_adjacent

CTX5 = OddCycleCtx.make(2, 3)


def test_color_vertex_validates_input():
    with pytest.raises(ParityDomainError):
        color_vertex((1, 2, 1, 2, 3), CTX5)  # 3 fixed points
    with pytest.raises(ValueError):
        color_vertex((1, 2, 1), CTX5)
    with pytest.raises(ValueError):
        color_vertex((0, 1, 1, 1, 1), CTX5)
    with pytest.raises(ValueError):
        color_vertex((1, 1, 1, 1, 4), CTX5)
    with pytest.raises(ValueError):
        color_vertex(np.array([1.0, 1.0, 1.0, 1.0, 1.0]), CTX5)
    with pytest.raises(ValueError):
        color_vertex((1, 1, 1, 1, 1), OddCycleCtx.make(2, 5))
    with pytest.raises(ValueError):
        color_vertex_ck((1, 1, 1, 1, 1), CTX5)  # k=3 context


def test_color_vertex_proper_on_even_pairs_n1():
    ctx = OddCycleCtx.make(1, 3)
    h = make_cycle(3)
    evens = [
        f for f in itertools.product((1, 2, 3), repeat=3) if in_even_class(f, 1)
    ]
    verdicts = {f: color_vertex(f, ctx) for f in evens}
    for f in evens:
        for g in neighbors(h, f, 3):
            assert verdicts[f].color != verdicts[g].color


@pytest.mark.parametrize(
    "call, row",
    [
        *(
            (color_vertex, row)
            for row in (
                np.array([1, 1, 1, 1, 257], dtype=np.int64),
                np.array([1, 1, 1, 1, -255], dtype=np.int64),
                np.array([1, 1, 1, 1, 257], dtype=np.uint16),
                np.array([1, 1, 1, 1, 2**40 + 1], dtype=np.int64),
                np.array([1, 1, 1, 1, -(2**63) + 1], dtype=np.int64),
                (1, 1, 1, 1, 257),
                (1, 1, 1, 1, 2**63 + 1),  # past int64, below 2**64: a float64 array
                (1, 1, 1, 1, 2**64 + 1),  # past int64 and uint64: an object array
                (1, 1, 1, 1, -(2**64)),
            )
        ),
        # the stack entry points raise their one-row case's error for such a row
        (lambda f, ctx: color_rows([[1] * 5, f], ctx), (1, 1, 1, 1, 2**64 + 1)),
        (lambda f, ctx: color_rows([[1] * 5, f], ctx), (1, 1, 1, 1, 2**64 - 255)),
        (lambda f, ctx: color_rows_in_kh(make_complete(4), [f[1:]]), (1, 1, 1, 1, 2**64)),
        (lambda f, ctx: color_rows_in_kh(make_complete(4), [f[1:]]), (1, 1, 1, 1, 2**63 + 1)),
    ],
)
def test_color_vertex_range_check_sees_values_before_the_cast(call, row):
    # Each bad value is 1 modulo 256: an int8 cast taken first would pass it.
    with pytest.raises(ValueError, match="1..3"):
        call(row, CTX5)


def test_color_rows_rejects_whole_stacks_of_the_wrong_shape_or_dtype():
    for fs in (np.ones((3, 4), dtype=np.int64), np.ones((2, 2, 5), dtype=np.int64)):
        with pytest.raises(ValueError, match="^assignment must have 5 entries$"):
            color_rows(fs, CTX5)
    with pytest.raises(ValueError, match="dtype float64"):
        color_rows(np.ones((3, 5)), CTX5)
    with pytest.raises(ValueError, match="assignment must have 5 entries"):
        color_vertex(np.ones((1, 5), dtype=np.int64), CTX5)
    empty = color_rows(np.zeros((0, 5), dtype=np.uint8), CTX5)
    assert empty.color.shape == empty.failed.shape == (0,) and empty.errors == []


# coloring.RowFeed against color_rows: a stack of C_13 rows, colored and
# failing on every check, fed as one stream of ids cut at seeded random
# lengths (single ids, pieces across several rows, and, with
# winding._BLOCK patched below the row length, pieces longer than a pass).
def _chord_rows(rng, ctx: OddCycleCtx, count: int) -> np.ndarray:
    """Rows whose chord steps are all 0 or ±2 mod k, so none is isolated;
    the parity of each is that of its nonzero steps, even or odd at random."""
    length, k = ctx.length, ctx.k
    rows = []
    while len(rows) < count:
        e = rng.integers(-1, 2, length)
        if e.sum() % k == 0:
            f = np.empty(length, dtype=np.int64)
            f[(2 * np.arange(length)) % length] = 1 + (rng.integers(k) + 2 * (np.cumsum(e) - e)) % k
            rows.append(f)
    return np.array(rows)


def _feed_stack(rng, ctx: OddCycleCtx) -> np.ndarray:
    rows = [_chord_rows(rng, ctx, 16), rng.integers(1, ctx.k + 1, (4, ctx.length))]
    for bad in (0, ctx.k + 1, -7, 200):
        row = _chord_rows(rng, ctx, 1)
        row[0, rng.integers(ctx.length)] = bad
        rows.append(row)
    stack = np.concatenate(rows)
    return stack[rng.permutation(len(stack))]


@pytest.mark.parametrize("block", [1, 4, 64])
@pytest.mark.parametrize(
    "k, edge, seed", [(3, None, 1), (3, (6, 7), 2), (5, None, 3), (7, (3, 2), 4)]
)
def test_row_feed_gives_the_colors_of_the_whole_stack(k, edge, seed, block, monkeypatch):
    ctx = OddCycleCtx.make(6, k, edge)
    rng = np.random.default_rng(seed)
    stack = _feed_stack(rng, ctx)
    want = color_rows(stack, ctx)
    kinds = {type(e) for e in want.errors}
    assert {ValueError, ParityDomainError} | ({IsolatedFunctionError} if k > 3 else set()) <= kinds
    assert len(want.failed) < len(stack)
    monkeypatch.setattr(winding, "_BLOCK", block)
    ids = stack.ravel().astype(np.int16 if seed % 2 else np.int64)
    feed = coloring.RowFeed(ctx)
    start = 0
    while start < len(ids):
        size = int(rng.choice([1, 1, 2, 3, 5, ctx.length, 2 * ctx.length + 3, 40]))
        feed.take(ids[start : start + size])
        start += size
    got = feed.colors()
    for name in ("color", "branch", "ell2", "p2", "failed"):
        have, expected = getattr(got, name), getattr(want, name)
        assert have.dtype == expected.dtype and np.array_equal(have, expected), name
    assert [(type(e), str(e)) for e in got.errors] == [(type(e), str(e)) for e in want.errors]
    assert got.cycle is None


def test_color_vertex_ck_proper_exhaustive_tiny():
    # cross-check at (3, 5): every adjacent even non-isolated pair gets
    # colors adjacent on the 5-cycle
    ctx = OddCycleCtx.make(1, 5)
    h = make_cycle(3)
    verdicts = {}
    for f in itertools.product(range(1, 6), repeat=3):
        if not in_even_class(f, 1):
            continue
        try:
            verdicts[f] = color_vertex_ck(f, ctx)
        except IsolatedFunctionError:
            continue
    assert verdicts
    pairs = 0
    for f, vf in verdicts.items():
        for g, vg in verdicts.items():
            if brute_adjacent(h, f, g, 5, cycle_target=True):
                pairs += 1
                assert (vf.color - vg.color) % 5 in (1, 4), (f, g)
    assert pairs > 0


def test_even_class_subgraph_sizes_and_no_loops():
    ke1 = even_class_subgraph(1)
    assert ke1.vertex_count == 21
    assert not ke1.loops
    assert even_class_subgraph(2).vertex_count == 153


def test_even_class_subgraph_is_induced_on_the_even_class():
    for n in (1, 2):
        eg = build_exponential(make_cycle(2 * n + 1), 3)
        keep = [i for i, f in enumerate(eg.vertices) if in_even_class(f, n)]
        rows = np.array(eg.vertices)[keep]
        assert even_class_subgraph(n) == ExpoGraph.from_rows(eg.host, 3, False, rows)


def test_baseline_proper_and_consistent():
    for n in (1, 2):
        ctx = OddCycleCtx.make(n, 3)
        ke = even_class_subgraph(n)
        colors = color_graph_baseline(ke, ctx)
        assert set(colors) == set(ke.vertices)
        for i, f in enumerate(ke.vertices):
            for j in ke.adjacency[i]:
                assert colors[f] != colors[ke.vertices[j]]
        for f in ke.vertices:
            if f[ctx.a] == f[ctx.b]:
                assert colors[f] == f[ctx.a]
                assert color_vertex(f, ctx).color == colors[f]


def test_baseline_validates_inputs():
    ke = even_class_subgraph(1)
    with pytest.raises(ValueError):
        color_graph_baseline(ke, CTX5)  # context for the wrong cycle


def test_find_even_cycle_k4(k4):
    from expocolor.expo import restrict

    cyc = find_even_cycle(k4, (1, 1, 1, 1))
    assert cyc.vertices == (0, 1, 2) == odd_cycle_in(k4).vertices
    # a two-valued assignment is even on every odd cycle, so C* serves it
    cyc = find_even_cycle(k4, (1, 2, 2, 1))
    assert cyc.vertices == (0, 1, 2)
    assert in_even_class(restrict(k4, (1, 2, 2, 1), cyc), len(cyc) // 2)
    with pytest.raises(IsolatedFunctionError):
        find_even_cycle(k4, (1, 2, 3, 1))


def test_find_even_cycle_fallback_skips_odd_parity():
    # bowtie: two triangles sharing vertex 2; f is proper (odd parity) on
    # the first triangle, C* = (0, 1, 2), and two-valued (even) on the
    # second.  So the enumeration fallback must run and skip the
    # odd-parity triangle.
    from expocolor.graphs import Graph

    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    f = (1, 2, 3, 1, 1)
    assert odd_cycle_in(bowtie).vertices == (0, 1, 2)
    cyc = find_even_cycle(bowtie, f)
    assert cyc.vertices == (2, 3, 4)


def test_find_even_cycle_parity_is_even(k4, grotzsch):
    import random

    from expocolor.expo import is_isolated, restrict

    rng = random.Random(3)
    for h in (k4, grotzsch):
        star = odd_cycle_in(h)
        found = 0
        while found < 25:
            f = tuple(rng.randint(1, 3) for _ in range(h.vertex_count))
            if is_isolated(h, f, 3):
                continue
            found += 1
            cyc = find_even_cycle(h, f)
            cyc.validate_in(h)
            assert in_even_class(restrict(h, f, cyc), len(cyc) // 2)
            # C* serves every row that is even on it
            if in_even_class(restrict(h, f, star), len(star) // 2):
                assert cyc == star


def test_find_even_cycle_fallback_is_bounded():
    # Mycielski(C_13) has 27 vertices and tens of thousands of odd cycles.
    # The fallback must return the least even cycle without listing them
    # all.  This row is even on C*, which find_even_cycle returns without
    # the fallback, so the fallback is called on it directly.
    h = make_mycielski(make_cycle(13))
    f = (3, 2, 3, 2, 2, 3, 2, 3, 3, 3, 2, 2, 3, 2, 3, 3, 2, 2, 3, 3, 2, 3, 2, 3, 2, 2, 3)

    def accept(vs):
        return in_even_class(tuple(f[v] for v in vs), len(vs) // 2)

    least = next(c for c in odd_cycles(h, 5) if accept(c.vertices))
    assert least_odd_cycle(h, accept) == least
    assert least.vertices == (0, 1, 13, 26, 14)
    assert find_even_cycle(h, f) == odd_cycle_in(h) == least


def test_find_even_cycle_none_exists(c5):
    # a proper coloring of the host C_5 has odd parity on the only odd
    # cycle there is, and it is not isolated (it neighbors itself)
    with pytest.raises(NoEvenCycleError):
        find_even_cycle(c5, (1, 2, 1, 2, 3))


def test_cycle_cache_rejects_duplicates_and_round_trips():
    cache = CycleCache()
    tri = CycleWitness((0, 1, 2))
    cache.append(tri)
    with pytest.raises(ValueError):
        cache.append(tri)
    cache.append(CycleWitness((0, 1, 4)))
    assert len(cache) == 2
    again = CycleCache.loads(cache.dumps())
    assert [c.vertices for c, _ in again] == [(0, 1, 2), (0, 1, 4)]
    with pytest.raises(ValueError):
        CycleCache.from_json_dict({"wrong": []})


@pytest.mark.parametrize(
    "cycles", [5, [5], [[0, 1.7, 2]], [[0, True, 2]], [["0", 1, 2]], [[0, None, 2]]]
)
def test_cycle_cache_rejects_non_integer_entries(cycles):
    # nothing is coerced: int() would read 1.7 and true as 1
    with pytest.raises(ValueError, match="malformed cycle-cache"):
        CycleCache.from_json_dict({"cycles": cycles})


def test_cycle_cache_scan_order():
    # seed with a cycle of odd parity for f; find_even must skip it and
    # return the later entry
    from expocolor.graphs import Graph

    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    f = (1, 2, 3, 1, 1)
    cache = CycleCache()
    cache.append(CycleWitness((0, 1, 2)))  # restriction (1,2,3): odd parity
    cache.append(CycleWitness((2, 3, 4)))  # restriction (3,1,1): even
    hit = cache.find_even(bowtie, f)
    assert hit is not None
    assert hit[0].vertices == (2, 3, 4)
    assert hit[2] == (3, 1, 1)  # f restricted to the cycle that serves it
    # insertion order is honored: an assignment even on the first entry
    # is served by it even when both would do
    hit2 = cache.find_even(bowtie, (1, 1, 2, 1, 2))
    assert hit2 is not None
    assert hit2[0].vertices == (0, 1, 2)


def test_color_in_kh_reuses_cache(k4):
    cache = CycleCache()
    seen = set()
    for f in itertools.product((1, 2), repeat=4):
        verdict, cache = color_in_kh(k4, f, cache)
        seen.add(verdict.color)
    assert len(cache) == 1  # one triangle serves the whole component
    assert len(seen) > 1
    with pytest.raises(IsolatedFunctionError):
        color_in_kh(k4, (1, 2, 3, 1), cache)


def test_color_in_kh_checks_assignment_once(k4, monkeypatch):
    from expocolor import expo

    calls = []
    real = expo._check_assignment
    monkeypatch.setattr(
        expo, "_check_assignment", lambda *args: calls.append(args) or real(*args)
    )
    cache = CycleCache()
    color_in_kh(k4, (1, 1, 1, 1), cache)  # miss: searches and caches a cycle
    color_in_kh(k4, (2, 2, 2, 2), cache)  # hit
    assert len(cache) == 1
    assert len(calls) == 2
    with pytest.raises(ValueError):
        color_in_kh(k4, (1, 1, 1, 4), CycleCache())
    with pytest.raises(ValueError):
        find_even_cycle(k4, (1, 1, 1))


def test_color_in_kh_restricts_a_row_once_per_cycle_it_scans(k4, monkeypatch):
    # the scan's restriction of the serving cycle is the one colored; a
    # cached entry that is no host cycle still fails the first row reaching it
    calls = []
    real = coloring.restrict
    monkeypatch.setattr(
        coloring, "restrict", lambda h, f, cyc: calls.append(cyc) or real(h, f, cyc)
    )
    cache = CycleCache()
    cache.append(CycleWitness((0, 1, 2)))
    want = color_in_kh(k4, (1, 2, 2, 1))[0]
    calls.clear()
    assert color_in_kh(k4, (1, 2, 2, 1), cache)[0] == want
    assert calls == [CycleWitness((0, 1, 2))]
    cache = _cache([(0, 1, 4)])
    with pytest.raises(ValueError, match=r"^\(1,4\) is not a host edge$"):
        color_in_kh(k4, (1, 2, 2, 1), cache)


def test_color_in_kh_proper_on_sampled_pairs(grotzsch):
    import random

    from expocolor.expo import allowed_colors, is_isolated

    rng = random.Random(11)
    cache = CycleCache()
    for _ in range(40):
        f = tuple(rng.randint(1, 3) for _ in range(11))
        if is_isolated(grotzsch, f, 3):
            continue
        vf, cache = color_in_kh(grotzsch, f, cache)
        g = tuple(rng.choice(opts) for opts in allowed_colors(grotzsch, f, 3))
        vg, cache = color_in_kh(grotzsch, g, cache)
        assert vf.color != vg.color


def test_color_in_kh_gives_plain_int_verdicts_for_every_row_type(grotzsch):
    # color_in_kh colors through the numpy-free color_row: a numpy row, or a
    # list of numpy ints, is read as its plain ints, and a row with a bool or
    # a float is no row of colors
    rows = host_rows(grotzsch, 4, count=10)
    for f in rows:
        want = color_in_kh(grotzsch, f)[0]
        for row in (
            tuple(f),
            bytes(f),
            np.array(f, dtype=np.int8),
            np.array(f, dtype=np.uint8),
            np.array(f, dtype=np.int64),
            list(np.array(f, dtype=np.int64)),
        ):
            got = color_in_kh(grotzsch, row)[0]
            assert got == want
            assert [type(v) for v in (got.color, got.ell2, got.p2)] == [int] * 3
    f = rows[0]
    for row in (
        np.array(f, dtype=bool),
        np.array(f, dtype=np.float64),
        [float(c) for c in f],
        [True] + f[1:],
        [np.True_] + f[1:],
    ):
        with pytest.raises(ValueError, match="colors must be integers"):
            color_in_kh(grotzsch, row)


# -- a stack on a general host against the one-row loop -----------------------


def _cache(cycles) -> CycleCache:
    cache = CycleCache()
    for cyc in cycles:
        cache.append(CycleWitness(tuple(cyc)))
    return cache


def _same_as_loop(h, rows, cycles):
    """color_rows_in_kh and the one-row loop from the same cache agree on
    the verdicts, the serving cycles, the rows that fail and their errors,
    and the final cache."""
    want, want_cache = kh_loop(h, rows, _cache(cycles))
    res, cache = color_rows_in_kh(h, np.array(rows), _cache(cycles))
    assert_same_colors(res, want)
    assert cache.entries == want_cache.entries
    return res, cache


@pytest.mark.parametrize("name", ["k4", "wheel5", "moser_spindle", "grotzsch", "chvatal"])
def test_color_rows_in_kh_matches_the_one_row_loop(name, request):
    h = request.getfixturevalue(name)
    rows = host_rows(h, 1)
    own = [list(c.vertices) for c, _ in kh_loop(h, rows)[1]]
    # the distinct cycles that rows of another seed find alone: several, in
    # an order that decides which of them serves a row
    other = list(dict.fromkeys(find_even_cycle(h, f).vertices for f in host_rows(h, 2)))
    bad = [0, 1, h.vertex_count]  # (1, |V|) is no host edge
    caches = {
        "empty": [],
        "preloaded": other,
        "reversed": other[::-1],
        "every-other": other[::2],
        "bad-first": [bad] + other,
        "bad-behind": other + [bad],
        "bad-never": own + [bad],  # every row is served before it
    }
    isolated = isolated_row(h, 3)
    out_of_range = rows[5][:3] + [4] + rows[5][4:]
    failures = {
        "none": {},
        "isolated": {13: isolated},
        "out-of-range": {13: out_of_range},
        "several": {2: isolated, 13: out_of_range, 14: isolated, 30: [0] * h.vertex_count},
    }
    for (cache_name, cycles), (failure, inserts) in itertools.product(
        caches.items(), failures.items()
    ):
        stack = list(rows)
        for r, row in inserts.items():
            stack.insert(r, row)
        res, _ = _same_as_loop(h, stack, cycles)
        if cache_name == "bad-first":  # every row fails, at its first check
            assert res.failed.tolist() == list(range(len(stack)))
            hosted = [e for r, e in zip(res.failed.tolist(), res.errors) if r not in inserts]
            assert all("not a host edge" in str(e) for e in hosted)
        elif cache_name in ("empty", "bad-never"):
            assert res.failed.tolist() == sorted(inserts)
    # a one-row call is the loop on that row
    _same_as_loop(h, rows[:1], [])
    res = color_rows_in_kh(h, np.array(rows[0]))[0]
    assert res.color.shape == (1,) and not len(res.failed)


def test_color_rows_in_kh_fails_every_row_that_reaches_a_cycle_not_of_the_host(moser_spindle):
    # rows odd on the first cached triangle reach the bad cycle behind it
    tri = (1, 2, 3)
    rows = host_rows(moser_spindle, 4)
    odd = [f for f in itertools.product((1, 2, 3), repeat=7)
           if not is_isolated(moser_spindle, f, 3) and not in_even_class([f[v] for v in tri], 1)]
    stack = rows[:8] + [list(odd[0])] + rows[8:] + [list(odd[1])]
    assert all(in_even_class([f[v] for v in tri], 1) for f in stack[:8])
    res, cache = _same_as_loop(moser_spindle, stack, [tri, [0, 1, 6]])
    reach = [r for r, f in enumerate(stack) if not in_even_class([f[v] for v in tri], 1)]
    assert res.failed.tolist() == reach and reach[0] == 8 and len(reach) > 1
    assert all("(1,6) is not a host edge" in str(e) for e in res.errors)
    assert len(cache) == 2  # no row gets as far as a search


def test_color_rows_in_kh_fails_each_miss_without_an_even_cycle():
    # C_1201 is its own only odd cycle: the first even row caches it, and
    # each row of odd parity on it misses and finds no cycle
    h = make_cycle(1201)
    rng = np.random.default_rng(6)
    even = [f for f in rng.integers(1, 4, size=(12, 1201)).tolist() if in_even_class(f, 600)]
    odd = [3] + [1, 2] * 600
    stack = [[1] * 1201] + even[:3] + [odd] + even[3:] + [odd]
    res, cache = _same_as_loop(h, stack, [])
    assert res.failed.tolist() == [4, len(stack) - 1]
    assert all(isinstance(e, NoEvenCycleError) for e in res.errors)
    assert [len(c) for c, _ in cache] == [1201]


@pytest.mark.parametrize("seed", [1, 5, 8])
def test_color_rows_in_kh_fails_each_row_where_the_decision_fails(seed, monkeypatch, request):
    # A side comparison stuck on ell/2 fails every distinct-endpoint
    # restriction, a miss's own row included (after it appended a cycle):
    # each such row is named, and the cache is the healthy run's, since
    # the cycles a row is served by do not depend on the decision.
    missed_and_failed = 0
    for name in ("wheel5", "moser_spindle", "grotzsch", "chvatal"):
        h = request.getfixturevalue(name)
        rows = host_rows(h, seed)
        healthy, full = color_rows_in_kh(h, np.array(rows))
        with monkeypatch.context() as m:
            m.setattr(coloring, "_side_of", lambda p2, ell2: 0)
            res, cache = _same_as_loop(h, rows, [])
        assert len(res.failed) > 0
        assert all(isinstance(e, InvariantViolationError) for e in res.errors)
        assert all("little path equals half the label" in str(e) for e in res.errors)
        assert cache.entries == full.entries
        misses = [int(np.flatnonzero(healthy.cycle == j)[0]) for j in range(len(full))]
        missed_and_failed += len(set(misses) & set(res.failed.tolist()))
    if seed != 8:  # with seed 8 no miss's own row meets a distinct-endpoint restriction
        assert missed_and_failed > 0


def test_color_rows_in_kh_rejects_whole_stacks_of_the_wrong_shape_or_dtype(k4):
    for fs in (np.ones((2, 5), np.int64), np.ones((2, 2, 4), np.int64), np.ones((2, 4))):
        cache = CycleCache()
        with pytest.raises(ValueError, match="assignment stack must be|dtype float64"):
            color_rows_in_kh(k4, fs, cache)
        assert len(cache) == 0
    res, cache = color_rows_in_kh(k4, np.ones((0, 4), np.uint8))
    assert res.color.shape == res.cycle.shape == res.failed.shape == (0,) and len(cache) == 0


# -- explicit coloring: a row's color comes from h and the row alone ---------


def _all_pairs(h):
    """Every non-isolated row of h, and each adjacent pair of them as
    indices into that stack."""
    grid = full_grid(h, 3, 10**6)
    live = grid[~isolated_rows(h, grid, 3)]
    src, gs = neighbor_pairs(h, live, 3)
    return live, src, np.searchsorted(row_index(live, 3), row_index(gs, 3))


def _sampled_pairs(h):
    """Seeded adjacent pairs of h, stacked, and their indices into the stack."""
    rows = np.array(host_rows(h, 4, 150))
    return rows, np.arange(0, len(rows), 2), np.arange(1, len(rows), 2)


def _alike_alone(h, rows, src, dst) -> int:
    """How many pairs (rows[src[i]], rows[dst[i]]) come out alike when each
    row is colored alone, by its own color_rows_in_kh call from an empty
    cache."""
    colors = np.array([color_rows_in_kh(h, f)[0].color[0] for f in rows])
    return int(np.sum(colors[src] == colors[dst]))


def _changed_by_order(h, rows, orders: int = 8) -> int:
    """How many colors of one color_rows_in_kh call on all rows change when
    the rows come in seeded shuffled orders."""
    want = color_rows_in_kh(h, rows)[0].color
    rng = np.random.default_rng(5)
    changed = 0
    for _ in range(orders):
        order = rng.permutation(len(rows))
        changed += int(np.sum(color_rows_in_kh(h, rows[order])[0].color != want[order]))
    return changed


@pytest.mark.parametrize(
    "name, pairs",
    [
        ("k4", _all_pairs),
        ("wheel5", _all_pairs),
        ("moser_spindle", _all_pairs),
        ("grotzsch", _sampled_pairs),
        ("chvatal", _sampled_pairs),
    ],
)
def test_rows_colored_alone_color_adjacent_rows_apart(name, pairs, request):
    h = request.getfixturevalue(name)
    assert _alike_alone(h, *pairs(h)) == 0


@pytest.mark.parametrize("name", ["k4", "wheel5", "grotzsch"])
def test_one_call_colors_do_not_depend_on_row_order(name, request):
    h = request.getfixturevalue(name)
    assert _changed_by_order(h, _all_pairs(h)[0]) == 0


@pytest.mark.parametrize(
    "name, check",
    [("k4", "order"), ("wheel5", "order"), ("grotzsch", "order"), ("moser_spindle", "alone")],
)
def test_a_c_star_that_depends_on_the_call_is_caught(name, check, request, monkeypatch):
    # C* alternates, call after call, between the BFS cycle and the last
    # odd cycle no longer than it: the checks above must see it
    h = request.getfixturevalue(name)
    star = odd_cycle_in(h)
    *_, other = odd_cycles(h, len(star))
    calls = itertools.cycle([star, other])
    monkeypatch.setattr(coloring, "odd_cycle_in", lambda g: next(calls))
    live, src, dst = _all_pairs(h)
    if check == "order":
        assert _changed_by_order(h, live) > 0
    else:
        assert _alike_alone(h, live, src, dst) > 0


def test_verdict_is_frozen():
    v = ColorVerdict(color=2, branch=Branch.BELOW_HALF, ell2=0, p2=-2)
    with pytest.raises(AttributeError):
        v.color = 1
    # the line color_golden.json records first
    want = {"color": 2, "branch": "BelowHalf", "ell2": 0, "p2": -2}
    assert json.loads(json.dumps(v.to_json_dict())) == want
