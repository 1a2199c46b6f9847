"""Arc arithmetic on odd cycles, checked against hand-computed values.

The oracle values here were worked out independently (literal tables,
hand-walked tours) so the module under test cannot vouch for itself.
"""

import itertools
import tracemalloc
from unittest import mock

import pytest

from expocolor.errors import IsolatedFunctionError, ParityDomainError
from expocolor.winding import (
    FAR,
    Half,
    OddCycleCtx,
    arc_value,
    chord_order,
    delta3,
    delta_k,
    fixed_points,
    in_even_class,
    label,
    little_path,
    np_tour,
    orient_edge,
)

# The full three-color table, written out rather than computed: +1 on the
# cyclically increasing pairs, -1 on their reverses, 0 on the diagonal.
DELTA3_LITERAL = {
    (1, 1): 0, (2, 2): 0, (3, 3): 0,
    (1, 2): 1, (2, 3): 1, (3, 1): 1,
    (2, 1): -1, (3, 2): -1, (1, 3): -1,
}


def test_delta3_matches_literal_table():
    for (i, j), want in DELTA3_LITERAL.items():
        assert delta3(i, j) == want, (i, j)


def test_delta3_is_antisymmetric():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert delta3(i, j) == -delta3(j, i)


def test_delta3_rejects_out_of_range_colors():
    with pytest.raises(ValueError):
        delta3(0, 1)
    with pytest.raises(ValueError):
        delta3(1, 4)


def test_half_arithmetic_is_exact():
    one_half = Half(1)
    assert one_half + one_half == Half.from_int(1)
    assert Half.from_int(2) - one_half == Half(3)
    assert (-one_half).doubled == -1
    assert Half.from_int(1).is_integer and Half.from_int(1).as_int() == 1
    assert not Half(1).is_integer
    assert str(Half(3)) == "3/2"
    assert Half(4) > Half(1)


def test_delta_k_frozen_cases():
    assert delta_k(1, 3, 5) == Half.from_int(1)  # residue 2
    assert delta_k(2, 7, 7) == Half.from_int(-1)  # residue k-2
    assert delta_k(1, 2, 5) == Half(1)  # residue 1 -> +1/2
    assert delta_k(2, 1, 5) == Half(-1)  # residue k-1 -> -1/2
    assert delta_k(4, 4, 9) == Half(0)
    assert delta_k(1, 4, 7) is FAR  # residue 3 is unreachable for a pair


def test_delta_k_residue_classes_exhaustively():
    for k in (5, 7, 9):
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                r = (j - i) % k
                got = delta_k(i, j, k)
                if r == 0:
                    assert got == Half(0)
                elif r == 2:
                    assert got == Half(2)
                elif r == k - 2:
                    assert got == Half(-2)
                elif r == 1:
                    assert got == Half(1)
                elif r == k - 1:
                    assert got == Half(-1)
                else:
                    assert got is FAR


def test_delta_k_refuses_three_colors():
    # At k=3 the residue classes 1, 2, k-2 and k-1 overlap; the
    # three-color table is its own function.
    with pytest.raises(ParityDomainError, match="delta3"):
        delta_k(1, 2, 3)
    with pytest.raises(ParityDomainError):
        delta_k(1, 2, 4)
    with pytest.raises(ParityDomainError):
        delta_k(1, 1, 1)


def test_arc_value_dispatches_on_k():
    assert arc_value(1, 2, 3) == Half.from_int(delta3(1, 2))
    assert arc_value(1, 2, 5) == delta_k(1, 2, 5)


def test_chord_order_hand_walked():
    # Walked by hand on a triangle and a pentagon: start at 0, step +2.
    assert chord_order(1) == ((0, 2), (2, 1), (1, 0))
    assert chord_order(2) == ((0, 2), (2, 4), (4, 1), (1, 3), (3, 0))


def test_chord_order_is_a_single_tour():
    for n in (1, 2, 3, 4, 7):
        arcs = chord_order(n)
        length = 2 * n + 1
        assert len(arcs) == length
        # each arc starts where the previous one ended, and the tour closes
        for (u1, v1), (u2, v2) in zip(arcs, arcs[1:] + arcs[:1]):
            assert v1 == u2
        assert sorted(u for u, _ in arcs) == list(range(length))


def test_orient_edge_picks_the_n_arc_direction():
    assert orient_edge((0, 4), 2) == (0, 4)
    assert orient_edge((4, 0), 2) == (0, 4)
    assert orient_edge((2, 3), 2) == (3, 2)
    # walking n chord arcs from a must land on b
    for n in (1, 2, 3):
        length = 2 * n + 1
        for x in range(length):
            a, b = orient_edge((x, (x + 1) % length), n)
            pos = a
            for _ in range(n):
                pos = (pos + 2) % length
            assert pos == b


def test_orient_edge_rejects_non_edges():
    with pytest.raises(ValueError):
        orient_edge((0, 2), 2)
    with pytest.raises(ValueError):
        orient_edge((0, 0), 2)
    with pytest.raises(ValueError):
        orient_edge((0, 5), 2)


def test_ctx_make_defaults_and_validation():
    ctx = OddCycleCtx.make(2, 3)
    assert (ctx.a, ctx.b) == (0, 4)
    assert ctx.length == 5
    assert ctx.path_arcs == ((0, 2), (2, 4))
    with pytest.raises(ParityDomainError):
        OddCycleCtx.make(0, 3)
    with pytest.raises(ParityDomainError):
        OddCycleCtx.make(2, 4)
    with pytest.raises(ValueError):
        OddCycleCtx(n=2, k=3, a=0, b=2)


def test_fixed_points_frozen_examples():
    # A vertex is a fixed point when its two cycle neighbors disagree.
    assert fixed_points((1, 2, 1, 2, 3), 2) == frozenset({0, 3, 4})
    assert fixed_points((2, 1, 1, 1, 1), 2) == frozenset({1, 4})
    assert fixed_points((1, 1, 1), 1) == frozenset()
    assert in_even_class((2, 1, 1, 1, 1), 2)
    assert not in_even_class((1, 2, 1, 2, 3), 2)


def test_fixed_points_definition_exhaustive_n2():
    for f in itertools.product((1, 2, 3), repeat=5):
        want = {
            i for i in range(5) if f[(i - 1) % 5] != f[(i + 1) % 5]
        }
        assert fixed_points(f, 2) == frozenset(want)


def test_label_frozen_examples():
    ctx = OddCycleCtx.make(2, 3)
    assert label((1, 2, 1, 2, 3), ctx) == Half.from_int(-3)
    assert label((1, 1, 1, 1, 1), ctx) == Half(0)
    assert little_path((2, 1, 1, 1, 1), ctx) == Half.from_int(-1)
    assert little_path((1, 1, 1, 1, 2), ctx) == Half.from_int(1)


def test_label_multiple_of_three_for_all_assignments():
    ctx = OddCycleCtx.make(2, 3)
    for f in itertools.product((1, 2, 3), repeat=5):
        lab = label(f, ctx)
        assert lab.is_integer and lab.as_int() % 3 == 0


def test_label_is_sum_over_hand_walked_tour():
    ctx = OddCycleCtx.make(2, 3)
    for f in ((1, 2, 3, 1, 2), (3, 3, 1, 2, 2), (2, 1, 3, 3, 1)):
        by_hand = sum(DELTA3_LITERAL[(f[u], f[v])] for u, v in chord_order(2))
        assert label(f, ctx) == Half.from_int(by_hand)


def test_label_cycle_codomain_frozen_examples():
    ctx = OddCycleCtx.make(1, 5)
    assert label((1, 3, 1), ctx) == Half(0)
    assert label((1, 3, 3), ctx) == Half(0)
    # At n=1, k=5 every non-isolated label is 0: the three arcs are each
    # at most 1 in magnitude and the label must be a multiple of 5.
    for f in itertools.product(range(1, 6), repeat=3):
        try:
            lab = label(f, ctx)
        except IsolatedFunctionError:
            continue
        assert lab == Half(0), f


def test_label_cycle_codomain_raises_on_isolated():
    ctx = OddCycleCtx.make(1, 5)
    # (1,2,*): the chord arc 0->2 steps by 1 mod 5 -- no neighbor exists
    with pytest.raises(IsolatedFunctionError):
        label((1, 2, 4), ctx)
    with pytest.raises(IsolatedFunctionError):
        little_path((1, 2, 4), ctx)


def test_np_labels3_agrees_with_scalar():
    # Labels of every three-color assignment at n = 2 from one 2-D stack.
    import numpy as np

    ctx = OddCycleCtx.make(2, 3)
    rows = list(itertools.product((1, 2, 3), repeat=5))
    ell2 = np_tour(np.array(rows), ctx)[0]
    for row, lab in zip(rows, ell2):
        assert label(row, ctx) == Half(int(lab))


def _np_tour_agrees_with_scalar_on_every_edge(k):
    # Every assignment at n = 2 as one uint8 stack and row by row: label,
    # little path on every edge, fixed points, and isolation exactly where
    # the scalar label raises.
    import numpy as np

    rows = list(itertools.product(range(1, k + 1), repeat=5))
    for e in range(5):
        ctx = OddCycleCtx.make(2, k, (e, (e + 1) % 5))
        stack = np_tour(np.array(rows, dtype=np.uint8), ctx)
        for i, row in enumerate(rows):
            ell2, p2, fp, isolated = (x[i].item() for x in stack)
            assert np_tour(np.array(row, dtype=np.uint8), ctx) == (ell2, p2, fp, isolated)
            assert fp == len(fixed_points(row, 2))
            try:
                want = (label(row, ctx).doubled, little_path(row, ctx).doubled)
            except IsolatedFunctionError:
                assert isolated, row
                continue
            assert not isolated and (ell2, p2) == want, (ctx.a, row)


def test_np_little_paths3_and_fixed_points_agree_with_scalar_on_every_edge():
    _np_tour_agrees_with_scalar_on_every_edge(3)


def test_np_tour_agrees_with_scalar_on_every_edge_k5():
    _np_tour_agrees_with_scalar_on_every_edge(5)


# A couple of randomized extensions past the exhaustive range: hypothesis
# draws cycle lengths well beyond what the sweeps above can afford.
from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def _odd_assignments(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    row = draw(st.lists(st.integers(1, 3), min_size=2 * n + 1, max_size=2 * n + 1))
    return n, tuple(row)


@given(_odd_assignments())
def test_label_congruence_on_random_assignments(case):
    import numpy as np

    n, f = case
    ctx = OddCycleCtx.make(n, 3)
    ell = label(f, ctx)
    assert ell.doubled % 2 == 0
    assert (ell.doubled // 2) % 3 == 0
    assert np_tour(np.array([f]), ctx)[0].tolist() == [ell.doubled]


@given(_odd_assignments(), st.integers(min_value=0))
def test_np_tour_matches_scalar_on_random_edges(case, edge):
    import numpy as np

    n, f = case
    length = 2 * n + 1
    ctx = OddCycleCtx.make(n, 3, (edge % length, (edge + 1) % length))
    ell2, p2, fp, isolated = np_tour(np.array(f, dtype=np.uint8), ctx)
    assert ell2 == label(f, ctx).doubled
    assert p2 == little_path(f, ctx).doubled
    assert fp == len(fixed_points(f, n))
    assert not isolated


# -- the kernel at its block boundaries ----------------------------------------
#
# np_tour walks the tour in passes of at most winding._BLOCK entries, the last
# pass of a row wrapping to ids 0 and 1, and tiles a stack by rows, at most
# _BLOCK entries and _BLOCK bins a tile.  These tests put rows, little paths
# and stacks on every side of a pass boundary and compare both forms of the
# kernel with the scalar label / little_path / fixed_points, over every
# integer dtype.

import numpy as np

from expocolor import winding

_BLOCK = winding._BLOCK
_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _scalar_tour(row, ctx):
    """(ell2, p2, fixed, isolated) from the scalar reference; ell2 and p2
    are None for an isolated row, where the scalar functions raise."""
    fixed = len(fixed_points(row, ctx.n))
    try:
        return label(row, ctx).doubled, little_path(row, ctx).doubled, fixed, False
    except IsolatedFunctionError:
        return None, None, fixed, True


def _agrees(got, want):
    ell2, p2, fixed, isolated = want
    if isolated:
        return tuple(got[2:]) == (fixed, True)
    return tuple(got) == want


def _non_isolated_row(rng, length, k):
    """A random row whose every chord arc steps by 0, 2 or k-2 mod k."""
    while True:
        steps = rng.choice([0, 2, k - 2], size=length)
        if steps.sum() % k == 0:
            break
    row = np.empty(length, dtype=np.int64)
    tour = (2 * np.arange(length)) % length  # ids in chord-tour order
    row[tour] = 1 + (np.cumsum(steps) - steps[0]) % k
    return row


def _edges_around_blocks(length, block):
    """Edges whose little path starts at id 0, on either side of a pass
    boundary, or at id 2n (so that it wraps past 2n at once)."""
    starts = {0, 1, block - 1, block, block + 1, length - 1}
    return [(a, (a - 1) % length) for a in sorted(s for s in starts if s < length)]


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize(
    "offset", [-1, 0, 1, 2, _BLOCK + 1],
    ids=["block-1", "block", "block+1", "block+2", "2block+1"],
)
def test_np_tour_matches_scalar_across_pass_boundaries(offset, k, monkeypatch):
    # A cycle length is odd: for an even offset the pass size is one less
    # than _BLOCK, so that lengths block-1 .. block+2 and 2*block+1 all occur.
    block = _BLOCK if offset % 2 else _BLOCK - 1
    monkeypatch.setattr(winding, "_BLOCK", block)
    length = block + offset
    n = length // 2
    rng = np.random.default_rng([offset + 1, k])
    rows = [_non_isolated_row(rng, length, k), rng.integers(1, k + 1, length)]
    for row in rows:
        values = tuple(row.tolist())
        # the label and the fixed points do not depend on the edge
        ell2, _, fixed, isolated = _scalar_tour(values, OddCycleCtx.make(n, k))
        for edge in _edges_around_blocks(length, block):
            ctx = OddCycleCtx.make(n, k, edge)
            p2 = None if isolated else little_path(values, ctx).doubled
            want = (ell2, p2, fixed, isolated)
            for dtype in _INT_DTYPES:
                got = np_tour(row.astype(dtype), ctx)
                assert _agrees(got, want), (edge, dtype)
            stack = np_tour(np.stack([row, row]).astype(np.uint8), ctx)
            assert all(_agrees([x[i].item() for x in stack], want) for i in (0, 1))


@pytest.mark.parametrize("k", [3, 5])
def test_np_tour_matches_scalar_at_n_ten_thousand(k):
    n = 10**4
    rng = np.random.default_rng(k)
    rows = np.stack([_non_isolated_row(rng, 2 * n + 1, k) for _ in range(3)])
    rows = np.concatenate([rows, rng.integers(1, k + 1, (2, 2 * n + 1))])
    for edge in [(0, 2 * n), (n, n - 1), (2 * n, 2 * n - 1)]:
        ctx = OddCycleCtx.make(n, k, edge)
        stack = np_tour(rows, ctx)
        for i, row in enumerate(rows):
            want = _scalar_tour(tuple(row.tolist()), ctx)
            assert _agrees(np_tour(row, ctx), want)
            assert _agrees([x[i].item() for x in stack], want)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("shape", [
    (_BLOCK // 11, 11),  # rows x L just below _BLOCK: one tile for k = 3
    (_BLOCK // 11 + 1, 11),  # just above: a second tile of one row
    (2 * (_BLOCK // 11) + 3, 11),
    (_BLOCK // 5 + 1, 5),
    (_BLOCK // 10 + 1, 3),  # rows x bins just above _BLOCK for k = 3
    (3, _BLOCK + 1),  # rows longer than a pass: one row per tile
])
def test_np_tour_stack_tiles_match_the_rows(shape, k):
    rows, length = shape
    n = length // 2
    rng = np.random.default_rng([rows, length, k])
    stack = rng.integers(1, k + 1, shape)
    stack[::2] = [_non_isolated_row(rng, length, k) for _ in range(0, rows, 2)]
    ctx = OddCycleCtx.make(n, k, (1, 0))
    for dtype in _INT_DTYPES:
        got = np_tour(stack.astype(dtype), ctx)
        assert all(x.shape == (rows,) for x in got)
        if dtype is _INT_DTYPES[0]:
            want = got
        else:
            assert all(np.array_equal(x, y) for x, y in zip(got, want)), dtype
    # every row of the stack equals the scalar reference (a sample of them
    # for the long rows), and so does the 1-d form
    for i in range(0, rows, max(1, rows // 400)):
        row = tuple(stack[i].tolist())
        expect = _scalar_tour(row, ctx)
        assert _agrees([x[i].item() for x in want], expect), i
        assert _agrees(np_tour(stack[i], ctx), expect), i


# The same comparison with hypothesis drawing the cycle, the codomain, the
# edge, the dtype and the pass size: the bin offsets of every pass are
# derived from the edge and the pass start, so the passes must agree with
# the scalar tour wherever the edge and the pass boundaries fall.


@st.composite
def _tour_cases(draw):
    k = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=40))
    length = 2 * n + 1
    # colors along the chord tour by steps of 0, 2 or k-2, or at random;
    # the closing step is whatever the others leave, so some rows are
    # isolated for k >= 5
    colors = st.lists(st.integers(1, k), min_size=length, max_size=length)
    if draw(st.booleans()):
        steps = st.lists(st.sampled_from([0, 2, k - 2]), min_size=length, max_size=length)
        tour = (2 * np.arange(length)) % length
        row = np.empty(length, dtype=np.int64)
        row[tour] = 1 + np.cumsum(draw(steps)) % k
    else:
        row = np.array(draw(colors))
    others = draw(st.lists(colors, max_size=3))
    e = draw(st.integers(0, length - 1))
    dtype = draw(st.sampled_from(_INT_DTYPES))
    block = draw(st.integers(min_value=1, max_value=length + 3))
    return OddCycleCtx.make(n, k, (e, (e + 1) % length)), row, others, dtype, block


@settings(max_examples=300, deadline=None)
@given(_tour_cases())
def test_np_tour_matches_scalar_on_drawn_passes(case):
    ctx, row, others, dtype, block = case
    stack = np.array([row.tolist()] + others).astype(dtype)
    with mock.patch.object(winding, "_BLOCK", block):
        rows = [np_tour(f, ctx) for f in stack]
        tours = np_tour(stack, ctx)
    for i, f in enumerate(stack):
        want = _scalar_tour(tuple(f.tolist()), ctx)
        assert _agrees(rows[i], want), i
        assert _agrees([x[i].item() for x in tours], want), i


def test_np_tour_rejects_rows_of_the_wrong_length():
    ctx = OddCycleCtx.make(2, 3)
    for bad in (np.ones(4, dtype=np.int64), np.ones((3, 6), dtype=np.int64)):
        with pytest.raises(ValueError, match="cycle needs 5"):
            np_tour(bad, ctx)


# -- the kernel's memory bound --------------------------------------------------
#
# Beyond its input and its result, np_tour holds a few pass-sized arrays at
# any size: the cast slice and the step codes of a pass, their widened copy
# (8 bytes an entry: a stack's codes moved by their row's place, or
# bincount's own copy for a row), and the pass's histogram and running total,
# one int64 per bin and row of the tile.  The bound allows four int64 buffers
# of _BLOCK entries for these.

_PASS_BYTES = 4 * 8 * _BLOCK


def _traced_peak(call):
    """The peak of the memory traced while ``call()`` runs, above what was
    traced when it started, and what it returned."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_np_tour_memory_on_a_long_row_is_a_few_passes():
    ctx = OddCycleCtx.make(10**6, 3, (5, 4))
    row = np.random.default_rng(0).integers(1, 4, ctx.length, dtype=np.uint8)
    want = np_tour(row, ctx)
    peak, got = _traced_peak(lambda: np_tour(row, ctx))
    assert got == want
    assert peak < _PASS_BYTES, peak


def test_np_tour_on_a_fresh_context_allocates_nothing_of_the_rows_length():
    # The context holds no per-id table: the first call on a long cycle
    # derives only its fold and a pass-sized offset table, so it allocates
    # less than one byte an id, what an L-entry int8 table would take.
    ctx = OddCycleCtx.make(10**6, 3)
    row = np.random.default_rng(1).integers(1, 4, ctx.length, dtype=np.uint8)
    peak, got = _traced_peak(lambda: np_tour(row, ctx))
    assert got == np_tour(row, ctx)
    assert peak < ctx.length, peak


def test_np_tour_memory_on_a_tall_stack_is_its_result_and_a_few_passes():
    ctx = OddCycleCtx.make(5, 3)
    stack = np.random.default_rng(0).integers(1, 4, (3**11, ctx.length), dtype=np.uint8)
    np_tour(stack[:1], ctx)
    peak, (ell2, p2, fixed, isolated) = _traced_peak(lambda: np_tour(stack, ctx))
    result = ell2.base.nbytes + fixed.nbytes + isolated.nbytes  # ell2, p2: one (rows, 4) total
    assert result == 3**11 * (4 * 8 + 8 + 1)
    assert peak < result + _PASS_BYTES, (peak, result)


def test_np_tour_memory_on_a_wide_codomain_is_its_result_and_a_few_passes():
    # k = 131 gives 522 bins a row, over a hundred times the row's 3 ids, so
    # the histograms of a tile outgrow its entries; tiles are bounded by
    # bins as well, and the peak stays below the same bound.
    ctx = OddCycleCtx.make(1, 131)
    stack = np.random.default_rng(0).integers(1, 132, (30_000, 3), dtype=np.uint8)
    np_tour(stack[:1], ctx)
    peak, (ell2, p2, fixed, isolated) = _traced_peak(lambda: np_tour(stack, ctx))
    result = ell2.base.nbytes + fixed.nbytes + isolated.nbytes
    assert result == 30_000 * (4 * 8 + 8 + 1)
    assert peak < result + _PASS_BYTES, (peak, result)
