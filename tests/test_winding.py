"""Arc arithmetic on odd cycles, checked against hand-computed values.

The oracle values here were worked out independently (literal tables,
hand-walked tours, and numpy sums over the chord steps) so the module
under test cannot vouch for itself.
"""

import itertools
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expocolor import winding
from expocolor.coloring import (
    Branch,
    color_row,
    color_rows,
    color_vertex,
    color_vertex_ck,
)
from expocolor.errors import InvariantViolationError, IsolatedFunctionError, ParityDomainError
from expocolor.winding import (
    FAR,
    OddCycleCtx,
    arc_value,
    chord_order,
    fixed_points,
    in_even_class,
    np_tour,
    orient_edge,
)
from expocolor.scalar import label, little_path, row_tour


# The full three-color table, written out rather than computed: +1 on the
# cyclically increasing pairs, -1 on their reverses, 0 on the diagonal.
DELTA3_LITERAL = {
    (1, 1): 0, (2, 2): 0, (3, 3): 0,
    (1, 2): 1, (2, 3): 1, (3, 1): 1,
    (2, 1): -1, (3, 2): -1, (1, 3): -1,
}


# Doubled Δ for k >= 5 by the residue of the step j - i mod k, written out:
# ±2 (Δ = ±1) on the steps 2 and k - 2, ±1 (Δ = ±1/2) on 1 and k - 1, and
# FAR on every other step.
DELTA_K_LITERAL = {
    5: (0, 1, 2, -2, -1),
    7: (0, 1, 2, FAR, FAR, -2, -1),
    9: (0, 1, 2, FAR, FAR, FAR, FAR, -2, -1),
}


def test_arc_value_matches_literal_tables():
    for k in (3, 5, 7, 9):
        for i, j in itertools.product(range(1, k + 1), repeat=2):
            want = 2 * DELTA3_LITERAL[i, j] if k == 3 else DELTA_K_LITERAL[k][(j - i) % k]
            assert arc_value(i, j, k) == want, (i, j, k)  # FAR equals only itself
    for i, j, k in [(0, 1, 3), (1, 4, 3), (1, 6, 5), (-1, 1, 7)]:
        with pytest.raises(ValueError, match=f"colors must be in 1..{k}"):
            arc_value(i, j, k)
    for k in (1, 2, 4, 6):
        with pytest.raises(ParityDomainError, match="odd and >= 3"):
            arc_value(1, 1, k)


# The chord steps d = f(i+2) - f(i) a non-isolated assignment takes, with
# their doubled Δ, written out: for k = 3 every residue, for k >= 5 the
# residues 0, 2 and k-2, each met by a step from -(k-1) up to k-1.
STEP_VALUES_LITERAL = {
    3: ((-2, 2), (-1, -2), (0, 0), (1, 2), (2, -2)),
    5: ((-3, 2), (-2, -2), (0, 0), (2, 2), (3, -2)),
    7: ((-5, 2), (-2, -2), (0, 0), (2, 2), (5, -2)),
}


@pytest.mark.parametrize("k", [3, 5, 7])
def test_step_values_match_literal_tables_and_arc_value(k):
    table = OddCycleCtx.make(2, k).step_values
    assert table == STEP_VALUES_LITERAL[k]
    steps = dict(table)
    for i, j in itertools.product(range(1, k + 1), repeat=2):
        value = arc_value(i, j, k)
        if value is FAR or value % 2:  # a step no chord arc may take
            assert j - i not in steps, (i, j)
        else:
            assert steps[j - i] == value, (i, j)


def test_chord_order_hand_walked():
    # Walked by hand on a triangle and a pentagon: start at 0, step +2.
    assert chord_order(1) == ((0, 2), (2, 1), (1, 0))
    assert chord_order(2) == ((0, 2), (2, 4), (4, 1), (1, 3), (3, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_chord_order_is_a_single_tour(n):
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


def test_fixed_points_of_colors_from_0_and_past_a_byte():
    # the steps are lanes of one width, wide enough for the largest color
    for f in [(0, 0, 0), (2, 0, 2, 1, 0), (300, 1, 1, 70_000, 1)]:
        want = {i for i in range(len(f)) if f[i - 1] != f[(i + 1) % len(f)]}
        assert fixed_points(f, len(f) // 2) == want
        assert in_even_class(f, len(f) // 2) == (len(want) % 2 == 0)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_fixed_points_of_numpy_rows(dtype):
    # a host coloring restricts a row of a numpy stack to its cycles
    for f in [(1, 2, 1, 2, 3), (1, 2, 3, 1, 2, 3, 1), (3, 1, 3)]:
        row = np.array(f, dtype=dtype)
        n = len(f) // 2
        for given in (row, tuple(row)):
            assert fixed_points(given, n) == fixed_points(f, n)
            assert in_even_class(given, n) == in_even_class(f, n)


def test_fixed_points_definition_exhaustive_n2():
    for f in itertools.product((1, 2, 3), repeat=5):
        want = {
            i for i in range(5) if f[(i - 1) % 5] != f[(i + 1) % 5]
        }
        assert fixed_points(f, 2) == frozenset(want)


def test_label_frozen_examples():
    ctx = OddCycleCtx.make(2, 3)
    # doubled values: the label of (1, 2, 1, 2, 3) is -3
    assert label((1, 2, 1, 2, 3), ctx) == -6
    assert label((1, 1, 1, 1, 1), ctx) == 0
    assert little_path((2, 1, 1, 1, 1), ctx) == -2
    assert little_path((1, 1, 1, 1, 2), ctx) == 2


def test_label_multiple_of_three_for_all_assignments():
    ctx = OddCycleCtx.make(2, 3)
    for f in itertools.product((1, 2, 3), repeat=5):
        lab = label(f, ctx)
        assert lab % 2 == 0 and (lab // 2) % 3 == 0


def test_label_is_sum_over_hand_walked_tour():
    ctx = OddCycleCtx.make(2, 3)
    for f in ((1, 2, 3, 1, 2), (3, 3, 1, 2, 2), (2, 1, 3, 3, 1)):
        by_hand = sum(DELTA3_LITERAL[(f[u], f[v])] for u, v in chord_order(2))
        assert label(f, ctx) == 2 * by_hand


def test_label_cycle_codomain_frozen_examples():
    ctx = OddCycleCtx.make(1, 5)
    assert label((1, 3, 1), ctx) == 0
    assert label((1, 3, 3), ctx) == 0
    # At n=1, k=5 every non-isolated label is 0: the three arcs are each
    # at most 1 in magnitude and the label must be a multiple of 5.
    for f in itertools.product(range(1, 6), repeat=3):
        try:
            lab = label(f, ctx)
        except IsolatedFunctionError:
            continue
        assert lab == 0, f


def test_label_cycle_codomain_raises_on_isolated():
    ctx = OddCycleCtx.make(1, 5)
    # (1,2,*): the chord arc 0->2 steps by 1 mod 5 -- no neighbor exists
    with pytest.raises(IsolatedFunctionError):
        label((1, 2, 4), ctx)
    with pytest.raises(IsolatedFunctionError):
        little_path((1, 2, 4), ctx)


# A couple of randomized extensions past the exhaustive range: hypothesis
# draws cycle lengths well beyond what the sweeps below can afford.


@st.composite
def _odd_assignments(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    row = draw(st.lists(st.integers(1, 3), min_size=2 * n + 1, max_size=2 * n + 1))
    return n, tuple(row)


@given(_odd_assignments())
def test_label_congruence_on_random_assignments(case):
    n, f = case
    ctx = OddCycleCtx.make(n, 3)
    ell2 = label(f, ctx)
    assert ell2 % 2 == 0
    assert (ell2 // 2) % 3 == 0
    assert np_tour(np.array([f]), ctx)[0].tolist() == [ell2]


@given(_odd_assignments(), st.integers(min_value=0))
def test_np_tour_matches_scalar_on_random_edges(case, edge):
    n, f = case
    length = 2 * n + 1
    ctx = OddCycleCtx.make(n, 3, (edge % length, (edge + 1) % length))
    ell2, p2, fp, isolated = np_tour(np.array(f, dtype=np.uint8), ctx)
    assert ell2 == label(f, ctx)
    assert p2 == little_path(f, ctx)
    assert fp == len(fixed_points(f, n))
    assert not isolated


# -- the kernel and the decision against an independent oracle ----------------
#
# One comparison checks a (rows, L) stack on one edge against _oracle: np_tour
# on the stack in each dtype and on sampled rows in the case's 1-d dtypes,
# color_rows on the stack and on one 1-d row, the one-row routine on the
# sampled rows (as tuples, lists and in the 1-d dtypes) and, where asked, the
# scalar label / little_path / fixed_points.  It is the one statement of
# these routines: the cases are every row of a small cycle on every edge,
# rows with colors outside 1..k in every dtype, rows and little paths on
# either side of a kernel pass (winding._BLOCK patched), rows at n = 10^4,
# stacks around the tile bounds (at most _BLOCK entries and _BLOCK bins a
# tile), and hypothesis draws of the cycle, the codomain, the edge, the
# dtype and the pass size.

_BLOCK = winding._BLOCK
_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
_ERRORS = (ValueError, IsolatedFunctionError, ParityDomainError, InvariantViolationError)


def _oracle(rows, k, edge):
    """Each row's (ell2, p2, fixed, isolated), an isolating step counting 0,
    and its verdict row [color, branch position, ell2, p2, -1], or [0, 0, 0,
    0, the position in _ERRORS of its error]; by numpy sums over the chord
    steps f(i+2) - f(i), reading nothing from expocolor."""
    f = rows.astype(np.int64)
    length = f.shape[1]
    x, y = edge
    a, b = (x, y) if x == (y + 1) % length else (y, x)  # n chord steps lead from a to b
    # doubled Δ by the step's residue mod k; every residue left out isolates
    if k == 3:
        delta = {(j - i) % 3: 2 * d for (i, j), d in DELTA3_LITERAL.items()}
    else:
        delta = {0: 0, 2: 2, k - 2: -2}
    value, allowed = np.zeros(k, np.int64), np.zeros(k, bool)
    value[list(delta)], allowed[list(delta)] = list(delta.values()), True
    steps = (np.roll(f, -2, axis=1) - f) % k  # the chord arc leaving each id
    arcs = value[steps]
    ell2, p2 = arcs.sum(1), arcs[:, (a + 2 * np.arange(length // 2)) % length].sum(1)
    fixed = (np.roll(f, 1, axis=1) != np.roll(f, -1, axis=1)).sum(1)
    isolated = ~allowed[steps].all(1)
    fa, fb, side = f[:, a], f[:, b], np.sign(2 * p2 - ell2)
    failed = [((f < 1) | (f > k)).any(1), isolated, fixed % 2 == 1, (fa != fb) & (side == 0)]
    error = np.select(failed, [0, 1, 2, 3], -1)  # in the order the checks apply
    ok = error < 0
    branch = np.select([fa == fb, side < 0], [0, 1], 2) * ok
    color = np.where(branch == 2, fb, fa) * ok
    return (ell2, p2, fixed, isolated), np.column_stack([color, branch, ell2 * ok, p2 * ok, error])


def _non_isolated_rows(rng, count, length, k):
    """Random rows whose every chord arc steps by 0, 2 or k-2 mod k: steps
    2e, e in {-1, 0, 1}, along the chord tour, with as many e of the sum's
    sign set to 0 as the sum's remainder mod k, so that the tour closes."""
    e = rng.integers(-1, 2, (count, length))
    excess = np.fmod(e.sum(1), k)[:, None]  # of the sum's sign, so that many e of it exist
    e[(e == np.sign(excess)) & (np.cumsum(e == np.sign(excess), 1) <= abs(excess))] = 0
    colors = rng.integers(k, size=(count, 1)) + 2 * (np.cumsum(e, 1) - e)
    rows = np.empty((count, length), np.int64)
    rows[:, (2 * np.arange(length)) % length] = 1 + colors % k
    return rows


def _outcome(color, f, ctx):
    """The one-row routine's verdict or error, as a row of _oracle's
    verdicts, and the error's message (None for a verdict)."""
    try:
        v = color(f, ctx)
    except (ValueError, InvariantViolationError) as exc:
        return [0, 0, 0, 0, _ERRORS.index(type(exc))], str(exc)
    return [v.color, list(Branch).index(v.branch), v.ell2, v.p2, -1], None


def _verdicts(res):
    """color_rows' result as rows of _oracle's verdicts, and its errors'
    messages by row."""
    assert res.cycle is None
    got = np.column_stack([*res[:4], np.full(len(res.color), -1)])
    got[res.failed, 4] = [_ERRORS.index(type(e)) for e in res.errors]
    return got, dict(zip(res.failed.tolist(), map(str, res.errors)))


def _scalar_tour(f, ctx):
    """(ell2, p2, fixed, isolated) by the scalar reference; ell2 and p2 are
    None for an isolated row, where label and little_path raise."""
    fixed = len(fixed_points(f, ctx.n))
    try:
        return label(f, ctx), little_path(f, ctx), fixed, False
    except IsolatedFunctionError:
        return None, None, fixed, True


def _plain_outcomes(rows, ctx):
    """What _outcome gives for coloring.color_row, the one-row routine
    without numpy, on the rows as tuples and bytes in turn (tuples where
    a value falls outside a byte)."""
    out = []
    for r, f in enumerate(rows):
        if r % 2 and 0 <= min(f) and max(f) < 256:
            f = bytes(f)
        try:
            out.append(([*color_row(tuple(f) if type(f) is list else f, ctx), -1], None))
        except (ValueError, InvariantViolationError) as exc:
            out.append(([0, 0, 0, 0, _ERRORS.index(type(exc))], str(exc)))
    return out


def _compare(rows, k, edge, dtypes, row_dtypes=(), every=1, scalar=False, stack=True):
    """Each against _oracle: np_tour on the stack in ``dtypes`` and on every
    ``every``-th row in ``row_dtypes``, the step histogram (row_tour) on
    those rows, and the scalar reference on them, all on the rows with
    colors in 1..k only; the one-row routine on the sampled rows as
    tuples or lists and in ``row_dtypes``, and the one without numpy
    (color_row) on them as tuples or bytes; and color_rows on the stack
    and on its first row, with the messages of the one-row routine on
    the tuples and lists (and on the rows in the stack's dtype, and of
    color_row)."""
    ctx = OddCycleCtx.make(rows.shape[1] // 2, k, edge)
    tour, verdicts = _oracle(rows, k, edge)
    inside = ((rows >= 1) & (rows <= k)).all(1)
    for dtype in dtypes:
        got = np_tour(rows[inside].astype(dtype), ctx)
        assert all(np.array_equal(x, y[inside]) for x, y in zip(got, tour)), (edge, dtype)
    sampled, want = rows[::every], verdicts[::every].tolist()
    tours = list(zip(*(x[::every][inside[::every]].tolist() for x in tour)))
    color = color_vertex if k == 3 else color_vertex_ck
    forms = itertools.cycle((tuple, list))
    outcomes = [_outcome(color, form(f), ctx) for form, f in zip(forms, sampled.tolist())]
    assert [verdict for verdict, _ in outcomes] == want
    messages = [message for _, message in outcomes]
    assert [row_tour(f, ctx) for f in sampled[inside[::every]].tolist()] == tours, edge
    assert _plain_outcomes(sampled.tolist(), ctx) == outcomes, edge
    for dtype in row_dtypes:
        in_dtype = sampled.astype(dtype)
        assert [np_tour(f, ctx) for f in in_dtype[inside[::every]]] == tours, (edge, dtype)
        outcomes = [_outcome(color, f, ctx) for f in in_dtype]
        assert [verdict for verdict, _ in outcomes] == want, (edge, dtype)
        if dtype == rows.dtype:
            assert [message for _, message in outcomes] == messages, (edge, dtype)
    if scalar:
        got = [_scalar_tour(tuple(f), ctx) for f in sampled[inside[::every]].tolist()]
        assert got == [(None, None, t[2], True) if t[3] else t for t in tours], edge
    if stack:
        got, by_row = _verdicts(color_rows(rows, ctx))
        assert np.array_equal(got, verdicts), edge
        assert [by_row.get(r) for r in range(0, len(rows), every)] == messages, edge
        got, by_row = _verdicts(color_rows(rows[0], ctx))  # one row, given 1-d
        assert got.tolist() == verdicts[:1].tolist(), edge
        assert by_row.get(0) == messages[0], edge


def _grid(colors, length):
    return np.array(list(itertools.product(colors, repeat=length)))


def _seeded(seed, length, k, non_isolated, uniform):
    rng = np.random.default_rng(seed)
    rows = _non_isolated_rows(rng, non_isolated, length, k)
    return np.concatenate([rows, rng.integers(1, k + 1, (uniform, length))])


def _with_outside(seed, length, k, dtype):
    """_seeded's rows in ``dtype``, a third of them with one color outside
    1..k: 0, k + 1, or the dtype's least or greatest value."""
    rows = _seeded(seed, length, k, 30, 30).astype(dtype)
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    bad = rng.permutation(len(rows))[: len(rows) // 3]
    values = np.array([0, k + 1, info.min, info.max], dtype=dtype)[rng.integers(4, size=len(bad))]
    rows[bad, rng.integers(length, size=len(bad))] = values
    return rows


# Colors 128..131 do not fit in int8, and their steps to and from 1..3
# (up to ±130) overflow it: a kernel that cast to int8 would mis-bin them.
K131_COLORS = (1, 2, 3, 127, 128, 129, 130, 131)

def _cases():
    """Each case: k, its stack (made when it runs), its edges, the _BLOCK it
    patches in, and the knobs of _compare."""
    cases = {}
    grids = [(n, 3, (1, 2, 3)) for n in (1, 2, 3)]
    grids += [(n, k, tuple(range(1, k + 1))) for k in (5, 7, 9) for n in (1, 2)]
    for n, k, colors in grids + [(1, 131, K131_COLORS)]:
        # The default edge (0, 2n) has a = 0, whose chord path never wraps
        # past id 2n; the other edges start the path elsewhere, and most
        # wrap.  At k = 7 and 9 nearly every row is isolated and the one-row
        # routine on each is the cost, so color_rows is left out there.
        # The one-row routine takes the k = 3 rows in four dtypes besides
        # tuples and lists (unsigned rows once wrapped in the chord-step
        # subtraction).
        length, small = 2 * n + 1, n <= 2 and k <= 5
        grid = partial(_grid, colors, length)
        edges = [(e, (e + 1) % length) for e in range(length)]
        row_dtypes = (np.uint8, np.int8, np.int16, np.int64)[: 4 if k == 3 else 1]
        knobs = dict(row_dtypes=row_dtypes if small else (), scalar=small, stack=k not in (7, 9))
        cases[f"grid-n{n}-k{k}"] = (k, grid, edges, None, knobs)
    for (n, k), dtype in itertools.product([(2, 3), (3, 3), (2, 5), (3, 7)], _INT_DTYPES):
        # failing rows of every kind, some with a color outside 1..k: 0, k + 1
        # or the dtype's extremes, which the range check must see uncast
        name = f"outside-n{n}-k{k}-{np.dtype(dtype).name}"
        rows = partial(_with_outside, [n, k, np.dtype(dtype).num], 2 * n + 1, k, dtype)
        edges = [(e, (e + 1) % (2 * n + 1)) for e in range(2 * n + 1)]
        cases[name] = (k, rows, edges, None, dict(dtypes=[dtype], row_dtypes=(dtype,)))
    for k in (3, 5):
        # A cycle length is odd: for an even offset the pass size is one
        # less than _BLOCK, so that lengths block-1 .. block+2 and 2*block+1
        # all occur.  The little paths start at id 0, on either side of a
        # pass boundary, or at id 2n (so that they wrap past 2n at once).
        offsets = [-1, 0, 1, 2, _BLOCK + 1]
        for name, offset in zip(["block-1", "block", "block+1", "block+2", "2block+1"], offsets):
            block = _BLOCK if offset % 2 else _BLOCK - 1
            length = block + offset
            starts = {0, 1, block - 1, block, block + 1, length - 1}
            edges = [(a, (a - 1) % length) for a in sorted(starts) if a < length]
            rows = partial(_seeded, [offset + 1, k], length, k, 1, 1)
            cases[f"{name}-k{k}"] = (k, rows, edges, block, dict(row_dtypes=tuple(_INT_DTYPES)))
        n = 10**4
        edges = [(0, 2 * n), (n, n - 1), (2 * n, 2 * n - 1)]
        rows = partial(_seeded, k, 2 * n + 1, k, 3, 2)
        cases[f"n10000-k{k}"] = (k, rows, edges, None, dict(row_dtypes=(np.int64,)))
        for rows, length in [
            (_BLOCK // 11, 11),  # rows x L just below _BLOCK: one tile for k = 3
            (_BLOCK // 11 + 1, 11),  # just above: a second tile of one row
            (2 * (_BLOCK // 11) + 3, 11),
            (_BLOCK // 5 + 1, 5),
            (_BLOCK // 10 + 1, 3),  # rows x bins just above _BLOCK for k = 3
            (3, _BLOCK + 1),  # rows longer than a pass: one row per tile
        ]:
            stack = partial(_seeded, [rows, length, k], length, k, (rows + 1) // 2, rows // 2)
            knobs = dict(row_dtypes=(np.int64,), every=max(1, rows // 400))
            cases[f"tile-{rows}x{length}-k{k}"] = (k, stack, [(1, 0)], None, knobs)
    return cases


_CASES = _cases()


@pytest.mark.parametrize("k, rows, edges, block, knobs", list(_CASES.values()), ids=list(_CASES))
def test_kernel_matches_the_oracle(k, rows, edges, block, knobs, monkeypatch):
    if block is not None:
        monkeypatch.setattr(winding, "_BLOCK", block)
    rows = rows()
    knobs = {"dtypes": [dtype for dtype in _INT_DTYPES if np.iinfo(dtype).max >= k], **knobs}
    for edge in edges:
        _compare(rows, k, edge, **knobs)


@st.composite
def _tour_cases(draw):
    k = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=40))
    length = 2 * n + 1
    # colors along the chord tour by steps of 0, 2 or k-2, or at random;
    # the closing step is whatever the others leave, so some rows are
    # isolated for k >= 5.  A row is one draw of L bytes (read mod 3 or mod
    # k), as drawing its entries one by one takes most of the test's time.
    raw = st.binary(min_size=length, max_size=length).map(lambda b: np.frombuffer(b, np.uint8))
    colors = raw.map(lambda b: (1 + b % k).tolist())
    if draw(st.booleans()):
        steps = np.array([0, 2, k - 2])[draw(raw) % 3]
        tour = (2 * np.arange(length)) % length
        row = np.empty(length, dtype=np.int64)
        row[tour] = 1 + np.cumsum(steps) % k
    else:
        row = np.array(draw(colors))
    others = draw(st.lists(colors, max_size=3))
    e = draw(st.integers(0, length - 1))
    dtype = draw(st.sampled_from(_INT_DTYPES))
    block = draw(st.integers(min_value=1, max_value=length + 3))
    return k, (e, (e + 1) % length), np.array([row.tolist()] + others), dtype, block


@settings(max_examples=300, deadline=None)
@given(_tour_cases())
def test_kernel_matches_the_oracle_on_drawn_passes(case):
    # the bin offsets of every pass are derived from the edge and the pass
    # start, so the passes must agree wherever the edge and the pass
    # boundaries fall
    k, edge, stack, dtype, block = case
    with mock.patch.object(winding, "_BLOCK", block):
        _compare(stack.astype(dtype), k, edge, [dtype], [dtype], scalar=True)


@pytest.mark.parametrize("k", [127, 129, 32_769])
def test_step_histogram_in_lanes_of_every_width(k):
    # the steps of k colors fill 2k - 1 values: one byte a lane up to
    # k = 128, two up to 32_768, four past that
    ctx = OddCycleCtx.make(5, k, (3, 2))
    rng = np.random.default_rng(k)
    rows = np.concatenate([_non_isolated_rows(rng, 20, 11, k), rng.integers(1, k + 1, (20, 11))])
    assert [row_tour(f, ctx) for f in rows.tolist()] == [np_tour(f, ctx) for f in rows]


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
