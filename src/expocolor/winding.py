"""Exact arc-value arithmetic on odd cycles: labels and little paths.

An assignment on the odd cycle C_{2n+1} is a vector of colors, one per
cycle vertex.  Walking the *chord cycle* (the directed tour by steps of
two) and summing a per-arc value Δ produces the assignment's *label*
ℓ_f — a discrete winding number — while the n-arc chord path between
the endpoints of a distinguished edge produces the *little path* value
p_f.  These two integers drive the O(n) coloring routine.

Index convention: cycle vertices are 0-based ids ``0..2n``; writing
``u_i`` for the i-th vertex in 1-based positional notation, ``u_i``
has id ``i-1``.  The shift is confined to this docstring — every public
API here speaks ids.

Δ is defined once, by the color step mod k, in :func:`arc_value`, which
gives every arc value doubled, as a plain int, so that half-steps stay
exact; labels and little paths are doubled the same way.  A chord arc's
value depends only on its step d = f(i+2) - f(i), and
``OddCycleCtx.step_values``, read from :func:`arc_value`, is the one
table of the steps a chord arc may take.  Both ways of walking the tour
count the same step histogram from it: :func:`np_tour`, the vectorized
kernel here, and :func:`.scalar.row_tour`, one row in plain ints without
numpy, which the scalar ``label`` and ``little_path`` of :mod:`.scalar`
read.  Since both read ``step_values``, neither is a check on that
table: the independent reference is the test suite's oracle (``_oracle``
in ``tests/test_winding.py``), which values each arc with
:func:`arc_value` itself, with the hand-checked tables and examples
there.  :func:`fixed_points` and :func:`in_even_class` compare the two
cycle neighbors of each id directly, for any sequence of ints.

For cycle codomains, a chord arc whose color step falls outside
{0, 2, k-2} mod k means the assignment has no neighbors at all, so the
scalar ``label`` and ``little_path`` raise ``IsolatedFunctionError``
rather than return a value there.  The half-step arc values still
matter: they arise when valuing arcs *between* two adjacent assignments.
"""

# No ``from __future__ import annotations`` here: importing ``__future__``
# is a sizeable share of building a first cycle context, and the
# annotations that name numpy are strings, so that defining them loads none.
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import ParityDomainError, _Record


class _Numpy:
    """numpy, imported when the module that binds this as ``np`` first
    reads it.

    ``np = _Numpy(globals())`` at the top of each module that uses numpy:
    the first attribute read imports numpy and rebinds that module's own
    ``np`` to it, so every later read there is numpy's own, with no proxy
    in between.  Importing a module loads no numpy; a call loads it when
    it first reaches numpy code.
    """

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _Numpy(globals())


class _Far:
    """Marker for color steps that no arc of an adjacent pair can take."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "FAR"


FAR = _Far()


def arc_value(i: int, j: int, k: int):
    """Doubled Δ of the arc from color i to color j, k colors, odd k >= 3.

    By the residue r of j-i mod k.  For k = 3: 1 -> +1, 2 -> -1, 0 -> 0.
    For k >= 5: 2 -> +1, k-2 -> -1, 1 -> +1/2, k-1 -> -1/2, 0 -> 0, and
    any other residue -> the FAR marker.  Returns twice the value as an
    int (2, -2, 1, -1, 0), or FAR.
    """
    if k < 3 or k % 2 == 0:
        raise ParityDomainError(f"codomain size must be odd and >= 3, got {k}")
    if not (1 <= i <= k and 1 <= j <= k):
        raise ValueError(f"colors must be in 1..{k}, got ({i},{j})")
    r = (j - i) % k
    if k == 3:
        return (0, 2, -2)[r]
    return {0: 0, 2: 2, k - 2: -2, 1: 1, k - 1: -1}.get(r, FAR)


def chord_order(n: int) -> tuple[tuple[int, int], ...]:
    """The arcs of the directed chord cycle of C_{2n+1}, in tour order.

    Starting at id 0, each arc steps +2 mod 2n+1; the tour visits the
    odd positions then the even ones and closes where it began.
    """
    if n < 1:
        raise ParityDomainError(f"n must be >= 1, got {n}")
    length = 2 * n + 1
    return tuple(((2 * t) % length, (2 * t + 2) % length) for t in range(length))


def orient_edge(edge: Iterable[int], n: int) -> tuple[int, int]:
    """Orient a cycle edge {x,y} as (a,b) with an n-arc chord path a -> b.

    Exactly one orientation works: the chord tour advances by 2, so n
    steps from a land on a-1 mod 2n+1, i.e. a must be the cyclic
    successor of b.  The other orientation (an (n+1)-arc path) is never
    exposed.
    """
    if n < 1:
        raise ParityDomainError(f"n must be >= 1, got {n}")
    length = 2 * n + 1
    try:
        x, y = edge
    except (TypeError, ValueError) as exc:
        raise ValueError(f"edge must be a pair, got {edge!r}") from exc
    if not (0 <= x < length and 0 <= y < length) or x == y:
        raise ValueError(f"({x},{y}) is not an edge of a {length}-cycle")
    if x == (y + 1) % length:
        return (x, y)
    if y == (x + 1) % length:
        return (y, x)
    raise ValueError(f"({x},{y}) is not an edge of a {length}-cycle")


class OddCycleCtx(_Record):
    """Everything fixed before coloring: cycle size, codomain and edge.

    A read-only record (``errors._Record``); ``a``/``b`` is the
    distinguished edge, oriented per :func:`orient_edge`.  Built in O(1)
    via :meth:`make`; direct construction validates consistency.  The
    step table (:attr:`step_values`, at most five steps) and the fold
    table (:attr:`bin_fold`, O(k)) are derived on first use, and again
    after a round trip; nothing held grows with the cycle.
    """

    _fields = ("n", "k", "a", "b")
    __slots__ = (*_fields, "__dict__")  # ``__dict__`` holds the cached tables
    n: int
    k: int
    a: int
    b: int

    def __init__(self, n: int, k: int, a: int, b: int):
        if n < 1:
            raise ParityDomainError(f"n must be >= 1, got {n}")
        if k < 3 or k % 2 == 0:
            raise ParityDomainError(f"codomain size must be odd and >= 3, got {k}")
        if orient_edge((a, b), n) != (a, b):
            raise ValueError(f"(a,b)=({a},{b}) is not n-arc oriented")
        self._set(n, k, a, b)

    @classmethod
    def make(cls, n: int, k: int, edge: Iterable[int] | None = None) -> "OddCycleCtx":
        """Context for C_{2n+1} into k colors; edge defaults to {0, 2n}."""
        a, b = orient_edge(edge if edge is not None else (0, 2 * n), n)
        return cls(n=n, k=k, a=a, b=b)

    @property
    def length(self) -> int:
        return 2 * self.n + 1

    @cached_property
    def step_values(self) -> tuple[tuple[int, int], ...]:
        """The chord steps a non-isolated assignment takes, each with its
        doubled Δ, as (d, value) pairs in ascending d, plain ints.

        A step is d = f(i+2) - f(i), -(k-1) <= d <= k-1, valued by
        :func:`arc_value` on its residue mod k; a step left out (FAR, or
        a half) makes the assignment isolated.  :func:`arc_value` values
        the residues 0, ±1 and ±2 mod k and no other, so only those are
        read.  :attr:`bin_fold` is built from this table, and
        :func:`.scalar.row_tour` counts its steps.
        """
        k = self.k
        table = {}
        for r in {0, 1, 2, k - 2, k - 1}:
            value = arc_value(1, 1 + r, k)
            if value is not FAR and value % 2 == 0:
                table[r] = value
                if r:
                    table[r - k] = value
        return tuple(sorted(table.items()))

    @cached_property
    def bin_fold(self) -> "np.ndarray":
        """Weights that fold the step histogram into (2l, 2p, flat, bad).

        One row per bin (off the path, then on it; steps -(k-1)..k-1):
        a step of :attr:`step_values` puts its doubled Δ into the label
        on both regions and into the little path on the path; a zero
        step puts 1 into ``flat``; every other step puts 1 into ``bad``.
        """
        k = self.k
        fold = np.zeros((2, 2 * k - 1, 4), dtype=np.int64)
        fold[:, :, 3] = 1
        for d, value in self.step_values:
            fold[:, d + k - 1] = (value, 0, 0, 0)
            fold[1, d + k - 1, 1] = value
        fold[:, k - 1, 2] = 1
        fold = fold.reshape(-1, 4)
        fold.setflags(write=False)
        return fold


def _check_assignment(f: Sequence[int], n: int) -> None:
    if n < 1:
        raise ParityDomainError(f"n must be >= 1, got {n}")
    if len(f) != 2 * n + 1:
        raise ValueError(f"assignment has {len(f)} entries, cycle needs {2 * n + 1}")


def fixed_points(f: Sequence[int], n: int) -> frozenset[int]:
    """Ids i whose two cycle neighbors receive different colors under f."""
    _check_assignment(f, n)
    length = 2 * n + 1
    return frozenset(
        i for i in range(length) if f[(i - 1) % length] != f[(i + 1) % length]
    )


def in_even_class(f: Sequence[int], n: int) -> bool:
    """True iff f has an even number of fixed points."""
    return len(fixed_points(f, n)) % 2 == 0


# -- the vectorized kernel ----------------------------------------------------
#
# Δ depends on the colors of an arc only through the step d = f(i+2) -
# f(i) mod k, so one histogram of the steps (d in -(k-1)..k-1), split by
# whether the arc is on the little path, is all ``np_tour`` counts;
# ``OddCycleCtx.bin_fold`` turns the counts into the label, the little
# path, the fixed points (arcs with d != 0) and isolation.  The steps are
# taken after a cast to a signed dtype, so unsigned input cannot wrap.
#
# Every input is counted one way, in passes of at most ``_BLOCK`` ids:
# ``_pass_counts`` takes a pass's ids, cast, and the two after it (past
# id 2n, ids 0 and 1), adds each arc's bin offset and counts the codes
# with one ``np.bincount``.  ``np_tour`` hands ``_tour_sum`` tiles of
# whole rows, at most ``_BLOCK`` entries and bins each, to slice into
# passes (the codes of a tile's r-th row moved by r times the bin count);
# ``coloring.RowFeed`` counts each piece of a row as it arrives.

_BLOCK = 1 << 16


@lru_cache(maxsize=16)
def _offsets(k: int, size: int) -> "np.ndarray":
    """The bin offsets around id b, for passes of up to ``size`` ids.

    Entry ``size + 1 + t`` is the offset of id b + t: k-1 (off the little
    path) at b, 3k-2 (on it) at b-2, b-4, ... and at b+1, b+3, ..., and
    k-1 at the ids between; there are ``size + 1`` entries on either
    side of b.  The dtype is the narrowest signed one holding every code
    (0..4k-3), and the kernel casts assignments to it.
    """
    offsets = np.full(2 * size + 3, k - 1, dtype=np.min_scalar_type(-4 * k))
    offsets[(size + 1) % 2 : size : 2] = 3 * k - 2
    offsets[size + 2 :: 2] = 3 * k - 2
    offsets.setflags(write=False)
    return offsets


def _pass_counts(
    f: "np.ndarray", start: int, ctx: OddCycleCtx, offsets: "np.ndarray"
) -> "np.ndarray":
    """The step histogram of one pass over the chord tour, for each row of ``f``.

    ``f`` is one row (m+2,) or a tile (rows, m+2) of ids start..start+m+1
    (ids past 2n wrapping to 0 and 1), cast to the dtype of ``offsets``,
    the :func:`_offsets` table for passes of at least m ids; the pass
    counts the m arcs leaving ids start..start+m-1.  Each arc's code is
    its step plus its bin offset, k-1 off the little path and 3k-2 on
    it.  The path's arcs leave ids a, a+2, ..., a+2(n-1) mod 2n+1, that
    is the ids of b's parity below b and those of a's parity above it,
    so the pass reads its offsets from the table at its distance from b
    (moved by an even number of ids to stay within the table when b lies
    outside the pass).  In a tile, row r's codes are then moved by r
    times the bin count, so one ``np.bincount`` counts every row.

    Returns the counts of the ``len(ctx.bin_fold)`` bins, row after row.
    """
    bins = len(ctx.bin_fold)
    m, j = f.shape[-1] - 2, ctx.b - start  # the pass's ids, and b's place
    if j < 0:
        j = j % 2 - 2
    elif j > m:
        j = m + (j - m) % 2
    codes = f[..., 2:] - f[..., :-2]
    at_b = len(offsets) // 2  # the table's entry for id b
    codes += offsets[at_b - j : at_b - j + m]
    rows = f.size // f.shape[-1]
    if f.ndim > 1:
        codes = codes + np.arange(0, rows * bins, bins)[:, None]
    # each code carries its row, so the codes are read in memory order
    return np.bincount(codes.ravel("K"), minlength=rows * bins)


def _tour_sum(x: "np.ndarray", ctx: OddCycleCtx) -> "np.ndarray":
    """The step histogram of the chord tour of each row of ``x``.

    ``x`` is one row (2n+1,) or a tile (rows, 2n+1), sliced into passes
    of at most ``_BLOCK`` ids for :func:`_pass_counts`: the pass over ids
    start..stop-1 reads ids start..stop+1 cast to the codes' dtype, the
    last pass wrapping to ids 0 and 1.  Returns the counts of the
    ``len(ctx.bin_fold)`` bins, row after row: (bins,) for a row,
    (rows * bins,) for a tile.
    """
    length = x.shape[-1]
    offsets = _offsets(ctx.k, min(length, _BLOCK))
    total = None
    for start in range(0, length, _BLOCK):
        stop = min(start + _BLOCK, length)
        f = np.concatenate(
            (x[..., start : stop + 2], x[..., : max(stop + 2 - length, 0)]),
            axis=-1,
            dtype=offsets.dtype,
            casting="unsafe",
        )
        counts = _pass_counts(f, start, ctx, offsets)
        if total is None:
            total = counts
        else:
            total += counts
    return total


def np_tour(fs: "np.ndarray", ctx: OddCycleCtx) -> tuple:
    """Label, little path, fixed points and isolation of assignments.

    The Δ kernel.  ``fs`` is (..., 2n+1) of any integer dtype, holding
    colors in 1..k (not checked).  Returns ``(ell2, p2, fixed,
    isolated)``: the doubled label, the doubled little path along ctx's
    chord path, the fixed-point count, and whether some chord arc takes
    a step that no neighbor allows (see :func:`.scalar.label`).  Python scalars
    for 1-d input, arrays of shape fs.shape[:-1] otherwise.  ``ell2`` and
    ``p2`` of an isolated assignment leave out the arcs that isolate it.

    Every shape is counted by :func:`_tour_sum`, and each row's histogram
    is folded once by ``ctx.bin_fold``.  A stack goes in tiles of whole
    rows holding at most ``_BLOCK`` entries and ``_BLOCK`` bins (one row
    a tile once rows are longer than that), and the tour in passes of at
    most ``_BLOCK`` entries, so beyond ``fs`` and the result the kernel
    holds a few pass-sized arrays at any size.
    """
    fs = np.asarray(fs)
    fold = ctx.bin_fold
    length = fs.shape[-1]
    if length != ctx.length:
        raise ValueError(f"assignments have {length} entries, cycle needs {ctx.length}")
    if fs.ndim == 1:
        ell2, p2, flat, bad = _tour_sum(fs, ctx).dot(fold).tolist()
        return ell2, p2, length - flat, bad > 0
    stack = fs.reshape(-1, length)
    tile = max(1, _BLOCK // max(length, len(fold)))
    totals = np.empty((len(stack), 4), dtype=np.int64)
    for r in range(0, len(stack), tile):
        counts = _tour_sum(stack[r : r + tile], ctx)
        totals[r : r + tile] = counts.reshape(-1, len(fold)).dot(fold)
    ell2, p2, flat, bad = totals.T.reshape((4,) + fs.shape[:-1])
    return ell2, p2, length - flat, bad > 0
