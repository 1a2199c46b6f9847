"""The chord-step histogram of one row in plain ints, without numpy, and
the scalar label and little path that read it.

:func:`row_tour` is :func:`.winding.np_tour` of one row: the steps of
``OddCycleCtx.step_values`` counted by their value, over the tour and the
little path.  :func:`label` and :func:`little_path` read it, and
``coloring.color_row`` colors a row from it.  This code lives apart from
:mod:`.winding` so that building a cycle context, which every call does,
compiles none of it; a short ``color`` call, on a cycle or on a general
host, and the verifiers load it through :mod:`.coloring`.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Sequence

from .errors import IsolatedFunctionError
from .winding import OddCycleCtx, _check_assignment, chord_order


def _check_colors(f: Sequence[int], k: int) -> None:
    for c in f:
        if not 1 <= c <= k:
            raise ValueError(f"color {c} outside 1..{k}")


# The steps of a row come from one big-int subtraction.  The row's colors
# (1..k) are laid out as lanes of one width, a byte while 2k fits in one;
# the lanes moved by two ids, plus k in each, less the lanes, leave the
# arc leaving id i in lane i as d + k, between 1 and 2k - 1, so no lane
# borrows from or carries into the next.  The lanes are then read as the
# steps' classes and each class counted (``row_tour``).


@lru_cache(maxsize=16)
def _lanes(k: int, length: int) -> tuple[int, int]:
    """The byte width of the narrowest lanes (1, 2, 4 or 8 bytes) that
    hold 0..2k, and the int whose ``length`` such lanes each hold k."""
    width = 1 << (((2 * k).bit_length() - 1) // 8).bit_length()
    return width, int.from_bytes(k.to_bytes(width, sys.byteorder) * length, sys.byteorder)


def _steps(f: Sequence[int], k: int):
    """The step f(i+2) - f(i) + k of the chord arc leaving each id i, in
    id order, for colors in 1..k (not checked).

    ``f`` is a sequence of ints, or the bytes of their values.  The steps
    come as bytes, or as an ``array`` once 2k outgrows a byte.
    """
    width, offset = _lanes(k, len(f))
    ints = f if type(f) in (tuple, list) else list(f)
    if width == 1:
        row = f if type(f) is bytes else bytes(ints)
    else:
        from array import array

        row = array("BHIQ"[width.bit_length() - 1], ints)
    order = sys.byteorder
    moved = int.from_bytes(row[2:] + row[:2], order) + offset
    steps = (moved - int.from_bytes(row, order)).to_bytes(width * len(f), order)
    return steps if width == 1 else array(row.typecode, steps)


# Every k's ``step_values`` values the flat step d = 0 at 0 and each other
# step at +2 or -2, so a step is read as one of four classes: its byte in
# ``_classes`` is 1 for the flat step, 2 for a step valued +2, 3 for one
# valued -2, and 0 for a step the table leaves out, which isolates the row.
_CLASS = {0: 1, 2: 2, -2: 3}


@lru_cache(maxsize=16)
def _classes(k: int, step_values: tuple[tuple[int, int], ...]) -> bytes:
    """The class of each step lane value d + k, 0 <= d + k < 2k: a
    translate table while 2k fits in a byte, 256 bytes long."""
    table = bytearray(max(256, 2 * k))
    for d, value in step_values:
        table[d + k] = _CLASS[value]
    return bytes(table)


def row_tour(f: Sequence[int], ctx: OddCycleCtx) -> tuple[int, int, int, bool]:
    """:func:`.winding.np_tour` of one row, in plain ints and without numpy.

    ``f`` holds 2n+1 colors in 1..k (not checked): a sequence of ints, or
    the bytes of their values.  Returns ``(ell2, p2, fixed, isolated)``
    as :func:`.winding.np_tour` gives them for a 1-d row.  The steps are
    read as their classes (``_classes``, from ``ctx.step_values``), and
    each class is counted over the whole tour and the two valued ones over
    the little path's arcs (those leaving ids a, a+2, ... mod 2n+1); the
    arcs of no counted class are the isolating ones.
    """
    n, k, a = ctx.n, ctx.k, ctx.a
    table = _classes(k, ctx.step_values)
    steps = _steps(f, k)
    if type(steps) is bytes:
        classes = steps.translate(table)
    else:
        classes = bytes(map(table.__getitem__, steps))
    path = classes[a : a + 2 * n : 2]
    rest = n - len(path)  # the path's ids past 2n, from id 1 - a % 2 on
    if rest:
        path += classes[1 - a % 2 : 2 * rest : 2]
    flat, up, down = classes.count(1), classes.count(2), classes.count(3)
    ell2 = 2 * (up - down)
    p2 = 2 * (path.count(2) - path.count(3))
    return ell2, p2, len(classes) - flat, flat + up + down < len(classes)


def _tour(f: Sequence[int], ctx: OddCycleCtx) -> tuple[int, int, int, bool]:
    """:func:`row_tour` of a checked f, or the error of an isolated f,
    naming its first isolating chord arc, raised."""
    _check_assignment(f, ctx.n)
    _check_colors(f, ctx.k)
    tour = row_tour(f, ctx)
    if tour[3]:  # name the first chord arc whose step isolates f
        allowed = dict(ctx.step_values)
        steps = ((u, v, int(f[v]) - int(f[u])) for u, v in chord_order(ctx.n))
        u, v, step = next(arc for arc in steps if arc[2] not in allowed)
        raise IsolatedFunctionError(
            f"assignment is isolated: chord arc ({u},{v}) steps by "
            f"{step % ctx.k} mod {ctx.k}, outside {{0, 2, {ctx.k - 2}}}"
        )
    return tour


def label(f: Sequence[int], ctx: OddCycleCtx) -> int:
    """2ℓ_f: the doubled total arc value of f around the chord cycle,
    the ``ell2`` of :func:`.winding.np_tour`."""
    return _tour(f, ctx)[0]


def little_path(f: Sequence[int], ctx: OddCycleCtx) -> int:
    """2p_f: the doubled total arc value of f along the n-arc chord path
    from a to b, the ``p2`` of :func:`.winding.np_tour`.

    Isolated assignments have no little path: the whole chord tour is
    screened, so an impossible step anywhere raises even when the a-to-b
    path itself is clean.
    """
    return _tour(f, ctx)[1]
