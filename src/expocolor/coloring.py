"""Coloring algorithms: the O(n) per-vertex routine and its rivals.

Three layers live here, mirroring how the math composes:

* ``color_rows`` — color even-class assignments on an odd cycle in
  O(n) arithmetic each: one :func:`.winding.np_tour` call counts each
  row's fixed points, isolation, and doubled label 2ℓ_f and little path
  2p_f (exact ints), and one O(1) rule, the table ``_RULE``, decides the
  row.  The first check a row fails gives its code and error: colors in
  1..k (code 6), isolation (3), an even fixed-point count (4).  Then
  f(a) = f(b) colors f(a) (0, EqualEndpoints), else p_f below ℓ_f/2
  colors f(a) (1, BelowHalf) and above it f(b) (2, AboveHalf); p_f on
  ℓ_f/2 is provably unreachable and reported loudly (5).  A stack reads
  the table by columns, with every row's verdict and error returned;
  ``color_vertex`` / ``color_vertex_ck`` raise their one row's error.
  ``RowFeed`` gives the same verdicts for rows that arrive in pieces,
  counting each piece as it arrives, so no row is held whole, and
  ``color_row`` for one row of plain ints without numpy, from
  :func:`.scalar.row_tour`.

* ``color_graph_baseline`` — the exponential contrast: materialize the
  whole even class, color the f(a)=f(b) assignments directly (they hit
  every odd cycle), and 2-color the bipartite remainder.

* ``find_even_cycle`` / ``color_rows_in_kh`` — the general-host
  pipeline: pick an odd cycle of H on which the assignment has an even
  number of fixed points, restrict, and color the restriction.  The
  search is one rule fixed by H: C*(H), one BFS odd cycle, when the
  assignment is even on it, else the least even cycle.  Cycles already
  used are retried first, in insertion order, via an explicit
  ``CycleCache`` value threaded through calls.  A stack is scanned one
  cached cycle at a time and colored with one ``color_rows`` call per
  serving cycle, with the same failure contract; ``color_in_kh`` is its
  one-row case, in plain ints without numpy: the bitmask isolation
  test, the cache scan, the cycle search and ``color_row`` on the
  serving cycle.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import (
    InvariantViolationError,
    IsolatedFunctionError,
    NoEvenCycleError,
    ParityDomainError,
)
from .expo import (
    DEFAULT_CAP,
    ExpoGraph,
    _check_assignment,
    full_grid,
    is_isolated,
    isolated_rows,
    restrict,
)
from .graphs import (
    CycleWitness,
    Graph,
    bipartition,
    least_odd_cycle,
    make_cycle,
    odd_cycle_in,
)
from . import winding
from .scalar import row_tour
from .winding import OddCycleCtx, _Numpy, in_even_class

np = _Numpy(globals())


class Branch(Enum):
    """Which rule of the per-vertex routine produced the color."""

    EQUAL_ENDPOINTS = "EqualEndpoints"
    BELOW_HALF = "BelowHalf"
    ABOVE_HALF = "AboveHalf"


_BRANCHES = tuple(Branch)


@dataclass(frozen=True)
class ColorVerdict:
    """A color plus the exact certificate that justifies it.

    ``ell2`` and ``p2`` are the doubled label and little-path values
    (2ℓ_f and 2p_f, exact ints); the branch records whether the endpoints
    agreed or which side of ell/2 the little path fell on.
    """

    color: int
    branch: Branch
    ell2: int
    p2: int

    def to_json_dict(self) -> dict:
        return {
            "color": self.color,
            "branch": self.branch.value,
            "ell2": self.ell2,
            "p2": self.p2,
        }


def _side_of(p2, ell2):
    """Which side of ell/2 the little path falls on: -1 below, +1 above,
    0 on it, for ints or elementwise for int64 arrays (``* 1`` makes one
    side an int: numpy subtracts no bool array from another).

    Arguments are doubled values (p2 = 2p, ell2 = 2l); the exact test
    is sign(2*p2 - ell2), since p - l/2 and 2*p2 - ell2 share a sign.
    """
    d = 2 * p2 - ell2
    return (d > 0) * 1 - (d < 0)


# The decision, _RULE[isolated][fixed-point count odd][f(a) == f(b)][side + 1]
# for side = _side_of(p2, ell2), in the module docstring's codes; plain
# tuples, read by _code for one row and through np.asarray by columns.
_FAILS_ISOLATED, _FAILS_PARITY, _FAILS_ON_HALF, _FAILS_RANGE = 3, 4, 5, 6
_RULE = (
    (  # not isolated
        ((1, _FAILS_ON_HALF, 2), (0, 0, 0)),  # even: f(a) != f(b), f(a) == f(b)
        ((_FAILS_PARITY,) * 3,) * 2,  # odd
    ),
    (((_FAILS_ISOLATED,) * 3,) * 2,) * 2,  # isolated
)


class RowColors(NamedTuple):
    """What :func:`color_rows` or :func:`color_rows_in_kh` decided for
    every row of a stack.

    ``color``, ``branch`` (the branch's position in ``Branch``), ``ell2``
    and ``p2`` are int64 arrays over all rows, 0 where a row failed.
    ``failed`` holds the rows that cannot be colored, in ascending order,
    and ``errors`` the exception the one-row routines raise for each of
    them, not raised.  ``cycle`` is set by :func:`color_rows_in_kh` only:
    the cache index of the cycle that served each row, -1 where it failed.
    """

    color: np.ndarray
    branch: np.ndarray
    ell2: np.ndarray
    p2: np.ndarray
    failed: np.ndarray
    errors: list[Exception]
    cycle: np.ndarray | None = None


def _wrong_shape(ctx: OddCycleCtx) -> ValueError:
    return ValueError(f"assignment must have {ctx.length} entries")


def _out_of_range(ctx: OddCycleCtx) -> ValueError:
    return ValueError(f"colors must be in 1..{ctx.k}")


def _row_past_int64(fs, arr: np.ndarray, k: int) -> list[int]:
    """The first row of ``fs``, which numpy made ``arr`` of a non-integer
    dtype, with a color outside 1..k, when every entry is a Python int:
    with a color past int64, Python ints make a float64 array (below
    2^64) or an object array, out of range rather than non-integer.
    Raises the dtype error otherwise."""
    ints = arr if isinstance(fs, np.ndarray) else np.array(fs, dtype=object)
    if ints.shape == arr.shape and all(type(c) is int for c in ints.flat):
        for row in ints.reshape(-1, arr.shape[-1]).tolist():
            if min(row) < 1 or max(row) > k:
                return row
    raise ValueError(f"colors must be integers, got dtype {arr.dtype}")


def _outside(rows: np.ndarray, k: int) -> np.ndarray:
    """Which rows of a (rows, L) stack hold a color outside 1..k; one pass
    over the whole stack when none does."""
    if rows.size and (rows.min() < 1 or rows.max() > k):
        return (rows.min(axis=1) < 1) | (rows.max(axis=1) > k)
    return np.zeros(len(rows), dtype=bool)


def _error(ctx: OddCycleCtx, code: int, fixed: int, p2: int, ell2: int) -> Exception:
    """The error, not raised, of a row whose decision is ``code``, past
    the branches."""
    if code == _FAILS_RANGE:
        return _out_of_range(ctx)
    if code == _FAILS_ISOLATED:
        return IsolatedFunctionError(
            f"assignment is isolated: a chord arc steps outside "
            f"{{0, 2, {ctx.k - 2}}} mod {ctx.k}"
        )
    if code == _FAILS_PARITY:
        return ParityDomainError(
            f"assignment has {fixed} fixed points (odd); "
            "only the even class is colorable this way"
        )
    return InvariantViolationError(
        f"little path equals half the label (p2={p2}, ell2={ell2}); "
        "this is unreachable for even-class assignments"
    )


def _code(fa: int, fb: int, tour: tuple) -> int:
    """``_RULE`` read with scalars, for one row with endpoint colors fa, fb
    and :func:`.winding.np_tour` outputs ``tour``."""
    ell2, p2, fixed, isolated = tour
    return _RULE[isolated][fixed % 2][fa == fb][_side_of(p2, ell2) + 1]


def _decide(ctx: OddCycleCtx, ends: np.ndarray, tour: tuple, outside) -> RowColors:
    """``_RULE`` read by columns, for a stack with (rows, 2) endpoint
    colors ``ends`` and :func:`.winding.np_tour` outputs ``tour``; a row
    where ``outside`` is true held a color outside 1..k before a stand-in
    took its place.  A row that fails gets 0s and its error.
    """
    fa, fb = ends.T.astype(np.int64)
    ell2, p2, fixed, isolated = tour
    iso, equal = isolated.astype(np.intp), (fa == fb).astype(np.intp)
    code = np.asarray(_RULE)[iso, fixed % 2, equal, _side_of(p2, ell2) + 1]
    code = np.where(outside, _FAILS_RANGE, code)
    failed = np.flatnonzero(code >= len(_BRANCHES))
    columns = (code, fixed, p2, ell2)
    errors = [_error(ctx, *row) for row in zip(*(c[failed].tolist() for c in columns))]
    colored = code < len(_BRANCHES)
    verdicts = (np.where(code == 2, fb, fa), code, ell2, p2)
    return RowColors(*(v * colored for v in verdicts), failed, errors)


def color_rows(fs, ctx: OddCycleCtx) -> RowColors:
    """Color a row, or a stack of rows, of C_{2n+1} with one kernel call.

    ``fs`` is one assignment (1-d) or a (rows, 2n+1) stack, of any
    integer dtype; a stack of another shape or dtype raises ValueError,
    the one-row error of its first out-of-range row where Python ints
    past int64 made it a float64 or object array.  Every row is colored,
    or fails the first check it fails in the order the one-row routines
    apply them (see the module docstring), colors in 1..k read on the
    values as given.  One :func:`.winding.np_tour` call serves the stack,
    with a constant row standing in for each out-of-range one, and one
    lookup of ``_RULE`` by columns decides every row.
    """
    arr = np.asarray(fs)
    if arr.ndim not in (1, 2) or arr.shape[-1] != ctx.length:
        raise _wrong_shape(ctx)
    if arr.dtype.kind not in "iu":
        _row_past_int64(fs, arr, ctx.k)
        raise _out_of_range(ctx)
    rows = arr.reshape(-1, ctx.length)
    bad = _outside(rows, ctx.k)
    if bad.any():
        rows = np.where(bad[:, None], 1, rows)
    ends = rows[:, [ctx.a, ctx.b]]
    return _decide(ctx, ends, winding.np_tour(rows, ctx), bad)


class RowFeed:
    """:func:`color_rows` of rows that arrive in pieces, none held whole.

    :meth:`take` reads the ids of the rows one after another, in pieces
    of any length and integer dtype, and a row ends after every 2n+1
    ids.  Each piece, cut at the row's end and at ``winding._BLOCK``
    ids, is counted as it arrives: the two ids carried from the piece
    before go in front of it, and :func:`.winding._pass_counts` counts
    the arcs that leave them and every id of the piece but its last two,
    which are carried on.  Ids 0 and 1 of each row are kept, and at its
    end one more call counts the carried ids' arcs through them.  Along
    the way each row's f(a) and f(b) are recorded, and a row with a
    color outside 1..k is noted (and counted with its colors clipped to
    1..k, since it fails anyway).  :meth:`colors` then decides every
    whole row as :func:`color_rows` does.  Beyond each row's values the
    feed holds four ids and one pass's counts.
    """

    def __init__(self, ctx: OddCycleCtx):
        self.ctx = ctx
        self._longest = min(ctx.length, winding._BLOCK)  # a piece's most ids
        # the wrap at a row's end counts two arcs in one pass
        self._offsets = winding._offsets(ctx.k, max(self._longest, 2))
        self._head = np.empty(2, dtype=self._offsets.dtype)  # ids 0 and 1 of the row
        self._rows: list[tuple] = []  # each whole row's f(a), f(b), np_tour values and outside
        self._new_row()

    def _new_row(self) -> None:
        self._next = 0  # the row's next id to arrive
        self._carry = self._head[:0]  # the ids whose arcs are not counted yet
        self._ends = [0, 0]  # f(a), f(b)
        self._outside = False  # whether a color is outside 1..k
        self._total = np.zeros(len(self.ctx.bin_fold), dtype=np.int64)

    def _count(self, piece: np.ndarray) -> None:
        """Count the arcs that leave the carried ids and every id of
        ``piece`` but its last two, and carry those two on."""
        f = np.concatenate((self._carry, piece), dtype=self._offsets.dtype, casting="unsafe")
        if len(f) > 2:
            start = self._next - len(self._carry)
            self._total += winding._pass_counts(f, start, self.ctx, self._offsets)
        self._carry = f[-2:].copy()

    def take(self, x) -> None:
        """Read the next ids of the rows, in order: an integer array, or
        the bytes of uint8 values (as the CLI's digit reader hands them),
        read in place."""
        if isinstance(x, bytes):
            x = np.frombuffer(x, dtype=np.uint8)
        k, length = self.ctx.k, self.ctx.length
        while len(x):
            lo = self._next
            room = min(self._longest, length - lo)
            piece, x = x[:room], x[room:]
            hi = lo + len(piece)
            if piece.min() < 1 or piece.max() > k:
                self._outside = True
                piece = piece.clip(1, k)
            for i, v in enumerate((self.ctx.a, self.ctx.b)):
                if lo <= v < hi:
                    self._ends[i] = int(piece[v - lo])
            if lo < 2:
                self._head[lo : min(hi, 2)] = piece[: 2 - lo]
            self._count(piece)
            self._next = hi
            if hi == length:
                self._count(self._head)  # the carried ids' arcs, through ids 0 and 1
                ell2, p2, flat, bad = self._total.dot(self.ctx.bin_fold).tolist()
                row = (*self._ends, ell2, p2, length - flat, bad > 0, self._outside)
                self._rows.append(row)
                self._new_row()

    def colors(self) -> RowColors:
        """The :class:`RowColors` of the whole rows read, as
        :func:`color_rows` gives them: one lookup of ``_RULE`` by columns."""
        values = np.array(self._rows, dtype=np.int64).reshape(-1, 7)
        tour = *values[:, 2:5].T, values[:, 5] > 0
        return _decide(self.ctx, values[:, :2], tour, values[:, 6] > 0)


def _color_one(f: Sequence[int], ctx: OddCycleCtx) -> ColorVerdict:
    """The one-row case of :func:`color_rows`: its verdict, or its error raised.

    The same checks and errors: colors in 1..k, then one lookup of
    ``_RULE`` with scalars, on the row directly, since at n = 10^3 the stack
    bookkeeping would be a sizeable share of the call.
    """
    arr = np.asarray(f)
    if arr.ndim != 1 or len(arr) != ctx.length:
        raise _wrong_shape(ctx)
    if arr.dtype.kind not in "iu":
        _row_past_int64(f, arr, ctx.k)
        raise _out_of_range(ctx)
    if arr.item(arr.argmin()) < 1 or arr.item(arr.argmax()) > ctx.k:
        raise _out_of_range(ctx)
    fa, fb = arr.item(ctx.a), arr.item(ctx.b)
    ell2, p2, fixed, isolated = tour = winding.np_tour(arr, ctx)
    code = _code(fa, fb, tour)
    if code >= len(_BRANCHES):
        raise _error(ctx, code, fixed, p2, ell2)
    return ColorVerdict(fb if code == 2 else fa, _BRANCHES[code], ell2, p2)


_COLOR_BYTES = bytes(range(1, 256))


def color_row(f, ctx: OddCycleCtx) -> tuple[int, int, int, int]:
    """The one-row routine without numpy: ``(color, branch position in
    Branch, ell2, p2)``, or the row's error raised, as :func:`color_vertex`
    and :func:`color_vertex_ck` give them.

    ``f`` is a sequence of ints, or the bytes of their values.  The same
    checks in the same order, the step histogram of
    :func:`.scalar.row_tour` in place of the kernel, and one lookup of
    ``_RULE`` with scalars.
    """
    if len(f) != ctx.length:
        raise _wrong_shape(ctx)
    k = ctx.k
    if type(f) is bytes:
        outside = f.translate(None, _COLOR_BYTES[:k])  # the bytes that are no color
    else:
        outside = min(f) < 1 or max(f) > k
    if outside:
        raise _out_of_range(ctx)
    fa, fb = f[ctx.a], f[ctx.b]
    ell2, p2, fixed, isolated = tour = row_tour(f, ctx)
    code = _code(fa, fb, tour)
    if code >= len(_BRANCHES):
        raise _error(ctx, code, fixed, p2, ell2)
    return fb if code == 2 else fa, code, ell2, p2


def color_vertex(f: Sequence[int], ctx: OddCycleCtx) -> ColorVerdict:
    """Color one even-class three-color assignment in O(n).

    ``f`` is a sequence or 1-d array of any integer dtype: the one-row
    case of :func:`color_rows`, with its checks, raising the first
    row's error.
    """
    if ctx.k != 3:
        raise ValueError(f"three-color routine got k={ctx.k}; use color_vertex_ck")
    return _color_one(f, ctx)


def color_vertex_ck(f: Sequence[int], ctx: OddCycleCtx) -> ColorVerdict:
    """Color one even-class assignment into the cycle C_k, odd k >= 5.

    Same checks, kernel and decision rule as :func:`color_vertex`;
    isolated assignments (an impossible chord step) are rejected before
    the parity check.
    """
    if ctx.k < 5:
        raise ValueError(f"cycle-codomain routine got k={ctx.k}; use color_vertex")
    return _color_one(f, ctx)


def even_class_subgraph(n: int, cap: int = DEFAULT_CAP) -> ExpoGraph:
    """The exponential graph over C_{2n+1} induced on even-parity assignments."""
    h = make_cycle(2 * n + 1)
    rows = full_grid(h, 3, cap)
    _, _, fixed, _ = winding.np_tour(rows, OddCycleCtx.make(n, 3))
    sub = ExpoGraph.from_rows(h, 3, False, rows[fixed % 2 == 0])
    if sub.loops:
        raise InvariantViolationError(
            "even-class subgraph contains a self-loop; proper colorings "
            "of an odd cycle must have odd parity"
        )
    return sub


def color_graph_baseline(ke: ExpoGraph, ctx: OddCycleCtx) -> dict[tuple[int, ...], int]:
    """Exponential-time coloring of the whole even class at once.

    The assignments with f(a) = f(b) take color f(a); they hit every
    odd cycle, so the rest is bipartite and its two sides take f(a)
    and f(b) respectively.  Proper by construction; the bipartition
    step is where the exponential cost lives.  The even class is one
    row stack: one :func:`.winding.np_tour` call checks its parity, a
    mask on the endpoint columns splits off the remainder, and the colors
    are gathered from the endpoint columns.
    """
    if ke.k != 3 or ke.cycle_target:
        raise ValueError("baseline expects a three-color exponential graph")
    if ctx.k != 3:
        raise ValueError(f"baseline needs a k=3 context, got k={ctx.k}")
    host = ke.host
    if host.vertex_count != ctx.length or host.edge_count != ctx.length:
        raise ValueError("host is not the odd cycle the context describes")
    for i in range(ctx.length):
        if not host.has_edge(i, (i + 1) % ctx.length):
            raise ValueError("host is not the odd cycle the context describes")
    rows = np.array(ke.vertices, dtype=np.int64).reshape(-1, ctx.length)
    odd = winding.np_tour(rows, ctx)[2] % 2 != 0
    if odd.any():
        f = ke.vertices[odd.argmax()]
        raise ValueError(f"assignment {f} has odd parity; not an even-class graph")

    rest = np.flatnonzero(rows[:, ctx.a] != rows[:, ctx.b])
    sub = ExpoGraph.from_rows(host, 3, False, rows[rest])
    parts = bipartition(sub.to_graph())
    if parts is None:
        raise InvariantViolationError(
            "remaining even-class subgraph is not bipartite; the "
            "equal-endpoint assignments failed to hit every odd cycle"
        )
    colors = rows[:, ctx.a].copy()
    side_b = rest[np.fromiter(parts[1], dtype=np.int64)]
    colors[side_b] = rows[side_b, ctx.b]
    return dict(zip(ke.vertices, colors.tolist()))


# -- general hosts ------------------------------------------------------------


def find_even_cycle(h: Graph, f: Sequence[int]) -> CycleWitness:
    """An odd cycle of h on which f has an even number of fixed points.

    One rule, fixed by h alone: C*(h) = :func:`.graphs.odd_cycle_in`
    (one BFS of h) when f is even on it, else the shortest (then
    lexicographically least) odd cycle with even parity, by a bounded
    search over the odd cycles.  Parity on an odd cycle is the same for
    every row of a component of K_3^h, so every row of a component gets
    the same cycle, whatever was colored before it.
    """
    if is_isolated(h, f, 3):  # also checks the length and the colors
        raise IsolatedFunctionError("assignment is isolated; no cycle choice can help")
    return _even_cycle_search(h, f)


def _even_cycle_search(h: Graph, f: Sequence[int]) -> CycleWitness:
    """:func:`find_even_cycle` for an f already checked to be a valid,
    non-isolated assignment of h."""
    star = odd_cycle_in(h)
    if star is not None and in_even_class(restrict(h, f, star), len(star) // 2):
        return star
    cyc = least_odd_cycle(
        h, lambda vs: in_even_class(tuple(f[v] for v in vs), len(vs) // 2)
    )
    if cyc is None:
        raise NoEvenCycleError(
            "no odd cycle of the host carries an even number of fixed points"
        )
    return cyc


@dataclass
class CycleCache:
    """Odd cycles already used for coloring, in first-use order.

    Each entry pairs a cycle witness with the context fixing its chord
    orientation and distinguished edge (always the edge closing the
    witness order).  Reusing cached cycles in insertion order is what
    makes the general-host pipeline input-sensitive rather than
    per-call-linear.
    """

    entries: list[tuple[CycleWitness, OddCycleCtx]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def append(self, cyc: CycleWitness) -> tuple[CycleWitness, OddCycleCtx]:
        if any(existing == cyc for existing, _ in self.entries):
            raise ValueError(f"cycle {cyc.vertices} already cached")
        ctx = OddCycleCtx.make(n=len(cyc) // 2, k=3)
        entry = (cyc, ctx)
        self.entries.append(entry)
        return entry

    def find_even(
        self, h: Graph, f: Sequence[int]
    ) -> tuple[CycleWitness, OddCycleCtx] | None:
        """First cached cycle (insertion order) with even parity under f."""
        for cyc, ctx in self.entries:
            if in_even_class(restrict(h, f, cyc), ctx.n):
                return (cyc, ctx)
        return None

    def to_json_dict(self) -> dict:
        return {"cycles": [list(cyc.vertices) for cyc, _ in self.entries]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CycleCache":
        cache = cls()
        try:
            cycles = d["cycles"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed cycle-cache JSON: {exc}") from exc
        # exact types, as for assignment rows: bool is an int subclass, and
        # int() would quietly truncate a float
        if type(cycles) is not list or any(
            type(vs) is not list or set(map(type, vs)) - {int} for vs in cycles
        ):
            raise ValueError(
                "malformed cycle-cache JSON: cycles must be an array of integer arrays"
            )
        for vs in cycles:
            cache.append(CycleWitness(tuple(vs)))
        return cache

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def loads(cls, text: str) -> "CycleCache":
        return cls.from_json_dict(json.loads(text))


_ISOLATED = "assignment is isolated; it needs no color"


def _plain_row(f) -> Sequence[int]:
    """``f`` as a sequence of plain ints: a list, tuple or bytes of them as
    it is, any other row, such as a numpy row or a list of numpy ints, as
    the list of its values.  A row with an entry that is no integer, such
    as a bool or a float, raises ValueError."""
    if type(f) is bytes:
        return f
    if type(f) not in (list, tuple):
        f = f.tolist() if hasattr(f, "tolist") else list(f)
    kinds = set(map(type, f)) - {int}
    if kinds:
        bad = [kind for kind in kinds if issubclass(kind, bool) or not hasattr(kind, "__index__")]
        if bad:
            found = ", ".join(sorted(kind.__name__ for kind in bad))
            raise ValueError(f"colors must be integers, found {found}")
        f = list(map(operator.index, f))
    return f


def color_in_kh(
    h: Graph, f: Sequence[int], cache: CycleCache | None = None
) -> tuple[ColorVerdict, CycleCache]:
    """Color a non-isolated assignment on an arbitrary host, without numpy.

    ``f`` is a sequence of ints (numpy ints too), the bytes of their
    values, or a 1-d integer numpy row; a row with a bool or float entry
    raises ValueError.  Scans the cache in insertion order for a cycle with even
    parity under f, searching for (and caching) a fresh one only on miss;
    then colors the restriction of f to that cycle with
    :func:`color_row`.  Returns the verdict, in plain ints, and the same
    cache, possibly extended.  Appends must be serialized if a cache is
    shared across workers; reads may race.

    The color depends on the cache only where an earlier cached cycle
    is even for f: a miss appends :func:`find_even_cycle`'s cycle, fixed
    by h and f's component, so from an empty cache every f even on C*
    is colored through C* unless a row odd on C* missed first.  Rows
    colored through one cache, which only grows, are colored properly
    against each other.

    This is the one-row case of :func:`color_rows_in_kh`, which colors a
    stack with the same verdicts and leaves the same cache, and the
    reference it is tested against.
    """
    if cache is None:
        cache = CycleCache()
    f = _plain_row(f)
    if is_isolated(h, f, 3):  # also checks the length and the colors
        raise IsolatedFunctionError(_ISOLATED)
    entry = cache.find_even(h, f)
    if entry is None:
        entry = cache.append(_even_cycle_search(h, f))
    cyc, ctx = entry
    color, branch, ell2, p2 = color_row(restrict(h, f, cyc), ctx)
    return ColorVerdict(color, _BRANCHES[branch], ell2, p2), cache


def _even_on(rows: np.ndarray, cyc: CycleWitness) -> np.ndarray:
    """Whether each row, restricted to the host cycle ``cyc``, has an even
    number of fixed points; one :func:`.winding.np_tour` pass."""
    ctx = OddCycleCtx.make(len(cyc) // 2, 3)
    return winding.np_tour(rows[:, cyc.vertices], ctx)[2] % 2 == 0


def color_rows_in_kh(
    h: Graph, fs, cache: CycleCache | None = None
) -> tuple[RowColors, CycleCache]:
    """:func:`color_in_kh` over a stack of rows, with one pass per stage.

    ``fs`` is one assignment (1-d) or a (rows, |V(h)|) stack of any
    integer dtype; a stack of another shape or dtype raises ValueError,
    the one-row error of its first out-of-range row where Python ints
    past int64 made it a float64 or object array.  The verdicts, the rows
    that fail and their errors (see :class:`RowColors`), and the cache
    left behind are those of calling :func:`color_in_kh` on each row in
    turn, going on past each row that raises.

    * Checks, in the one-row order: per row the colors in 1..3 and
      isolation, read from one :func:`expo.isolated_rows` of the stack
      (a constant row stands in for each out-of-range one).
    * Cache scan: each cached cycle in insertion order, one
      :func:`.winding.np_tour` parity pass over the rows no earlier cycle
      serves.  A cycle is validated against the host before it is used;
      one that is not a host cycle fails every row that reaches it.
    * Misses, in input order: the first unserved row goes through
      :func:`color_in_kh`, which searches for and appends a cycle (or
      raises :class:`NoEvenCycleError`, or an
      :class:`InvariantViolationError` from coloring the row after the
      append, which the row fails with); the
      rows still unserved are then scanned against that cycle only.
      Since the cache only appends, each row ends up served by the cycle
      the sequential loop would have found for it.
    * One :func:`color_rows` call per serving cycle colors its rows'
      restrictions, and the verdicts are put back in input order.

    As for :func:`color_in_kh`, a row's color depends on the cache only
    where an earlier cached cycle is even for it: from an empty cache
    whose first miss is even on C*, every row even on C* is colored
    through C*, whatever the input order.  The rows of one call, and of
    calls that pass on the cache one returns, are colored properly
    against each other.
    """
    if cache is None:
        cache = CycleCache()
    arr = np.asarray(fs)
    if arr.ndim not in (1, 2) or arr.shape[-1] != h.vertex_count:
        raise ValueError(
            f"assignment stack must be (rows, {h.vertex_count}), got {arr.shape}"
        )
    if arr.dtype.kind not in "iu":
        # raises: the row holds a color outside 1..3
        _check_assignment(h, _row_past_int64(fs, arr, 3), 3)
    rows = arr.reshape(-1, h.vertex_count)
    errors: dict[int, Exception] = {}
    bad = _outside(rows, 3)
    if bad.any():
        for r in np.flatnonzero(bad).tolist():
            try:
                _check_assignment(h, rows[r].tolist(), 3)
            except ValueError as exc:
                errors[r] = exc
        rows = np.where(bad[:, None], 1, rows)
    isolated = ~bad & isolated_rows(h, rows, 3)
    for r in np.flatnonzero(isolated).tolist():
        errors[r] = IsolatedFunctionError(_ISOLATED)

    cycle = np.full(len(rows), -1, dtype=np.int64)  # each row's serving cycle
    unserved = np.flatnonzero(~bad & ~isolated)
    for j, entry in enumerate(cache.entries):
        if not len(unserved):
            break
        try:
            entry[0].validate_in(h)
        except ValueError as exc:
            errors.update(dict.fromkeys(unserved.tolist(), exc))
            unserved = unserved[:0]
            break
        even = _even_on(rows[unserved], entry[0])
        cycle[unserved[even]] = j
        unserved = unserved[~even]
    while len(unserved):
        first, unserved = int(unserved[0]), unserved[1:]
        size = len(cache)
        try:
            color_in_kh(h, rows[first].tolist(), cache)  # a miss: appends a cycle
        except (NoEvenCycleError, InvariantViolationError) as exc:
            errors[first] = exc
        if len(cache) > size:  # a row that failed after the append fails below too
            even = _even_on(rows[unserved], cache.entries[size][0])
            cycle[first] = cycle[unserved[even]] = size
            unserved = unserved[~even]

    verdicts = np.zeros((4, len(rows)), dtype=np.int64)
    for j in np.flatnonzero(np.bincount(cycle[cycle >= 0])).tolist():
        idx = np.flatnonzero(cycle == j)
        cyc, ctx = cache.entries[j]
        res = color_rows(rows[np.ix_(idx, cyc.vertices)], ctx)
        verdicts[:, idx] = res[:4]
        errors.update(zip(idx[res.failed].tolist(), res.errors))
        cycle[idx[res.failed]] = -1
    failed = sorted(errors)
    errs = [errors[r].with_traceback(None) for r in failed]
    return RowColors(*verdicts, np.array(failed, dtype=np.int64), errs, cycle), cache
