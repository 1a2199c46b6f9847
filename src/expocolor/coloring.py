"""Coloring algorithms: the O(n) per-vertex routine and its rivals.

Three layers live here, mirroring how the math composes:

* ``color_rows`` — color even-class assignments on an odd cycle in
  O(n) arithmetic each, by comparing the little-path value p_f against
  half the label ℓ_f.  The comparison is exact (doubled integers) and
  its two strict outcomes decide between the endpoint colors f(a) and
  f(b); equality is provably unreachable and is reported loudly if it
  ever fires.  One call checks and colors a whole stack of rows with
  one kernel call, and returns the verdicts of every row as arrays,
  with the rows that fail and their errors; ``color_vertex`` /
  ``color_vertex_ck`` are its one-row case, which raises that row's
  error.  ``RowFeed`` gives the same verdicts for rows that arrive in
  pieces, counting each pass as it fills, so no row is held whole.

* ``color_graph_baseline`` — the exponential contrast: materialize the
  whole even class, color the f(a)=f(b) assignments directly (they hit
  every odd cycle), and 2-color the bipartite remainder.

* ``find_even_cycle`` / ``color_rows_in_kh`` — the general-host
  pipeline: pick an odd cycle of H on which the assignment has an even
  number of fixed points, restrict, and color the restriction.  Cycles
  already used are retried first, in insertion order, via an explicit
  ``CycleCache`` value threaded through calls.  A stack is scanned one
  cached cycle at a time and colored with one ``color_rows`` call per
  serving cycle, with the same failure contract; ``color_in_kh`` is its
  one-row case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    InvariantViolationError,
    IsolatedFunctionError,
    NoEvenCycleError,
    ParityDomainError,
)
from .expo import (
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
from .winding import Half, OddCycleCtx, in_even_class, np_tour


class Branch(Enum):
    """Which rule of the per-vertex routine produced the color."""

    EQUAL_ENDPOINTS = "EqualEndpoints"
    BELOW_HALF = "BelowHalf"
    ABOVE_HALF = "AboveHalf"


_BRANCHES = tuple(Branch)


@dataclass(frozen=True)
class ColorVerdict:
    """A color plus the exact certificate that justifies it.

    ``ell`` and ``p`` are the label and little-path values; the branch
    records whether the endpoints agreed or which side of ell/2 the
    little path fell on.
    """

    color: int
    branch: Branch
    ell: Half
    p: Half

    def to_json_dict(self) -> dict:
        return {
            "color": self.color,
            "branch": self.branch.value,
            "ell2": self.ell.doubled,
            "p2": self.p.doubled,
        }


def _side_of(p2: int, ell2: int) -> int:
    """Which side of ell/2 the little path falls on: -1 below, +1 above.

    Arguments are doubled values (p2 = 2p, ell2 = 2l); the exact test
    is sign(2*p2 - ell2), since p - l/2 and 2*p2 - ell2 share a sign.
    """
    d = 2 * p2 - ell2
    if d < 0:
        return -1
    if d > 0:
        return 1
    return 0


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


def _wrong_dtype(arr: np.ndarray) -> ValueError:
    return ValueError(f"colors must be integers, got dtype {arr.dtype}")


def _out_of_range(ctx: OddCycleCtx) -> ValueError:
    return ValueError(f"colors must be in 1..{ctx.k}")


def _outside(rows: np.ndarray, k: int) -> np.ndarray:
    """Which rows of a (rows, L) stack hold a color outside 1..k; one pass
    over the whole stack when none does."""
    if rows.size and (rows.min() < 1 or rows.max() > k):
        return (rows.min(axis=1) < 1) | (rows.max(axis=1) > k)
    return np.zeros(len(rows), dtype=bool)


def _verdict(ctx: OddCycleCtx, fa, fb, ell2, p2, fixed, isolated) -> tuple:
    """One row's (color, branch position, ell2, p2), from f(a), f(b) and
    the kernel's values for the row; raises the row's error instead.

    Isolation is checked first, then parity, then the branch rule.
    """
    if isolated:
        raise IsolatedFunctionError(
            f"assignment is isolated: a chord arc steps outside "
            f"{{0, 2, {ctx.k - 2}}} mod {ctx.k}"
        )
    if fixed % 2 != 0:
        raise ParityDomainError(
            f"assignment has {fixed} fixed points (odd); "
            "only the even class is colorable this way"
        )
    if fa == fb:
        return fa, 0, ell2, p2
    side = _side_of(p2, ell2)
    if side < 0:
        return fa, 1, ell2, p2
    if side > 0:
        return fb, 2, ell2, p2
    raise InvariantViolationError(
        f"little path equals half the label (p2={p2}, ell2={ell2}); "
        "this is unreachable for even-class assignments"
    )


def _decide(ctx: OddCycleCtx, ends: np.ndarray, tour: tuple, out_of_range=()) -> RowColors:
    """The :func:`_verdict` of each row of a stack, from ``ends``, its
    (rows, 2) endpoint colors f(a) and f(b), and ``tour``, its
    :func:`np_tour` outputs.

    A row that fails, or whose index is in ``out_of_range`` (its colors
    were outside 1..k before a stand-in took its place), gets 0s and its
    error.
    """
    out, failed, errors = [], [], []
    columns = *ends.T, *tour
    for r, values in enumerate(zip(*(column.tolist() for column in columns))):
        try:
            if r in out_of_range:
                raise _out_of_range(ctx)
            out.append(_verdict(ctx, *values))
        except (ValueError, InvariantViolationError) as error:
            out.append((0, 0, 0, 0))
            failed.append(r)
            errors.append(error.with_traceback(None))
    verdicts = np.array(out, dtype=np.int64).reshape(-1, 4).T
    return RowColors(*verdicts, np.array(failed, dtype=np.int64), errors)


def color_rows(fs, ctx: OddCycleCtx) -> RowColors:
    """Color a row, or a stack of rows, of C_{2n+1} with one kernel call.

    ``fs`` is one assignment (1-d) or a (rows, 2n+1) stack, of any
    integer dtype; a stack of another shape or dtype raises ValueError.
    Every row is colored, or fails the first check it fails in the order
    the one-row routines apply them: colors in 1..k (on the values as
    given, before the kernel casts them), isolation, an even fixed-point
    count, and a little path off ell/2.  One :func:`np_tour` call serves
    the stack, with a constant row standing in for each out-of-range
    one; the O(1) decision per row is :func:`_side_of`.
    """
    arr = np.asarray(fs)
    if arr.ndim not in (1, 2) or arr.shape[-1] != ctx.length:
        raise _wrong_shape(ctx)
    if arr.dtype.kind not in "iu":
        raise _wrong_dtype(arr)
    rows = arr.reshape(-1, ctx.length)
    bad = _outside(rows, ctx.k)
    if bad.any():
        rows = np.where(bad[:, None], 1, rows)
    ends = rows[:, [ctx.a, ctx.b]]
    return _decide(ctx, ends, np_tour(rows, ctx), set(np.flatnonzero(bad).tolist()))


class RowFeed:
    """:func:`color_rows` of rows that arrive in pieces, none held whole.

    :meth:`take` reads the ids of the rows one after another, in pieces
    of any length and integer dtype, and a row ends after every 2n+1
    ids.  The pieces fill a buffer of one kernel pass, up to
    ``winding._BLOCK`` ids and the two after them: when it is full,
    :func:`.winding._pass_counts` counts the pass into the row's
    histogram, and its last two ids are carried to the front for the
    next pass.  Ids 0 and 1 of each row are kept for the wrap, and its
    last pass reads them after id 2n.  Along the way each row's f(a) and
    f(b) are recorded, and a row with a color outside 1..k is noted (and
    counted with its colors clipped to 1..k, since it fails anyway).
    :meth:`colors` then decides every whole row as :func:`color_rows`
    does.  Beyond each row's values the feed holds the buffer and one
    pass's counts.
    """

    def __init__(self, ctx: OddCycleCtx):
        self.ctx = ctx
        longest = min(ctx.length, winding._BLOCK)
        self._offsets = winding._offsets(ctx.k, longest)
        self._buf = np.empty(longest + 2, dtype=self._offsets.dtype)
        self._head = np.empty(2, dtype=self._offsets.dtype)  # ids 0 and 1 of the row
        self._rows: list[tuple] = []  # each whole row's f(a), f(b) and np_tour values
        self._outside: set[int] = set()  # the rows with a color outside 1..k
        self._new_row()

    def _new_row(self) -> None:
        self._next = 0  # the row's next id to arrive
        self._start = 0  # the id in the buffer's first slot
        self._fill = 0  # the ids in the buffer
        self._ends = [0, 0]  # f(a), f(b)
        self._total = np.zeros(len(self.ctx.bin_fold), dtype=np.int64)

    def _count(self) -> None:
        """Count the pass the buffer holds, and carry its last two ids."""
        f = self._buf[: self._fill]
        self._total += winding._pass_counts(f, self._start, self.ctx, self._offsets)
        self._buf[:2] = f[-2:]
        self._start += self._fill - 2
        self._fill = 2

    def _end_row(self) -> None:
        """Count the row's last pass, through ids 0 and 1, and keep its values."""
        for v in self._head:
            if self._fill == len(self._buf):
                self._count()
            self._buf[self._fill] = v
            self._fill += 1
        self._count()
        ell2, p2, flat, bad = self._total.dot(self.ctx.bin_fold).tolist()
        self._rows.append((*self._ends, ell2, p2, self.ctx.length - flat, bad > 0))
        self._new_row()

    def take(self, x: np.ndarray) -> None:
        """Read the next ids of the rows, in order."""
        k, length, cap = self.ctx.k, self.ctx.length, len(self._buf)
        while len(x):
            lo = self._next
            room = min(cap - self._fill, length - lo)
            piece, x = x[:room], x[room:]
            hi = lo + len(piece)
            if piece.min() < 1 or piece.max() > k:
                self._outside.add(len(self._rows))
                piece = piece.clip(1, k)
            for i, v in enumerate((self.ctx.a, self.ctx.b)):
                if lo <= v < hi:
                    self._ends[i] = int(piece[v - lo])
            if lo < 2:
                self._head[lo : min(hi, 2)] = piece[: 2 - lo]
            self._buf[self._fill : self._fill + len(piece)] = piece
            self._fill += len(piece)
            self._next = hi
            if self._fill == cap:
                self._count()
            if hi == length:
                self._end_row()

    def colors(self) -> RowColors:
        """The :class:`RowColors` of the whole rows read, as
        :func:`color_rows` gives them for those rows."""
        values = np.array(self._rows, dtype=np.int64).reshape(-1, 6)
        tour = *values[:, 2:5].T, values[:, 5] > 0
        return _decide(self.ctx, values[:, :2], tour, self._outside)


def _color_one(f: Sequence[int], ctx: OddCycleCtx) -> ColorVerdict:
    """The one-row case of :func:`color_rows`: its verdict, or its error raised.

    The checks of :func:`color_rows`, in the same order and with the
    same errors, and the same :func:`_verdict`, applied to the row
    directly: at n = 10^3 the stack bookkeeping would be a sizeable share
    of the call.
    """
    arr = np.asarray(f)
    if arr.ndim != 1 or len(arr) != ctx.length:
        raise _wrong_shape(ctx)
    if arr.dtype.kind not in "iu":
        raise _wrong_dtype(arr)
    if arr.item(arr.argmin()) < 1 or arr.item(arr.argmax()) > ctx.k:
        raise _out_of_range(ctx)
    fa, fb = arr.item(ctx.a), arr.item(ctx.b)
    color, branch, ell2, p2 = _verdict(ctx, fa, fb, *np_tour(arr, ctx))
    return ColorVerdict(color, _BRANCHES[branch], Half(ell2), Half(p2))


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


def even_class_subgraph(n: int, cap: int = 10**6) -> ExpoGraph:
    """The exponential graph over C_{2n+1} induced on even-parity assignments."""
    h = make_cycle(2 * n + 1)
    rows = full_grid(h, 3, cap)
    _, _, fixed, _ = np_tour(rows, OddCycleCtx.make(n, 3))
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
    row stack: one :func:`np_tour` call checks its parity, a mask on
    the endpoint columns splits off the remainder, and the colors are
    gathered from the endpoint columns.
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
    odd = np_tour(rows, ctx)[2] % 2 != 0
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

    Fast path: split V(h) into the vertices colored {1,2} and those
    colored {3}; an odd cycle inside either part sees at most two
    distinct colors, and around any single-tour traversal a two-valued
    sequence changes an even number of times, so its restriction parity
    is even.  Fallback: the shortest (then lexicographically least) odd
    cycle with even parity, by a bounded search over the odd cycles.
    """
    if is_isolated(h, f, 3):  # also checks the length and the colors
        raise IsolatedFunctionError("assignment is isolated; no cycle choice can help")
    return _even_cycle_search(h, f)


def _even_cycle_search(h: Graph, f: Sequence[int]) -> CycleWitness:
    """:func:`find_even_cycle` for an f already checked to be a valid,
    non-isolated assignment of h."""
    for color_class in ((1, 2), (3,)):
        keep = [v for v in range(h.vertex_count) if f[v] in color_class]
        sub, old = h.induced(keep)
        found = odd_cycle_in(sub)
        if found is not None:
            cyc = CycleWitness.canonical([old[v] for v in found.vertices])
            if not in_even_class(restrict(h, f, cyc), len(cyc) // 2):
                raise InvariantViolationError(
                    f"two-colored cycle {cyc.vertices} has odd parity"
                )
            return cyc

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


def color_in_kh(
    h: Graph, f: Sequence[int], cache: CycleCache | None = None
) -> tuple[ColorVerdict, CycleCache]:
    """Color a non-isolated assignment on an arbitrary host.

    Scans the cache in insertion order for a cycle with even parity
    under f, searching for (and caching) a fresh one only on miss; then
    colors the restriction of f to that cycle.  Returns the verdict and
    the same cache, possibly extended.  Appends must be serialized if a
    cache is shared across workers; reads may race.

    This is the one-row case of :func:`color_rows_in_kh`, which colors a
    stack with the same verdicts and leaves the same cache, and the
    reference it is tested against.
    """
    if cache is None:
        cache = CycleCache()
    if is_isolated(h, f, 3):  # also checks the length and the colors
        raise IsolatedFunctionError(_ISOLATED)
    entry = cache.find_even(h, f)
    if entry is None:
        entry = cache.append(_even_cycle_search(h, f))
    cyc, ctx = entry
    verdict = color_vertex(restrict(h, f, cyc), ctx)
    return verdict, cache


def _even_on(rows: np.ndarray, cyc: CycleWitness) -> np.ndarray:
    """Whether each row, restricted to the host cycle ``cyc``, has an even
    number of fixed points; one pass of the live :func:`.winding.np_tour`,
    so a kernel patched in a test reaches every parity check."""
    ctx = OddCycleCtx.make(len(cyc) // 2, 3)
    return winding.np_tour(rows[:, cyc.vertices], ctx)[2] % 2 == 0


def color_rows_in_kh(
    h: Graph, fs, cache: CycleCache | None = None
) -> tuple[RowColors, CycleCache]:
    """:func:`color_in_kh` over a stack of rows, with one pass per stage.

    ``fs`` is one assignment (1-d) or a (rows, |V(h)|) stack of any
    integer dtype; a stack of another shape or dtype raises ValueError.
    The verdicts, the rows that fail and their errors (see
    :class:`RowColors`), and the cache left behind are those of calling
    :func:`color_in_kh` on each row in turn, going on past each row that
    raises.

    * Checks, in the one-row order: per row the colors in 1..3 and
      isolation, read from one :func:`expo.isolated_rows` of the stack
      (a constant row stands in for each out-of-range one).
    * Cache scan: each cached cycle in insertion order, one
      :func:`np_tour` parity pass over the rows no earlier cycle serves.
      A cycle is validated against the host before it is used; one that
      is not a host cycle fails every row that reaches it.
    * Misses, in input order: the first unserved row goes through
      :func:`color_in_kh`, which searches for and appends a cycle (or
      raises :class:`NoEvenCycleError` or
      :class:`InvariantViolationError`, which the row fails with); the
      rows still unserved are then scanned against that cycle only.
      Since the cache only appends, each row ends up served by the cycle
      the sequential loop would have found for it.
    * One :func:`color_rows` call per serving cycle colors its rows'
      restrictions, and the verdicts are put back in input order.
    """
    if cache is None:
        cache = CycleCache()
    arr = np.asarray(fs)
    if arr.ndim not in (1, 2) or arr.shape[-1] != h.vertex_count:
        raise ValueError(
            f"assignment stack must be (rows, {h.vertex_count}), got {arr.shape}"
        )
    if arr.dtype.kind not in "iu":
        raise _wrong_dtype(arr)
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
