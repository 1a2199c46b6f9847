"""Exponential graphs: functions as vertices, compatibility as adjacency.

Given a host graph H and k colors, the exponential graph has one vertex
per assignment (function V(H) -> {1..k}) and joins f to g when every
host edge uv maps to a target edge in both directions: f(u) compatible
with g(v) and g(u) compatible with f(v).  Two targets are supported —
the complete graph K_k (compatible = different) and the cycle C_k
(compatible = adjacent on the cycle), selected by ``cycle_target``.

Everything here is exponential in |V(H)| and guarded by explicit caps;
the point is desk-scale ground truth, not scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError
from .graphs import CycleWitness, Graph, _bfs_two_coloring

DEFAULT_CAP = 10**6

Assignment = tuple[int, ...]


class ComponentClass(Enum):
    """Classification of a connected component of an exponential graph.

    Loop-free components of K_3^H fall into the first three classes;
    components containing a self-loop (an assignment adjacent to
    itself, i.e. a proper coloring of the host — possible only when
    the host is k-colorable) get the fourth tag and are excluded from
    that trichotomy.
    """

    ISOLATED = "Isolated"
    BIPARTITE = "Bipartite"
    THREE_CHROMATIC = "ThreeChromatic"
    REFLEXIVE_VERTEX = "ReflexiveVertex"


def _check_assignment(h: Graph, f: Sequence[int], k: int) -> None:
    if len(f) != h.vertex_count:
        raise ValueError(
            f"assignment has {len(f)} entries, host has {h.vertex_count} vertices"
        )
    for c in f:
        if not 1 <= c <= k:
            raise ValueError(f"color {c} outside 1..{k}")


def _compatible(x: int, y: int, k: int, cycle_target: bool) -> bool:
    if cycle_target:
        return (x - y) % k in (1, k - 1)
    return x != y


@cache
def _compat_table(k: int, cycle_target: bool) -> np.ndarray:
    """Read-only (k+1, k) bool table: row x marks the colors c in 1..k
    compatible with x (row 0 is empty).

    The one place adjacency is turned into data: the per-row bitmasks
    and the stack kernel both read it.
    """
    tab = np.array(
        [
            [x > 0 and _compatible(c, x, k, cycle_target) for c in range(1, k + 1)]
            for x in range(k + 1)
        ],
        dtype=bool,
    )
    tab.setflags(write=False)
    return tab


@cache
def _compat_masks(k: int, cycle_target: bool) -> tuple[int, ...]:
    """Row x of :func:`_compat_table` as a bitmask, bit c-1 for color c."""
    return tuple(
        sum(1 << int(c) for c in np.flatnonzero(row))
        for row in _compat_table(k, cycle_target)
    )


def _allowed_masks(
    h: Graph, f: Sequence[int], k: int, cycle_target: bool
) -> list[int]:
    """Per vertex v, the bitmask of colors compatible with f on every neighbor of v."""
    _check_assignment(h, f, k)
    masks = _compat_masks(k, cycle_target)
    full = (1 << k) - 1
    out = []
    for nbrs in h.neighbors:
        m = full
        for w in nbrs:
            m &= masks[f[w]]
        out.append(m)
    return out


def allowed_colors(
    h: Graph, f: Sequence[int], k: int, cycle_target: bool = False
) -> list[tuple[int, ...]]:
    """Per vertex v, the sorted colors compatible with f on every neighbor of v.

    A neighbor g exists iff every entry is nonempty, and the neighbors
    are exactly the Cartesian product of these sets.
    """
    return [
        tuple(c for c in range(1, k + 1) if m >> (c - 1) & 1)
        for m in _allowed_masks(h, f, k, cycle_target)
    ]


def neighbors(
    h: Graph, f: Sequence[int], k: int, cycle_target: bool = False
) -> Iterator[Assignment]:
    """All g adjacent to f, streamed in lexicographic order."""
    sets = allowed_colors(h, f, k, cycle_target)
    if any(not s for s in sets):
        return
    yield from itertools.product(*sets)


def is_isolated(h: Graph, f: Sequence[int], k: int, cycle_target: bool = False) -> bool:
    """True iff f has no neighbor; polynomial in |h| and k."""
    return not all(_allowed_masks(h, f, k, cycle_target))


def _color_dtype(k: int) -> type:
    """Narrowest signed integer dtype holding the colors 1..k."""
    return np.int8 if k <= np.iinfo(np.int8).max else np.int16


def assignment_grid(vertex_count: int, k: int) -> np.ndarray:
    """Every assignment in lexicographic order: row i is i written in base k."""
    return (
        np.indices((k,) * vertex_count, dtype=_color_dtype(k))
        .reshape(vertex_count, -1)
        .T
        + 1
    )


def row_index(fs: np.ndarray, k: int) -> np.ndarray:
    """Row of each assignment of a stack in :func:`assignment_grid`."""
    idx = np.zeros(fs.shape[0], dtype=np.int64)
    for col in fs.T:
        idx *= k
        idx += col
        idx -= 1
    return idx


def allowed_table(
    h: Graph, fs: np.ndarray, k: int, cycle_target: bool = False
) -> np.ndarray:
    """:func:`allowed_colors` of every row of a stack, as one bool table.

    ``fs`` is (R, |V(h)|) with colors in 1..k (not checked).  Entry
    ``[r, v, c - 1]`` is True iff color c is compatible with ``fs[r]`` on
    every neighbor of v: the AND of the compatibility table over v's host
    neighbors.  Row r is isolated iff some vertex allows no color.

    Built vertex-major, as a (|V(h)|, R, k) table ANDed from contiguous
    columns of the transposed stack, and returned as its (R, |V(h)|, k) view.
    """
    tab = _compat_table(k, cycle_target)
    cols = np.asarray(fs).T.copy()
    allowed = np.ones((h.vertex_count, cols.shape[1], k), dtype=bool)
    for v, nbrs in enumerate(h.neighbors):
        for w in nbrs:
            allowed[v] &= tab[cols[w]]
    return allowed.transpose(1, 0, 2)


def isolated_rows(
    h: Graph, fs: np.ndarray, k: int, cycle_target: bool = False
) -> np.ndarray:
    """:func:`is_isolated` of every row of a stack, as one bool array.

    ``fs`` is (R, |V(h)|) with colors in 1..k (not checked).  Per vertex
    v and row, the AND of the compatible-color bitmasks
    (:func:`_compat_masks`) of v's neighbors is one small int; a row is
    isolated iff some vertex's AND is 0.  That reads a k-th of the data
    of :func:`allowed_table`, which holds the same sets as bools.
    """
    full = (1 << k) - 1
    lut = np.array(_compat_masks(k, cycle_target), dtype=np.min_scalar_type(full))
    cols = np.asarray(fs).T.copy()
    isolated = np.zeros(cols.shape[1], dtype=bool)
    for nbrs in h.neighbors:
        allowed = np.full(cols.shape[1], full, dtype=lut.dtype)
        for w in nbrs:
            allowed &= lut[cols[w]]
        isolated |= allowed == 0
    return isolated


def neighbor_pairs(
    h: Graph, fs: np.ndarray, k: int, cycle_target: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered adjacent pair over a stack of assignments.

    ``fs`` is (R, |V(h)|) with colors in 1..k.  Returns ``(src, gs)``:
    ``gs[p]`` is a neighbor of ``fs[src[p]]``, sources come in row order
    and each source's neighbors in lexicographic order — exactly what
    :func:`neighbors` streams, row after row.  The product of the
    :func:`allowed_table` sets is expanded one vertex at a time.
    """
    fs = np.asarray(fs)
    if fs.ndim != 2 or fs.shape[1] != h.vertex_count:
        raise ValueError(
            f"assignment stack must be (rows, {h.vertex_count}), got {fs.shape}"
        )
    if fs.size and (fs.min() < 1 or fs.max() > k):
        raise ValueError(f"colors must be in 1..{k}")
    allowed = allowed_table(h, fs, k, cycle_target)
    src = np.flatnonzero(allowed.any(axis=2).all(axis=1))
    dtype = _color_dtype(k)
    gs = np.empty((len(src), 0), dtype=dtype)
    for v in range(h.vertex_count):
        parent, color = np.nonzero(allowed[src, v])
        src = src[parent]
        gs = np.column_stack((gs[parent], (color + 1).astype(dtype)))
    return src, gs


@dataclass(frozen=True)
class ExpoGraph:
    """A materialized exponential graph over an explicit assignment list.

    ``vertices`` is duplicate-free and lexicographically sorted, fixing
    the vertex indexing; ``adjacency[i]`` lists neighbor indices
    (sorted, loop-free) and ``loops`` holds the indices of self-adjacent
    assignments.  Every instance is the subgraph of the full exponential
    graph induced on its vertices, built by :meth:`from_rows`, which
    also guards the vertex order.
    """

    host: Graph
    k: int
    cycle_target: bool
    vertices: tuple[Assignment, ...]
    adjacency: tuple[tuple[int, ...], ...]
    loops: frozenset[int]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def to_graph(self) -> Graph:
        """The loop-free simple graph over vertex indices, unchecked:
        :meth:`from_rows` builds its adjacency sorted, deduplicated,
        symmetric and loop-free."""
        return Graph._built(len(self.vertices), self.adjacency)

    @classmethod
    def from_rows(
        cls, host: Graph, k: int, cycle_target: bool, rows: np.ndarray
    ) -> "ExpoGraph":
        """The subgraph induced on a lexicographically sorted (R, |V(host)|)
        stack of assignments; ValueError unless the rows strictly increase.

        One :func:`neighbor_pairs` call over the stack; a pair whose far
        end is not in the stack is dropped, found by its grid row
        (:func:`row_index`) missing from the stack's sorted grid rows.
        """
        rows = np.asarray(rows)
        src, gs = neighbor_pairs(host, rows, k, cycle_target)
        ids = row_index(rows, k)
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("rows must be unique and lexicographically sorted")
        far = row_index(gs, k)
        dst = np.searchsorted(ids, far)
        inside = ids[np.minimum(dst, len(ids) - 1)] == far
        src, dst = src[inside], dst[inside]
        loop = src == dst
        ends = np.cumsum(np.bincount(src[~loop], minlength=len(ids))).tolist()
        dst_kept = dst[~loop]
        # one int object per vertex index, shared by every row it appears in
        idx = list(range(len(ids)))
        adjacency = tuple(
            tuple(map(idx.__getitem__, dst_kept[a:b].tolist()))
            for a, b in zip([0] + ends, ends)
        )
        vertices = tuple(map(tuple, rows.tolist()))
        loops = frozenset(src[loop].tolist())
        return cls(host, k, cycle_target, vertices, adjacency, loops)


def full_grid(h: Graph, k: int, cap: int) -> np.ndarray:
    """:func:`assignment_grid` of h; capacity error past cap rows."""
    total = k**h.vertex_count
    if total > cap:
        raise CapacityError(
            f"exponential graph needs {total} vertices, cap is {cap}",
            required=total,
            cap=cap,
        )
    return assignment_grid(h.vertex_count, k)


def build_exponential(
    h: Graph, k: int, cap: int = DEFAULT_CAP, cycle_target: bool = False
) -> ExpoGraph:
    """Materialize the full exponential graph on k^|V(h)| assignments.

    Self-loops (assignments adjacent to themselves — proper colorings
    of the host) are recorded in ``loops``, never in ``adjacency``.
    """
    return ExpoGraph.from_rows(h, k, cycle_target, full_grid(h, k, cap))


def components(eg: ExpoGraph) -> list[tuple[tuple[int, ...], ComponentClass]]:
    """The connected components of eg, each as ``(members, class)``.

    Members are sorted vertex indices, and components come in the order
    of their lowest member.  The class rule, stated once: a component
    holding a self-loop is reflexive; otherwise a single vertex is
    isolated, and a larger component is bipartite, or three-chromatic
    when it holds an odd cycle.
    """
    _, _, _, comp, conflicts = _bfs_two_coloring(eg.to_graph())
    members: list[list[int]] = [[] for _ in conflicts]
    for v, c in enumerate(comp):
        members[c].append(v)
    reflexive = {comp[v] for v in eg.loops}
    out = []
    for c, vs in enumerate(members):
        if c in reflexive:
            cls = ComponentClass.REFLEXIVE_VERTEX
        elif len(vs) == 1:
            cls = ComponentClass.ISOLATED
        elif conflicts[c] is None:
            cls = ComponentClass.BIPARTITE
        else:
            cls = ComponentClass.THREE_CHROMATIC
        out.append((tuple(vs), cls))
    return out


def restrict(h: Graph, f: Sequence[int], cyc: CycleWitness) -> Assignment:
    """Project f onto a cycle of the host, in the witness's vertex order."""
    cyc.validate_in(h)
    if len(f) != h.vertex_count:
        raise ValueError(
            f"assignment has {len(f)} entries, host has {h.vertex_count} vertices"
        )
    return tuple(f[c] for c in cyc.vertices)
