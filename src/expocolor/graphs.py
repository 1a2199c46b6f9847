"""Undirected graphs, deterministic generators, and small exact solvers.

Everything downstream builds on this module: hosts are plain immutable
adjacency-list graphs over dense 0-based integer vertex ids, and the exact
solvers (bipartition, chromatic number, odd-cycle enumeration) act as
desk-scale ground truth for the coloring algorithms.

Serialization: graphs travel as ``{"n": <int>, "edges": [[u, v], ...]}``
JSON objects (0-based ids), and export to DOT for visual inspection.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import CapacityError, ParityDomainError, _Record

# chromatic_number_exact is a desk-scale oracle, refused outright above the
# hard cap.
CHROMATIC_HARD_CAP = 256


class Graph(_Record):
    """Immutable simple undirected graph over vertex ids ``0..n-1``.

    ``neighbors[v]`` is a sorted tuple of v's neighbors. No self-loops;
    adjacency is symmetric by construction.  A read-only record of its
    two fields (see ``errors._Record``).
    """

    __slots__ = _fields = ("vertex_count", "neighbors")
    vertex_count: int
    neighbors: tuple[tuple[int, ...], ...]

    def __init__(self, vertex_count: int, neighbors: tuple[tuple[int, ...], ...]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if len(neighbors) != vertex_count:
            raise ValueError("adjacency length != vertex_count")
        for v, nbrs in enumerate(neighbors):
            for u in nbrs:
                if not 0 <= u < vertex_count:
                    raise ValueError(f"neighbor id {u} out of range")
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"adjacency of {v} not sorted/deduped")
        for v, nbrs in enumerate(neighbors):
            for u in nbrs:
                if v not in neighbors[u]:
                    raise ValueError(f"asymmetric edge ({v},{u})")
        self._set(vertex_count, neighbors)

    @classmethod
    def _built(cls, vertex_count: int, neighbors: tuple[tuple[int, ...], ...]) -> "Graph":
        """A graph over adjacency that its builder already made sorted,
        deduplicated, symmetric and loop-free, so the checks of
        ``__init__`` are skipped; every graph from outside input keeps
        them."""
        graph = object.__new__(cls)
        graph._set(vertex_count, neighbors)
        return graph

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in adj))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.vertex_count) for v in self.neighbors[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.neighbors) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])


class CycleWitness(_Record):
    """An odd cycle of a host graph, as an ordered vertex tuple.

    Consecutive vertices (cyclically) must be adjacent in the host; the
    length is odd and at least 3.  Witnesses are kept in canonical form:
    rotated so the minimum vertex comes first, direction chosen so the
    second entry is smaller than the last (kills reflection duplicates).
    A read-only record of its vertices (see ``errors._Record``).
    """

    __slots__ = _fields = ("vertices",)
    vertices: tuple[int, ...]

    def __init__(self, vertices: tuple[int, ...]):
        if len(vertices) < 3 or len(vertices) % 2 == 0:
            raise ValueError("cycle length must be odd and >= 3")
        if len(set(vertices)) != len(vertices):
            raise ValueError("cycle vertices must be distinct")
        self._set(vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def validate_in(self, host: Graph) -> None:
        """Raise ValueError unless this is a cycle of ``host``."""
        vs = self.vertices
        for i, v in enumerate(vs):
            if not 0 <= v < host.vertex_count:
                raise ValueError(f"cycle vertex {v} not in host")
            if not host.has_edge(v, vs[(i + 1) % len(vs)]):
                raise ValueError(f"({v},{vs[(i + 1) % len(vs)]}) is not a host edge")

    @classmethod
    def canonical(cls, vertices: Sequence[int]) -> "CycleWitness":
        """Canonicalize an arbitrary traversal order of the cycle."""
        vs = list(vertices)
        k = vs.index(min(vs))
        rot = vs[k:] + vs[:k]
        if rot[1] > rot[-1]:
            rot = [rot[0]] + rot[:0:-1]
        return cls(tuple(rot))


def make_cycle(length: int) -> Graph:
    """Cycle graph on ``length`` vertices; requires odd length >= 3."""
    if length < 3 or length % 2 == 0:
        raise ParityDomainError(f"cycle length must be odd and >= 3, got {length}")
    return Graph.from_edges(length, [(i, (i + 1) % length) for i in range(length)])


def make_complete(k: int) -> Graph:
    """Complete graph on ``k`` vertices."""
    if k < 1:
        raise ValueError(f"complete graph needs k >= 1, got {k}")
    return Graph.from_edges(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def make_mycielski(g: Graph) -> Graph:
    """Mycielski construction: 2|V|+1 vertices, chromatic number + 1.

    Vertices 0..n-1 keep the original graph, n+i shadows vertex i (adjacent
    to i's original neighborhood), and vertex 2n is an apex adjacent to all
    shadows.  Preserves triangle-freeness; applied to a 5-cycle it yields
    the 11-vertex Grötzsch graph.
    """
    n = g.vertex_count
    edges: list[tuple[int, int]] = list(g.edges())
    for u, v in g.edges():
        edges.append((n + u, v))
        edges.append((u, n + v))
    for i in range(n):
        edges.append((n + i, 2 * n))
    return Graph.from_edges(2 * n + 1, edges)


def make_grotzsch() -> Graph:
    """The Grötzsch graph: Mycielski of a 5-cycle, triangle-free, chromatic number 4."""
    return make_mycielski(make_cycle(5))


def is_proper_coloring(g: Graph, coloring: Mapping[int, int] | Sequence[int], k: int) -> bool:
    """True iff every edge is bichromatic and all colors lie in 1..k.

    ``coloring`` maps every vertex id to a color; a missing vertex is an
    error, an out-of-range color is simply an improper coloring.
    """
    try:
        colors = [coloring[v] for v in range(g.vertex_count)]
    except (KeyError, IndexError) as exc:
        raise ValueError(f"coloring missing vertex: {exc}") from exc
    if any(not 1 <= c <= k for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def _bfs_two_coloring(g: Graph):
    """BFS two-coloring of every component: ``(side, parent, depth, comp, conflicts)``.

    Roots are taken in id order, so components are numbered by their
    lowest id and that vertex gets side 0; ``comp[v]`` is v's component.
    ``conflicts[c]`` is the first edge of component c found with both
    ends on one side (the vertex being scanned, then its neighbor), or
    None when c is bipartite.  ``side``, ``parent`` and ``depth`` are set
    once per vertex, when the BFS first reaches it.
    """
    side = [-1] * g.vertex_count
    parent = [-1] * g.vertex_count
    depth = [0] * g.vertex_count
    comp = [-1] * g.vertex_count
    conflicts: list[tuple[int, int] | None] = []
    for root in range(g.vertex_count):
        if side[root] != -1:
            continue
        c = len(conflicts)
        conflict = None
        side[root] = 0
        comp[root] = c
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in g.neighbors[v]:
                if side[u] == -1:
                    side[u] = 1 - side[v]
                    parent[u] = v
                    depth[u] = depth[v] + 1
                    comp[u] = c
                    queue.append(u)
                elif conflict is None and side[u] == side[v]:
                    conflict = (v, u)
        conflicts.append(conflict)
    return side, parent, depth, comp, conflicts


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-color ``g`` by BFS, or None if it is not bipartite.

    Deterministic: within each connected component the lowest-id vertex
    lands in side A, so isolated vertices all land in A.
    """
    side, _, _, _, conflicts = _bfs_two_coloring(g)
    if any(conflicts):
        return None
    a = frozenset(v for v in range(g.vertex_count) if side[v] == 0)
    b = frozenset(v for v in range(g.vertex_count) if side[v] == 1)
    return a, b


def odd_cycle_in(g: Graph) -> CycleWitness | None:
    """Some odd cycle of ``g``, or None if bipartite.

    BFS two-coloring; on the first same-side edge (in the lowest
    non-bipartite component), the two tree paths to the lowest common
    ancestor close an odd simple cycle.
    """
    _, parent, depth, _, conflicts = _bfs_two_coloring(g)
    conflict = next(filter(None, conflicts), None)
    if conflict is None:
        return None
    pv, pu = conflict
    left: list[int] = []
    right: list[int] = []
    while depth[pu] > depth[pv]:
        left.append(pu)
        pu = parent[pu]
    while depth[pv] > depth[pu]:
        right.append(pv)
        pv = parent[pv]
    while pu != pv:
        left.append(pu)
        right.append(pv)
        pu = parent[pu]
        pv = parent[pv]
    return CycleWitness.canonical(left + [pu] + right[::-1])


def _odd_cycle_dfs(g: Graph, max_len: int, visit: Callable[[list[int]], int]) -> None:
    """Walk every odd simple cycle of ``g`` of length <= max_len once.

    DFS from each root through larger ids only, so the root is the cycle
    minimum; ``visit`` gets the live path of each cycle in canonical
    form (root first, second entry smaller than the last) and returns
    the max_len to go on with, so a caller can lower it as it goes.
    Iterative: ``stack[i]`` walks the neighbors of ``path[i]``.
    """
    on_path = [False] * g.vertex_count
    for root in range(g.vertex_count):
        path = [root]
        stack = [iter(g.neighbors[root])]
        while stack:
            for u in stack[-1]:
                if u == root and len(path) >= 3:
                    if len(path) % 2 == 1 and path[1] < path[-1]:
                        max_len = visit(path)
                elif u > root and not on_path[u] and len(path) < max_len:
                    path.append(u)
                    on_path[u] = True
                    stack.append(iter(g.neighbors[u]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False


def odd_cycles(g: Graph, max_len: int) -> Iterator[CycleWitness]:
    """All odd simple cycles of length <= max_len, deduplicated.

    Each cycle appears once (rotations and reflections collapse to the
    canonical form), in nondecreasing length order, ties broken
    lexicographically.
    """
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")
    found: list[CycleWitness] = []

    def collect(path: list[int]) -> int:
        found.append(CycleWitness(tuple(path)))
        return max_len

    _odd_cycle_dfs(g, max_len, collect)
    found.sort(key=lambda c: (len(c), c.vertices))
    yield from found


def least_odd_cycle(
    g: Graph, accept: Callable[[tuple[int, ...]], bool]
) -> CycleWitness | None:
    """The first cycle in :func:`odd_cycles` order whose vertex tuple
    passes ``accept``, or None.

    Branch and bound over the same DFS: only the best accepted cycle so
    far is kept, and no path is extended past its length, so no cycle
    list is ever built.
    """
    best: tuple[int, ...] | None = None

    def improve(path: list[int]) -> int:
        nonlocal best
        cyc = tuple(path)
        if (best is None or (len(cyc), cyc) < (len(best), best)) and accept(cyc):
            best = cyc
        return g.vertex_count if best is None else len(best)

    _odd_cycle_dfs(g, g.vertex_count, improve)
    return None if best is None else CycleWitness(best)


def chromatic_number_exact(g: Graph) -> int:
    """Minimum k admitting a proper k-coloring, by branch and bound.

    Greedy clique for the lower bound, DSATUR-ordered backtracking for
    the rest.  Intended for small instances (fast up to roughly 24
    vertices); refuses anything above ``CHROMATIC_HARD_CAP``.
    """
    n = g.vertex_count
    if n > CHROMATIC_HARD_CAP:
        raise CapacityError(
            f"graph has {n} vertices, above the hard cap {CHROMATIC_HARD_CAP}",
            required=n,
            cap=CHROMATIC_HARD_CAP,
        )
    if n == 0:
        return 0
    if g.edge_count == 0:
        return 1

    # Greedy clique from each of the highest-degree vertices.
    order = sorted(range(n), key=g.degree, reverse=True)
    best_clique = 1
    for start in order[: min(n, 8)]:
        clique = [start]
        for v in order:
            if v != start and all(g.has_edge(v, u) for u in clique):
                clique.append(v)
        best_clique = max(best_clique, len(clique))

    for k in range(best_clique, n + 1):
        if _colorable(g, k):
            return k
    raise AssertionError("unreachable: every graph is |V|-colorable")


def _colorable(g: Graph, k: int) -> bool:
    """Backtracking k-colorability test, DSATUR vertex order."""
    n = g.vertex_count
    colors = [0] * n  # 0 = uncolored, colors are 1..k
    nbr_colors: list[set[int]] = [set() for _ in range(n)]

    def pick() -> int | None:
        best, key = None, (-1, -1)
        for v in range(n):
            if colors[v] == 0:
                cand = (len(nbr_colors[v]), g.degree(v))
                if cand > key:
                    best, key = v, cand
        return best

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        touched = []
        for u in g.neighbors[v]:
            if colors[u] == 0 and c not in nbr_colors[u]:
                nbr_colors[u].add(c)
                touched.append(u)
        return touched

    def undo(v: int, c: int, touched: list[int]) -> None:
        colors[v] = 0
        for u in touched:
            nbr_colors[u].discard(c)

    def solve(used: int) -> bool:
        v = pick()
        if v is None:
            return True
        # Trying one fresh color is enough; unused colors are symmetric.
        limit = min(used + 1, k)
        for c in range(1, limit + 1):
            if c in nbr_colors[v]:
                continue
            touched = assign(v, c)
            if solve(max(used, c)):
                return True
            undo(v, c, touched)
        return False

    return solve(0)


# -- serialization -----------------------------------------------------------

def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.vertex_count, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_json_dict(d: Mapping) -> Graph:
    try:
        n, edges = d["n"], [(u, v) for u, v in d["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    # exact types, as for assignment rows: bool is an int subclass, and
    # int() would quietly truncate a float or parse a string
    if {type(x) for x in (n, *(x for edge in edges for x in edge))} != {int}:
        raise ValueError("malformed graph JSON: n and every vertex id must be integers")
    return Graph.from_edges(n, edges)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json_dict(json.load(fh))


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json_dict(g), fh)
        fh.write("\n")


def graph_to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.vertex_count)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
