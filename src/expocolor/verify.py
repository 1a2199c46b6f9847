"""Brute-force verification of the coloring machinery at desk scale.

Every verifier exhaustively (or, for large hosts, by seeded sampling)
checks one family of facts the fast algorithms rely on, and returns a
:class:`VerificationReport` whose ``violations`` list is empty exactly
on success.  Counts of checked objects are part of the report so tests
can compare them against closed-form enumeration sizes.

The arithmetic verifiers take labels, little paths, fixed-point counts
and isolation from :func:`.winding.np_tour`, the kernel that colors,
in one call over the whole assignment space; only arcs *between* two
assignments are valued from a pairwise Δ table, built from
:func:`.winding.arc_value` on every call.  Adjacent pairs come from
:func:`.expo.neighbor_pairs` in fixed blocks of source rows, and every
check is a whole-array gather over a block's pairs.  The even-class
verifiers (hitting set, baseline) hold the even class as one row stack:
a mask on the endpoint columns splits it, one
:func:`.coloring.color_rows` call colors it, and edges are checked as
one (E, 2) index array; end-to-end colors its rows with one
:func:`.coloring.color_rows_in_kh` call.  Either colors every row and
names each row that fails, which is one violation.  Every verifier
reaches Δ and the kernel as ``winding.arc_value`` and
``winding.np_tour``, and colors through :mod:`.coloring`'s entry points,
so a fault in Δ, the kernel, the decision or the stack routine itself
breaks the reports: mutation-style self-tests assert exactly that.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import coloring, expo, winding
from .errors import CapacityError, InvariantViolationError
from .expo import ComponentClass, ExpoGraph, assignment_grid, row_index
from .expo import DEFAULT_CAP
from .graphs import CHROMATIC_HARD_CAP, Graph, bipartition, chromatic_number_exact
from .graphs import make_cycle, odd_cycles
from .winding import OddCycleCtx, in_even_class

_KEEP_VIOLATIONS = 50
# Source rows per neighbor_pairs call in the pair sweeps: bounds the
# (pairs, 2n+1) arrays a sweep holds at once, whatever the space size.
_BLOCK_ROWS = 512


@dataclass
class VerificationReport:
    """Outcome of one verifier run: what was claimed, checked, and found."""

    statement: str
    params: dict
    checked: int
    violations: list[str]
    wall_time: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement,
            "params": self.params,
            "checked": self.checked,
            "passed": self.passed,
            "violations": list(self.violations),
            "wall_time": self.wall_time,
            "details": self.details,
        }


class _Tally:
    """Violation collector that keeps a readable prefix but counts all."""

    def __init__(self):
        self.items: list[str] = []
        self.total = 0

    def add(self, msg: str) -> None:
        self.total += 1
        if len(self.items) < _KEEP_VIOLATIONS:
            self.items.append(msg)

    def finish(self, details: dict) -> list[str]:
        if self.total > len(self.items):
            details["violations_truncated"] = True
            details["violation_total"] = self.total
        return self.items


def _report(
    statement: str, params: dict, checked: int, viol: _Tally, details: dict, t0: float
) -> VerificationReport:
    """The report of a verifier that started at ``t0``; the tally's
    truncation counts go into ``details``."""
    violations = viol.finish(details)
    return VerificationReport(
        statement, params, checked, violations, time.perf_counter() - t0, details
    )


def _arc_table(k: int) -> np.ndarray:
    """(k+1)x(k+1) int8 table of doubled Δ over colors 1..k; FAR cells are 0.

    Values arcs *between* two assignments, which the chord-tour kernel
    never sees.  Rebuilt from :func:`winding.arc_value` on every call, so
    a fault in Δ reaches every sweep.  Callers must only
    gather cells they know are not FAR (arcs between adjacent
    assignments).
    """
    tab = np.zeros((k + 1, k + 1), dtype=np.int8)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            d = winding.arc_value(i, j, k)
            if d is not winding.FAR:
                tab[i, j] = d
    return tab


def _sweep_grid(n: int, k: int, cap: int) -> tuple[OddCycleCtx, np.ndarray]:
    """The context and every assignment of C_{2n+1} into k colors."""
    ctx = OddCycleCtx.make(n, k)
    return ctx, expo.full_grid(make_cycle(ctx.length), k, cap)


def _sweep_tour(n: int, k: int, cap: int):
    """np_tour over every assignment of C_{2n+1} into k colors, in one call.

    Returns ``(ctx, rows, (ell2, p2, fixed, isolated))`` with ``rows``
    from :func:`.expo.assignment_grid`; look an assignment up by
    :func:`.expo.row_index`.  The kernel is the one that colors.
    """
    ctx, rows = _sweep_grid(n, k, cap)
    return ctx, rows, winding.np_tour(rows, ctx)


def _pair_blocks(ctx: OddCycleCtx, rows: np.ndarray, sources: np.ndarray):
    """Every ordered adjacent pair whose source is one of ``rows[sources]``.

    Yields ``(i, j, f, g)`` for each block of ``_BLOCK_ROWS`` sources:
    the grid rows of both ends and the (pairs, 2n+1) assignments, pairs
    ordered by source, then neighbor.  The pairs come from
    :func:`.expo.neighbor_pairs` (cycle codomain for k >= 5).
    """
    host = make_cycle(ctx.length)
    for start in range(0, len(sources), _BLOCK_ROWS):
        block = sources[start : start + _BLOCK_ROWS]
        fs = rows[block]
        src, g = expo.neighbor_pairs(host, fs, ctx.k, ctx.k >= 5)
        yield block[src], row_index(g, ctx.k), fs[src], g


def _fmt(row: np.ndarray) -> tuple[int, ...]:
    return tuple(row.tolist())


def _half(doubled) -> str:
    """The value whose double is ``doubled``: ``3`` for 6, ``3/2`` for 3."""
    d = int(doubled)
    return str(d // 2) if d % 2 == 0 else f"{d}/2"


# The branch of each branch code :func:`_color_sweep` returns; None for 0.
_BRANCH_OF_CODE = (None, *coloring.Branch)
_EQUAL_CODE = _BRANCH_OF_CODE.index(coloring.Branch.EQUAL_ENDPOINTS)


def _color_sweep(
    ctx: OddCycleCtx, rows: np.ndarray, sources: np.ndarray, viol: _Tally
) -> tuple[np.ndarray, np.ndarray]:
    """Color ``rows[sources]`` with one :func:`.coloring.color_rows` call.

    Returns per grid row the color and 1 + the branch's position in
    ``Branch`` (see ``_BRANCH_OF_CODE``), both 0 where the row is
    uncolored.  Each row that fails is reported with its error and left
    uncolored.
    """
    colors = np.zeros(len(rows), dtype=np.int64)
    branch_codes = np.zeros(len(rows), dtype=np.int8)
    fs = rows[sources]
    res = coloring.color_rows(fs, ctx)
    colors[sources] = res.color
    branch_codes[sources] = (res.branch + 1) * (res.color != 0)
    for r, error in zip(res.failed.tolist(), res.errors):
        viol.add(f"coloring failed for f={_fmt(fs[r])}: {error}")
    return colors, branch_codes


def _row_tuples(rows: np.ndarray):
    """The rows as tuples of Python ints, converted one block at a time."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        yield from map(tuple, rows[start : start + _BLOCK_ROWS].tolist())


def verify_label_congruences(n: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Three facts over the full three-color assignment space:

    labels are multiples of 3; assignments with distinct endpoint
    colors have little paths that are not; and label parity equals
    fixed-point parity (the bridge between arithmetic and the even
    class).
    """
    t0 = time.perf_counter()
    ctx, fs, (ell2, p2, fp_counts, _) = _sweep_tour(n, 3, cap)
    total = len(fs)
    distinct_ends = fs[:, ctx.a] != fs[:, ctx.b]

    # In doubled values: 3 | l iff 6 | 2l, and l is even iff 4 | 2l.
    viol = _Tally()
    for i in np.nonzero(ell2 % 6 != 0)[0]:
        viol.add(f"label {_half(ell2[i])} not divisible by 3 for f={_fmt(fs[i])}")
    for i in np.nonzero(distinct_ends & (p2 % 6 == 0))[0]:
        viol.add(f"little path {_half(p2[i])} divisible by 3 for f={_fmt(fs[i])}")
    for i in np.nonzero(ell2 % 4 != 2 * (fp_counts % 2))[0]:
        viol.add(
            f"label {_half(ell2[i])} and fixed-point count "
            f"{fp_counts[i]} differ in parity for f={_fmt(fs[i])}"
        )

    details = {
        "distinct_endpoint_count": int(distinct_ends.sum()),
        "even_class_size": int((fp_counts % 2 == 0).sum()),
    }
    return _report("label congruences", {"n": n, "k": 3}, total, viol, details, t0)


def verify_chord_step_identity(n: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Each chord arc of f is determined by the two interleaved arcs
    through any adjacent g: 2*Δ(f_x, f_z) + Δ(f_x, g_y) + Δ(g_y, f_z) = 0
    where y is the cycle vertex between x and z.
    """
    t0 = time.perf_counter()
    ctx, rows = _sweep_grid(n, 3, cap)
    tab = _arc_table(3)
    viol = _Tally()
    pairs = 0
    for _, _, f, g in _pair_blocks(ctx, rows, np.arange(len(rows))):
        pairs += len(f)
        # column x holds the arc (x, x+2) and the g-vertex x+1 between
        fz = np.roll(f, -2, axis=1)
        gy = np.roll(g, -1, axis=1)
        residual = 2 * tab[f, fz] + tab[f, gy] + tab[gy, fz]
        for row, x in zip(*np.nonzero(residual)):
            viol.add(
                f"arc ({x},{(x + 2) % ctx.length}) of f={_fmt(f[row])} breaks the "
                f"identity against g={_fmt(g[row])} "
                f"(residual {_half(residual[row, x])})"
            )
    details: dict = {}
    return _report("chord-step identity", {"n": n, "k": 3}, pairs, viol, details, t0)


def verify_label_invariance(n: int, k: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Adjacent assignments share one label, equal to the value of the
    interleaved two-assignment tour (halved and negated for 3 colors).

    For cycle codomains additionally checks that labels of non-isolated
    assignments are integers divisible by k.
    """
    t0 = time.perf_counter()
    ctx, rows, (ell2, _, _, _) = _sweep_tour(n, k, cap)
    tab = _arc_table(k)
    viol = _Tally()
    pairs = 0
    for i, j, f, g in _pair_blocks(ctx, rows, np.arange(len(rows))):
        pairs += len(i)
        lab_f, lab_g = ell2[i], ell2[j]
        for row in np.flatnonzero(lab_g != lab_f):
            viol.add(
                f"labels differ: {_half(lab_f[row])} for f={_fmt(f[row])} vs "
                f"{_half(lab_g[row])} for g={_fmt(g[row])}"
            )
        # the doubled value of the interleaved tour f_1,g_2,f_3,...,g_1,f_2,...:
        # sum_i Δ(f(u_i), g(u_{i+1})) + sum_i Δ(g(u_i), f(u_{i+1}))
        arcs = tab[f, np.roll(g, -1, axis=1)] + tab[g, np.roll(f, -1, axis=1)]
        inter = arcs.sum(axis=1, dtype=np.int64)
        bad = 2 * lab_f != -inter if k == 3 else lab_f != inter
        for row in np.flatnonzero(bad):
            viol.add(
                f"interleaved tour value {_half(inter[row])} does not determine "
                f"label {_half(lab_f[row])} for f={_fmt(f[row])}, g={_fmt(g[row])}"
            )
        if k >= 5:
            bad = i[(lab_f % 2 != 0) | ((lab_f // 2) % k != 0)]  # sorted, as i is
            for r in bad[np.diff(bad, prepend=-1) != 0]:  # each source once
                viol.add(
                    f"label {_half(ell2[r])} of non-isolated f={_fmt(rows[r])} "
                    "not in k*Z"
                )
    details: dict = {}
    return _report("label invariance", {"n": n, "k": k}, pairs, viol, details, t0)


def verify_little_path_bound(n: int, k: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """For adjacent assignments, p_f + p_g lands within 1 of the shared
    label; the report records the distribution over {-1, 0, +1}.
    """
    t0 = time.perf_counter()
    ctx, rows, (ell2, p2, _, _) = _sweep_tour(n, k, cap)
    viol = _Tally()
    pairs = 0
    hist = {-1: 0, 0: 0, 1: 0}
    for i, j, f, g in _pair_blocks(ctx, rows, np.arange(len(rows))):
        pairs += len(i)
        lab2 = ell2[i]
        for row in np.flatnonzero(ell2[j] != lab2):
            viol.add(
                f"labels differ under f={_fmt(f[row])}, g={_fmt(g[row])}; "
                "bound precondition broken"
            )
        diff2 = p2[i] + p2[j] - lab2
        for row in np.flatnonzero(np.abs(diff2) > 2):
            viol.add(
                f"p_f + p_g strays {diff2[row]}/2 from the label for "
                f"f={_fmt(f[row])}, g={_fmt(g[row])}"
            )
        for offset in hist:
            hist[offset] += int(np.count_nonzero(diff2 == 2 * offset))
    details = {"offset_distribution": {str(key): val for key, val in hist.items()}}
    return _report("little-path bound", {"n": n, "k": k}, pairs, viol, details, t0)


def verify_proper_coloring_k3(n: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Color every even-class assignment on an odd cycle and cross-examine pairs.

    Exhausts the whole assignment space of the cycle with ``2 * n + 1``
    vertices.  Checks, for the three-color codomain:

    * every even-class assignment gets a color without the decision
      procedure ever reaching the impossible ``2p == l`` branch;
    * adjacent even-class assignments always receive different colors;
    * adjacency never leaves the even class;
    * when both members of an adjacent pair have distinct edge endpoints,
      the two sit on opposite sides of ``l/2`` (their branches differ).
    """
    t0 = time.perf_counter()
    ctx, rows = _sweep_grid(n, 3, cap)
    viol = _Tally()
    even = np.flatnonzero([in_even_class(f, n) for f in _row_tuples(rows)])
    even_count = len(even)
    colors, branch_codes = _color_sweep(ctx, rows, even, viol)
    colored = np.flatnonzero(colors)
    pairs = 0
    for i, j, f, g in _pair_blocks(ctx, rows, colored):
        partnered = colors[j] != 0
        for row in np.flatnonzero(~partnered):
            viol.add(
                f"adjacency leaves the even class: f={_fmt(f[row])} borders "
                f"g={_fmt(g[row])}"
            )
        pairs += int(np.count_nonzero(partnered))
        for row in np.flatnonzero(partnered & (colors[i] == colors[j])):
            viol.add(f"adjacent pair colored alike: f={_fmt(f[row])}, g={_fmt(g[row])}")
        bi, bj = branch_codes[i], branch_codes[j]
        distinct = (bi != _EQUAL_CODE) & (bj != _EQUAL_CODE)
        for row in np.flatnonzero(partnered & distinct & (bi == bj)):
            viol.add(
                f"distinct-endpoint neighbors on the same side of l/2: "
                f"f={_fmt(f[row])}, g={_fmt(g[row])} "
                f"both {_BRANCH_OF_CODE[bi[row]].value}"
            )
    details = {
        "even_class_size": even_count,
        "colored": len(colored),
        "branch_histogram": {
            b.value: int(np.count_nonzero(branch_codes == code))
            for code, b in enumerate(coloring.Branch, 1)
        },
        "pairs": pairs,
    }
    return _report("per-vertex coloring (3 colors)", {"n": n}, pairs, viol, details, t0)


def verify_proper_ck(n: int, k: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Check isolation detection and coloring for a cycle codomain.

    Sweeps every assignment ``V(C_{2n+1}) -> {1..k}`` for odd ``k >= 5``
    and verifies that three independent isolation tests agree: the
    number of neighbors enumerated by :func:`.expo.neighbor_pairs` from
    the stacked :func:`.expo.allowed_masks` (each pair re-checked here
    against every host edge), an allowed-set test read from this
    verifier's own color-adjacency table (:func:`_compat_isolated`), and
    the arc-residue test performed by label arithmetic.  Masks past 64
    colors hold Python ints, so every ``k`` the CLI accepts is swept
    exactly.  Every non-isolated even-class assignment is then colored,
    and every adjacent pair of such assignments must receive colors that
    are themselves adjacent on the ``k``-cycle.
    """
    t0 = time.perf_counter()
    ctx, rows, (_, _, fixed, residue_isolated) = _sweep_tour(n, k, cap)
    total = len(rows)
    host = make_cycle(ctx.length)
    even_mask = fixed % 2 == 0
    compat = np.zeros((k + 1, k + 1), dtype=bool)
    for x in range(1, k + 1):
        compat[x, (x % k) + 1] = True
        compat[x, ((x - 2) % k) + 1] = True
    viol = _Tally()
    degree = np.zeros(total, dtype=np.int64)
    for i, _, f, g in _pair_blocks(ctx, rows, np.arange(total)):
        adjacent = np.ones(len(i), dtype=bool)
        for u, v in host.edges():
            adjacent &= compat[f[:, u], g[:, v]] & compat[f[:, v], g[:, u]]
        for row in np.flatnonzero(~adjacent):
            viol.add(
                f"neighbor enumeration pairs f={_fmt(f[row])} with "
                f"non-adjacent g={_fmt(g[row])}"
            )
        degree += np.bincount(i[adjacent], minlength=total)
    pair_iso = degree == 0
    table_iso = _compat_isolated(host, rows, compat)
    for r in np.flatnonzero((pair_iso != table_iso) | (pair_iso != residue_isolated)):
        viol.add(
            f"isolation tests disagree for f={_fmt(rows[r])}: pair-count="
            f"{pair_iso[r]}, allowed-set={table_iso[r]}, arc-residue={residue_isolated[r]}"
        )
    sources = np.flatnonzero(~pair_iso & even_mask)
    colors, _ = _color_sweep(ctx, rows, sources, viol)
    pairs = 0
    for i, j, f, g in _pair_blocks(ctx, rows, np.flatnonzero(colors)):
        for row in np.flatnonzero(~even_mask[j]):
            viol.add(
                "adjacency leaves the even class: "
                f"f={_fmt(f[row])} borders g={_fmt(g[row])}"
            )
        both = even_mask[j] & (colors[j] != 0)
        pairs += int(np.count_nonzero(both))
        step = (colors[i] - colors[j]) % k
        for row in np.flatnonzero(both & (step != 1) & (step != k - 1)):
            viol.add(
                f"pair colors {colors[i][row]}, {colors[j][row]} are not adjacent "
                f"on the {k}-cycle: f={_fmt(f[row])}, g={_fmt(g[row])}"
            )
    details = {
        "isolated": int(np.count_nonzero(pair_iso)),
        "even_nonisolated": len(sources),
        "pairs": pairs,
    }
    statement = "per-vertex coloring (cycle codomain)"
    return _report(statement, {"n": n, "k": k}, total, viol, details, t0)


def _compat_isolated(host: Graph, rows: np.ndarray, compat: np.ndarray) -> np.ndarray:
    """Which rows are isolated, read from the adjacency table ``compat``
    alone, ``_BLOCK_ROWS`` rows at a time: a vertex's allowed colors are
    the colors adjacent to the color of every neighbour, ANDed, and a row
    is isolated iff some vertex has none left."""
    isolated = np.zeros(len(rows), dtype=bool)
    for start in range(0, len(rows), _BLOCK_ROWS):
        fs = rows[start : start + _BLOCK_ROWS]
        for near in host.neighbors:
            allowed = np.logical_and.reduce([compat[fs[:, w], 1:] for w in near])
            isolated[start : start + len(fs)] |= ~allowed.any(axis=1)
    return isolated


def _edge_array(g: Graph) -> np.ndarray:
    """The edges of g as an (E, 2) integer array, in :meth:`Graph.edges` order."""
    return np.array(g.edges(), dtype=np.int64).reshape(-1, 2)


def _even_class(n: int, cap: int, viol: _Tally) -> ExpoGraph | None:
    """:func:`coloring.even_class_subgraph`, or None with a violation when
    building it breaks an invariant (a self-loop in the even class)."""
    try:
        return coloring.even_class_subgraph(n, cap=cap)
    except InvariantViolationError as exc:
        viol.add(f"even-class subgraph failed outright: {exc}")
        return None


def verify_hitting_set(n: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Check that equal-endpoint assignments hit every odd structure.

    Builds the even-class subgraph for the cycle with ``2 * n + 1``
    vertices, removes the assignments whose two edge-endpoint values
    coincide, and verifies the remainder is bipartite with the two sides
    given exactly by the below/above branch of the coloring decision.
    The remainder is one row stack, colored by one :func:`_color_sweep`.
    """
    t0 = time.perf_counter()
    ctx = OddCycleCtx.make(n, 3)
    viol = _Tally()
    statement = "hitting set / bipartite remainder"
    ke = _even_class(n, cap, viol)
    if ke is None:
        return _report(statement, {"n": n}, 0, viol, {}, t0)
    expected = {
        f
        for f in itertools.product((1, 2, 3), repeat=ctx.length)
        if f[ctx.a] != f[ctx.b] and in_even_class(f, n)
    }
    rows = np.array(ke.vertices)
    rows = rows[rows[:, ctx.a] != rows[:, ctx.b]]
    remainder = ExpoGraph.from_rows(ke.host, 3, False, rows)
    if set(remainder.vertices) != expected:
        viol.add(
            "remainder vertex set mismatch: got "
            f"{remainder.vertex_count}, expected {len(expected)}"
        )
    rem_graph = remainder.to_graph()
    parts = bipartition(rem_graph)
    if parts is None:
        viol.add(
            "remainder after deleting equal-endpoint assignments "
            "contains an odd cycle"
        )
    _, sides = _color_sweep(ctx, rows, np.arange(len(rows)), viol)
    for i in np.flatnonzero(sides == _EQUAL_CODE):
        viol.add(f"equal-endpoint branch inside the remainder: f={_fmt(rows[i])}")
    sides[sides == _EQUAL_CODE] = 0  # only BelowHalf and AboveHalf are sides
    edges = _edge_array(rem_graph)
    for i, j in edges[sides[edges[:, 0]] == sides[edges[:, 1]]].tolist():
        viol.add(
            f"remainder edge within one side of l/2: {_fmt(rows[i])} -- "
            f"{_fmt(rows[j])} both {_BRANCH_OF_CODE[sides[i]]}"
        )
    ke_graph = ke.to_graph()
    details = {
        "even_class_size": ke.vertex_count,
        "remainder_size": remainder.vertex_count,
        "remainder_edges": len(edges),
        "even_class_bipartite": bipartition(ke_graph) is not None,
    }
    if ke.vertex_count <= CHROMATIC_HARD_CAP:
        details["even_class_chi"] = chromatic_number_exact(ke_graph)
    checked = remainder.vertex_count + len(edges)
    return _report(statement, {"n": n}, checked, viol, details, t0)


def verify_baseline(n: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Check the bipartition-based coloring of the even-class subgraph.

    The baseline colors the whole even-class subgraph at once (equal
    endpoints keep their endpoint value, the remainder is two-colored by
    a bipartition sweep).  The result must be a proper coloring, and on
    equal-endpoint assignments it must agree with the per-vertex
    procedure, which colors them as one stack through :func:`_color_sweep`.
    """
    t0 = time.perf_counter()
    ctx = OddCycleCtx.make(n, 3)
    viol = _Tally()
    statement = "baseline graph coloring"
    ke = _even_class(n, cap, viol)
    if ke is None:
        return _report(statement, {"n": n}, 0, viol, {}, t0)
    checked = ke.vertex_count
    try:
        assigned = coloring.color_graph_baseline(ke, ctx)
    except InvariantViolationError as exc:
        viol.add(f"baseline coloring failed outright: {exc}")
        details = {"even_class_size": ke.vertex_count}
        return _report(statement, {"n": n}, checked, viol, details, t0)
    # the values as given, compared as Python objects: a missing vertex is None
    given = np.fromiter(map(assigned.get, ke.vertices), dtype=object)
    for i in np.flatnonzero(~np.isin(given, (1, 2, 3))):
        viol.add(f"assignment {ke.vertices[i]} got color {given[i]!r} outside 1..3")
    edges = _edge_array(ke.to_graph())
    for i, j in edges[given[edges[:, 0]] == given[edges[:, 1]]].tolist():
        viol.add(
            f"baseline colors an edge alike: {ke.vertices[i]} -- {ke.vertices[j]} "
            f"both {given[i]}"
        )
    checked += len(edges)
    rows = np.array(ke.vertices)
    equal = np.flatnonzero(rows[:, ctx.a] == rows[:, ctx.b])
    colors, branch_codes = _color_sweep(ctx, rows, equal, viol)
    colored = equal[colors[equal] != 0]
    decided = branch_codes[colored] != _EQUAL_CODE
    for i in colored[decided | (colors[colored] != given[colored])].tolist():
        f = ke.vertices[i]
        if branch_codes[i] != _EQUAL_CODE:
            viol.add(
                f"equal-endpoint assignment {f} decided by "
                f"{_BRANCH_OF_CODE[branch_codes[i]].value}"
            )
        if colors[i] != given[i]:
            viol.add(
                f"baseline and per-vertex colors differ on {f}: "
                f"{given[i]} vs {colors[i]}"
            )
    details = {
        "even_class_size": ke.vertex_count,
        "edges": len(edges),
        "equal_endpoint_count": len(equal),
    }
    return _report(statement, {"n": n}, checked, viol, details, t0)


_DRAW_ENTRIES = 1 << 16  # colors per block of rows drawn or tested for isolation
# Per 3-color bitmask (bit c-1 for color c): its colors in ascending
# order, 0 past the last, and the size of its set.
_NTH_COLOR = np.array(
    [([c for c in (1, 2, 3) if m >> (c - 1) & 1] + [0, 0, 0])[:3] for m in range(8)], np.uint8
)
_SET_SIZE = np.count_nonzero(_NTH_COLOR, axis=1)


def _uniform3(rng: random.Random, count: int) -> np.ndarray:
    """``count`` exactly uniform values 0..2: random bytes split into four
    2-bit fields a byte, and the fields holding 3 dropped."""
    out = np.zeros(0, dtype=np.uint8)
    while len(out) < count:
        raw = np.frombuffer(rng.randbytes((count - len(out)) // 3 + 1), dtype=np.uint8)
        fields = raw[:, None] >> np.array([0, 2, 4, 6], dtype=np.uint8) & 3
        out = np.concatenate((out, fields[fields != 3]))
    return out[:count]


def _not_isolated(host: Graph, rows: np.ndarray) -> np.ndarray:
    """Whether each row of a non-empty stack has a neighbor, from one
    :func:`.expo.isolated_rows` per block of about ``_DRAW_ENTRIES`` colors."""
    step = max(_DRAW_ENTRIES // host.vertex_count, 1)
    blocks = (rows[start : start + step] for start in range(0, len(rows), step))
    return ~np.concatenate([expo.isolated_rows(host, block, 3) for block in blocks])


def _sample_pairs(host: Graph, rng: random.Random, samples: int):
    """``samples`` seeded non-isolated rows, one uniform neighbor of each,
    and the number of candidate rows drawn up to the last row kept.

    The neighbor's color at each vertex is uniform over the set of
    :func:`.expo.allowed_masks`: each mask's size and n-th color are
    read from ``_SET_SIZE`` and ``_NTH_COLOR``, and the positions are
    drawn for the 3-sets, then the 2-sets, each in (row, vertex) order.
    """
    nv, kept, draws, need = host.vertex_count, [], 0, samples
    while need:
        block = _uniform3(rng, max(_DRAW_ENTRIES // nv, 1) * nv).reshape(-1, nv) + 1
        live = np.flatnonzero(_not_isolated(host, block))
        kept.append(block[live[:need]])
        need -= len(kept[-1])
        draws += len(block) if need else int(live[len(kept[-1]) - 1]) + 1
    fs = np.concatenate(kept)
    allowed = expo.allowed_masks(host, fs, 3).T  # (samples, |V|), drawn in C order
    size = _SET_SIZE[allowed]
    pick = np.zeros(size.shape, dtype=np.uint8)  # position in the allowed set
    pick[size == 3] = _uniform3(rng, np.count_nonzero(size == 3))
    two = np.count_nonzero(size == 2)
    pick[size == 2] = np.unpackbits(np.frombuffer(rng.randbytes(-(-two // 8)), np.uint8))[:two]
    return fs, _NTH_COLOR[allowed, pick], draws


def verify_end_to_end(
    host: Graph,
    cap: int = DEFAULT_CAP,
    samples: int | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Drive the full pipeline on a host that needs at least four colors.

    With ``samples=None`` all ``3 ** |V(host)|`` assignments are
    processed: isolated ones (an empty allowed set) are counted, and the
    rest colored through one cycle cache as one stack, component after
    component.  The members of a component that the pipeline colors must
    share one serving cycle, as its ``RowColors.cycle`` records it, every
    member must be even on that cycle, adjacent members differ in color,
    and members of three-chromatic components are probed on *every* odd
    host cycle.
    With ``samples`` set, that many non-isolated assignments (at least
    one) are colored, each with one uniform neighbor.  Candidates are
    uniform rows drawn in blocks from ``random.Random(seed).randbytes``;
    ``draws`` counts them up to the last one kept.  Either way one
    :func:`.coloring.color_rows_in_kh` call colors every row, and each
    row the pipeline fails on is reported and left uncolored.
    """
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    t0 = time.perf_counter()
    chi = chromatic_number_exact(host)
    if chi < 4:
        raise ValueError(f"host must need at least 4 colors, chromatic number is {chi}")
    viol = _Tally()
    nv = host.vertex_count
    details: dict = {"host_vertices": nv, "host_chi": chi}
    if samples is None:
        total = 3**nv
        if total > cap:
            raise CapacityError(
                f"3**{nv} = {total} assignments exceed the cap of {cap}; "
                "pass samples= to switch to seeded sampling",
                required=total,
                cap=cap,
            )
        rows = assignment_grid(nv, 3)
        # neighbors of non-isolated rows are non-isolated: the graph on
        # them holds every pair, and vertex i is live[i]
        live = rows[_not_isolated(host, rows)]
        eg = ExpoGraph.from_rows(host, 3, False, live)
        comps = expo.components(eg)
        order = np.array([v for members, _ in comps for v in members], dtype=np.int64)
        res, cache = coloring.color_rows_in_kh(host, live[order])
        colors = np.zeros(len(live), dtype=np.int64)
        colors[order] = res.color
        cycles = np.empty(len(live), dtype=np.int64)
        cycles[order] = res.cycle
        for r, exc in zip(res.failed.tolist(), res.errors):
            viol.add(f"pipeline failed on {eg.vertices[order[r]]}: {exc}")
        for members, _ in comps:
            served = cycles[list(members)]
            served = served[served >= 0]  # a row that failed is reported above
            if not len(served):
                continue
            if (served != served[0]).any():
                viol.add(
                    f"component of {eg.vertices[members[0]]} served by cycles "
                    f"{[cache.entries[j][0].vertices for j in sorted(set(served.tolist()))]}"
                )
            cyc = cache.entries[served[0]][0]
            for i in np.flatnonzero(~coloring._even_on(live[list(members)], cyc)):
                viol.add(
                    f"{eg.vertices[members[i]]} has odd parity on its component's "
                    f"cycle {cyc.vertices}"
                )
        graph = eg.to_graph()
        edges = _edge_array(graph)
        for i, j in edges[colors[edges[:, 0]] == colors[edges[:, 1]]].tolist():
            if colors[i]:
                viol.add(f"adjacent pair colored alike: {eg.vertices[i]}, {eg.vertices[j]}")
        three = live[[v for m, c in comps if c is ComponentClass.THREE_CHROMATIC for v in m]]
        details["isolated"] = total - eg.vertex_count
        details["pairs"] = 2 * len(edges)  # ordered, and no loops: chi(host) > 3
        details["component_classes"] = {
            member.value: sum(c is member for _, c in comps) for member in ComponentClass
        }
        details["cache_cycles"] = len(cache)
        details["every_odd_cycle_even"] = not len(three) or all(
            coloring._even_on(three, c).all() for c in odd_cycles(host, nv)
        )
        details["nonisolated_count"] = eg.vertex_count
        if 0 < eg.vertex_count <= CHROMATIC_HARD_CAP:
            details["nonisolated_chi"] = chromatic_number_exact(graph)
        checked = total
        params = {"vertices": nv, "mode": "exhaustive"}
    else:
        fs, gs, draws = _sample_pairs(host, random.Random(seed), samples)
        stack = np.stack((fs, gs), axis=1).reshape(-1, nv)  # f0, g0, f1, g1, ...
        res, cache = coloring.color_rows_in_kh(host, stack)
        for r, exc in zip(res.failed.tolist(), res.errors):
            what = "sampled neighbor " * (r % 2)
            viol.add(f"pipeline failed on {what}{_fmt(stack[r])}: {exc}")
        cf, cg = res.color[0::2], res.color[1::2]
        for i in np.flatnonzero((cf != 0) & (cf == cg)):
            viol.add(f"sampled adjacent pair colored alike: {_fmt(fs[i])}, {_fmt(gs[i])}")
        details["draws"] = draws
        details["pairs"] = int(np.count_nonzero((cf != 0) & (cg != 0)))
        details["cache_cycles"] = len(cache)
        checked = samples
        params = {"vertices": nv, "mode": "sampled", "samples": samples, "seed": seed}
    return _report("end-to-end pipeline", params, checked, viol, details, t0)
