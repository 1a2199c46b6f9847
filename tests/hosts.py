"""General hosts for the tests, and the row-by-row reference on them.

The Moser spindle and the Chvátal graph are defined here once, for the
fixtures of ``conftest.py``, the recorder of ``color_golden.json`` and
CI (which runs with ``tests`` on ``PYTHONPATH``).  :func:`host_rows` is
the one seeded generator of host rows, and :func:`kh_loop` the one loop
of :func:`color_in_kh` that :func:`color_rows_in_kh` and the CLI's
``--graph`` path are checked against.
"""

import numpy as np

from expocolor.coloring import Branch, CycleCache, RowColors, color_in_kh
from expocolor.errors import InvariantViolationError, NoEvenCycleError
from expocolor.expo import allowed_colors, is_isolated
from expocolor.graphs import Graph

# Two rhombi of triangles sharing vertex 0, their far tips 3 and 6 joined
# (7 vertices, 11 edges, chi 4).
MOSER = Graph.from_edges(
    7,
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5), (4, 5), (4, 6), (5, 6), (3, 6)],
)

# 12 vertices, 24 edges, 4-regular, triangle-free, chi 4.
CHVATAL = Graph.from_edges(
    12,
    [
        (0, 1), (0, 4), (0, 6), (0, 9), (1, 2), (1, 5), (1, 7), (2, 3), (2, 6), (2, 8),
        (3, 4), (3, 7), (3, 9), (4, 5), (4, 8), (5, 10), (5, 11), (6, 10), (6, 11),
        (7, 8), (7, 11), (8, 10), (9, 10), (9, 11),
    ],
)


def host_rows(h: Graph, rng, count: int = 20) -> list[list[int]]:
    """Random non-isolated rows of h, each followed by a random neighbour
    of it: 2 * count rows.  ``rng`` is a seed or a numpy Generator, whose
    draws go on from where they stand."""
    rng = np.random.default_rng(rng)
    rows: list[list[int]] = []
    while len(rows) < 2 * count:
        f = rng.integers(1, 4, size=h.vertex_count).tolist()
        if not is_isolated(h, f, 3):
            rows += [f, [int(rng.choice(s)) for s in allowed_colors(h, f, 3)]]
    return rows


def isolated_row(h: Graph, rng) -> list[int]:
    """The first random row of h that is isolated."""
    rng = np.random.default_rng(rng)
    while not is_isolated(h, f := rng.integers(1, 4, size=h.vertex_count).tolist(), 3):
        pass
    return f


def kh_loop(h: Graph, rows, cache: CycleCache | None = None) -> tuple[RowColors, CycleCache]:
    """``color_in_kh`` on each row in turn, from ``cache`` or an empty one,
    going on past each row that raises: the rows' :class:`RowColors`, as
    ``color_rows_in_kh`` gives them, and the cache it leaves."""
    cache = CycleCache() if cache is None else cache
    values, cycles, failed, errors = [], [], [], []
    for r, f in enumerate(rows):
        try:
            verdict, cache = color_in_kh(h, f, cache)
        except (ValueError, NoEvenCycleError, InvariantViolationError) as exc:
            values.append((0, 0, 0, 0))
            cycles.append(-1)
            failed.append(r)
            errors.append(exc)
        else:
            branch = list(Branch).index(verdict.branch)
            values.append((verdict.color, branch, verdict.ell2, verdict.p2))
            cycles.append(cache.entries.index(cache.find_even(h, f)))
    color, branch, ell2, p2 = np.array(values, dtype=np.int64).reshape(-1, 4).T
    return RowColors(color, branch, ell2, p2, np.array(failed), errors, np.array(cycles)), cache


def assert_same_colors(got: RowColors, want: RowColors) -> None:
    """Equal verdicts, serving cycles and failing rows, and errors of the
    same types and messages."""
    for name in ("color", "branch", "ell2", "p2", "cycle", "failed"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    assert [(type(e), str(e)) for e in got.errors] == [(type(e), str(e)) for e in want.errors]
