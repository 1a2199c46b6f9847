"""The benchmark's own arithmetic: input generation and the output checker.

Nothing here imports ``expocolor``.  The generator draws seeded inputs
and the checker recomputes every verdict from scratch, so a wrong colour
from the program cannot be hidden by a matching mistake in a shared
helper.

Conventions follow the CLI's documented JSON: cycle vertices are 0-based,
colours are 1-based, a verdict is ``{"color", "branch", "ell2", "p2"}``
with doubled label and little-path values.

Reference rule (derived independently of the program's Δ tables).  Let
``d_i = f(i+2) - f(i)`` be the chord step leaving vertex ``i``.

* ``k = 3``: the arc value is ``d - 3[d = 2] + 3[d = -2]``.  The steps sum
  to zero around the closed chord tour, so ``ell = 3(#{d=-2} - #{d=+2})``,
  and along the ``n``-arc path from ``a`` to ``b``
  ``p = f(b) - f(a) + 3(#{d=-2} - #{d=+2})``.
* odd ``k >= 5``: a non-isolated assignment has every chord step in
  ``{0, 2, k-2}`` mod ``k``, worth ``0, +1, -1``.
* Colour: ``f(a)`` if ``f(a) = f(b)`` (EqualEndpoints); otherwise ``f(a)``
  when ``2p < ell`` (BelowHalf) and ``f(b)`` when ``2p > ell`` (AboveHalf).
"""

from __future__ import annotations

import numpy as np

BRANCHES = ("EqualEndpoints", "BelowHalf", "AboveHalf")


# -- hosts -------------------------------------------------------------------


def grotzsch_edges() -> list[tuple[int, int]]:
    """Mycielskian of C_5: cycle 0..4, shadows 5..9, apex 10."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i - 1) % 5) for i in range(5)]
    edges += [(5 + i, 10) for i in range(5)]
    return edges


def neighbour_lists(vertex_count: int, edges) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def orient_edge(x: int, y: int, length: int) -> tuple[int, int]:
    """(a, b) with a the cyclic successor of b, as the paper's n-arc path needs."""
    if x == (y + 1) % length:
        return x, y
    if y == (x + 1) % length:
        return y, x
    raise ValueError(f"({x},{y}) is not an edge of a {length}-cycle")


# -- predicates ----------------------------------------------------------------


def chord_steps(fs: np.ndarray) -> np.ndarray:
    """d_i = f(i+2) - f(i) as int16, over the last axis."""
    fs = fs.astype(np.int16, copy=False)
    return np.roll(fs, -2, axis=-1) - fs


def even_class(fs: np.ndarray) -> np.ndarray:
    """True where the fixed-point count (nonzero chord steps) is even."""
    return np.count_nonzero(chord_steps(fs), axis=-1) % 2 == 0


def colour_compat(k: int) -> np.ndarray:
    """(k+1, k+1) table: may colours x and y face each other across a host edge?

    ``K_3`` target: they differ.  ``C_k`` target (k >= 5): adjacent on C_k.
    Row and column 0 are unused.
    """
    c = np.arange(k + 1)
    if k == 3:
        tab = c[:, None] != c[None, :]
    else:
        tab = np.isin((c[:, None] - c[None, :]) % k, (1, k - 1))
    tab[0, :] = tab[:, 0] = False
    return tab


def cycle_allowed(fs: np.ndarray, k: int) -> np.ndarray:
    """Allowed colours per cycle vertex, shape fs.shape + (k,)."""
    tab = colour_compat(k)
    prev = np.roll(fs, 1, axis=-1)
    nxt = np.roll(fs, -1, axis=-1)
    return np.stack(
        [tab[c][prev] & tab[c][nxt] for c in range(1, k + 1)], axis=-1
    )


def host_allowed(fs: np.ndarray, nbrs: list[list[int]]) -> np.ndarray:
    """Allowed K_3 colours per host vertex: the ones its neighbourhood lacks."""
    onehot = fs[..., None] == np.arange(1, 4)
    used = np.stack([onehot[:, nb].any(axis=1) for nb in nbrs], axis=1)
    return ~used


def host_isolated(fs: np.ndarray, nbrs: list[list[int]]) -> np.ndarray:
    """True where some vertex's neighbourhood uses all three colours."""
    return (~host_allowed(fs, nbrs)).all(axis=-1).any(axis=-1)


# -- generator -----------------------------------------------------------------


def draw_neighbours(rng: np.random.Generator, allowed: np.ndarray) -> np.ndarray:
    """One assignment per row, uniform over the product of the allowed sets."""
    keys = rng.random(allowed.shape)
    keys[~allowed] = -1.0
    if (~allowed).all(axis=-1).any():
        raise ValueError("an allowed set is empty: the row is isolated")
    return (keys.argmax(axis=-1) + 1).astype(np.int8)


def even_k3_rows(rng: np.random.Generator, count: int, length: int) -> np.ndarray:
    """Uniform even-class rows over {1,2,3}^length, by rejection."""
    out: list[np.ndarray] = []
    have = 0
    while have < count:
        block = rng.integers(1, 4, size=(max(2 * (count - have), 1), length), dtype=np.int8)
        block = block[even_class(block)]
        out.append(block)
        have += len(block)
    return np.concatenate(out)[:count]


def even_ck_rows(rng: np.random.Generator, count: int, length: int, k: int) -> np.ndarray:
    """Uniform non-isolated even-class rows into C_k.

    Walks the chord tour 0, 2, 4, ... with steps drawn from {0, 2, k-2};
    the closing step is forced, and a candidate is kept when the closing
    step is also legal and the nonzero steps are even in number.
    """
    tour = (2 * np.arange(length)) % length
    legal = np.array((0, 2, k - 2))
    out: list[np.ndarray] = []
    have = 0
    while have < count:
        m = max(4 * (count - have), 4)
        steps = legal[rng.integers(0, 3, size=(m, length - 1))]
        closing = (-steps.sum(axis=1)) % k
        steps = np.concatenate([steps, closing[:, None]], axis=1)
        keep = np.isin(closing, legal) & (np.count_nonzero(steps, axis=1) % 2 == 0)
        steps = steps[keep]
        start = rng.integers(0, k, size=(len(steps), 1))
        walk = (start + np.cumsum(steps[:, :-1], axis=1)) % k
        values = np.concatenate([start, walk], axis=1) + 1
        rows = np.empty_like(values)
        rows[:, tour] = values
        out.append(rows.astype(np.int8))
        have += len(rows)
    return np.concatenate(out)[:count]


def non_isolated_host_rows(
    rng: np.random.Generator, count: int, nbrs: list[list[int]]
) -> np.ndarray:
    """Uniform non-isolated K_3 assignments of a host, by rejection."""
    out: list[np.ndarray] = []
    have = 0
    while have < count:
        block = rng.integers(1, 4, size=(32 * (count - have), len(nbrs)), dtype=np.int8)
        block = block[~host_isolated(block, nbrs)]
        out.append(block)
        have += len(block)
    return np.concatenate(out)[:count]


def interleave(rows: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """rows[0], partners[0], rows[1], partners[1], ..."""
    out = np.empty((2 * len(rows),) + rows.shape[1:], dtype=rows.dtype)
    out[0::2] = rows
    out[1::2] = partners
    return out


# -- checker -------------------------------------------------------------------


def reference_verdicts(fs: np.ndarray, k: int, a: int, b: int) -> dict[str, np.ndarray]:
    """Expected color, branch index, ell2 and p2 for each row of fs.

    Rows must be even-class and, for k >= 5, non-isolated; a row that
    is not gets branch -1 (no valid verdict exists).
    """
    fs = np.atleast_2d(fs).astype(np.int64)
    length = fs.shape[1]
    n = length // 2
    d = chord_steps(fs)
    path = (a + 2 * np.arange(n)) % length
    fa, fb = fs[:, a], fs[:, b]
    if k == 3:
        score = 3 * ((d == -2).astype(np.int64) - (d == 2))
        ell2 = 2 * score.sum(axis=1)
        p2 = 2 * (fb - fa) + 2 * score[:, path].sum(axis=1)
        valid = np.ones(len(fs), dtype=bool)
    else:
        r = d % k
        unit = (r == 2).astype(np.int64) - (r == k - 2)
        ell2 = 2 * unit.sum(axis=1)
        p2 = 2 * unit[:, path].sum(axis=1)
        valid = np.isin(r, (0, 2, k - 2)).all(axis=1)
    valid &= even_class(fs)
    side = 2 * p2 - ell2
    branch = np.where(fa == fb, 0, np.where(side < 0, 1, 2))
    branch[(fa != fb) & (side == 0)] = -1
    branch[~valid] = -1
    color = np.where(branch == 2, fb, fa)
    return {"color": color, "branch": branch, "ell2": ell2, "p2": p2}


def mismatches(verdicts: list[dict], expected: dict[str, np.ndarray]) -> list[int]:
    """Indices of rows whose verdict differs from the reference in any field."""
    bad = []
    for i, v in enumerate(verdicts):
        br = int(expected["branch"][i])
        if (
            br < 0
            or not isinstance(v, dict)
            or any(type(v.get(key)) is not int for key in ("color", "ell2", "p2"))
            or v.get("branch") != BRANCHES[br]
            or v.get("color") != int(expected["color"][i])
            or v.get("ell2") != int(expected["ell2"][i])
            or v.get("p2") != int(expected["p2"][i])
        ):
            bad.append(i)
    return bad


def improper_pairs(colors: np.ndarray, k: int) -> list[int]:
    """Pair indices j where rows 2j and 2j+1 (adjacent) break the target's rule."""
    colors = np.where((colors >= 1) & (colors <= k), colors, 0)
    ok = colour_compat(k)[colors[0::2], colors[1::2]]
    return [int(j) for j in np.nonzero(~ok)[0]]


def serving_cycles(fs: np.ndarray, cycles: list[list[int]]) -> np.ndarray:
    """Per row, the first cycle in cache order whose restriction is even.

    Cycles are appended only on a miss, so the cycle that served a row is
    always the first even one in the final cache file.  -1 where none is.
    """
    serve = np.full(len(fs), -1)
    for j in reversed(range(len(cycles))):
        serve[even_class(fs[:, cycles[j]])] = j
    return serve
