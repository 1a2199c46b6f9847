"""Tests of the benchmark itself: generator, checker, tracer and contract.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from run import ROOT, Spawner, child_env, tail
from tracer import self_times
from workloads import _check_host_call, _check_rows, _verify_check

HERE = Path(__file__).resolve().parent


def scalar_fixed_points(f) -> int:
    n = len(f)
    return sum(f[(i - 1) % n] != f[(i + 1) % n] for i in range(n))


def scalar_verdict(f, k: int, a: int, b: int) -> dict:
    """The paper's rule with the textbook arc tables, one entry at a time."""
    length = len(f)

    def arc2(x, y):  # doubled arc value
        r = (y - x) % k
        if k == 3:
            return 2 * ((y - x + 1) % 3 - 1)
        return {0: 0, 2: 2, k - 2: -2}[r]

    ell2 = sum(arc2(f[i], f[(i + 2) % length]) for i in range(length))
    p2 = sum(arc2(f[(a + 2 * t) % length], f[(a + 2 * t + 2) % length]) for t in range(length // 2))
    if f[a] == f[b]:
        return {"color": int(f[a]), "branch": "EqualEndpoints", "ell2": ell2, "p2": p2}
    if 2 * p2 < ell2:
        return {"color": int(f[a]), "branch": "BelowHalf", "ell2": ell2, "p2": p2}
    return {"color": int(f[b]), "branch": "AboveHalf", "ell2": ell2, "p2": p2}


def allowed_scalar(f, nbrs, k):
    compat = ref.colour_compat(k)
    return [
        [c for c in range(1, k + 1) if all(compat[c, f[w]] for w in nb)] for nb in nbrs
    ]


def cycle_nbrs(length):
    return [[(v - 1) % length, (v + 1) % length] for v in range(length)]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def test_k3_rows_are_even_class(rng):
    rows = ref.even_k3_rows(rng, 200, 11)
    assert rows.shape == (200, 11)
    assert all(scalar_fixed_points(r.tolist()) % 2 == 0 for r in rows)
    assert set(np.unique(rows)) == {1, 2, 3}


def test_k5_rows_have_legal_chord_steps_and_even_parity(rng):
    rows = ref.even_ck_rows(rng, 200, 13, 5)
    for r in rows.tolist():
        steps = {(r[(i + 2) % 13] - r[i]) % 5 for i in range(13)}
        assert steps <= {0, 2, 3}
        assert scalar_fixed_points(r) % 2 == 0
    assert set(np.unique(rows)) == {1, 2, 3, 4, 5}


def test_grotzsch_rows_are_non_isolated(rng):
    nbrs = ref.neighbour_lists(11, ref.grotzsch_edges())
    rows = ref.non_isolated_host_rows(rng, 100, nbrs)
    for r in rows.tolist():
        assert all(allowed_scalar(r, nbrs, 3))
    # the vectorised test flags exactly the isolated rows of a random block
    block = rng.integers(1, 4, size=(300, 11))
    expect = [not all(allowed_scalar(r, nbrs, 3)) for r in block.tolist()]
    assert ref.host_isolated(block, nbrs).tolist() == expect


@pytest.mark.parametrize("k", [3, 5])
def test_neighbours_come_from_the_allowed_sets(rng, k):
    length = 9
    rows = ref.even_k3_rows(rng, 50, length) if k == 3 else ref.even_ck_rows(rng, 50, length, k)
    partners = ref.draw_neighbours(rng, ref.cycle_allowed(rows, k))
    for f, g in zip(rows.tolist(), partners.tolist()):
        sets = allowed_scalar(f, cycle_nbrs(length), k)
        assert all(c in s for c, s in zip(g, sets))
        assert scalar_fixed_points(g) % 2 == 0


def test_neighbour_draw_is_uniform_over_the_product():
    rng = np.random.default_rng(7)
    f = np.array([[1, 2, 1, 2, 3]])  # allowed sets on C_5: {1} {2,3} {1,3} {2} {3}
    allowed = ref.cycle_allowed(f, 3)
    draws = ref.draw_neighbours(rng, np.repeat(allowed, 4000, axis=0))
    product = list(itertools.product(*allowed_scalar(f[0].tolist(), cycle_nbrs(5), 3)))
    seen = {tuple(d): 0 for d in product}
    for d in draws.tolist():
        seen[tuple(d)] += 1
    assert len(seen) == len(product)
    assert min(seen.values()) > 0.7 * 4000 / len(product)


@pytest.mark.parametrize("k", [3, 5])
def test_reference_matches_scalar_rule_on_every_small_input(k):
    length = 5
    rows = np.array(list(itertools.product(range(1, k + 1), repeat=length)))
    if k == 3:
        keep = ref.even_class(rows)
    else:
        d = ref.chord_steps(rows) % k
        keep = ref.even_class(rows) & np.isin(d, (0, 2, k - 2)).all(axis=1)
    rows = rows[keep]
    for x in range(length):
        a, b = ref.orient_edge(x, (x + 1) % length, length)
        exp = ref.reference_verdicts(rows, k, a, b)
        for i, f in enumerate(rows.tolist()):
            want = scalar_verdict(f, k, a, b)
            assert ref.BRANCHES[exp["branch"][i]] == want["branch"]
            assert (exp["color"][i], exp["ell2"][i], exp["p2"][i]) == (
                want["color"], want["ell2"], want["p2"]
            )


def _batch(rng, k=3, pairs=20, length=11):
    rows = ref.even_k3_rows(rng, pairs, length)
    rows = ref.interleave(rows, ref.draw_neighbours(rng, ref.cycle_allowed(rows, k)))
    expected = ref.reference_verdicts(rows, k, 1, 0)
    lines = [
        json.dumps({
            "color": int(expected["color"][i]),
            "branch": ref.BRANCHES[expected["branch"][i]],
            "ell2": int(expected["ell2"][i]),
            "p2": int(expected["p2"][i]),
        })
        for i in range(len(rows))
    ]
    return rows, expected, lines


CORRUPT = {
    "color": lambda v: 1 + v % 3,
    "branch": lambda v: next(b for b in ref.BRANCHES if b != v),
    "ell2": lambda v: v + 6,
    "p2": lambda v: v - 2,
}


@pytest.mark.parametrize("field", sorted(CORRUPT))
def test_checker_flags_a_hand_corrupted_verdict(rng, field):
    rows, expected, lines = _batch(rng)
    assert _check_rows("\n".join(lines), 0, expected, 3, paired=True).failed == 0
    v = json.loads(lines[6])
    v[field] = CORRUPT[field](v[field])
    lines[6] = json.dumps(v)
    out = _check_rows("\n".join(lines), 0, expected, 3, paired=True)
    assert out.failed >= 1 and out.attempted == len(rows)


def test_checker_flags_missing_rows_and_bad_exit(rng):
    rows, expected, lines = _batch(rng)
    assert _check_rows("\n".join(lines[:-1]), 0, expected, 3, True).failed == len(rows)
    assert _check_rows("\n".join(lines), 3, expected, 3, True).failed == len(rows)


def test_verify_check_wants_passing_reports_with_repeatable_counts():
    report = {"statement": "s", "params": {"n": 3}, "checked": 81, "passed": True}
    good = "\n".join(json.dumps(dict(report, statement=name)) for name in "ab")
    check = _verify_check({})
    assert (check(good, 0).failed, check(good, 0).items) == (0, 162)
    changed = good.replace('"checked": 81', '"checked": 80', 1)
    assert check(changed, 0).failed == 1
    failing = good.replace('"passed": true', '"passed": false', 1)
    assert check(failing, 1).failed == 2
    assert check(failing, 0).failed == 1
    assert check("[1, 2]\n" + good.splitlines()[1], 0).failed == 1
    assert check(good.splitlines()[0], 0).failed == 1


def test_pair_check_uses_the_target_adjacency():
    assert ref.improper_pairs(np.array([1, 2, 3, 3]), 3) == [1]
    assert ref.improper_pairs(np.array([1, 2, 1, 3, 2, 2]), 5) == [1, 2]
    assert ref.improper_pairs(np.array([0, 2, 9, 1]), 3) == [0, 1]


def test_serving_cycle_is_the_first_even_one_in_cache_order(rng):
    nbrs = ref.neighbour_lists(11, ref.grotzsch_edges())
    rows = ref.non_isolated_host_rows(rng, 200, nbrs)
    cycles = [[0, 1, 2, 3, 4], [0, 1, 7, 10, 9], [1, 2, 8, 10, 5]]
    serve = ref.serving_cycles(rows, cycles)
    for f, j in zip(rows.tolist(), serve.tolist()):
        even = [scalar_fixed_points([f[v] for v in cyc]) % 2 == 0 for cyc in cycles]
        assert j == (even.index(True) if True in even else -1)


@pytest.mark.parametrize("cycle", [[0, 1, 2, 3], [0, 1, 2, 3, 5], [0, 1, 2, 1, 0]])
def test_host_checker_rejects_a_cache_entry_that_is_no_odd_host_cycle(tmp_path, rng, cycle):
    nbrs = ref.neighbour_lists(11, ref.grotzsch_edges())
    rows = ref.non_isolated_host_rows(rng, 4, nbrs)
    cache = tmp_path / "cycles.json"
    cache.write_text(json.dumps({"cycles": [cycle]}))
    assert _check_host_call("", 0, rows, cache, nbrs).failed == len(rows)


def test_tail_keeps_samples_beyond():
    xs = [float(i) for i in range(100)]
    assert tail(xs) == (89.0, 90.0, 10)
    assert tail(xs[:20]) == (14.0, 75.0, 5)
    assert tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)


def test_spawner_reports_the_childs_own_peak_rss(tmp_path):
    ballast = bytearray(300 * 2**20)
    ballast[:: 4096] = b"\x01" * len(ballast[:: 4096])
    grow = "b = bytearray(150 * 2**20); b[::4096] = b'\\x01' * len(b[::4096])"
    with Spawner() as sp:
        _, code, small_kb = sp.run([sys.executable, "-c", "pass"], tmp_path / "o", tmp_path / "e")
        _, _, big_kb = sp.run([sys.executable, "-c", grow], tmp_path / "o", tmp_path / "e")
    del ballast
    assert code == 0
    assert small_kb < 100 * 1024
    assert 150 * 1024 < big_kb < 250 * 1024
    assert sp.proc.returncode == 0


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, 10.0],
        ["b", 1.0, 4.0, 0, 3.0],
        ["c", 2.0, 3.0, 1, 1.0],
        ["b", 5.0, 7.0, 0, 2.0],
    ]
    st = self_times(spans)
    assert st["a"] == {"calls": 1, "self_s": 5.0, "incl_s": 10.0}
    assert st["b"] == {"calls": 2, "self_s": 4.0, "incl_s": 5.0}
    assert sum(v["self_s"] for v in st.values()) == 10.0


def test_traced_call_nests_spans_under_cli_main(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 11, "edges": [list(e) for e in ref.grotzsch_edges()]}))
    rows = tmp_path / "rows.jsonl"
    nbrs = ref.neighbour_lists(11, ref.grotzsch_edges())
    row = ref.non_isolated_host_rows(np.random.default_rng(5), 1, nbrs)[0]
    rows.write_text(json.dumps(row.tolist()) + "\n")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", "color",
         "--graph", str(graph), "--input", str(rows)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans.read_text())
    names = [s[0] for s in data["spans"]]
    assert data["missing"] == []
    assert names[:2] == ["import.expocolor", "cli.main"]
    main = names.index("cli.main")
    # is_isolated is called from inside color_in_kh, which cli.main calls
    parents = {data["spans"][s[3]][0] for s in data["spans"] if s[0] == "expo.is_isolated"}
    assert parents and parents <= {"coloring.color_in_kh", "coloring.find_even_cycle"}
    st = self_times(data["spans"][main:])
    total = sum(v["self_s"] for v in st.values())
    assert total == pytest.approx(st["cli.main"]["incl_s"], rel=1e-9)
    assert data["counts"]["cache.misses"] == 1


def test_benchmark_json_matches_what_the_run_reports(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cycle-batch",
             "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycle-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
