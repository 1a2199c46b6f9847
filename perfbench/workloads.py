"""The four workloads: seeded inputs, one round of CLI calls, and checks.

A workload writes its inputs into a work directory and describes one
*round*: a fixed list of CLI calls made one after another.  Rounds
repeat with the same inputs, so anything the program counts repeats
exactly from round to round.  Each call carries a check that reads the
call's standard output (and, on a general host, the cache file the call
left) and returns how many operations were attempted, how many failed
and how many items of work were done.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# One row plus its sampled neighbour make a pair; rows are sent interleaved.
BATCH_N = 50  # cycle-batch host C_101
BATCH_PAIRS_K3 = 1000
BATCH_PAIRS_K5 = 300
HOST_PAIRS = 500  # per call; two calls per host-grotzsch round
LARGE_N = 10**6  # cycle-large host C_2000001
VERIFY_SAMPLES = 300
# Set-up probes per run where set-up is a fraction of a second; the host's
# speed jumps between spells, and more probes make the median less
# dependent on which spell each one hit.
SETUP_REPS = 11


@dataclass
class Outcome:
    attempted: int
    failed: int
    items: int
    problems: list[str] = field(default_factory=list)


@dataclass
class Call:
    args: list[str]
    check: Callable[[str, int], Outcome]


@dataclass
class Workload:
    calls: list[Call]
    setup_code: str  # runs after ``import expocolor`` in a fresh interpreter
    setup_reps: int
    reset: Callable[[], None] = lambda: None


def _write_rows(path: Path, rows: np.ndarray) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows.tolist()))


def _json_lines(stdout: str) -> list:
    out = []
    for line in stdout.splitlines():
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            out.append(None)
    return out


def _check_rows(
    stdout: str, code: int, expected: dict, k: int, paired: bool
) -> Outcome:
    """Compare each verdict with the reference; for pairs also the colours."""
    rows = len(expected["color"])
    if code != 0:
        return Outcome(rows, rows, 0, [f"exit code {code}"])
    verdicts = _json_lines(stdout)
    if len(verdicts) != rows:
        return Outcome(rows, rows, 0, [f"{len(verdicts)} verdicts for {rows} rows"])
    bad = set(ref.mismatches(verdicts, expected))
    problems = [f"row {i}: got {verdicts[i]}" for i in sorted(bad)[:3]]
    if paired:
        colours = np.array(
            [v["color"] if isinstance(v, dict) and type(v.get("color")) is int else 0 for v in verdicts]
        )
        for j in ref.improper_pairs(colours, k):
            bad.update((2 * j, 2 * j + 1))
            problems.append(f"pair {j} coloured {colours[2 * j]}, {colours[2 * j + 1]}")
    return Outcome(rows, len(bad), rows - len(bad), problems[:5])


def _seeded_edge(rng: np.random.Generator, length: int) -> tuple[int, int]:
    x = int(rng.integers(length))
    y = (x + 1) % length
    return (x, y) if rng.integers(2) else (y, x)


def cycle_large(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    length = 2 * LARGE_N + 1
    f = ref.even_k3_rows(rng, 1, length)
    edge = _seeded_edge(rng, length)
    expected = ref.reference_verdicts(f, 3, *ref.orient_edge(*edge, length))
    path = work / "large.json"
    path.write_text(json.dumps(f[0].tolist()))
    edge_arg = f"{edge[0]},{edge[1]}"

    def check(stdout: str, code: int) -> Outcome:
        out = _check_rows(stdout, code, expected, 3, paired=False)
        out.items = length * (out.attempted - out.failed)
        return out

    return Workload(
        [Call(["color", "--n", str(LARGE_N), "--edge", edge_arg, "--input", str(path)], check)],
        setup_code=(
            "from expocolor.winding import OddCycleCtx\n"
            f"OddCycleCtx.make({LARGE_N}, 3, {edge})"
        ),
        setup_reps=3,
    )


def cycle_batch(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    length = 2 * BATCH_N + 1
    edge = _seeded_edge(rng, length)
    a, b = ref.orient_edge(*edge, length)
    edge_arg = f"{edge[0]},{edge[1]}"
    calls = []
    for k, pairs, rows in (
        (3, BATCH_PAIRS_K3, ref.even_k3_rows(rng, BATCH_PAIRS_K3, length)),
        (5, BATCH_PAIRS_K5, ref.even_ck_rows(rng, BATCH_PAIRS_K5, length, 5)),
    ):
        rows = ref.interleave(rows, ref.draw_neighbours(rng, ref.cycle_allowed(rows, k)))
        expected = ref.reference_verdicts(rows, k, a, b)
        path = work / f"batch-k{k}.jsonl"
        _write_rows(path, rows)
        calls.append(
            Call(
                ["color", "--n", str(BATCH_N), "--k", str(k), "--edge", edge_arg,
                 "--input", str(path)],
                lambda stdout, code, e=expected, k=k: _check_rows(stdout, code, e, k, True),
            )
        )
    return Workload(
        calls,
        setup_code=(
            "from expocolor.winding import OddCycleCtx\n"
            f"OddCycleCtx.make({BATCH_N}, 3, {edge})\n"
            f"OddCycleCtx.make({BATCH_N}, 5, {edge})"
        ),
        setup_reps=SETUP_REPS,
    )


def _write_grotzsch(work: Path) -> tuple[Path, list[list[int]]]:
    edges = ref.grotzsch_edges()
    path = work / "grotzsch.json"
    path.write_text(json.dumps({"n": 11, "edges": [list(e) for e in edges]}))
    return path, ref.neighbour_lists(11, edges)


def _check_host_call(
    stdout: str, code: int, rows: np.ndarray, cache_path: Path, nbrs: list[list[int]]
) -> Outcome:
    """Recover each row's serving cycle from the cache file, then check it."""
    try:
        cycles = json.loads(cache_path.read_text())["cycles"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(len(rows), len(rows), 0, [f"cache file unreadable: {exc}"])
    for cyc in cycles:
        closed = list(zip(cyc, cyc[1:] + cyc[:1]))
        if len(cyc) % 2 == 0 or len(set(cyc)) != len(cyc) or any(
            v not in nbrs[u] for u, v in closed
        ):
            return Outcome(len(rows), len(rows), 0, [f"{cyc} is not an odd host cycle"])
    serve = ref.serving_cycles(rows, cycles)
    expected = {
        "color": np.zeros(len(rows), np.int64),
        "branch": np.full(len(rows), -1),
        "ell2": np.zeros(len(rows), np.int64),
        "p2": np.zeros(len(rows), np.int64),
    }
    for j in set(serve.tolist()) - {-1}:
        idx = np.nonzero(serve == j)[0]
        length = len(cycles[j])
        sub = ref.reference_verdicts(rows[idx][:, cycles[j]], 3, *ref.orient_edge(0, length - 1, length))
        for key in expected:
            expected[key][idx] = sub[key]
    return _check_rows(stdout, code, expected, 3, paired=True)


def host_grotzsch(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    graph, nbrs = _write_grotzsch(work)
    cache = work / "cycles.json"
    calls = []
    for part in ("a", "b"):
        rows = ref.non_isolated_host_rows(rng, HOST_PAIRS, nbrs)
        rows = ref.interleave(rows, ref.draw_neighbours(rng, ref.host_allowed(rows, nbrs)))
        path = work / f"host-{part}.jsonl"
        _write_rows(path, rows)
        calls.append(
            Call(
                ["color", "--graph", str(graph), "--cache", str(cache), "--input", str(path)],
                lambda stdout, code, r=rows: _check_host_call(stdout, code, r, cache, nbrs),
            )
        )
    return Workload(
        calls,
        setup_code=f"from expocolor.graphs import load_graph\nload_graph({str(graph)!r})",
        setup_reps=SETUP_REPS,
        reset=lambda: cache.unlink(missing_ok=True),
    )


def _verify_check(seen: dict):
    """Every report must pass, with the same checked counts in every round."""

    def check(stdout: str, code: int) -> Outcome:
        reports = _json_lines(stdout)
        counts = [
            (json.dumps([r.get("statement"), r.get("params")]), r.get("checked"))
            if isinstance(r, dict) else (None, None)
            for r in reports
        ]
        expected = seen.setdefault("counts", counts)
        attempted = max(len(expected), len(counts), 1)
        if code != 0 or not reports:
            return Outcome(attempted, attempted, 0, [f"exit code {code}, {len(reports)} reports"])
        failed = attempted - len(counts)
        problems = []
        for r, got, want in zip(reports, counts, expected + [None] * len(counts)):
            if not isinstance(r, dict) or r.get("passed") is not True or got != want or not got[1]:
                failed += 1
                passed = r.get("passed") if isinstance(r, dict) else None
                problems.append(f"report {got} (expected {want}) passed={passed}")
        checked = sum(c for _, c in counts if isinstance(c, int))
        return Outcome(attempted, failed, checked, problems[:5])

    return check


def verify_sweep(seed: int, work: Path) -> Workload:
    graph, _ = _write_grotzsch(work)
    suites = (
        ["all", "--n", "3"],
        ["proper-ck", "--n", "2", "--k", "5"],
        ["end-to-end", "--graph", str(graph), "--samples", str(VERIFY_SAMPLES),
         "--seed", str(seed)],
    )
    return Workload(
        [Call(["verify", *suite, "--threads", "1"], _verify_check({})) for suite in suites],
        setup_code=f"from expocolor.graphs import load_graph\nload_graph({str(graph)!r})",
        setup_reps=SETUP_REPS,
    )


WORKLOADS = {
    "cycle-large": cycle_large,
    "cycle-batch": cycle_batch,
    "host-grotzsch": host_grotzsch,
    "verify-sweep": verify_sweep,
}
