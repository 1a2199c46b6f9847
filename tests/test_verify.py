"""The verifiers themselves: green on healthy code, red under injected faults.

The mutation tests patch live module attributes (the verifiers rebuild
their tables from them, and look up the kernel, on every call), corrupt
one ingredient at a time, and assert the relevant reports stop being
clean.  The side comparison is stuck at one branch rather than flipped:
a pure flip merely swaps which endpoint color each side takes and still
produces a proper coloring, so no behavioral oracle can see it.
"""

import contextlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import expocolor
from expocolor import cli, coloring, expo, verify, winding
from expocolor.errors import CapacityError, InvariantViolationError, NoEvenCycleError
from expocolor.graphs import Graph, make_complete, make_cycle, make_grotzsch, save_graph

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"


def test_all_verifiers_green_at_desk_scale():
    assert verify.verify_label_congruences(1).passed
    assert verify.verify_chord_step_identity(1).passed
    assert verify.verify_label_invariance(1, 3).passed
    assert verify.verify_label_invariance(1, 5).passed
    assert verify.verify_little_path_bound(1, 3).passed
    assert verify.verify_little_path_bound(1, 5).passed
    assert verify.verify_proper_coloring_k3(1).passed
    assert verify.verify_proper_ck(1, 5).passed
    assert verify.verify_hitting_set(1).passed
    assert verify.verify_baseline(1).passed
    assert verify.verify_end_to_end(make_complete(4)).passed


def test_report_json_shape():
    rep = verify.verify_label_congruences(1)
    d = rep.to_json_dict()
    assert d["statement"] == "label congruences"
    assert d["passed"] is True
    assert d["checked"] == 27
    assert d["violations"] == []
    assert "wall_time" in d and "details" in d


def test_checked_counts_match_closed_forms():
    # 3^(2n+1) assignments; even class (3^L + 2^(L+1) - 1) / 2
    for n, total, even in ((1, 27, 21), (2, 243, 153), (3, 2187, 1221)):
        rep = verify.verify_label_congruences(n)
        assert rep.checked == total
        assert rep.details["even_class_size"] == even


def test_capacity_errors_carry_requirements():
    with pytest.raises(CapacityError) as err:
        verify.verify_label_congruences(10)
    assert err.value.required == 3**21
    with pytest.raises(CapacityError):
        verify.verify_end_to_end(make_complete(4), cap=10)


@pytest.mark.parametrize("samples", [0, -3])
def test_end_to_end_rejects_empty_samples(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify.verify_end_to_end(make_complete(4), samples=samples)


def test_end_to_end_rejects_three_colorable_hosts():
    with pytest.raises(ValueError, match="chromatic number"):
        verify.verify_end_to_end(make_cycle(5))


def _corrupt_delta3(monkeypatch):
    real = winding.delta3

    def bad(i, j):
        if (i, j) == (1, 2):
            return 0  # should be +1
        return real(i, j)

    monkeypatch.setattr(winding, "delta3", bad)


def _corrupt_delta_k(monkeypatch):
    real = winding.delta_k

    def bad(i, j, k):
        if (j - i) % k == 2:
            return -2  # doubled -1; should be doubled +1, that is 2
        return real(i, j, k)

    monkeypatch.setattr(winding, "delta_k", bad)


def test_corrupt_delta3_detected_by_arithmetic_verifiers(monkeypatch):
    _corrupt_delta3(monkeypatch)
    reports = [
        verify.verify_chord_step_identity(1),
        verify.verify_label_congruences(1),
        verify.verify_label_invariance(1, 3),
        verify.verify_little_path_bound(1, 3),
    ]
    for rep in reports:
        assert not rep.passed
        # assignments print as plain integer tuples, not numpy scalars
        assert not any("np." in v for v in rep.violations), rep.violations[0]


def test_corrupt_delta_k_detected(monkeypatch):
    _corrupt_delta_k(monkeypatch)
    assert not verify.verify_label_invariance(1, 5).passed
    assert not verify.verify_little_path_bound(1, 5).passed
    assert not verify.verify_proper_ck(1, 5).passed


def _corrupt_kernel(monkeypatch):
    real = winding.np_tour

    def bad(fs, ctx):
        ell2, p2, fixed, isolated = real(fs, ctx)
        return ell2 + 2, p2, fixed, isolated & False  # one arc too many, no isolation

    monkeypatch.setattr(winding, "np_tour", bad)


def test_violation_messages_print_half_integers_exactly(monkeypatch):
    # The verifiers hold values doubled; a message prints the value itself,
    # as an integer when it is one and as "d/2" otherwise.
    real = winding.np_tour

    def violations(shift, verifier, *args):
        def shifted(fs, ctx):
            ell2, p2, fixed, isolated = real(fs, ctx)
            return ell2 + shift, p2 + 3, fixed, isolated

        monkeypatch.setattr(winding, "np_tour", shifted)
        return verifier(*args).violations

    congruences = violations(1, verify.verify_label_congruences, 1)
    assert congruences[0] == "label 1/2 not divisible by 3 for f=(1, 1, 1)"
    assert "label -5/2 not divisible by 3 for f=(1, 2, 3)" in congruences
    assert violations(1, verify.verify_label_invariance, 1, 5)[0] == (
        "interleaved tour value 0 does not determine label 1/2 "
        "for f=(1, 1, 1), g=(2, 2, 2)"
    )
    congruences = violations(3, verify.verify_label_congruences, 1)
    assert congruences[0] == "label 3/2 not divisible by 3 for f=(1, 1, 1)"
    congruences = violations(2, verify.verify_label_congruences, 1)
    assert congruences[0] == "label 1 not divisible by 3 for f=(1, 1, 1)"
    assert "label -2 not divisible by 3 for f=(1, 2, 3)" in congruences


def test_corrupt_kernel_detected_by_arithmetic_verifiers(monkeypatch):
    # The scalar Δ stays intact: only the vectorized kernel is wrong.
    _corrupt_kernel(monkeypatch)
    assert not verify.verify_label_congruences(1).passed
    assert not verify.verify_label_invariance(1, 3).passed
    assert not verify.verify_little_path_bound(1, 3).passed
    assert not verify.verify_proper_ck(1, 5).passed


@pytest.mark.parametrize("n, k", [(1, 5), (2, 5), (1, 7), (1, 65)])
def test_table_isolation_matches_is_isolated(n, k):
    # proper-ck's own isolation reference against the per-row allowed sets;
    # the k = 65 grid is thinned to every 97th row
    ctx, rows = verify._sweep_grid(n, k, verify.DEFAULT_CAP)
    host = make_cycle(ctx.length)
    compat = np.zeros((k + 1, k + 1), dtype=bool)
    for x in range(1, k + 1):
        compat[x, x % k + 1] = compat[x % k + 1, x] = True
    rows = rows[:: 97 if k > 9 else 1]
    want = [expo.is_isolated(host, tuple(f), k, cycle_target=True) for f in rows.tolist()]
    assert verify._compat_isolated(host, rows, compat).tolist() == want


def test_table_isolation_stuck_false_detected_by_proper_ck(monkeypatch):
    monkeypatch.setattr(
        verify, "_compat_isolated", lambda host, rows, compat: np.zeros(len(rows), dtype=bool)
    )
    rep = verify.verify_proper_ck(1, 5)
    assert not rep.passed
    assert all("isolation tests disagree" in v for v in rep.violations)


def test_non_adjacent_kernel_pair_detected_by_proper_ck(monkeypatch):
    real = expo.neighbor_pairs

    def bad(h, fs, k, cycle_target=False):
        # prepend the pair (f, f): never adjacent on a cycle codomain
        src, gs = real(h, fs, k, cycle_target)
        return np.concatenate((src[:1], src)), np.concatenate((fs[src[:1]], gs))

    monkeypatch.setattr(expo, "neighbor_pairs", bad)
    rep = verify.verify_proper_ck(1, 5)
    assert not rep.passed
    assert any("non-adjacent" in v for v in rep.violations)


def test_reports_match_recorded_golden(
    tmp_path, capsys, wheel5, moser_spindle, chvatal
):
    # Reports recorded from earlier implementations (the sweeps before
    # neighbor_pairs; the exhaustive end-to-end runs before components
    # came from one BFS over one built graph; hitting-set and baseline
    # before they colored the even class as one row stack), wall_time
    # dropped; every command must reproduce them exactly.  Chvátal is
    # the largest exhaustive host: 3^12 rows, 13,347 of them not isolated.
    golden = json.loads(GOLDEN.read_text())
    hosts = {
        "grotzsch.json": make_grotzsch(),
        "wheel5.json": wheel5,
        "moser_spindle.json": moser_spindle,
        "chvatal.json": chvatal,
    }
    for name, host in hosts.items():
        save_graph(host, tmp_path / name)
    out = tmp_path / "reports.jsonl"
    for command, want in golden.items():
        argv = [
            str(tmp_path / arg) if arg in hosts else arg for arg in shlex.split(command)
        ]
        assert cli.main(argv + ["--out", str(out)]) == 0, command
        got = [json.loads(line) for line in out.read_text().splitlines()]
        for report in got:
            report.pop("wall_time")
        assert got == want, command
    capsys.readouterr()


def _cli_pairs_colored_alike(monkeypatch, n: int = 2) -> int:
    """``expocolor color`` on every even-class row of C_{2n+1}, each sent
    next to one of its neighbours: the number of pairs colored alike."""
    ctx = winding.OddCycleCtx.make(n, 3)
    host = make_cycle(ctx.length)
    rows = expo.full_grid(host, 3, verify.DEFAULT_CAP)
    even = rows[winding.np_tour(rows, ctx)[2] % 2 == 0]
    src, nbrs = expo.neighbor_pairs(host, even, 3, False)
    pairs = np.stack((even[src], nbrs), axis=1).reshape(-1, ctx.length)
    payload = "".join(json.dumps(row) + "\n" for row in pairs.tolist())
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload.encode())))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["color", "--n", str(n)]) == 0
    colors = np.array([json.loads(line)["color"] for line in out.getvalue().splitlines()])
    assert len(colors) == len(pairs)
    return int(np.count_nonzero(colors[0::2] == colors[1::2]))


def test_cli_colors_interleaved_neighbour_pairs_properly(monkeypatch):
    assert _cli_pairs_colored_alike(monkeypatch) == 0


def _sampled_pairs_colored_alike() -> int:
    rep = verify.verify_end_to_end(make_grotzsch(), samples=300, seed=0)
    alike = [v for v in rep.violations if v.startswith("sampled adjacent pair")]
    assert len(alike) == len(rep.violations)
    return len(alike)


def test_stuck_side_comparison_detected(monkeypatch):
    monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: -1)
    assert not verify.verify_proper_coloring_k3(1).passed
    assert not verify.verify_hitting_set(1).passed
    assert not verify.verify_end_to_end(make_complete(4)).passed
    assert _sampled_pairs_colored_alike() > 0
    assert _cli_pairs_colored_alike(monkeypatch) > 0


def test_stuck_side_comparison_detected_other_branch(monkeypatch):
    monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: 1)
    assert not verify.verify_proper_coloring_k3(1).passed
    assert not verify.verify_hitting_set(1).passed
    assert _sampled_pairs_colored_alike() > 0
    assert _cli_pairs_colored_alike(monkeypatch) > 0


def _coloring_failures(rep) -> list[str]:
    failed = [v for v in rep.violations if v.startswith("coloring failed")]
    assert all("little path equals half the label" in v for v in failed)
    return failed


def test_sweeps_report_every_row_the_batch_cannot_color(monkeypatch):
    # A side comparison stuck on ell/2 fails every distinct-endpoint row:
    # each is reported, and the stack resumes after it, so the
    # equal-endpoint rows still get colors.
    monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: 0)
    rep = verify.verify_proper_coloring_k3(1)
    failed = _coloring_failures(rep)
    assert 0 < rep.details["colored"] == rep.details["even_class_size"] - len(failed)
    rep = verify.verify_proper_ck(1, 5)
    assert 0 < len(_coloring_failures(rep)) < rep.details["even_nonisolated"]
    assert rep.details["pairs"] > 0
    # the hitting-set remainder holds distinct-endpoint rows only: every
    # one is reported, and so is every edge, as joining two uncolored rows
    rep = verify.verify_hitting_set(1)
    assert len(_coloring_failures(rep)) == rep.details["remainder_size"] > 0
    edges = [v for v in rep.violations if v.startswith("remainder edge")]
    assert len(edges) == rep.details["remainder_edges"]
    assert all(v.endswith("both None") for v in edges)


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify.verify_hitting_set(3),
        lambda: verify.verify_proper_coloring_k3(2),
        lambda: verify.verify_proper_ck(2, 5),
    ],
    ids=["hitting_set", "proper_k3", "proper_ck"],
)
def test_sweep_makes_one_kernel_pass_however_many_rows_fail(run, monkeypatch):
    # With the side comparison stuck on ell/2 every distinct-endpoint row
    # fails; the sweep resumes the decision after each one from the same
    # kernel outputs instead of running the kernel again on the rest.
    monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: 0)
    calls = []
    real = winding.np_tour

    def counted(fs, ctx):
        calls.append(np.shape(fs))
        return real(fs, ctx)

    monkeypatch.setattr(winding, "np_tour", counted)
    monkeypatch.setattr(coloring, "np_tour", counted)
    rep = run()
    failed = _coloring_failures(rep)
    assert len(calls) <= 2 < len(failed), (calls, len(failed))


def test_corrupt_bipartition_detected_by_baseline(monkeypatch):
    monkeypatch.setattr(
        coloring,
        "bipartition",
        lambda g: (frozenset(range(g.vertex_count)), frozenset()),
    )
    assert not verify.verify_baseline(1).passed


def test_violations_are_truncated_but_counted(monkeypatch):
    _corrupt_delta3(monkeypatch)
    rep = verify.verify_chord_step_identity(2)
    assert not rep.passed
    assert len(rep.violations) <= 50
    if rep.details.get("violations_truncated"):
        assert rep.details["violation_total"] > len(rep.violations)


def test_verifier_reports_are_deterministic():
    a = verify.verify_proper_coloring_k3(1)
    b = verify.verify_proper_coloring_k3(1)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("wall_time"), db.pop("wall_time")
    assert da == db


# -- pinned fault reports -----------------------------------------------------
#
# Each fault below breaks one ingredient of the even-class checks, and the
# full hitting-set and baseline reports it produces (wall_time dropped), or
# the message of what they raise, were recorded from an implementation that
# colored and checked the even class one vertex at a time.  Together with the
# direct calls of color_graph_baseline, they reach every violation and guard
# of those checks, so the row-stack rewrite must replay them exactly.  The
# file maps every FAULT_CASES name to its fault_outcome (run under a fresh
# pytest.MonkeyPatch), written with json.dumps(indent=1, sort_keys=True).

FAULT_GOLDEN = Path(__file__).parent / "data" / "verify_fault_golden.json"


def _stuck_side(side):
    def install(monkeypatch):
        monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: side)

    return install


def _remap_branches(positions):
    """A decision whose branch positions go through ``positions``; colors
    are untouched (0 EqualEndpoints, 1 BelowHalf, 2 AboveHalf)."""

    def install(monkeypatch):
        real = coloring._decide

        def bad(*args):
            res = real(*args)
            return res._replace(branch=np.array(positions, dtype=np.int64)[res.branch])

        monkeypatch.setattr(coloring, "_decide", bad)

    return install


def _no_bipartition(module):
    def install(monkeypatch):
        monkeypatch.setattr(module, "bipartition", lambda g: None)

    return install


def _drop_first_distinct_endpoint_row(monkeypatch):
    real = coloring.even_class_subgraph

    def bad(n, cap=verify.DEFAULT_CAP):
        ke = real(n, cap=cap)
        ctx = winding.OddCycleCtx.make(n, 3)
        rows = np.array(ke.vertices)
        first = np.flatnonzero(rows[:, ctx.a] != rows[:, ctx.b])[0]
        return expo.ExpoGraph.from_rows(
            ke.host, ke.k, ke.cycle_target, np.delete(rows, first, axis=0)
        )

    monkeypatch.setattr(coloring, "even_class_subgraph", bad)


def _no_fixed_points(monkeypatch):
    real = coloring.np_tour

    def bad(fs, ctx):
        ell2, p2, fixed, isolated = real(fs, ctx)
        return ell2, p2, fixed * 0, isolated

    monkeypatch.setattr(coloring, "np_tour", bad)


def _edit_baseline(edit):
    """A color_graph_baseline whose result ``edit(ke, ctx, colors)`` changes."""

    def install(monkeypatch):
        real = coloring.color_graph_baseline

        def bad(ke, ctx):
            colors = real(ke, ctx)
            edit(ke, ctx, colors)
            return colors

        monkeypatch.setattr(coloring, "color_graph_baseline", bad)

    return install


def _color_first_vertex_four(ke, ctx, colors):
    colors[ke.vertices[0]] = 4


def _uncolor_first_vertex(ke, ctx, colors):
    del colors[ke.vertices[0]]


def _color_first_edge_alike(ke, ctx, colors):
    i, j = ke.to_graph().edges()[0]
    colors[ke.vertices[j]] = colors[ke.vertices[i]]


def _recolor_first_equal_endpoint_row(ke, ctx, colors):
    f = next(f for f in ke.vertices if f[ctx.a] == f[ctx.b])
    colors[f] = colors[f] % 3 + 1


_FAULTS = {
    "healthy": lambda monkeypatch: None,
    "side stuck below": _stuck_side(-1),
    "side stuck above": _stuck_side(1),
    "equal-endpoint and below-half branches swapped": _remap_branches((1, 0, 2)),
    "every branch equal-endpoint": _remap_branches((0, 0, 0)),
    "verify.bipartition finds none": _no_bipartition(verify),
    "coloring.bipartition finds none": _no_bipartition(coloring),
    "even class loses a distinct-endpoint row": _drop_first_distinct_endpoint_row,
    "np_tour counts no fixed points": _no_fixed_points,
    "baseline colors the first vertex 4": _edit_baseline(_color_first_vertex_four),
    "baseline leaves the first vertex uncolored": _edit_baseline(_uncolor_first_vertex),
    "baseline colors the first edge alike": _edit_baseline(_color_first_edge_alike),
    "baseline recolors an equal-endpoint row": _edit_baseline(
        _recolor_first_equal_endpoint_row
    ),
}


def _baseline_call(ke, n):
    def call():
        colors = coloring.color_graph_baseline(ke(), winding.OddCycleCtx.make(n, 3))
        return sorted([list(f), c] for f, c in colors.items())

    return call


def _relabelled_c5():
    # a 5-cycle whose edges are not (i, i+1)
    return Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])


_BASELINE_GUARDS = {
    "cycle codomain": _baseline_call(
        lambda: expo.build_exponential(make_cycle(3), 3, cycle_target=True), 1
    ),
    "five-color context": lambda: coloring.color_graph_baseline(
        coloring.even_class_subgraph(1), winding.OddCycleCtx.make(1, 5)
    ),
    "context for a longer cycle": _baseline_call(
        lambda: coloring.even_class_subgraph(1), 2
    ),
    "host not the context's cycle": _baseline_call(
        lambda: expo.build_exponential(_relabelled_c5(), 3), 2
    ),
    "odd-parity vertex": _baseline_call(
        lambda: expo.build_exponential(make_cycle(3), 3), 1
    ),
    "colors n=1": _baseline_call(lambda: coloring.even_class_subgraph(1), 1),
    "colors n=2": _baseline_call(lambda: coloring.even_class_subgraph(2), 2),
}


def _fault_cases():
    cases = {}
    for fault, install in _FAULTS.items():
        for verifier in (verify.verify_hitting_set, verify.verify_baseline):
            for n in (1, 2):
                cases[f"{fault} / {verifier.__name__}({n})"] = (
                    install,
                    lambda verifier=verifier, n=n: verifier(n),
                )
    for guard, call in _BASELINE_GUARDS.items():
        cases[f"healthy / color_graph_baseline: {guard}"] = (_FAULTS["healthy"], call)
    # the guard on a remainder that is not bipartite
    fault = "coloring.bipartition finds none"
    cases[f"{fault} / color_graph_baseline: colors n=1"] = (
        _FAULTS[fault],
        _BASELINE_GUARDS["colors n=1"],
    )
    return cases


FAULT_CASES = _fault_cases()


def fault_outcome(name, monkeypatch):
    """The report of one pinned case, wall_time dropped, or what it raised."""
    install, call = FAULT_CASES[name]
    install(monkeypatch)
    try:
        got = call()
    except Exception as exc:
        return {"raises": f"{type(exc).__name__}: {exc}"}
    if isinstance(got, verify.VerificationReport):
        got = got.to_json_dict()
        got.pop("wall_time")
    return got


def test_fault_cases_match_the_recording():
    assert sorted(FAULT_CASES) == sorted(json.loads(FAULT_GOLDEN.read_text()))


@pytest.mark.parametrize("name", sorted(FAULT_CASES))
def test_fault_reports_match_recorded(name, monkeypatch):
    want = json.loads(FAULT_GOLDEN.read_text())[name]
    assert fault_outcome(name, monkeypatch) == want


# -- end-to-end on row stacks -------------------------------------------------


def _sampled(host, samples, seed):
    """Sampled mode's rows f, their neighbors g and its draw count."""
    return verify._sample_pairs(host, random.Random(seed), samples)


def test_sampled_rows_are_the_first_non_isolated_candidates(grotzsch):
    fs, gs, draws = _sampled(grotzsch, 300, seed=5)
    assert not any(expo.is_isolated(grotzsch, f, 3) for f in fs.tolist())
    # the candidate stream, replayed: draws ends at the last row kept
    rng, nv, candidates = random.Random(5), grotzsch.vertex_count, []
    while len(candidates) < draws:
        block = verify._uniform3(rng, verify._DRAW_ENTRIES // nv * nv) + 1
        candidates += block.reshape(-1, nv).tolist()
    kept = [f for f in candidates[:draws] if not expo.is_isolated(grotzsch, f, 3)]
    assert kept == fs.tolist() and kept[-1] == candidates[draws - 1]
    rep = verify.verify_end_to_end(grotzsch, samples=300, seed=5)
    assert rep.passed and rep.details["draws"] == draws and rep.details["pairs"] == 300


def test_sampled_neighbors_are_adjacent_on_every_host_edge(grotzsch, chvatal):
    # checked against the definition, not through expo.allowed_masks
    for h in (grotzsch, chvatal):
        fs, gs, _ = _sampled(h, 2000, seed=4)
        for u, v in h.edges():
            assert np.all(fs[:, u] != gs[:, v]) and np.all(gs[:, u] != fs[:, v])
        assert gs.min() >= 1 and gs.max() <= 3


def test_ten_thousand_k4_samples_cover_k4_evenly(k4):
    fs, gs, _ = _sampled(k4, 10**4, seed=0)
    grid = expo.assignment_grid(4, 3)
    src, nbrs = expo.neighbor_pairs(k4, grid, 3)
    pairs = set(zip(map(tuple, grid[src].tolist()), map(tuple, nbrs.tolist())))
    degree = Counter(f for f, _ in pairs)
    rows = Counter(map(tuple, fs.tolist()))
    drawn = Counter(zip(map(tuple, fs.tolist()), map(tuple, gs.tolist())))
    assert set(rows) == set(degree) and len(rows) == 45  # every non-isolated row
    assert set(drawn) == pairs  # and every ordered adjacent pair
    # chi-square statistics against uniform rows and uniform neighbors,
    # each below its degrees of freedom plus six standard deviations
    expect = 10**4 / len(rows)
    chi_rows = sum((c - expect) ** 2 / expect for c in rows.values())
    chi_nbrs = sum(
        (drawn[p] - rows[p[0]] / degree[p[0]]) ** 2 / (rows[p[0]] / degree[p[0]])
        for p in pairs
    )
    for chi, dof in ((chi_rows, len(rows) - 1), (chi_nbrs, len(pairs) - len(rows))):
        assert chi < dof + 6 * math.sqrt(2 * dof), (chi, dof)


def _one_row_loop(host, stack):
    """color_in_kh on each row in turn from an empty cache, going on past
    each row that raises: the colors (0 where a row raised), the failures
    as (row, message), and the cache's cycles."""
    cache, colors, failed = coloring.CycleCache(), [0] * len(stack), []
    for r, f in enumerate(stack.tolist()):
        try:
            verdict, cache = coloring.color_in_kh(host, f, cache)
        except (NoEvenCycleError, InvariantViolationError) as exc:
            failed.append((r, str(exc)))
            continue
        colors[r] = verdict.color
    return colors, failed, [cyc.vertices for cyc, _ in cache]


@pytest.mark.parametrize("fault", ["none", "side stuck on l/2"])
@pytest.mark.parametrize("name", ["grotzsch", "moser_spindle", "chvatal"])
def test_stack_coloring_equals_the_one_row_loop(name, fault, request, monkeypatch):
    # sampled mode's stack of (f, g) pairs: a failing f no longer takes
    # its partner g with it, so g is colored, or reported if it fails
    h = request.getfixturevalue(name)
    fs, gs, _ = _sampled(h, 150, seed=2)
    stack = np.stack((fs, gs), axis=1).reshape(-1, h.vertex_count)  # f0, g0, f1, ...
    if fault != "none":
        monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: 0)
    res, cache = coloring.color_rows_in_kh(h, stack)
    colors, failed, cycles = _one_row_loop(h, stack)
    assert res.color.tolist() == colors
    assert list(zip(res.failed.tolist(), map(str, res.errors))) == failed
    assert [cyc.vertices for cyc, _ in cache] == cycles
    assert (len(failed) > 0) == (fault != "none")
    if fault != "none":  # some g is reported after its f
        rows = {r for r, _ in failed}
        assert any(r % 2 and r - 1 in rows for r in rows)


@pytest.mark.parametrize(
    "name, run, total",
    [
        # the totals that a run resuming after each failing row reported
        ("wheel5", lambda h: verify.verify_end_to_end(h), 96),
        ("chvatal", lambda h: verify.verify_end_to_end(h), 6630),
        ("grotzsch", lambda h: verify.verify_end_to_end(h, samples=300, seed=1), None),
    ],
)
def test_faulty_end_to_end_makes_one_pipeline_call(name, run, total, request, monkeypatch):
    # With the side comparison stuck on ell/2 every distinct-endpoint row
    # fails; the whole run is still one color_rows_in_kh call.
    h = request.getfixturevalue(name)
    monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: 0)
    calls = []
    real = coloring.color_rows_in_kh

    def counted(host, fs, cache=None):
        calls.append(len(fs))
        return real(host, fs, cache)

    monkeypatch.setattr(coloring, "color_rows_in_kh", counted)
    rep = run(h)
    if total is None:  # sampled: every row of the (f, g) stack that fails
        fs, gs, _ = _sampled(h, 300, seed=1)
        total = len(_one_row_loop(h, np.stack((fs, gs), axis=1).reshape(-1, h.vertex_count))[1])
        assert calls == [600]
    assert len(calls) == 1
    assert rep.details["violation_total"] == total


def _failing_search(monkeypatch, count, error):
    """A search for a fresh even cycle (what find_even_cycle and every
    cache miss run) that raises ``error`` for the first ``count`` rows
    reaching it; returns the list of rows that reached it."""
    real, reached = coloring._even_cycle_search, []

    def bad(h, f):
        reached.append(tuple(f))
        if len(reached) <= count:
            raise error("patched search found nothing")
        return real(h, f)

    monkeypatch.setattr(coloring, "_even_cycle_search", bad)
    return reached


@pytest.mark.parametrize("error", [NoEvenCycleError, InvariantViolationError])
def test_failing_search_is_one_violation_per_row_in_both_modes(error, monkeypatch, wheel5):
    for run, host, what, lost in (
        (lambda h: verify.verify_end_to_end(h), wheel5, ("", "", ""), 0),
        # sampled mode's stack starts f0, g0, f1: the three rows that reach
        # the search first, so the first two pairs are lost
        (
            lambda h: verify.verify_end_to_end(h, samples=300, seed=1),
            make_grotzsch(),
            ("", "sampled neighbor ", ""),
            2,
        ),
    ):
        healthy = run(host).to_json_dict()
        reached = _failing_search(monkeypatch, 3, error)
        rep = run(host)
        monkeypatch.undo()
        failed = reached[:3]
        assert len(set(failed)) == 3 and len(reached) == 3 + healthy["details"]["cache_cycles"]
        assert rep.violations == [
            f"pipeline failed on {w}{f}: patched search found nothing"
            for w, f in zip(what, failed)
        ]
        # the run goes on past them: only the failing rows' pairs are lost
        got = rep.to_json_dict()
        assert got["details"]["pairs"] == healthy["details"]["pairs"] - lost
        got["details"]["pairs"] = healthy["details"]["pairs"]
        assert {**got, "violations": [], "passed": True, "wall_time": 0} == {
            **healthy, "wall_time": 0
        }


def test_verify_path_loads_neither_numpy_ma_nor_numpy_random(tmp_path):
    graph = tmp_path / "grotzsch.json"
    save_graph(make_grotzsch(), graph)
    code = f"""
import contextlib, io, sys
from expocolor import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["verify", "all", "--n", "2"]) == 0
    assert cli.main(["verify", "all", "--n", "2", "--k", "5"]) == 0
    argv = ["verify", "end-to-end", "--graph", {str(graph)!r}, "--samples", "50"]
    assert cli.main(argv) == 0
print(sorted(m for m in sys.modules if m.split(".")[:2] in (["numpy", "ma"], ["numpy", "random"])))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(expocolor.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
