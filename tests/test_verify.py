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
import shlex
from pathlib import Path

import numpy as np
import pytest

from expocolor import cli, coloring, expo, verify, winding
from expocolor.errors import CapacityError
from expocolor.graphs import make_complete, make_cycle, make_grotzsch, save_graph
from expocolor.winding import Half

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
            return Half(-2)  # should be +1
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


def test_corrupt_kernel_detected_by_arithmetic_verifiers(monkeypatch):
    # The scalar Δ stays intact: only the vectorized kernel is wrong.
    _corrupt_kernel(monkeypatch)
    assert not verify.verify_label_congruences(1).passed
    assert not verify.verify_label_invariance(1, 3).passed
    assert not verify.verify_little_path_bound(1, 3).passed
    assert not verify.verify_proper_ck(1, 5).passed


def test_is_isolated_stuck_false_detected_by_proper_ck(monkeypatch):
    monkeypatch.setattr(verify, "is_isolated", lambda *args, **kwargs: False)
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


def test_reports_match_recorded_golden(tmp_path, capsys, wheel5, moser_spindle):
    # Reports recorded from earlier implementations (the sweeps before
    # neighbor_pairs; the exhaustive end-to-end runs before components
    # came from one BFS over one built graph), wall_time dropped; every
    # command must reproduce them exactly.
    golden = json.loads(GOLDEN.read_text())
    hosts = {
        "grotzsch.json": make_grotzsch(),
        "wheel5.json": wheel5,
        "moser_spindle.json": moser_spindle,
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


def test_stuck_side_comparison_detected(monkeypatch):
    monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: -1)
    assert not verify.verify_proper_coloring_k3(1).passed
    assert not verify.verify_hitting_set(1).passed
    assert not verify.verify_end_to_end(make_complete(4)).passed
    assert _cli_pairs_colored_alike(monkeypatch) > 0


def test_stuck_side_comparison_detected_other_branch(monkeypatch):
    monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: 1)
    assert not verify.verify_proper_coloring_k3(1).passed
    assert not verify.verify_hitting_set(1).passed
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
