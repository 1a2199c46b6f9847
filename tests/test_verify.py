"""The verifiers themselves: green on healthy code, red under injected faults.

The mutation tests patch live module attributes (the verifiers rebuild
their tables from them, and look up the kernel, on every call), corrupt
one ingredient at a time, and assert the relevant reports stop being
clean.  The side comparison is stuck at one branch rather than flipped:
a pure flip merely swaps which endpoint color each side takes and still
produces a proper coloring, so no behavioral oracle can see it.
"""

import pytest

from expocolor import coloring, verify, winding
from expocolor.errors import CapacityError
from expocolor.graphs import make_complete, make_cycle
from expocolor.winding import Half


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
    assert not verify.verify_chord_step_identity(1).passed
    assert not verify.verify_label_congruences(1).passed
    assert not verify.verify_label_invariance(1, 3).passed
    assert not verify.verify_little_path_bound(1, 3).passed


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


def test_stuck_side_comparison_detected(monkeypatch):
    monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: -1)
    assert not verify.verify_proper_coloring_k3(1).passed
    assert not verify.verify_hitting_set(1).passed
    assert not verify.verify_end_to_end(make_complete(4)).passed


def test_stuck_side_comparison_detected_other_branch(monkeypatch):
    monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: 1)
    assert not verify.verify_proper_coloring_k3(1).passed
    assert not verify.verify_hitting_set(1).passed


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
