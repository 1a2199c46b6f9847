"""Replays a recorded corpus of ``expocolor color`` calls byte for byte.

``tests/data/color_golden.json`` holds, for each call, the argv, the
standard input, how that input reaches the program, and the standard
output, standard error and exit code it gave when recorded.  The input
reaches the CLI in one of four ways:

* ``text``: ``sys.stdin`` is a ``StringIO``, as the other CLI tests patch it;
* ``bytes``: ``sys.stdin`` is a text wrapper over a byte buffer, as a real
  standard input is;
* ``file``: the input is written to a file passed with ``--input``;
* ``process``: a child ``python -m expocolor.cli`` reads it from a pipe.

``{tmp}`` in an argv stands for a directory holding the host graphs
``k4.json`` (the complete graph on four vertices), ``grotzsch.json`` and
``moser.json`` (the Moser spindle of ``hosts.py``), and the cycle caches of
:data:`CACHES`.  The directory is reset before every call, so a call that
passes ``--cache`` starts from the recorded file (or from none, for
``{tmp}/fresh.json``); the file it leaves behind is recorded as
``cache`` and replayed too.  Re-record with
``PYTHONPATH=src python tests/test_color_golden.py`` only when a change
to the recorded behaviour is intended.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import expocolor
from expocolor import cli
from expocolor.cli import main
from expocolor.expo import is_isolated
from expocolor.graphs import make_complete, make_grotzsch, save_graph
from expocolor.winding import OddCycleCtx, in_even_class, np_tour
from hosts import MOSER, host_rows, isolated_row

GOLDEN = Path(__file__).parent / "data" / "color_golden.json"
MODES = ("text", "bytes", "file")

# Cycle-cache files in ``{tmp}``: odd cycles of the hosts, and cycles that
# are not host cycles (a missing edge, a vertex the host lacks).
GROTZSCH_CYCLES = [[0, 1, 2, 3, 4], [0, 1, 5, 10, 6], [0, 4, 3, 2, 6]]
MOSER_CYCLES = [[1, 2, 3], [0, 4, 5], [0, 1, 3, 6, 4]]
CACHES = {
    "grotzsch-cycles.json": GROTZSCH_CYCLES,
    "moser-cycles.json": MOSER_CYCLES,
    "moser-reversed.json": MOSER_CYCLES[::-1],
    "moser-bad.json": [MOSER_CYCLES[0], [0, 1, 6], [0, 1, 20]],
    "grotzsch-bad.json": [GROTZSCH_CYCLES[0], [0, 1, 2], [0, 1, 20]],
    "grotzsch-bad-first.json": [[0, 1, 20], GROTZSCH_CYCLES[0]],
}


def _run(argv: list[str], stdin: str, mode: str, tmp: Path) -> dict:
    """One CLI call from a fresh ``{tmp}``; its stdout, stderr and exit
    code, and the cache file it leaves when it is passed ``--cache``."""
    _host_dir(tmp)
    result = _call([arg.replace("{tmp}", str(tmp)) for arg in argv], stdin, mode, tmp)
    if "--cache" in argv:
        cache = Path(argv[argv.index("--cache") + 1].replace("{tmp}", str(tmp)))
        result["cache"] = cache.read_text() if cache.exists() else None
    return result


def _call(argv: list[str], stdin: str, mode: str, tmp: Path) -> dict:
    if mode == "process":
        src = str(Path(expocolor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "expocolor.cli", *argv],
            input=stdin.encode(),
            capture_output=True,
            env=env,
        )
        return {
            "stdout": proc.stdout.decode(),
            "stderr": proc.stderr.decode(),
            "exit": proc.returncode,
        }
    if mode == "file":
        path = tmp / "rows.txt"
        path.write_bytes(stdin.encode())
        argv += ["--input", str(path)]
        stream = io.StringIO("")
    elif mode == "text":
        stream = io.StringIO(stdin)
    else:
        stream = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8", newline="\n")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = stream
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _host_dir(tmp: Path) -> Path:
    save_graph(make_complete(4), tmp / "k4.json")
    save_graph(make_grotzsch(), tmp / "grotzsch.json")
    save_graph(MOSER, tmp / "moser.json")
    for name, cycles in CACHES.items():
        (tmp / name).write_text(json.dumps({"cycles": cycles}) + "\n")
    (tmp / "fresh.json").unlink(missing_ok=True)
    return tmp


def _replay(mode: str, tmp_path: Path) -> None:
    corpus = [case for case in json.loads(GOLDEN.read_text()) if case["mode"] == mode]
    assert len(corpus) > (5 if mode == "process" else 100)
    for case in corpus:
        got = _run(case["argv"], case["stdin"], case["mode"], tmp_path)
        want = {key: case[key] for key in ("stdout", "stderr", "exit", "cache") if key in case}
        assert got == want, (case["argv"], case["mode"], case["stdin"][:200])


# A cycle call colors its rows without numpy while they weigh at most
# cli._SHORT_INPUT, and with it past that; each in-process call is
# replayed on both paths.
@pytest.mark.parametrize("mode", [*MODES, "process"])
def test_color_calls_match_recorded_golden(mode, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_SHORT_INPUT", 1 << 62)  # the process keeps its own
    _replay(mode, tmp_path)


@pytest.mark.parametrize("mode", MODES)
def test_color_calls_match_recorded_golden_through_the_stack(mode, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_SHORT_INPUT", 0)
    _replay(mode, tmp_path)


# -- recording ---------------------------------------------------------------


def _even_rows(rng, count: int, n: int, k: int) -> list[list[int]]:
    """Random even-class, non-isolated rows of C_{2n+1} into k colors."""
    ctx = OddCycleCtx.make(n, k)
    out: list[list[int]] = []
    while len(out) < count:
        fs = rng.integers(1, k + 1, size=(64, ctx.length))
        _, _, fixed, isolated = np_tour(fs, ctx)
        out.extend(fs[(fixed % 2 == 0) & ~isolated].tolist())
    return out[:count]


def _lines(rows, sep: str = ", ", end: str = "\n") -> str:
    return "".join("[" + sep.join(map(str, r)) + "]" + end for r in rows)


def _cases() -> list[tuple[list[str], str]]:
    """Every (argv, stdin) pair of the corpus."""
    rng = np.random.default_rng(20261018)
    k3 = _even_rows(rng, 40, 2, 3)
    k5 = _even_rows(rng, 30, 2, 5)
    k7 = _even_rows(rng, 20, 3, 7)
    wide = _even_rows(rng, 60, 10, 3)
    n2 = ["color", "--n", "2"]
    n2k5 = ["color", "--n", "2", "--k", "5"]
    parity = [1, 2, 1, 2, 3]  # odd fixed-point count
    isolated5 = [1, 4, 2, 5, 3]  # a chord step outside {0, 2, k-2}
    cases: list[tuple[list[str], str]] = [
        # one array, in every spacing
        (n2, "[2,1,1,1,1]"),
        (n2, "[2, 1, 1, 1, 1]"),
        (n2, "[2, 1, 1, 1, 1]\n"),
        (n2, "  \t[ 2 ,1,\t1 , 1,1 ]  \n\n"),
        (n2, "[2,\n1,\n1,\n1,\n1]\n"),
        (n2, "[2,\r\n1,\r\n1,\r\n1,\r\n1]\r\n"),
        (["color", "--n", "2", "--edge", "2,3"], "[1,1,2,2,1]"),
        (["color", "--n", "10"], json.dumps(wide[0])),
        (["color", "--n", "10", "--edge", "7,6"], json.dumps(wide[1])),
        # JSON lines, array of arrays and a single array agree
        (n2, _lines(k3)),
        (n2, json.dumps(k3)),
        (n2, _lines(k3, sep=",", end="\r\n")),
        (n2, _lines(k3[:5], end="\n\n") + "\n"),
        (n2, "".join("\t [" + ",\t".join(map(str, r)) + "] \t\r\n" for r in k3[:6])),
        (n2, _lines(k3[:3], end="\r")),
        (["color", "--n", "10", "--edge", "3,4"], _lines(wide)),
        (["color", "--n", "10"], json.dumps(wide)),
        (n2k5, _lines(k5)),
        (n2k5, json.dumps(k5)),
        (["color", "--n", "3", "--k", "7"], _lines(k7)),
        (["color", "--n", "2", "--k", "11"], "[10, 10, 10, 10, 10]\n[11, 11, 11, 11, 11]\n"),
        # good rows, then the first bad one
        (n2, _lines(k3[:4] + [parity] + k3[4:6])),
        (n2, _lines([parity] + k3[:2])),
        (n2, json.dumps(k3[:3] + [parity])),
        (n2k5, _lines(k5[:3] + [isolated5] + k5[3:5])),
        (n2k5, _lines(k5[:2] + [[1, 3, 5, 1, 3]] + [isolated5])),
        (n2k5, _lines(k5[:3] + [[1, 1, 6, 1, 1]])),
        (n2k5, _lines(k5[:3] + [[1, 1, 9, 1, 1]])),
        (n2, _lines(k3[:3] + [[1, 1, 0, 1, 1]] + [parity])),
        (n2, _lines(k3[:3] + [[1, 4, 1, 1, 1]])),
        (n2, _lines(k3[:3] + [[1, 12, 1, 1, 1]])),
        (n2, _lines(k3[:3] + [[1, -1, 1, 1, 1]])),
        (n2, _lines(k3[:2] + [[1, 1, 1, 1, -0]])),
        (n2, _lines(k3[:2] + [[1, 9223372036854775808, 1, 1, 1]])),
        (n2, _lines(k3[:2] + [[1, 99999999999999999999, 1, 1, 1]])),
        (n2, _lines(k3[:3] + [[1, 1, 1, 1]] + k3[3:4])),
        (n2, _lines(k3[:3] + [[1, 1, 1, 1, 1, 1]])),
        (n2, _lines(k3[:3] + [[1, 1, 1, 1, 1, 1, 1]] + [parity])),
        (n2, _lines([[1, 1, 1, 1]] * 3)),
        (n2, _lines([[1, 1, 1, 1, 1, 1, 1]] * 3)),
        (n2, "[1, 1, 1]"),
        (n2, json.dumps(k3[:3] + [[1, 1, 1]])),
        (["color", "--n", "3"], _lines(k3[:2])),
        # ragged JSON lines
        (n2, "[1, 1, 1, 1, 1]\n[1, 1, 1]\n[1, 1, 1, 1, 1]\n"),
        (n2, "[1, 1, 1]\n[1, 1, 1, 1, 1]\n"),
        # entries that are not integers, anywhere in the input
        (n2, _lines(k3[:3]) + "[1, 1, true, 1, 1]\n"),
        (n2, _lines(k3[:3]) + "[1, 1, 1.0, 1, 1]\n"),
        (n2, _lines(k3[:3]) + "[1, 1, null, 1, 1]\n"),
        (n2, _lines(k3[:3]) + '[1, 1, "1", 1, 1]\n'),
        (n2, "[false, 1, 1, 1, 1]"),
        (n2, "[1, 1, 1, 1, 1e0]"),
        (n2, "[1, 1, 1, 1, 1]\n7\n"),
        (n2, "[[1, 1, 1, 1, 1], 3]"),
        (n2, "[[1], 1, 1, 1, 1]"),
        (n2, "[1, [1], 1, 1, 1]"),
        (n2, '{"rows": [1, 1, 1, 1, 1]}'),
        (n2, "7"),
        (n2, "[]"),
        (n2, "[[]]"),
        (n2, "[]\n[]\n"),
        (n2, ""),
        (n2, " \n\t\r\n"),
        (n2, "\ufeff[1, 1, 1, 1, 1]"),
        (n2, "[1, 1, \u0661, 1, 1]"),
        # malformed structure
        (n2, "[1, 1, 1, 1, 1,]"),
        (n2, "[1, 1, 1, 1, 1],\n"),
        (n2, "[,1, 1, 1, 1, 1]"),
        (n2, "[1 2]"),
        (n2, "[1, 1, 1, 1 1]"),
        (n2, "[1,, 1, 1, 1]"),
        (n2, "12"),
        (n2, "[1, 1, 1, 1, 1"),
        (n2, "1, 1, 1, 1, 1]"),
        (n2, "[1, 1, 1, 1, 1]]"),
        (n2, "[[1, 1, 1, 1, 1]"),
        (n2, "[1, 1, 1, 1, 1] [1, 1, 1, 1, 1]"),
        (n2, "[1, 1, 1, 1, 1][1, 1, 1, 1, 1]\n"),
        (n2, "[1, 1, 1, 1, 1]\n[1, 1,\n1, 1, 1]\n"),
        (n2, "[1, 1, 1, 1, 1]\n[1, 1,\r1, 1, 1]\n"),
        (n2, "[1, 1, 1, 1, 1]\n[1, 1, 1, 1, 1]\x0c"),
        (n2, "[1, 1, 1, 1, 1]\x0b[1, 1, 1, 1, 1]\n"),
        (n2, "[1, 1, 1, 1, 1]\n[1, 1, 1, 1, 1]\n}\n"),
        # the host and its context
        (["color"], "[1, 1, 1]"),
        (["color", "--n", "0"], "[1, 1, 1, 1]"),
        (["color", "--n", "0"], "[1, 1, true, 1]"),
        (["color", "--n", "0"], "[1]"),
        (["color", "--n", "2", "--k", "4"], "[1, 1, 1, 1, 1]"),
        (["color", "--n", "2", "--edge", "0,2"], "[1, 1, 1, 1, 1]"),
        (["color", "--n", "2", "--edge", "0"], "[1, 1, 1, 1, 1]"),
        # a general host
        (["color", "--graph", "{tmp}/k4.json"], "[[1,1,1,1],[2,2,1,1]]"),
        (["color", "--graph", "{tmp}/k4.json"], "[1, 1, 1, 1]\n[2, 2, 1, 1]\n[3, 3, 2, 2]\n"),
        (["color", "--graph", "{tmp}/k4.json"], "[1, 1, 1, 1]\n[1, 2, 3, 1]\n[2, 2, 1, 1]\n"),
        (["color", "--graph", "{tmp}/k4.json"], "[1, 1, 1, 1]\n[1, 1, 1]\n"),
        (["color", "--graph", "{tmp}/k4.json"], "[1, 1, 1, 1]\n[1, 1, 4, 1]\n"),
        (["color", "--graph", "{tmp}/k4.json", "--k", "5"], "[1, 1, 1, 1]"),
    ]
    # larger hosts, with and without a cycle cache
    grotzsch = make_grotzsch()
    grows = host_rows(grotzsch, rng, 30)
    g_iso, m_iso = isolated_row(grotzsch, rng), isolated_row(MOSER, rng)
    # rows of Moser with odd parity on its first cached triangle are rare
    # (12 of 459 non-isolated rows), so a few are put in by hand
    tri = MOSER_CYCLES[0]
    off_tri = [
        list(f)
        for f in itertools.product((1, 2, 3), repeat=7)
        if not is_isolated(MOSER, f, 3) and not in_even_class([f[v] for v in tri], 1)
    ]
    mrows = host_rows(MOSER, rng, 26)
    for i, f in enumerate(off_tri[::3]):
        mrows.insert(7 * i + 3, f)
    on_tri = [f for f in mrows if in_even_class([f[v] for v in tri], 1)]
    g = ["color", "--graph", "{tmp}/grotzsch.json"]
    m = ["color", "--graph", "{tmp}/moser.json"]
    fresh = ["--cache", "{tmp}/fresh.json"]
    cases += [
        (g, _lines(grows)),
        (g, json.dumps(grows)),
        (g + fresh, _lines(grows)),
        (g + ["--cache", "{tmp}/grotzsch-cycles.json"], _lines(grows)),
        (m, _lines(mrows)),
        (m + fresh, _lines(mrows)),
        (m + ["--cache", "{tmp}/moser-cycles.json"], _lines(mrows)),
        (m + ["--cache", "{tmp}/moser-reversed.json"], json.dumps(mrows)),
        # a bad row mid-stream: the lines before it, then its error
        (g + fresh, _lines(grows[:12] + [g_iso] + grows[12:20])),
        (g + ["--cache", "{tmp}/grotzsch-cycles.json"], _lines(grows[:9] + [g_iso])),
        (g + fresh, _lines(grows[:10] + [grows[10][:-1]] + grows[11:14])),
        (g + ["--cache", "{tmp}/grotzsch-cycles.json"], _lines(grows[:7] + [grows[7] + [1]] + grows[8:9])),
        (m + fresh, _lines(mrows[:11] + [m_iso] + mrows[11:15])),
        (m + ["--cache", "{tmp}/moser-cycles.json"], _lines(mrows[:5] + [[1, 1, 1, 4, 1, 1, 1]] + mrows[5:8])),
        (m + fresh, _lines(mrows[:6] + [[1, 1, 1, 1, 1, 1]] + mrows[6:8])),
        (m, _lines(mrows[:4] + [[1, 2, 1, 0, 1, 2, 1]] + [m_iso])),
        # cache cycles that are not host cycles: reached mid-stream, reached
        # by the first row, and never reached (every non-isolated row of
        # Grötzsch is even on its first cached 5-cycle)
        (m + ["--cache", "{tmp}/moser-bad.json"], _lines(on_tri[:6] + off_tri[:1] + on_tri[6:8])),
        (g + ["--cache", "{tmp}/grotzsch-bad-first.json"], _lines(grows[:3])),
        (g + ["--cache", "{tmp}/grotzsch-bad.json"], _lines(grows)),
    ]
    return cases


def record() -> list[dict]:
    corpus = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = _host_dir(Path(tmp))
        cases = [(argv, stdin, mode) for argv, stdin in _cases() for mode in MODES]
        # a real pipe, for a few of them
        every = _cases()
        cases += [(*every[i], "process") for i in (9, 11, 21, 46, 97, 107)]
        for argv, stdin, mode in cases:
            corpus.append({"argv": argv, "stdin": stdin, "mode": mode, **_run(argv, stdin, mode, tmp_path)})
    return corpus


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
