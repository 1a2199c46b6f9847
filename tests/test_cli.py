"""Command-line behavior: formats, exit codes, cache handling."""

import argparse
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import expocolor
from expocolor import cli, coloring, winding
from expocolor.cli import main
from expocolor.errors import (
    InvariantViolationError,
    IsolatedFunctionError,
    NoEvenCycleError,
    ParityDomainError,
)
from expocolor.coloring import color_rows_in_kh, find_even_cycle
from expocolor.expo import allowed_colors, is_isolated
from expocolor.graphs import graph_from_json_dict, make_cycle, make_grotzsch, save_graph
from expocolor.winding import OddCycleCtx, in_even_class

from hosts import host_rows, kh_loop
from test_graphs import NON_INTEGER_GRAPHS


def run_cli(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return main(argv)


def test_gen_cycle_stdout(capsys):
    assert main(["gen", "cycle", "--len", "5"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["n"] == 5
    assert len(d["edges"]) == 5
    graph_from_json_dict(d)


def test_gen_even_cycle_is_a_domain_error(capsys):
    assert main(["gen", "cycle", "--len", "4"]) == 3
    assert capsys.readouterr().err == "error: cycle length must be odd and >= 3, got 4\n"


# Each kind of gen reads one option; --of names a file that does not
# exist, so its rejection comes before any load.
@pytest.mark.parametrize(
    "argv, unread",
    [
        (["cycle", "--len", "3", "--k", "5", "--of", "nothing.json"], "--k, --of"),
        (["complete", "--k", "4", "--len", "5"], "--len"),
        (["mycielski", "--of", "nothing.json", "--k", "4"], "--k"),
    ],
    ids=["cycle", "complete", "mycielski"],
)
def test_gen_rejects_an_option_its_kind_never_reads(argv, unread, capsys):
    assert main(["gen", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: gen {argv[0]} takes no {unread}\n"


def test_gen_complete_and_mycielski(tmp_path, capsys):
    c5 = tmp_path / "c5.json"
    assert main(["gen", "cycle", "--len", "5", "--out", str(c5)]) == 0
    assert main(["gen", "mycielski", "--of", str(c5)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["n"] == 11 and len(d["edges"]) == 20
    assert main(["gen", "complete", "--k", "4"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["n"] == 4 and len(d["edges"]) == 6


def test_gen_dot_format(capsys):
    assert main(["gen", "cycle", "--len", "5", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph")
    assert "--" in out


def test_gen_missing_params(capsys):
    assert main(["gen", "cycle"]) == 2
    assert main(["gen", "mycielski"]) == 2
    assert main(["gen", "complete"]) == 2
    capsys.readouterr()


def test_color_on_a_host_reads_digit_rows_as_numpy_ints(c5, tmp_path, capsys, monkeypatch):
    # a row of one-digit colors comes as a uint8 stack, so the parity of
    # each odd cycle is read on numpy ints: C_5's only cycle has 3 fixed
    # points under this row
    save_graph(c5, tmp_path / "c5.json")
    argv = ["color", "--graph", str(tmp_path / "c5.json")]
    assert run_cli(argv, "[1,2,1,2,3]\n", monkeypatch) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no odd cycle of the host carries an even number of fixed points\n"


@pytest.mark.parametrize("path", ["cycle", "short", "host", "host-short"])
def test_color_stops_the_stack_before_the_first_out_of_range_row(
    path, c5, tmp_path, capsys, monkeypatch
):
    # no line after that row is written, so the rows behind it are never
    # colored; the lines before it and its error are those of the whole run;
    # the short paths, on the cycle and on the host, color row by row, with
    # no stack
    rows = [[1, 1, 1, 1, 1], [2, 1, 1, 1, 1], [1, 1, 4, 1, 1]] + [[1, 2, 1, 2, 3]] * 50
    seen = []
    rows_of, rows_in_kh = cli.color_rows, cli.color_rows_in_kh
    monkeypatch.setattr(cli, "color_rows", lambda fs, ctx: seen.append(len(fs)) or rows_of(fs, ctx))
    monkeypatch.setattr(
        cli, "color_rows_in_kh", lambda h, fs, c: seen.append(len(fs)) or rows_in_kh(h, fs, c)
    )
    short = path.endswith("short")
    if not short:  # the stack path
        monkeypatch.setattr(cli, "_SHORT_INPUT", 0)
    argv = ["color", "--n", "2"]
    host = path.startswith("host")
    if host:
        save_graph(c5, tmp_path / "c5.json")
        argv = ["color", "--graph", str(tmp_path / "c5.json")]
    stdin = "\n".join(map(json.dumps, rows))
    assert run_cli(argv, stdin, monkeypatch) == 2
    out, err = capsys.readouterr()
    assert seen == ([] if short else [2]) and out.count("\n") == 2
    assert err == "error: " + ("color 4 outside 1..3\n" if host else "colors must be in 1..3\n")


def test_the_stack_path_colors_no_slice_past_the_first_failure(tmp_path, capsys, monkeypatch):
    # rows of C_5 in slices of winding._BLOCK // 5 = 4 rows: the odd row 5
    # ends the call in the second slice, and no later row is colored
    rows = [[2, 1, 1, 1, 1]] * 5 + [[1, 2, 1, 2, 3]] + [[2, 1, 1, 1, 1]] * 100
    colored = []
    real = cli.color_rows
    monkeypatch.setattr(
        cli, "color_rows", lambda fs, ctx: colored.append(len(fs)) or real(fs, ctx)
    )
    monkeypatch.setattr(cli, "_SHORT_INPUT", 0)
    monkeypatch.setattr(winding, "_BLOCK", 20)
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert main(["color", "--n", "2", "--input", str(path)]) == 3
    out, err = capsys.readouterr()
    assert colored == [4, 4] and out.count("\n") == 5
    assert err.startswith("error: assignment has 3 fixed points (odd)")


@pytest.mark.parametrize(
    "argv, stdin, code, colors",
    [
        (["color", "--n", "1", "--graph", "whatever.json"], "[1,1,1]", 2, []),  # two hosts
        (["color", "--n", "1"], '{"not": "rows"}', 2, []),
        (["color", "--n", "2"], "[[1,1,1,1,1],[1,1,1,1,2]]", 0, [1, 2]),
        (["color", "--n", "2", "--k", "5"], "[1,4,2,5,3]", 4, []),
        (["color", "--graph", "{tmp}/k4.json"], "[1,2,3,1]", 4, []),
    ],
)
def test_color_calls_the_golden_corpus_lacks(
    argv, stdin, code, colors, k4, tmp_path, capsys, monkeypatch
):
    # tests/data/color_golden.json holds the other cases of each kind: an
    # array of arrays under --n and --graph, an isolated row after a good one
    save_graph(k4, tmp_path / "k4.json")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert run_cli(argv, stdin, monkeypatch) == code
    out, err = capsys.readouterr()
    assert [json.loads(line)["color"] for line in out.splitlines()] == colors
    assert err.startswith("error: ") == (code != 0)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["color", "--n", "2", "--cache", "{tmp}/cache.json"],
            "--cache applies only to a --graph host",
        ),
        (
            ["color", "--graph", "{tmp}/k4.json", "--edge", "0,1"],
            "--edge applies only to an --n cycle host",
        ),
    ],
    ids=["cache-on-a-cycle", "edge-on-a-graph"],
)
def test_host_options_that_do_not_apply_exit_2(argv, message, k4, tmp_path, capsys, monkeypatch):
    save_graph(k4, tmp_path / "k4.json")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert run_cli(argv, "[1, 1, 1, 1, 1]", monkeypatch) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "cache.json").exists()


@pytest.mark.parametrize(
    "payload",
    [
        # json.loads gives bool for true/false, and bool is an int subclass
        "[true, 2, 1, 1, 1]",
        "[[1, 1, 1, 1, 1], [false, 1, 1, 1, 1]]",
        "[1, 1, 1, 1, true]\n",
        "[1.0, 2, 1, 1, 1]",
        "[null, 1, 1, 1, 1]",
        '["1", 1, 1, 1, 1]',
        "[[1, 1, 1, 1, 1], [1, 1, 1, 1, 1.5]]",
        "[1, 1, 1, 1, 1]\n[1, 1, null, 1, 1]\n",
    ],
)
def test_color_rejects_non_integer_colors(payload, capsys, monkeypatch):
    # tests/data/color_golden.json holds the other cases: [[1], 1, 1, 1, 1],
    # [1, [1], 1, 1, 1], [[1, 1, 1, 1, 1], 3], [[]] and a 7 after a row
    assert run_cli(["color", "--n", "2"], payload, monkeypatch) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def _read_stack(source: str | None):
    """``cli._read_assignments`` of ``source``, handing the digits to a
    buffer of its own: a digit payload as its uint8 (rows, L) stack, any
    other payload as the JSON rows."""
    digits = bytearray()
    rows = cli._read_assignments(source, digits.extend)
    if isinstance(rows, tuple):
        return np.frombuffer(digits, dtype=np.uint8).reshape(rows)
    return rows


def test_text_only_stdin_goes_through_the_byte_reader(monkeypatch):
    # a StringIO has no byte buffer: its UTF-8 bytes take the digit reader
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1,2,1]\n[3,3,3]\n"))
    rows = _read_stack(None)
    assert rows.dtype == np.uint8 and rows.tolist() == [[1, 2, 1], [3, 3, 3]]


_NOT_DIGITS = ["true", "1.0", "null", '"1"', "-1", "12", "1e0", "[1]", "00", "-", "x", "/", ":"]


def _fuzz_payload(rng) -> str:
    """Rows of random digits in random JSON whitespace, some of them broken."""

    def ws(breaks: bool) -> str:
        pool = [" ", "\t", ""] + (["\n", "\r\n", "\r"] if breaks else [])
        return "".join(pool[i] for i in rng.integers(len(pool), size=rng.integers(0, 3)))

    rows = [
        [str(d) for d in rng.integers(0, 10, size=rng.integers(1, 6))]
        for _ in range(rng.integers(1, 5))
    ]
    fault = rng.integers(12)  # 6..11: no fault
    row = rows[rng.integers(len(rows))]
    if fault == 0:
        row[rng.integers(len(row))] = _NOT_DIGITS[rng.integers(len(_NOT_DIGITS))]
    elif fault == 1:  # ragged
        row.append("1")
    inside = rng.random() < 0.25  # line breaks inside arrays
    texts = []
    for r in rows:
        commas = [ws(inside) + "," + ws(inside) for _ in r[1:]]
        if fault == 2 and r is row and commas:
            commas[rng.integers(len(commas))] = " "  # [1 2]
        body = "".join(x + c for x, c in zip(r, commas + [""]))
        if fault == 3 and r is row:
            body += ","  # a trailing comma
        texts.append(ws(inside) + "[" + ws(inside) + body + ws(inside) + "]" + ws(False))
    if fault == 4:
        return "[" + ",".join(texts) + "]"  # an array of arrays
    joints = ["\n", "\r\n", "\n\n", "\r"] + ([" ", ""] if fault == 5 else [])
    return "".join(t + joints[rng.integers(len(joints))] for t in texts)


def digit_rows(data: bytes) -> np.ndarray | None:
    """The rows of a payload of one-digit arrays, as a uint8 (rows, L) stack.

    The whole-buffer reader that the CLI's block reader is checked
    against.  Leaving out JSON whitespace, the payload must be
    ``[d,d,...,d]`` repeated with every row of one length; with more
    than one row, no line break may fall inside an array and at least
    one must fall between two.  None for any other payload.
    """
    tokens = data.translate(None, b" \t\n\r")
    width = tokens.find(b"]") + 1  # 2L + 1 bytes a row
    if width < 3 or width % 2 == 0 or len(tokens) % width:
        return None
    grid = np.frombuffer(tokens, dtype=np.uint8).reshape(-1, width)
    digits = grid[:, 1::2] - np.uint8(ord("0"))  # other bytes wrap above 9
    if (
        (grid[:, 0] != ord("[")).any()
        or (grid[:, -1] != ord("]")).any()
        or (grid[:, 2:-1:2] != ord(",")).any()
        or (digits > 9).any()
    ):
        return None
    if len(grid) > 1:
        raw = np.frombuffer(data, dtype=np.uint8)
        breaks = np.flatnonzero((raw == ord("\n")) | (raw == ord("\r")))
        before_open = np.searchsorted(breaks, np.flatnonzero(raw == ord("[")))
        before_close = np.searchsorted(breaks, np.flatnonzero(raw == ord("]")))
        if (before_open != before_close).any() or (
            before_open[1:] == before_close[:-1]
        ).any():
            return None
    return digits


def _block_read(data: bytes) -> np.ndarray | None:
    """What the CLI's block reader makes of ``data``, in blocks of
    ``winding._BLOCK`` bytes: its digits as a uint8 (rows, L) stack, as
    :func:`_read_stack` builds it, or None."""
    digits = bytearray()

    def take(values):
        assert type(values) is bytes  # the digit values, decoded without numpy
        digits.extend(values)

    shape = cli._digits(iter(partial(io.BytesIO(data).read, winding._BLOCK), b""), take)
    return None if shape is None else np.frombuffer(digits, dtype=np.uint8).reshape(shape)


def _same_stack(got, want) -> bool:
    """Both None, or uint8 stacks of one shape and equal entries."""
    if got is None or want is None:
        return got is want
    return got.dtype == np.uint8 and got.shape == want.shape and np.array_equal(got, want)


def test_digit_reader_agrees_with_the_json_path(monkeypatch):
    # Wherever the bulk reader takes a payload, json.loads must read the
    # same rows from it; every other payload is left to the JSON path.
    # The block reader gives exactly the reference's result, at the
    # default block size and at blocks of a few bytes.
    rng = np.random.default_rng(7)
    taken = left = 0
    for _ in range(3000):
        payload = _fuzz_payload(rng)
        stack = digit_rows(payload.encode())
        for block in (1, 2, 3, 5, 8, winding._BLOCK):
            with monkeypatch.context() as m:
                m.setattr(winding, "_BLOCK", block)
                assert _same_stack(_block_read(payload.encode()), stack), (block, payload)
        try:
            rows = cli._json_rows(payload)
        except ValueError:  # json.JSONDecodeError included: exit 2
            rows = None
        if stack is None:
            left += 1
            continue
        taken += 1
        assert rows is not None, payload
        assert stack.dtype == np.uint8 and stack.tolist() == [list(r) for r in rows], payload
    assert taken > 500 and left > 500, (taken, left)


class _Pipe(io.RawIOBase):
    """A byte source that cannot seek, as a pipe on standard input."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(buffer)


# Payloads whose brackets, joins, line breaks, digits and commas fall on
# every side of a block edge once the block size runs over 1..len(payload).
_EDGE_PAYLOADS = [
    "[1, 2, 3]",
    "[1,2,3]\n[3,2,1]\n",
    "[1,2,3]\r\n[3,2,1]\r\n[2,2,2]",
    " \n[7]\n\n[0]\r[9]\n ",
    "[\n1,\r\n2 ,\t3\n]\n",
    "[1,2,3][3,2,1]",  # no break between the rows: the JSON path's error
    "[1,2,\n3]\n[3,2,1]",  # a break inside one of two rows
    "[1,2,3]\n[3,2]\n",  # ragged
    "[1,2,3]\n[3,2,10]\n",  # two digits
    "[[1,2,3],[3,2,1]]",
    "[1,2,3]]\n",
    "[1,2,3],\n",
]


def _read_as(mode: str, payload: bytes, tmp_path, monkeypatch):
    """:func:`_read_stack` of ``payload`` through ``--input`` or a
    byte-backed stdin, its error as a string if it raises."""
    if mode == "file":
        path = tmp_path / "rows.json"
        path.write_bytes(payload)
        source = str(path)
    else:
        raw = io.BytesIO(payload) if mode == "stdin" else io.BufferedReader(_Pipe(payload))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw))
        source = None
    try:
        return _read_stack(source)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("payload", _EDGE_PAYLOADS)
def test_block_reader_at_every_block_edge(payload, tmp_path, monkeypatch):
    data = payload.encode()
    want = digit_rows(data)
    if want is None:
        try:
            want = cli._json_rows(payload)
        except ValueError as exc:
            want = f"{type(exc).__name__}: {exc}"
    for block in range(1, len(data) + 1):
        monkeypatch.setattr(winding, "_BLOCK", block)
        for mode in ("file", "stdin", "pipe"):
            got = _read_as(mode, data, tmp_path, monkeypatch)
            if isinstance(want, np.ndarray):
                assert _same_stack(got, want), (block, mode)
            else:
                assert got == want, (block, mode)


# A color call on C_2000001 holds no copy of the row, only a few buffers of
# winding._BLOCK entries: the reader's block, its tokens and their digits,
# and the feed's pass arrays, of which bincount's int64 copy of the codes
# is the largest (8 blocks); 16 blocks are allowed, with no term for the
# row.  That holds for a file, for a standard input that can
# seek, and for a pipe, which is spooled to a temporary file as it is read.
_LONG_N = 10**6


def _long_even_row() -> np.ndarray:
    ctx = winding.OddCycleCtx.make(_LONG_N, 3)
    rng = np.random.default_rng(3)
    row = rng.integers(1, 4, ctx.length, dtype=np.uint8)
    while winding.np_tour(row, ctx)[2] % 2:  # until it is in the even class
        row = rng.integers(1, 4, ctx.length, dtype=np.uint8)
    return row


def _long_row_call(capsys, argv):
    """Color the long row with ``main(argv)``; the memory it traced, in blocks."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["color"] in (1, 2, 3)
    return peak / winding._BLOCK


def test_color_of_one_long_row_stays_within_the_readers_memory(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_long_even_row().tolist()))
    blocks = _long_row_call(capsys, ["color", "--n", str(_LONG_N), "--input", str(path)])
    assert blocks < 16, blocks


def test_color_of_one_long_row_from_stdin_stays_within_the_readers_memory(
    capsys, monkeypatch
):
    payload = json.dumps(_long_even_row().tolist()).encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(payload)))
    blocks = _long_row_call(capsys, ["color", "--n", str(_LONG_N)])
    assert blocks < 16, blocks


def test_color_of_one_long_row_from_a_pipe_stays_within_the_readers_memory(
    capsys, monkeypatch
):
    payload = json.dumps(_long_even_row().tolist()).encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BufferedReader(_Pipe(payload))))
    blocks = _long_row_call(capsys, ["color", "--n", str(_LONG_N)])
    assert blocks < 16, blocks


# Rows longer than one kernel pass stream through coloring.RowFeed.  With
# winding._BLOCK patched small, rows on C_13 take several passes, and the
# CLI's stdout, stderr and exit code must be those of color_rows on the
# whole stack (which test_winding.py checks against the one-row routine).
_FED_N = 6
_FED_LENGTH = 2 * _FED_N + 1


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, ParityDomainError):
        return cli.EXIT_PARITY
    if isinstance(exc, IsolatedFunctionError):
        return cli.EXIT_ISOLATED
    if isinstance(exc, InvariantViolationError):
        return cli.EXIT_VIOLATIONS
    assert isinstance(exc, ValueError), exc
    return cli.EXIT_USAGE


def _stack_outcome(rows, ctx) -> tuple[str, str, int]:
    """stdout, stderr and exit code from ``color_rows`` on the whole stack."""
    try:
        res = coloring.color_rows(np.array(rows, dtype=np.int64), ctx)
    except ValueError as exc:
        return "", f"error: {exc}\n", _exit_code(exc)
    return _cli_outcome(res)


def _cli_outcome(res) -> tuple[str, str, int]:
    """stdout, stderr and exit code of a ``color`` call whose rows got
    ``res``: the verdicts before the first failing row, then its error."""
    end = int(res.failed[0]) if len(res.failed) else len(res.color)
    names = [branch.value for branch in coloring.Branch]
    out = "".join(
        json.dumps({"color": c, "branch": names[b], "ell2": e, "p2": p}) + "\n"
        for c, b, e, p in zip(*(values[:end].tolist() for values in res[:4]))
    )
    if len(res.failed):
        return out, f"error: {res.errors[0]}\n", _exit_code(res.errors[0])
    return out, "", 0


def _fed_rows(k: int, edge, rng, count: int = 1) -> list[list[int]]:
    """``count`` even-class rows on C_13 into k colors, none isolated: a
    walk along the chord tour by steps in {0, 2, k-2} that closes."""
    ctx = winding.OddCycleCtx.make(_FED_N, k, edge)
    rows = []
    while len(rows) < count:
        row = np.zeros(_FED_LENGTH, dtype=np.int64)
        steps = rng.choice([0, 2, k - 2], size=_FED_LENGTH)
        row[np.arange(_FED_LENGTH) * 2 % _FED_LENGTH] = (rng.integers(k) + np.cumsum(steps)) % k
        row += 1
        _, _, fixed, isolated = winding.np_tour(row, ctx)
        if not isolated and fixed % 2 == 0 and steps.sum() % k == 0:
            rows.append(row.tolist())
    return rows


def _fed_call(mode, argv, rows, tmp_path, monkeypatch, capsys) -> tuple[str, str, int]:
    """``main(argv)`` on the rows as JSON lines, through ``--input``, a
    byte-backed stdin or a pipe; its stdout, stderr and exit code."""
    payload = "".join(json.dumps(row) + "\n" for row in rows).encode()
    if mode == "file":
        path = tmp_path / "rows.json"
        path.write_bytes(payload)
        argv = [*argv, "--input", str(path)]
    else:
        raw = io.BytesIO(payload) if mode == "stdin" else io.BufferedReader(_Pipe(payload))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw))
    code = main(argv)
    out, err = capsys.readouterr()
    return out, err, code


def _assert_fed_like_stack(rows, k, edge, tmp_path, monkeypatch, capsys):
    """The fed CLI call on every block size and input mode, against the
    stack; the stack path must not run."""
    ctx = winding.OddCycleCtx.make(_FED_N, k, edge)
    want = _stack_outcome(rows, ctx)
    argv = ["color", "--n", str(_FED_N), "--k", str(k), "--edge", f"{edge[0]},{edge[1]}"]
    monkeypatch.setattr(cli, "color_rows", None)  # a call would raise TypeError
    for block in (1, 2, 3, 4, 5, _FED_LENGTH - 1):
        monkeypatch.setattr(winding, "_BLOCK", block)
        for mode in ("file", "stdin", "pipe"):
            got = _fed_call(mode, argv, rows, tmp_path, monkeypatch, capsys)
            assert got == want, (block, mode)
    return want


@pytest.mark.parametrize("k", [3, 5])
def test_fed_rows_match_the_stack_for_every_edge(k, tmp_path, monkeypatch, capsys):
    # b then a fall on each side of every pass edge as the edge moves round
    rng = np.random.default_rng(k)
    for x in range(_FED_LENGTH):
        edge = (x, (x + 1) % _FED_LENGTH)
        rows = _fed_rows(k, edge, rng, count=3)
        out, _, code = _assert_fed_like_stack(rows, k, edge, tmp_path, monkeypatch, capsys)
        assert code == 0 and out.count("\n") == 3


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("at", [0, _FED_N, _FED_LENGTH - 1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("outside", ["zero", "above"])
def test_fed_row_with_a_color_outside_exits_2(
    k, at, outside, tmp_path, monkeypatch, capsys
):
    edge = (3, 4)
    row = _fed_rows(k, edge, np.random.default_rng(at))[0]
    row[at] = 0 if outside == "zero" else k + 1
    want = _assert_fed_like_stack([row], k, edge, tmp_path, monkeypatch, capsys)
    assert want == ("", f"error: colors must be in 1..{k}\n", 2)


def test_fed_row_with_odd_parity_exits_3(tmp_path, monkeypatch, capsys):
    row = [3] + [1, 2] * _FED_N  # one fixed point at each end of the 3
    want = _assert_fed_like_stack([row], 3, (0, 12), tmp_path, monkeypatch, capsys)
    assert want[2] == 3 and want[0] == ""


def test_fed_isolated_row_exits_4(tmp_path, monkeypatch, capsys):
    row = [1, 2] + [1] * (_FED_LENGTH - 2)  # chord arc (12, 1) steps by 1 mod 5
    want = _assert_fed_like_stack([row], 5, (0, 12), tmp_path, monkeypatch, capsys)
    assert want[2] == 4 and want[0] == ""


@pytest.mark.parametrize("width", [_FED_LENGTH - 2, _FED_LENGTH + 2])
def test_fed_rows_of_the_wrong_width_exit_2(width, tmp_path, monkeypatch, capsys):
    rows = [[1] * width] * 2
    want = _assert_fed_like_stack(rows, 3, (0, 12), tmp_path, monkeypatch, capsys)
    assert want == ("", f"error: assignment must have {_FED_LENGTH} entries\n", 2)


@pytest.mark.parametrize("fault", ["parity", "outside", "isolated"])
def test_fed_rows_stop_at_the_failing_middle_row(fault, tmp_path, monkeypatch, capsys):
    k = 5 if fault == "isolated" else 3
    edge = (5, 6)
    rows = _fed_rows(k, edge, np.random.default_rng(1), count=3)
    if fault == "parity":
        rows[1] = [3] + [1, 2] * _FED_N
    elif fault == "outside":
        rows[1][_FED_N] = 4
    else:
        rows[1] = [1, 2] + [1] * (_FED_LENGTH - 2)
    out, _, code = _assert_fed_like_stack(rows, k, edge, tmp_path, monkeypatch, capsys)
    assert out.count("\n") == 1 and code == {"parity": 3, "outside": 2, "isolated": 4}[fault]


@pytest.mark.parametrize("path", ["short", "stack", "stack-only", "fed"])
def test_color_exits_1_when_an_invariant_breaks(path, tmp_path, monkeypatch, capsys):
    # With the side test stuck at 0, a colorable row whose endpoints differ
    # breaks the little-path invariant.  Each cycle path writes the verdicts
    # before that row, then its error, and exits 1, as it does for a row
    # that fails only in the stack.  The --graph path is the "side stuck
    # on l/2" case of the cache-saving test above.
    monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: 0)
    ctx = winding.OddCycleCtx.make(_FED_N, 3, (0, 12))
    fed = _fed_rows(3, (0, 12), np.random.default_rng(2), count=12)
    equal = [row for row in fed if row[0] == row[12]]
    rows = [equal[0], next(row for row in fed if row[0] != row[12]), equal[1]]
    lines = json.dumps(coloring.color_vertex(rows[0], ctx).to_json_dict()) + "\n"
    with pytest.raises(InvariantViolationError) as error:
        coloring.color_vertex(rows[1], ctx)
    error = error.value
    if path == "fed":
        monkeypatch.setattr(winding, "_BLOCK", 5)
    else:
        monkeypatch.setattr(cli, "RowFeed", None)
    if path.startswith("stack"):
        monkeypatch.setattr(cli, "_SHORT_INPUT", 0)
    else:  # the fed and short paths make no stack
        monkeypatch.setattr(cli, "color_rows", None)  # a call would raise TypeError
    if path == "stack-only":  # the stack fails row 0, which colors alone
        real = cli.color_rows
        monkeypatch.setattr(
            cli,
            "color_rows",
            lambda fs, c: real(fs, c)._replace(failed=np.array([0]), errors=[error]),
        )
        lines, error = "", "row 0 failed only in the stack"
    argv = ["color", "--n", str(_FED_N), "--edge", "0,12"]
    got = _fed_call("file", argv, rows, tmp_path, monkeypatch, capsys)
    assert got == (lines, f"error: {error}\n", cli.EXIT_VIOLATIONS)


@pytest.mark.parametrize("stdin", ["[2,1,1,1,1]\n", "[[2,1,1,1,1]]\n"], ids=["digits", "json"])
def test_a_kernel_fault_fails_a_row_only_in_the_stack(stdin, monkeypatch, capsys):
    # np_tour counts one fixed point too many, so the stack fails the good
    # row 0; the short path's color_row colors it again with scalar.row_tour,
    # which the fault does not reach, so the call blames the stack (exit 1),
    # not the row's parity (exit 3)
    real = winding.np_tour

    def np_tour(fs, ctx):
        ell2, p2, fixed, isolated = real(fs, ctx)
        return ell2, p2, fixed + 1, isolated

    monkeypatch.setattr(winding, "np_tour", np_tour)
    monkeypatch.setattr(cli, "_SHORT_INPUT", 0)
    assert run_cli(["color", "--n", "2"], stdin, monkeypatch) == cli.EXIT_VIOLATIONS
    assert capsys.readouterr() == ("", "error: row 0 failed only in the stack\n")


def test_importing_the_cli_leaves_the_pool_and_bench_unloaded():
    # ``color`` needs neither; ``verify --threads`` and ``bench`` import them
    code = (
        "import sys, expocolor.cli; "
        "print([m for m in ('concurrent.futures.process', 'expocolor.bench') "
        "if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(expocolor.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def _in_fresh_python(code: str, blas_threads: str | None) -> str:
    """Standard output of ``code`` run by a new interpreter on this package,
    with ``OPENBLAS_NUM_THREADS`` set to ``blas_threads``, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(expocolor.__file__).resolve().parents[1])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_BLAS_AND_THREADS = (
    "import os, sys; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
    "len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else '-')"
)


def test_importing_the_cli_asks_for_one_blas_thread():
    # numpy loads after the CLI, as in a call that needs it, so on Linux
    # OpenBLAS starts no worker
    got = _in_fresh_python(f"import expocolor.cli, numpy; {_BLAS_AND_THREADS}", None)
    assert got == ("1 1" if sys.platform == "linux" else "1 -")


# each row weighs its entries plus 256 against cli._SHORT_INPUT
@pytest.mark.parametrize("rows", [1000, cli._SHORT_INPUT // 357 + 1], ids=["short", "long"])
def test_a_short_color_call_loads_no_numpy(rows, tmp_path):
    # even-class rows of C_101: up to _SHORT_INPUT they are colored
    # without numpy; past it numpy loads, with one BLAS thread asked for
    rng = np.random.default_rng(rows)
    fs = rng.integers(1, 4, (3 * rows, 101))
    fs = fs[(np.roll(fs, 1, axis=1) != np.roll(fs, -1, axis=1)).sum(axis=1) % 2 == 0][:rows]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(f) + "\n" for f in fs.tolist()))
    call = (
        "import contextlib, io, sys\nfrom expocolor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = main(['color', '--n', '50', '--input', {str(path)!r}])\n"
        "print(code, out.getvalue().count(chr(10)), 'numpy' in sys.modules)\n"
    )
    got = _in_fresh_python(call + _BLAS_AND_THREADS, None).split()
    loaded = rows * 357 > cli._SHORT_INPUT
    threads = ["1" if sys.platform == "linux" else "-"]
    assert got == ["0", str(rows), str(loaded), "1", *threads]


# each Grötzsch row read through a new cache weighs cli._host_row_weight
_GROTZSCH_ROW = cli._host_row_weight(make_grotzsch(), coloring.CycleCache())


@pytest.mark.parametrize(
    "rows", [1000, cli._SHORT_INPUT // _GROTZSCH_ROW + 1], ids=["short", "long"]
)
def test_a_short_host_call_loads_no_numpy(rows, tmp_path):
    # non-isolated rows of the Grötzsch graph, colored through a new cache
    # file: up to _SHORT_INPUT without numpy, past it with numpy; either
    # way the lines and the cache file are those of one color_rows_in_kh call
    h = make_grotzsch()
    save_graph(h, tmp_path / "g.json")
    fs = host_rows(h, rows, count=(rows + 1) // 2)[:rows]
    path, cache = tmp_path / "rows.jsonl", tmp_path / "cache.json"
    path.write_text("".join(json.dumps(f) + "\n" for f in fs))
    argv = ["color", "--graph", str(tmp_path / "g.json"), "--input", str(path), "--cache", str(cache)]
    call = (
        "import contextlib, io, sys\nfrom expocolor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = main({argv!r})\n"
        f"open({str(tmp_path / 'out.txt')!r}, 'w').write(out.getvalue())\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    got = _in_fresh_python(call, None).split()
    assert got == ["0", str(rows * _GROTZSCH_ROW > cli._SHORT_INPUT)]
    res, want = color_rows_in_kh(h, np.array(fs))
    assert not len(res.failed)
    names = [branch.value for branch in coloring.Branch]
    lines = [
        json.dumps({"color": c, "branch": names[b], "ell2": e, "p2": p}) + "\n"
        for c, b, e, p in zip(*(v.tolist() for v in res[:4]))
    ]
    assert (tmp_path / "out.txt").read_text() == "".join(lines)
    assert cache.read_text() == want.dumps() + "\n"


def test_importing_the_cli_keeps_a_user_blas_setting():
    got = _in_fresh_python(f"import expocolor.cli; {_BLAS_AND_THREADS}", "2")
    assert got.split()[0] == "2"


def test_library_imports_leave_the_blas_setting_alone():
    code = (
        "import os, sys, expocolor, expocolor.winding, expocolor.graphs, "
        "expocolor.expo, expocolor.coloring, expocolor.verify, expocolor.bench; "
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'expocolor.cli' in sys.modules)"
    )
    assert _in_fresh_python(code, None) == "None False"


def test_color_long_host_cycle_without_even_parity_exits_4(tmp_path, capsys, monkeypatch):
    # C_1201 is its own only odd cycle, and this row has odd parity on it;
    # the cycle search must report that, not overflow the recursion limit.
    c1201 = tmp_path / "c1201.json"
    assert main(["gen", "cycle", "--len", "1201", "--out", str(c1201)]) == 0
    row = json.dumps([3] + [1, 2] * 600)
    assert run_cli(["color", "--graph", str(c1201)], row, monkeypatch) == 4
    out, err = capsys.readouterr()
    assert out == "" and "no odd cycle" in err


def test_color_general_host_with_cache_env(tmp_path, capsys, monkeypatch):
    # the cycle cache lives in the --cache file only: EXPO_CACHE names none
    k4 = tmp_path / "k4.json"
    assert main(["gen", "complete", "--k", "4", "--out", str(k4)]) == 0
    rows = "[[1,1,1,1],[2,2,1,1]]"
    assert run_cli(["color", "--graph", str(k4)], rows, monkeypatch) == 0
    plain = capsys.readouterr().out
    assert len(plain.splitlines()) == 2
    stray = tmp_path / "stray.json"
    monkeypatch.setenv("EXPO_CACHE", str(stray))
    assert run_cli(["color", "--graph", str(k4)], rows, monkeypatch) == 0
    assert capsys.readouterr().out == plain and not stray.exists()
    cache_path = tmp_path / "cache.json"
    argv = ["color", "--graph", str(k4), "--cache", str(cache_path)]
    assert run_cli(argv, rows, monkeypatch) == 0
    assert capsys.readouterr().out == plain
    assert json.loads(cache_path.read_text())["cycles"] == [[0, 1, 2]]
    # second run reuses the cache file
    assert run_cli(argv, "[3,3,2,2]", monkeypatch) == 0
    assert json.loads(cache_path.read_text())["cycles"] == [[0, 1, 2]]
    capsys.readouterr()


@pytest.mark.parametrize("graph", NON_INTEGER_GRAPHS.values(), ids=NON_INTEGER_GRAPHS)
def test_color_and_verify_reject_non_integer_graph(graph, tmp_path, capsys, monkeypatch):
    # a usage error (exit 2), not a host read with int()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    assert run_cli(["color", "--graph", str(path)], "[1,1,2,2]", monkeypatch) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed graph JSON")
    argv = ["verify", "end-to-end", "--graph", str(path), "--samples", "5"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed graph JSON")


def test_cache_save_is_atomic(tmp_path, capsys, monkeypatch):
    # a save goes through a temporary file: a clean one leaves nothing
    # else behind, and one that fails partway leaves the old cache whole
    k4 = tmp_path / "k4.json"
    assert main(["gen", "complete", "--k", "4", "--out", str(k4)]) == 0
    cache_path = tmp_path / "cache.json"
    argv = ["color", "--graph", str(k4), "--cache", str(cache_path)]
    assert run_cli(argv, "[1,1,1,1]", monkeypatch) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json", "k4.json"]
    saved = cache_path.read_bytes()

    def fail_partway(path, text, *args, **kwargs):
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", fail_partway)
    assert run_cli(argv, "[2,2,1,1]", monkeypatch) == 2
    assert capsys.readouterr().err == "error: no space left on device\n"
    assert cache_path.read_bytes() == saved
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json", "k4.json"]


@pytest.mark.parametrize("cycles", ["5", "[5]", "[[0, 1.7, 2]]", "[[0, true, 2]]"])
def test_color_rejects_malformed_cache_file(cycles, tmp_path, capsys, monkeypatch):
    # a usage error (exit 2), and the cache file is left as it was
    k4 = tmp_path / "k4.json"
    assert main(["gen", "complete", "--k", "4", "--out", str(k4)]) == 0
    cache_path = tmp_path / "cache.json"
    text = f'{{"cycles": {cycles}}}\n'
    cache_path.write_text(text)
    argv = ["color", "--graph", str(k4), "--cache", str(cache_path)]
    assert run_cli(argv, "[1,1,1,1]", monkeypatch) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed cycle-cache")
    assert cache_path.read_text() == text


@pytest.mark.parametrize("fault", ["isolated row", "side stuck on l/2"])
def test_color_general_host_saves_the_cache_of_the_rows_before_a_failure(
    fault, moser_spindle, tmp_path, capsys, monkeypatch
):
    # A fresh cache; the first row finds a cycle c on which it has equal
    # endpoints, a row fails, and a row behind it misses c.  The stack
    # call finds that row's cycle too, but the saved cache, like the
    # output, must be what a row-by-row loop leaves when it stops.
    h = moser_spindle
    grid = [list(f) for f in itertools.product((1, 2, 3), repeat=h.vertex_count)]
    live = [f for f in grid if not is_isolated(h, f, 3)]
    for first in live:
        c = find_even_cycle(h, first).vertices
        if first[c[0]] == first[c[-1]]:
            break
    on_c = [f for f in live if in_even_class([f[v] for v in c], len(c) // 2)]
    miss = next(f for f in live if f not in on_c)
    if fault == "isolated row":
        failing = next(f for f in grid if is_isolated(h, f, 3))
    else:
        monkeypatch.setattr(coloring, "_side_of", lambda p2, ell2: 0)
        failing = next(f for f in on_c if f[c[0]] != f[c[-1]])
    stack = [first, on_c[1], failing, miss, on_c[2]]
    want = kh_loop(h, stack)[0]
    assert want.failed[0] == 2 and len(color_rows_in_kh(h, np.array(stack))[1]) == 2
    cycles = kh_loop(h, stack[:3])[1].to_json_dict()  # the loop's cache when it stops
    assert cycles == {"cycles": [list(c)]}
    graph, cache_path = tmp_path / "moser.json", tmp_path / "fresh.json"
    save_graph(h, graph)
    argv = ["color", "--graph", str(graph), "--cache", str(cache_path)]
    code = run_cli(argv, "\n".join(map(json.dumps, stack)), monkeypatch)
    assert (*capsys.readouterr(), code) == _cli_outcome(want)
    assert json.loads(cache_path.read_text()) == cycles


@pytest.mark.parametrize("shared", [False, True], ids=["no cache", "shared cache"])
@pytest.mark.parametrize("order", ["f first", "g first"])
def test_color_general_host_calls_color_adjacent_rows_apart(
    order, shared, grotzsch, tmp_path, capsys, monkeypatch
):
    # f and g are adjacent rows of Grötzsch (the Mycielskian of C_5), both
    # even on C* = (0, 1, 2, 3, 4): separate calls color them through it,
    # with or without a cache file they share, in either order
    h = grotzsch
    f = [1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1]
    g = [3, 2, 2, 3, 2, 3, 2, 2, 3, 2, 2]
    assert all(c in allowed for c, allowed in zip(g, allowed_colors(h, f, 3)))
    graph = tmp_path / "grotzsch.json"
    save_graph(h, graph)
    argv = ["color", "--graph", str(graph)]
    if shared:
        argv += ["--cache", str(tmp_path / "cache.json")]
    colors = {}
    for name, row in (("f", f), ("g", g)) if order == "f first" else (("g", g), ("f", f)):
        assert run_cli(argv, json.dumps(row), monkeypatch) == 0
        colors[name] = json.loads(capsys.readouterr().out)["color"]
    assert colors == {"f": 2, "g": 3}


def test_verify_single_suite_jsonl(capsys):
    assert main(["verify", "label-congruence", "--n", "1"]) == 0
    out, err = capsys.readouterr()
    rep = json.loads(out.strip())
    assert rep["statement"] == "label congruences"
    assert rep["passed"] is True
    assert "[PASS]" in err


def test_verify_n_takes_a_list(capsys):
    assert main(["verify", "little-path", "--n", "1", "3", "--k", "5"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["params"] for r in reports] == [{"n": 1, "k": 5}, {"n": 3, "k": 5}]


def test_verify_all_quick(capsys):
    assert main(["verify", "all", "--n", "1"]) == 0
    out, err = capsys.readouterr()
    reports = [json.loads(x) for x in out.splitlines()]
    statements = {r["statement"] for r in reports}
    assert "end-to-end pipeline" in statements
    assert all(r["passed"] for r in reports)
    assert err.count("[PASS]") == len(reports)


def test_verify_all_with_threads(capsys):
    assert main(["verify", "all", "--n", "1", "--threads", "2"]) == 0
    reports = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert all(r["passed"] for r in reports)


@pytest.mark.parametrize(
    "argv, vertices",
    [
        (["verify", "proper-k3", "--n", "10"], 3**21),
        (["bench", "--mode", "baseline", "--n", "7"], 3**15),
    ],
    ids=["verify", "bench"],
)
def test_capacity_exits_5(argv, vertices, capsys):
    assert main(argv) == 5
    want = f"error: exponential graph needs {vertices} vertices, cap is 1000000\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("suite", ["proper-k3", "hitting-set", "baseline"])
def test_verify_capacity_message_counts_vertices(suite, capsys):
    assert main(["verify", suite, "--n", "3", "--cap", "100"]) == 5
    assert "exponential graph needs 2187 vertices, cap is 100" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "chord-step", "--n", "0"],
        ["verify", "all", "--n", "1", "-1"],
        ["verify", "end-to-end", "--samples", "0"],
        ["verify", "end-to-end", "--samples", "-3"],
        ["verify", "label-congruence", "--n", "1", "--threads", "0"],
    ],
)
def test_verify_rejects_vacuous_runs(argv, capsys):
    # the last option given holds the vacuous value: a half-length below
    # 1 is outside the paper's domain, and a count of samples or threads
    # below 1 is a usage error
    code = main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    if next(arg for arg in reversed(argv) if arg.startswith("--")) == "--n":
        assert (code, err) == (3, f"error: n must be >= 1, got {argv[-1]}\n")
    else:
        assert code == 2 and "must be at least 1" in err


# An option that a suite never reads is a usage error, named in the message;
# --graph names a file that does not exist, so its rejection comes before
# any load.
@pytest.mark.parametrize(
    "argv, unread",
    [
        (["chord-step", "--n", "1", "--k", "5"], "--k"),
        (["end-to-end", "--k", "3"], "--k"),
        (["label-congruence", "--n", "1", "--samples", "9"], "--samples"),
        (["label-congruence", "--n", "1", "--seed", "3"], "--seed"),
        (["label-congruence", "--n", "1", "--samples", "9", "--seed", "3"], "--samples, --seed"),
        (["proper-k3", "--n", "1", "--graph", "missing.json"], "--graph"),
        (["end-to-end", "--n", "7", "--samples", "5"], "--n"),
        (["end-to-end", "--samples", "5", "--cap", "10"], "--cap"),
        (["end-to-end", "--n", "1", "2", "--samples", "5", "--cap", "10"], "--n, --cap"),
    ],
)
def test_verify_rejects_an_option_its_suite_never_reads(argv, unread, capsys):
    assert main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: verify {argv[0]} takes no {unread}\n"


@pytest.mark.parametrize("suite", ["end-to-end", "all"])
def test_verify_rejects_a_seed_without_samples(suite, capsys):
    assert main(["verify", suite, "--seed", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --seed needs --samples: the exhaustive run draws nothing\n"


# The exhaustive end-to-end run of K_4 builds 3**4 = 81 assignments, and
# chord-step at n = 1 builds 27: --cap 10 stops both before they start.
@pytest.mark.parametrize(
    "argv",
    [["end-to-end", "--cap", "10"], ["all", "--n", "1", "--samples", "3", "--cap", "10"]],
    ids=["end-to-end", "all"],
)
def test_verify_cap_is_read_where_a_grid_is_built(argv, capsys):
    assert main(["verify", *argv]) == 5
    out, err = capsys.readouterr()
    assert out == "" and "cap" in err


def _job_options():
    """The ``verify`` parser's options but help, ``--threads`` and
    ``--out``, which ``cmd_verify`` reads itself around the jobs: each of
    them must reach a job or be refused."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    around = {"-h", "--threads", "--out"}
    options = (a for a in sub.choices["verify"]._actions if a.option_strings)
    return [a for a in options if a.option_strings[0] not in around]


@pytest.mark.parametrize("suite", [*cli._VERIFY_DISPATCH, "all"])
@pytest.mark.parametrize("action", _job_options(), ids=lambda a: a.option_strings[0])
def test_every_verify_option_is_read_or_refused(suite, action, k4, tmp_path):
    flag = action.option_strings[0]
    save_graph(k4, tmp_path / "k4.json")
    raw, value = ("7", 7) if action.type is int else (str(tmp_path / "k4.json"), k4)
    base = ["--k", "5"] if suite == "proper-ck" and flag != "--k" else []
    args = cli.build_parser().parse_args(["verify", suite, *base, flag, raw])
    try:
        jobs = cli._verify_jobs(args)
    except ValueError as exc:
        assert flag in str(exc)
        return
    assert any(value in kwargs.values() for _, kwargs in jobs)


def test_verify_all_accepts_every_option(tmp_path, capsys):
    k4 = tmp_path / "k4.json"
    assert main(["gen", "complete", "--k", "4", "--out", str(k4)]) == 0
    argv = ["verify", "all", "--n", "1", "--k", "5", "--cap", "200", "--samples", "3", "--seed", "4"]
    assert main([*argv, "--graph", str(k4)]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(reports) == len(cli._VERIFY_DISPATCH)
    assert reports[-1]["params"] == {"vertices": 4, "mode": "sampled", "samples": 3, "seed": 4}


@pytest.mark.parametrize(
    "given, defaults",
    [
        (["end-to-end", "--samples", "5"], ["end-to-end", "--samples", "5", "--seed", "0"]),
        (["little-path", "--n", "1"], ["little-path", "--n", "1", "--k", "3"]),
        (["chord-step"], ["chord-step", "--n", "1", "2"]),
        (["proper-k3", "--n", "1"], ["proper-k3", "--n", "1", "--cap", "1000000"]),
    ],
    ids=["seed", "k", "n", "cap"],
)
def test_verify_defaults_give_the_reports_of_the_explicit_options(given, defaults, capsys):
    reports = []
    for argv in (given, defaults):
        assert main(["verify", *argv]) == 0
        reports.append([json.loads(line) for line in capsys.readouterr().out.splitlines()])
    for report in reports:
        for r in report:
            r.pop("wall_time")
    assert reports[0] == reports[1]


def test_verify_threads_start_no_more_workers_than_jobs(capsys, monkeypatch):
    # a pool forks all of its workers at the first submit: never more than
    # there are jobs (a stand-in pool runs them inline)
    import concurrent.futures

    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert main(["verify", "label-congruence", "--n", "1", "2", "--threads", "64"]) == 0
    assert workers == [2] and capsys.readouterr().err.count("[PASS]") == 2


def test_verify_violations_exit_1(capsys, monkeypatch):
    real = winding.arc_value

    def bad(i, j, k):
        if (i, j, k) == (1, 2, 3):
            return 0
        return real(i, j, k)

    monkeypatch.setattr(winding, "arc_value", bad)
    assert main(["verify", "chord-step", "--n", "1"]) == 1
    out, err = capsys.readouterr()
    rep = json.loads(out.strip())
    assert rep["passed"] is False and rep["violations"]
    assert "[FAIL]" in err


def test_verify_out_file(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    assert main(["verify", "hitting-set", "--n", "1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text().strip())
    assert rep["statement"] == "hitting set / bipartite remainder"
    capsys.readouterr()


def test_verify_end_to_end_sampled_graph(tmp_path, capsys):
    g = tmp_path / "grotzsch.json"
    c5 = tmp_path / "c5.json"
    main(["gen", "cycle", "--len", "5", "--out", str(c5)])
    main(["gen", "mycielski", "--of", str(c5), "--out", str(g)])
    assert (
        main(
            [
                "verify", "end-to-end", "--graph", str(g),
                "--samples", "50", "--seed", "3",
            ]
        )
        == 0
    )
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["checked"] == 50
    assert rep["params"]["mode"] == "sampled"


def test_verify_proper_ck_needs_big_k(capsys):
    assert main(["verify", "proper-ck", "--n", "1"]) == 2
    capsys.readouterr()


def test_bench_json_output(capsys):
    assert main(["bench", "--mode", "explicit", "--n", "5", "--reps", "3"]) == 0
    out, err = capsys.readouterr()
    assert err.startswith("mode ") and "cycle_length=11" in err
    rows = [json.loads(x) for x in out.splitlines()]
    assert rows[0]["mode"] == "explicit"
    assert rows[0]["reps"] == 3
    assert len(rows[0]["rep_seconds"]) == 3
    env = rows[-1]
    assert set(env) == {
        "mode", "cpu_count", "cpus_usable", "python", "numpy", "openblas_num_threads"
    }
    assert env["mode"] == "environment"
    assert env["numpy"] == np.__version__
    assert env["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")


def test_bench_baseline_table(capsys):
    assert main(["bench", "--mode", "baseline", "--n", "1", "--reps", "2"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out.splitlines()[0])["details"]["assignments_touched"] == 27
    assert "baseline" in err
    assert "assignments=27" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()


# The exit code depends only on the error's class: a cycle or codomain
# outside the paper's domain exits 3 in every subcommand, with the message
# the library gives.  The input is one valid row, so that ``color`` reaches
# its host error.
@pytest.mark.parametrize(
    "argv, library_call",
    [
        (["gen", "cycle", "--len", "4"], partial(make_cycle, 4)),
        (["color", "--n", "0"], partial(OddCycleCtx.make, 0, 3)),
        (["color", "--n", "2", "--k", "4"], partial(OddCycleCtx.make, 2, 4)),
        (["verify", "chord-step", "--n", "0"], partial(OddCycleCtx.make, 0, 3)),
        (["verify", "little-path", "--n", "1", "--k", "4"], partial(OddCycleCtx.make, 1, 4)),
        (["bench", "--n", "0"], partial(OddCycleCtx.make, 0, 3)),
    ],
    ids=["gen-len-4", "color-n-0", "color-k-4", "verify-n-0", "verify-k-4", "bench-n-0"],
)
def test_a_domain_error_exits_3_in_every_subcommand(argv, library_call, capsys, monkeypatch):
    with pytest.raises(ParityDomainError) as want:
        library_call()
    assert run_cli(argv, "[1,1,1]\n", monkeypatch) == 3
    assert capsys.readouterr() == ("", f"error: {want.value}\n")


@pytest.mark.parametrize(
    "error, code", [(InvariantViolationError, 1), (NoEvenCycleError, 4)], ids=["invariant", "no-cycle"]
)
def test_an_error_that_escapes_a_verifier_exits_with_its_code(error, code, capsys, monkeypatch):
    def broken(**kwargs):
        raise error("broken on purpose")

    monkeypatch.setitem(cli._VERIFY_DISPATCH, "chord-step", broken)
    assert main(["verify", "chord-step", "--n", "1"]) == code
    assert capsys.readouterr() == ("", "error: broken on purpose\n")


def test_an_unmapped_error_propagates_out_of_main(monkeypatch):
    # a TypeError is a bug, not a usage error: no exit code hides it
    def broken(**kwargs):
        raise TypeError("broken on purpose")

    monkeypatch.setitem(cli._VERIFY_DISPATCH, "chord-step", broken)
    with pytest.raises(TypeError, match="broken on purpose"):
        main(["verify", "chord-step", "--n", "1"])


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "expocolor.cli", "gen", "cycle", "--len", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3


def test_main_leaves_the_callers_gc_alone(capsys, monkeypatch):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["gen", "cycle", "--len", "3"]) == 0
    assert run_cli(["color", "--n", "2"], "[1,1,2,2,1]", monkeypatch) == 0
    assert main(["verify", "chord-step", "--n", "1"]) == 0  # loads numpy
    assert main(["gen", "cycle"]) == 2
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    capsys.readouterr()


@pytest.fixture
def unfreeze():
    yield
    gc.unfreeze()


@pytest.mark.parametrize(
    ("argv", "code", "numpy"),
    [
        (["gen", "cycle", "--len", "3"], 0, False),
        (["gen", "cycle"], 2, False),
        (["verify", "chord-step", "--n", "1"], 0, True),
    ],
)
def test_process_entry_freezes_then_exits_with_mains_code(
    argv, code, numpy, unfreeze, capsys, monkeypatch
):
    events = []
    real_freeze, real_parser = gc.freeze, cli.build_parser
    monkeypatch.setattr(gc, "freeze", lambda: (events.append("freeze"), real_freeze()))
    monkeypatch.setattr(cli, "build_parser", lambda: (events.append("parse"), real_parser())[1])
    monkeypatch.setattr(sys, "argv", ["expocolor", *argv])
    monkeypatch.setattr(cli, "_entry_froze", False)  # run() sets it for the process
    with pytest.raises(SystemExit) as exc:
        cli.run()
    # a call that loads numpy freezes it as it loads; the last freeze, once
    # main returns, takes in what the call made
    loaded = ["freeze"] if numpy else []
    assert (events, exc.value.code) == (["freeze", "parse", *loaded, "freeze"], code)
    assert gc.get_freeze_count() > 0
    capsys.readouterr()


def _cli_process(argv, unbuffered=False, **kwargs):
    """``python -m expocolor.cli argv`` on this package, stderr captured."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(expocolor.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "expocolor.cli", *argv], stderr=subprocess.PIPE, env=env, **kwargs
    )


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_exits_2(unbuffered):
    # whether the write fails inside ``color`` (unbuffered) or at the
    # entry's flush, the call reports it once and exits 2
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(
            ["color", "--n", "2"], unbuffered, input=b"[1,1,2,2,1]\n", stdout=write_end
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (2, "error: [Errno 32] Broken pipe\n")


def test_a_call_started_with_fd_1_closed_exits_0(tmp_path):
    # Python sets ``sys.stdout`` to None; the entry has nothing to flush
    out = tmp_path / "c3.json"
    proc = _cli_process(
        ["gen", "cycle", "--len", "3", "--out", str(out)], preexec_fn=lambda: os.close(1)
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(out.read_text())["n"] == 3


@pytest.mark.parametrize(
    ("argv", "stdin", "code", "stderr"),
    [
        (["gen", "cycle", "--len", "3"], None, 2, "error: [Errno 9] Bad file descriptor\n"),
        (["color", "--n", "2"], b"[1,1,2,2,1]\n", 2, "error: [Errno 9] Bad file descriptor\n"),
        (
            ["verify", "chord-step", "--n", "1"],
            None,
            2,
            "error: [Errno 9] Bad file descriptor\n",
        ),
        # a call that fails before it writes keeps its own error and code
        (
            ["color", "--n", "2"],
            b"[1,1,2,1,3]\n",
            3,
            "error: assignment has 3 fixed points (odd); only the even class "
            "is colorable this way\n",
        ),
    ],
    ids=["gen", "color", "verify", "color-parity"],
)
def test_a_write_to_fd_1_closed_at_start_exits_2(argv, stdin, code, stderr):
    proc = _cli_process(argv, input=stdin, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr.decode()) == (code, stderr)


@pytest.mark.parametrize("source", ["n", "graph", "input"])
def test_a_read_from_fd_0_closed_at_start_exits_2(source, c5, tmp_path):
    # Python sets ``sys.stdin`` to None; reading the rows there fails as a
    # read from the closed descriptor does, and an --input file is read
    save_graph(c5, tmp_path / "c5.json")
    (tmp_path / "rows.json").write_text("[2,1,1,1,1]\n")
    argv = {
        "n": ["color", "--n", "2"],
        "graph": ["color", "--graph", str(tmp_path / "c5.json")],
        "input": ["color", "--n", "2", "--input", str(tmp_path / "rows.json")],
    }[source]
    proc = _cli_process(argv, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(0))
    got = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
    if source == "input":
        assert got == (0, '{"color": 2, "branch": "BelowHalf", "ell2": 0, "p2": -2}\n', "")
    else:
        assert got == (2, "", "error: [Errno 9] Bad file descriptor\n")
