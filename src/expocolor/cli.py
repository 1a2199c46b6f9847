"""Command-line front end: ``gen``, ``color``, ``verify`` and ``bench``.

Each value has one option, and an option that the call never reads is a
usage error (README, "Command line", states the rules).  Exit codes are
stable API: 0 success, 1 verification violations, and for an error that
ends the call, the code that ``_EXIT_CODES`` gives its class.
"""

from __future__ import annotations

import os

# expocolor never calls BLAS, and the worker thread OpenBLAS starts when
# numpy loads only costs start-up time; ask for one thread before numpy
# loads, which is during a call that needs it.  A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import errno
import gc
import io
import json
import locale
import sys
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn

# ``verify`` stays an eager import although only the ``verify`` subcommand
# runs it: ``_VERIFY_DISPATCH`` holds the verifiers themselves, and a
# tracer that rebinds functions only in the modules already loaded when it
# installs (right after ``import expocolor.cli``) finds them there.  Loaded
# on demand, they would run untraced.
from . import verify as verify_mod
from .coloring import (
    Branch,
    CycleCache,
    RowColors,
    RowFeed,
    _BRANCHES,
    _outside,
    _wrong_shape,
    color_in_kh,
    color_row,
    color_rows,
    color_rows_in_kh,
)
from .errors import (
    CapacityError,
    InvariantViolationError,
    IsolatedFunctionError,
    NoEvenCycleError,
    ParityDomainError,
)
from .graphs import (
    graph_to_dot,
    graph_to_json_dict,
    load_graph,
    make_complete,
    make_cycle,
    make_mycielski,
)
from . import winding
from .winding import OddCycleCtx, _Numpy

np = _Numpy(globals())

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_PARITY = 3
EXIT_ISOLATED = 4
EXIT_CAPACITY = 5

# The exit code of each error class that ends a call, read from the first
# class of the error's ``__mro__`` listed here, so that a subclass such as
# ``ParityDomainError`` (a ``ValueError``) needs no ordering rule.  Any
# other exception is a bug, not a usage error, and propagates.
_EXIT_CODES = {
    InvariantViolationError: EXIT_VIOLATIONS,
    ParityDomainError: EXIT_PARITY,
    IsolatedFunctionError: EXIT_ISOLATED,
    NoEvenCycleError: EXIT_ISOLATED,
    CapacityError: EXIT_CAPACITY,
    ValueError: EXIT_USAGE,
    OSError: EXIT_USAGE,
}


class _ClosedStdout(io.TextIOBase):
    """``sys.stdout`` of a process started with fd 1 closed, which Python
    leaves None: writing text raises the error a write to the closed
    descriptor gives, so the call reports it and exits 2 as for any
    write error on standard output.  Writing no text is no write, as on
    an open stream, so a call that fails before its first verdict line
    keeps its own error."""

    def write(self, text: str) -> int:
        if text:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return 0


def _fail(exc: Exception) -> int:
    """Write ``exc`` as one ``error:`` line; return its ``_EXIT_CODES`` code."""
    print(f"error: {exc}", file=sys.stderr)
    return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# gen


# The one option each kind of ``gen`` reads; the others are usage errors.
_GEN_OPTIONS = {"cycle": "--len", "complete": "--k", "mycielski": "--of"}


def cmd_gen(args: argparse.Namespace) -> int:
    flag = _GEN_OPTIONS[args.kind]
    unread = [
        other
        for other in _GEN_OPTIONS.values()
        if other != flag and getattr(args, other[2:]) is not None
    ]
    if unread:
        raise ValueError(f"gen {args.kind} takes no {', '.join(unread)}")
    value = getattr(args, flag[2:])
    if value is None:
        raise ValueError(f"gen {args.kind} requires {flag}")
    if args.kind == "cycle":
        graph = make_cycle(value)
    elif args.kind == "complete":
        graph = make_complete(value)
    else:  # mycielski
        graph = make_mycielski(load_graph(value))
    if args.format == "dot":
        _write_text(graph_to_dot(graph), args.out)
    else:
        _write_text(json.dumps(graph_to_json_dict(graph)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# color


_SPACE = b" \t\n\r"
_NOT_MARKS = bytes(set(range(256)) - set(b"[]\n\r"))
# Read by the digit reader: each digit to its value, every other byte to
# one at or above 0x80, the brackets and the comma kept apart by their own
# low bits, so that a block's digits are valid when they are ASCII.
_TOKENS = bytes(
    c - ord("0") if c in b"0123456789" else 0x80 | c if c in b"[]," else 0xFF
    for c in range(256)
)
_OPEN, _CLOSE, _COMMA = (bytes([0x80 | c]) for c in b"[],")
_Take = Callable[[bytes], object]  # what a block's digit values are passed to


def _repeated(row: bytes, start: int, size: int) -> bytes:
    """``size`` bytes of ``row`` repeated end to end, from ``row[start]`` on."""
    head = row[start : start + size]
    size -= len(head)
    return head + row * (size // len(row)) + row[: size % len(row)] if size else head


def _digits(blocks: Iterable[bytes], take: _Take) -> tuple[int, int] | None:
    """The (rows, L) shape of a payload of one-digit arrays, whose digits
    go to ``take`` as they are decoded.

    Reads what ``json.dumps`` writes for colors 0..9: one array, or one
    array per line.  Leaving out JSON whitespace, the payload must be
    ``[d,d,...,d]`` repeated with every row of one length; with more
    than one row, no line break may fall inside an array and at least
    one must fall between two.  Returns None for any other payload,
    which the JSON path then reads or rejects; ``take`` may have been
    given digits of it by then.

    The payload comes in blocks of any size and is checked block by
    block, with ``bytes`` operations only: each block's digit values are
    passed on as one ``bytes``, rows joined, so the reader holds a few
    block-sized buffers.  One ``translate`` drops the whitespace and
    reads each digit as its value (``_TOKENS``); each ``][`` is read as
    a ``]``, which joins the rows into one ``[d,d,...,d]`` whose digits
    and separators alternate.  The digits, every second token, must be
    ASCII; the separators must be commas but for a ``]`` after every L
    digits, L given by the first ``]``.
    """
    read = 0  # digits taken so far
    width = 0  # L, once the first ] has given it
    seps = b""  # the separators of one row: L - 1 commas and a ]
    joins = 0
    held = b""  # tokens left for the next block: a digit, then a closing ]
    last = b""  # the last bracket or line break seen
    started = broke_inside = False
    for raw in blocks:
        if b"[" in raw or b"]" in raw:
            marks = last + raw.translate(None, _NOT_MARKS)  # brackets and breaks
            if b"][" in marks:
                return None
            broke_inside |= b"[\n" in marks or b"[\r" in marks
            last = marks[-1:]
        elif b"\n" in raw or b"\r" in raw:
            broke_inside |= last == b"["
            last = b"\n"
        tokens = held + raw.translate(_TOKENS, _SPACE)
        if not started and tokens:
            if not tokens.startswith(_OPEN):
                return None
            tokens, started = tokens[1:], True
        closed = tokens.endswith(_CLOSE)
        if closed:
            tokens = tokens[:-1]
        ends = 0
        if _CLOSE in tokens:
            ends = tokens.count(_CLOSE)
            # each ] is followed by a [ (a last ] was clipped above)
            if tokens.count(_CLOSE + _OPEN) != ends:
                return None
            tokens = tokens.replace(_CLOSE + _OPEN, _CLOSE)
            joins += ends
        pairs = len(tokens) // 2
        held = tokens[2 * pairs :] + _CLOSE * closed
        if pairs:
            values = tokens[: 2 * pairs : 2]
            if width or ends:  # a row may end in this block
                got = tokens[1 : 2 * pairs : 2]
                if not width and _CLOSE in got:
                    width = read + got.index(_CLOSE) + 1
                    seps = _COMMA * (width - 1) + _CLOSE
                want = _repeated(seps, read % width, pairs) if width else _COMMA * pairs
                separated = got == want
            else:  # no digit is a comma, so the commas must be every other token
                separated = tokens.count(_COMMA, 0, 2 * pairs) == pairs
            if not values.isascii() or not separated:
                return None
            take(values)
            read += pairs
    if len(held) != 2 or held[1:] != _CLOSE or held[0] > 9:
        return None
    take(held[:1])
    read += 1
    width = width or read
    rows = read // width
    if read % width or joins != rows - 1 or (rows > 1 and broke_inside):
        return None
    return rows, width


def _json_rows(text: str) -> list[tuple[int, ...]]:
    """Rows of one JSON array, an array of arrays, or JSON lines.

    Every row must hold only JSON integers.  ``true``/``false`` parse to
    bool, an int subclass, so rows are checked by exact type, once each.
    """
    text = text.strip()
    if not text:
        raise ValueError("no assignments supplied")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, list) and payload:
        rows = payload if isinstance(payload[0], list) else [payload]
    elif payload is None:
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    else:
        raise ValueError(
            "assignments must be a JSON array of colors, an array of such "
            "arrays, or one array per line"
        )
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"assignment row {i} is not an array: {row!r:.80}")
        kinds = set(map(type, row))
        if kinds != {int}:
            found = ", ".join(sorted(kind.__name__ for kind in kinds - {int}))
            raise ValueError(
                f"assignment row {i} must hold only integers, found {found or 'no entries'}"
            )
        out.append(tuple(row))
    return out


def _read_assignments(path: str | None, take: _Take):
    """The rows of the input file, or of stdin for None or ``-``.

    Rows of one-digit colors are decoded by :func:`_digits` from the
    bytes as they stream in and handed to ``take`` as they come (the
    bytes of their values), and then their (rows, L) shape is returned.
    Any other payload comes back as the tuples of :func:`_json_rows`,
    which also words every input error.  A text-only stdin, such as a
    ``StringIO``, is read as its UTF-8 bytes; the None stdin of a process
    started with fd 0 closed raises the error a read there gives.
    """
    if path is None or path == "-":
        stdin = sys.stdin
        if stdin is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        if hasattr(stdin, "buffer"):
            fh, encoding, errors = stdin.buffer, stdin.encoding, stdin.errors
        else:
            fh, encoding, errors = io.BytesIO(stdin.read().encode()), "utf-8", "strict"
        return _read_rows(fh, encoding, errors, take)
    with open(path, "rb") as fh:
        return _read_rows(fh, locale.getpreferredencoding(False), "strict", take)


def _spooled(blocks: Iterable[bytes], spool: BinaryIO) -> Iterator[bytes]:
    """The blocks, each written to ``spool`` as it is taken."""
    for block in blocks:
        spool.write(block)
        yield block


def _read_rows(fh: BinaryIO, encoding: str, errors: str, take: _Take):
    """:func:`_digits` of ``fh`` in blocks of ``winding._BLOCK`` bytes,
    or else :func:`_json_rows` of its text, read again from where it
    started.  A stream that cannot seek (a pipe) is copied to a
    temporary file block by block as it is read, and the rest of it
    once the digit reader gives up, so that the JSON path can read it
    again from there."""
    blocks = iter(partial(fh.read, winding._BLOCK), b"")
    if fh.seekable():
        start = fh.tell()
        shape = _digits(blocks, take)
        if shape is not None:
            return shape
        fh.seek(start)
        return _json_rows(fh.read().decode(encoding, errors))
    import shutil
    import tempfile

    with tempfile.TemporaryFile() as spool:
        shape = _digits(_spooled(blocks, spool), take)
        if shape is not None:
            return shape
        shutil.copyfileobj(fh, spool)
        spool.seek(0)
        return _json_rows(spool.read().decode(encoding, errors))


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--edge expects two comma-separated ids, got {text!r}")
    return int(parts[0]), int(parts[1])


def _stack(rows: np.ndarray | list[tuple[int, ...]], length: int, k: int) -> np.ndarray:
    """The leading rows that one integer (rows, length) stack holds, up
    to the first row with a color outside 1..k.

    A digit stack is kept whole, or left empty if its rows have another
    length.  JSON rows go into an int64 stack that ends before the first
    row of another length or with an entry outside int64.  Either way
    the stack then ends before its first row with a color outside 1..k,
    since no row after it is written, and the one-row routine rejects the
    first row the stack leaves out.
    """
    if isinstance(rows, np.ndarray):
        stack = rows if rows.shape[1] == length else np.zeros((0, length), np.uint8)
    else:
        end = next((i for i, row in enumerate(rows) if len(row) != length), len(rows))
        try:
            stack = np.array(rows[:end], dtype=np.int64).reshape(end, length)
        except OverflowError:
            end = next(i for i, row in enumerate(rows) if any(abs(x) >= 2**63 for x in row))
            return _stack(rows[:end], length, k)
    bad = _outside(stack, k)
    return stack[: bad.argmax()] if bad.any() else stack


def _first_failed(res: RowColors) -> int:
    """The first row of the stack that failed, or the row count."""
    return int(res.failed[0]) if len(res.failed) else len(res.color)


# ``json.dumps(verdict.to_json_dict())`` of a verdict, by its four values
_VERDICT = '{{"color": {}, "branch": "{}", "ell2": {}, "p2": {}}}\n'
_BRANCH_NAMES = tuple(branch.value for branch in Branch)


def _verdict_lines(res: RowColors, end: int) -> str:
    """The verdict lines of rows ``0..end-1``, one a line."""
    return "".join(
        _VERDICT.format(color, _BRANCH_NAMES[branch], ell2, p2)
        for color, branch, ell2, p2 in zip(*(values[:end].tolist() for values in res[:4]))
    )


def _raise_row(rows, end: int, color_one) -> int:
    """Color row ``end`` of ``rows``, the first that failed or that the
    stack left out, alone with the short path's ``color_one`` (a digit
    row as its bytes), which raises its error; it counts without the
    stack's kernel, so a row it colors failed only in the stack (exit 1).
    When ``rows`` ends there, every row was colored."""
    if end < len(rows):
        row = rows[end]
        color_one(row.tobytes() if isinstance(rows, np.ndarray) else row)
        raise InvariantViolationError(f"row {end} failed only in the stack")
    return EXIT_OK


def _emit(res: RowColors, rows, color_one) -> int:
    """Write the verdict lines of the rows before the first that failed or
    that the stack left out; then that row raises its error."""
    first = _first_failed(res)
    sys.stdout.write(_verdict_lines(res, first))
    return _raise_row(rows, first, color_one)


# An input whose rows, each weighed by what its pass reads, come to at most
# this many is colored row by row without numpy.  A cycle row weighs its
# 2n+1 entries plus 256: without numpy a row costs about 7 us and an entry
# 30 ns more than with it, and importing numpy about 80 ms; timed both
# ways, C_101 to C_10001 broke even between 2^21 and 2^22, and C_3 past
# 2^22 (key ``short_path_sweep`` of BENCH_cold_start.json), so this is
# about a third of the lowest.  A host row weighs as ``_host_row_weight``
# gives it: a Grötzsch row costs about 13 us more without numpy than in the
# stack, and calls on five hosts timed both ways (Grötzsch, the Moser
# spindle through 51 cached entries, the Mycielskian of Grötzsch's
# Mycielskian, C_101 and C_1001) broke even between 2.8 and 3.9 times 2^20
# of that weight (key ``host_short_path_sweep`` beside the cycles' one),
# so this is about a third of the lowest there too.
_SHORT_INPUT = 1 << 20


def _color_short(rows, color_one: Callable) -> int:
    """Color the rows one by one with ``color_one``, which gives a row's
    color, branch position in ``Branch``, ell2 and p2, as
    :func:`.coloring.color_row` does, or raises its error: the verdict
    lines before the first row that fails, then its error."""
    lines = []
    try:
        for f in rows:
            color, branch, ell2, p2 = color_one(f)
            lines.append(_VERDICT.format(color, _BRANCH_NAMES[branch], ell2, p2))
    finally:
        sys.stdout.write("".join(lines))
    return EXIT_OK


def _short_or_stack(rows, digits: bytearray, weight: int, color_one, color_stack) -> int:
    """Color the rows that :func:`_read_assignments` gave, a digit
    payload's (rows, L) shape with its values in ``digits`` or the JSON
    rows: one by one with the host's one-row routine ``color_one``
    (:func:`_color_short`) when the rows, each weighing ``weight``, come
    to at most ``_SHORT_INPUT``, as bytes for a digit payload; else with
    numpy, by ``color_stack(rows, color_one)``, the digits as one uint8
    stack, which colors its first failing row again with ``color_one``."""
    count = rows[0] if isinstance(rows, tuple) else len(rows)
    if count * weight <= _SHORT_INPUT:
        if isinstance(rows, tuple):
            data, width = bytes(digits), rows[1]
            rows = [data[i : i + width] for i in range(0, len(data), width)]
        return _color_short(rows, color_one)
    _load_numpy()
    if isinstance(rows, tuple):
        rows = np.frombuffer(digits, dtype=np.uint8).reshape(rows)
    return color_stack(rows, color_one)


def _color_stack(rows, color_one, ctx: OddCycleCtx) -> int:
    """Color the rows with numpy, in slices of at most ``winding._BLOCK``
    entries, one :func:`.coloring.color_rows` call each, up to the first
    slice with a row that fails; that row, or the first row the stack
    leaves out, then raises its error from ``color_one``, the short
    path's :func:`.coloring.color_row` (:func:`_raise_row`)."""
    stack = _stack(rows, ctx.length, ctx.k)
    step = max(1, winding._BLOCK // ctx.length)
    for start in range(0, len(stack), step):
        res = color_rows(stack[start : start + step], ctx)
        first = _first_failed(res)
        sys.stdout.write(_verdict_lines(res, first))
        if first < len(res.color):
            return _raise_row(rows, start + first, color_one)
    return _raise_row(rows, len(stack), color_one)


def _color_on_cycle(args: argparse.Namespace) -> int:
    """Color the input's rows on the cycle C_{2n+1} of ``--n``.

    Rows longer than one kernel pass are never gathered: the digit
    reader hands each block's digits to a ``coloring.RowFeed``, which
    counts them as one kernel pass on arrival, and only each row's
    verdict is kept.  An input of R rows with R * (2n+1 + 256) at most
    ``_SHORT_INPUT`` is colored without numpy (:func:`_color_short`),
    any other with it (:func:`_color_stack`).  The verdict lines before the first row
    that fails are written, then that row's error, the one its one-row
    routine raises, ends the call.  An error in the host's arguments is
    raised after the input is read, so that an input error comes first.
    """
    try:
        edge = _parse_edge(args.edge) if args.edge else None
        ctx, error = OddCycleCtx.make(args.n, args.k, edge), None
    except ValueError as exc:
        ctx, error = None, exc
    feed = None
    if ctx is not None and ctx.length > winding._BLOCK:
        _load_numpy()
        feed = RowFeed(ctx)
    digits = bytearray()
    rows = _read_assignments(args.input, digits.extend if feed is None else feed.take)
    if error is not None:
        raise error
    if isinstance(rows, tuple) and feed is not None:  # the feed has read every row
        if rows[1] != ctx.length:
            raise _wrong_shape(ctx)
        res = feed.colors()
        sys.stdout.write(_verdict_lines(res, _first_failed(res)))
        if len(res.failed):
            raise res.errors[0]
        return EXIT_OK
    return _short_or_stack(
        rows, digits, ctx.length + 256, partial(color_row, ctx=ctx), partial(_color_stack, ctx=ctx)
    )


def _save_cache(path: Path, cache: CycleCache) -> None:
    """Write the cache to a temporary file beside ``path``, then move it
    onto ``path``: the file holds the old cache or the new one, never a
    partial write."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(cache.dumps() + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# Set by :func:`run`, which froze the start-up heap before :func:`main`.
_entry_froze = False


def _load_numpy() -> None:
    """Import numpy now, ahead of the timed work of a call that needs it,
    so that no time reported or traced below counts the import.  Under
    :func:`run`, numpy's heap is then frozen as the start-up heap was,
    so that the call's full collections skip it too; a caller of
    :func:`main` keeps its collector as it was."""
    import numpy  # noqa: F401

    if _entry_froze:
        gc.freeze()


def _host_row_weight(host, cache: CycleCache) -> int:
    """The weight of one row on ``host`` against ``_SHORT_INPUT``, by
    what the row's pass without numpy reads: 32 a vertex and 2 an edge
    (the isolation test, and the serving cycle, which may be as long as
    the host), 32 an entry of the cycles the cache holds as it is loaded
    (the cache scan), and 320 a row."""
    cached = sum(len(cyc) for cyc, _ in cache)
    return 32 * host.vertex_count + 2 * host.edge_count + 32 * cached + 320


def _verdict_in_kh(host, cache: CycleCache, f) -> tuple[int, int, int, int]:
    """:func:`.coloring.color_in_kh` of one row, through ``cache``, as
    :func:`.coloring.color_row` gives a verdict."""
    verdict = color_in_kh(host, f, cache)[0]
    return verdict.color, _BRANCHES.index(verdict.branch), verdict.ell2, verdict.p2


def _color_on_host(args: argparse.Namespace) -> int:
    """Color the input's rows on the host of ``--graph``, through the
    cycle cache of ``--cache`` when it names one, and write the cache
    back however the call ends.

    An input whose rows, each weighed by :func:`_host_row_weight`, come
    to at most ``_SHORT_INPUT`` is colored row by row with
    :func:`.coloring.color_in_kh`, without numpy; any other with one
    :func:`.coloring.color_rows_in_kh` call on the stack.  Either way the
    verdict lines before the first row that fails are written, then that
    row's error, as :func:`.coloring.color_in_kh` raises it, ends the
    call, and the cache kept holds the cycles of the rows before it and
    what that row appended.
    """
    digits = bytearray()
    rows = _read_assignments(args.input, digits.extend)
    if args.k != 3:
        raise ValueError("general-host coloring supports only --k 3")
    host = load_graph(args.graph)
    cache = CycleCache()
    if args.cache and Path(args.cache).exists():
        cache = CycleCache.loads(Path(args.cache).read_text())

    def color_stack(rows, color_one) -> int:
        loaded = len(cache)
        res = color_rows_in_kh(host, _stack(rows, host.vertex_count, 3), cache)[0]
        # keep the cycles that the rows before the first failure found
        used = res.cycle[: _first_failed(res)].max(initial=-1) + 1
        del cache.entries[max(loaded, used) :]
        return _emit(res, rows, color_one)

    try:
        weight = _host_row_weight(host, cache)
        color_one = partial(_verdict_in_kh, host, cache)
        return _short_or_stack(rows, digits, weight, color_one, color_stack)
    finally:
        if args.cache:
            _save_cache(Path(args.cache), cache)


def cmd_color(args: argparse.Namespace) -> int:
    if (args.graph is None) == (args.n is None):
        raise ValueError("pass exactly one host: --n for a cycle, or --graph")
    if args.graph is None and args.cache is not None:
        raise ValueError("--cache applies only to a --graph host")
    if args.graph is not None and args.edge is not None:
        raise ValueError("--edge applies only to an --n cycle host")
    if args.graph is not None:
        return _color_on_host(args)
    return _color_on_cycle(args)


# ---------------------------------------------------------------------------
# verify

_BUILTIN_HOST = "complete graph on 4 vertices"


# Every suite and its verifier, in the order ``verify all`` runs them
# (proper-ck only for k >= 5).  The values are the verifiers themselves.
_VERIFY_DISPATCH = {
    "chord-step": verify_mod.verify_chord_step_identity,
    "label-congruence": verify_mod.verify_label_congruences,
    "label-invariance": verify_mod.verify_label_invariance,
    "little-path": verify_mod.verify_little_path_bound,
    "proper-k3": verify_mod.verify_proper_coloring_k3,
    "hitting-set": verify_mod.verify_hitting_set,
    "baseline": verify_mod.verify_baseline,
    "proper-ck": verify_mod.verify_proper_ck,
    "end-to-end": verify_mod.verify_end_to_end,
}
_SUITES_TAKING_K = {"label-invariance", "little-path", "proper-ck"}


def _unread_options(args: argparse.Namespace) -> list[str]:
    """The options given that the one suite ``args.suite`` never reads
    (``verify all`` reads every one): ``--n`` on ``end-to-end``, and
    ``--cap`` there too when it samples, since it builds no grid; the
    sampling and the host elsewhere; ``--k`` outside
    ``_SUITES_TAKING_K``.  Their defaults are None, so that an option
    given is told from one left out."""
    if args.suite == "end-to-end":
        unread = ["--n"] if args.samples is None else ["--n", "--cap"]
    else:
        unread = ["--samples", "--seed", "--graph"]
    if args.suite not in _SUITES_TAKING_K:
        unread.append("--k")
    return [flag for flag in unread if getattr(args, flag[2:]) is not None]


def _verify_jobs(args: argparse.Namespace) -> list[tuple[str, dict]]:
    if args.suite != "all":
        unread = _unread_options(args)
        if unread:
            raise ValueError(f"verify {args.suite} takes no {', '.join(unread)}")
    if args.seed is not None and args.samples is None:
        raise ValueError("--seed needs --samples: the exhaustive run draws nothing")
    ns = [1, 2] if args.n is None else args.n
    if min(ns) < 1:
        raise ParityDomainError(f"n must be >= 1, got {min(ns)}")
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    k = 3 if args.k is None else args.k
    cap = verify_mod.DEFAULT_CAP if args.cap is None else args.cap
    if args.suite == "all":
        suites = [s for s in _VERIFY_DISPATCH if s != "proper-ck" or k >= 5]
    elif args.suite == "proper-ck" and k < 5:
        raise ValueError("proper-ck requires an odd --k >= 5")
    else:
        suites = [args.suite]
    jobs = []
    for suite in suites:
        if suite == "end-to-end":
            host = load_graph(args.graph) if args.graph else make_complete(4)
            seed = 0 if args.seed is None else args.seed
            jobs.append(
                (suite, {"host": host, "cap": cap, "samples": args.samples, "seed": seed})
            )
        else:
            k_arg = {"k": k} if suite in _SUITES_TAKING_K else {}
            jobs.extend((suite, {"n": n, **k_arg, "cap": cap}) for n in ns)
    return jobs


def _run_verify_job(job: tuple[str, dict]):
    suite, kwargs = job
    return _VERIFY_DISPATCH[suite](**kwargs)


def cmd_verify(args: argparse.Namespace) -> int:
    jobs = _verify_jobs(args)
    _load_numpy()  # before the first suite's clock starts
    if args.threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a pool forks every worker at its first submit
        with ProcessPoolExecutor(max_workers=min(args.threads, len(jobs))) as pool:
            reports = list(pool.map(_run_verify_job, jobs))
    else:
        reports = [_run_verify_job(job) for job in jobs]
    lines = [json.dumps(report.to_json_dict()) for report in reports]
    _write_text("\n".join(lines), args.out)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        params = " ".join(f"{key}={val}" for key, val in report.params.items())
        print(
            f"[{status}] {report.statement:<38} {params:<28} "
            f"checked={report.checked:<10} "
            f"violations={len(report.violations):<4} "
            f"{report.wall_time:8.2f}s",
            file=sys.stderr,
        )
    return EXIT_OK if all(report.passed for report in reports) else EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench as bench_mod

    _load_numpy()
    reps = bench_mod.DEFAULT_REPS if args.reps is None else args.reps
    if args.mode == "explicit":
        ns = [args.n] if args.n is not None else list(bench_mod.DEFAULT_SWEEP)
        results = bench_mod.run_explicit_sweep(ns, reps=reps, seed=args.seed)
    else:
        ns = [args.n] if args.n is not None else list(bench_mod._BASELINE_SWEEP)
        results = [
            bench_mod.bench_baseline(n, reps=reps, seed=args.seed)
            for n in ns
        ]
    slope = (
        bench_mod.fit_latency_slope(results)
        if args.mode == "explicit" and len(results) >= 2
        else None
    )
    lines = [json.dumps(res.to_json_dict()) for res in results]
    if slope is not None:
        lines.append(json.dumps({"mode": "slope", "slope": slope, "ns": ns}))
    lines.append(json.dumps(bench_mod.environment()))
    _write_text("\n".join(lines), None)
    print(f"{'mode':<10}{'n':>10}{'reps':>6}{'median_s':>14}  notes", file=sys.stderr)
    for res in results:
        if res.mode == "explicit":
            note = f"cycle_length={res.details['cycle_length']}"
        else:
            note = f"assignments={res.details['assignments_touched']}"
        print(
            f"{res.mode:<10}{res.n:>10}{res.reps:>6}{res.median_seconds:>14.6f}  {note}",
            file=sys.stderr,
        )
    if slope is not None:
        print(f"log-log slope over n={ns}: {slope:.3f}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expocolor",
        description="Explicit colorings of exponential graphs over odd cycles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="write a generated graph as JSON or DOT")
    gen.add_argument("kind", choices=("cycle", "complete", "mycielski"))
    gen.add_argument("--len", type=int, help="cycle length (odd, >= 3)")
    gen.add_argument("--k", type=int, help="number of vertices for 'complete'")
    gen.add_argument("--of", help="base graph JSON for 'mycielski'")
    gen.add_argument("--out", help="output path (default stdout)")
    gen.add_argument("--format", choices=("json", "dot"), default="json")
    gen.set_defaults(func=cmd_gen)

    color = sub.add_parser("color", help="color assignments")
    color.add_argument("--n", type=int, help="host cycle C_{2n+1}, by its half-length n")
    color.add_argument("--k", type=int, default=3, help="codomain size (odd)")
    color.add_argument(
        "--edge", help="distinguished edge as two 0-based ids, e.g. 0,4"
    )
    color.add_argument("--graph", help="host graph JSON (general-host mode)")
    color.add_argument(
        "--cache",
        help="cycle-cache file, read if present and written back (general-host mode)",
    )
    color.add_argument(
        "--input", help="assignments file (default '-' for stdin)"
    )
    color.set_defaults(func=cmd_color)

    ver = sub.add_parser("verify", help="run brute-force verification suites")
    ver.add_argument("suite", choices=(*_VERIFY_DISPATCH, "all"))
    ver.add_argument(
        "--n", type=int, nargs="+", help="cycle half-lengths, one job each (default 1 2)"
    )
    ver.add_argument("--k", type=int, help="codomain size (odd, default 3)")
    ver.add_argument(
        "--cap",
        type=int,
        help=f"most assignments a sweep may build (default {verify_mod.DEFAULT_CAP})",
    )
    ver.add_argument("--seed", type=int, help="end-to-end sampling seed (default 0)")
    ver.add_argument(
        "--samples",
        type=int,
        help="sampled end-to-end sweep size (default exhaustive)",
    )
    ver.add_argument(
        "--graph", help=f"end-to-end host JSON (default: {_BUILTIN_HOST})"
    )
    ver.add_argument("--threads", type=int, default=1)
    ver.add_argument("--out", help="report JSONL path (default stdout)")
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="time explicit vs. baseline coloring")
    ben.add_argument("--mode", choices=("explicit", "baseline"), default="explicit")
    ben.add_argument(
        "--n", type=int, help="half-length (default: sweep per mode)"
    )
    ben.add_argument("--reps", type=int)
    ben.add_argument("--seed", type=int, default=0)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        return _fail(exc)


def run() -> NoReturn:
    """The process entry of the ``expocolor`` command and ``python -m
    expocolor.cli``: freeze the start-up heap, run :func:`main` on
    ``sys.argv``, freeze again, flush standard output and exit with the
    code.  The start-up heap (the loaded modules, some 14,000 objects
    the cyclic collector tracks) lives until exit; frozen, it is skipped
    by the full collections of the call and of interpreter exit.  numpy
    loads during a call that needs it (7,500 objects more), through
    :func:`_load_numpy`, which freezes it too under this entry; the
    second freeze keeps what the call made out of exit's collections.
    ``main(argv)`` leaves the caller's collector alone.  A failed flush
    exits 2 and points fd 1 at ``os.devnull``, so that the flush at exit
    has nothing left to retry.
    A process started with fd 1 closed writes to a :class:`_ClosedStdout`,
    so a call that writes its result there exits 2 too.
    """
    global _entry_froze
    gc.freeze()
    _entry_froze = True
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    code = main()
    gc.freeze()
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _fail(exc)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    run()
