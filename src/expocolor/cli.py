"""Command-line front end: generate, color, verify, and benchmark.

Subcommands
-----------
``gen``     write a cycle, complete, or Mycielski-construction graph as
            JSON (or DOT).
``color``   color assignments — either on a single odd cycle (pass
            ``--len``/``--n``) or on an arbitrary host graph through the
            cycle-cache pipeline (pass ``--graph``).
``verify``  run one brute-force verification suite (or ``all``),
            emitting one JSON report per line plus a summary table on
            stderr.
``bench``   time the O(n) per-vertex coloring and the exponential
            baseline.

Exit codes are stable API: 0 success, 1 verification violations (for
``color``, a broken internal invariant: ``InvariantViolationError``),
2 usage or a write error on standard output, 3 parity-domain error,
4 isolated assignment, 5 capacity.

The ``expocolor`` command and ``python -m expocolor.cli`` run
:func:`run`, the process entry.  It calls ``gc.freeze()`` before it
parses anything: the start-up heap (the loaded modules, some 22,000
objects the cyclic collector tracks) lives until exit, and frozen it is
skipped by the collector's full passes, those of the call and the
several of interpreter exit.  Then it runs :func:`main` on ``sys.argv``
and flushes standard output, so that a write error there (a closed
pipe) is reported and exits 2 whether it came during the call or at
that flush.  ``main(argv)`` leaves the caller's collector alone: the
tests, perfbench's traced calls and library callers keep their own GC
state.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless it is
already set, and only then loads numpy.  expocolor never calls BLAS,
and the worker thread OpenBLAS would otherwise start at numpy's import
costs every call start-up time (see README, "Cold start").  The
``expocolor`` command, ``python -m expocolor.cli`` and the workers of
``verify --threads`` all run with it; the library modules leave the
variable alone.

Cycle vertices are 0-based ids; ``--edge A,B`` names the distinguished
edge by those ids (default ``0,2n``).  ``color --graph`` keeps its
cycle cache in the file named by ``--cache``, and only there: without
the option it starts from an empty cache and writes none.  An option
that does not apply to the host is a usage error (exit 2): ``--edge``
with ``--graph``, ``--cache`` on a cycle, and ``--len`` with an ``--n``
that names another cycle (for ``verify``, ``--cycle-len`` and ``--n``).

``color`` reads one JSON array, an array of arrays, or one array per
line.  Rows of one-digit colors, as one array or one array per line
(what ``json.dumps`` writes for k <= 9), are decoded from the input in
blocks of ``winding._BLOCK`` bytes.  On a cycle host whose rows are
longer than one kernel pass (``winding._BLOCK`` ids), each block's
digits go straight on to a ``coloring.RowFeed``, which counts them into
the Δ kernel as they come, so the call holds a few block-sized buffers
and each row's verdict, never a row.  Shorter rows, and every row on a
general host, go into one uint8 stack.  Every other input goes through
``json.loads``, which also words every input error, after the input is
read again from its start; a pipe, which cannot seek, is copied to a
temporary file block by block as it is read, so that it can be.  On a
cycle host a stack is colored by one ``coloring.color_rows`` call; on a
general host by one ``coloring.color_rows_in_kh`` call, of which
``color_in_kh`` is the one-row case.  The verdict lines before the
first failing row are written at once; then that row's error, the one
its one-row routine raises, ends the call (a stack's failing row is
colored alone by that routine again).  A general host's cycle cache is
saved whether or not a row failed, holding the cycles found by the rows
before the failing one and by that row itself.

On a general host the first cached cycle on which a row is even serves
it, and a miss finds the cycle ``coloring.find_even_cycle`` names, which
is fixed by the host and the row's component: C*, the host's BFS odd
cycle, whenever the row is even on it.  A call from an empty cache whose
first searched row is even on C* colors every row even on C* through
C*, as any other such call does.  A color still depends on the cache
when an earlier cached cycle is even for the row: a loaded ``--cache``
file that does not start with C*, or a call whose first searched row is
odd on C*.  Rows colored through one cache are colored properly against
each other.
"""

from __future__ import annotations

import os

# expocolor never calls BLAS, and the worker thread OpenBLAS starts when
# numpy loads only costs start-up time; ask for one thread before the
# first import that loads numpy.  A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import io
import json
import locale
import sys
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn

import numpy as np

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
    _outside,
    _wrong_shape,
    color_in_kh,
    color_rows,
    color_rows_in_kh,
    color_vertex,
    color_vertex_ck,
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
from .winding import OddCycleCtx

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_PARITY = 3
EXIT_ISOLATED = 4
EXIT_CAPACITY = 5

def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.kind == "cycle":
            if args.len is None:
                raise ValueError("gen cycle requires --len")
            graph = make_cycle(args.len)
        elif args.kind == "complete":
            if args.k is None:
                raise ValueError("gen complete requires --k")
            graph = make_complete(args.k)
        else:  # mycielski
            if args.of is None:
                raise ValueError("gen mycielski requires --of BASE_GRAPH_JSON")
            graph = make_mycielski(load_graph(args.of))
        if args.format == "dot":
            _write_text(graph_to_dot(graph), args.out)
        else:
            _write_text(json.dumps(graph_to_json_dict(graph)), args.out)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    return EXIT_OK


# ---------------------------------------------------------------------------
# color


_SPACE = b" \t\n\r"
_NOT_MARKS = bytes(set(range(256)) - set(b"[]\n\r"))
# A (digit, comma) pair of bytes read as one little-endian uint16, less
# this, is the digit's value; every other pair of bytes comes out above 9.
_DIGIT_COMMA = np.uint16(ord("0") | ord(",") << 8)
_Take = Callable[[np.ndarray], object]  # what a block's digits are passed to


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
    block: each block's digits are passed on as one uint8 array, rows
    joined, so the reader holds a few block-sized buffers.  Each ``][``
    is read as a comma, which joins the rows into one ``[d,d,...,d]``
    whose digits sit in (digit, comma) pairs; the first ``]`` gives the
    row length, and every later join must fall a whole number of rows
    after it.
    """
    read = 0  # tokens of the joined payload taken so far
    width = 0  # 2L, where the first ] falls in the joined payload
    joins = 0
    held = b""  # tokens left for the next block: a digit, then a closing ]
    last = b""  # the last bracket or line break seen
    broke_inside = False
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
        tokens = held + raw.translate(None, _SPACE)
        if not read and tokens:
            if tokens[0] != ord("["):
                return None
            tokens, read = tokens[1:], 1
        closed = tokens.endswith(b"]")
        if closed:
            tokens = tokens[:-1]
        if b"]" in tokens:
            t = np.frombuffer(tokens, dtype=np.uint8)
            ends = np.flatnonzero(t == ord("]"))
            joined = ends - np.arange(len(ends))  # where each ] falls once joined
            width = width or read + int(joined[0])
            if (
                width % 2
                or ((read + joined) % width).any()
                # each ] is followed by a [ (a last ] is clipped to itself)
                or (t.take(ends + 1, mode="clip") != ord("[")).any()
            ):
                return None
            keep = np.ones(len(t), dtype=bool)
            keep[ends + 1] = False
            t = t[keep]
            t[joined] = ord(",")
            tokens = t.tobytes()
            joins += len(ends)
        pairs = len(tokens) // 2
        held = tokens[2 * pairs :] + b"]" * closed
        if pairs:
            values = np.frombuffer(tokens, dtype="<u2", count=pairs) - _DIGIT_COMMA
            if values.max() > 9:
                return None
            take(values.astype(np.uint8))
            read += 2 * pairs
    if len(held) != 2 or held[1] != ord("]") or not ord("0") <= held[0] <= ord("9"):
        return None
    take(np.array([held[0] - ord("0")], dtype=np.uint8))
    read += 1  # the joined payload's closing ]
    width = width or read
    rows = read // width
    if read % width or joins != rows - 1 or (rows > 1 and broke_inside):
        return None
    return rows, width // 2


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


def _read_assignments(path: str | None, take: _Take | None = None):
    """The rows of the input file, or of stdin for None or ``-``.

    Rows of one-digit colors are decoded by :func:`_digits` from the
    bytes as they stream in: into the uint8 stack returned, or, with
    ``take``, to ``take`` as they come, and then their (rows, L) shape
    is returned.  Any other payload comes back as the tuples of
    :func:`_json_rows`, which also words every input error.  A text-only
    stdin, such as a ``StringIO``, is read as its UTF-8 bytes.
    """
    digits = bytearray()
    take_digits = take or digits.extend
    if path is None or path == "-":
        stdin = sys.stdin
        if hasattr(stdin, "buffer"):
            fh, encoding, errors = stdin.buffer, stdin.encoding, stdin.errors
        else:
            fh, encoding, errors = io.BytesIO(stdin.read().encode()), "utf-8", "strict"
        rows = _read_rows(fh, encoding, errors, take_digits)
    else:
        with open(path, "rb") as fh:
            rows = _read_rows(fh, locale.getpreferredencoding(False), "strict", take_digits)
    if take is None and isinstance(rows, tuple):
        return np.frombuffer(digits, dtype=np.uint8).reshape(rows)
    return rows


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


def _verdict_lines(res: RowColors, end: int) -> str:
    """``json.dumps(verdict.to_json_dict())`` of rows ``0..end-1``, one a line."""
    names = [branch.value for branch in Branch]
    return "".join(
        f'{{"color": {color}, "branch": "{names[branch]}", "ell2": {ell2}, "p2": {p2}}}\n'
        for color, branch, ell2, p2 in zip(*(values[:end].tolist() for values in res[:4]))
    )


def _emit(res: RowColors, rows, color_one) -> int:
    """Write the verdict lines of the rows before the first that failed or
    that the stack left out; then that row, colored alone by the one-row
    routine ``color_one``, raises its error."""
    first = _first_failed(res)
    sys.stdout.write(_verdict_lines(res, first))
    if first < len(rows):
        color_one(rows[first])
        raise InvariantViolationError(f"row {first} failed only in the stack")
    return EXIT_OK


def _same_cycle(flag: str, length: int | None, n: int | None) -> None:
    """Reject a cycle length (``flag``) and an ``--n`` that name two cycles."""
    if length is not None and n is not None and length != 2 * n + 1:
        raise ValueError(
            f"{flag} {length} and --n {n} name different cycles (--n {n} is {flag} {2 * n + 1})"
        )


def _cycle_ctx(args: argparse.Namespace) -> OddCycleCtx:
    if args.len is not None and (args.len % 2 == 0 or args.len < 3):
        raise ParityDomainError(f"cycle length must be odd and >= 3, got {args.len}")
    n = args.n if args.n is not None else (args.len - 1) // 2
    edge = _parse_edge(args.edge) if args.edge else None
    return OddCycleCtx.make(n, args.k, edge)


def _color_on_cycle(args: argparse.Namespace) -> int:
    """Color the input's rows on the cycle of ``--len``/``--n``.

    Rows longer than one kernel pass are never gathered: the digit
    reader hands each block's digits to a ``coloring.RowFeed``, which
    counts them as they come, and only each row's verdict is kept.  The
    verdict lines before the first row that fails are written, then that
    row's error, the one its one-row routine raises, ends the call.  An
    error in the host's arguments is raised after the input is read, so
    that an input error comes first.
    """
    try:
        ctx, error = _cycle_ctx(args), None
    except ValueError as exc:
        ctx, error = None, exc
    feed = None
    if ctx is not None and ctx.length > winding._BLOCK:
        feed = RowFeed(ctx)
    rows = _read_assignments(args.input, None if feed is None else feed.take)
    if error is not None:
        raise error
    if isinstance(rows, tuple):  # the feed has read every row
        if rows[1] != ctx.length:
            raise _wrong_shape(ctx)
        res = feed.colors()
        sys.stdout.write(_verdict_lines(res, _first_failed(res)))
        if len(res.failed):
            raise res.errors[0]
        return EXIT_OK
    color_one = color_vertex if args.k == 3 else color_vertex_ck
    res = color_rows(_stack(rows, ctx.length, ctx.k), ctx)
    return _emit(res, rows, lambda f: color_one(f, ctx))


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


def _color_on_host(
    args: argparse.Namespace, rows: np.ndarray | list[tuple[int, ...]]
) -> int:
    if args.k != 3:
        raise ValueError("general-host coloring supports only --k 3")
    host = load_graph(args.graph)
    cache = CycleCache()
    if args.cache and Path(args.cache).exists():
        cache = CycleCache.loads(Path(args.cache).read_text())
    loaded = len(cache)
    try:
        res, cache = color_rows_in_kh(host, _stack(rows, host.vertex_count, 3), cache)
        # keep the cycles that the rows before the first failure found
        used = res.cycle[: _first_failed(res)].max(initial=-1) + 1
        del cache.entries[max(loaded, used) :]
        return _emit(res, rows, lambda f: color_in_kh(host, f, cache))
    finally:
        if args.cache:
            _save_cache(Path(args.cache), cache)


def cmd_color(args: argparse.Namespace) -> int:
    try:
        if (args.graph is None) == (args.len is None and args.n is None):
            raise ValueError(
                "pass exactly one host: --len/--n for a cycle, or --graph"
            )
        _same_cycle("--len", args.len, args.n)
        if args.graph is None and args.cache is not None:
            raise ValueError("--cache applies only to a --graph host")
        if args.graph is not None and args.edge is not None:
            raise ValueError("--edge applies only to a --len/--n cycle host")
        if args.graph is not None:
            return _color_on_host(args, _read_assignments(args.input))
        return _color_on_cycle(args)
    except ParityDomainError as exc:
        return _fail(str(exc), EXIT_PARITY)
    except (IsolatedFunctionError, NoEvenCycleError) as exc:
        return _fail(str(exc), EXIT_ISOLATED)
    except CapacityError as exc:
        return _fail(str(exc), EXIT_CAPACITY)
    except InvariantViolationError as exc:
        return _fail(str(exc), EXIT_VIOLATIONS)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_USAGE)


# ---------------------------------------------------------------------------
# verify

_BUILTIN_HOST = "complete graph on 4 vertices"


def _verify_ns(args: argparse.Namespace) -> list[int]:
    if args.cycle_len is not None:
        if args.cycle_len % 2 == 0 or args.cycle_len < 3:
            raise ValueError(
                f"--cycle-len must be odd and >= 3, got {args.cycle_len}"
            )
        _same_cycle("--cycle-len", args.cycle_len, args.n)
        return [(args.cycle_len - 1) // 2]
    if args.n is not None:
        return [args.n]
    if args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    return list(range(1, args.n_max + 1))


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


def _verify_jobs(args: argparse.Namespace) -> list[tuple[str, dict]]:
    ns = _verify_ns(args)
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    host = load_graph(args.graph) if args.graph else make_complete(4)
    end_to_end = {"host": host, "cap": args.cap, "samples": args.samples, "seed": args.seed}
    if args.suite == "all":
        suites = [s for s in _VERIFY_DISPATCH if s != "proper-ck" or args.k >= 5]
    elif args.suite == "proper-ck" and args.k < 5:
        raise ValueError("proper-ck requires an odd --k >= 5")
    else:
        suites = [args.suite]
    jobs = []
    for suite in suites:
        if suite == "end-to-end":
            jobs.append((suite, end_to_end))
        else:
            k = {"k": args.k} if suite in _SUITES_TAKING_K else {}
            jobs.extend((suite, {"n": n, **k, "cap": args.cap}) for n in ns)
    return jobs


def _run_verify_job(job: tuple[str, dict]):
    suite, kwargs = job
    return _VERIFY_DISPATCH[suite](**kwargs)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        jobs = _verify_jobs(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    try:
        if args.threads > 1 and len(jobs) > 1:
            from concurrent.futures import ProcessPoolExecutor

            # a pool forks every worker at its first submit
            with ProcessPoolExecutor(max_workers=min(args.threads, len(jobs))) as pool:
                reports = list(pool.map(_run_verify_job, jobs))
        else:
            reports = [_run_verify_job(job) for job in jobs]
    except CapacityError as exc:
        return _fail(str(exc), EXIT_CAPACITY)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
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

    reps = bench_mod.DEFAULT_REPS if args.reps is None else args.reps
    try:
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
    except CapacityError as exc:
        return _fail(str(exc), EXIT_CAPACITY)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if args.format == "json":
        for res in results:
            print(json.dumps(res.to_json_dict()))
        if slope is not None:
            print(json.dumps({"mode": "slope", "slope": slope, "ns": ns}))
        print(json.dumps(bench_mod.environment()))
    else:
        print(f"{'mode':<10}{'n':>10}{'reps':>6}{'median_s':>14}  notes")
        for res in results:
            if res.mode == "explicit":
                note = f"cycle_length={res.details['cycle_length']}"
            else:
                note = f"assignments={res.details['assignments_touched']}"
            print(
                f"{res.mode:<10}{res.n:>10}{res.reps:>6}"
                f"{res.median_seconds:>14.6f}  {note}"
            )
        if slope is not None:
            print(f"log-log slope over n={ns}: {slope:.3f}")
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
    color.add_argument("--len", type=int, help="host cycle length (odd)")
    color.add_argument("--n", type=int, help="host cycle half-length")
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
    ver.add_argument("--n", type=int, help="single cycle half-length")
    ver.add_argument(
        "--n-max", type=int, default=2, help="run n = 1..n_max (default 2)"
    )
    ver.add_argument("--cycle-len", type=int, help="cycle length instead of --n")
    ver.add_argument("--k", type=int, default=3, help="codomain size (odd)")
    ver.add_argument("--cap", type=int, default=verify_mod.DEFAULT_CAP)
    ver.add_argument("--seed", type=int, default=0)
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
    ben.add_argument("--format", choices=("table", "json"), default="table")
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


def run() -> NoReturn:
    """The process entry (see the module docstring): freeze the start-up
    heap, run :func:`main` on ``sys.argv``, flush standard output and
    exit with the code.  A failed flush exits 2 and points fd 1 at
    ``os.devnull``, so that the flush at exit has nothing left to retry.
    """
    gc.freeze()
    code = main()
    if sys.stdout is not None:  # None when the process started with fd 1 closed
        try:
            sys.stdout.flush()
        except OSError as exc:
            code = _fail(str(exc), EXIT_USAGE)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    run()
