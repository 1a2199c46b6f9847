"""Latency harness: linear per-vertex coloring vs. exponential baseline.

The contrast being measured: coloring one assignment of the cycle with
``2n+1`` vertices walks a single chord tour — O(n) work, practical up
to n = 10^6 — while the baseline colors the whole even-class subgraph
at once and therefore touches all ``3**(2n+1)`` assignments, already
2187 of them at n = 3.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Sequence

from . import coloring, winding
from .errors import _Record
from .winding import OddCycleCtx, _Numpy

np = _Numpy(globals())

DEFAULT_SWEEP = (10**3, 10**4, 10**5, 10**6)
# the baseline touches all 3**(2n+1) assignments, so its sweep stays tiny
_BASELINE_SWEEP = (1, 2, 3)
DEFAULT_REPS = 11


class BenchResult(_Record):
    """One measurement: the median plus every repetition's wall time."""

    __slots__ = _fields = ("mode", "n", "reps", "seed", "median_seconds", "rep_seconds", "details")
    mode: str
    n: int
    reps: int
    seed: int
    median_seconds: float
    rep_seconds: tuple[float, ...]
    details: dict

    def __init__(self, mode, n, reps, seed, median_seconds, rep_seconds, details):
        self._set(mode, n, reps, seed, median_seconds, rep_seconds, details)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "reps": self.reps,
            "seed": self.seed,
            "median_seconds": self.median_seconds,
            "rep_seconds": list(self.rep_seconds),
            "details": dict(self.details),
        }


def environment() -> dict:
    """What the figures of a run depend on besides the code: the CPUs, the
    Python and numpy versions, and the ``OPENBLAS_NUM_THREADS`` value the
    process ran with (None when unset)."""
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "mode": "environment",
        "cpu_count": os.cpu_count(),
        "cpus_usable": os.cpu_count() if usable is None else len(usable),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def random_even_assignment(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Uniform random even-class assignment by resampling; returns (f, tries).

    The two parity classes are near-balanced, so the expected number of
    tries is about 2 — callers log the measured ratio rather than
    assuming it.
    """
    ctx = OddCycleCtx.make(n, 3)
    tries = 0
    while True:
        tries += 1
        f = rng.integers(1, 4, size=ctx.length, dtype=np.int64)
        if winding.np_tour(f, ctx)[2] % 2 == 0:
            return f, tries


def bench_explicit(n: int, reps: int = DEFAULT_REPS, seed: int = 0) -> BenchResult:
    """Median per-call latency of the O(n) coloring at half-length ``n``.

    Context construction, assignment generation and one untimed warm-up
    call (which derives the context's kernel tables) happen outside the
    timed region; each repetition colors a fresh seeded random
    even-class assignment.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    ctx = OddCycleCtx.make(n, 3)
    rng = np.random.default_rng(seed)
    coloring.color_vertex(np.ones(ctx.length, dtype=np.int64), ctx)
    times: list[float] = []
    tries_total = 0
    for _ in range(reps):
        f, tries = random_even_assignment(n, rng)
        tries_total += tries
        start = time.perf_counter()
        coloring.color_vertex(f, ctx)
        times.append(time.perf_counter() - start)
    details = {
        "cycle_length": 2 * n + 1,
        "resample_ratio": tries_total / reps,
    }
    return BenchResult(
        mode="explicit",
        n=n,
        reps=reps,
        seed=seed,
        median_seconds=float(np.median(times)),
        rep_seconds=tuple(times),
        details=details,
    )


def bench_baseline(n: int, reps: int = DEFAULT_REPS, seed: int = 0) -> BenchResult:
    """Total time to build and color the whole even-class subgraph.

    Every repetition runs the full pipeline from scratch: exponential
    graph construction, even-class filtering, and the bipartition-based
    coloring.  The pipeline is deterministic; ``seed`` is recorded only
    so results from both modes share a schema.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    times: list[float] = []
    even_size = 0
    for _ in range(reps):
        start = time.perf_counter()
        ctx = OddCycleCtx.make(n, 3)
        ke = coloring.even_class_subgraph(n)
        coloring.color_graph_baseline(ke, ctx)
        times.append(time.perf_counter() - start)
        even_size = ke.vertex_count
    details = {
        "cycle_length": 2 * n + 1,
        "assignments_touched": 3 ** (2 * n + 1),
        "even_class_size": even_size,
    }
    return BenchResult(
        mode="baseline",
        n=n,
        reps=reps,
        seed=seed,
        median_seconds=float(np.median(times)),
        rep_seconds=tuple(times),
        details=details,
    )


def run_explicit_sweep(
    ns: Sequence[int] = DEFAULT_SWEEP,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> list[BenchResult]:
    """One explicit-mode measurement per half-length in ``ns``."""
    return [bench_explicit(n, reps=reps, seed=seed) for n in ns]


def fit_latency_slope(results: Sequence[BenchResult]) -> float:
    """Least-squares slope of log10(median latency) against log10(n).

    A value near 1 means the per-call cost grows linearly with the
    cycle length.  Only explicit-mode results participate.
    """
    points = [
        (res.n, res.median_seconds) for res in results if res.mode == "explicit"
    ]
    if len(points) < 2:
        raise ValueError("need at least two explicit measurements to fit a slope")
    xs = np.log10([float(n) for n, _ in points])
    ys = np.log10([max(seconds, 1e-12) for _, seconds in points])
    return float(np.polyfit(xs, ys, 1)[0])
