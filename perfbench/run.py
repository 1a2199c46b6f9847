"""End-to-end benchmark of the ``expocolor`` CLI, with an optional traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cycle-large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

The benchmark generates its inputs from the seed with its own code, then
runs rounds of CLI calls (``python -m expocolor.cli`` on ``src/``) in
child processes: one process and one call at a time, closed loop, one
client.  Every output is checked against the benchmark's own reference
(:mod:`reference`).  Rounds repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
plain rounds with rounds run under :mod:`traced_cli` and reports the
per-layer metrics.  The names and units of both sets come from
``BENCHMARK.json``.  The last line of standard output is the result
object; the line before it is a report with the environment and details.
Inputs, the report and the spans are kept in ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracer import TARGETS, self_times
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_ROUNDS = 3

# A fixed process that uses no code of the repository: interpreter start,
# the numpy and json imports, a Python loop, a numpy pass and a build of a
# million small tuples, which tracks allocation-bound calls such as
# ``OddCycleCtx.make``.  One runs after every plain round of a
# ``--trace 0`` run.  The host's speed drifts by a third over minutes, and
# dividing by the mean time of this process in the same run cancels that
# drift (see README.md).
REFERENCE = [
    sys.executable,
    "-c",
    "import json\nimport numpy as np\n"
    "x = np.arange(8_000_000, dtype=np.int64) % 3\n"
    "s = sum(i * i for i in range(1_000_000)) + int(x.sum())\n"
    "t = tuple((i, i + 2) for i in range(1_000_000))\n"
    "json.loads(json.dumps(list(range(400_000))))",
]


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_model": None,
        "l3_cache": None,
        "note": (
            "figures are from whatever machine ran this; on a small shared "
            "host, other tenants add noise, so compare only runs made on "
            "the same machine"
        ),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    env["cpu_model"] = value.strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                env["l3_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EXPO_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Spawner:
    """Runs child processes through :mod:`spawner`, a small helper process.

    The helper's own peak RSS is small, so the peak RSS it reports is the
    child's own and not the benchmark's.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )

    def run(self, argv: list[str], out: Path, err: Path) -> tuple[float, int, int]:
        """Run argv to completion; return (wall seconds, exit code, peak RSS KiB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "out": str(out), "err": str(err)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended early")
        reply = json.loads(line)
        return reply["wall"], reply["code"], reply["maxrss_kb"]

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def measure_setup(sp: Spawner, work: Path, wl: Workload) -> float:
    """Seconds for ``import expocolor`` plus the fixed state, in a fresh interpreter."""
    code = (
        "import time\nt0 = time.perf_counter()\nimport expocolor\n"
        f"{wl.setup_code}\nprint(time.perf_counter() - t0)"
    )
    out, err = work / "setup.out", work / "setup.err"
    _, rc, _ = sp.run([sys.executable, "-c", code], out, err)
    if rc != 0:
        raise RuntimeError(f"setup failed ({rc}): {err.read_text()[-500:]}")
    return float(out.read_text())


def run_round(sp: Spawner, work: Path, wl: Workload, traced: bool, tag: str) -> dict:
    wl.reset()
    rnd = {"wall": 0.0, "calls": [], "attempted": 0, "failed": 0, "items": 0,
           "rss_kb": 0, "problems": [], "spans": []}
    out, err = work / "call.out", work / "call.err"
    for i, call in enumerate(wl.calls):
        spans_path = work / f"spans-{tag}-{i}.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--", *call.args]
        else:
            argv = [sys.executable, "-m", "expocolor.cli", *call.args]
        wall, code, rss = sp.run(argv, out, err)
        outcome = call.check(out.read_text(), code)
        if code != 0:
            outcome.problems.append(err.read_text()[-300:])
        rnd["wall"] += wall
        rnd["calls"].append(wall)
        rnd["rss_kb"] = max(rnd["rss_kb"], rss)
        rnd["attempted"] += outcome.attempted
        rnd["failed"] += outcome.failed
        rnd["items"] += outcome.items
        rnd["problems"] += [f"call {i}: {p}" for p in outcome.problems]
        if traced and spans_path.exists():
            rnd["spans"].append(json.loads(spans_path.read_text()))
            spans_path.unlink()
    return rnd


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least min(10, n // 4) samples beyond it.

    Returns (value, percentile, samples beyond).  With 40 or more samples
    this is the usual ">= 10 samples beyond" rule; shorter runs keep a
    quarter of their samples beyond the reported point.
    """
    xs = sorted(values)
    beyond = min(10, len(xs) // 4)
    idx = len(xs) - 1 - beyond
    return xs[idx], 100.0 * (idx + 1) / len(xs), beyond


def layer_metrics(traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics: times are means per traced round, counts per round.

    Rounds repeat the same inputs, so counts come from the first traced
    round; the flag says whether every round repeated them exactly.
    """
    rounds = len(traced)
    times: dict[str, list[float]] = {
        name: [0.0, 0.0] for name in [n for _, _, n in TARGETS] + ["import.expocolor"]
    }
    per_round: list[Counter] = []
    for rnd in traced:
        counts: Counter = Counter()
        for call in rnd["spans"]:
            for name, t in self_times(call["spans"]).items():
                times.setdefault(name, [0.0, 0.0])
                times[name][0] += t["self_s"] / rounds
                times[name][1] += t["incl_s"] / rounds
                counts[f"{name}.calls"] += t["calls"]
            counts.update(call["counts"])
        per_round.append(counts)
    counts = per_round[0]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name, (self_s, incl_s) in times.items():
        m[f"{name}.calls"] = counts[f"{name}.calls"]
        m[f"{name}.self_s"] = self_s
        m[f"{name}.incl_s"] = incl_s
        if name.startswith("verify."):
            m[f"{name}.checked_per_s"] = ratio(counts[f"{name}.checked"], incl_s)
    m["coloring.color_vertex.entries_per_s"] = ratio(
        counts["coloring.color_vertex.entries"], times["coloring.color_vertex"][0]
    )
    hits, misses = counts["cache.hits"], counts["cache.misses"]
    m["cache.hits"], m["cache.misses"] = hits, misses
    m["cache.hit_ratio"] = ratio(hits, hits + misses)
    m["cache.scan_depth_mean"] = ratio(counts["cache.scan_depth_sum"], hits)
    m["verify.end_to_end.draws_per_sample"] = ratio(
        counts["verify.end_to_end.draws"], counts["verify.end_to_end.samples"]
    )
    for branch in ("EqualEndpoints", "BelowHalf", "AboveHalf"):
        m[f"branch.{branch}"] = counts[f"branch.{branch}"]
    accounted = times["import.expocolor"][1] + times["cli.main"][1]
    m["tracing.traced_wall_s"] = statistics.mean(r["wall"] for r in traced)
    m["tracing.unaccounted_s"] = m["tracing.traced_wall_s"] - accounted
    return m, all(c == counts for c in per_round)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[name](seed, work)
    # Set-up probes are spread evenly over the measuring window, between
    # rounds, so that they and the rounds sample the same spell of the
    # host's speed and the run lasts about ``seconds``.
    setup: list[float] = []
    probes = 0 if trace else wl.setup_reps
    plain: list[dict] = []
    traced: list[dict] = []
    reference: list[float] = []
    with Spawner() as sp:
        sp.run([sys.executable, "-c", "import expocolor.cli"], work / "warm.out", work / "warm.err")
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(setup) < probes and elapsed >= len(setup) * seconds / probes:
                setup.append(measure_setup(sp, work, wl))
            elif len(setup) < probes or len(plain) < MIN_ROUNDS or elapsed < seconds:
                plain.append(run_round(sp, work, wl, False, f"p{len(plain)}"))
                if trace:
                    traced.append(run_round(sp, work, wl, True, f"t{len(traced)}"))
                else:
                    wall, code, _ = sp.run(REFERENCE, work / "ref.out", work / "ref.err")
                    if code != 0:
                        raise RuntimeError(f"reference process failed: {(work / 'ref.err').read_text()}")
                    reference.append(wall)
            else:
                break
    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    walls = [r["wall"] for r in plain]
    tail_value, tail_pct, tail_beyond = tail(walls)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "client": "closed loop, one client, one CLI process at a time",
        "rounds": len(plain), "traced_rounds": len(traced),
        "calls_per_round": [" ".join(c.args[:1] + c.args[1:4]) for c in wl.calls],
        "call_mean_s": [statistics.mean(r["calls"][i] for r in plain) for i in range(len(wl.calls))],
        "wall_tail": {"percentile": tail_pct, "samples_beyond": tail_beyond, "samples": len(walls)},
        "round_wall_s": walls,
        "reference_runs_s": reference,
        "setup_reps_s": setup,
        "fail_frac": failed / attempted if attempted else 1.0,
        "problems": [p for r in rounds for p in r["problems"]][:10],
    }
    # Means, not medians: the speed of a shared host jumps by a third
    # between spells of a few seconds, and a median snaps to whichever
    # spell held longest while a mean weighs each by how long it lasted.
    metrics = {
        "wall_s": statistics.mean(walls),
        "wall_tail_s": tail_value,
        "items_per_s": sum(r["items"] for r in plain) / sum(walls),
        "peak_rss_mb": max(r["rss_kb"] for r in plain) / 1024,
    }
    if not trace:
        ref = statistics.mean(reference)
        metrics |= {
            "reference_s": ref,
            "setup_s": statistics.median(setup),
            "wall_rel": metrics["wall_s"] / ref,
            "items_per_ref": metrics["items_per_s"] * ref,
        }
    if trace:
        layers, repeat = layer_metrics(traced)
        layers["tracing.overhead_s"] = layers["tracing.traced_wall_s"] - metrics["wall_s"]
        report["counts_repeat"] = repeat
        report["layers"] = layers
        report["missing_targets"] = sorted(
            {m for r in traced for call in r["spans"] for m in call["missing"]}
        )
        (work / "spans.json").write_text(json.dumps([
            {"call_id": f"round{i}-call{j}", "spans": call["spans"], "counts": call["counts"]}
            for i, r in enumerate(traced) for j, call in enumerate(r["spans"])
        ]))
        metrics = layers
    report["metrics_all"] = metrics
    declared = spec["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (work / "report.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    return {"report": report, "result": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "expocolor" / "__init__.py").is_file():
        print(f"error: no expocolor sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload != "all":
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps({"report": out["report"]}))
        print(json.dumps(out["result"]))
        return 0
    summary = {}
    for name in WORKLOADS:
        for trace in (False, True):
            out = run_workload(name, args.seed, args.seconds, trace, spec)
            summary[f"{name}/trace{int(trace)}"] = out["result"]
            print(json.dumps({"workload": name, "trace": int(trace), "fail_frac": out["report"]["fail_frac"], **out["result"]}))
    print(json.dumps({"correct": all(r["correct"] for r in summary.values()), "runs": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
