"""rsp7 benchmark: run one workload for a while and print one JSON result.

    python3 bench/run.py --workload sweep-averaged --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.
Earlier lines give the environment and a readable summary.  The run
also writes ``bench/out/<workload>-seed<seed>-trace<t>.json`` (and, when
traced, the recorded spans in ``...-spans.json``).  It uses the sources
in ``src/`` of the checkout it lives in and exits with code 2 when they
are missing.
"""

from __future__ import annotations

import os

# One BLAS thread: steadier timings on a shared machine.  Set before
# numpy loads, and inherited by the set-up child processes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = OUT_DIR / "work"  # CSV files the operations write

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: The 90th percentile is printed only when at least ten samples lie above it.
P90_MIN_OPS = 100

#: Set-up samples per run, taken at even times across the timed loop (the
#: machine's speed can change within seconds) and topped up after it.
SETUP_SAMPLES = 9
#: Fewest untraced operations a run times, so a median has a few samples
#: even where one operation takes half of ``--seconds``.
MIN_OPS = 3

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import rsp7
from rsp7 import channel, protocol
channel.build_channel()
protocol.recovery_table()
print(time.perf_counter() - t0)
"""


def import_library():
    """Import rsp7 from this checkout's src/, or None when it is not there."""
    if not (SRC / "rsp7" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import rsp7

    if Path(rsp7.__file__).resolve().parent != SRC / "rsp7":
        return None
    return rsp7


# ---------------------------------------------------------------------------
# Environment.


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        return None
    return None


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; never look above it
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_rev": _git_rev(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement.


def setup_sample() -> float:
    """One fresh process: import rsp7 and make the first channel and
    recovery-table builds.  Interpreter start-up is not included."""
    out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class RunResult:
    work: int = 0
    cycles: int = 0
    latencies: dict = field(default_factory=lambda: {False: [], True: []})
    by_label: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def failed(self) -> int:
        return len(self.problems)


def _timed(op, scope) -> tuple[float, list]:
    """Run one operation in ``scope``; return its wall time and its problems."""
    t0 = time.perf_counter()
    try:
        with scope:
            output = op.call()
    except Exception:  # a failed operation is counted, not fatal
        return time.perf_counter() - t0, [traceback.format_exc()]
    dt = time.perf_counter() - t0
    try:
        return dt, op.check(output)
    except Exception:
        return dt, [f"check raised: {traceback.format_exc()}"]


def run_workload(workload, seed: int, seconds: float, tracer=None,
                 setup_samples: int = 0) -> RunResult:
    """Closed loop, one client: whole cycles of operations for about ``seconds``,
    and at least ``MIN_OPS`` untraced operations.

    With a tracer, every operation runs untraced and then traced on the same
    inputs, so their difference is the tracing overhead.  ``setup_samples``
    set-up processes run between cycles, spread evenly over the loop; their
    time is left out of the loop's clock.
    """
    rng = random.Random(seed)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    modes = (False, True) if tracer is not None else (False,)
    res = RunResult()
    loop_s = 0.0
    while True:
        due = min(setup_samples, 1 + int(setup_samples * loop_s / max(seconds, 1e-9)))
        while len(res.setup_s) < due:
            res.setup_s.append(setup_sample())
        start = time.perf_counter()
        for op in workload.cycle(rng, WORK_DIR):
            for traced in modes:
                dt, found = _timed(op, tracer.operation() if traced else contextlib.nullcontext())
                if found:
                    res.problems.append({"op": op.label, "traced": traced, "problems": found})
                else:
                    res.work += op.work
                res.latencies[traced].append(dt)
                if not traced:
                    res.by_label.setdefault(op.label, []).append(dt)
        res.cycles += 1
        loop_s += time.perf_counter() - start
        if len(res.latencies[False]) >= MIN_OPS and loop_s * (1 + 1 / res.cycles) > seconds:
            break
    while len(res.setup_s) < setup_samples:
        res.setup_s.append(setup_sample())
    return res


def end_to_end_metrics(res: RunResult) -> dict:
    times = res.latencies[False]
    return {
        "setup_s": statistics.median(res.setup_s),
        "work_per_s": res.work / sum(times),
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_call_table(tracer) -> list:
    """Inclusive and self milliseconds per call of each traced function."""
    calls, self_s, incl_s = tracer.totals()
    return [
        {"name": name, "calls_per_op": calls[name] / tracer.n_ops,
         "incl_ms_per_call": 1e3 * incl_s[name] / calls[name],
         "self_ms_per_call": 1e3 * self_s[name] / calls[name]}
        for name in sorted(calls, key=lambda n: -incl_s[n])
    ]


# ---------------------------------------------------------------------------
# Entry point.


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_library() is None:
        print(f"error: rsp7 sources not found under {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    print("env: " + json.dumps(env))

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    # The golden sweeps also build the cached channel and recovery table,
    # so the timed operations start warm.
    golden = workloads.check_golden(WORK_DIR)
    tracer = tracing.Tracer() if args.trace else None
    res = run_workload(workload, args.seed, args.seconds, tracer,
                       setup_samples=0 if args.trace else SETUP_SAMPLES)
    if golden:
        res.problems.append({"op": "golden", "problems": golden})
    attempted = res.attempted + 1  # the golden comparison counts as one

    report = {"workload": args.workload, "why": workload.why, "seconds": args.seconds,
              "env": env, "cycles": res.cycles, "attempted": attempted,
              "failed": res.failed, "work": res.work, "work_unit": workload.work_unit,
              "op_median_s": {k: statistics.median(v) for k, v in res.by_label.items()},
              "op_count": {k: len(v) for k, v in res.by_label.items()},
              "op_s": res.latencies[False],
              "setup_samples_s": res.setup_s,
              "problems": res.problems}
    if tracer is None:
        values = end_to_end_metrics(res)
        units = END_TO_END
        if len(res.latencies[False]) >= P90_MIN_OPS:
            report["op_p90_s"] = statistics.quantiles(res.latencies[False], n=10,
                                                      method="inclusive")[8]
    else:
        values = tracer.layer_metrics()
        values["trace.overhead_s"] = statistics.median(
            t - u for u, t in zip(res.latencies[False], res.latencies[True]))
        units = tracing.LAYER_UNITS
        report["per_call"] = per_call_table(tracer)
        tracer.dump(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["metrics"] = metrics
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")

    print(f"{args.workload} seed={args.seed}: {res.attempted} operations in "
          f"{res.cycles} cycles, {res.work} {workload.work_unit}, "
          f"{res.failed} failed of {attempted} (error_rate {res.failed / attempted:.4g})")
    for p in res.problems:
        print(f"  FAILED {p['op']}: {p['problems'][0].strip()[:300]}")
    for name, m in metrics.items():
        label = f"{workload.work_unit}_per_s" if name == "work_per_s" else name
        print(f"  {label:<40} {m['value']:.6g} {m['unit']}")
    if "op_p90_s" in report:
        print(f"  {'op_p90_s (not in BENCHMARK.json)':<40} {report['op_p90_s']:.6g} s")
    if tracer is not None:
        print("  per call:   name  calls/op  incl_ms/call  self_ms/call")
        for row in report["per_call"]:
            print(f"    {row['name']:<32} {row['calls_per_op']:>10.1f} "
                  f"{row['incl_ms_per_call']:>10.4f} {row['self_ms_per_call']:>10.4f}")
    print(json.dumps({"correct": res.failed == 0, "attempted": attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
