"""Self-test of the benchmark harness (about two minutes).

    python3 bench/selftest.py

Checks that the metrics run.py reports are the ones BENCHMARK.json
declares, that the work counters of a traced run repeat exactly for a
given seed, and that a corrupted output, a raising operation and a
golden mismatch are each counted as failures.  Exits 1 on any failure.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys

import run

if run.import_library() is None:
    sys.exit(f"error: rsp7 sources not found under {run.SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def check_declaration() -> list:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("end-to-end metrics differ from BENCHMARK.json")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != tracing.LAYER_UNITS:
        problems.append("per-layer metrics differ from BENCHMARK.json")
    return problems


def counters(workload) -> dict:
    """Work counters of a traced run's shortest loop."""
    tracer = tracing.Tracer()
    res = run.run_workload(workload, SEED, 0, tracer)
    calls, _, _ = tracer.totals()
    return {"work": res.work, "attempted": res.attempted, "failed": res.failed,
            "calls": dict(calls), "counters": dict(tracer.counters)}


def check_counters_repeat(workload) -> list:
    first, second = counters(workload), counters(workload)
    if first != second:
        return [f"counters differ between two runs of seed {SEED}: {first} vs {second}"]
    if first["failed"]:
        return [f"{first['failed']} operations failed"]
    return []


def _corrupt(output):
    if isinstance(output, workloads.CliResult):
        if output.csv_text is not None:  # sweeps: one fidelity above 1
            rows = list(csv.reader(io.StringIO(output.csv_text)))
            rows[1][7] = "1.5"
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            return dataclasses.replace(output, csv_text=buf.getvalue())
        # rounds: the first operation of the cycle is a sampled run
        return dataclasses.replace(output, stdout=output.stdout.replace(
            "fidelity: 1.000000000000", "fidelity: 0.999000000000"))
    # trajectory: move the estimate ten standard errors away
    return dataclasses.replace(output, fidelity=output.fidelity + 10 * output.std_error)


def check_corruption_counted(workload) -> list:
    """Corrupt the output of the first operation of the first cycle."""
    cycles = []

    def cycle(rng, work_dir):
        ops = workload.cycle(rng, work_dir)
        if not cycles:
            op = ops[0]
            ops[0] = dataclasses.replace(op, call=lambda: _corrupt(op.call()))
        cycles.append(len(ops))
        return ops

    res = run.run_workload(dataclasses.replace(workload, cycle=cycle), SEED, 0)
    if res.failed != 1 or res.attempted != sum(cycles):
        return [f"corrupting 1 of {sum(cycles)} outputs gave {res.failed} failed "
                f"of {res.attempted} attempted"]
    return []


def check_raise_counted() -> list:
    def boom():
        raise RuntimeError("injected")

    fake = workloads.Workload("raise", "", "ops", lambda rng, work_dir: [
        workloads.Op("boom", boom, lambda r: [], work=1),
        workloads.Op("fine", lambda: 0, lambda r: [], work=1)])
    res = run.run_workload(fake, SEED, 0)
    if (res.failed, res.attempted, res.work) != (res.cycles, 2 * res.cycles, res.cycles):
        return [f"raising operation gave failed={res.failed} attempted={res.attempted}"]
    return []


def check_golden_mismatch() -> list:
    text = (workloads.GOLDEN_DIR / "averaged.csv").read_text(encoding="utf-8")
    problems = []
    if workloads.compare_csv(text, text):
        problems.append("golden file differs from itself")
    near = text.replace("0.547265707342", "0.547265707343", 1)
    if workloads.compare_csv(near, text):
        problems.append("a 1e-12 difference was flagged")
    far = text.replace("0.547265707342", "0.547265707352", 1)
    if len(workloads.compare_csv(far, text)) != 1:
        problems.append("a 1e-11 difference was not flagged once")
    return problems


def main() -> int:
    checks = [("metrics match BENCHMARK.json", check_declaration),
              ("raising operation counted", check_raise_counted),
              ("golden comparison tolerance", check_golden_mismatch)]
    for w in workloads.WORKLOADS.values():
        checks.append((f"{w.name}: corrupted output counted",
                       lambda w=w: check_corruption_counted(w)))
        checks.append((f"{w.name}: work counters repeat for one seed",
                       lambda w=w: check_counters_repeat(w)))
    failed = 0
    for name, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'}  {name}")
        for p in problems:
            print(f"      {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
