"""The four benchmark workloads, their inputs and their correctness checks.

Each workload turns a seeded ``random.Random`` into a fixed cycle of
operations.  An operation calls the library only through its public
functions (``cli.main``, ``noise.trajectory_estimate``) and returns the
raw output; its check runs afterwards, outside the timed span, and
returns a list of problems (empty when the output is correct).  An
operation that raises is a failure without a check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
import traceback
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Callable, Optional

from rsp7 import analysis, cli, noise, protocol

KINDS = tuple(k.value for k in noise.NoiseKind)
STEPS = 11
SWEEP_ROWS = len(KINDS) * STEPS
ETA_GRID = tuple(f"{i / (STEPS - 1):.12f}" for i in range(STEPS))
#: Samples per trajectory call: small enough for about thirty calls in a
#: 20 s run, so the run's median is steady.
TRAJECTORY_SAMPLES = 5_000
DECOYS = 10
OUTSIDE_TRIALS = 100_000
INSIDE_SAMPLES = 100


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    csv_text: Optional[str] = None


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    work: int  # units of the workload's work counter one correct call completes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    cycle: Callable[[random.Random, Path], list]


# ---------------------------------------------------------------------------
# Inputs.


def _target_args(target: protocol.TargetState) -> list:
    # the "--flag=value" form keeps argparse from reading "-1e-05" as a flag
    a, b = target.alpha, target.beta
    return [f"--alpha={a.real!r}", f"--alpha-im={a.imag!r}",
            f"--beta={b.real!r}", f"--beta-im={b.imag!r}"]


def _key(rng: random.Random) -> protocol.OutcomeKey:
    return protocol.ALL_OUTCOME_KEYS[rng.randrange(len(protocol.ALL_OUTCOME_KEYS))]


def run_cli(argv: list) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _with_csv(result: CliResult, csv_path: Path) -> CliResult:
    text = csv_path.read_text(encoding="utf-8") if result.code == 0 else None
    return CliResult(result.code, result.stdout, result.stderr, text)


def _exit_problems(result: CliResult) -> list:
    if result.code != 0:
        return [f"exit code {result.code}: {result.stderr.strip()[:200]}"]
    return []


def _field(stdout: str, name: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(name + ":"):
            return line.partition(":")[2].strip()
    raise ValueError(f"no '{name}:' line in output")


# ---------------------------------------------------------------------------
# Sweeps.


def check_sweep(result, truncated_requested: bool) -> list:
    problems = _exit_problems(result)
    if problems:
        return problems
    rows = list(csv.reader(io.StringIO(result.csv_text)))[1:]
    if len(rows) != SWEEP_ROWS:
        problems.append(f"{len(rows)} rows, expected {SWEEP_ROWS}")
    grid = sorted((r[0], r[1]) for r in rows)
    if grid != sorted((k, e) for k in KINDS for e in ETA_GRID):
        problems.append("rows do not cover the 6 kinds x 11 eta grid")
    for rec in rows:
        for col, wanted in ((7, True), (8, truncated_requested)):
            cell = rec[col]
            if not wanted:
                if cell != "":
                    problems.append(f"{rec[0]} eta={rec[1]}: unrequested column {col} = {cell!r}")
                continue
            if cell == "impossible-branch":
                continue
            try:
                f = float(cell)
            except ValueError:
                problems.append(f"{rec[0]} eta={rec[1]}: column {col} = {cell!r}")
                continue
            if not -1e-10 <= f <= 1.0 + 1e-10:
                problems.append(f"{rec[0]} eta={rec[1]}: fidelity {f} outside [0, 1]")
            if float(rec[1]) == 0.0 and abs(f - 1.0) > 1e-12:
                problems.append(f"{rec[0]} eta=0: fidelity {f} is not 1")
    return problems


def _sweep_op(label: str, argv: list, csv_path: Path, truncated: bool) -> Op:
    argv = argv + ["--out", str(csv_path)]
    return Op(
        label=label,
        call=lambda: _with_csv(run_cli(argv), csv_path),
        check=lambda r: check_sweep(r, truncated),
        work=SWEEP_ROWS,
    )


def sweep_averaged_cycle(rng: random.Random, work_dir: Path) -> list:
    argv = ["sweep", *_target_args(protocol.TargetState.random(rng)), "--noise", "all",
            "--steps", str(STEPS), "--model", "both"]
    return [_sweep_op("sweep-averaged", argv, work_dir / "sweep-averaged.csv", True)]


def sweep_branch_cycle(rng: random.Random, work_dir: Path) -> list:
    target = protocol.TargetState.random(rng)
    argv = ["sweep", *_target_args(target), "--noise", "all", "--steps", str(STEPS),
            "--branch", _key(rng).label(), "--scope", "transmitted", "--model", "exact"]
    return [_sweep_op("sweep-branch", argv, work_dir / "sweep-branch.csv", False)]


# ---------------------------------------------------------------------------
# Trajectory oracle.


def check_trajectory(result, target, key, spec) -> list:
    problems = []
    if result.n_samples != TRAJECTORY_SAMPLES:
        problems.append(f"{result.n_samples} samples, expected {TRAJECTORY_SAMPLES}")
    exact = analysis.branch_fidelity(target, key, spec, noise.EvolutionModel.EXACT)
    if not abs(result.fidelity - exact) <= 5.0 * result.std_error:
        problems.append(
            f"{spec.kind.value} eta={spec.eta!r} {key.label()}: estimate {result.fidelity} "
            f"+- {result.std_error} vs exact {exact}"
        )
    return problems


def trajectory_cycle(rng: random.Random, work_dir: Path) -> list:
    ops = []
    for kind in noise.NoiseKind:
        target = protocol.TargetState.random(rng)
        key = _key(rng)
        spec = noise.NoiseSpec(kind, rng.uniform(0.05, 0.95))
        seed = rng.randrange(2 ** 31)
        ops.append(Op(
            label=f"trajectory:{kind.value}",
            call=lambda t=target, k=key, s=spec, sd=seed: noise.trajectory_estimate(
                t, k, s, TRAJECTORY_SAMPLES, seed=sd),
            check=lambda r, t=target, k=key, s=spec: check_trajectory(r, t, k, s),
            work=TRAJECTORY_SAMPLES,
        ))
    return ops


# ---------------------------------------------------------------------------
# Rounds: small CLI commands in a fixed mix.


def check_run(result, forced: Optional[str]) -> list:
    problems = _exit_problems(result)
    if problems:
        return problems
    fid = float(_field(result.stdout, "fidelity"))
    if abs(fid - 1.0) > 1e-12:
        problems.append(f"run fidelity {fid} is not 1")
    if forced is not None and _field(result.stdout, "outcome") != forced:
        problems.append(f"outcome {_field(result.stdout, 'outcome')} is not forced {forced}")
    return problems


def check_inside(result) -> list:
    problems = _exit_problems(result)
    if not problems and _field(result.stdout, "attacker state always mixed "
                               "(purity < 1 - 1e-6)") != "yes":
        problems.append("inside attack left the attacker state pure")
    return problems


def check_outside(result) -> list:
    problems = _exit_problems(result)
    if problems:
        return problems
    est = float(_field(result.stdout, "detection probability estimate"))
    se = float(_field(result.stdout, "standard error"))
    want = 1.0 - 0.75 ** DECOYS
    if not abs(est - want) <= 5.0 * se:
        problems.append(f"detection estimate {est} +- {se} vs 1 - (3/4)^{DECOYS} = {want}")
    return problems


#: One cycle of the rounds workload: mostly sampled protocol runs, some
#: forced ones, a few inside attacks and one large outside attack.
ROUNDS_MIX = ("run-seed",) * 16 + ("run-force",) * 4 + ("inside",) * 3 + ("outside",)


def rounds_cycle(rng: random.Random, work_dir: Path) -> list:
    ops = []
    for kind in ROUNDS_MIX:
        seed = str(rng.randrange(2 ** 31))
        if kind == "run-seed":
            argv = ["run", *_target_args(protocol.TargetState.random(rng)), "--seed", seed]
            check = lambda r: check_run(r, None)
        elif kind == "run-force":
            key = _key(rng).label()
            argv = ["run", *_target_args(protocol.TargetState.random(rng)),
                    "--force-outcome", key]
            check = lambda r, key=key: check_run(r, key)
        elif kind == "inside":
            argv = ["security", "--mode", "inside", "--samples", str(INSIDE_SAMPLES),
                    "--seed", seed]
            check = check_inside
        else:
            argv = ["security", "--mode", "outside", "--decoys", str(DECOYS),
                    "--trials", str(OUTSIDE_TRIALS), "--seed", seed]
            check = check_outside
        ops.append(Op(kind, lambda argv=argv: run_cli(argv), check, work=1))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-averaged",
                 "default sweep, averaged branch on all seven qubits: the density "
                 "engine's heaviest use (16 branch reductions per cell)",
                 "cells", sweep_averaged_cycle),
        Workload("sweep-branch",
                 "one forced branch, six noisy qubits, exact model: the noise engine "
                 "with 1 reduction per cell",
                 "cells", sweep_branch_cycle),
        Workload("trajectory",
                 "Monte-Carlo trajectory oracle behind criterion 06; bypasses the "
                 "density engine",
                 "samples", trajectory_cycle),
        Workload("rounds",
                 "small CLI commands: protocol runs, attacks and per-call CLI overhead",
                 "commands", rounds_cycle),
    )
}


# ---------------------------------------------------------------------------
# Golden sweeps, compared once per run.

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: (file, argv).  Regenerate a file only for a deliberate change of results:
#: run the argv through ``rsp7 sweep --out FILE``.
GOLDEN = (
    ("averaged.csv", ["sweep", "--alpha=0.6", "--beta=0.8", "--noise", "all",
                      "--steps", "2", "--eta-start", "0.3", "--eta-end", "0.9",
                      "--model", "both"]),
    ("branch.csv", ["sweep", "--alpha=-0.5", "--alpha-im=0.5", "--beta=0.5",
                    "--beta-im=-0.5", "--noise", "all", "--branch", "U2,01,11",
                    "--scope", "transmitted", "--model", "exact"]),
)

_NUMERIC_COLUMNS = (1, 2, 3, 4, 5, 7, 8)
_TEXT_CELLS = ("", "impossible-branch")


def _within_1e12(a: str, b: str) -> bool:
    try:
        return abs(Decimal(a) - Decimal(b)) <= Decimal("1e-12")
    except InvalidOperation:  # unparsable or NaN
        return False


def compare_csv(got: str, want: str) -> list:
    """Field-by-field comparison; numbers within 1e-12, everything else exact."""
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} lines, golden has {len(want_rows)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        for col, (a, b) in enumerate(zip(g, w)):
            if i > 0 and col in _NUMERIC_COLUMNS and b not in _TEXT_CELLS:
                if not _within_1e12(a, b):
                    problems.append(f"line {i + 1} column {col}: {a!r} vs golden {b}")
            elif a != b:
                problems.append(f"line {i + 1} column {col}: {a!r} vs golden {b!r}")
        if len(g) != len(w):
            problems.append(f"line {i + 1}: {len(g)} fields, golden has {len(w)}")
    return problems


def check_golden(work_dir: Path) -> list:
    problems = []
    for name, argv in GOLDEN:
        path = work_dir / f"golden-{name}"
        try:
            result = _with_csv(run_cli(argv + ["--out", str(path)]), path)
        except Exception:  # counted as a failed comparison, not fatal
            found = [traceback.format_exc()]
        else:
            found = _exit_problems(result) or compare_csv(
                result.csv_text, (GOLDEN_DIR / name).read_text(encoding="utf-8"))
        problems.extend(f"golden {name}: {p}" for p in found)
    return problems
