import argparse
import contextlib
import csv
import importlib.util
import io
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsp7 import analysis, channel, cli, noise
from rsp7.analysis import SweepConfig
from rsp7.cli import main
from rsp7.noise import EvolutionModel, NoiseKind
from rsp7.protocol import OutcomeKey, TargetState


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sweep_csv_text(config):
    buf = io.StringIO()
    cli.write_sweep_csv(buf, config, analysis.fidelity_sweep(config))
    return buf.getvalue()


# --------------------------------------------------------------------------
# run


def test_run_trivial_target(capsys):
    code, out, err = run_cli(["run", "--alpha", "1", "--beta", "0",
                              "--seed", "42"], capsys)
    assert code == 0
    assert "fidelity: 1.000000000000" in out
    assert out.startswith("outcome: U")
    assert "probability: 0.062500000000" in out


def test_run_forced_outcome_gate_line(capsys):
    code, out, err = run_cli(["run", "--alpha", "0.6", "--beta", "0.8",
                              "--force-outcome", "U1,00,00"], capsys)
    assert code == 0
    assert "gates: CX12 H1 Z1" in out
    assert "outcome: U1,00,00" in out


def test_run_zero_amplitude_prints_without_sign():
    # a component that rounds to zero carries no sign, whatever its rounding noise
    zero = "+0.000000000000"
    assert cli._fmt_amplitude(complex(-1e-17, 0.0)) == f"{zero}{zero}j"
    assert cli._fmt_amplitude(complex(-0.0, -0.0)) == f"{zero}{zero}j"
    assert cli._fmt_amplitude(complex(0.6, -3e-18)) == f"+0.600000000000{zero}j"
    assert cli._fmt_amplitude(complex(-0.8, 0.0)) == f"-0.800000000000{zero}j"


def test_run_seed_repeatability(capsys):
    a = run_cli(["run", "--alpha", "0.6", "--beta", "0.8", "--seed", "7"],
                capsys)
    b = run_cli(["run", "--alpha", "0.6", "--beta", "0.8", "--seed", "7"],
                capsys)
    assert a == b


def test_run_near_unit_amplitudes_accepted(capsys):
    code, out, _ = run_cli(["run", "--alpha", "0.70710678", "--beta",
                            "0.70710678", "--seed", "1"], capsys)
    assert code == 0
    assert "fidelity: 1.000000000000" in out


def test_run_usage_errors(capsys):
    code, _, err = run_cli(["run", "--alpha", "0.6", "--beta", "0.8"], capsys)
    assert code == 2
    assert "exactly one" in err
    code, _, err = run_cli(["run", "--alpha", "0.9", "--beta", "0.9",
                            "--seed", "1"], capsys)
    assert code == 2
    assert "normalized" in err
    code, _, err = run_cli(["run", "--alpha", "1", "--beta", "0",
                            "--force-outcome", "nonsense"], capsys)
    assert code == 2


def test_run_non_finite_amplitudes(capsys):
    for args in (["--alpha", "nan", "--beta", "0"],
                 ["--alpha", "0.6", "--beta", "0.8", "--beta-im", "inf"]):
        code, out, err = run_cli(["run", *args, "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err


_ANGLES = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=100, deadline=None)
@given(t=_ANGLES, phase=_ANGLES,
       relative=st.one_of(st.sampled_from([0.0, math.pi]), _ANGLES),
       scale=st.one_of(st.just(1.0), st.floats(0.0, 2.0)))
def test_run_exits_zero_or_two_on_any_target(t, phase, relative, scale):
    # alpha and beta each carry a phase; a relative phase of 0 or pi is a shared one
    alpha = scale * math.cos(t) * complex(math.cos(phase), math.sin(phase))
    beta = scale * math.sin(t) * complex(math.cos(phase + relative), math.sin(phase + relative))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", f"--alpha={alpha.real!r}", f"--alpha-im={alpha.imag!r}",
                     f"--beta={beta.real!r}", f"--beta-im={beta.imag!r}", "--seed", "0"])
    if scale == 1.0 and relative in (0.0, math.pi):
        assert code == 0
    assert code in (0, 2)
    if code == 0:
        assert "fidelity: 1.000000000000\n" in out.getvalue()
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


SEED_MESSAGE = "--seed must be a non-negative integer"
RELATIVE_PHASE_MESSAGE = ("sender basis is not orthonormal: alpha and beta must be real "
                          "up to one shared global phase")


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["run", "--alpha", "1", "--beta", "0", "--force-outcome", "U1,00,01"], 3,
                 "forced branch U1,00,01 has probability 0.000000000000; "
                 "helper pattern (00,01) never occurs", id="run-impossible-forced-branch"),
    pytest.param(["sweep", "--alpha", "1", "--beta", "0", "--branch", "U1,10,11",
                  "--out", "{tmp}/never.csv"], 3,
                 "forced branch U1,10,11 has probability 0.000000000000; "
                 "helper pattern (10,11) never occurs", id="sweep-impossible-branch"),
    pytest.param(["sweep", "--alpha", "1", "--beta", "0", "--branch", "U3,00,00",
                  "--out", "{tmp}/never.csv"], 2,
                 "expected 'U1,cc,dd' or 'U2,cc,dd', got 'U3,00,00'", id="sweep-malformed-branch"),
    pytest.param(["run", "--alpha", "1", "--beta", "0", "--seed", "-1"], 2, SEED_MESSAGE,
                 id="run-negative-seed"),
    pytest.param(["run", "--config", "{tmp}/seed.cfg"], 2, SEED_MESSAGE,
                 id="run-negative-seed-in-config"),
    pytest.param(["security", "--mode", "inside", "--seed", "-1"], 2, SEED_MESSAGE,
                 id="inside-negative-seed"),
    pytest.param(["security", "--mode", "outside", "--seed", "-1", "--trials", "10"], 2,
                 SEED_MESSAGE, id="outside-negative-seed"),
    pytest.param(["security", "--mode", "inside", "--samples", str(cli.MAX_INSIDE_SAMPLES + 1)],
                 2, "--samples must be at most 10000000", id="inside-samples-cap"),
    pytest.param(["security", "--mode", "inside", "--trivial", "--seed", "-1"], 2, SEED_MESSAGE,
                 id="inside-trivial-negative-seed"),
    pytest.param(["security", "--mode", "inside", "--trivial", "--samples", "0"], 2,
                 "--samples must be at least 1", id="inside-trivial-zero-samples"),
    pytest.param(["run", "--alpha", "0.28", "--beta", "0", "--beta-im", "0.96", "--seed", "1"],
                 2, RELATIVE_PHASE_MESSAGE, id="run-relative-phase"),
    pytest.param(["sweep", "--alpha", "0.28", "--beta", "0", "--beta-im", "0.96",
                  "--out", "{tmp}/never.csv"], 2, RELATIVE_PHASE_MESSAGE,
                 id="sweep-relative-phase"),
    pytest.param(["sweep", "--alpha", "0.6", "--beta", "0.8", "--noise", "bit_flip,bit_flip",
                  "--steps", "2", "--out", "{tmp}/never.csv"], 2, "kinds must not repeat",
                 id="sweep-repeated-kind"),
    pytest.param(["sweep", "--alpha", "0.6", "--beta", "0.8", "--noise", "bit_flip,all",
                  "--steps", "2", "--out", "{tmp}/never.csv"], 2,
                 "noise kind 'all' cannot be combined with other kinds", id="sweep-all-among-kinds"),
])
def test_bad_input_exits_without_traceback(tmp_path, capsys, monkeypatch, argv, code, message):
    def no_sampling(*args):
        raise AssertionError("attacks were sampled before the input was checked")

    monkeypatch.setattr(cli.analysis, "sample_inside_attacks", no_sampling)
    (tmp_path / "seed.cfg").write_text("alpha=1\nbeta=0\nseed=-1\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_cli(argv, capsys) == (code, "", f"error: {message}\n")
    assert not (tmp_path / "never.csv").exists()


def test_argparse_failures_return_two(capsys):
    code, _, _ = run_cli(["bogus-command"], capsys)
    assert code == 2
    code, _, _ = run_cli([], capsys)
    assert code == 2


# --------------------------------------------------------------------------
# sweep


def test_sweep_full_grid(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    args = ["sweep", "--alpha", "0.70710678", "--beta", "0.70710678",
            "--noise", "all", "--steps", "11", "--out", str(out_csv)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "wrote 66 rows" in out
    text = out_csv.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(cli.CSV_HEADER)
    assert len(lines) == 67
    # eta=0 rows carry exact fidelity 1
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] == "0.000000000000":
            assert cells[-2] == "1.000000000000"

    # byte-identical on a second invocation
    out2 = tmp_path / "sweep2.csv"
    run_cli(args[:-1] + [str(out2)], capsys)
    assert out2.read_text() == text


def test_sweep_round_trip(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    code, _, _ = run_cli(["sweep", "--alpha", "0.6", "--beta", "0.8",
                          "--noise", "bit_flip,phase_damping", "--steps", "4",
                          "--out", str(out_csv)], capsys)
    assert code == 0
    config = SweepConfig(kinds=(NoiseKind.BIT_FLIP, NoiseKind.PHASE_DAMPING),
                         target=TargetState(0.6, 0.8), eta_steps=4)
    assert out_csv.read_text() == sweep_csv_text(config)


def test_sweep_branch_with_error_marker(tmp_path, capsys):
    out_csv = tmp_path / "b.csv"
    code, _, _ = run_cli(["sweep", "--alpha", "0.70710678", "--beta",
                          "0.70710678", "--noise", "amplitude_damping",
                          "--steps", "2", "--branch", "U1,11,11",
                          "--out", str(out_csv)], capsys)
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    last = lines[-1]
    assert last.split(",")[-1] == "impossible-branch"
    assert last.split(",")[-2] == "impossible-branch"
    # the file is the library's sweep, impossible-branch cells included
    a = 0.70710678
    norm = math.sqrt(a * a + a * a)
    config = SweepConfig(kinds=(NoiseKind.AMPLITUDE_DAMPING,),
                         target=TargetState(a / norm, a / norm), eta_steps=2,
                         branch=OutcomeKey(1, "11", "11"))
    assert out_csv.read_text() == sweep_csv_text(config)


def test_sweep_cell_prints_a_vanishing_fidelity_without_sign():
    # bit-phase flip at eta = 1 on a forced branch can leave -1e-17; next to
    # an impossible cell, under a label with commas, with no truncated column
    config = SweepConfig(kinds=(NoiseKind.BIT_PHASE_FLIP,), target=TargetState(0.6, 0.8),
                         eta_start=1.0, eta_steps=4, models=(EvolutionModel.EXACT,),
                         branch=OutcomeKey(1, "00", "10"))
    out = io.StringIO()
    cli.write_sweep_csv(out, config,
                        {EvolutionModel.EXACT: np.array([[-2.6e-17, -0.0, 0.0, math.nan]])})
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(cli.CSV_HEADER)
    label = ["0.600000000000", "0.000000000000", "0.800000000000", "0.000000000000", "U1,00,10"]
    writer.writerows(["bit_phase_flip", "1.000000000000", *label, cell, ""]
                     for cell in ["0.000000000000"] * 3 + ["impossible-branch"])
    assert out.getvalue() == want.getvalue()


def test_sweep_unwritable_path(tmp_path, capsys, monkeypatch):
    def no_grid(config):
        raise AssertionError("the grid was computed before the path was checked")

    monkeypatch.setattr(cli.analysis, "fidelity_sweep", no_grid)
    code, _, err = run_cli(["sweep", "--alpha", "1", "--beta", "0",
                            "--out", str(tmp_path / "missing-dir" / "x.csv")], capsys)
    assert code == 4
    assert "cannot write" in err


def test_sweep_steps_limit(tmp_path, capsys, monkeypatch):
    def no_grid(config):
        assert config.eta_steps == cli.analysis.MAX_ETA_STEPS
        return {}

    monkeypatch.setattr(cli.analysis, "fidelity_sweep", no_grid)
    argv = ["sweep", "--alpha", "1", "--beta", "0", "--out", str(tmp_path / "s.csv")]
    code, _, err = run_cli(argv + ["--steps", str(cli.analysis.MAX_ETA_STEPS + 1)], capsys)
    assert code == 2
    assert "eta_steps must lie in [2, 10001]" in err
    assert not (tmp_path / "s.csv").exists()
    code, _, _ = run_cli(argv + ["--steps", str(cli.analysis.MAX_ETA_STEPS)], capsys)
    assert code == 0


def test_sweep_unknown_noise_kind(capsys):
    code, _, err = run_cli(["sweep", "--alpha", "1", "--beta", "0",
                            "--noise", "thermal"], capsys)
    assert code == 2
    assert "unknown noise kind" in err


def test_sweep_noise_all_may_carry_spaces(tmp_path, capsys):
    for name, noise in (("plain", "all"), ("spaced", " all")):
        argv = ["sweep", "--alpha", "0.6", "--beta", "0.8", "--noise", noise, "--steps", "3",
                "--out", str(tmp_path / f"{name}.csv")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out.startswith("wrote 18 rows"), err) == (0, True, "")
    assert (tmp_path / "spaced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_sweep_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, out, _ = run_cli(["sweep", "--alpha", "1", "--beta", "0",
                            "--noise", "bit_flip", "--steps", "2"], capsys)
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_svg(tmp_path, capsys):
    out_csv = tmp_path / "chart.csv"
    code, out, _ = run_cli(["sweep", "--alpha", "1", "--beta", "0",
                            "--noise", "bit_flip,depolarizing", "--steps", "3",
                            "--out", str(out_csv), "--svg"], capsys)
    assert code == 0
    svg = tmp_path / "chart.svg"
    assert svg.exists()
    body = svg.read_text()
    assert body.startswith("<svg")
    assert "polyline" in body


# --------------------------------------------------------------------------
# config file


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# protocol demo\nalpha=0.6\nbeta=0.8\nseed=5\n")
    code, out_file_only, _ = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 0
    direct = run_cli(["run", "--alpha", "0.6", "--beta", "0.8",
                      "--seed", "5"], capsys)[1]
    assert out_file_only == direct
    # flag wins over the file value
    code, out_flag, _ = run_cli(["run", "--config", str(cfg), "--seed", "6"],
                                capsys)
    assert code == 0
    assert out_flag == run_cli(["run", "--alpha", "0.6", "--beta", "0.8",
                                "--seed", "6"], capsys)[1]


def test_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.6\n")
    code, _, err = run_cli(["run", "--config", str(cfg), "--seed", "1"],
                           capsys)
    assert code == 2
    assert "key=value" in err


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("alpha=0.6\nbeta=0.8\nstpes=5\n")
    code, _, err = run_cli(["run", "--config", str(cfg), "--seed", "1"], capsys)
    assert code == 2
    assert "'stpes'" in err
    # a key naming another command's flag is accepted
    cfg.write_text("alpha=0.6\nbeta=0.8\nsteps=5\n")
    code, _, _ = run_cli(["run", "--config", str(cfg), "--seed", "1"], capsys)
    assert code == 0


def test_config_file_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"alpha=0.6\n# caf\xe9\nbeta=0.8\n")
    code, _, err = run_cli(["run", "--config", str(cfg), "--seed", "1"], capsys)
    assert code == 2
    assert "UTF-8" in err


def test_config_file_overlong_line(tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text("alpha=0.6\n" + "#" * 5000 + "\nbeta=0.8\n")
    code, _, err = run_cli(["run", "--config", str(cfg), "--seed", "1"], capsys)
    assert code == 2
    assert "long.cfg:2: line longer than" in err
    assert len(err) < 500


@pytest.mark.parametrize("command, line, message", [
    ("sweep", "model=fancy", "unknown model 'fancy'; valid: exact, truncated, both"),
    ("sweep", "scope=everything", "unknown scope 'everything'; valid: all, transmitted"),
    ("security", "strategy=ping",
     "unknown strategy 'ping'; valid: intercept_resend, measure_resend"),
])
def test_config_file_unknown_choice(tmp_path, capsys, command, line, message):
    cfg = tmp_path / "choice.cfg"
    cfg.write_text(f"alpha=1\nbeta=0\nmode=outside\n{line}\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_parser_choices_are_the_choice_tables():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    choices = {a.dest: a.choices for name in ("sweep", "security")
               for a in commands[name]._actions}
    assert choices["model"] == list(cli._MODELS)
    assert choices["scope"] == list(cli._SCOPES)
    assert choices["strategy"] == list(cli._STRATEGIES)


def test_config_file_choice_value(tmp_path, capsys):
    cfg = tmp_path / "choice.cfg"
    cfg.write_text("mode=outside\nstrategy=measure_resend\ntrials=10\n")
    code, out, _ = run_cli(["security", "--config", str(cfg)], capsys)
    assert code == 0
    assert out.startswith("attack: measure_resend on 10 decoy qubits")


def test_config_file_missing(tmp_path, capsys):
    code, _, err = run_cli(["run", "--config", str(tmp_path / "nope.cfg"),
                            "--seed", "1"], capsys)
    assert code == 4


def test_parser_is_reused_without_carrying_state(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("colour=blue\n")
    runs = [
        ["run", "--alpha", "0.6", "--seed"],
        ["run", "--help"],
        ["run", "--config", str(cfg), "--seed", "1"],
        ["run", "--alpha", "0.6", "--beta", "0.8", "--seed", "3"],
        ["run", "--alpha", "1", "--beta", "0", "--force-outcome", "U2,01,01"],
    ]

    def call(argv):
        return (main(argv), *capsys.readouterr())

    alone = []
    for argv in runs:
        cli.build_parser.cache_clear()
        alone.append(call(argv))
    assert [r[0] for r in alone] == [2, 0, 2, 0, 0]
    cli.build_parser.cache_clear()
    assert [call(argv) for argv in runs] == alone
    assert cli.build_parser.cache_info().misses == 1


# --------------------------------------------------------------------------
# verify


def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert "32 entries at 0.176776695297" in out
    assert "FAIL" not in out
    assert "discrepancy report" in out
    assert "PASS  recovery table: 16/16" in out
    assert "repaired U1,10,10" in out
    assert "rekeyed" in out


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    broken = channel.GroupedFormReport(
        residual_corrected=1e-6, residual_printed=0.875, printed_norm=0.125
    )
    monkeypatch.setattr(channel, "verify_grouped_form", lambda: broken)
    code, out, err = run_cli(["verify"], capsys)
    assert code == 1 and err == ""
    assert "FAIL  grouped-form reconstruction: corrected-prefactor residual 1.000e-06\n" in out
    assert out.count("FAIL") == 1


def _non_hermitian(blocks):
    blocks[:, -1, 0, 1] += 1e-6  # above the diagonal, which eigvalsh does not read


def _negative(blocks):
    weight = np.trace(blocks[:, -1], axis1=-2, axis2=-1)
    blocks[:, -1] = weight[:, None, None] * np.diag([1.5, -0.5, 0.0, 0.0])  # same trace


@pytest.mark.parametrize("damage, named", [(_non_hermitian, "hermiticity 1.000e-06"),
                                           (_negative, "min eigenvalue -")])
def test_verify_fails_on_a_bad_engine_block(capsys, monkeypatch, damage, named):
    engine = noise.stacked_blocks

    def damaged(*args):
        blocks = np.array(engine(*args))
        if blocks.shape[1] == 16:  # forced-key calls keep their blocks
            damage(blocks)
        return blocks

    monkeypatch.setattr(noise, "stacked_blocks", damaged)
    code, out, err = run_cli(["verify"], capsys)
    assert code == 1 and err == ""
    line = next(line for line in out.splitlines() if "exact evolution invariants" in line)
    assert line.startswith("FAIL") and named in line
    assert out.count("FAIL") == 1


def test_benchmark_workloads_pass_their_own_checks(tmp_path, monkeypatch):
    # one cycle of each workload in bench/workloads.py and the golden sweeps,
    # each output judged by the check the benchmark applies to it
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    rng = random.Random(20260)
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        for op in workload.cycle(rng, tmp_path):
            problems += [f"{name} {op.label}: {p}" for p in op.check(op.call())]
    assert problems + workloads.check_golden(tmp_path) == []


# --------------------------------------------------------------------------
# security


def test_security_inside_sampled(capsys):
    code, out, _ = run_cli(["security", "--mode", "inside", "--samples",
                            "100", "--seed", "7"], capsys)
    assert code == 0
    assert "attacker state always mixed (purity < 1 - 1e-6): yes" in out


@pytest.mark.parametrize("seed, env_dim", [(3, 3), (7, 5)])
def test_security_inside_reports_the_per_sample_attacks(capsys, seed, env_dim):
    rng = np.random.default_rng(seed)
    results = [cli.analysis.inside_attack(TargetState(0.6, 0.8), OutcomeKey(1, "00", "00"),
                                          cli.analysis.AttackParams.random(env_dim, rng))
               for _ in range(20)]
    purities = np.array([r.purity for r in results])
    code, out, _ = run_cli(["security", "--mode", "inside", "--samples", "20", "--seed",
                            str(seed), "--env-dim", str(env_dim)], capsys)
    assert code == 0
    assert out.splitlines()[1:3] == [
        f"attacker-state purity: min {purities.min():.12f}  mean {purities.mean():.12f}  "
        f"max {purities.max():.12f}",
        f"max isometry residual: {max(r.isometry_residual for r in results):.3e}",
    ]


def test_security_inside_trivial(capsys):
    code, out, _ = run_cli(["security", "--mode", "inside", "--trivial"],
                           capsys)
    assert code == 0
    assert "environment purity: 1.000000000000" in out
    assert "attack extracts no information" in out


def test_security_outside(capsys):
    code, out, _ = run_cli(["security", "--mode", "outside", "--decoys", "10",
                            "--trials", "100000", "--seed", "7"], capsys)
    assert code == 0
    assert "analytic 1 - (3/4)^m: 0.943686485291" in out
    est = float(out.split("detection probability estimate: ")[1].split("\n")[0])
    se = float(out.split("standard error: ")[1].split("\n")[0])
    assert abs(est - 0.943686485291) <= 3 * se


def test_security_env_dim_limit(capsys, monkeypatch):
    class Called(Exception):
        pass

    def sampler(key, env_dim, samples, rng):
        raise Called(env_dim)

    monkeypatch.setattr(cli.analysis, "sample_inside_attacks", sampler)
    argv = ["security", "--mode", "inside", "--samples", "1", "--env-dim"]
    code, _, err = run_cli(argv + [str(cli.MAX_ENV_DIM + 1)], capsys)
    assert code == 2
    assert "--env-dim must lie in [2, 1024]" in err
    with pytest.raises(Called):
        main(argv + [str(cli.MAX_ENV_DIM)])


def test_security_inside_samples_limit(capsys, monkeypatch):
    def sampler(key, env_dim, samples, rng):
        assert samples == cli.MAX_INSIDE_SAMPLES
        return np.array([0.5]), 0.0

    monkeypatch.setattr(cli.analysis, "sample_inside_attacks", sampler)
    code, out, err = run_cli(["security", "--mode", "inside", "--samples",
                              str(cli.MAX_INSIDE_SAMPLES)], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("attack: sampled entangling maps (n=10000000, env_dim=2, seed=0)")


def test_security_inside_work_limit(capsys, monkeypatch):
    class Called(Exception):
        pass

    def sampler(key, env_dim, samples, rng):
        raise Called(samples * env_dim)

    monkeypatch.setattr(cli.analysis, "sample_inside_attacks", sampler)
    argv = ["security", "--mode", "inside", "--samples"]
    for samples, env_dim, extra in ((19_532, 1024, []), (6_666_667, 3, []),
                                    (19_532, 1024, ["--trivial"])):
        code, out, err = run_cli(argv + [str(samples), "--env-dim", str(env_dim)] + extra, capsys)
        assert code == 2 and out == ""
        assert err == "error: --samples x --env-dim must be at most 20000000\n"
    with pytest.raises(Called):
        main(argv + ["19531", "--env-dim", "1024"])


def test_security_decoy_draws_limit(capsys, monkeypatch):
    class Called(Exception):
        pass

    def sim(decoys, strategy, *, trials, seed):
        raise Called(trials * decoys)

    monkeypatch.setattr(cli.analysis, "outside_attack_sim", sim)
    argv = ["security", "--mode", "outside", "--decoys"]
    for decoys, trials in ((1, cli.MAX_DECOY_DRAWS + 1), (10_001, 10_000)):
        code, out, err = run_cli(argv + [str(decoys), "--trials", str(trials)], capsys)
        assert code == 2 and out == ""
        assert err == "error: --trials x --decoys must be at most 100000000\n"
    with pytest.raises(Called):
        main(argv + ["10000", "--trials", "10000"])


def test_security_requires_mode(capsys):
    code, _, err = run_cli(["security"], capsys)
    assert code == 2
    code, _, err = run_cli(["security", "--mode", "sideways"], capsys)
    assert code == 2
