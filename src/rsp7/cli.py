"""Command-line front end: run, sweep, verify, security.

All numeric output uses 12 fixed decimals so repeated invocations are
byte-identical and golden-file friendly.  Exit codes: 0 success, 1 failed
check (a ``verify`` FAIL line, a pure inside-attack state), 2 usage
problem, 3 impossible forced branch, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import re
import sys
from typing import Callable, Collection, Optional, Sequence, TextIO

import numpy as np

from . import analysis, channel, protocol
from .analysis import OutsideStrategy, SweepConfig
from .noise import ALL_QUBITS, TRANSMITTED_QUBITS, EvolutionModel, NoiseKind
from .protocol import ImpossibleBranchError, OutcomeKey, TargetState

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IMPOSSIBLE_BRANCH = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "RSP7_OUTPUT_DIR"

CSV_HEADER = (
    "noise",
    "eta",
    "alpha_re",
    "alpha_im",
    "beta_re",
    "beta_im",
    "branch",
    "fidelity_exact",
    "fidelity_truncated",
)

#: Stands in for the fidelity of a sweep cell whose forced branch, or whose
#: sixteen branches together, have (numerically) zero probability: a NaN
#: of ``fidelity_sweep``.
ERROR_MARKER = "impossible-branch"


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _fmt_amplitude(z: complex) -> str:
    # a part that rounds to zero reads +0.000000000000: its sign is rounding noise
    parts = (f"{x:+.12f}" for x in (z.real, z.imag))
    return "".join("+0.000000000000" if p == "-0.000000000000" else p for p in parts) + "j"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# CSV serialization.


def write_sweep_csv(out: TextIO, config: SweepConfig,
                    cells: dict[EvolutionModel, np.ndarray]) -> None:
    """One line per (kind, eta) of ``config``, the cells of ``fidelity_sweep``.

    The header and the target/branch label pass through ``csv.writer``, which
    quotes a label such as U1,00,00; no other field needs quoting.
    """
    t = config.target
    label = [_fmt(x) for x in (t.alpha.real, t.alpha.imag, t.beta.real, t.beta.imag)]
    label.append("averaged" if config.branch is None else config.branch.label())
    quoted = io.StringIO()
    csv.writer(quoted, lineterminator="\n").writerows([CSV_HEADER, label])
    header, fields = quoted.getvalue().splitlines()
    etas = [_fmt(eta) for eta in config.etas().tolist()]
    rows = [header + "\n"]
    for i, kind in enumerate(config.kinds):
        exact, truncated = (map(_cell, cells[m][i].tolist() if m in cells else [None] * len(etas))
                            for m in EvolutionModel)
        name = kind.value
        rows += [f"{name},{eta},{fields},{e},{tr}\n" for eta, e, tr in zip(etas, exact, truncated)]
    out.write("".join(rows))


def _cell(value: Optional[float]) -> str:
    """A cell of an unrequested model reads empty, an impossible one the marker."""
    if value is None:
        return ""
    if math.isnan(value):
        return ERROR_MARKER
    # a fidelity that rounds to zero reads 0.000000000000: its sign is rounding noise
    return _fmt(value).replace("-0.000000000000", "0.000000000000")


def write_sweep_svg(out: TextIO, config: SweepConfig,
                    cells: dict[EvolutionModel, np.ndarray]) -> None:
    """Minimal static line chart of fidelity against eta (plumbing only)."""
    width, height = 640, 420
    ml, mr, mt, mb = 50, 150, 20, 40
    pw, ph = width - ml - mr, height - mt - mb
    palette = (
        "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    )
    etas = config.etas().tolist()

    def px(eta: float) -> float:
        return ml + eta * pw

    def py(f: float) -> float:
        return mt + (1.0 - min(max(f, 0.0), 1.0)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" font-size="13" text-anchor="middle">eta</text>',
        f'<text x="14" y="{mt + ph / 2:.1f}" font-size="13" transform="rotate(-90 14 {mt + ph / 2:.1f})" text-anchor="middle">fidelity</text>',
    ]
    for tick in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{px(tick):.1f}" y="{mt + ph + 16}" font-size="11" text-anchor="middle">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py(tick) + 4:.1f}" font-size="11" text-anchor="end">{tick:g}</text>'
        )
    legend_y = mt + 10
    for i, kind in enumerate(config.kinds):
        color = palette[i % len(palette)]
        for model, dash in ((EvolutionModel.EXACT, ""),
                            (EvolutionModel.TRUNCATED, ' stroke-dasharray="5,3"')):
            column = cells[model][i].tolist() if model in cells else []
            pts = [f"{px(eta):.2f},{py(f):.2f}" for eta, f in zip(etas, column) if not math.isnan(f)]
            if len(pts) >= 2:
                parts.append(
                    f'<polyline fill="none" stroke="{color}"{dash} points="{" ".join(pts)}"/>'
                )
        parts.append(
            f'<line x1="{ml + pw + 10}" y1="{legend_y}" x2="{ml + pw + 30}" y2="{legend_y}" stroke="{color}"/>'
        )
        parts.append(
            f'<text x="{ml + pw + 34}" y="{legend_y + 4}" font-size="11">{kind.value}</text>'
        )
        legend_y += 16
    parts.append("</svg>")
    out.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Configuration file + flag merging.


_MAX_CONFIG_LINE = 4096


def load_config_file(path: str, known: Collection[str]) -> dict[str, str]:
    """Flat key=value file; keys are long flag names from ``known``; # starts
    a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            # bounded reads: a path such as /dev/zero never ends a line
            lines = iter(lambda: f.readline(_MAX_CONFIG_LINE), "")
            for lineno, raw in enumerate(lines, 1):
                if len(raw) == _MAX_CONFIG_LINE and not raw.endswith("\n"):
                    raise UsageError(
                        f"{path}:{lineno}: line longer than {_MAX_CONFIG_LINE} characters"
                    )
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in known:
                    raise UsageError(
                        f"{path}:{lineno}: unknown key {key!r}; keys are long flag names"
                    )
                values[key] = value.strip()
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not a UTF-8 text file ({e.reason})") from e
    return values


def _long_flag_names(parser: argparse.ArgumentParser) -> set[str]:
    """Every ``--name`` option of the parser and its subcommands, without --."""
    names = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                names |= _long_flag_names(sub)
        elif not isinstance(action, argparse._HelpAction):
            names.update(s[2:] for s in action.option_strings if s.startswith("--"))
    return names


class _Options:
    """Flag values merged over config-file values merged over defaults."""

    def __init__(self, ns: argparse.Namespace, file_values: dict[str, str]):
        self._ns = ns
        self._file = file_values

    def get(self, key: str, cast: Callable, default=None):
        flag = getattr(self._ns, key.replace("-", "_"), None)
        if flag is not None:
            return flag
        if key in self._file:
            raw = self._file[key]
            try:
                if cast is bool:
                    if raw.lower() in ("1", "true", "yes", "on"):
                        return True
                    if raw.lower() in ("0", "false", "no", "off"):
                        return False
                    raise ValueError(raw)
                return cast(raw)
            except ValueError as e:
                raise UsageError(f"config value {key}={raw!r} is invalid") from e
        return default


#: The values of --model, --scope and --strategy by name, and their argparse choices.
_MODELS = {"exact": (EvolutionModel.EXACT,), "truncated": (EvolutionModel.TRUNCATED,),
           "both": tuple(EvolutionModel)}
_SCOPES = {"all": ALL_QUBITS, "transmitted": TRANSMITTED_QUBITS}
_STRATEGIES = {s.value: s for s in OutsideStrategy}


def _choice(opts: _Options, key: str, table: dict, default: str):
    """The value ``table`` holds under the name option ``key`` gives."""
    text = opts.get(key, str, default)
    try:
        return table[text]
    except KeyError:
        raise UsageError(f"unknown {key} {text!r}; valid: {', '.join(table)}") from None


_TARGET_NORM_SLACK = 1e-6


def _resolve_target(opts: _Options) -> TargetState:
    a_re = opts.get("alpha", float)
    b_re = opts.get("beta", float)
    if a_re is None or b_re is None:
        raise UsageError("a target requires --alpha and --beta")
    alpha = complex(a_re, opts.get("alpha-im", float, 0.0))
    beta = complex(b_re, opts.get("beta-im", float, 0.0))
    if not all(math.isfinite(x) for x in (alpha.real, alpha.imag, beta.real, beta.imag)):
        raise UsageError(f"amplitudes must be finite, got alpha={alpha}, beta={beta}")
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if abs(norm - 1.0) > _TARGET_NORM_SLACK:
        raise UsageError(
            f"|alpha|^2 + |beta|^2 = {norm ** 2:.9f}; amplitudes must be "
            f"normalized to within {_TARGET_NORM_SLACK:g}"
        )
    try:
        return TargetState(alpha / norm, beta / norm)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _resolve_output_path(opts: _Options, filename: str) -> str:
    out = opts.get("out", str)
    if out is not None:
        return out
    base = opts.get("output-dir", str) or os.environ.get(OUTPUT_DIR_ENV) or "."
    return os.path.join(base, filename)


# ---------------------------------------------------------------------------
# Commands.


_KEY_PATTERN = re.compile(r"U([12]),([01]{2}),([01]{2})")


def _parse_forced_key(text: str) -> OutcomeKey:
    """Malformed text is a usage error; a well-formed key naming a helper
    pattern the channel never produces is an impossible branch."""
    m = _KEY_PATTERN.fullmatch(text.strip())
    if m is None:
        raise UsageError(f"expected 'U1,cc,dd' or 'U2,cc,dd', got {text!r}")
    alice, charlie, david = int(m.group(1)), m.group(2), m.group(3)
    if (charlie, david) not in channel.CORRELATED_PAIRS:
        raise ImpossibleBranchError(
            f"forced branch U{alice},{charlie},{david} has probability "
            f"0.000000000000; helper pattern ({charlie},{david}) never occurs",
            probability=0.0,
        )
    return OutcomeKey(alice, charlie, david)


def _valid_seed(seed: Optional[int]) -> Optional[int]:
    """A --seed value checked where it is used: numpy takes no negative seed."""
    if seed is not None and seed < 0:
        raise UsageError("--seed must be a non-negative integer")
    return seed


def _cmd_run(opts: _Options, stdout: TextIO) -> int:
    target = _resolve_target(opts)
    seed = opts.get("seed", int)
    forced_text = opts.get("force-outcome", str)
    if (seed is None) == (forced_text is None):
        raise UsageError("provide exactly one of --seed or --force-outcome")
    forced = None if forced_text is None else _parse_forced_key(forced_text)
    transcript = protocol.run_rsp(target, seed=_valid_seed(seed), forced_key=forced)
    amps = " ".join(_fmt_amplitude(a) for a in transcript.bob_state)
    print(f"outcome: {transcript.outcome.label()}", file=stdout)
    print(f"probability: {_fmt(transcript.branch_probability)}", file=stdout)
    print(f"gates: {' '.join(transcript.gates)}", file=stdout)
    print(f"bob_state: {amps}", file=stdout)
    print(f"fidelity: {_fmt(transcript.fidelity)}", file=stdout)
    return EXIT_OK


def _parse_kinds(text: str) -> tuple[NoiseKind, ...]:
    parts = [part.strip() for part in text.split(",")]
    if parts == ["all"]:
        return tuple(NoiseKind)
    if "all" in parts:
        raise UsageError("noise kind 'all' cannot be combined with other kinds")
    valid = [k.value for k in NoiseKind]
    for part in parts:
        if part not in valid:
            raise UsageError(f"unknown noise kind {part!r}; valid: all, {', '.join(valid)}")
    return tuple(NoiseKind(part) for part in parts)


def _cmd_sweep(opts: _Options, stdout: TextIO) -> int:
    target = _resolve_target(opts)
    kinds = _parse_kinds(opts.get("noise", str, "all"))
    branch_text = opts.get("branch", str, "averaged")
    branch = None if branch_text == "averaged" else _parse_forced_key(branch_text)
    models = _choice(opts, "model", _MODELS, "both")
    qubits = _choice(opts, "scope", _SCOPES, "all")
    try:
        config = SweepConfig(
            kinds=kinds,
            target=target,
            eta_start=opts.get("eta-start", float, 0.0),
            eta_end=opts.get("eta-end", float, 1.0),
            eta_steps=opts.get("steps", int, 11),
            models=models,
            branch=branch,
            qubits=qubits,
        )
    except ValueError as e:
        raise UsageError(str(e)) from e

    path = _resolve_output_path(opts, "sweep.csv")
    try:
        # opened before the grid is computed, so a bad path fails at once
        with open(path, "w", encoding="utf-8", newline="") as f:
            cells = analysis.fidelity_sweep(config)
            write_sweep_csv(f, config, cells)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e
    print(f"wrote {len(config.kinds) * config.eta_steps} rows to {path}", file=stdout)
    if opts.get("svg", bool, False):
        svg_path = os.path.splitext(path)[0] + ".svg"
        try:
            with open(svg_path, "w", encoding="utf-8", newline="") as f:
                write_sweep_svg(f, config, cells)
        except OSError as e:
            raise OSError(f"cannot write {svg_path}: {e}") from e
        print(f"wrote chart to {svg_path}", file=stdout)
    return EXIT_OK


def _cmd_verify(opts: _Options, stdout: TextIO) -> int:
    checks = analysis.invariant_checks()
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}: {check.detail}", file=stdout)
        for note in check.notes:
            print(f"      {note}", file=stdout)
    k_mod = analysis.continuity_modulus(analysis.BALANCED_TARGET, NoiseKind.DEPOLARIZING,
                                        np.linspace(0.0, 1.0, 11))
    print(f"INFO  continuity modulus of averaged fidelity in eta: "
          f"K = {k_mod:.6f} (depolarizing, exact model, 11 points)", file=stdout)
    print("", file=stdout)
    print("discrepancy report (published expressions vs direct construction):",
          file=stdout)
    for entry in analysis.discrepancy_report():
        print(f"  - {entry.subject}", file=stdout)
        print(f"      printed:  {entry.printed}", file=stdout)
        print(f"      computed: {entry.computed}", file=stdout)
        print(f"      residual: {entry.residual:.6f}", file=stdout)
    return EXIT_OK if all(check.passed for check in checks) else 1


#: Largest attack environment: ``inside_attack`` builds the (2d) x (2d) attacker state.
MAX_ENV_DIM = 1024

#: Largest --samples of the inside attack: it holds one 8-byte purity per sample.
MAX_INSIDE_SAMPLES = 10**7

#: Largest --samples x --env-dim, which bounds the inside attack's time: a sample
#: takes 3-4 us at env-dim 2 and 0.4-0.5 ms at env-dim 1024 on a 2-CPU machine,
#: so the largest accepted runs take 8-45 s there.
MAX_INSIDE_WORK = 2 * 10**7

#: Largest --trials x --decoys: the chunked outside attack peaks near 2 MB; the cap takes 1-2 s on 2 CPUs.
MAX_DECOY_DRAWS = 10**8


def _cmd_security(opts: _Options, stdout: TextIO) -> int:
    mode = opts.get("mode", str)
    if mode == "inside":
        seed = opts.get("seed", int, 0)
        env_dim = opts.get("env-dim", int, 2)
        if not 2 <= env_dim <= MAX_ENV_DIM:
            raise UsageError(f"--env-dim must lie in [2, {MAX_ENV_DIM}]")
        samples = opts.get("samples", int, 100)
        if samples < 1:
            raise UsageError("--samples must be at least 1")
        if samples > MAX_INSIDE_SAMPLES:
            raise UsageError(f"--samples must be at most {MAX_INSIDE_SAMPLES}")
        if samples * env_dim > MAX_INSIDE_WORK:
            raise UsageError(f"--samples x --env-dim must be at most {MAX_INSIDE_WORK}")
        _valid_seed(seed)
        key = protocol.OutcomeKey(1, "00", "00")
        if opts.get("trivial", bool, False):
            res = analysis.inside_attack(analysis.BALANCED_TARGET, key,
                                         analysis.AttackParams.trivial(env_dim))
            alt = analysis.inside_attack(TargetState(0.6, 0.8), key,
                                         analysis.AttackParams.trivial(env_dim))
            same_env = float(np.max(np.abs(res.env_state - alt.env_state)))
            print("attack: trivial (identity map, disentangled environment)", file=stdout)
            print(f"attacker-state purity: {_fmt(res.purity)}", file=stdout)
            print(f"environment purity: {_fmt(res.env_purity)}", file=stdout)
            print(f"environment dependence on target: {_fmt(same_env)}", file=stdout)
            print("the attack extracts no information about the prepared state",
                  file=stdout)
            return EXIT_OK
        arr, worst_residual = analysis.sample_inside_attacks(key, env_dim, samples,
                                                             np.random.default_rng(seed))
        print(f"attack: sampled entangling maps (n={samples}, env_dim={env_dim}, seed={seed})",
              file=stdout)
        print(f"attacker-state purity: min {_fmt(arr.min())}  mean {_fmt(arr.mean())}  "
              f"max {_fmt(arr.max())}", file=stdout)
        print(f"max isometry residual: {worst_residual:.3e}", file=stdout)
        mixed = bool(arr.max() < 1.0 - 1e-6)
        print(f"attacker state always mixed (purity < 1 - 1e-6): {'yes' if mixed else 'no'}",
              file=stdout)
        return EXIT_OK if mixed else 1
    if mode == "outside":
        decoys = opts.get("decoys", int, 10)
        trials = opts.get("trials", int, 10000)
        seed = opts.get("seed", int, 0)
        strategy = _choice(opts, "strategy", _STRATEGIES, "intercept_resend")
        if decoys < 1:
            raise UsageError("--decoys must be at least 1")
        if trials < 1:
            raise UsageError("--trials must be at least 1")
        if trials * decoys > MAX_DECOY_DRAWS:
            raise UsageError(f"--trials x --decoys must be at most {MAX_DECOY_DRAWS}")
        est = analysis.outside_attack_sim(decoys, strategy, trials=trials,
                                          seed=_valid_seed(seed))
        ana = analysis.analytic_detection_probability(decoys)
        print(f"attack: {strategy.value} on {decoys} decoy qubits "
              f"({trials} trials, seed={seed})", file=stdout)
        print(f"detection probability estimate: {_fmt(est.probability)}", file=stdout)
        print(f"standard error: {_fmt(est.std_error)}", file=stdout)
        print(f"analytic 1 - (3/4)^m: {_fmt(ana)}", file=stdout)
        return EXIT_OK
    raise UsageError("--mode must be 'inside' or 'outside'")


# ---------------------------------------------------------------------------
# Parser and entry point.


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The rsp7 parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rsp7",
        description=(
            "Deterministic remote state preparation over a seven-qubit "
            "entangled channel: protocol runs, noise sweeps, invariant "
            "verification, attack simulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value file; flags override it")
        p.add_argument("--output-dir",
                       help=f"directory for outputs (default: ${OUTPUT_DIR_ENV} or .)")

    def add_target(p):
        p.add_argument("--alpha", type=float, help="real part of alpha")
        p.add_argument("--beta", type=float, help="real part of beta")
        p.add_argument("--alpha-im", type=float, help="imaginary part of alpha")
        p.add_argument("--beta-im", type=float, help="imaginary part of beta")

    p_run = sub.add_parser("run", help="run one protocol round")
    add_common(p_run)
    add_target(p_run)
    p_run.add_argument("--seed", type=int, help="sample the measurement branch")
    p_run.add_argument("--force-outcome", metavar="U1,cc,dd",
                       help="force a specific outcome key")

    p_sweep = sub.add_parser("sweep", help="fidelity sweep to CSV")
    add_common(p_sweep)
    add_target(p_sweep)
    p_sweep.add_argument("--noise", help="noise kind, comma list, or 'all'")
    p_sweep.add_argument("--eta-start", type=float)
    p_sweep.add_argument("--eta-end", type=float)
    p_sweep.add_argument("--steps", type=int, help="number of eta grid points")
    p_sweep.add_argument("--model", choices=list(_MODELS))
    p_sweep.add_argument("--branch", help="'averaged' or an outcome key U1,cc,dd")
    p_sweep.add_argument("--scope", choices=list(_SCOPES),
                         help="qubits hit by noise: all | transmitted")
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.add_argument("--svg", action="store_const", const=True,
                         help="also write a line chart next to the CSV")

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    add_common(p_verify)

    p_sec = sub.add_parser("security", help="attack simulations")
    add_common(p_sec)
    p_sec.add_argument("--mode", choices=["inside", "outside"])
    p_sec.add_argument("--samples", type=int, help="inside: sampled attack maps")
    p_sec.add_argument("--env-dim", type=int, help="inside: environment dimension")
    p_sec.add_argument("--trivial", action="store_const", const=True,
                       help="inside: use the identity attack")
    p_sec.add_argument("--decoys", type=int, help="outside: decoy qubits per trial")
    p_sec.add_argument("--trials", type=int, help="outside: Monte-Carlo trials")
    p_sec.add_argument("--strategy", choices=list(_STRATEGIES))
    p_sec.add_argument("--seed", type=int)
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "security": _cmd_security,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        file_values = (
            load_config_file(ns.config, _long_flag_names(parser)) if ns.config else {}
        )
        opts = _Options(ns, file_values)
        return _COMMANDS[ns.command](opts, sys.stdout)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ImpossibleBranchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IMPOSSIBLE_BRANCH
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
