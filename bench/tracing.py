"""Span tracing of rsp7 from outside the package.

``Tracer`` wraps library functions at the module attribute where each
caller looks them up (``rsp7.noise.apply_to_qubits`` is the name
``branch_reduction`` resolves at call time), records one span per call
(name, start, end, parent, operation) in memory, and restores the
original attributes when the operation ends.  Nothing under ``src/`` is
edited.  Self time of a span is its duration minus the durations of its
direct children; the program is single threaded, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np


def _apply_counts(result) -> dict:
    # computed from the returned array, not reported by the program
    return {"rho_calls": int(np.ndim(result) == 2), "bytes_computed": int(result.nbytes)}


def _trajectory_counts(result) -> dict:
    return {"samples": int(result.n_samples)}


def _outside_counts(result) -> dict:
    return {"trials": int(result.n_trials)}


#: (span name, module attributes wrapped for it, counters taken from the result).
#: A function imported by name into another module is looked up there,
#: so it is wrapped at every such attribute.
TRACED: tuple[tuple[str, tuple[str, ...], Optional[Callable]], ...] = (
    ("cli.main", ("cli.main",), None),
    ("analysis.fidelity_sweep", ("analysis.fidelity_sweep",), None),
    ("analysis.inside_attack", ("analysis.inside_attack",), None),
    ("analysis.outside_attack_sim", ("analysis.outside_attack_sim",), _outside_counts),
    ("noise.evolved_state", ("noise.evolved_state",), None),
    ("noise.apply_noise", ("noise.apply_noise",), None),
    ("noise.truncated_channel_state", ("noise.truncated_channel_state",), None),
    ("noise.branch_reduction", ("noise.branch_reduction",), None),
    ("noise.trajectory_estimate", ("noise.trajectory_estimate",), _trajectory_counts),
    ("noise.kraus_operators", ("noise.kraus_operators",), None),
    ("protocol.run_rsp", ("protocol.run_rsp",), None),
    ("protocol.measure_projective", ("protocol.measure_projective",), None),
    ("protocol.alice_basis",
     ("protocol.alice_basis", "noise.alice_basis", "analysis.alice_basis"), None),
    ("protocol.recovery_sequence",
     ("protocol.recovery_sequence", "noise.recovery_sequence"), None),
    ("channel.build_channel", ("channel.build_channel",), None),
    ("linalg.apply_to_qubits",
     ("noise.apply_to_qubits", "protocol.apply_to_qubits", "channel.apply_to_qubits"),
     _apply_counts),
    ("linalg.partial_trace", ("noise.partial_trace",), None),
)

ROOT = "op"

#: Per-layer metrics reported by the traced run, each a mean per traced
#: operation: span name -> fields.  ``calls`` and ``self_s`` come from the
#: spans; the other fields are the computed counters above.
REPORTED: dict[str, tuple[str, ...]] = {
    "cli.main": ("calls", "self_s"),
    "analysis.fidelity_sweep": ("self_s",),
    "analysis.inside_attack": ("calls", "self_s"),
    "analysis.outside_attack_sim": ("calls", "self_s", "trials"),
    "noise.evolved_state": ("calls", "self_s"),
    "noise.apply_noise": ("calls", "self_s"),
    "noise.truncated_channel_state": ("calls", "self_s"),
    "noise.branch_reduction": ("calls", "self_s"),
    "noise.trajectory_estimate": ("calls", "self_s", "samples"),
    "noise.kraus_operators": ("calls",),
    "protocol.run_rsp": ("calls", "self_s"),
    "protocol.measure_projective": ("calls", "self_s"),
    "protocol.alice_basis": ("calls", "self_s"),
    "protocol.recovery_sequence": ("calls", "self_s"),
    "channel.build_channel": ("calls", "self_s"),
    "linalg.apply_to_qubits": ("calls", "self_s", "rho_calls", "bytes_computed"),
    "linalg.partial_trace": ("calls", "self_s"),
}

UNITS = {
    "calls": "calls/op",
    "self_s": "s/op",
    "trials": "trials/op",
    "samples": "samples/op",
    "rho_calls": "calls/op",
    "bytes_computed": "bytes/op",
}

#: Figures of the traced run itself.
TRACE_METRICS = {"trace.overhead_s": "s", "trace.wrapper_s": "s/op",
                 "trace.unattributed_s": "s/op"}

#: Every metric of a traced run, name -> unit.
LAYER_UNITS = {f"{name}.{f}": UNITS[f] for name, fields in REPORTED.items() for f in fields}
LAYER_UNITS.update(TRACE_METRICS)


class Tracer:
    """In-memory span recorder for traced operations.

    The wrappers are built once; each traced operation only swaps them in
    and out.  Spans live in flat arrays, which the garbage collector does
    not scan however many there are.
    """

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._name_index = {ROOT: 0}
        # one span per index: name index, start, end, parent index or -1, op id
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.n_ops = 0
        self._stack: list[int] = []
        self._patches = []  # (module, attribute, original, wrapper)
        for name, attrs, count in TRACED:
            for attr in attrs:
                mod_name, _, fn_name = attr.rpartition(".")
                module = importlib.import_module(f"rsp7.{mod_name}")
                fn = getattr(module, fn_name)
                self._patches.append((module, fn_name, fn, self._wrap(name, fn, count)))

    def _name(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, name_idx: int) -> int:
        row = len(self.span_start)
        self.span_name.append(name_idx)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.n_ops)
        self.span_end.append(0.0)
        self._stack.append(row)
        self.span_start.append(time.perf_counter())
        return row

    def _close(self, row: int) -> None:
        self.span_end[row] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        idx = self._name(name)

        def traced(*args, **kwargs):
            row = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(row)
            if count is not None:
                for key, value in count(result).items():
                    self.counters[(name, key)] += value
            return result

        return traced

    @contextlib.contextmanager
    def operation(self):
        """Trace one operation: swap in every wrapper, open the root span."""
        try:
            for module, fn_name, _, wrapper in self._patches:
                setattr(module, fn_name, wrapper)
            row = self._open(0)
            try:
                yield
            finally:
                self._close(row)
                self.n_ops += 1
        finally:
            for module, fn_name, fn, _ in self._patches:
                setattr(module, fn_name, fn)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per-name call counts, self seconds and inclusive seconds."""
        spans = list(zip(self.span_name, self.span_start, self.span_end, self.span_parent))
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for row, (name_idx, start, end, _) in enumerate(spans):
            name = self.names[name_idx]
            calls[name] += 1
            self_s[name] += end - start - child[row]
            incl_s[name] += end - start
        return calls, self_s, incl_s

    def layer_metrics(self) -> dict[str, float]:
        """Every REPORTED field as a mean per traced operation (0 where unused),
        plus ``trace.unattributed_s``, the traced time no reported self_s
        covers, and ``trace.wrapper_s``, the calibrated cost of the span
        wrappers one traced operation ran."""
        calls, self_s, incl_s = self.totals()
        n = max(self.n_ops, 1)
        out = {}
        for name, fields in REPORTED.items():
            for field in fields:
                if field == "calls":
                    value = calls.get(name, 0)
                elif field == "self_s":
                    value = self_s.get(name, 0.0)
                else:
                    value = self.counters.get((name, field), 0)
                out[f"{name}.{field}"] = value / n
        covered = sum(self_s.get(name, 0.0) for name, f in REPORTED.items() if "self_s" in f)
        out["trace.unattributed_s"] = (incl_s.get(ROOT, 0.0) - covered) / n
        wrappers = sum(c for name, c in calls.items() if name != ROOT)
        out["trace.wrapper_s"] = wrappers / n * span_cost_s()
        return out

    def dump(self, path) -> None:
        """Write every span; times are seconds since the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        rows = [[n, s - t0, e - t0, p, o] for n, s, e, p, o in zip(
            self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "op"],
                       "names": self.names, "spans": rows}, f)


def span_cost_s(calls: int = 2000, blocks: int = 7) -> float:
    """Calibrated cost of one span wrapper: the median over ``blocks`` of
    the per-call time of a wrapped no-op minus that of the bare no-op."""
    def noop():
        return None

    probe = Tracer()
    wrapped = probe._wrap("noop", noop, None)
    costs = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)
