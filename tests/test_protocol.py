import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rsp7 import channel, cli, protocol
from rsp7.linalg import apply_to_qubits
from rsp7.protocol import (
    ALL_OUTCOME_KEYS,
    ImpossibleBranchError,
    OutcomeKey,
    TargetState,
    UnknownOutcomeError,
    alice_basis,
    enumerate_branches,
    gate_matrix,
    measure_projective,
    recovery_sequence,
    recovery_table,
    run_rsp,
    table_report,
)

from conftest import random_targets

SQ2 = 1.0 / math.sqrt(2.0)


# --------------------------------------------------------------------------
# Target states and the sender basis.


def test_target_state_validation():
    TargetState(0.6, 0.8)
    # 1e200 is finite, but its square is beyond the largest float
    for alpha, beta in ((0.6, 0.9), (1e200, 0.0)):
        with pytest.raises(ValueError, match="is not 1 within"):
            TargetState(alpha, beta)


def test_target_state_rejects_non_finite_amplitudes():
    # nan slips through a plain |norm - 1| > tol comparison
    for alpha, beta in ((math.nan, 0.0), (complex(0.6, math.inf), 0.8)):
        with pytest.raises(ValueError, match="finite"):
            TargetState(alpha, beta)


def test_target_ket_layout():
    t = TargetState(0.6, 0.8)
    assert_allclose(t.ket(), [0.6, 0.0, 0.0, 0.8], atol=1e-15)


def test_alice_basis_is_orthonormal(rng):
    for t in random_targets(rng, 10):
        u1, u2 = alice_basis(t)
        g = np.array(
            [
                [np.vdot(u1, u1), np.vdot(u1, u2)],
                [np.vdot(u2, u1), np.vdot(u2, u2)],
            ]
        )
        assert_allclose(g, np.eye(2), atol=1e-12)


def test_alice_basis_rejects_relative_phase():
    # a relative phase between the amplitudes breaks the real-rotation
    # structure the measurement basis relies on
    with pytest.raises(ValueError, match="sender basis is not orthonormal"):
        TargetState(SQ2, SQ2 * 1j)


# --------------------------------------------------------------------------
# Outcome keys.


def test_outcome_key_label_roundtrip():
    # the CLI's key grammar is the one parser of outcome keys
    for key in ALL_OUTCOME_KEYS:
        assert cli._parse_forced_key(key.label()) == key
    assert len(ALL_OUTCOME_KEYS) == 16


@pytest.mark.parametrize("alice, charlie, david, message", [
    pytest.param(1, "00", "01", "helper outcome (00, 01) is not one of the eight correlated "
                 "patterns", id="uncorrelated-pattern"),
    pytest.param(3, "00", "00", "sender outcome must be 1 or 2, got 3", id="sender-out-of-range"),
    pytest.param(1.0, "00", "00", "sender outcome must be an integer, got 1.0",
                 id="float-sender"),
    pytest.param(1, "0", "00", "charlie outcome must be two bits, got '0'", id="short-bits"),
    pytest.param(1, "00", "0a", "david outcome must be two bits, got '0a'", id="non-binary-bits"),
    pytest.param(1, b"00", "00", "charlie outcome must be two bits, got b'00'", id="bytes-bits"),
])
def test_outcome_key_rejects_bad_fields(alice, charlie, david, message):
    with pytest.raises(ValueError) as info:
        OutcomeKey(alice, charlie, david)
    assert str(info.value) == message


def test_outcome_key_stores_the_sender_as_an_int():
    key = OutcomeKey(np.int64(2), "00", "00")
    assert key == ALL_OUTCOME_KEYS[8]
    assert (type(key.alice), key.label()) == (int, "U2,00,00")
    assert OutcomeKey(True, "00", "00").label() == "U1,00,00"


# --------------------------------------------------------------------------
# Projective measurement helper.


def test_measure_projective_forced_probability():
    t = TargetState(0.6, 0.8)
    psi = channel.build_channel()
    idx, p, post = measure_projective(psi, [1], alice_basis(t), forced=0)
    assert idx == 0
    assert_allclose(p, 0.5, atol=1e-12)
    assert_allclose(np.linalg.norm(post), 1.0, atol=1e-12)


def test_measure_projective_seeded_is_deterministic():
    psi = channel.build_channel()
    basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    runs = {
        measure_projective(psi, [4], basis, rng=np.random.default_rng(5))[0]
        for _ in range(3)
    }
    assert len(runs) == 1


def test_measure_projective_impossible_forced_outcome():
    from rsp7.linalg import ket

    with pytest.raises(ImpossibleBranchError):
        measure_projective(ket("00"), [1], [np.array([1.0, 0.0]),
                                            np.array([0.0, 1.0])], forced=1)


def test_measure_projective_requires_exactly_one_mode():
    from rsp7.linalg import ket

    basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(ValueError):
        measure_projective(ket("0"), [1], basis)
    with pytest.raises(ValueError):
        measure_projective(ket("0"), [1], basis, forced=0,
                           rng=np.random.default_rng(0))


def test_measure_projective_rejects_skew_basis():
    from rsp7.linalg import ket

    skew = [np.array([1.0, 0.0]), np.array([SQ2, SQ2])]
    with pytest.raises(ValueError):
        measure_projective(ket("0"), [1], skew, forced=0)


# --------------------------------------------------------------------------
# Recovery table.


def test_published_rows_that_verify_directly():
    # three rows checked against the published table by hand
    assert recovery_sequence(OutcomeKey(1, "00", "00")) == ("CX12", "H1", "Z1")
    assert recovery_sequence(OutcomeKey(1, "01", "01")) == ("CX12", "H1", "X2", "Z1")
    assert recovery_sequence(OutcomeKey(2, "00", "10")) == ("CX12", "H1")


def test_table_report_structure():
    rules = table_report()
    assert [r.key for r in rules] == list(ALL_OUTCOME_KEYS)
    statuses = {r.key: r.status for r in rules}
    assert statuses[OutcomeKey(1, "10", "10")] == "repaired"
    repaired = [r for r in rules if "repaired" in r.status]
    assert len(repaired) == 1
    assert repaired[0].gates == ("CX12", "H1", "X1")
    assert repaired[0].printed_gate_defect == pytest.approx(math.sqrt(2), abs=1e-6)
    rekeyed = [r for r in rules if "rekeyed" in r.status]
    assert len(rekeyed) == 2
    assert {r.key for r in rekeyed} == {OutcomeKey(1, "01", "11"),
                                        OutcomeKey(2, "01", "11")}
    assert all(r.printed_pair == ("10", "11") for r in rekeyed)
    assert all(r.gate_defect <= protocol.GATE_TOL for r in rules)
    assert [r.printed_gates for r in rules] == [row[-1] for row in protocol._PRINTED_ROWS]
    fixed = repaired[0]
    assert fixed.gate_defect == protocol._sequence_defect(
        fixed.gates, protocol._basis_blocks()[:, fixed.key.outcome_index]
    )


def test_basis_blocks_are_the_printed_factor_columns():
    # the audit reads the channel; the printed columns must say the same
    basis = protocol._basis_blocks()
    assert basis.shape == (2, 32, 4)
    for blocks, target in zip(basis, (TargetState(1.0, 0.0), TargetState(0.0, 1.0))):
        printed = channel.factor_states(target).reshape(2, 4, 16).transpose(0, 2, 1)
        assert np.max(np.abs(blocks - printed.reshape(32, 4))) <= 1e-12


def test_rule_matrix_is_its_gates_first_gate_first():
    for rule in table_report():
        g = np.eye(4, dtype=complex)
        for token in rule.gates:
            g = gate_matrix(token) @ g
        assert np.array_equal(rule.matrix, g), rule.key.label()
        assert not rule.matrix.flags.writeable


def test_every_rule_maps_blocks_to_target_form():
    # G b10 = phi |00>, G b01 = phi |11> with one common phase per rule:
    # that is exactly the property making the rule valid for all targets
    # b10 and b01 are the printed factor columns, independent of the audit's source
    f10 = channel.factor_states(TargetState(1.0, 0.0)).reshape(2, 4, 16)
    f01 = channel.factor_states(TargetState(0.0, 1.0)).reshape(2, 4, 16)
    for rule in table_report():
        a, pattern = divmod(rule.key.outcome_index, 16)
        g = rule.matrix
        w0, w1 = g @ f10[a, :, pattern], g @ f01[a, :, pattern]
        # w0 supported on |00>, w1 on |11>, same phase
        assert abs(abs(w0[0]) - 1.0) <= 1e-12
        assert abs(abs(w1[3]) - 1.0) <= 1e-12
        assert_allclose(w0[1:], 0.0, atol=1e-12)
        assert_allclose(w1[:3], 0.0, atol=1e-12)
        assert abs(w0[0] - w1[3]) <= 1e-12


def test_printed_row_naming_another_key_is_rejected(monkeypatch):
    # row 6 prints the impossible label (10, 11); a valid label of another
    # key in its place cannot be re-keyed and fails the audit
    rows = list(protocol._PRINTED_ROWS)
    rows[6] = (1, "11", "11", rows[6][-1])
    monkeypatch.setattr(protocol, "_PRINTED_ROWS", tuple(rows))
    table_report.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="U1,11,11 stands where U1,01,11 belongs"):
            table_report()
    finally:
        table_report.cache_clear()


#: The keys whose rule is the frame times Z1Z2, the identity on span{|00>, |11>}.
_Z1Z2_KEYS = {OutcomeKey(1, "10", "00"), OutcomeKey(1, "01", "11"),
              OutcomeKey(2, "01", "01"), OutcomeKey(2, "01", "11")}


def test_rules_are_the_pauli_frame():
    z1z2 = gate_matrix("Z1") @ gate_matrix("Z2")
    basis = protocol._basis_blocks()
    for rule in table_report():
        frame = protocol._compose(protocol._frame_gates(rule.key))
        if rule.key in _Z1Z2_KEYS:
            frame = z1z2 @ frame
        phase = np.vdot(frame, rule.matrix) / 4.0
        assert abs(abs(phase) - 1.0) <= 1e-12, rule.key.label()
        assert np.max(np.abs(rule.matrix - phase * frame)) <= 1e-12, rule.key.label()
        # c2 = d2 on every supported pattern, so the X2 bit may read d2 instead
        a, c1 = rule.key.alice - 1, int(rule.key.charlie[0])
        d1, d2 = map(int, rule.key.david)
        bits = (1 ^ a ^ c1, a ^ d1, a ^ c1 ^ d2 ^ d1)
        variant = ("CX12", "H1") + tuple(g for g, bit in zip(("Z1", "X1", "X2"), bits) if bit)
        blocks = basis[:, rule.key.outcome_index]
        for gates in (protocol._frame_gates(rule.key), variant):
            assert protocol._sequence_defect(gates, blocks) <= protocol.GATE_TOL, rule.key.label()


def test_no_shorter_sequence_repairs_the_broken_row():
    # the discrepancy report calls the frame's CX12 H1 X1 the shortest working sequence
    key = OutcomeKey(1, "10", "10")
    blocks = protocol._basis_blocks()[:, key.outcome_index]
    alphabet = list(protocol.GATE_MATRICES)
    short = [seq for n in range(3) for seq in itertools.product(alphabet, repeat=n)]
    assert len(short) == 73
    assert all(protocol._sequence_defect(seq, blocks) > protocol.GATE_TOL for seq in short)
    assert protocol._frame_gates(key) == ("CX12", "H1", "X1")
    assert protocol._sequence_defect(protocol._frame_gates(key), blocks) <= protocol.GATE_TOL


def test_frame_repairs_any_broken_row(monkeypatch):
    # row 8 (U2,00,00) verifies as printed; without its Paulis it fails
    rows = list(protocol._PRINTED_ROWS)
    rows[8] = (2, "00", "00", ("CX12", "H1"))
    monkeypatch.setattr(protocol, "_PRINTED_ROWS", tuple(rows))
    table_report.cache_clear()
    try:
        rule = table_report()[8]
        assert rule.key == OutcomeKey(2, "00", "00")
        assert rule.status == "repaired"
        assert rule.gates == ("CX12", "H1", "X1", "X2")
        assert rule.gate_defect <= protocol.GATE_TOL
    finally:
        table_report.cache_clear()


def test_recovery_sequence_unknown_key():
    with pytest.raises(UnknownOutcomeError):
        recovery_sequence("U1,00,00")  # wrong type on purpose


def test_recovery_table_is_frozen_mapping():
    table = recovery_table()
    assert len(table) == 16
    for key, rule in table.items():
        assert isinstance(key, OutcomeKey)
        assert rule.key == key
        assert all(isinstance(tok, str) for tok in rule.gates)
        assert rule.status in ("verified", "rekeyed", "repaired",
                               "rekeyed+repaired")


# --------------------------------------------------------------------------
# Full protocol runs.


def test_enumerate_branches_all_succeed(rng):
    for t in random_targets(rng, 8):
        branches = enumerate_branches(t)
        assert len(branches) == 16
        for b in branches:
            assert_allclose(b.branch_probability, 1.0 / 16.0, atol=1e-12)
            assert_allclose(b.fidelity, 1.0, atol=1e-12)
            assert_allclose(np.abs(np.vdot(t.ket(), b.bob_state)) ** 2, 1.0,
                            atol=1e-12)


def _reference_round(target, *, seed=None, forced_key=None):
    """One round by collapsing the full register: (outcome, bob_state)."""
    basis = alice_basis(target)
    rng = None if seed is None else np.random.default_rng(seed)
    a_forced = cd_forced = None
    if forced_key is not None:
        a_forced = forced_key.alice - 1
        cd_forced = int(forced_key.charlie + forced_key.david, 2)
    a, _, psi = measure_projective(channel.build_channel(), [1], basis,
                                   forced=a_forced, rng=rng)
    # (C1, C2, D1, D2) in that order: the outcome index reads c1 c2 d1 d2
    cd, _, psi = measure_projective(psi, [4, 6, 5, 7], list(np.eye(16)),
                                    forced=cd_forced, rng=rng)
    bits = format(cd, "04b")
    key = OutcomeKey(a + 1, bits[:2], bits[2:])
    for tok in recovery_sequence(key):
        psi = apply_to_qubits(gate_matrix(tok), [2, 3], psi)
    u = basis[a]
    c1, c2, d1, d2 = (int(b) for b in bits)
    pair = np.einsum("a,abc->bc", u.conj(), psi.reshape((2,) * 7)[:, :, :, c1, d1, c2, d2])
    pair = pair.reshape(-1)
    return key, pair / np.linalg.norm(pair)


def test_run_rsp_matches_collapsed_register(rng):
    for t in random_targets(rng, 4):
        for key in ALL_OUTCOME_KEYS:
            want_key, want = _reference_round(t, forced_key=key)
            tr = run_rsp(t, forced_key=key)
            assert tr.outcome == want_key == key
            assert np.max(np.abs(tr.bob_state - want)) <= 1e-12
    t = TargetState(0.6, 0.8)
    for seed in range(200):
        assert run_rsp(t, seed=seed).outcome == _reference_round(t, seed=seed)[0]


def test_tracer_finds_every_traced_attribute():
    # the benchmark's tracer wraps functions at the module attribute each
    # caller looks up; an attribute removed from rsp7 breaks every traced run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    assert len(tracer._patches) == sum(len(attrs) for _, attrs, _ in tracing.TRACED)


def test_run_rsp_rejects_relative_phase_target():
    # relative phase between the amplitudes is outside the supported family,
    # so no such target reaches run_rsp
    with pytest.raises(ValueError, match="sender basis is not orthonormal"):
        TargetState(0.28, 0.96j)


def test_run_rsp_forced_outcome_is_honored():
    t = TargetState(0.28, math.sqrt(1 - 0.28**2))
    for key in ALL_OUTCOME_KEYS[:4]:
        tr = run_rsp(t, forced_key=key)
        assert tr.outcome == key
        assert_allclose(tr.branch_probability, 1.0 / 16.0, atol=1e-12)
        assert_allclose(tr.fidelity, 1.0, atol=1e-12)


def test_run_rsp_seeded_determinism():
    t = TargetState(0.6, 0.8)
    a = run_rsp(t, seed=123)
    b = run_rsp(t, seed=123)
    assert a.outcome == b.outcome
    assert a.gates == b.gates
    assert_allclose(a.bob_state, b.bob_state, atol=0)
    # different seeds explore different branches eventually
    outcomes = {run_rsp(t, seed=s).outcome for s in range(40)}
    assert len(outcomes) > 1


def test_run_rsp_requires_exactly_one_mode():
    t = TargetState(1.0, 0.0)
    with pytest.raises(ValueError):
        run_rsp(t)
    with pytest.raises(ValueError):
        run_rsp(t, seed=1, forced_key=ALL_OUTCOME_KEYS[0])


def test_sampled_outcomes_are_uniform():
    t = TargetState(0.6, 0.8)
    counts = {key: 0 for key in ALL_OUTCOME_KEYS}
    n = 4000
    for seed in range(n):
        counts[run_rsp(t, seed=seed).outcome] += 1
    # 4-sigma binomial band around n/16
    p = 1.0 / 16.0
    sigma = math.sqrt(n * p * (1 - p))
    for key, c in counts.items():
        assert abs(c - n * p) <= 4 * sigma, (key.label(), c)


def test_global_phase_target_prepares_same_physical_state():
    phase = np.exp(1j * 0.77)
    t = TargetState(phase * 0.6, phase * 0.8)
    tr = run_rsp(t, forced_key=OutcomeKey(1, "00", "00"))
    assert_allclose(tr.fidelity, 1.0, atol=1e-12)
