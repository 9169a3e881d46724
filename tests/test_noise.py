import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rsp7 import channel, linalg, noise
from rsp7.analysis import SweepConfig, noisy_rsp_output
from rsp7.linalg import apply_to_qubits, ket, pure_density
from rsp7.noise import (
    TRANSMITTED_QUBITS,
    EvolutionModel,
    NoiseKind,
    NoiseSpec,
    UnsupportedConfigurationError,
    apply_noise,
    evolved_state,
    kraus_operators,
    trajectory_estimate,
    truncated_channel_state,
)
from rsp7.protocol import ALL_OUTCOME_KEYS, ImpossibleBranchError, OutcomeKey, TargetState

from conftest import random_density

SQ2 = 1.0 / math.sqrt(2.0)
BELL = TargetState(SQ2, SQ2)


# --------------------------------------------------------------------------
# Kraus operator sets.


def test_completeness_on_eta_grid():
    for kind in NoiseKind:
        for eta in np.linspace(0.0, 1.0, 21):
            ops = kraus_operators(kind, float(eta))
            assert noise.completeness_residual(ops) <= 1e-12, (kind, eta)


def test_operator_counts():
    counts = {
        NoiseKind.BIT_FLIP: 2,
        NoiseKind.PHASE_FLIP: 2,
        NoiseKind.BIT_PHASE_FLIP: 2,
        NoiseKind.AMPLITUDE_DAMPING: 2,
        NoiseKind.PHASE_DAMPING: 3,
        NoiseKind.DEPOLARIZING: 4,
    }
    for kind, n in counts.items():
        assert kraus_operators(kind, 0.3).shape == (n, 2, 2)


def test_bit_flip_matrices():
    ops = kraus_operators(NoiseKind.BIT_FLIP, 0.36)
    assert_allclose(ops[0], 0.8 * np.eye(2), atol=1e-12)
    assert_allclose(ops[1], 0.6 * linalg.X, atol=1e-12)


def test_amplitude_damping_eta_one():
    ops = kraus_operators(NoiseKind.AMPLITUDE_DAMPING, 1.0)
    assert_allclose(ops[0], np.diag([1.0, 0.0]), atol=1e-12)
    want = np.zeros((2, 2))
    want[0, 1] = 1.0
    assert_allclose(ops[1], want, atol=1e-12)


def test_depolarizing_weights():
    eta = 0.27
    ops = kraus_operators(NoiseKind.DEPOLARIZING, eta)
    assert_allclose(ops[0], math.sqrt(1 - eta) * np.eye(2), atol=1e-12)
    for op, pauli in zip(ops[1:], (linalg.X, linalg.Y, linalg.Z)):
        assert_allclose(op, math.sqrt(eta / 3.0) * pauli, atol=1e-12)


def test_kraus_grid_matches_scalar_calls():
    grid = np.linspace(0.0, 1.0, 21)
    for kind in NoiseKind:
        stack = kraus_operators(kind, grid)
        assert stack.shape == (21,) + kraus_operators(kind, 0.5).shape
        assert stack.dtype == np.complex128 and not stack.flags.writeable
        for ops, eta in zip(stack, grid):
            assert ops.tobytes() == kraus_operators(kind, eta).tobytes(), (kind, eta)


def test_every_kraus_row_has_at_most_one_nonzero_entry():
    # the exact engine reads noise on a measured helper as a bit channel,
    # which needs N^dagger(|o><o|) = sum_j E_j^dagger |o><o| E_j diagonal
    grid = np.linspace(0.0, 1.0, 11)
    for kind in NoiseKind:
        assert np.count_nonzero(kraus_operators(kind, grid), axis=-1).max() <= 1, kind


def test_exact_engine_rejects_kraus_rows_with_two_entries(monkeypatch):
    # a bit flip about a tilted axis is a channel whose helper duals are not diagonal
    c, s = math.cos(0.3), math.sin(0.3)
    tilt = np.array([[c, -s], [s, c]])
    build = noise.kraus_operators
    monkeypatch.setattr(noise, "kraus_operators",
                        lambda kind, eta: tilt @ build(kind, eta) @ tilt.T)
    with pytest.raises(ValueError, match="two nonzero entries"):
        noise.stacked_blocks(BELL, [noise.kraus_operators(NoiseKind.BIT_FLIP, [0.0, 0.5])], (4,),
                             EvolutionModel.EXACT)


def test_string_tables_reject_a_non_diagonal_kraus_gram(monkeypatch):
    # a tilted phase damping: E^dagger E = eta tilt |0><0| tilt^T is not diagonal,
    # so a string's Born weight no longer reads from |Psi_x|^2 alone
    c, s = math.cos(0.3), math.sin(0.3)
    tilt = np.array([[c, -s], [s, c]])
    build = noise.kraus_operators
    monkeypatch.setattr(noise, "kraus_operators",
                        lambda kind, eta: tilt @ build(kind, eta) @ tilt.T)
    spec = NoiseSpec(NoiseKind.PHASE_DAMPING, 0.5, (4,))
    with pytest.raises(ValueError, match="off-diagonal entry"):
        trajectory_estimate(BELL, ALL_OUTCOME_KEYS[0], spec, n_samples=10)


@pytest.mark.parametrize("kind, etas, error, message", [
    pytest.param(NoiseKind.BIT_FLIP, [], ValueError, "etas must hold at least one value",
                 id="empty"),
    pytest.param(NoiseKind.BIT_FLIP, [0.5, -0.1], ValueError,
                 "eta must lie in [0, 1], got -0.1", id="negative"),
    pytest.param(NoiseKind.DEPOLARIZING, np.array([0.0, 0.5, 1.2, 2.0]), ValueError,
                 "eta must lie in [0, 1], got 1.2", id="above-one"),
    pytest.param(NoiseKind.PHASE_DAMPING, [0.1, 0.2, float("nan")], ValueError,
                 "eta must lie in [0, 1], got nan", id="nan"),
    pytest.param("bit_flip", [0.5], TypeError, "unknown noise kind 'bit_flip'", id="kind"),
])
def test_branch_blocks_rejects_bad_grids(kind, etas, error, message):
    # the engine on one kind's grid, the stack it gets from kraus_operators
    with pytest.raises(error) as info:
        noise.stacked_blocks(BELL, [noise.kraus_operators(kind, etas)], noise.ALL_QUBITS,
                             EvolutionModel.EXACT)
    assert str(info.value) == message


def test_eta_out_of_range_rejected():
    with pytest.raises(ValueError):
        kraus_operators(NoiseKind.BIT_FLIP, -0.1)
    with pytest.raises(ValueError):
        NoiseSpec(NoiseKind.BIT_FLIP, 1.2)
    with pytest.raises(ValueError, match=r"got nan"):
        kraus_operators(NoiseKind.BIT_FLIP, float("nan"))
    with pytest.raises(ValueError, match="1-D grid"):
        kraus_operators(NoiseKind.BIT_FLIP, np.full((2, 2), 0.5))


# --------------------------------------------------------------------------
# Exact channel application.


def test_eta_zero_is_identity():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 8)
    for kind in NoiseKind:
        out = apply_noise(rho, NoiseSpec(kind, 0.0, qubits=(1, 2, 3)))
        assert np.max(np.abs(out - rho)) <= 1e-14


def test_phase_flip_half_dephases_plus_state():
    plus = np.array([SQ2, SQ2], dtype=complex)
    rho = pure_density(plus)
    out = apply_noise(rho, NoiseSpec(NoiseKind.PHASE_FLIP, 0.5, qubits=(1,)))
    assert_allclose(out, np.eye(2) / 2.0, atol=1e-12)


def test_single_qubit_channel_matches_hand_formula():
    # (1-eta) rho + eta X rho X for bit flip on one qubit
    rng = np.random.default_rng(8)
    rho = random_density(rng, 2)
    eta = 0.3
    out = apply_noise(rho, NoiseSpec(NoiseKind.BIT_FLIP, eta, qubits=(1,)))
    want = (1 - eta) * rho + eta * (linalg.X @ rho @ linalg.X)
    assert_allclose(out, want, atol=1e-12)


def test_order_invariance():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 16)
    a = apply_noise(rho, NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.4,
                                   qubits=(1, 2, 3, 4)))
    b = apply_noise(rho, NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.4,
                                   qubits=(4, 2, 1, 3)))
    assert np.max(np.abs(a - b)) <= 1e-12


def test_flip_conjugation_duality():
    # swapping eta <-> 1-eta equals conjugating the output by the flip
    # operator on each affected qubit:
    #   (1-(1-e)) rho + (1-e) F rho F = F [ (1-e) rho + e F rho F ] F
    rng = np.random.default_rng(10)
    rho = random_density(rng, 4)
    flips = {
        NoiseKind.BIT_FLIP: linalg.X,
        NoiseKind.PHASE_FLIP: linalg.Z,
        NoiseKind.BIT_PHASE_FLIP: linalg.Y,
    }
    eta = 0.23
    for kind, op in flips.items():
        lhs = apply_noise(rho, NoiseSpec(kind, 1.0 - eta, qubits=(1, 2)))
        rhs = apply_noise(rho, NoiseSpec(kind, eta, qubits=(1, 2)))
        for q in (1, 2):
            rhs = apply_to_qubits(op, [q], rhs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12, kind


def test_exact_evolution_preserves_density_invariants():
    for kind in NoiseKind:
        for eta in (0.1, 0.5, 0.9):
            rho = evolved_state(NoiseSpec(kind, eta), EvolutionModel.EXACT)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10, (kind, eta)
            assert abs(np.trace(rho) - 1.0) <= 1e-10, (kind, eta)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-9, (kind, eta)


# --------------------------------------------------------------------------
# Truncated two-term construction.


def test_truncated_eta_zero_is_pure_channel():
    mat, tr = truncated_channel_state(NoiseSpec(NoiseKind.DEPOLARIZING, 0.0))
    assert_allclose(tr, 1.0, atol=1e-12)
    assert_allclose(mat, pure_density(channel.build_channel()), atol=1e-12)


def test_truncated_bit_flip_structure():
    eta = 0.42
    psi = channel.build_channel()
    flipped = psi
    for q in range(1, 8):
        flipped = apply_to_qubits(linalg.X, [q], flipped)
    want = (1 - eta) ** 7 * pure_density(psi) + eta**7 * pure_density(flipped)
    mat, tr = truncated_channel_state(NoiseSpec(NoiseKind.BIT_FLIP, eta))
    assert_allclose(mat, want, atol=1e-12)
    assert_allclose(tr, (1 - eta) ** 7 + eta**7, atol=1e-12)


def test_truncated_phase_damping_structure():
    eta = 0.42
    psi = channel.build_channel()
    p0 = np.zeros((128, 128), dtype=complex)
    p0[0, 0] = 1.0
    p1 = np.zeros((128, 128), dtype=complex)
    p1[127, 127] = 1.0
    want = (1 - eta) ** 7 * pure_density(psi) + (eta**7 / 32.0) * (p0 + p1)
    mat, tr = truncated_channel_state(NoiseSpec(NoiseKind.PHASE_DAMPING, eta))
    assert_allclose(mat, want, atol=1e-12)
    assert_allclose(tr, (1 - eta) ** 7 + 2.0 * eta**7 / 32.0, atol=1e-12)


def test_truncated_trace_identity_and_bound():
    for kind in NoiseKind:
        for eta in (0.2, 0.5, 0.8):
            mat, tr = truncated_channel_state(NoiseSpec(kind, eta))
            assert_allclose(np.trace(mat).real, tr, atol=1e-12)
            assert tr <= 1.0 + 1e-12
            eta_term = tr - (1 - eta) ** 7
            assert eta_term >= -1e-12


def test_truncated_requires_all_seven_qubits():
    # the density oracle, the engine and the sweep config share one rule and message
    spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.3, qubits=(2, 3, 4, 5, 6, 7))
    entry_points = (
        lambda: truncated_channel_state(spec),
        lambda: noisy_rsp_output(BELL, ALL_OUTCOME_KEYS[0], spec, EvolutionModel.TRUNCATED),
        lambda: SweepConfig(kinds=(spec.kind,), target=BELL,
                            models=(EvolutionModel.TRUNCATED,), qubits=spec.qubits),
    )
    for call in entry_points:
        with pytest.raises(UnsupportedConfigurationError) as info:
            call()
        assert str(info.value) == "the truncated model is only defined for noise on all seven qubits"


def test_damping_terminal_term_report():
    rep = noise.damping_terminal_term(0.5)
    assert rep.eta == 0.5
    assert rep.residual_derived <= 1e-12
    assert rep.residual_printed == pytest.approx(0.0078163137, abs=1e-9)


# --------------------------------------------------------------------------
# Noisy protocol output.


def test_noiseless_limit_all_kinds():
    for kind in NoiseKind:
        for model in EvolutionModel:
            rho = noisy_rsp_output(TargetState(0.6, 0.8), ALL_OUTCOME_KEYS[3],
                                   NoiseSpec(kind, 0.0), model)
            assert_allclose(rho, pure_density(TargetState(0.6, 0.8).ket()),
                            atol=1e-12)


def test_bit_flip_eta_one_straight_line_oracle():
    # Hand-composed pipeline: eta=1 bit flip is a deterministic X on every
    # qubit, so the whole run can be replayed on a pure state.
    target = TargetState(1.0, 0.0)
    key = OutcomeKey(1, "00", "00")
    spec = NoiseSpec(NoiseKind.BIT_FLIP, 1.0)

    got = noisy_rsp_output(target, key, spec, EvolutionModel.EXACT)

    from rsp7.protocol import alice_basis, gate_matrix, recovery_sequence

    psi = channel.build_channel()
    for q in range(1, 8):
        psi = apply_to_qubits(linalg.X, [q], psi)
    u1 = alice_basis(target)[0]
    proj_u = np.outer(u1, u1.conj())
    psi = apply_to_qubits(proj_u, [1], psi)
    for q, bit in ((4, "0"), (6, "0"), (5, "0"), (7, "0")):
        p = np.outer(ket(bit), ket(bit).conj())
        psi = apply_to_qubits(p, [q], psi)
    norm = np.linalg.norm(psi)
    assert norm > 1e-7
    psi = psi / norm
    for tok in recovery_sequence(key):
        psi = apply_to_qubits(gate_matrix(tok), [2, 3], psi)
    rho = pure_density(psi)
    want = linalg.partial_trace(rho, [1, 4, 5, 6, 7])
    assert_allclose(got, want, atol=1e-12)


def test_impossible_branch_raises_with_probability():
    # full amplitude damping sends everything to |0...0>, so a branch
    # asking for helper bits 11,11 can no longer occur
    spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 1.0)
    with pytest.raises(ImpossibleBranchError) as info:
        noisy_rsp_output(BELL, OutcomeKey(1, "11", "11"), spec,
                         EvolutionModel.EXACT)
    assert info.value.probability < 1e-14
    # no drawn trajectory has weight there either
    with pytest.raises(ImpossibleBranchError) as info:
        trajectory_estimate(BELL, OutcomeKey(1, "01", "01"), spec, n_samples=100)
    assert info.value.probability < 1e-14


def test_transmitted_subset_differs_from_all_seven():
    spec_all = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.35)
    spec_sub = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.35,
                         qubits=noise.TRANSMITTED_QUBITS)
    key = ALL_OUTCOME_KEYS[0]
    a = noisy_rsp_output(BELL, key, spec_all, EvolutionModel.EXACT)
    b = noisy_rsp_output(BELL, key, spec_sub, EvolutionModel.EXACT)
    assert np.max(np.abs(a - b)) > 1e-6


# --------------------------------------------------------------------------
# Monte-Carlo trajectory estimator.


def test_trajectory_eta_zero():
    est = trajectory_estimate(BELL, ALL_OUTCOME_KEYS[0],
                              NoiseSpec(NoiseKind.PHASE_FLIP, 0.0),
                              n_samples=64, seed=3)
    assert_allclose(est.fidelity, 1.0, atol=1e-9)
    assert est.std_error <= 1e-9


def test_trajectory_rejects_a_fractional_sample_count():
    spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.2)
    with pytest.raises(ValueError) as info:
        trajectory_estimate(BELL, ALL_OUTCOME_KEYS[0], spec, n_samples=100.7)
    assert str(info.value) == "n_samples must be an integer, got 100.7"
    est = trajectory_estimate(BELL, ALL_OUTCOME_KEYS[0], spec, n_samples=np.int64(100))
    assert est.n_samples == 100 and type(est.n_samples) is int


def test_trajectory_determinism():
    spec = NoiseSpec(NoiseKind.DEPOLARIZING, 0.3)
    a = trajectory_estimate(BELL, ALL_OUTCOME_KEYS[5], spec,
                            n_samples=2000, seed=11)
    b = trajectory_estimate(BELL, ALL_OUTCOME_KEYS[5], spec,
                            n_samples=2000, seed=11)
    assert a == b


@pytest.mark.parametrize(
    "target, key, spec, n, seed, fidelity, std_error",
    [
        (BELL, ALL_OUTCOME_KEYS[5], NoiseSpec(NoiseKind.DEPOLARIZING, 0.3), 2000, 11,
         0.3875278396436524, 0.013146271869807921),
        # 20000 samples span three chunks
        (TargetState(0.6, 0.8), ALL_OUTCOME_KEYS[13],
         NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.4, TRANSMITTED_QUBITS), 20000, 5,
         0.5785882490061747, 0.004567157602869555),
    ],
    ids=["one-chunk", "three-chunks"],
)
def test_trajectory_stream_is_pinned(target, key, spec, n, seed, fidelity, std_error):
    # a seed keeps its meaning: these fidelities come from evolving every
    # trajectory's state, qubit by qubit, on the same random stream
    est = trajectory_estimate(target, key, spec, n_samples=n, seed=seed)
    assert abs(est.fidelity - fidelity) <= 1e-12
    assert abs(est.std_error - std_error) <= 1e-12


def _trajectory_peak(n_samples):
    spec = NoiseSpec(NoiseKind.DEPOLARIZING, 0.3)
    tracemalloc.start()
    try:
        trajectory_estimate(BELL, ALL_OUTCOME_KEYS[5], spec, n_samples=n_samples, seed=11)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_peak_does_not_grow_with_samples(monkeypatch):
    monkeypatch.setattr(noise, "_CHUNK", 1)
    _trajectory_peak(10)
    # 1 KB covers interpreter noise; 1,000 samples draw 900 more chunks than 100
    assert _trajectory_peak(1_000) <= _trajectory_peak(100) + 1024


def test_trajectory_error_covers_undrawn_rare_strings():
    # one Kraus string of probability 2.2e-4 carries 77 % of the variance;
    # this seed draws it never, and sample moments gave 0.00022 (11.9 SE off)
    target = TargetState(complex(0.444299758795109, 0.8928533207477799),
                         complex(-0.032770252089574216, -0.06585425227163168))
    key = OutcomeKey(2, "00", "10")
    spec = NoiseSpec(NoiseKind.PHASE_DAMPING, 0.9290944091077079)
    est = trajectory_estimate(target, key, spec, n_samples=5000, seed=1950962861)
    exact = noisy_rsp_output(target, key, spec)
    fidelity = (target.ket().conj() @ exact @ target.ket()).real
    # 0.00188 is also the spread of the estimate over 2000 seeds
    assert abs(est.std_error - 0.0018845703523300743) <= 1e-12
    assert abs(est.fidelity - fidelity) <= 3.0 * est.std_error


def test_trajectory_matches_exact_model():
    from rsp7.analysis import branch_fidelity

    spec = NoiseSpec(NoiseKind.PHASE_DAMPING, 0.3)
    key = OutcomeKey(1, "00", "00")
    exact = branch_fidelity(BELL, key, spec, EvolutionModel.EXACT)
    est = trajectory_estimate(BELL, key, spec, n_samples=20000, seed=21)
    assert abs(est.fidelity - exact) <= 3.0 * max(est.std_error, 1e-12)
