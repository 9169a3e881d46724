import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rsp7 import channel
from rsp7.linalg import CX, apply_to_qubits, ket, tensor
from rsp7.protocol import ALL_OUTCOME_KEYS, TargetState

from conftest import random_targets

AMP = 1.0 / (4.0 * math.sqrt(2.0))

# Full sign table of the seven-qubit resource state in the computational
# basis (qubit 1 = most significant).  Frozen by hand from the defining
# construction: pairwise-entangled six-qubit core, then a CNOT copying
# qubit 6 onto the appended qubit 7.
SIGNED_SUPPORT = """
+0000000 +0000111 +0001011 +0001100 +0010011 -0010100 -0011000 +0011111
+0100011 +0100100 -0101000 -0101111 +0110000 -0110111 +0111011 -0111100
-1000011 +1000100 -1001000 +1001111 -1010000 -1010111 +1011011 +1011100
+1100000 -1100111 -1101011 +1101100 +1110011 +1110100 +1111000 +1111111
""".split()


def test_channel_against_frozen_sign_table():
    psi = channel.build_channel()
    expected = np.zeros(128, dtype=complex)
    for entry in SIGNED_SUPPORT:
        sign = 1.0 if entry[0] == "+" else -1.0
        expected[int(entry[1:], 2)] = sign * AMP
    assert_allclose(psi, expected, atol=1e-12)


def test_channel_support_size_and_magnitude():
    psi = channel.build_channel()
    nonzero = np.abs(psi) > 1e-12
    assert nonzero.sum() == 32
    assert_allclose(np.abs(psi[nonzero]), AMP, atol=1e-12)
    assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-12)


def test_channel_is_borras_core_plus_copied_ancilla():
    psi = channel.build_channel().reshape((2,) * 7)
    core = channel.borras_state()
    assert_allclose(np.linalg.norm(core), 1.0, atol=1e-12)
    # qubit 7 duplicates qubit 6 on every nonzero amplitude
    assert_allclose(psi[:, :, :, :, :, 0, 1], 0.0, atol=1e-15)
    assert_allclose(psi[:, :, :, :, :, 1, 0], 0.0, atol=1e-15)
    # erasing the copy recovers the six-qubit core
    folded = np.stack(
        [psi[:, :, :, :, :, 0, 0], psi[:, :, :, :, :, 1, 1]], axis=5
    )
    assert_allclose(folded.reshape(-1), core, atol=1e-12)


def test_bell_pairs_and_triplets_are_unit_norm():
    for name, vec in channel.bell_pairs().items():
        assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-12, err_msg=name)
    for name, vec in channel.grouped_triplets().items():
        assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-12, err_msg=name)


def test_factor_states_norms_and_orthogonality():
    t = TargetState(0.6, 0.8)
    f1, f2 = channel.factor_states(t)
    assert_allclose(np.vdot(f1, f1).real, 8.0, atol=1e-12)
    assert_allclose(np.vdot(f2, f2).real, 8.0, atol=1e-12)
    assert abs(np.vdot(f1, f2)) <= 1e-12


def test_alice_basis_rows():
    basis = channel.alice_basis(TargetState(0.6, 0.8))
    assert basis.shape == (2, 2) and not basis.flags.writeable
    assert_allclose(basis, [[0.6, 0.8], [-0.8, 0.6]], atol=1e-15)


def test_factorization_residual_real_targets(rng):
    for t in random_targets(rng, 20, with_phase=False):
        assert channel.verify_factorization(t) <= 1e-12


def test_factorization_residual_phased_targets(rng):
    # a global phase on (alpha, beta) is still in the supported family
    for t in random_targets(rng, 20, with_phase=True):
        assert channel.verify_factorization(t) <= 1e-12


def test_factorization_residual_edge_targets():
    for t in (TargetState(1.0, 0.0), TargetState(0.0, 1.0),
              TargetState(1j, 0.0), TargetState(0.6j, 0.8j)):
        assert channel.verify_factorization(t) <= 1e-12


def test_factor_block_norm_and_count():
    # the sixteen supported factor blocks are the unit-norm columns of the
    # factor states; every other (sender, helper pattern) column is zero
    f = channel.factor_states(TargetState(0.6, 0.8)).reshape(2, 4, 16)
    supported = {divmod(key.outcome_index, 16) for key in ALL_OUTCOME_KEYS}
    assert len(supported) == 16
    for a in range(2):
        for pattern in range(16):
            want = 1.0 if (a, pattern) in supported else 0.0
            assert_allclose(np.linalg.norm(f[a, :, pattern]), want, atol=1e-12)


def test_correlated_pairs_cover_exactly_the_channel_support():
    psi = channel.build_channel().reshape((2,) * 7)
    mass = 0.0
    for c, d in channel.CORRELATED_PAIRS:
        c1, c2 = int(c[0]), int(c[1])
        d1, d2 = int(d[0]), int(d[1])
        block = psi[:, :, :, c1, d1, c2, d2]
        p = float(np.sum(np.abs(block) ** 2))
        assert_allclose(p, 1.0 / 8.0, atol=1e-12, err_msg=f"({c},{d})")
        mass += p
    assert_allclose(mass, 1.0, atol=1e-12)


def test_each_triplet_is_cx_of_its_bell_pair_and_a_zero():
    # the grouped form reads the Borras groups with each Bell name renamed
    names = {"even+": "ghz+", "even-": "ghz-", "odd+": "comp+", "odd-": "comp-"}
    triplets = channel.grouped_triplets()
    assert set(triplets) == set(names.values())
    for bell, vec in channel.bell_pairs().items():
        got = apply_to_qubits(CX, [2, 3], tensor(vec, ket("0")))
        assert_allclose(got, triplets[names[bell]], atol=1e-15, err_msg=bell)


def test_grouped_form_report_values():
    rep = channel.verify_grouped_form()
    assert rep.residual_corrected <= 1e-12
    assert_allclose(rep.residual_printed, 0.875, atol=1e-12)
    assert_allclose(rep.printed_norm, 0.125, atol=1e-12)


def test_party_map_is_total():
    assert sorted(channel.QUBIT_PARTY) == list(range(1, 8))
    assert set(channel.QUBIT_PARTY.values()) == {
        "A", "B1", "B2", "C1", "D1", "C2", "D2"
    }


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=2), st.integers(0, 2 ** 32 - 1))
def test_party_layout_places_each_party_bit(lead, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (128,)
    vectors = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    layout = channel.party_layout(vectors)
    assert layout.shape == tuple(lead) + (2, 16, 4)
    for a in range(2):
        for h in range(16):
            for p in range(4):
                bits = {"A": a, "C1": h >> 3, "C2": h >> 2 & 1, "D1": h >> 1 & 1,
                        "D2": h & 1, "B1": p >> 1, "B2": p & 1}
                index = sum(bits[party] << (7 - q) for q, party in channel.QUBIT_PARTY.items())
                assert np.array_equal(layout[..., a, h, p], vectors[..., index])


def test_outcome_slots_hold_the_whole_channel():
    slots = [key.outcome_index for key in ALL_OUTCOME_KEYS]
    assert len(set(slots)) == 16
    layout = channel.party_layout(channel.build_channel())
    weights = np.sum(np.abs(layout) ** 2, axis=-1).reshape(32)
    assert_allclose(weights[slots].sum(), 1.0, atol=1e-12)
    assert np.all(np.delete(weights, slots) == 0.0)
    register = channel.build_channel().reshape((2,) * 7)
    for key in ALL_OUTCOME_KEYS:
        c1, c2, d1, d2 = (int(b) for b in key.charlie + key.david)
        assert np.array_equal(layout[:, key.outcome_index % 16].reshape(2, 2, 2),
                              register[:, :, :, c1, d1, c2, d2])
