import numpy as np
import pytest
from numpy.testing import assert_allclose

from rsp7 import linalg
from rsp7.linalg import (
    CapacityError,
    apply_to_qubits,
    ket,
    partial_trace,
    pure_density,
    tensor,
)

from conftest import random_density


def test_ket_is_msb_first():
    assert_allclose(ket("10"), [0, 0, 1, 0])
    assert_allclose(ket("01"), [0, 1, 0, 0])


def test_tensor_matches_kron():
    a = np.arange(4.0).reshape(2, 2)
    b = np.arange(4.0, 8.0).reshape(2, 2)
    assert_allclose(tensor(a, b), np.kron(a, b))
    assert_allclose(tensor(ket("0"), ket("1"), ket("1")), ket("011"))


def test_apply_to_qubits_hand_oracle():
    # (X on qubit 1, Z on qubit 2) |11> = X|1> (x) Z|1> = -|01>
    state = ket("11")
    out = apply_to_qubits(linalg.X, [1], state)
    out = apply_to_qubits(linalg.Z, [2], out)
    assert_allclose(out, -ket("01"), atol=1e-15)


def test_apply_to_qubits_two_qubit_gate_placement():
    # CX with control qubit 2 and target qubit 3 inside a 3-qubit register
    state = ket("110")
    out = apply_to_qubits(linalg.CX, [2, 3], state)
    assert_allclose(out, ket("111"), atol=1e-15)
    # reversed target order swaps control and target roles
    out = apply_to_qubits(linalg.CX, [3, 2], ket("101"))
    assert_allclose(out, ket("111"), atol=1e-15)


def test_apply_identity_exact():
    rng = np.random.default_rng(3)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    out = apply_to_qubits(np.eye(2, dtype=complex), [3], v)
    assert np.max(np.abs(out - v)) <= 1e-14


def test_apply_to_density_conjugates():
    rho = pure_density(ket("10"))
    out = apply_to_qubits(linalg.X, [1], rho)
    assert_allclose(out, pure_density(ket("00")), atol=1e-15)


def _partial_trace_loops(rho, n, discard):
    """Independent loop-based reduction used as an oracle."""
    keep = [q for q in range(1, n + 1) if q not in discard]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            bi = format(i, f"0{n}b")
            bj = format(j, f"0{n}b")
            if any(bi[q - 1] != bj[q - 1] for q in discard):
                continue
            ik = int("".join(bi[q - 1] for q in keep) or "0", 2)
            jk = int("".join(bj[q - 1] for q in keep) or "0", 2)
            out[ik, jk] += rho[i, j]
    return out


def test_partial_trace_against_loop_oracle():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 16)
    for discard in ([1], [4], [2, 3], [1, 4], [1, 2, 3]):
        got = partial_trace(rho, discard)
        want = _partial_trace_loops(rho, 4, discard)
        assert_allclose(got, want, atol=1e-13)
        assert_allclose(np.trace(got), 1.0, atol=1e-13)


def test_partial_trace_of_product_state():
    rho = pure_density(tensor(ket("0"), (ket("0") + ket("1")) / np.sqrt(2)))
    reduced = partial_trace(rho, [1])
    assert_allclose(reduced, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        ket("0" * 20)


def test_ket_rejects_garbage():
    with pytest.raises(ValueError):
        ket("012")


def test_outputs_are_frozen():
    v = ket("01")
    with pytest.raises(ValueError):
        v[0] = 1.0
    rho = pure_density(v)
    with pytest.raises(ValueError):
        rho[0, 0] = 2.0
