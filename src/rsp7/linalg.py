"""Dense complex linear algebra for small multi-qubit registers.

Convention used everywhere in this package: qubit 1 is the most
significant bit of the basis index, so the ket string ``|b1 b2 .. bn>``
reads left to right from high bit to low bit.

All functions are pure. Returned arrays are marked read-only so values
can be shared freely (between callers, caches and threads) without
defensive copies.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

#: Largest vector length / matrix row count any construction may produce.
MAX_DIM = 2 ** 14


class CapacityError(ValueError):
    """A tensor product would exceed the supported register size."""


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    if out is a and a.flags.writeable:
        out = a.copy()
    out.setflags(write=False)
    return out


def n_qubits(value: np.ndarray) -> int:
    """Number of qubits of a state vector (1-D) or operator (2-D, square)."""
    value = np.asarray(value)
    if value.ndim == 2 and value.shape[0] != value.shape[1]:
        raise ValueError(f"operator is not square: shape {value.shape}")
    if value.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a matrix, got ndim={value.ndim}")
    dim = value.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


def _check_capacity(num_qubits: int) -> None:
    if 2 ** num_qubits > MAX_DIM:
        raise CapacityError(
            f"{num_qubits}-qubit register exceeds the supported size (2^14)"
        )


def ket(bits: str) -> np.ndarray:
    """Computational basis state from a bit string, e.g. ket("010")."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"invalid bit string: {bits!r}")
    _check_capacity(len(bits))
    vec = np.zeros(2 ** len(bits), dtype=np.complex128)
    vec[int(bits, 2)] = 1.0
    return _frozen(vec)


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of vectors (or of square operators), left to right."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=np.complex128)
    ndim = out.ndim
    if ndim not in (1, 2):
        raise ValueError("tensor factors must be vectors or matrices")
    for f in factors[1:]:
        f = np.asarray(f, dtype=np.complex128)
        if f.ndim != ndim:
            raise ValueError("cannot mix vectors and operators in one product")
        if out.shape[0] * f.shape[0] > MAX_DIM:
            raise CapacityError(
                f"tensor product would have {out.shape[0] * f.shape[0]} rows "
                f"(limit {MAX_DIM})"
            )
        out = np.kron(out, f)
    return _frozen(out)


def pure_density(vec: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |v><v| of a (not necessarily unit) vector."""
    vec = np.asarray(vec, dtype=np.complex128)
    if vec.ndim != 1:
        raise ValueError("pure_density expects a state vector")
    return _frozen(np.outer(vec, vec.conj()))


def _check_targets(targets: Sequence[int], n: int) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"repeated target qubit in {list(targets)}")
    for t in targets:
        if not 1 <= t <= n:
            raise ValueError(f"target qubit {t} out of range 1..{n}")


def apply_to_qubits(op: np.ndarray, targets: Sequence[int], state: np.ndarray) -> np.ndarray:
    """Apply a k-qubit operator to the given register qubits (1-based).

    ``state`` may be a state vector (returns O|psi>) or a density matrix
    (returns O rho O^dagger; O need not be unitary, so measurement
    projectors and Kraus operators can be applied the same way).
    The operator's own qubit order follows the order of ``targets``.
    """
    op = np.asarray(op, dtype=np.complex128)
    state = np.asarray(state, dtype=np.complex128)
    targets = list(targets)
    k = len(targets)
    if k == 0:
        raise ValueError("need at least one target qubit")
    if op.ndim != 2 or op.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {op.shape} does not act on {k} qubit(s)")
    n = n_qubits(state)
    _check_targets(targets, n)
    row_axes = [t - 1 for t in targets]
    op_t = op.reshape((2,) * (2 * k))
    in_axes = list(range(k, 2 * k))
    if state.ndim == 1:
        psi = state.reshape((2,) * n)
        out = np.tensordot(op_t, psi, axes=(in_axes, row_axes))
        out = np.moveaxis(out, list(range(k)), row_axes)
        return _frozen(out.reshape(-1))
    rho = state.reshape((2,) * (2 * n))
    out = np.tensordot(op_t, rho, axes=(in_axes, row_axes))
    out = np.moveaxis(out, list(range(k)), row_axes)
    col_axes = [n + t - 1 for t in targets]
    out = np.tensordot(op_t.conj(), out, axes=(in_axes, col_axes))
    out = np.moveaxis(out, list(range(k)), col_axes)
    return _frozen(out.reshape(2 ** n, 2 ** n))


def partial_trace(rho: np.ndarray, discard: Iterable[int]) -> np.ndarray:
    """Trace out the listed qubits (1-based) of a density matrix."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2:
        raise ValueError("partial_trace expects a density matrix")
    n = n_qubits(rho)
    ds = sorted(set(discard))
    if not ds:
        raise ValueError("discard set is empty")
    if len(ds) >= n:
        raise ValueError("cannot discard every qubit")
    _check_targets(ds, n)
    t = rho.reshape((2,) * (2 * n))
    m = n
    # Trace the highest-numbered discarded qubit first so the remaining
    # axis positions stay valid.
    for q in reversed(ds):
        t = np.trace(t, axis1=q - 1, axis2=m + q - 1)
        m -= 1
    return _frozen(t.reshape(2 ** m, 2 ** m))


# Single-qubit constants and the two-qubit controlled-not (control first).
I2 = _frozen(np.eye(2, dtype=np.complex128))
X = _frozen(np.array([[0, 1], [1, 0]], dtype=np.complex128))
Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
Z = _frozen(np.array([[1, 0], [0, -1]], dtype=np.complex128))
H = _frozen(np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0))
CX = _frozen(
    np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=np.complex128,
    )
)
