"""The seven-qubit entangled channel and its algebraic factorizations.

The channel is built from a six-qubit Borras state plus one ancilla:

    |Psi> = CX(6,7) (|borras>_{1..6} (x) |0>_7)

It distributes qubits to five parties; the assignment is fixed:

    qubit 1 -> A (sender), 2 -> B1, 3 -> B2 (receiver pair),
    4 -> C1, 5 -> D1, 6 -> C2, 7 -> D2 (the four helper qubits).

Two exact rewritings of |Psi> are provided with verification helpers:
a two-branch factorization against the sender's measurement basis, and
a grouped form over three-qubit superposition pairs whose printed
prefactor in the source description is inconsistent (see
``verify_grouped_form``).

A ``target`` is a ``protocol.TargetState``, which checks when it is built
that alpha and beta are finite, of unit norm and real up to one shared
phase, so that ``alice_basis`` is orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import CX, apply_to_qubits, ket, tensor

QUBIT_PARTY = {1: "A", 2: "B1", 3: "B2", 4: "C1", 5: "D1", 6: "C2", 7: "D2"}

#: Register qubits a branch measures, in layout order A, C1, C2, D1, D2.
MEASURED_QUBITS = (1, 4, 6, 5, 7)
_LAYOUT_AXES = tuple(q - 8 for q in MEASURED_QUBITS + (2, 3))


def party_layout(vectors: np.ndarray) -> np.ndarray:
    """Register vectors (..., 128) as (..., sender, helper pattern, receiver pair).

    The one register layout every branch is read from, shape
    (..., 2, 16, 4): the sender qubit, the helper pattern whose index
    reads as the bits c1 c2 d1 d2 (``MEASURED_QUBITS[1:]``), and the pair
    b1 b2.
    """
    vectors = np.asarray(vectors)
    lead = vectors.shape[:-1]
    t = vectors.reshape(lead + (2,) * 7).transpose(tuple(range(len(lead))) + _LAYOUT_AXES)
    return t.reshape(lead + (2, 16, 4))


def bell_pairs() -> dict[str, np.ndarray]:
    """Two-qubit Bell states keyed by parity: odd = (|01> +- |10>)/sqrt2,
    even = (|00> +- |11>)/sqrt2."""
    s = 1.0 / np.sqrt(2.0)
    return {
        "odd+": s * (ket("01") + ket("10")),
        "odd-": s * (ket("01") - ket("10")),
        "even+": s * (ket("00") + ket("11")),
        "even-": s * (ket("00") - ket("11")),
    }


def grouped_triplets() -> dict[str, np.ndarray]:
    """Three-qubit pairs used by the grouped form: ghz = (|000> +- |111>)/sqrt2,
    comp = (|011> +- |100>)/sqrt2 (a bitwise-complement pair)."""
    s = 1.0 / np.sqrt(2.0)
    return {
        "ghz+": s * (ket("000") + ket("111")),
        "ghz-": s * (ket("000") - ket("111")),
        "comp+": s * (ket("011") + ket("100")),
        "comp-": s * (ket("011") - ket("100")),
    }


# Six-qubit state as 8 groups of (3-qubit prefix) (x) (ancilla) (x) (Bell pair).
_BORRAS_GROUPS = (
    ("000", (("0", "even+", 1), ("1", "odd+", 1))),
    ("001", (("0", "odd-", 1), ("1", "even-", -1))),
    ("010", (("0", "odd+", 1), ("1", "even+", -1))),
    ("011", (("0", "even-", 1), ("1", "odd-", 1))),
    ("100", (("0", "odd-", -1), ("1", "even-", -1))),
    ("101", (("0", "even+", -1), ("1", "odd+", 1))),
    ("110", (("0", "even-", 1), ("1", "odd-", -1))),
    ("111", (("0", "odd+", 1), ("1", "even+", 1))),
)


@lru_cache(maxsize=1)
def borras_state() -> np.ndarray:
    """Six-qubit Borras state: 32 nonzero amplitudes, all +-1/(4 sqrt 2)."""
    bells = bell_pairs()
    psi = np.zeros(64, dtype=np.complex128)
    for prefix, terms in _BORRAS_GROUPS:
        for anc, bell_key, sign in terms:
            psi = psi + sign * tensor(ket(prefix), ket(anc), bells[bell_key])
    psi = psi / 4.0
    psi.setflags(write=False)
    return psi


@lru_cache(maxsize=1)
def build_channel() -> np.ndarray:
    """Seven-qubit channel state shared by the five parties."""
    return apply_to_qubits(CX, [6, 7], tensor(borras_state(), ket("0")))


# The printed factor states over qubit order (B1 B2, C1 C2, D1 D2): eight
# blocks each, whose terms only ``factor_states`` reads (audited by
# ``verify_factorization``).  Each block is one four-term combination on
# the receiver pair for a helper outcome |c1 c2>|d1 d2>; these (c, d)
# patterns are the only helper outcomes that ever occur.
_F1_BLOCKS = (
    ("00", "00", (("a", "00", 1), ("b", "10", 1), ("a", "11", 1), ("b", "01", -1))),
    ("01", "01", (("a", "01", 1), ("b", "11", 1), ("a", "10", 1), ("b", "00", -1))),
    ("10", "00", (("a", "01", -1), ("b", "11", 1), ("a", "10", -1), ("b", "00", -1))),
    ("11", "01", (("a", "00", 1), ("b", "10", -1), ("a", "11", 1), ("b", "01", 1))),
    ("00", "10", (("a", "01", -1), ("b", "11", 1), ("a", "10", 1), ("b", "00", 1))),
    ("10", "10", (("a", "00", 1), ("b", "10", 1), ("a", "11", -1), ("b", "01", 1))),
    ("01", "11", (("a", "00", 1), ("b", "10", -1), ("a", "11", -1), ("b", "01", -1))),
    ("11", "11", (("a", "01", 1), ("b", "11", 1), ("a", "10", -1), ("b", "00", 1))),
)
_F2_BLOCKS = (
    ("00", "00", (("a", "10", 1), ("b", "00", -1), ("a", "01", -1), ("b", "11", -1))),
    ("01", "01", (("a", "11", 1), ("b", "01", -1), ("a", "00", -1), ("b", "10", -1))),
    ("10", "00", (("a", "11", 1), ("b", "01", 1), ("a", "00", -1), ("b", "10", 1))),
    ("11", "01", (("a", "10", -1), ("b", "00", -1), ("a", "01", 1), ("b", "11", -1))),
    ("00", "10", (("a", "11", 1), ("b", "01", 1), ("a", "00", 1), ("b", "10", -1))),
    ("10", "10", (("a", "10", 1), ("b", "00", -1), ("a", "01", 1), ("b", "11", 1))),
    ("01", "11", (("a", "10", -1), ("b", "00", -1), ("a", "01", -1), ("b", "11", 1))),
    ("11", "11", (("a", "11", 1), ("b", "01", -1), ("a", "00", 1), ("b", "10", 1))),
)

#: The eight (charlie, david) outcome patterns carried by the factor states.
CORRELATED_PAIRS = tuple((c, d) for c, d, _ in _F1_BLOCKS)


def factor_states(target) -> np.ndarray:
    """Six-qubit factor states (f1, f2) over qubit order (B1,B2,C1,C2,D1,D2),
    as the rows of a read-only (2, 64) array.

    Unnormalized on purpose: each has squared norm 8, so that
    |Psi> = (1/4) [u1 (x) f1 + u2 (x) f2] with u1, u2 the sender basis;
    read as (pair, helper pattern), f1 and f2 hold the helpers in
    ``party_layout`` order.
    """
    coef = {"a": target.alpha, "b": target.beta}
    f = np.zeros((2, 4, 16), dtype=np.complex128)
    for out, blocks in zip(f, (_F1_BLOCKS, _F2_BLOCKS)):
        for c, d, terms in blocks:  # (amplitude, pair bits, sign) terms / sqrt2
            for which, bbits, sign in terms:
                out[int(bbits, 2), int(c + d, 2)] += sign * coef[which]
    f = f.reshape(2, 64) / np.sqrt(2.0)
    f.setflags(write=False)
    return f


def alice_basis(target) -> np.ndarray:
    """Sender measurement basis u1 = alpha|0> + beta|1>, u2 = alpha|1> - beta|0>,
    as the read-only 2x2 array whose rows are u1 and u2."""
    a, b = target.alpha, target.beta
    basis = np.array([[a, b], [-b, a]], dtype=np.complex128)
    basis.setflags(write=False)
    return basis


def verify_factorization(target) -> float:
    """Residual of the two-branch factorization against the channel.

    A shared complex phase on (alpha, beta) reproduces the channel only up
    to the global phase alpha^2 + beta^2, so the residual is computed
    after aligning that phase; for real parameters this is the plain
    norm difference.
    """
    recon = 0.25 * sum(
        u[:, None, None] * f.reshape(4, 16).T
        for u, f in zip(alice_basis(target), factor_states(target))
    )
    psi = party_layout(build_channel())
    overlap = np.vdot(recon, psi)
    if abs(overlap) > 1e-12:
        recon = recon * (overlap / abs(overlap))
    return float(np.linalg.norm(psi - recon))


@dataclass(frozen=True)
class GroupedFormReport:
    """Residuals of the grouped rewriting under both prefactors.

    The printed description carries a 1/32 prefactor, which cannot
    reproduce a unit vector; the rewriting is exact with 1/4.
    """

    residual_corrected: float
    residual_printed: float
    printed_norm: float


def verify_grouped_form() -> GroupedFormReport:
    """The grouped form is the Borras groups with qubit 7 attached: CX(6,7)
    takes each Bell pair on qubits 5-6, with qubit 7 in |0>, to the triplet
    of that name, even -> ghz and odd -> comp."""
    triplets = grouped_triplets()
    bracket = np.zeros(128, dtype=np.complex128)
    for prefix, terms in _BORRAS_GROUPS:
        for anc, bell_key, sign in terms:
            trip_key = bell_key.replace("even", "ghz").replace("odd", "comp")
            bracket = bracket + sign * tensor(ket(prefix), ket(anc), triplets[trip_key])
    psi = build_channel()
    corrected = bracket / 4.0
    printed = bracket / 32.0
    return GroupedFormReport(
        residual_corrected=float(np.linalg.norm(psi - corrected)),
        residual_printed=float(np.linalg.norm(psi - printed)),
        printed_norm=float(np.linalg.norm(printed)),
    )
