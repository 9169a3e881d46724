"""Noiseless deterministic remote preparation of alpha|00> + beta|11>.

Protocol flow: the sender (qubit A) measures in a target-dependent
two-state basis; the four helpers (C1, C2, D1, D2) measure in the
computational basis; broadcasting those outcomes lets the receiver turn
the collapsed state of the pair (B1, B2) into the target with a short
sequence of local gates.  ``run_rsp`` reads each round from the
target's table of branch amplitudes instead of collapsing the register.

The published gate table for that last step contains defects: two rows
carry a helper-outcome label that never occurs, and one row's gate list
does not map its collapsed state to the target.  ``table_report`` audits
the printed rows by position against the channel's own collapsed states:
row i belongs to ``ALL_OUTCOME_KEYS[i]``.  A row whose label names an
impossible helper pattern is re-keyed to its key, and a gate list that
fails on that key's states is replaced by the key's Pauli-frame gates:
``CX12 H1`` followed by Z1, X1 and X2, each set by one parity of the
broadcast bits.  The printed receiver-state columns are audited once, by
``channel.verify_factorization``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from . import channel
from .channel import alice_basis
from .linalg import CX, H, I2, X, Z, ket, n_qubits, tensor
from .linalg import apply_to_qubits  # noqa: F401  bench/tracing.py wraps protocol.apply_to_qubits

#: Largest | |alpha|^2 + |beta|^2 - 1 | of a target.
_NORM_TOL = 1e-10
#: Largest |<u1|u2>| of a supported target's sender basis.
_ORTHO_TOL = 1e-12
#: Largest entry of B B^dagger - I of a basis ``measure_projective`` accepts.
_BASIS_TOL = 1e-10
#: A branch whose probability falls below this floor counts as impossible.
MIN_BRANCH_PROBABILITY = 1e-14
#: Smallest amplitude ``_pair_defect`` takes as a phase reference.
_PHASE_FLOOR = 1e-9
#: Largest ``_sequence_defect`` of a gate list that counts as a correct recovery.
GATE_TOL = 1e-10


class ImpossibleBranchError(RuntimeError):
    """A forced measurement outcome has (numerically) zero probability."""

    def __init__(self, message: str, probability: float):
        super().__init__(message)
        self.probability = probability


class UnknownOutcomeError(LookupError):
    """An outcome key outside the sixteen supported protocol branches."""


def as_integer(name: str, value) -> int:
    """``value`` through ``operator.index``: a count given as 2.5 or "3" raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class TargetState:
    """Receiver target alpha|00> + beta|11> with |alpha|^2 + |beta|^2 = 1.

    Both amplitudes may be complex, but the sender basis ``alice_basis``
    is orthonormal only when conj(alpha)*beta is real, i.e. for real
    amplitude pairs up to one shared global phase; a relative phase is
    rejected here, outside the family this preparation scheme supports.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        if not np.isfinite([a, b]).all():
            raise ValueError(f"amplitudes must be finite, got alpha={a!r}, beta={b!r}")
        try:
            norm = abs(a) ** 2 + abs(b) ** 2
        except OverflowError:  # a square beyond the largest float
            norm = math.inf
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {norm!r} is not 1 within {_NORM_TOL}")
        # <u1|u2> = conj(alpha) (-beta) + conj(beta) alpha
        if abs(b.conjugate() * a - a.conjugate() * b) > _ORTHO_TOL:
            raise ValueError(
                "sender basis is not orthonormal: alpha and beta must be real up "
                "to one shared global phase"
            )

    def ket(self) -> np.ndarray:
        vec = np.zeros(4, dtype=np.complex128)
        vec[0] = self.alpha
        vec[3] = self.beta
        vec.setflags(write=False)
        return vec

    @classmethod
    def random(cls, rng: np.random.Generator, *, with_phase: bool = True) -> "TargetState":
        """Draw a supported target: real amplitudes times one shared phase."""
        t = rng.uniform(0.0, 2.0 * math.pi)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) if with_phase else 1.0
        return cls(phase * math.cos(t), phase * math.sin(t))


@dataclass(frozen=True)
class OutcomeKey:
    """One protocol branch: sender outcome 1|2 plus helper bit patterns."""

    alice: int
    charlie: str
    david: str

    def __post_init__(self):
        object.__setattr__(self, "alice", as_integer("sender outcome", self.alice))
        if self.alice not in (1, 2):
            raise ValueError(f"sender outcome must be 1 or 2, got {self.alice!r}")
        for name, bits in (("charlie", self.charlie), ("david", self.david)):
            if not isinstance(bits, str) or len(bits) != 2 or any(c not in "01" for c in bits):
                raise ValueError(f"{name} outcome must be two bits, got {bits!r}")
        if (self.charlie, self.david) not in channel.CORRELATED_PAIRS:
            raise ValueError(
                f"helper outcome ({self.charlie}, {self.david}) is not one of "
                f"the eight correlated patterns"
            )

    def label(self) -> str:
        return f"U{self.alice},{self.charlie},{self.david}"

    @property
    def outcome_index(self) -> int:
        """Slot of this key among the 2 x 16 (sender, helper pattern)
        outcomes of ``channel.party_layout``."""
        return (self.alice - 1) * 16 + int(self.charlie + self.david, 2)


ALL_OUTCOME_KEYS: tuple[OutcomeKey, ...] = tuple(
    OutcomeKey(a, c, d) for a in (1, 2) for (c, d) in channel.CORRELATED_PAIRS
)
#: ``OutcomeKey.outcome_index`` -> position of that key in ALL_OUTCOME_KEYS.
_RULE_OF_SLOT = {key.outcome_index: i for i, key in enumerate(ALL_OUTCOME_KEYS)}

# Receiver gate alphabet: 4x4 matrices on the pair (B1, B2), B1 most
# significant.  CX12 = control B1 / target B2, CX21 the reverse.
_CX21 = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=np.complex128
)
GATE_MATRICES = {
    "CX12": CX,
    "CX21": _CX21,
    "H1": tensor(H, I2),
    "H2": tensor(I2, H),
    "X1": tensor(X, I2),
    "X2": tensor(I2, X),
    "Z1": tensor(Z, I2),
    "Z2": tensor(I2, Z),
}
for _m in GATE_MATRICES.values():
    _m.setflags(write=False)


def gate_matrix(token: str) -> np.ndarray:
    try:
        return GATE_MATRICES[token]
    except KeyError:
        raise ValueError(f"unknown gate token {token!r}") from None


def _compose(gates: Sequence[str]) -> np.ndarray:
    """A gate list as one read-only 4x4 matrix; the first listed gate acts first."""
    out = np.eye(4, dtype=np.complex128)
    for tok in gates:
        out = gate_matrix(tok) @ out
    out.setflags(write=False)
    return out


# The published recovery table, row for row, including its defects: the
# sender outcome, the printed helper label and the printed gate list.  Row i
# stands where ALL_OUTCOME_KEYS[i] belongs; its printed receiver-state column
# is that key's factor block in ``channel``, term for term.
_PRINTED_ROWS = (
    (1, "00", "00", ("CX12", "H1", "Z1")),
    (1, "01", "01", ("CX12", "H1", "X2", "Z1")),
    (1, "10", "00", ("CX12", "H1", "Z1", "Z2", "X2")),
    (1, "11", "01", ("CX12", "H1")),
    (1, "00", "10", ("CX12", "H1", "Z1", "X1", "X2")),
    (1, "10", "10", ("CX12", "H1", "Z2", "X1", "CX21")),
    (1, "10", "11", ("CX12", "H1", "Z2", "X1")),
    (1, "11", "11", ("CX12", "H1", "X2", "X1")),
    (2, "00", "00", ("CX12", "H1", "Z1", "X1", "X2", "Z1")),
    (2, "01", "01", ("CX12", "H1", "Z2", "Z1", "X1")),
    (2, "10", "00", ("CX12", "H1", "Z1", "X1")),
    (2, "11", "01", ("CX12", "H1", "X1", "X2", "Z1")),
    (2, "00", "10", ("CX12", "H1")),
    (2, "10", "10", ("CX12", "H1", "Z1", "X2")),
    (2, "10", "11", ("CX12", "H1", "Z1", "Z2", "X2")),
    (2, "11", "11", ("CX12", "H1", "Z1")),
)

@dataclass(frozen=True)
class RecoveryRule:
    """Verified receiver gate sequence for one outcome key, with its audit."""

    key: OutcomeKey
    gates: tuple[str, ...]
    matrix: np.ndarray = field(compare=False, repr=False)  # ``gates`` as one 4x4 matrix
    gate_defect: float  # defect of ``gates`` themselves, at most GATE_TOL
    printed_pair: Optional[tuple[str, str]]  # the printed helper label, if it differs
    printed_gates: tuple[str, ...]
    printed_gate_defect: float

    @property
    def status(self) -> str:
        """One of "verified", "rekeyed", "repaired" and "rekeyed+repaired"."""
        if self.printed_gate_defect <= GATE_TOL:
            return "verified" if self.printed_pair is None else "rekeyed"
        return "repaired" if self.printed_pair is None else "rekeyed+repaired"


def _basis_blocks() -> np.ndarray:
    """Collapsed receiver states of all 32 outcomes at parameters (1,0) and (0,1).

    Each is 4 (u_a^dagger (x) I) Psi on ``channel.party_layout``, shape
    (2, 32, 4), indexed by ``OutcomeKey.outcome_index``.  Receiver gates
    are complex-linear maps, so a sequence prepares the target for every
    parameter pair exactly when it sends a key's two basis blocks to |00>
    and |11> with one common phase.
    """
    layout = channel.party_layout(channel.build_channel()).reshape(2, 64)
    return np.stack([(4.0 * alice_basis(TargetState(*ab)).conj() @ layout).reshape(32, 4)
                     for ab in ((1.0, 0.0), (0.0, 1.0))])


def _pair_defect(w0: np.ndarray, w1: np.ndarray) -> float:
    """Distance of (w0, w1) from (phi|00>, phi|11>) with one common phase."""
    phase = w0[0]
    if abs(phase) < _PHASE_FLOOR:
        return float(max(np.linalg.norm(w0 - ket("00")), np.linalg.norm(w1 - ket("11"))))
    r0 = np.linalg.norm(w0 - phase * ket("00"))
    r1 = np.linalg.norm(w1 - phase * ket("11"))
    return float(max(r0, r1))


def _sequence_defect(gates: Sequence[str], blocks: np.ndarray) -> float:
    """Distance of a gate list from being a correct recovery (0 = correct)."""
    g = _compose(gates)
    return _pair_defect(g @ blocks[0], g @ blocks[1])


def _frame_gates(key: OutcomeKey) -> tuple[str, ...]:
    """``CX12 H1`` then the Pauli frame Z1^(1+a+c1) X1^(a+d1) X2^(a+c1+c2+d1)
    (sums mod 2, a = sender outcome - 1): a correct recovery of every key,
    up to a global phase and Z1Z2, which fixes |00> and |11>."""
    a, (c1, c2), d1 = key.alice - 1, map(int, key.charlie), int(key.david[0])
    bits = (1 ^ a ^ c1, a ^ d1, a ^ c1 ^ c2 ^ d1)
    return ("CX12", "H1") + tuple(g for g, bit in zip(("Z1", "X1", "X2"), bits) if bit)


@lru_cache(maxsize=1)
def table_report() -> tuple[RecoveryRule, ...]:
    """Audit of all sixteen published rows (verifications, re-keys,
    repairs), one rule per key in ALL_OUTCOME_KEYS order."""
    rules, basis = [], _basis_blocks()
    for key, (alice, c, d, printed) in zip(ALL_OUTCOME_KEYS, _PRINTED_ROWS, strict=True):
        printed_pair = None if (c, d) == (key.charlie, key.david) else (c, d)
        if alice != key.alice or printed_pair in channel.CORRELATED_PAIRS:
            raise RuntimeError(f"printed row U{alice},{c},{d} stands where {key.label()} belongs")
        blocks = basis[:, key.outcome_index]
        defect = _sequence_defect(printed, blocks)
        gates = printed if defect <= GATE_TOL else _frame_gates(key)
        rules.append(
            RecoveryRule(
                key=key,
                gates=gates,
                matrix=_compose(gates),
                gate_defect=_sequence_defect(gates, blocks),
                printed_pair=printed_pair,
                printed_gates=printed,
                printed_gate_defect=defect,
            )
        )
    return tuple(rules)


def recovery_table() -> dict[OutcomeKey, RecoveryRule]:
    return {r.key: r for r in table_report()}


def recovery_sequence(key: OutcomeKey) -> tuple[str, ...]:
    """Gate tokens the receiver applies for the given measurement outcome."""
    try:  # the audited rules follow ALL_OUTCOME_KEYS order
        return table_report()[ALL_OUTCOME_KEYS.index(key)].gates
    except ValueError:
        raise UnknownOutcomeError(f"no recovery rule for outcome {key!r}") from None


def measure_projective(
    state: np.ndarray,
    qubits: Sequence[int],
    basis: Sequence[np.ndarray],
    *,
    forced: Optional[int] = None,
    rng: Union[np.random.Generator, int, None] = None,
):
    """Projective measurement of ``qubits`` in an orthonormal ``basis``.

    The basis must contain 2^k states spanning the measured subspace.
    Exactly one of ``forced`` (an outcome index) or ``rng`` (Generator or
    seed) selects the branch.  Returns (outcome_index, probability,
    collapsed_state); the collapsed state keeps the full register, with
    the measured qubits left in the observed basis state.
    """
    state = np.asarray(state, dtype=np.complex128)
    n = n_qubits(state)
    qubits = list(qubits)
    k = len(qubits)
    if len(set(qubits)) != k or any(q < 1 or q > n for q in qubits):
        raise ValueError(f"invalid measurement qubits {qubits} for {n}-qubit state")
    basis = [np.asarray(b, dtype=np.complex128).reshape(-1) for b in basis]
    if len(basis) != 2 ** k or any(b.shape != (2 ** k,) for b in basis):
        raise ValueError(f"basis must hold {2 ** k} states of dimension {2 ** k}")
    basis = np.array(basis)
    if np.max(np.abs(basis.conj() @ basis.T - np.eye(2 ** k))) > _BASIS_TOL:
        raise ValueError("measurement basis is not orthonormal")
    if (forced is None) == (rng is None):
        raise ValueError("provide exactly one of forced= or rng=")

    axes = [q - 1 for q in qubits]
    psi = state.reshape((2,) * n)
    # amplitudes[b] = <basis_b| psi, a tensor over the unmeasured qubits
    moved = np.moveaxis(psi, axes, range(k))
    flat = moved.reshape(2 ** k, -1)
    amp = basis.conj() @ flat
    probs = np.einsum("bi,bi->b", amp, amp.conj()).real

    if forced is not None:
        if not 0 <= forced < 2 ** k:
            raise ValueError(f"forced outcome {forced} out of range")
        outcome = int(forced)
        p = float(probs[outcome])
        if p < MIN_BRANCH_PROBABILITY:
            raise ImpossibleBranchError(
                f"forced outcome {forced} has probability {p:.3e}", p
            )
    else:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        total = float(probs.sum())
        outcome = int(rng.choice(len(basis), p=probs / total))
        p = float(probs[outcome])

    # Rebuild the collapsed register: outcome ket on the measured qubits,
    # renormalized branch amplitudes on the rest.
    branch = amp[outcome].reshape([2] * (n - k)) / np.sqrt(p)
    out = np.tensordot(basis[outcome].reshape((2,) * k), branch, axes=0)
    out = np.moveaxis(out, range(k), axes)
    out = np.ascontiguousarray(out.reshape(-1))
    out.setflags(write=False)
    return outcome, p, out


@dataclass(frozen=True)
class ProtocolTranscript:
    outcome: OutcomeKey
    branch_probability: float
    gates: tuple[str, ...]
    bob_state: np.ndarray
    fidelity: float


def run_rsp(
    target: TargetState,
    *,
    seed: Optional[int] = None,
    forced_key: Optional[OutcomeKey] = None,
) -> ProtocolTranscript:
    """One full noiseless protocol round.

    Branches are either sampled (``seed``) or forced (``forced_key``).  A
    seed draws the sender outcome, then the helper pattern, with the two
    ``rng.choice`` calls of two successive ``measure_projective`` calls.
    Each key has probability 1/16 for every target: no branch is impossible.
    """
    if (seed is None) == (forced_key is None):
        raise ValueError("provide exactly one of seed= or forced_key=")
    layout = channel.party_layout(channel.build_channel())
    amp = (alice_basis(target).conj() @ layout.reshape(2, 64)).reshape(2, 16, 4)
    weights = np.einsum("apb,apb->ap", amp, amp.conj()).real
    p_sender = weights.sum(axis=1)

    if forced_key is not None:
        a_idx, cd_idx = divmod(forced_key.outcome_index, 16)
        p_a = float(p_sender[a_idx])
        p_cd = float(weights[a_idx, cd_idx] / p_a)
    else:
        rng = np.random.default_rng(seed)
        a_idx = int(rng.choice(2, p=p_sender / p_sender.sum()))
        p_a = float(p_sender[a_idx])
        helper = weights[a_idx] / p_a
        cd_idx = int(rng.choice(16, p=helper / helper.sum()))
        p_cd = float(helper[cd_idx])
    rule = table_report()[_RULE_OF_SLOT[a_idx * 16 + cd_idx]]
    vec = rule.matrix @ amp[a_idx, cd_idx]
    bob = vec / np.linalg.norm(vec)
    bob.setflags(write=False)
    fid = float(abs(np.vdot(target.ket(), bob)) ** 2)
    return ProtocolTranscript(
        outcome=rule.key,
        branch_probability=float(p_a * p_cd),
        gates=rule.gates,
        bob_state=bob,
        fidelity=fid,
    )


def enumerate_branches(target: TargetState) -> list[ProtocolTranscript]:
    """Every one of the sixteen branches, forced in a fixed order."""
    return [run_rsp(target, forced_key=key) for key in ALL_OUTCOME_KEYS]
