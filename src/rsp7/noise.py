"""Single-qubit Kraus noise on the seven-qubit preparation channel.

Two evolution models are provided.  EXACT composes the full channel,
qubit by qubit, on the density matrix.  TRUNCATED keeps only the terms
in which every qubit picks the same Kraus index, i.e.
sum_j (E_j tensor ... tensor E_j) rho (E_j ... E_j)^dagger; this is the
two-term closed form that circulates for these channels.  It is not
trace preserving, so consumers renormalize by its trace.  The truncated
amplitude-damping eta^7 term lands on |0...0><0...0| with weight
eta^7/32; the widely printed eta^7 |1...1><1...1| form does not follow
from the uniform-index construction, and ``damping_terminal_term`` keeps
the numerical evidence for that mismatch.  TRUNCATED is defined only for
noise on all seven qubits, a rule ``require_all_seven`` owns.

Fidelities are computed by ``stacked_blocks``, one call over the points
of several noise kinds on the qubits ``noisy_qubits`` normalizes,
without the 128x128 density matrix: the exact model sends the measured
qubits' projectors through the dual map, where noise on a helper is a
classical bit channel, and the truncated model reads its uniform-index
vectors in the party layout.  ``evolved_state``, ``apply_noise``,
``truncated_channel_state`` and ``branch_reduction`` are the direct
density-matrix construction the engine is checked against.  The
Monte-Carlo cross-check ``trajectory_estimate`` reads its trajectories
from Kraus-string amplitudes in the party layout and diagonal Born weights.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import channel
from .channel import alice_basis
from .linalg import (
    I2,
    X,
    Y,
    Z,
    apply_to_qubits,
    ket,
    n_qubits,
    partial_trace,
    pure_density,
)
from .protocol import (
    ALL_OUTCOME_KEYS,
    MIN_BRANCH_PROBABILITY,
    ImpossibleBranchError,
    OutcomeKey,
    TargetState,
    as_integer,
    gate_matrix,
    recovery_sequence,
    table_report,
)

ALL_QUBITS = (1, 2, 3, 4, 5, 6, 7)
#: The six qubits that leave the source; the sender's own qubit stays put.
TRANSMITTED_QUBITS = (2, 3, 4, 5, 6, 7)


class UnsupportedConfigurationError(ValueError):
    """Operation undefined for this qubit selection."""


class NoiseKind(enum.Enum):
    BIT_FLIP = "bit_flip"
    PHASE_FLIP = "phase_flip"
    BIT_PHASE_FLIP = "bit_phase_flip"
    AMPLITUDE_DAMPING = "amplitude_damping"
    PHASE_DAMPING = "phase_damping"
    DEPOLARIZING = "depolarizing"


class EvolutionModel(enum.Enum):
    EXACT = "exact"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind
    eta: float
    qubits: tuple[int, ...] = ALL_QUBITS

    def __post_init__(self):
        if not isinstance(self.kind, NoiseKind):
            raise TypeError(f"kind must be a NoiseKind, got {self.kind!r}")
        eta = float(self.eta)
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "qubits", noisy_qubits(self.qubits))


def noisy_qubits(qubits: Sequence[int]) -> tuple[int, ...]:
    """The noisy-qubit rule: sorted, without repeats, a non-empty subset of 1..7."""
    qs = tuple(sorted(set(int(q) for q in qubits)))
    if not qs or qs[0] < 1 or qs[-1] > 7:
        raise ValueError(f"qubits must be a non-empty subset of 1..7, got {qubits!r}")
    return qs


def require_all_seven(qubits: tuple[int, ...]) -> None:
    """The truncated model's rule: noise on all seven of the normalized ``qubits``."""
    if qubits != ALL_QUBITS:
        raise UnsupportedConfigurationError(
            "the truncated model is only defined for noise on all seven qubits"
        )


#: |0><0| and |1><1|: helper-bit projectors, shared by the damping Kraus sets.
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
_P0.setflags(write=False)
_P1.setflags(write=False)


@lru_cache(maxsize=1)
def _kraus_table() -> dict[NoiseKind, tuple[np.ndarray, tuple[int, ...]]]:
    """Each kind's Kraus matrices, read-only, and the root of eta that weighs
    each: 0 is sqrt(1 - eta), 1 is sqrt(eta) and 2 is sqrt(eta / 3)."""
    table = {
        NoiseKind.BIT_FLIP: (np.array([I2, X]), (0, 1)),
        NoiseKind.PHASE_FLIP: (np.array([I2, Z]), (0, 1)),
        NoiseKind.BIT_PHASE_FLIP: (np.array([I2, Y]), (0, 1)),
        # |0><0| + sqrt(1 - eta) |1><1| and sqrt(eta) |0><1|; kraus_operators sets the |0><0|
        NoiseKind.AMPLITUDE_DAMPING: (np.array([_P1, _P0 @ X]), (0, 1)),
        NoiseKind.PHASE_DAMPING: (np.array([I2, _P0, _P1]), (0, 1, 1)),
        NoiseKind.DEPOLARIZING: (np.array([I2, X, Y, Z]), (0, 2, 2, 2)),
    }
    for mats, _ in table.values():
        mats.setflags(write=False)
    return table


def kraus_operators(kind: NoiseKind, eta) -> np.ndarray:
    """The 2x2 operator set of one noise kind at strength eta.

    ``eta`` is a scalar or a 1-D grid, checked whole against [0, 1]; the
    read-only complex result has shape (n_ops, 2, 2) or
    (len(eta), n_ops, 2, 2).
    """
    eta = np.asarray(eta, dtype=np.float64)
    if eta.ndim > 1:
        raise ValueError(f"eta must be a scalar or a 1-D grid, got shape {eta.shape}")
    bad = ~((0.0 <= eta) & (eta <= 1.0))  # also catches NaN
    if bad.any():
        raise ValueError(f"eta must lie in [0, 1], got {float(eta[bad][0])!r}")
    try:
        mats, roots = _kraus_table()[kind]
    except (KeyError, TypeError):
        raise TypeError(f"unknown noise kind {kind!r}") from None
    w = np.empty(eta.shape + (3,))
    w[..., 0] = 1.0 - eta
    w[..., 1] = eta
    w[..., 2] = eta / 3.0
    out = np.sqrt(w, out=w).take(roots, axis=-1)[..., None, None] * mats
    if kind is NoiseKind.AMPLITUDE_DAMPING:
        out[..., 0, 0, 0] = 1.0
    out.setflags(write=False)
    return out


def completeness_residual(ops: np.ndarray) -> float:
    """Largest entry of |sum_k E_k^dagger E_k - I| for one (n_ops, 2, 2) set."""
    acc = np.zeros((2, 2), dtype=np.complex128)
    for op in ops:
        acc += op.conj().T @ op
    return float(np.max(np.abs(acc - np.eye(2))))


def apply_noise(rho: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Exact channel action: each listed qubit through the Kraus set.

    Single-qubit channels on distinct qubits commute, so the sequential
    composition is order independent.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    n = n_qubits(rho)
    if spec.qubits[-1] > n:
        raise ValueError(f"spec touches qubit {spec.qubits[-1]} of a {n}-qubit state")
    ops = kraus_operators(spec.kind, spec.eta)
    for q in spec.qubits:
        rho = sum(apply_to_qubits(op, [q], rho) for op in ops)
    out = np.ascontiguousarray(rho)
    out.setflags(write=False)
    return out


def truncated_channel_state(spec: NoiseSpec) -> tuple[np.ndarray, float]:
    """Uniform-index truncation of the noisy channel state, plus its trace.

    Keeps only sum_j E_j^{(x7)} |Psi><Psi| E_j^{(x7) dagger}; the dropped
    mixed-index cross terms make the result sub-normalized.  Defined only
    for noise on all seven qubits.
    """
    require_all_seven(spec.qubits)
    psi = channel.build_channel()
    ops = kraus_operators(spec.kind, spec.eta)
    acc = np.zeros((128, 128), dtype=np.complex128)
    for op in ops:
        v = psi
        for q in ALL_QUBITS:
            v = apply_to_qubits(op, [q], v)
        acc += np.outer(v, v.conj())
    tr = float(np.trace(acc).real)
    acc.setflags(write=False)
    return acc, tr


def evolved_state(spec: NoiseSpec, model: EvolutionModel = EvolutionModel.EXACT) -> np.ndarray:
    """Normalized noisy channel density matrix under either model."""
    rho0 = pure_density(channel.build_channel())
    if model is EvolutionModel.EXACT:
        return apply_noise(rho0, spec)
    if model is EvolutionModel.TRUNCATED:
        mat, tr = truncated_channel_state(spec)
        out = mat / tr
        out.setflags(write=False)
        return out
    raise TypeError(f"unknown evolution model {model!r}")


def branch_reduction(rho: np.ndarray, target: TargetState, key: OutcomeKey) -> np.ndarray:
    """Unnormalized receiver-pair state of one branch; trace = branch weight.

    Projects the sender qubit onto its basis state for ``key``, the four
    helper qubits onto their bits, applies the recovery gates, composed
    here from the key's tokens rather than read from its rule, and traces
    out everything but the receiver pair.  Linear in rho, so weighted
    averages over branches can sum these blocks directly.
    """
    u = alice_basis(target)[key.alice - 1]
    rho = apply_to_qubits(np.outer(u, u.conj()), [1], rho)
    for q, bit in (
        (4, key.charlie[0]),
        (6, key.charlie[1]),
        (5, key.david[0]),
        (7, key.david[1]),
    ):
        rho = apply_to_qubits((_P0, _P1)[int(bit)], [q], rho)
    gates = np.eye(4)
    for tok in recovery_sequence(key):  # the first token acts first
        gates = gate_matrix(tok) @ gates
    return partial_trace(apply_to_qubits(gates, [2, 3], rho), [1, 4, 5, 6, 7])


#: Sender outcome and helper pattern of each of ALL_OUTCOME_KEYS, whose
#: first eight keys have sender outcome 1 and the last eight outcome 2.
_SENDER, _HELPER = np.divmod([key.outcome_index for key in ALL_OUTCOME_KEYS], 16)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, broadcast over the others."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], -1))


@lru_cache(maxsize=1)
def _engine_tables() -> tuple[np.ndarray, ...]:
    """The fixed tables of ``stacked_blocks``, built once per process, read-only.

    W = party_layout(Psi); its sender outer products vec(W[s', g] W[s, g]^dagger)
    per pattern g; the two index arrays that gather the pair superoperator's
    factors from the superoperators of qubits 2 and 3; the recovery
    superoperators (G_k (x) G_k*)^T of ALL_OUTCOME_KEYS.
    """
    w = channel.party_layout(channel.build_channel())
    outer = np.einsum("tgb,sgc->stgbc", w, w.conj()).reshape(4, 256)
    # pair entry (r2 r3 c2 c3, r2' r3' c2' c3') is s2[r2 c2, r2' c2'] s3[r3 c3, r3' c3']
    r = np.arange(16)
    i2, i3 = (r >> 2 & 2) | (r >> 1 & 1), (r >> 1 & 2) | (r & 1)
    gates = np.array([rule.matrix for rule in table_report()])
    tables = (w, outer, (4 * i2[:, None] + i2).ravel(), (4 * i3[:, None] + i3).ravel(),
              _kron(gates, gates.conj()).swapaxes(-1, -2))
    for table in tables:
        table.setflags(write=False)
    return tables


def stacked_blocks(
    target: TargetState,
    ops: Sequence[np.ndarray],
    qubits: tuple[int, ...],
    model: EvolutionModel,
    key: Optional[OutcomeKey] = None,
) -> np.ndarray:
    """Unnormalized receiver-pair blocks at every point of stacked Kraus sets.

    ``ops`` holds one ``kraus_operators`` stack (n_i, n_ops_i, 2, 2) per
    noise kind, and their points, in order, form the point axis, which must
    not be empty; ``qubits`` is normalized by ``noisy_qubits``.  Shape
    (points, 16, 4, 4) for all of ALL_OUTCOME_KEYS, or (points, 1, 4, 4) for
    ``key`` alone.  A point's blocks do not depend on the other points.
    They are computed from W = party_layout(Psi), shape (sender, helper
    pattern, pair), without the 128x128 density matrix, as row-major vectors
    vec(B), on which B -> E B E^dagger is the 16x16 matrix E (x) E*.

    Exact model: only a point's 4x4 superoperator enters, so the kinds'
    superoperators are concatenated.  Each qubit takes its superoperator
    from one table, the identity on a noiseless qubit.
    Tr(N(rho) M) = Tr(rho N^dagger(M)) with N^dagger(P) = sum_j E_j^dagger
    P E_j.  No row of a Kraus operator has two nonzero entries, so a
    helper's dual projector N^dagger(|o><o|) is diag(t[o, :]) with
    t[o, x] = sum_j |<o|E_j|x>|^2, and the helpers act as the bit channel
    T = t (x) t (x) t (x) t on their pattern.  Block k is
    sum_g T[h_k, g] sum_{s,s'} D_a[s, s'] W[s', g] W[s, g]^dagger, with D_a
    the sender's dual projector, then the pair's forward channel.

    Truncated model, one pass per kind: the uniform-index vectors are
    read in the layout, <u_a|E_j on the sender, E_j^(x4) on the helpers and
    E_j (x) E_j on the pair; the blocks are divided by
    sum_j |E_j^(x7) Psi|^2, the weight of all 32 outcomes.  Every block
    ends with its recovery gates G_k.
    """
    qubits = noisy_qubits(qubits)
    for o in ops:
        if np.ndim(o) != 4 or np.shape(o)[-2:] != (2, 2):
            raise ValueError(f"each Kraus stack must have shape (points, n_ops, 2, 2), "
                             f"got {np.shape(o)}")
    if not sum(map(len, ops)):
        raise ValueError("etas must hold at least one value")
    # indices into ALL_OUTCOME_KEYS, one row per sender outcome
    grid = np.arange(16).reshape(2, 8) if key is None else np.array([[ALL_OUTCOME_KEYS.index(key)]])
    keys = grid.ravel()
    senders = alice_basis(target)
    w, outer, take2, take3, recovery = _engine_tables()
    if model is EvolutionModel.EXACT:
        sup = np.concatenate([_kron(o, o.conj()).sum(axis=1) for o in ops])
        if np.any(sup[:, ::3, 1:3] != 0):  # conj vec(N^dagger(|o><o|)), o = 0, 1
            raise ValueError("a Kraus operator row has two nonzero entries")
        chan = {q: sup if q in qubits else np.eye(4)[None] for q in ALL_QUBITS}
        t = [chan[q][:, ::3, ::3].real for q in channel.MEASURED_QUBITS[1:]]
        tc, td = _kron(t[0], t[1]), _kron(t[2], t[3])  # on the bits (c1 c2) and (d1 d2)
        c, d = np.divmod(_HELPER[grid], 4)
        rows = (tc[:, c, :, None] * td[:, d, None, :]).reshape(-1, *grid.shape, 16)  # T[h_k, :]
        proj = (senders[:, :, None] * senders[:, None].conj()).reshape(2, 4)  # vec(|u_a><u_a|)
        z = proj[_SENDER[grid[:, 0]]] @ chan[1].conj() @ outer  # (point, sender, pattern vec)
        blocks = (rows @ z.reshape(-1, len(grid), 16, 16)).reshape(-1, len(keys), 16)
        pair = (chan[2].reshape(-1, 16).take(take2, axis=1)
                * chan[3].reshape(-1, 16).take(take3, axis=1))
        blocks = blocks @ pair.reshape(-1, 16, 16).swapaxes(-1, -2)
    elif model is EvolutionModel.TRUNCATED:
        require_all_seven(qubits)
        by_pattern = w.transpose(1, 0, 2).reshape(16, 8)
        parts = []
        for o in ops:
            pair = _kron(o, o)
            sender_pair = _kron(senders.conj() @ o, pair)
            amp = _kron(pair, pair) @ by_pattern @ sender_pair.swapaxes(-1, -2)
            weight = np.einsum("ejgx,ejgx->e", amp, amp.conj()).real
            picked = amp.reshape(o.shape[:2] + (16, 2, 4))[:, :, _HELPER[keys], _SENDER[keys]]
            parts.append(_kron(picked[..., None], picked[..., None].conj()).sum(
                axis=1).reshape(len(o), -1, 16) / weight[:, None, None])
        blocks = np.concatenate(parts)
    else:
        raise TypeError(f"unknown evolution model {model!r}")
    out = blocks[:, :, None] @ recovery[keys]
    out = out.reshape(-1, len(keys), 4, 4)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TerminalTermCheck:
    """Truncated amplitude-damping eta^7 term vs. the printed closed form."""

    eta: float
    derived_pattern: str
    printed_pattern: str
    residual_derived: float
    residual_printed: float


def damping_terminal_term(eta: float = 0.5) -> TerminalTermCheck:
    """Audit the damped-index term of the amplitude-damping truncation.

    The uniform-index construction puts the fully damped weight on
    |0000000>, coefficient eta^7/32 (only the all-ones amplitude of the
    channel survives seven lowering operators).  The printed closed form
    instead shows eta^7 |1111111><1111111|; both candidates are compared
    against the directly constructed term.
    """
    ops = kraus_operators(NoiseKind.AMPLITUDE_DAMPING, eta)
    v = channel.build_channel()
    for q in ALL_QUBITS:
        v = apply_to_qubits(ops[1], [q], v)
    term = np.outer(v, v.conj())
    zeros = pure_density(ket("0000000"))
    ones = pure_density(ket("1111111"))
    derived = (eta ** 7 / 32.0) * zeros
    printed = (eta ** 7) * ones
    return TerminalTermCheck(
        eta=float(eta),
        derived_pattern="0000000",
        printed_pattern="1111111",
        residual_derived=float(np.linalg.norm(term - derived)),
        residual_printed=float(np.linalg.norm(term - printed)),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo trajectory cross-check of the exact branch fidelity.

_CHUNK = 8192


@dataclass(frozen=True)
class TrajectoryEstimate:
    fidelity: float
    std_error: float
    n_samples: int


def _string_tables(
    target: TargetState, key: OutcomeKey, spec: NoiseSpec
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Branch amplitudes and prefix Born weights of every Kraus string.

    A string s holds one Kraus index per noisy qubit, lowest qubit most
    significant; a noiseless qubit counts as one identity string.  ``amp[s]``
    is the receiver-pair amplitude of branch ``key`` in E_s|Psi> before the
    recovery gates: the sender row <u_a|E_k1 on W = party_layout(Psi), the
    Kronecker table of the helper rows <bit|E_k, the pair's E_k2 (x) E_k3,
    then one transpose into string order.  Each E_k^dagger E_k is diagonal,
    d_k, so ``weights[j][s']`` = |E_s' Psi|^2 for the prefixes s' over the
    first j + 1 noisy qubits pushes |Psi_x|^2 through d_k qubit by qubit.
    """
    ops = kraus_operators(spec.kind, spec.eta)
    gram = ops.conj().swapaxes(-1, -2) @ ops
    if np.any(gram[:, [0, 1], [1, 0]] != 0):
        raise ValueError("a Kraus operator's E^dagger E has an off-diagonal entry")
    kraus = {q: ops if q in spec.qubits else np.eye(2)[None] for q in ALL_QUBITS}
    sender, pattern = divmod(key.outcome_index, 16)
    h = [kraus[q][:, int(bit)] for q, bit in zip(channel.MEASURED_QUBITS[1:], f"{pattern:04b}")]
    psi = channel.build_channel()
    amp = alice_basis(target)[sender].conj() @ kraus[1] @ channel.party_layout(psi).reshape(2, 64)
    amp = _kron(_kron(*h[:2]), _kron(*h[2:])) @ amp.reshape(-1, 16, 4)  # (k1, helpers, pair)
    pair = _kron(kraus[2][:, None], kraus[3][None]).reshape(-1, 4)  # (k2 k3 row, column)
    layout = channel.MEASURED_QUBITS + (2, 3)
    amp = (amp @ pair.T).reshape([len(kraus[q]) for q in layout] + [4])
    amp = amp.transpose(*sorted(range(7), key=layout.__getitem__), len(layout)).reshape(-1, 4)
    born = (psi * psi.conj()).real.reshape(1, 128)  # (string, unprocessed qubits)
    weights = []
    for q in ALL_QUBITS:
        d = gram[:, [0, 1], [0, 1]].real if q in spec.qubits else np.ones((1, 2))  # d_k(x)
        born = (d @ born.reshape(len(born), 2, -1)).reshape(len(born) * len(d), -1)
        if q in spec.qubits:
            weights.append(born.sum(axis=1))
    return amp, weights


def trajectory_estimate(
    target: TargetState,
    key: OutcomeKey,
    spec: NoiseSpec,
    n_samples: int,
    seed: int = 0,
) -> TrajectoryEstimate:
    """Stochastic-unraveling estimate of the exact branch fidelity.

    Each trajectory draws one Kraus index per noisy qubit, in ascending
    order, with Born weights conditioned on the indices already drawn
    (Dalibard, Castin & Moelmer, PRL 68, 580 (1992)), and is read from
    ``_string_tables``.  The draws keep the stream of a per-sample state
    walk, one generator per ``_CHUNK`` samples and one uniform per sample
    and noisy qubit, so seeded estimates keep their values.  The fidelity
    is the ratio of the accumulated recovered overlap to the accumulated
    branch weight.  Its delta-method standard error takes the exact
    moments of the string tables, not the sample's: a string too rare to
    be drawn can carry most of the variance, and the sample moments then
    understate the error tenfold.  Raises ImpossibleBranchError when the
    draws carry no branch weight.
    """
    n_samples = as_integer("n_samples", n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    amp, weights = _string_tables(target, key, spec)
    n_ops, p_s = len(weights[0]), weights[-1]
    gate = table_report()[ALL_OUTCOME_KEYS.index(key)].matrix
    g = gate.conj().T @ target.ket()  # <xi| G w = vdot(g, w)
    # per string s: p_s x_s, the recovered overlap, and p_s y_s, the branch weight
    px = np.abs(amp @ g.conj()) ** 2
    py = np.einsum("sj,sj->s", amp.view(np.float64), amp.view(np.float64))  # over (re, im)

    cums = [np.cumsum(w.reshape(-1, n_ops), axis=1) for w in weights]
    root = np.random.SeedSequence(seed)
    sx = sy = 0.0
    for first in range(0, n_samples, _CHUNK):
        m = min(_CHUNK, n_samples - first)
        rng = np.random.default_rng(root.spawn(1)[0])  # child i of spawn(n), none held
        s = np.zeros(m, dtype=np.intp)
        for cum in cums:
            c = np.take(cum, s, axis=0)  # the next index's cumulative weights given the prefix
            r = rng.random(m) * c[:, -1]
            s = s * n_ops + np.minimum(sum(r >= col for col in c.T), n_ops - 1)
        sx += float((px[s] / p_s[s]).sum())
        sy += float((py[s] / p_s[s]).sum())

    n = float(n_samples)
    if sy / n < MIN_BRANCH_PROBABILITY:
        p = sy / n
        raise ImpossibleBranchError(f"branch {key.label()} has sampled probability {p:.3e}", p)
    # delta-method variance of the ratio from the exact moments over strings;
    # z_s = x_s - F y_s is bounded by 1 in size
    live = p_s > 0
    z = np.clip((px[live] - px.sum() / py.sum() * py[live]) / p_s[live], -1.0, 1.0)
    var = float(np.sum(p_s[live] * z * z)) / (n * float(py.sum()) ** 2)
    return TrajectoryEstimate(float(sx / sy), math.sqrt(var), n_samples)
