"""Fidelity metrics, noise sweeps, the two eavesdropping analyses and the
invariant suite behind ``rsp7 verify``.

The inside attack models a dishonest helper who entangles the sender's
qubit with a private environment through an isometry V, one (2 d) x 2
matrix; the analysis computes the attacker-accessible state and its
purity.  The outside attack models an interceptor on decoy
qubits drawn from {|0>, |1>, |+>, |->}; detection statistics come from
honest amplitude-level sampling of each measurement, not from the
closed-form per-decoy probability, so the simulation independently
cross-checks the 1 - (3/4)^m curve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channel
from . import noise as noise_mod
from . import protocol
from .noise import (
    ALL_QUBITS,
    EvolutionModel,
    NoiseKind,
    NoiseSpec,
    UnsupportedConfigurationError,
)
from .channel import alice_basis
from .protocol import ALL_OUTCOME_KEYS, OutcomeKey, TargetState


def fidelity(pure: np.ndarray, rho: np.ndarray) -> float:
    """Overlap <psi| rho |psi> of a pure target with a density matrix."""
    pure = np.asarray(pure, dtype=np.complex128).reshape(-1)
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape != (pure.size, pure.size):
        raise ValueError(
            f"dimension mismatch: state of dim {pure.size}, matrix {rho.shape}"
        )
    return float((pure.conj() @ rho @ pure).real)


def purity(rho: np.ndarray) -> float:
    """trace(rho^2); 1 for pure states, smaller for mixtures."""
    rho = np.asarray(rho, dtype=np.complex128)
    return float(np.einsum("ij,ji->", rho, rho).real)


# ---------------------------------------------------------------------------
# Fidelity sweeps.


#: How far outside [0, 1] a possible sweep cell may lie by rounding.
FIDELITY_TOL = 1e-10

#: Largest eta grid.  A sweep's memory grows with its cells only, 8 bytes
#: per cell and model: the engine holds one slice of blocks, at most about
#: 46 KB per point (tracemalloc peak of a 66-point truncated call with four
#: Kraus operators, 3.1 MB); a sweep of six kinds and both models at this
#: limit peaks at 4.6 MB.
MAX_ETA_STEPS = 10_001

#: Most (kind, eta) points per ``stacked_blocks`` call of a sweep, which
#: bounds the engine's memory; the kinds x etas axis is cut into
#: near-equal slices, and the default grid of six kinds x 11 etas is one.
_SWEEP_SLICE = 66


@dataclass(frozen=True)
class SweepConfig:
    """Noise kinds and evolution models on an eta grid, with noise on ``qubits``.

    ``kinds`` is kept in value order, the order of the result's rows,
    ``models`` in EvolutionModel order, and ``qubits`` is normalized by
    ``noise.noisy_qubits``.  On fewer than seven qubits the truncated model
    alone is rejected, and next to the exact model it is dropped.
    """

    kinds: tuple[NoiseKind, ...]
    target: TargetState
    eta_start: float = 0.0
    eta_end: float = 1.0
    eta_steps: int = 11
    models: tuple[EvolutionModel, ...] = tuple(EvolutionModel)
    branch: Optional[OutcomeKey] = None  # None = probability-weighted average
    qubits: tuple[int, ...] = ALL_QUBITS

    def __post_init__(self):
        kinds = tuple(self.kinds)
        if not kinds or any(not isinstance(k, NoiseKind) for k in kinds):
            raise ValueError("kinds must be a non-empty sequence of NoiseKind")
        if len(set(kinds)) != len(kinds):
            raise ValueError("kinds must not repeat")
        object.__setattr__(self, "kinds", tuple(sorted(kinds, key=lambda k: k.value)))
        if not isinstance(self.target, TargetState):
            raise ValueError(f"target must be a TargetState, got {self.target!r}")
        if self.branch is not None and self.branch not in ALL_OUTCOME_KEYS:
            raise ValueError(f"branch must be None or one of ALL_OUTCOME_KEYS, got {self.branch!r}")
        if not 0.0 <= self.eta_start <= self.eta_end <= 1.0:
            raise ValueError(
                f"eta grid must satisfy 0 <= start <= end <= 1, got "
                f"[{self.eta_start}, {self.eta_end}]"
            )
        protocol.as_integer("eta_steps", self.eta_steps)
        if not 2 <= self.eta_steps <= MAX_ETA_STEPS:
            raise ValueError(f"eta_steps must lie in [2, {MAX_ETA_STEPS}], got {self.eta_steps}")
        models = tuple(self.models)
        if not models or any(not isinstance(m, EvolutionModel) for m in models):
            raise ValueError("models must be a non-empty sequence of EvolutionModel")
        models = tuple(m for m in EvolutionModel if m in models)
        qubits = noise_mod.noisy_qubits(self.qubits)
        if EvolutionModel.TRUNCATED in models:
            try:
                noise_mod.require_all_seven(qubits)
            except UnsupportedConfigurationError:
                if len(models) == 1:
                    raise
                models = (EvolutionModel.EXACT,)  # the truncated column stays empty
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "qubits", qubits)

    def etas(self) -> np.ndarray:
        return np.linspace(self.eta_start, self.eta_end, self.eta_steps)


def _cells(blocks: np.ndarray, target: TargetState) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity and weight of each point of a ``stacked_blocks`` stack.

    Over the keys the stack holds, the fidelity is sum <xi|B|xi> / sum Tr B
    and the weight sum Tr B: sixteen keys give the probability-weighted
    average, one key its forced branch.  A cell whose weight is below
    MIN_BRANCH_PROBABILITY is impossible and its fidelity meaningless.

    Weighting renormalizes over the keys: under bit-type noise some
    probability leaks into helper patterns that never occur in the clean
    protocol, and those aborted rounds carry no output state.

    The keys are added one at a time, in key order: numpy's own reductions
    pick their order by the shape of the stack, and a one-point grid would
    then differ in the last bits from the same point inside a longer grid.
    """
    xi = target.ket()
    num = sum(np.moveaxis(((blocks @ xi) @ xi.conj()).real, -1, 0))
    weight = sum(np.moveaxis(np.trace(blocks, axis1=-2, axis2=-1).real, -1, 0))
    return num / np.where(weight < protocol.MIN_BRANCH_PROBABILITY, 1.0, weight), weight


def _point(target: TargetState, spec: NoiseSpec, model: EvolutionModel,
           key: Optional[OutcomeKey], subject: str) -> tuple[np.ndarray, float, float]:
    """Blocks, fidelity and weight of one noise point, over the sixteen keys
    or ``key`` alone, from one engine call.  Raises ImpossibleBranchError,
    read "<subject> probability ...", when the weight is below
    MIN_BRANCH_PROBABILITY."""
    ops = [noise_mod.kraus_operators(spec.kind, [spec.eta])]
    blocks = noise_mod.stacked_blocks(target, ops, spec.qubits, model, key)
    f, weight = _cells(blocks, target)
    p = float(weight[0])
    if p < protocol.MIN_BRANCH_PROBABILITY:
        raise protocol.ImpossibleBranchError(f"{subject} probability {p:.3e} under this noise", p)
    return blocks[0], float(f[0]), p


def averaged_fidelity(
    target: TargetState,
    spec: NoiseSpec,
    model: EvolutionModel = EvolutionModel.EXACT,
) -> float:
    """Branch-probability-weighted fidelity of the noisy protocol; equal,
    bit for bit, to the ``fidelity_sweep`` cell of the same eta.  Raises
    ImpossibleBranchError when no weight is left on the sixteen branches."""
    return _point(target, spec, model, None, "the sixteen branches have total")[1]


def branch_fidelity(
    target: TargetState,
    key: OutcomeKey,
    spec: NoiseSpec,
    model: EvolutionModel = EvolutionModel.EXACT,
) -> float:
    """Fidelity of one forced branch of the noisy protocol; equal, bit for
    bit, to the ``fidelity_sweep`` cell of the same eta.  Raises
    ImpossibleBranchError for a branch ``noisy_rsp_output`` rejects."""
    return _point(target, spec, model, key, f"branch {key.label()} has")[1]


def noisy_rsp_output(
    target: TargetState,
    key: OutcomeKey,
    spec: NoiseSpec,
    model: EvolutionModel = EvolutionModel.EXACT,
) -> np.ndarray:
    """Receiver-pair density matrix after the full noisy protocol branch; raises
    ImpossibleBranchError for a branch weight below MIN_BRANCH_PROBABILITY."""
    blocks, _, p = _point(target, spec, model, key, f"branch {key.label()} has")
    out = blocks[0] / p
    out.setflags(write=False)
    return out


def fidelity_sweep(config: SweepConfig) -> dict[EvolutionModel, np.ndarray]:
    """The fidelity of each (kind, eta), as one read-only (kinds, etas)
    array per model of ``config.models``, rows in ``config.kinds`` order.

    The kinds' grids form one point axis, kinds x etas, cut into
    near-equal slices of at most ``_SWEEP_SLICE`` points so memory stays
    bounded on any grid.  Each slice builds one Kraus stack per kind it
    touches and calls the engine once per model, for the sixteen keys of
    the averaged fidelity or the forced branch alone; the cells equal those
    of one call over the whole axis.  A cell whose branch, or whose sixteen
    branches together, have vanishing probability holds NaN instead of
    aborting the sweep.  Raises ValueError for a possible cell outside
    [0, 1] by more than FIDELITY_TOL.
    """
    etas = config.etas()
    n_points = len(config.kinds) * len(etas)
    cells = {model: np.empty(n_points) for model in config.models}
    for part in np.array_split(np.arange(n_points), -(-n_points // _SWEEP_SLICE)):
        kind_of, eta_of = np.divmod(part, len(etas))
        ops = [noise_mod.kraus_operators(config.kinds[i], etas[eta_of[kind_of == i]])
               for i in range(kind_of[0], kind_of[-1] + 1)]
        for model, f in cells.items():
            value, weight = _cells(noise_mod.stacked_blocks(
                config.target, ops, config.qubits, model, config.branch), config.target)
            possible = weight >= protocol.MIN_BRANCH_PROBABILITY
            bad = possible & ~((-FIDELITY_TOL <= value) & (value <= 1.0 + FIDELITY_TOL))
            if bad.any():
                raise ValueError(f"fidelity_{model.value}={float(value[bad][0])!r} "
                                 f"outside [0, 1] tolerance band")
            f[part] = np.where(possible, value, np.nan)
    for f in cells.values():
        f.setflags(write=False)
    return {model: f.reshape(len(config.kinds), -1) for model, f in cells.items()}


# ---------------------------------------------------------------------------
# Inside attack: a dishonest helper entangles the sender's qubit with a
# private environment.

#: Largest deviation from V^dagger V = I accepted for an attack isometry.
ISOMETRY_TOL = 1e-10

#: Entries of m = V w, (2 env_dim) x 4 per sample and the largest array of a
#: chunk, one chunk of ``sample_inside_attacks`` holds (at least one sample).
_ATTACK_CHUNK_ENTRIES = 2**22


def _random_isometries(env_dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-ish (2 env_dim) x 2 isometries, on the stream of ``count`` single draws."""
    g = rng.normal(size=(count, 2, 2 * env_dim, 2))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    # fix the QR phase ambiguity so draws are well spread
    return q * np.exp(-1j * np.angle(np.diagonal(r, axis1=-2, axis2=-1)))[:, None, :]


def _isometry_residual(v: np.ndarray) -> float:
    """Largest |V^dagger V - I| over a stack of attack maps V, each (2 env_dim) x 2.

    Raises ValueError unless every map has that shape with env_dim >= 2 and
    the residual is at most ISOMETRY_TOL (a NaN or inf entry fails too).
    """
    if v.ndim != 3 or v.shape[2] != 2 or v.shape[1] % 2 or v.shape[1] < 4:
        raise ValueError(
            f"an attack map is a (2 env_dim) x 2 matrix with env_dim >= 2, "
            f"got shape {v.shape[1:]}"
        )
    residual = float(np.max(np.abs(v.conj().swapaxes(1, 2) @ v - np.eye(2))))
    if not residual <= ISOMETRY_TOL:
        raise ValueError(f"attack map misses V^dagger V = I by {residual:.3e}")
    return residual


@dataclass(frozen=True)
class AttackParams:
    """The entangling map |a> -> sum_b |b>|e_ab> as its (2 env_dim) x 2 matrix V:
    column a of V is e_a0 stacked over e_a1.

    The fragments e_ab may be unnormalized individually, but V must be an
    isometry, V^dagger V = I; otherwise the map does not extend to a unitary
    on system plus environment.
    """

    v: np.ndarray

    def __post_init__(self):
        v = np.array(self.v, dtype=np.complex128, order="C")
        _isometry_residual(v[None])
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @property
    def env_dim(self) -> int:
        return self.v.shape[0] // 2

    @classmethod
    def trivial(cls, env_dim: int = 2) -> "AttackParams":
        """The do-nothing attack: |a> -> |a>|0>_E."""
        v = np.zeros((2 * env_dim, 2), dtype=np.complex128)
        v[0, 0] = v[env_dim, 1] = 1.0
        return cls(v)

    @classmethod
    def random(cls, env_dim: int, rng: np.random.Generator) -> "AttackParams":
        """A Haar-ish random valid attack from the QR of a Gaussian matrix."""
        return cls(_random_isometries(env_dim, 1, rng)[0])


@dataclass(frozen=True)
class InsideAttackResult:
    rho_ae: np.ndarray
    purity: float
    isometry_residual: float
    raw_branch_weight: float
    cross_overlap: complex
    alice_state: np.ndarray
    env_state: np.ndarray
    env_purity: float


def inside_attack(
    target: TargetState, key: OutcomeKey, params: AttackParams
) -> InsideAttackResult:
    """Attacker-accessible state after the helper measurements.

    The entangling map acts on the sender's qubit and the environment
    inside the branch selected by the helper outcomes of ``key`` (the
    sender has not measured yet, so the sender part of the key is
    irrelevant here); the receiver pair is traced out and the result
    renormalized.  For an exact isometry the output equals V V^dagger / 2
    regardless of target and helper pattern, with purity 1/2 unless the
    environment factors out.
    """
    d = params.env_dim
    v = params.v
    residual = _isometry_residual(v[None])

    # sender x receiver pair
    w = channel.party_layout(channel.build_channel())[:, key.outcome_index % 16]
    m = v @ w  # rows: (post-attack qubit, environment) compound
    raw = m @ m.conj().T
    weight = float(np.trace(raw).real)
    rho_ae = raw / weight
    rho_ae.setflags(write=False)
    # Tr((m m^dagger)^2) = Tr((m^dagger m)^2): the purity from a 4x4 matrix
    gram = m.conj().T @ m

    u1, u2 = alice_basis(target)
    cross = complex(np.vdot(v @ u1, v @ u2))
    r4 = rho_ae.reshape(2, d, 2, d)
    alice_state = np.ascontiguousarray(np.einsum("adbd->ab", r4))
    env_state = np.ascontiguousarray(np.einsum("adae->de", r4))
    alice_state.setflags(write=False)
    env_state.setflags(write=False)
    return InsideAttackResult(
        rho_ae=rho_ae,
        purity=purity(gram / np.trace(gram).real),
        isometry_residual=residual,
        raw_branch_weight=weight,
        cross_overlap=cross,
        alice_state=alice_state,
        env_state=env_state,
        env_purity=purity(env_state),
    )


def sample_inside_attacks(
    key: OutcomeKey, env_dim: int, samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Purities of ``samples`` random attacks and their worst isometry residual:
    ``inside_attack(target, key, AttackParams.random(env_dim, rng))`` sample by
    sample on the same stream, for any target.  Raises ValueError for a drawn
    map that ``AttackParams`` would reject.
    """
    if samples < 1 or env_dim < 2:
        raise ValueError(f"need samples >= 1 and env_dim >= 2, got {samples}, {env_dim}")
    w = channel.party_layout(channel.build_channel())[:, key.outcome_index % 16]
    per_chunk = max(1, _ATTACK_CHUNK_ENTRIES // (8 * env_dim))
    purities = np.empty(samples)
    worst = 0.0
    for start in range(0, samples, per_chunk):
        v = _random_isometries(env_dim, min(per_chunk, samples - start), rng)
        worst = max(worst, _isometry_residual(v))
        m = v @ w
        gram = m.conj().swapaxes(1, 2) @ m  # the 4x4 matrix inside_attack takes the purity from
        rho = gram / np.trace(gram, axis1=1, axis2=2).real[:, None, None]
        purities[start : start + len(v)] = np.einsum("nij,nji->n", rho, rho).real
    return purities, worst


# ---------------------------------------------------------------------------
# Outside attack: intercepting decoy qubits.


class OutsideStrategy(enum.Enum):
    INTERCEPT_RESEND = "intercept_resend"  # random basis per decoy
    MEASURE_RESEND = "measure_resend"  # always the computational basis


#: BASIS[b, i] = i-th state of basis b (0 computational, 1 diagonal).
DECOY_BASES = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
         [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)]],
    ],
    dtype=np.complex128,
)

#: Draws per chunk of ``outside_attack_sim``: few enough to stay cache-resident.
_OUTSIDE_CELLS = 2**16


@dataclass(frozen=True)
class DetectionEstimate:
    probability: float
    std_error: float
    n_trials: int


def analytic_detection_probability(n_decoys: int) -> float:
    """Chance that at least one of n decoys flags the interceptor."""
    n_decoys = protocol.as_integer("n_decoys", n_decoys)
    if n_decoys < 1:
        raise ValueError("n_decoys must be at least 1")
    return 1.0 - (3.0 / 4.0) ** n_decoys


def outside_attack_sim(
    n_decoys: int,
    strategy: OutsideStrategy = OutsideStrategy.INTERCEPT_RESEND,
    *,
    trials: int = 10000,
    seed: int = 0,
) -> DetectionEstimate:
    """Monte-Carlo detection probability of an outside attack on decoys.

    Each decoy draws one code ``c = 4 prep_basis + 2 prep_bit + attacker_basis``
    (attacker basis 0 under ``MEASURE_RESEND``); the attacker reads 1 with
    probability ``eve1[c]`` and the verifier the wrong bit with probability
    ``wrong[2 c + attacker outcome]``, squared overlaps of ``DECOY_BASES``
    sampled with one uniform each. A trial is detected when any decoy verifies
    wrong. Chunk i, about ``_OUTSIDE_CELLS`` draws as (decoys, trials) or slabs
    of one trial's decoys, draws from child i of ``SeedSequence(seed)``.
    """
    n_decoys = protocol.as_integer("n_decoys", n_decoys)
    if n_decoys < 1:
        raise ValueError("n_decoys must be at least 1")
    trials = protocol.as_integer("trials", trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not isinstance(strategy, OutsideStrategy):
        raise TypeError(f"unknown strategy {strategy!r}")

    # born[m, o, p, i] = |<basis_m, outcome o | basis_p, state i>|^2
    born = np.abs(np.einsum("moa,pia->mopi", DECOY_BASES.conj(), DECOY_BASES)) ** 2
    prep_basis, prep_bit, eve_basis = np.unravel_index(np.arange(8), (2, 2, 2))
    eve1 = np.repeat(born[eve_basis, 1, prep_basis, prep_bit], 2)  # read at 2 c
    wrong = born[prep_basis[:, None], 1 - prep_bit[:, None], eve_basis[:, None], [0, 1]].ravel()
    # rng.integers(8, dtype=np.uint8) is a random byte's top three bits, so
    # (byte >> 4) & 14 is 2 c on the same stream; 12 clears the attacker basis
    mask = 12 if strategy is OutsideStrategy.MEASURE_RESEND else 14
    per_chunk = max(1, _OUTSIDE_CELLS // n_decoys)  # trials
    # shared by all chunks: arrays made afresh per chunk page-fault on every chunk
    size = min(n_decoys, _OUTSIDE_CELLS) * per_chunk
    codes, uniforms, probs = (np.empty(size, dtype=t) for t in (np.intp, float, float))
    root = np.random.SeedSequence(seed)
    detected = 0
    for first in range(0, trials, per_chunk):
        rng = np.random.default_rng(root.spawn(1)[0])  # child i of spawn(n), none held
        hit = np.zeros(min(per_chunk, trials - first), dtype=bool)
        for row in range(0, n_decoys, _OUTSIDE_CELLS):  # one slab unless n_decoys > cells
            shape = (min(_OUTSIDE_CELLS, n_decoys - row), hit.size)
            c, u, p = (b[: shape[0] * shape[1]].reshape(shape) for b in (codes, uniforms, probs))
            byte = np.frombuffer(rng.bytes(c.size), np.uint8).reshape(shape)
            np.bitwise_and(byte >> 4, mask, out=c)  # intp gathers faster
            # mode="clip" writes to out directly; every code is in range
            eve_out = rng.random(out=u) < eve1.take(c, out=p, mode="clip")
            c += eve_out
            hit |= np.logical_or.reduce(rng.random(out=u) < wrong.take(c, out=p, mode="clip"),
                                        axis=0)
        detected += int(np.count_nonzero(hit))
    p_hat = detected / trials
    se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return DetectionEstimate(probability=p_hat, std_error=se, n_trials=trials)


# ---------------------------------------------------------------------------
# Discrepancy report: where the published closed forms disagree with the
# constructions they describe.


@dataclass(frozen=True)
class DiscrepancyEntry:
    subject: str
    printed: str
    computed: str
    residual: float


def discrepancy_report() -> tuple[DiscrepancyEntry, ...]:
    """Audit entries for the published expressions this library rebuilds.

    Each entry carries a numerical residual measured against the direct
    construction, so the report documents the mismatches instead of
    silently patching them.
    """
    entries = []

    g = channel.verify_grouped_form()
    entries.append(
        DiscrepancyEntry(
            subject="grouped-form prefactor",
            printed=(
                f"prefactor 1/32 reproduces only norm {g.printed_norm:.6f} "
                f"of the channel state"
            ),
            computed=(
                f"prefactor 1/4 reconstructs the channel exactly "
                f"(residual {g.residual_corrected:.3e})"
            ),
            residual=float(g.residual_printed),
        )
    )

    layout = channel.party_layout(channel.build_channel())
    for rule in protocol.table_report():
        if "repaired" in rule.status:
            entries.append(
                DiscrepancyEntry(
                    subject=f"recovery-table gates for {rule.key.label()}",
                    printed=" ".join(rule.printed_gates),
                    computed=" ".join(rule.gates) + " (shortest working sequence)",
                    residual=rule.printed_gate_defect,
                )
            )
        if rule.printed_pair is not None:
            c, d = rule.printed_pair
            mass = float(np.sum(np.abs(layout[:, int(c + d, 2)]) ** 2))
            entries.append(
                DiscrepancyEntry(
                    subject=f"recovery-table outcome label ({c},{d})",
                    printed=f"helper pattern ({c},{d}) carries channel probability {mass:.3e}",
                    computed=(
                        f"row re-keyed to {rule.key.label()}, where its printed "
                        f"state column and gates verify"
                    ),
                    residual=abs(1.0 / 16.0 - mass),
                )
            )

    ad = noise_mod.damping_terminal_term(0.5)
    entries.append(
        DiscrepancyEntry(
            subject="amplitude-damping truncation terminal term",
            printed=(
                "eta^7 on |1111111> "
                f"(residual {ad.residual_printed:.6f} at eta={ad.eta})"
            ),
            computed=(
                "uniform-index construction gives eta^7/32 on |0000000> "
                f"(residual {ad.residual_derived:.3e})"
            ),
            residual=ad.residual_printed,
        )
    )
    return tuple(entries)


# ---------------------------------------------------------------------------
# Invariant suite: the checks ``rsp7 verify`` prints.

#: Largest residual an invariant check accepts.
CHECK_TOL = 1e-12

#: alpha = beta = 1/sqrt(2): every branch has probability 1/16.
BALANCED_TARGET = TargetState(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class InvariantCheck:
    """One PASS/FAIL line of ``rsp7 verify``."""

    name: str
    passed: bool
    detail: str
    notes: tuple[str, ...] = ()  # lines printed indented under the check


def _within(name: str, residual: float, detail: str) -> InvariantCheck:
    return InvariantCheck(name, bool(residual <= CHECK_TOL), detail)


def invariant_checks() -> tuple[InvariantCheck, ...]:
    """Every invariant of the channel, the recovery table and the noise
    machinery, in printed order; the random targets come from one fixed seed."""
    rng = np.random.default_rng(20240817)
    psi = channel.build_channel()
    nonzero = np.abs(psi) > CHECK_TOL
    mags = np.abs(psi[nonzero])
    amp_dev = float(np.max(np.abs(mags - 1.0 / (4.0 * math.sqrt(2.0)))))
    passed = bool(nonzero.sum() == 32 and amp_dev <= CHECK_TOL)
    checks = [InvariantCheck("channel amplitudes", passed,
                             f"{int(nonzero.sum())} entries at {np.mean(mags):.12f}")]
    dev = abs(float(np.linalg.norm(psi)) - 1.0)
    checks.append(_within("channel normalization", dev, f"residual {dev:.3e}"))
    dev = max(channel.verify_factorization(TargetState.random(rng)) for _ in range(10))
    checks.append(_within("factorization residual", dev,
                          f"max over 10 random targets {dev:.3e}"))
    dev = channel.verify_grouped_form().residual_corrected
    checks.append(_within("grouped-form reconstruction", dev,
                          f"corrected-prefactor residual {dev:.3e}"))

    rules = protocol.table_report()
    n_ok = sum(r.gate_defect <= protocol.GATE_TOL for r in rules)
    notes = [f"repaired {r.key.label()}: printed gates [{' '.join(r.printed_gates)}] "
             f"defect {r.printed_gate_defect:.3f}, now [{' '.join(r.gates)}]"
             for r in rules if "repaired" in r.status]
    notes += [f"rekeyed  {r.key.label()}: printed helper label ({','.join(r.printed_pair)}) "
              f"never occurs" for r in rules if "rekeyed" in r.status]
    checks.append(InvariantCheck("recovery table", n_ok == 16,
                                 f"{n_ok}/16 rows verified or repaired", tuple(notes)))

    branches = protocol.enumerate_branches(BALANCED_TARGET)
    dev = max(abs(b.branch_probability - 1.0 / 16.0) for b in branches)
    checks.append(_within("branch probabilities", dev, f"max |p - 1/16| = {dev:.3e}"))
    for _ in range(5):
        branches += protocol.enumerate_branches(TargetState.random(rng))
    dev = max(abs(b.fidelity - 1.0) for b in branches)
    checks.append(_within("noiseless fidelity", dev,
                          f"max |F - 1| over 6 targets x 16 branches = {dev:.3e}"))

    dev = max(noise_mod.completeness_residual(ops) for kind in NoiseKind
              for ops in noise_mod.kraus_operators(kind, np.linspace(0.0, 1.0, 21)))
    checks.append(_within("Kraus completeness", dev, f"max residual on 21-point grid {dev:.3e}"))
    # the engine's blocks: dephasing leaks no weight off the sixteen keys
    ops = [noise_mod.kraus_operators(kind, [0.0, 0.3, 1.0]) for kind in NoiseKind]
    blocks = noise_mod.stacked_blocks(TargetState.random(rng), ops, ALL_QUBITS, EvolutionModel.EXACT)
    herm = float(np.max(np.abs(blocks - blocks.conj().swapaxes(-1, -2))))
    min_eig = float(np.min(np.linalg.eigvalsh(blocks)))
    weights = np.trace(blocks, axis1=-2, axis2=-1).real.sum(axis=1).reshape(len(ops), -1)
    dephasing = [kind in (NoiseKind.PHASE_FLIP, NoiseKind.PHASE_DAMPING) for kind in NoiseKind]
    dev = float(np.max(np.abs(weights[dephasing] - 1.0)))
    checks.append(_within("exact evolution invariants", max(herm, -min_eig, dev),
                          f"6 kinds x 3 etas x 16 blocks: hermiticity {herm:.3e}, "
                          f"min eigenvalue {min_eig:.3e}, dephasing weight residual {dev:.3e}"))

    eta = 0.4  # closed-form traces of the two-term truncation
    base = (1.0 - eta) ** 7
    traces = dict.fromkeys(
        (NoiseKind.BIT_FLIP, NoiseKind.PHASE_FLIP, NoiseKind.BIT_PHASE_FLIP), base + eta ** 7
    )
    traces[NoiseKind.PHASE_DAMPING] = base + 2.0 * eta ** 7 / 32.0
    traces[NoiseKind.DEPOLARIZING] = base + 3.0 * (eta / 3.0) ** 7
    dev = max(abs(noise_mod.truncated_channel_state(NoiseSpec(kind, eta))[1] - want)
              for kind, want in traces.items())
    checks.append(_within("truncated trace identities", dev,
                          f"max residual at eta=0.4 over 5 closed forms {dev:.3e}"))
    dev = max(
        abs(branch_fidelity(BALANCED_TARGET, ALL_OUTCOME_KEYS[0], NoiseSpec(kind, 0.0), m) - 1.0)
        for kind in NoiseKind for m in EvolutionModel
    )
    checks.append(_within("noiseless limit of noise machinery", dev,
                          f"max |F - 1| = {dev:.3e}"))
    return tuple(checks)


def continuity_modulus(target: TargetState, kind: NoiseKind, etas: np.ndarray) -> float:
    """Largest slope of the exact model's averaged fidelity between
    neighbouring points of a strictly increasing eta grid, from one engine
    call over the grid."""
    etas = np.asarray(etas, dtype=np.float64)
    if etas.ndim != 1 or len(etas) < 2 or not np.all(np.diff(etas) > 0):
        raise ValueError("etas must be a strictly increasing 1-D grid of at least two points")
    ops = [noise_mod.kraus_operators(kind, etas)]
    blocks = noise_mod.stacked_blocks(target, ops, ALL_QUBITS, EvolutionModel.EXACT)
    f = _cells(blocks, target)[0]
    return float(np.max(np.abs(np.diff(f)) / np.diff(etas)))
