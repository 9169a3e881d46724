"""Property tests of the branch-block engine against the density-matrix path
and the Kraus-string tables."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsp7.analysis import averaged_fidelity, branch_fidelity
from rsp7.channel import alice_basis, build_channel, party_layout
from rsp7.linalg import apply_to_qubits
from rsp7.noise import (
    ALL_QUBITS,
    TRANSMITTED_QUBITS,
    EvolutionModel,
    NoiseKind,
    NoiseSpec,
    _string_tables,
    branch_reduction,
    evolved_state,
    kraus_operators,
    stacked_blocks,
)
from rsp7.protocol import ALL_OUTCOME_KEYS, ImpossibleBranchError, TargetState, table_report

targets = st.integers(0, 2**32 - 1).map(
    lambda seed: TargetState.random(np.random.default_rng(seed))
)
etas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
kinds = st.sampled_from(list(NoiseKind))
subsets = st.sets(st.integers(1, 7), min_size=1).map(lambda s: tuple(sorted(s)))


@st.composite
def noise_settings(draw):
    """(qubits, model); the truncated model exists only on all seven qubits."""
    model = draw(st.sampled_from(list(EvolutionModel)))
    if model is EvolutionModel.TRUNCATED:
        return ALL_QUBITS, model
    return draw(subsets), model


@settings(max_examples=25, deadline=None)
@given(targets, kinds, st.lists(etas, min_size=1, max_size=3), noise_settings())
def test_blocks_match_density_path(target, kind, grid, setting):
    qubits, model = setting
    blocks = stacked_blocks(target, [kraus_operators(kind, grid)], qubits, model)
    assert blocks.shape == (len(grid), 16, 4, 4)
    for i, eta in enumerate(grid):
        rho = evolved_state(NoiseSpec(kind, eta, qubits), model)
        for k, key in enumerate(ALL_OUTCOME_KEYS):
            want = branch_reduction(rho, target, key)
            assert np.max(np.abs(blocks[i, k] - want)) <= 1e-12, (eta, key.label())


@settings(max_examples=40, deadline=None)
@given(targets, kinds, noise_settings())
def test_noiseless_fidelity_is_one(target, kind, setting):
    qubits, model = setting
    spec = NoiseSpec(kind, 0.0, qubits)
    assert abs(averaged_fidelity(target, spec, model) - 1.0) <= 1e-12
    xi = target.ket()
    for block in stacked_blocks(target, [kraus_operators(kind, [0.0])], qubits, model)[0]:
        f = (xi.conj() @ block @ xi).real / np.trace(block).real
        assert abs(f - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(targets, st.sampled_from([NoiseKind.PHASE_FLIP, NoiseKind.PHASE_DAMPING]),
       st.lists(etas, min_size=1, max_size=3), subsets)
def test_dephasing_keeps_all_weight_on_the_sixteen_branches(target, kind, grid, qubits):
    # dephasing commutes with the helpers' computational-basis measurement,
    # so no weight leaks into helper patterns outside the sixteen keys
    blocks = stacked_blocks(target, [kraus_operators(kind, grid)], qubits, EvolutionModel.EXACT)
    weights = np.trace(blocks, axis1=-2, axis2=-1).real.sum(axis=1)
    assert np.max(np.abs(weights - 1.0)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(targets, st.sampled_from(range(16)), kinds, etas, subsets)
def test_kraus_strings_give_the_exact_branch_fidelity(target, k, kind, eta, qubits):
    # a third exact oracle: sum_s |<xi|G E_s Psi>|^2 / sum_s |G E_s Psi|^2
    # over the branch amplitudes of every Kraus string s
    spec = NoiseSpec(kind, eta, qubits)
    key = ALL_OUTCOME_KEYS[k]
    amp, weights = _string_tables(target, key, spec)
    assert abs(weights[-1].sum() - 1.0) <= 1e-12
    # chain rule: a prefix weighs what its one-index extensions weigh together
    n_ops = len(weights[0])
    for shorter, longer in zip(weights, weights[1:]):
        assert np.max(np.abs(longer.reshape(-1, n_ops).sum(axis=1) - shorter)) <= 1e-12
    try:
        want = branch_fidelity(target, key, spec, EvolutionModel.EXACT)
    except ImpossibleBranchError:
        return
    recovered = amp @ table_report()[k].matrix.T @ target.ket().conj()
    x = np.sum(np.abs(recovered) ** 2)
    y = np.sum(np.abs(amp) ** 2)
    assert abs(x / y - want) <= 1e-12


@pytest.mark.parametrize("qubits", [ALL_QUBITS, (1,), (2, 3), (4, 6), (5, 7)])
def test_string_tables_match_direct_strings(qubits):
    # row s belongs to string s: E_s applied qubit by qubit to |Psi>, its
    # Kraus indices read from s with the lowest noisy qubit most significant
    rng = np.random.default_rng(sum(qubits))
    psi = build_channel()
    for kind in NoiseKind:
        target = TargetState.random(rng)
        key = ALL_OUTCOME_KEYS[rng.integers(16)]
        eta = rng.uniform(0.05, 0.95)
        amp, weights = _string_tables(target, key, NoiseSpec(kind, eta, qubits))
        ops = kraus_operators(kind, eta)
        assert amp.shape == (len(ops) ** len(qubits), 4)
        # a branch never weighs more than its string
        assert np.all(np.sum(np.abs(amp) ** 2, axis=1) <= weights[-1] + 1e-15)
        sender = alice_basis(target)[key.alice - 1].conj()
        for s in rng.integers(len(amp), size=20):
            v = psi
            for q, k in zip(qubits, np.unravel_index(s, (len(ops),) * len(qubits))):
                v = apply_to_qubits(ops[k], [q], v)
            branch = sender @ party_layout(v)[:, int(key.charlie + key.david, 2)]
            assert np.max(np.abs(amp[s] - branch)) <= 1e-12, (kind, s)
            assert abs(weights[-1][s] - np.vdot(v, v).real) <= 1e-12, (kind, s)


@pytest.mark.parametrize("qubits", [(1,), (2, 3), (4, 6), (5, 7)])
def test_blocks_match_density_path_on_party_scopes(qubits):
    # a noiseless sender, pair or helper takes the identity from the qubit table
    target = TargetState.random(np.random.default_rng(5))
    grid = [0.3, 0.85]
    for kind in NoiseKind:
        blocks = stacked_blocks(target, [kraus_operators(kind, grid)], qubits, EvolutionModel.EXACT)
        for i, eta in enumerate(grid):
            rho = evolved_state(NoiseSpec(kind, eta, qubits))
            for k, key in enumerate(ALL_OUTCOME_KEYS):
                want = branch_reduction(rho, target, key)
                assert np.max(np.abs(blocks[i, k] - want)) <= 1e-12, (kind, eta, key.label())


SETTINGS = [(ALL_QUBITS, EvolutionModel.EXACT), (TRANSMITTED_QUBITS, EvolutionModel.EXACT),
            (ALL_QUBITS, EvolutionModel.TRUNCATED)]


@pytest.mark.parametrize("qubits, model", SETTINGS)
def test_one_point_grid_gives_the_bits_of_a_longer_grid(qubits, model):
    target = TargetState.random(np.random.default_rng(3))
    grid = np.append(np.linspace(0.0, 1.0, 11), 0.37)
    for kind in NoiseKind:
        blocks = stacked_blocks(target, [kraus_operators(kind, grid)], qubits, model)
        for i, eta in enumerate(grid):
            one = stacked_blocks(target, [kraus_operators(kind, [eta])], qubits, model)[0]
            assert one.tobytes() == blocks[i].tobytes(), (kind, eta)


@pytest.mark.parametrize("qubits, model", SETTINGS + [((1,), EvolutionModel.EXACT),
                                                  ((2, 3), EvolutionModel.EXACT)])
def test_stacked_kinds_give_the_bits_of_one_kind_calls(qubits, model):
    # the six kinds on one point axis, the last grid cut short as a sweep slice cuts it
    target = TargetState.random(np.random.default_rng(6))
    grid = np.append(np.linspace(0.0, 1.0, 11), 0.37)
    grids = [grid] * (len(NoiseKind) - 1) + [grid[:5]]
    ops = [kraus_operators(kind, g) for kind, g in zip(NoiseKind, grids)]
    stacked = stacked_blocks(target, ops, qubits, model)
    assert stacked.shape == (sum(map(len, grids)), 16, 4, 4)
    start = 0
    for kind, g in zip(NoiseKind, grids):
        one = stacked_blocks(target, [kraus_operators(kind, g)], qubits, model)
        assert stacked[start:start + len(g)].tobytes() == one.tobytes(), kind
        start += len(g)
    # one key alone: the bits of the same key over each kind alone, and its
    # slot of the sixteen up to rounding
    key = ALL_OUTCOME_KEYS[11]
    keyed = stacked_blocks(target, ops, qubits, model, key)
    assert keyed.shape == (len(stacked), 1, 4, 4)
    alone = np.concatenate([stacked_blocks(target, [o], qubits, model, key) for o in ops])
    assert keyed.tobytes() == alone.tobytes()
    assert np.max(np.abs(keyed[:, 0] - stacked[:, 11])) <= 1e-15


@pytest.mark.parametrize("model", list(EvolutionModel))
def test_engine_checks_its_own_inputs(model):
    # the engine applies NoiseSpec's qubit rule itself and needs at least one point
    target = TargetState.random(np.random.default_rng(9))
    ops = [kraus_operators(kind, [0.2, 0.7]) for kind in NoiseKind]
    for qubits in [(8,), (0,), ()]:
        with pytest.raises(ValueError) as info:
            stacked_blocks(target, ops, qubits, model)
        assert str(info.value) == f"qubits must be a non-empty subset of 1..7, got {qubits!r}"
    raw = (7, 6, 5, 4, 3, 2, 1) if model is EvolutionModel.TRUNCATED else (3, 2, 2)
    want = stacked_blocks(target, ops, tuple(sorted(set(raw))), model)
    assert stacked_blocks(target, ops, raw, model).tobytes() == want.tobytes()
    with pytest.raises(ValueError) as info:
        stacked_blocks(target, [], ALL_QUBITS, model)
    assert str(info.value) == "etas must hold at least one value"


@pytest.mark.parametrize("model", list(EvolutionModel))
def test_engine_names_a_kraus_set_without_a_point_axis(model):
    # a scalar-eta set, (n_ops, 2, 2), is a stack without its point axis
    target = TargetState.random(np.random.default_rng(9))
    with pytest.raises(ValueError) as info:
        stacked_blocks(target, [kraus_operators(NoiseKind.BIT_FLIP, 0.3)], ALL_QUBITS, model)
    assert str(info.value) == ("each Kraus stack must have shape (points, n_ops, 2, 2), "
                               "got (2, 2, 2)")


@pytest.mark.parametrize("model", list(EvolutionModel))
def test_one_call_peaks_below_a_megabyte(model):
    # eleven points of the largest Kraus set, after a first call has
    # built the cached channel and recovery gates
    target = TargetState.random(np.random.default_rng(4))
    grid = np.linspace(0.0, 1.0, 11)
    stacked_blocks(target, [kraus_operators(NoiseKind.DEPOLARIZING, grid)], ALL_QUBITS, model)
    tracemalloc.start()
    try:
        stacked_blocks(target, [kraus_operators(NoiseKind.DEPOLARIZING, grid)], ALL_QUBITS, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("model", list(EvolutionModel))
@pytest.mark.parametrize("key", [None, ALL_OUTCOME_KEYS[9]])
@pytest.mark.parametrize("kinds, steps", [(tuple(NoiseKind), 11), ((NoiseKind.DEPOLARIZING,), 66)])
def test_sweep_slice_peaks_below_four_megabytes(model, key, kinds, steps):
    # the largest call a sweep makes: one slice of 66 points
    target = TargetState.random(np.random.default_rng(8))
    ops = [kraus_operators(kind, np.linspace(0.0, 1.0, steps)) for kind in kinds]
    stacked_blocks(target, ops, ALL_QUBITS, model, key)
    tracemalloc.start()
    try:
        stacked_blocks(target, ops, ALL_QUBITS, model, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
