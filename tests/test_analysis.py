import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rsp7 import analysis, noise
from rsp7.analysis import (
    AttackParams,
    OutsideStrategy,
    SweepConfig,
    analytic_detection_probability,
    averaged_fidelity,
    branch_fidelity,
    discrepancy_report,
    fidelity,
    fidelity_sweep,
    inside_attack,
    outside_attack_sim,
    purity,
    sample_inside_attacks,
)
from rsp7.linalg import ket, pure_density
from rsp7.noise import TRANSMITTED_QUBITS, EvolutionModel, NoiseKind, NoiseSpec
from rsp7.protocol import ALL_OUTCOME_KEYS, ImpossibleBranchError, OutcomeKey, TargetState

from conftest import random_density

SQ2 = 1.0 / math.sqrt(2.0)
BELL = TargetState(SQ2, SQ2)
KEY00 = OutcomeKey(1, "00", "00")


# --------------------------------------------------------------------------
# Metrics.


def test_fidelity_basics():
    xi = TargetState(0.6, 0.8).ket()
    assert_allclose(fidelity(xi, pure_density(xi)), 1.0, atol=1e-14)
    assert_allclose(fidelity(ket("00"), np.eye(4) / 4.0), 0.25, atol=1e-14)


def test_fidelity_phase_invariance():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 4)
    xi = TargetState(0.6, 0.8).ket()
    a = fidelity(xi, rho)
    b = fidelity(np.exp(1j * 1.3) * xi, rho)
    assert abs(a - b) <= 1e-14


def test_fidelity_linear_in_rho():
    rng = np.random.default_rng(3)
    r1 = random_density(rng, 4)
    r2 = random_density(rng, 4)
    xi = TargetState(0.8, 0.6).ket()
    p = 0.3
    mix = p * r1 + (1 - p) * r2
    assert abs(fidelity(xi, mix)
               - (p * fidelity(xi, r1) + (1 - p) * fidelity(xi, r2))) <= 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(ket("0"), np.eye(4) / 4.0)


def test_purity_rank_one_iff_one():
    rng = np.random.default_rng(4)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    assert_allclose(purity(pure_density(v)), 1.0, atol=1e-12)
    mixed = random_density(rng, 8)
    assert purity(mixed) < 1.0 - 1e-6
    assert_allclose(purity(np.eye(2) / 2.0), 0.5, atol=1e-14)


# --------------------------------------------------------------------------
# Sweeps.


def _same_cells(a, b):
    """Two sweep results hold the same models and the same bytes."""
    return list(a) == list(b) and all(a[m].tobytes() == b[m].tobytes() for m in a)


def test_sweep_eta_zero_rows_are_one():
    cfg = SweepConfig(kinds=tuple(NoiseKind), target=BELL, eta_steps=2)
    cells = fidelity_sweep(cfg)
    assert cfg.etas()[0] == 0.0
    for model in EvolutionModel:
        assert_allclose(cells[model][:, 0], 1.0, atol=1e-12)


def test_sweep_shape_order_and_determinism():
    cfg = SweepConfig(kinds=(NoiseKind.PHASE_FLIP, NoiseKind.BIT_FLIP),
                      target=BELL, eta_steps=3)
    assert cfg.kinds == (NoiseKind.BIT_FLIP, NoiseKind.PHASE_FLIP)  # value order
    cells = fidelity_sweep(cfg)
    assert list(cells) == list(EvolutionModel)
    for f in cells.values():
        assert f.shape == (2, 3)
        assert not f.flags.writeable
    again = fidelity_sweep(cfg)
    assert _same_cells(cells, again)


def test_sweep_branch_mode_matches_branch_fidelity():
    spec = NoiseSpec(NoiseKind.PHASE_DAMPING, 0.5)
    cfg = SweepConfig(kinds=(NoiseKind.PHASE_DAMPING,), target=BELL,
                      eta_start=0.5, eta_end=1.0, eta_steps=2, branch=KEY00)
    cells = fidelity_sweep(cfg)
    want = branch_fidelity(BELL, KEY00, spec, EvolutionModel.EXACT)
    assert_allclose(cells[EvolutionModel.EXACT][0, 0], want, atol=1e-12)


def test_sweep_error_marker_on_impossible_branch():
    # amplitude damping at eta=1 kills branches that need any helper bit 1
    cfg = SweepConfig(kinds=(NoiseKind.AMPLITUDE_DAMPING,), target=BELL,
                      eta_start=1.0, eta_end=1.0, eta_steps=2,
                      branch=OutcomeKey(1, "11", "11"))
    cells = fidelity_sweep(cfg)
    assert list(cells) == list(EvolutionModel)
    for f in cells.values():
        assert np.isnan(f).all()


@pytest.mark.parametrize("qubits", [(6,), (4, 6)])
def test_sweep_marks_averaged_cells_with_no_weight_left(qubits):
    # a flip of C2 and not of D2 breaks c2 = d2, so at eta = 1 every round
    # lands on a helper pattern outside the sixteen keys
    kinds = (NoiseKind.BIT_FLIP, NoiseKind.BIT_PHASE_FLIP)
    config = SweepConfig(kinds=kinds, target=TargetState(0.6, 0.8), qubits=qubits)
    assert config.kinds == kinds and config.etas()[-1] == 1.0
    f = fidelity_sweep(config)[EvolutionModel.EXACT]
    assert np.isnan(f[:, -1]).all()
    assert not np.isnan(f[:, :-1]).any()


def test_averaged_fidelity_raises_with_no_weight_left():
    spec = NoiseSpec(NoiseKind.BIT_FLIP, 1.0, (6,))
    with pytest.raises(ImpossibleBranchError) as info:
        averaged_fidelity(TargetState(0.6, 0.8), spec)
    assert info.value.probability < 1e-14


def test_sweep_transmitted_scope_skips_truncated_column():
    cfg = SweepConfig(kinds=(NoiseKind.BIT_FLIP,), target=BELL, eta_steps=2,
                      qubits=TRANSMITTED_QUBITS)
    cells = fidelity_sweep(cfg)
    assert list(cells) == [EvolutionModel.EXACT]
    assert not np.isnan(cells[EvolutionModel.EXACT]).any()


@pytest.mark.parametrize("value", [math.nan, 1.5])
def test_sweep_rejects_a_possible_cell_outside_the_unit_band(monkeypatch, value):
    # impossible cells become NaN only after the check, so a bad possible cell still raises
    def bad_cells(blocks, target):
        f = np.full(blocks.shape[0], 0.5)
        f[1] = value
        return f, np.ones(blocks.shape[0])

    monkeypatch.setattr(analysis, "_cells", bad_cells)
    with pytest.raises(ValueError) as info:
        fidelity_sweep(SweepConfig(kinds=(NoiseKind.BIT_FLIP,), target=BELL, eta_steps=3))
    assert str(info.value) == f"fidelity_exact={value!r} outside [0, 1] tolerance band"


def test_sweep_peak_does_not_grow_with_its_rows():
    def peak(steps):
        config = SweepConfig(kinds=(NoiseKind.BIT_FLIP,), target=BELL, eta_steps=steps,
                             models=(EvolutionModel.EXACT,))
        tracemalloc.start()
        try:
            fidelity_sweep(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(11)
    # the 9,000 more cells hold 72 KB; nothing else may grow with them
    assert peak(10_001) <= peak(1_001) + 400 * 1024


@pytest.mark.parametrize("branch", [None, OutcomeKey(2, "11", "11")])
def test_sliced_sweep_rows_equal_one_engine_call(monkeypatch, branch):
    # 6 kinds x 10 points in slices of at most 3 points, some across two
    # kinds; the forced branch is impossible under full amplitude damping at eta = 1
    config = SweepConfig(kinds=tuple(NoiseKind), target=TargetState(0.6, 0.8),
                         eta_steps=10, branch=branch)
    monkeypatch.setattr(analysis, "_SWEEP_SLICE", 60)
    whole = fidelity_sweep(config)
    monkeypatch.setattr(analysis, "_SWEEP_SLICE", 3)
    assert _same_cells(fidelity_sweep(config), whole)
    assert np.isnan(whole[EvolutionModel.EXACT]).any() == (branch is not None)


@pytest.mark.parametrize("branch", [None, ALL_OUTCOME_KEYS[13]])
def test_sweep_rows_equal_one_point_calls_bit_for_bit(branch):
    # a one-point grid reduces the sixteen keys in the order a longer grid does
    target = TargetState.random(np.random.default_rng(15))
    config = SweepConfig(kinds=tuple(NoiseKind), target=target, branch=branch)
    etas = config.etas().tolist()
    for model, cells in fidelity_sweep(config).items():
        for (i, j), want in np.ndenumerate(cells):
            if np.isnan(want):
                continue
            spec = NoiseSpec(config.kinds[i], etas[j])
            got = (averaged_fidelity(target, spec, model) if branch is None
                   else branch_fidelity(target, branch, spec, model))
            assert got == want, (config.kinds[i], etas[j], model)


def test_sweep_builds_one_kraus_stack_per_engine_call(monkeypatch):
    calls = []
    build = noise.kraus_operators

    def counted(kind, eta):
        calls.append(kind)
        return build(kind, eta)

    monkeypatch.setattr(noise, "kraus_operators", counted)
    config = SweepConfig(kinds=tuple(NoiseKind), target=BELL)
    fidelity_sweep(config)
    assert calls == list(config.kinds)  # one per kind, shared by both models


@pytest.mark.parametrize("qubits, normalized", [((1, 4), (1, 4)), ((3, 2, 2), (2, 3))])
def test_sweep_on_any_qubit_subset_equals_one_point_calls(qubits, normalized):
    # subsets no CLI scope names; both models asked for, so the truncated column stays empty
    target = TargetState(0.6, 0.8)
    config = SweepConfig(kinds=tuple(NoiseKind), target=target, eta_steps=5, qubits=qubits)
    assert (config.qubits, config.models) == (normalized, (EvolutionModel.EXACT,))
    cells = fidelity_sweep(config)
    assert list(cells) == [EvolutionModel.EXACT]
    etas = config.etas().tolist()
    for (i, j), f in np.ndenumerate(cells[EvolutionModel.EXACT]):
        assert f == averaged_fidelity(target, NoiseSpec(config.kinds[i], etas[j], qubits))


def test_sweep_fills_exact_then_truncated_whatever_the_model_order():
    config = SweepConfig(kinds=(NoiseKind.AMPLITUDE_DAMPING,), target=BELL,
                         models=(EvolutionModel.TRUNCATED, EvolutionModel.EXACT))
    assert config.models == tuple(EvolutionModel)
    assert _same_cells(fidelity_sweep(config),
                       fidelity_sweep(SweepConfig(kinds=config.kinds, target=BELL)))


@pytest.mark.parametrize("settings, message", [
    ({"qubits": ()}, "qubits must be a non-empty subset of 1..7, got ()"),
    ({"qubits": (0,)}, "qubits must be a non-empty subset of 1..7, got (0,)"),
    ({"qubits": (8,)}, "qubits must be a non-empty subset of 1..7, got (8,)"),
    ({"models": ()}, "models must be a non-empty sequence of EvolutionModel"),
    ({"models": ("exact",)}, "models must be a non-empty sequence of EvolutionModel"),
    ({"kinds": (NoiseKind.BIT_FLIP, NoiseKind.BIT_FLIP)}, "kinds must not repeat"),
    ({"eta_steps": 2.5}, "eta_steps must be an integer, got 2.5"),
])
def test_sweep_config_rejects_bad_settings(settings, message):
    with pytest.raises(ValueError) as info:
        SweepConfig(**{"kinds": (NoiseKind.BIT_FLIP,), "target": BELL, **settings})
    assert str(info.value) == message


def test_sweep_config_validation():
    # a numpy integer is an integer step count
    config = SweepConfig(kinds=(NoiseKind.BIT_FLIP,), target=BELL, eta_steps=np.int64(11))
    assert len(config.etas()) == 11
    with pytest.raises(ValueError):
        SweepConfig(kinds=(NoiseKind.BIT_FLIP,), target=BELL, eta_steps=1)
    with pytest.raises(ValueError):
        SweepConfig(kinds=(NoiseKind.BIT_FLIP,), target=BELL,
                    eta_start=0.8, eta_end=0.2)
    with pytest.raises(ValueError):
        SweepConfig(kinds=(NoiseKind.BIT_FLIP,), target=BELL,
                    models=(EvolutionModel.TRUNCATED,),
                    qubits=TRANSMITTED_QUBITS)


def test_averaged_fidelity_is_weighted_branch_average():
    spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.3)
    rho = noise.evolved_state(spec, EvolutionModel.EXACT)
    num = 0.0
    den = 0.0
    for key in ALL_OUTCOME_KEYS:
        raw = noise.branch_reduction(rho, BELL, key)
        p = float(np.trace(raw).real)
        num += float(np.real(np.vdot(BELL.ket(), raw @ BELL.ket())))
        den += p
    want = num / den
    got = averaged_fidelity(BELL, spec, EvolutionModel.EXACT)
    assert_allclose(got, want, atol=1e-12)


def test_continuity_modulus_is_the_largest_grid_slope():
    etas = np.linspace(0.0, 1.0, 11)
    f = [averaged_fidelity(BELL, NoiseSpec(NoiseKind.DEPOLARIZING, e)) for e in etas]
    want = max(abs(f[i + 1] - f[i]) / (etas[i + 1] - etas[i]) for i in range(10))
    got = analysis.continuity_modulus(BELL, NoiseKind.DEPOLARIZING, etas)
    assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("etas", [[0.0, 0.5, 0.5], [0.5, 0.2, 0.9], [0.3]])
def test_continuity_modulus_rejects_a_grid_that_is_not_strictly_increasing(etas):
    with pytest.raises(ValueError) as info:
        analysis.continuity_modulus(BELL, NoiseKind.DEPOLARIZING, etas)
    assert str(info.value) == "etas must be a strictly increasing 1-D grid of at least two points"


def test_invariant_checks_pass_in_printed_order():
    checks = analysis.invariant_checks()
    assert [c.name for c in checks] == [
        "channel amplitudes",
        "channel normalization",
        "factorization residual",
        "grouped-form reconstruction",
        "recovery table",
        "branch probabilities",
        "noiseless fidelity",
        "Kraus completeness",
        "exact evolution invariants",
        "truncated trace identities",
        "noiseless limit of noise machinery",
    ]
    assert [c for c in checks if not c.passed] == []
    assert [len(c.notes) for c in checks] == [0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0]


# --------------------------------------------------------------------------
# Inside attack.


def test_trivial_attack_extracts_nothing():
    res = inside_attack(BELL, KEY00, AttackParams.trivial())
    # attacker's joint state is maximally mixed on A times a pure register
    assert_allclose(res.purity, 0.5, atol=1e-12)
    assert_allclose(res.env_purity, 1.0, atol=1e-12)
    assert_allclose(res.alice_state, np.eye(2) / 2.0, atol=1e-12)
    alt = inside_attack(TargetState(0.6, 0.8), KEY00, AttackParams.trivial())
    assert np.max(np.abs(res.env_state - alt.env_state)) <= 1e-12


def test_randomized_attack_always_leaves_mixed_state(rng):
    for _ in range(100):
        params = AttackParams.random(2, rng)
        res = inside_attack(BELL, KEY00, params)
        assert res.purity < 1.0 - 1e-6
        assert res.isometry_residual <= 1e-10


def test_attack_purity_is_exactly_half_for_isometries(rng):
    for env_dim in (2, 3, 5):
        params = AttackParams.random(env_dim, rng)
        res = inside_attack(BELL, KEY00, params)
        assert_allclose(res.purity, 0.5, atol=1e-10)


def test_attack_result_is_target_and_key_independent(rng):
    params = AttackParams.random(2, rng)
    results = [
        inside_attack(t, k, params)
        for t in (BELL, TargetState(0.6, 0.8))
        for k in (KEY00, OutcomeKey(2, "10", "10"))
    ]
    base = results[0]
    for res in results[1:]:
        assert abs(res.purity - base.purity) <= 1e-10
        assert abs(res.raw_branch_weight - base.raw_branch_weight) <= 1e-10


def test_attack_cauchy_schwarz_chain(rng):
    # trace of the unnormalized attacker state squared equals
    # 2 c^2 (1 + |x|^2) and is bounded by 4 c^2, c = half the raw weight
    for _ in range(25):
        params = AttackParams.random(3, rng)
        res = inside_attack(BELL, KEY00, params)
        raw = res.rho_ae * res.raw_branch_weight
        lhs = float(np.trace(raw @ raw).real)
        c = res.raw_branch_weight / 2.0
        mid = 2.0 * c**2 * (1.0 + abs(res.cross_overlap) ** 2)
        assert abs(lhs - mid) <= 1e-10
        assert lhs <= 4.0 * c**2 + 1e-10


def test_attack_raw_weight_is_eighth():
    res = inside_attack(BELL, KEY00, AttackParams.trivial())
    assert_allclose(res.raw_branch_weight, 1.0 / 8.0, atol=1e-12)


def test_random_attack_stream_is_pinned():
    # the seeded sampled attacks depend on this draw order and phase fix
    v = AttackParams.random(2, np.random.default_rng(0)).v
    fragments = {"e00": v[:2, 0], "e01": v[2:, 0], "e10": v[:2, 1], "e11": v[2:, 1]}
    want = {
        "e00": [0.039261788303 - 0.219755470157j, 0.199984843001 - 0.194629976705j],
        "e01": [-0.167273526972 - 0.726037584894j, 0.407200220227 - 0.389060732014j],
        "e10": [-0.171098963755 - 0.734496207217j, -0.118086562103 + 0.128296197963j],
        "e11": [0.214931859776 + 0.42154055559j, 0.27614555146 - 0.317313103541j],
    }
    for name, values in want.items():
        assert_allclose(fragments[name], values, atol=1e-12)


@pytest.mark.parametrize("samples", [1, 100])
@pytest.mark.parametrize("env_dim", [2, 3, 5])
@pytest.mark.parametrize("seed", range(5))
def test_sampled_attacks_equal_the_per_sample_loop(seed, env_dim, samples):
    rng = np.random.default_rng(seed)
    loop = [inside_attack(BELL, KEY00, AttackParams.random(env_dim, rng))
            for _ in range(samples)]
    after_loop = rng.random()
    rng = np.random.default_rng(seed)
    purities, worst = sample_inside_attacks(KEY00, env_dim, samples, rng)
    assert purities.tolist() == [r.purity for r in loop]
    assert worst == max(r.isometry_residual for r in loop)
    assert rng.random() == after_loop


@pytest.mark.parametrize("per_chunk", [7, 0])
def test_sampled_attack_chunks_keep_the_stream(monkeypatch, per_chunk):
    # 7 samples per chunk leaves a partial last chunk; 0 forces one sample each
    key, env_dim = OutcomeKey(2, "01", "11"), 3
    rng = np.random.default_rng(11)
    loop = [inside_attack(BELL, key, AttackParams.random(env_dim, rng)) for _ in range(100)]
    monkeypatch.setattr(analysis, "_ATTACK_CHUNK_ENTRIES", per_chunk * 8 * env_dim)
    purities, worst = sample_inside_attacks(key, env_dim, 100, np.random.default_rng(11))
    assert purities.tolist() == [r.purity for r in loop]
    assert worst == max(r.isometry_residual for r in loop)


def _attack_map_rows():
    """One table of attack maps V: name -> (V, None if it is accepted, else the error)."""
    v = AttackParams.trivial().v
    parallel = np.zeros((4, 2))
    parallel[0] = 1.0
    nan_in_e01 = v.copy()
    nan_in_e01[2, 0] = np.nan
    return {
        "isometry": (v, None),
        "within tolerance": (v * (1.0 + 0.4 * analysis.ISOMETRY_TOL), None),
        "at tolerance": (v * (1.0 + analysis.ISOMETRY_TOL), r"misses V\^dagger V = I"),
        "nan": (np.where(v == 1.0, np.nan, v), r"misses V\^dagger V = I by nan"),
        "inf": (np.where(v == 1.0, np.inf, v), r"misses V\^dagger V = I by nan"),
        "nan in e01": (nan_in_e01, r"misses V\^dagger V = I by nan"),
        "short first column": (v * [0.5, 1.0], r"misses V\^dagger V = I by 7.500e-01"),
        "short second column": (v * [1.0, 0.5], r"misses V\^dagger V = I by 7.500e-01"),
        "non-orthogonal columns": (parallel, r"misses V\^dagger V = I by 1.000e\+00"),
        "env_dim 1": (np.eye(2), r"env_dim >= 2, got shape \(2, 2\)"),
        "odd row count": (np.eye(3)[:, :2], r"env_dim >= 2, got shape \(3, 2\)"),
    }


def _assert_attack_maps_agree(monkeypatch, names):
    """AttackParams and sample_inside_attacks accept and reject the same rows, alike."""
    v = AttackParams.trivial().v
    rows = _attack_map_rows()
    for name in names:
        row, error = rows[name]
        # a batch whose second map is the row, or the row alone when it cannot stack
        draws = np.stack([v, row]) if row.shape == v.shape else row[None]
        monkeypatch.setattr(analysis, "_random_isometries", lambda d, n, rng, draws=draws: draws)
        with np.errstate(invalid="ignore"):
            if error is None:
                assert AttackParams(row).env_dim == 2
                purities, worst = sample_inside_attacks(KEY00, 2, len(draws), None)
                assert_allclose(purities, 0.5, atol=1e-12)
                assert worst <= analysis.ISOMETRY_TOL
                continue
            with pytest.raises(ValueError, match=error):
                AttackParams(row)
            with pytest.raises(ValueError, match=error):
                sample_inside_attacks(KEY00, 2, len(draws), None)


def test_attack_params_constraint_violations_are_named(monkeypatch):
    # each violated part of V^dagger V = I, or of V's shape, shows in the message
    _assert_attack_maps_agree(monkeypatch, (
        "short first column", "short second column", "non-orthogonal columns",
        "env_dim 1", "odd row count",
    ))


def test_attack_params_reject_non_finite_fragments(monkeypatch):
    # a nan makes every residual comparison False, so the check is "not <= tol"
    _assert_attack_maps_agree(monkeypatch, ("nan", "inf", "nan in e01"))


def test_sampled_attacks_reject_non_isometries(monkeypatch):
    for env_dim, samples in ((1, 5), (2, 0)):
        with pytest.raises(ValueError, match="need samples >= 1 and env_dim >= 2"):
            sample_inside_attacks(KEY00, env_dim, samples, np.random.default_rng(0))
    _assert_attack_maps_agree(monkeypatch, (
        "isometry", "within tolerance", "at tolerance", "nan", "inf",
    ))


# --------------------------------------------------------------------------
# Outside attack.


def _enumerated_detection(strategy):
    """Exhaustive average over decoy states, attacker bases and outcomes."""
    bases = analysis.DECOY_BASES  # [basis][vector][amplitude]
    comp, diag = bases[0], bases[1]
    prep = [(0, 0), (0, 1), (1, 0), (1, 1)]  # (basis, index) of |0>,|1>,|+>,|->
    total = 0.0
    for pb, pi in prep:
        state = bases[pb][pi]
        eve_bases = (0, 1) if strategy == OutsideStrategy.INTERCEPT_RESEND else (0,)
        for eb in eve_bases:
            for eo in range(2):
                p_eve = abs(np.vdot(bases[eb][eo], state)) ** 2
                resent = bases[eb][eo]
                p_pass = abs(np.vdot(bases[pb][pi], resent)) ** 2
                total += (1.0 / 4.0) * (1.0 / len(eve_bases)) * p_eve * (1 - p_pass)
    return total


def test_single_decoy_detection_matches_enumeration():
    for strategy in OutsideStrategy:
        want = _enumerated_detection(strategy)
        est = outside_attack_sim(1, strategy, trials=200000, seed=5)
        assert abs(est.probability - want) <= 3.0 * est.std_error
        assert_allclose(want, 0.25, atol=1e-12)


def test_analytic_curve():
    assert_allclose(analytic_detection_probability(1), 0.25, atol=1e-15)
    assert_allclose(analytic_detection_probability(10), 1 - 0.75**10,
                    atol=1e-15)
    assert analytic_detection_probability(np.int64(10)) == analytic_detection_probability(10)
    with pytest.raises(ValueError):
        analytic_detection_probability(0)
    with pytest.raises(ValueError, match=r"^n_decoys must be an integer, got 1\.5$"):
        analytic_detection_probability(1.5)


def test_outside_sim_matches_analytic_for_many_decoys():
    est = outside_attack_sim(10, OutsideStrategy.INTERCEPT_RESEND,
                             trials=100000, seed=7)
    want = analytic_detection_probability(10)
    assert abs(est.probability - want) <= 3.0 * est.std_error


def test_outside_sim_determinism():
    a = outside_attack_sim(5, OutsideStrategy.MEASURE_RESEND,
                           trials=5000, seed=9)
    b = outside_attack_sim(5, OutsideStrategy.MEASURE_RESEND,
                           trials=5000, seed=9)
    assert a == b


@pytest.mark.parametrize("decoys, strategy, trials, seed, p_hat, se", [
    (10, OutsideStrategy.INTERCEPT_RESEND, 100_000, 7, 0.94396, 0.000727320551063972),
    (1, OutsideStrategy.MEASURE_RESEND, 200_000, 5, 0.24911, 0.0009670941213242897),
    (3, OutsideStrategy.INTERCEPT_RESEND, 9, 0, 0.4444444444444444, 0.16563466499998442),
])
def test_outside_sim_stream_is_pinned(decoys, strategy, trials, seed, p_hat, se):
    est = outside_attack_sim(decoys, strategy, trials=trials, seed=seed)
    assert (est.probability, est.std_error, est.n_trials) == (p_hat, se, trials)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 65530, 65536, 100001])
def test_outside_sim_code_draw_is_a_byte_top_three_bits(n):
    # outside_attack_sim draws its codes as bytes: same values, same later stream
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    codes = a.integers(8, size=n, dtype=np.uint8)
    assert np.array_equal(np.frombuffer(b.bytes(n), np.uint8) >> 5, codes)
    assert np.array_equal(a.random(9), b.random(9))


def _outside_peak(decoys, trials):
    tracemalloc.start()
    try:
        outside_attack_sim(decoys, OutsideStrategy.INTERCEPT_RESEND, trials=trials, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_outside_sim_peak_does_not_grow_with_trials(monkeypatch):
    monkeypatch.setattr(analysis, "_OUTSIDE_CELLS", 64)
    _outside_peak(10, 10)
    # 1 KB covers interpreter noise; 10^4 trials run 1,500 more chunks than 10^3
    assert _outside_peak(10, 10_000) <= _outside_peak(10, 1_000) + 1024


def test_outside_sim_peak_at_a_million_draws():
    # the --trials x --decoys cap of the CLI rests on this fixed peak
    _outside_peak(10, 10)
    assert _outside_peak(10, 100_000) <= 4 * 2**20


@pytest.mark.parametrize("strategy", list(OutsideStrategy))
@pytest.mark.parametrize("cells, decoys", [
    (64, 10),  # 6 trials per chunk, and 5_001 is not a multiple of 6
    (4, 6),  # one trial per chunk, its decoys in slabs of 4 and 2
])
def test_outside_sim_chunks_match_enumeration(monkeypatch, strategy, cells, decoys):
    monkeypatch.setattr(analysis, "_OUTSIDE_CELLS", cells)
    est = outside_attack_sim(decoys, strategy, trials=5_001, seed=3)
    want = 1.0 - (1.0 - _enumerated_detection(strategy)) ** decoys
    assert est.n_trials == 5_001
    assert abs(est.probability - want) <= 3.0 * est.std_error


def test_outside_sim_rejects_zero_decoys():
    with pytest.raises(ValueError):
        outside_attack_sim(0, OutsideStrategy.INTERCEPT_RESEND,
                           trials=100, seed=0)


@pytest.mark.parametrize("decoys, trials, message", [
    (1.9, 100, "n_decoys must be an integer, got 1.9"),
    (2, 100.5, "trials must be an integer, got 100.5"),
])
def test_outside_sim_rejects_fractional_counts(decoys, trials, message):
    # int() would truncate these to 1 decoy and 100 trials
    with pytest.raises(ValueError) as info:
        outside_attack_sim(decoys, OutsideStrategy.INTERCEPT_RESEND, trials=trials, seed=0)
    assert str(info.value) == message
    est = outside_attack_sim(np.int64(2), OutsideStrategy.INTERCEPT_RESEND,
                             trials=np.int32(100), seed=0)
    assert est.n_trials == 100 and type(est.n_trials) is int


# --------------------------------------------------------------------------
# Discrepancy report.


def test_discrepancy_report_contents():
    entries = discrepancy_report()
    assert len(entries) >= 3
    subjects = " ".join(e.subject for e in entries)
    assert "prefactor" in subjects
    assert "recovery-table" in subjects
    assert "terminal term" in subjects
    for e in entries:
        assert e.residual > 0.0
        assert e.printed and e.computed
