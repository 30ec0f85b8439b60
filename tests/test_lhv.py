import json
import math

import numpy as np
import pytest

from pdcbell import lhv
from pdcbell.bell import CHSH_SIGNS, OPTIMAL_SETTINGS, SIGN_TABLE, ChshSettings
from pdcbell.errors import (
    BoundMismatchError,
    CertificateExtractionError,
    InconsistentSettingsError,
    MalformedTablesError,
)
from pdcbell.lhv import (
    BellCertificate,
    Feasible,
    Infeasible,
    LhvModel,
    N_STRATEGIES,
    chsh_certificate,
    enumerate_strategies,
    lhv_feasible,
    local_bound_by_enumeration,
    synthesize_tables,
    tables_from_json_dict,
    tables_to_json_dict,
    verdict_to_json_dict,
    verify_certificate,
)
from pdcbell.measurement import JointDistribution, PolarizerAngle, joint_distribution
from pdcbell.optics import PairAmplitude, attach_vacuum

SQRT2 = math.sqrt(2.0)


def random_model(rng) -> LhvModel:
    weights = rng.random(N_STRATEGIES)
    return LhvModel(weights / weights.sum())


def test_enumeration_count_and_order():
    strategies = enumerate_strategies()
    assert len(strategies) == 1296
    assert strategies[0].s1 == (1, 1) and strategies[0].s2 == (1, 1)
    assert strategies[-1].s1 == (6, 6) and strategies[-1].s2 == (6, 6)
    assert len({(s.s1, s.s2) for s in strategies}) == 1296


def test_strategy_point_mass_tables():
    strategy = enumerate_strategies()[173]
    for pair in range(4):
        table = strategy.table(pair)
        assert table.sum() == 1.0
        assert set(np.unique(table)) == {0.0, 1.0}
    assert strategy.table(0)[strategy.s1[0] - 1, strategy.s2[0] - 1] == 1.0
    assert strategy.table(3)[strategy.s1[1] - 1, strategy.s2[1] - 1] == 1.0


def test_strategy_cells_follow_enumeration_order():
    # the LP columns, the strategy values and synthesized tables all use the
    # canonical strategy order of enumerate_strategies
    a_cells = lhv._constraint_matrix()
    coefficients = np.random.default_rng(52).normal(size=(4, 6, 6))
    values = lhv._strategy_values(coefficients)
    for k, strategy in enumerate(enumerate_strategies()):
        point = np.stack([strategy.table(pair) for pair in range(4)])
        assert np.array_equal(a_cells[:, k], point.reshape(-1))
        assert values[k] == pytest.approx(float(np.sum(coefficients * point)), abs=1e-12)
    weights = np.zeros(N_STRATEGIES)
    weights[173] = 1.0
    tables = synthesize_tables(LhvModel(weights), OPTIMAL_SETTINGS)
    for pair, table in enumerate(tables):
        assert np.array_equal(table.probs, enumerate_strategies()[173].table(pair))


def test_synthesize_uniform_weights_counting_oracle():
    model = LhvModel(np.full(N_STRATEGIES, 1.0 / N_STRATEGIES))
    tables = synthesize_tables(model, OPTIMAL_SETTINGS)
    # independent counting: accumulate the point masses strategy by strategy
    for pair, table in enumerate(tables):
        brute = np.zeros((6, 6))
        for strategy in enumerate_strategies():
            brute += strategy.table(pair)
        assert np.allclose(table.probs, brute / N_STRATEGIES, atol=1e-12)
        assert np.allclose(table.probs, np.full((6, 6), 1.0 / 36.0), atol=1e-12)


def test_synthesized_tables_are_no_signaling():
    rng = np.random.default_rng(50)
    model = random_model(rng)
    tables = synthesize_tables(model, OPTIMAL_SETTINGS)
    # same xi shares the station-1 marginal, same eta the station-2 marginal
    assert np.allclose(tables[0].probs.sum(axis=1), tables[1].probs.sum(axis=1), atol=1e-12)
    assert np.allclose(tables[2].probs.sum(axis=1), tables[3].probs.sum(axis=1), atol=1e-12)
    assert np.allclose(tables[0].probs.sum(axis=0), tables[2].probs.sum(axis=0), atol=1e-12)
    assert np.allclose(tables[1].probs.sum(axis=0), tables[3].probs.sum(axis=0), atol=1e-12)


def test_round_trip_random_models_feasible():
    rng = np.random.default_rng(51)
    for _ in range(50):
        model = random_model(rng)
        settings = ChshSettings.from_radians(*(rng.random(4) * math.pi))
        verdict = lhv_feasible(synthesize_tables(model, settings))
        assert isinstance(verdict, Feasible)
        assert verdict.reconstruction_error <= 1e-7


def test_point_mass_model_round_trip():
    weights = np.zeros(N_STRATEGIES)
    weights[777] = 1.0
    verdict = lhv_feasible(synthesize_tables(LhvModel(weights), OPTIMAL_SETTINGS))
    assert verdict.feasible


def test_quantum_tables_infeasible(quantum_tables):
    verdict = lhv_feasible(quantum_tables)
    assert isinstance(verdict, Infeasible)
    certificate = verdict.certificate
    assert certificate.gap >= (SQRT2 - 1) / 4
    assert np.abs(certificate.coefficients).max() == pytest.approx(1.0, abs=1e-9)
    report = verify_certificate(certificate, quantum_tables)
    assert report.gap > 0
    assert report.gap == pytest.approx(certificate.gap, abs=1e-9)


def test_duplicated_settings_are_feasible(psi):
    # a single joint distribution is always locally realizable
    xi, eta = PolarizerAngle(0.0), PolarizerAngle(5 * math.pi / 8)
    table = joint_distribution(psi, xi, eta)
    tables = [
        table,
        JointDistribution(xi, eta, table.probs),
        JointDistribution(xi, eta, table.probs),
        JointDistribution(xi, eta, table.probs),
    ]
    verdict = lhv_feasible(tables)
    assert verdict.feasible


def test_malformed_tables_rejected(quantum_tables):
    bad = np.array(quantum_tables[0].probs)
    bad[0, 0] += 0.5
    tampered = [
        _raw_table(quantum_tables[0].xi, quantum_tables[0].eta, bad),
        quantum_tables[1],
        quantum_tables[2],
        quantum_tables[3],
    ]
    with pytest.raises(MalformedTablesError):
        lhv_feasible(tampered)
    with pytest.raises(MalformedTablesError):
        lhv_feasible(quantum_tables[:2])


def _raw_table(xi, eta, probs):
    """Bypass JointDistribution validation to feed lhv_feasible bad data."""
    table = object.__new__(JointDistribution)
    object.__setattr__(table, "_xi", xi)
    object.__setattr__(table, "_eta", eta)
    object.__setattr__(table, "_probs", probs)
    return table


def test_chsh_certificate_bound_and_value(quantum_tables):
    certificate = chsh_certificate(quantum_tables)
    assert certificate.local_bound == pytest.approx(2.0, abs=1e-12)
    assert certificate.quantum_value == pytest.approx(1 + SQRT2, abs=1e-9)
    report = verify_certificate(certificate, quantum_tables)
    assert report.gap == pytest.approx(SQRT2 - 1, abs=1e-9)


def test_certificate_nonpositive_gap_on_local_tables(quantum_tables):
    rng = np.random.default_rng(52)
    certificate = chsh_certificate(quantum_tables)
    for _ in range(10):
        tables = synthesize_tables(random_model(rng), OPTIMAL_SETTINGS)
        report = verify_certificate(certificate, tables)
        assert report.gap <= 1e-12


def test_certificate_bound_mismatch_detected(quantum_tables):
    certificate = chsh_certificate(quantum_tables)
    tampered = BellCertificate(
        certificate.coefficients, local_bound=certificate.local_bound + 1.0,
        quantum_value=certificate.quantum_value,
    )
    with pytest.raises(BoundMismatchError):
        verify_certificate(tampered, quantum_tables)


def test_local_bound_enumeration_matches_chsh_structure():
    signs = np.outer([-1.0, 1, 1, 1, 1, 1], [-1.0, 1, 1, 1, 1, 1])
    coefficients = np.stack([s * signs for s in (1.0, 1.0, 1.0, -1.0)])
    assert local_bound_by_enumeration(coefficients) == pytest.approx(2.0, abs=0)


def test_continuity_probe_mixture_threshold(quantum_tables):
    uniform = np.full((6, 6), 1.0 / 36.0)

    def mixed(eps):
        return [
            JointDistribution(t.xi, t.eta, (1 - eps) * uniform + eps * t.probs)
            for t in quantum_tables
        ]

    assert lhv_feasible(mixed(0.0)).feasible
    assert not lhv_feasible(mixed(1.0)).feasible
    lo, hi = 0.0, 1.0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if lhv_feasible(mixed(mid)).feasible:
            lo = mid
        else:
            hi = mid
    assert 0.0 < lo < hi < 1.0
    # monotone around the threshold
    assert lhv_feasible(mixed(max(lo - 0.05, 0.0))).feasible
    assert not lhv_feasible(mixed(min(hi + 0.05, 1.0))).feasible


def test_verdict_json_shapes(quantum_tables):
    infeasible = verdict_to_json_dict(lhv_feasible(quantum_tables))
    assert infeasible["feasible"] is False
    certificate = infeasible["certificate"]
    assert len(certificate["coefficients"]) == 144
    assert certificate["gap"] > 0

    rng = np.random.default_rng(53)
    tables = synthesize_tables(random_model(rng), OPTIMAL_SETTINGS)
    feasible = verdict_to_json_dict(lhv_feasible(tables))
    assert feasible["feasible"] is True
    assert len(feasible["model"]) == N_STRATEGIES


def test_tables_json_round_trip(quantum_tables):
    data = tables_to_json_dict(quantum_tables)
    back = tables_from_json_dict(data)
    for original, parsed in zip(quantum_tables, back):
        assert np.allclose(original.probs, parsed.probs, atol=0)
    verdict = lhv_feasible(back)
    assert not verdict.feasible


def test_tables_json_writer_rejects_off_pattern_tables(quantum_tables):
    """The writer raises rather than write settings its own reader rejects."""
    swapped = [quantum_tables[0], quantum_tables[2], quantum_tables[1], quantum_tables[3]]
    with pytest.raises(InconsistentSettingsError, match="pattern"):
        tables_to_json_dict(swapped)
    with pytest.raises(InconsistentSettingsError, match="exactly 4"):
        tables_to_json_dict(quantum_tables[:3])


# -- facet step ----------------------------------------------------------------


def reference_a_eq():
    """The phase-one equality matrix, dense, built block by block."""
    n_cells = lhv._constraint_matrix().shape[0]
    a_eq = np.zeros((n_cells + 1, N_STRATEGIES + 2 * n_cells))
    a_eq[:n_cells, :N_STRATEGIES] = lhv._constraint_matrix()
    a_eq[:n_cells, N_STRATEGIES : N_STRATEGIES + n_cells] = np.eye(n_cells)
    a_eq[:n_cells, N_STRATEGIES + n_cells :] = -np.eye(n_cells)
    a_eq[n_cells, :N_STRATEGIES] = 1.0
    return a_eq


def reference_lhv_feasible(tables):
    """LP-only decision: lhv_feasible as it was before the facet step.

    The oracle for every verdict the LP still reaches (all Feasible ones).
    It hands linprog a dense matrix built afresh on every call.
    """
    b_cells = lhv._validate_tables(tables).reshape(-1)
    a_cells = lhv._constraint_matrix()
    n_cells = a_cells.shape[0]

    a_eq = reference_a_eq()
    b_eq = np.concatenate([b_cells, [1.0]])
    cost = np.concatenate([np.zeros(N_STRATEGIES), np.ones(2 * n_cells)])

    result = lhv.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.success, result.message

    weights = np.clip(result.x[:N_STRATEGIES], 0.0, None)
    weights /= weights.sum()
    error = float(np.abs(a_cells @ weights - b_cells).max())
    if error <= lhv.RECONSTRUCTION_TOL:
        return Feasible(LhvModel(weights), error)

    dual = np.asarray(result.eqlin.marginals[:n_cells], dtype=float)
    scale = np.abs(dual).max()
    for candidate in (dual, -dual) if scale > 0.0 else ():
        coefficients = (candidate / scale).reshape(4, 6, 6)
        certificate = BellCertificate(
            coefficients,
            local_bound=local_bound_by_enumeration(coefficients),
            quantum_value=lhv.contract_tables(coefficients, tables),
        )
        if certificate.gap > 0.0:
            return Infeasible(certificate)
    raise CertificateExtractionError("no verifiable separating functional")


def diluted_tables(psi, p_pair):
    state = attach_vacuum(psi, PairAmplitude.from_pair_probability(p_pair))
    return [joint_distribution(state, xi, eta) for xi, eta in OPTIMAL_SETTINGS.setting_pairs()]


@pytest.mark.parametrize("p_pair", [10.0**-k for k in range(1, 9)])
def test_dilution_sweep_infeasible_with_exact_gap(psi, p_pair):
    tables = diluted_tables(psi, p_pair)
    verdict = lhv_feasible(tables)
    assert isinstance(verdict, Infeasible)
    report = verify_certificate(verdict.certificate, tables)
    assert report.recomputed_local_bound == 2.0
    assert report.gap == pytest.approx((SQRT2 - 1) * p_pair, abs=1e-12)


#: The 936 strategies on which the CHSH functional reaches its local bound 2.
CHSH_SATURATING = np.flatnonzero(
    lhv._strategy_values(np.stack([s * SIGN_TABLE for s in CHSH_SIGNS])) == 2.0
)


def facet_saturating_tables(rng, support: int):
    """A random mixture of CHSH-saturating strategies at random settings."""
    weights = np.zeros(N_STRATEGIES)
    weights[rng.choice(CHSH_SATURATING, support, replace=False)] = rng.dirichlet(np.ones(support))
    settings = ChshSettings.from_radians(*rng.uniform(0.0, math.pi, 4))
    return synthesize_tables(LhvModel(weights), settings)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("minus", range(4))
def test_facet_step_finds_every_chsh_relabeling(sign, minus):
    # A PR box on outcomes 1 (value -1) and 2 (value +1) with correlators
    # equal to one relabeling's signs: that relabeling reads 4, every other
    # one at most 2, so its certificate must come back with gap 2.
    pattern = np.array([sign * (-1.0 if k == minus else 1.0) for k in range(4)])
    tables = []
    for (xi, eta), correlator in zip(OPTIMAL_SETTINGS.setting_pairs(), pattern):
        probs = np.zeros((6, 6))
        if correlator > 0:
            probs[0, 0] = probs[1, 1] = 0.5
        else:
            probs[0, 1] = probs[1, 0] = 0.5
        tables.append(JointDistribution(xi, eta, probs))
    verdict = lhv_feasible(tables)
    assert isinstance(verdict, Infeasible)
    expected = pattern[:, None, None] * SIGN_TABLE
    assert np.array_equal(verdict.certificate.coefficients, expected)
    assert (verdict.certificate.local_bound, verdict.certificate.gap) == (2.0, 2.0)


@pytest.mark.parametrize("support", [1, 2, 5, 20, 200])
def test_facet_saturating_local_mixtures_feasible(support):
    assert len(CHSH_SATURATING) == 936
    rng = np.random.default_rng(70 + support)
    for _ in range(4):
        tables = facet_saturating_tables(rng, support)
        assert chsh_certificate(tables).quantum_value == pytest.approx(2.0, abs=1e-12)
        verdict = lhv_feasible(tables)
        assert isinstance(verdict, Feasible)
        assert verdict.reconstruction_error <= 1e-7
        expected = verdict_to_json_dict(reference_lhv_feasible(tables))
        assert json.dumps(verdict_to_json_dict(verdict)) == json.dumps(expected)


def test_facet_rounding_noise_left_to_the_lp():
    # Saturating mixtures whose CHSH value rounds above 2 by a few ulps
    # more than their normalization slack: only the rounding allowance keeps
    # the facet step from calling them nonlocal.
    noisy = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        for support in (3, 7, 30):
            tables = facet_saturating_tables(rng, support)
            stacked = np.stack([t.probs for t in tables])
            slack = np.abs(stacked - stacked / stacked.sum(axis=(1, 2), keepdims=True)).sum()
            if chsh_certificate(tables).gap > slack:
                noisy.append(tables)
    assert len(noisy) >= 5
    for tables in noisy:
        assert isinstance(lhv_feasible(tables), Feasible)


@pytest.mark.parametrize("delta", [1e-8, 5e-8, 1e-7])
def test_local_tables_with_off_sums_left_to_the_lp(delta):
    # Each table scaled by 1 +- delta, the sign chosen to push the CHSH value
    # above 2: the gap this opens never exceeds the normalization slack, so
    # the LP decides, as it did before the facet step.  Up to 5e-8 it finds
    # a model; at 1e-7 its per-cell tolerance rejects some of these tables.
    rng = np.random.default_rng(71)
    for _ in range(8):
        tables = facet_saturating_tables(rng, 16)
        terms = chsh_certificate(tables).coefficients * np.stack([t.probs for t in tables])
        scales = 1.0 + delta * np.where(terms.sum(axis=(1, 2)) >= 0.0, 1.0, -1.0)
        scaled = [JointDistribution(t.xi, t.eta, k * t.probs) for t, k in zip(tables, scales)]
        assert chsh_certificate(scaled).gap > 1e-12
        verdict = lhv_feasible(scaled)
        assert delta > 5e-8 or isinstance(verdict, Feasible)
        expected = verdict_to_json_dict(reference_lhv_feasible(scaled))
        assert json.dumps(verdict_to_json_dict(verdict)) == json.dumps(expected)


def test_feasible_verdict_json_matches_lp_only_oracle():
    rng = np.random.default_rng(72)
    for support in (1, 3, 8, 24, 64, 200, N_STRATEGIES):
        weights = np.zeros(N_STRATEGIES)
        weights[rng.choice(N_STRATEGIES, support, replace=False)] = rng.dirichlet(np.ones(support))
        settings = ChshSettings.from_radians(*rng.uniform(0.0, math.pi, 4))
        tables = synthesize_tables(LhvModel(weights), settings)
        verdict = verdict_to_json_dict(lhv_feasible(tables))
        assert verdict["feasible"] is True
        assert json.dumps(verdict) == json.dumps(verdict_to_json_dict(reference_lhv_feasible(tables)))


def test_phase_one_matrix_is_the_dense_oracle_as_csc():
    from scipy.sparse import csc_array

    matrix = lhv._phase_one_matrix()
    expected = csc_array(reference_a_eq())
    assert matrix.shape == expected.shape == (145, N_STRATEGIES + 2 * 144)
    for name in ("indptr", "indices", "data"):
        part = getattr(matrix, name)
        assert part.dtype == getattr(expected, name).dtype
        assert np.array_equal(part, getattr(expected, name))
        assert not part.flags.writeable


def test_constraint_matrix_is_read_only():
    matrix = lhv._constraint_matrix()
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 2.0
    assert matrix is lhv._constraint_matrix() and matrix[0, 0] == 1.0


def test_lp_reuses_one_sparse_matrix(monkeypatch):
    from scipy.sparse import issparse

    matrices = []
    solve = lhv.linprog

    def recording_linprog(*args, **kwargs):
        matrices.append(kwargs["A_eq"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(lhv, "linprog", recording_linprog)
    rng = np.random.default_rng(73)
    for support in (3, 40):
        weights = np.zeros(N_STRATEGIES)
        weights[rng.choice(N_STRATEGIES, support, replace=False)] = rng.dirichlet(np.ones(support))
        settings = ChshSettings.from_radians(*rng.uniform(0.0, math.pi, 4))
        assert isinstance(lhv_feasible(synthesize_tables(LhvModel(weights), settings)), Feasible)
    assert len(matrices) == 2
    assert matrices[0] is matrices[1] is lhv._phase_one_matrix()
    assert issparse(matrices[0])


def test_diluted_below_the_facet_floor_matches_lp_only_oracle(psi):
    tables = diluted_tables(psi, 1e-12)
    assert lhv._facet_verdict(lhv._validate_tables(tables), tables) is None
    verdict = verdict_to_json_dict(lhv_feasible(tables))
    assert json.dumps(verdict) == json.dumps(verdict_to_json_dict(reference_lhv_feasible(tables)))
