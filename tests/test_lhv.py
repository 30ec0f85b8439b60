import functools
import json
import math
import warnings

import numpy as np
import pytest
from conftest import (
    VACUUM_MASK,
    cglmp_box,
    chsh_certificate,
    enumerate_strategies,
    outcome_swapped,
    outcome_swapped_chsh,
    thinned_table,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from pdcbell import lhv
from pdcbell.bell import (
    CHSH_SIGNS,
    OPTIMAL_SETTINGS,
    SIGN_TABLE,
    Behavior,
    ChshSettings,
    chsh_from_tables,
)
from pdcbell.errors import InputError, ModelError
from pdcbell.lhv import (
    BellCertificate,
    Feasible,
    Infeasible,
    LhvModel,
    N_STRATEGIES,
    lhv_feasible,
    local_bound_by_enumeration,
    synthesize_tables,
    tables_from_json_dict,
    tables_to_json_dict,
    verdict_to_json_dict,
    verify_certificate,
)
from pdcbell.measurement import JointDistribution, PolarizerAngle, joint_distribution
from pdcbell.montecarlo import station_response
from pdcbell.optics import PairAmplitude, attach_vacuum

SQRT2 = math.sqrt(2.0)


def random_model(rng) -> LhvModel:
    weights = rng.random(N_STRATEGIES)
    return LhvModel(weights / weights.sum())


def stacked_probs(tables) -> np.ndarray:
    return np.stack([t.probs for t in tables])


@functools.lru_cache(maxsize=1)
def dense_cells() -> np.ndarray:
    """Read-only (144, 1296) indicator matrix, each column a strategy's four point-mass tables.

    Built from DeterministicStrategy.table, independently of lhv's cell table.
    """
    points = [np.stack([s.table(pair) for pair in range(4)]) for s in enumerate_strategies()]
    matrix = np.stack(points, axis=-1).reshape(144, N_STRATEGIES)
    matrix.flags.writeable = False
    return matrix


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
    cells = lhv._strategy_cells()
    coefficients = np.random.default_rng(52).normal(size=(4, 6, 6))
    values = lhv._strategy_values(coefficients)
    for k, strategy in enumerate(enumerate_strategies()):
        point = np.stack([strategy.table(pair) for pair in range(4)])
        assert np.array_equal(cells[:, k], np.flatnonzero(point))
        assert values[k] == pytest.approx(float(np.sum(coefficients * point)), abs=1e-12)
    weights = np.zeros(N_STRATEGIES)
    weights[173] = 1.0
    tables = synthesize_tables(LhvModel(weights), OPTIMAL_SETTINGS)
    for pair, table in enumerate(tables):
        assert np.array_equal(table.probs, enumerate_strategies()[173].table(pair))


def test_cell_probs_is_the_dense_indicator_product():
    dense = dense_cells()
    for k in range(N_STRATEGIES):
        assert np.array_equal(lhv._cell_probs(np.eye(1, N_STRATEGIES, k)[0]), dense[:, k])
    rng = np.random.default_rng(55)
    for _ in range(20):
        weights = random_model(rng).weights
        assert np.allclose(lhv._cell_probs(weights), dense @ weights, rtol=0.0, atol=1e-15)


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
    # A table checks its own sign and sum when it is built; lhv_feasible
    # checks only that four of them share the CHSH pattern.
    first = quantum_tables[0]
    zero = tuple(np.argwhere(first.probs == 0.0)[0])

    def tampered(cell, value):
        probs = np.array(first.probs)
        probs[cell] += value
        return JointDistribution(first.xi, first.eta, probs)

    for cell, value in ((zero, -1e-8), ((0, 0), 0.5)):
        with pytest.raises(InputError):
            tampered(cell, value)
    slightly_negative = [tampered(zero, -1e-10), *quantum_tables[1:]]
    assert slightly_negative[0].probs[zero] == -1e-10
    assert isinstance(lhv_feasible(slightly_negative), Infeasible)
    with pytest.raises(InputError, match="exactly 4"):
        lhv_feasible(quantum_tables[:2])


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


def test_local_bound_enumeration_matches_chsh_structure():
    signs = np.outer([-1.0, 1, 1, 1, 1, 1], [-1.0, 1, 1, 1, 1, 1])
    coefficients = np.stack([s * signs for s in (1.0, 1.0, 1.0, -1.0)])
    assert local_bound_by_enumeration(coefficients) == pytest.approx(2.0, abs=0)


def test_enumeration_of_a_non_array_raises_input_error():
    with pytest.raises(InputError, match=r"coefficients must have shape \(4, 6, 6\), got \(\)"):
        local_bound_by_enumeration("x")


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_certificate_whose_strategy_sums_overflow_raises_input_error_without_a_warning(sign):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="local bound of the coefficients is -?inf"):
            BellCertificate(np.full((4, 6, 6), sign * 1e308), 1.0)


def test_certificate_enumerates_its_local_bound():
    coefficients = np.random.default_rng(54).normal(size=(4, 6, 6))
    certificate = BellCertificate(coefficients, 1.0)
    brute = max(
        sum(float(np.sum(coefficients[pair] * strategy.table(pair))) for pair in range(4))
        for strategy in enumerate_strategies()
    )
    assert certificate.local_bound == pytest.approx(brute, abs=1e-12)
    assert certificate.gap == 1.0 - certificate.local_bound


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
    with pytest.raises(InputError, match="pattern"):
        tables_to_json_dict(swapped)
    with pytest.raises(InputError, match="exactly 4"):
        tables_to_json_dict(quantum_tables[:3])


@pytest.mark.parametrize(
    "consumer", ["lhv_feasible", "chsh_from_tables", "verify_certificate", "tables_to_json_dict"]
)
def test_every_table_consumer_checks_its_input_as_a_behavior(psi, quantum_tables, consumer):
    """Each function that takes a Behavior takes any iterable of four tables on its pattern,
    and refuses three tables, four off the pattern and an entry that is no table."""
    certificate = chsh_certificate(quantum_tables)
    call = {
        "lhv_feasible": lhv_feasible,
        "chsh_from_tables": chsh_from_tables,
        "verify_certificate": functools.partial(verify_certificate, certificate),
        "tables_to_json_dict": tables_to_json_dict,
    }[consumer]
    call(table for table in quantum_tables)
    off = [*quantum_tables[:3], joint_distribution(psi, PolarizerAngle(1.0), PolarizerAngle(0.3))]
    for tables, message in (
        (quantum_tables[:3], "need exactly 4 tables, got 3"),
        (off, "pattern"),
        ([{}] * 4, r"table 0 must be a JointDistribution, got \{\}"),
        ([*quantum_tables[:2], np.eye(6) / 6, None], "table 2 must be a JointDistribution"),
        (None, "need 4 tables, got None"),
    ):
        with pytest.raises(InputError, match=message):
            call(tables)


def test_off_pattern_tables_get_no_verdict(psi, quantum_tables):
    """The polytope assumes the CHSH pattern, so tables off it are refused, not decided."""
    last = joint_distribution(psi, PolarizerAngle(1.0), PolarizerAngle(0.3))
    off = [*quantum_tables[:3], last]
    with pytest.raises(InputError, match="pattern"):
        lhv_feasible(off)
    data = {"tables": [t.to_json_dict() for t in off]}
    with pytest.raises(InputError, match="pattern"):
        lhv_feasible(tables_from_json_dict(data))
    with pytest.raises(InputError, match="pattern"):
        tables_from_json_dict(dict(data, settings_rad=list(OPTIMAL_SETTINGS.as_radians())))


# -- facet step ----------------------------------------------------------------


def reference_a_eq():
    """The phase-one equality matrix, dense, built block by block."""
    n_cells = dense_cells().shape[0]
    a_eq = np.zeros((n_cells + 1, N_STRATEGIES + 2 * n_cells))
    a_eq[:n_cells, :N_STRATEGIES] = dense_cells()
    a_eq[:n_cells, N_STRATEGIES : N_STRATEGIES + n_cells] = np.eye(n_cells)
    a_eq[:n_cells, N_STRATEGIES + n_cells :] = -np.eye(n_cells)
    a_eq[n_cells, :N_STRATEGIES] = 1.0
    return a_eq


def reference_lhv_feasible(tables):
    """LP-only decision: a phase-one linprog over all strategies and cells.

    The independent oracle for verdict flags.  It hands linprog a dense
    matrix built from enumerate_strategies, and the tables clipped and
    renormalized, as a strategy mixture is.  Its reconstruction error is
    lhv's.  At p_pair 1e-6 and below its 1e-7 tolerance calls nonlocal
    tables local, which lhv's facet step and liftings do not.
    """
    stacked = np.clip(stacked_probs(tables), 0.0, None)
    b_cells = (stacked / stacked.sum(axis=(1, 2), keepdims=True)).reshape(-1)
    n_cells = len(b_cells)

    a_eq = reference_a_eq()
    b_eq = np.concatenate([b_cells, [1.0]])
    cost = np.concatenate([np.zeros(N_STRATEGIES), np.ones(2 * n_cells)])

    result = lhv.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.success, result.message

    weights = np.clip(result.x[:N_STRATEGIES], 0.0, None)
    weights /= weights.sum()
    error = float(np.abs(lhv._cell_probs(weights) - b_cells).max())
    if error <= lhv.RECONSTRUCTION_TOL:
        return Feasible(LhvModel(weights), error)

    dual = np.asarray(result.eqlin.marginals[:n_cells], dtype=float)
    scale = np.abs(dual).max()
    for candidate in (dual, -dual) if scale > 0.0 else ():
        coefficients = (candidate / scale).reshape(4, 6, 6)
        value = float(np.sum(coefficients * stacked_probs(tables)))
        certificate = BellCertificate(coefficients, value)
        if certificate.gap > 0.0:
            return Infeasible(certificate)
    raise ModelError("no verifiable separating functional")


def supported_strategies(tables) -> np.ndarray:
    """The strategies whose four cells are all non-zero in the clipped, renormalized tables.

    Picked through DeterministicStrategy.table, independently of lhv's cell table.
    """
    stacked = np.clip(stacked_probs(tables), 0.0, None)
    normalized = stacked / stacked.sum(axis=(1, 2), keepdims=True)
    return np.array(
        [
            k
            for k, strategy in enumerate(enumerate_strategies())
            if all(normalized[pair][strategy.table(pair) == 1.0].item() > 0.0 for pair in range(4))
        ],
        dtype=int,
    )


def reference_pruned_lhv_feasible(tables):
    """An exact NNLS fit over the supported strategies, else reference_lhv_feasible.

    The oracle for lhv_feasible's supported fit.  It fits [cells; 1] w = [b; 1],
    w >= 0, through lhv.nnls on the rows of the non-zero cells and the sum
    row and the columns of the supported strategies, selected densely from
    reference_a_eq, and accepts the fit at lhv's rounding-level tolerance.
    It falls back to the unpruned oracle when every strategy is supported,
    none is, or the fit misses the tables.
    """
    supported = supported_strategies(tables)
    if 0 < len(supported) < N_STRATEGIES:
        stacked = np.clip(stacked_probs(tables), 0.0, None)
        b_cells = (stacked / stacked.sum(axis=(1, 2), keepdims=True)).reshape(-1)
        rows = np.flatnonzero(b_cells)
        a = reference_a_eq()[np.append(rows, len(b_cells))][:, supported]
        x, _ = lhv.nnls(a, np.append(b_cells[rows], 1.0))
        weights = np.zeros(N_STRATEGIES)
        weights[supported] = x
        weights /= weights.sum()
        error = float(np.abs(lhv._cell_probs(weights) - b_cells).max())
        if error <= lhv._EXACT_FIT_TOL:
            return Feasible(LhvModel(weights), error)
    return reference_lhv_feasible(tables)


def assert_matches_pruned_oracle(verdict, tables):
    """Byte-identical verdict JSON to the pruned oracle, and the unpruned oracle's flag."""
    expected = verdict_to_json_dict(reference_pruned_lhv_feasible(tables))
    assert json.dumps(verdict_to_json_dict(verdict)) == json.dumps(expected)
    assert verdict.feasible == reference_lhv_feasible(tables).feasible


def test_lp_certifies_tables_the_facet_step_passes_on(quantum_tables):
    # Station-1 outcomes 1 and 2 swapped in both xi tables: the paper's CHSH
    # drops to 1, so none of its eight relabelings settles them, yet they
    # stay nonlocal.  The facet step's best CHSH lifting, the paper's
    # grouping with those two outcomes regrouped at xi, settles them before
    # any fit, with the LP oracle's flag.
    swapped = outcome_swapped(quantum_tables)
    assert chsh_certificate(swapped).quantum_value == pytest.approx(1.0, abs=1e-12)
    facet = lhv._facet_verdict(stacked_probs(swapped))
    assert isinstance(facet, Infeasible)
    verdict = lhv_feasible(swapped)
    assert isinstance(verdict, Infeasible)
    certificate = verdict.certificate
    assert np.array_equal(certificate.coefficients, facet.certificate.coefficients)
    assert np.array_equal(certificate.coefficients, outcome_swapped_chsh())
    assert certificate.local_bound == 2.0
    assert certificate.gap == pytest.approx(SQRT2 - 1, abs=1e-12)
    check = verify_certificate(certificate, swapped)
    assert check.local_bound == certificate.local_bound
    assert check.quantum_value == certificate.quantum_value
    assert verdict.feasible == reference_lhv_feasible(swapped).feasible


def diluted_tables(psi, p_pair):
    state = attach_vacuum(psi, PairAmplitude.from_pair_probability(p_pair))
    return [joint_distribution(state, xi, eta) for xi, eta in OPTIMAL_SETTINGS.setting_pairs()]


@pytest.mark.parametrize("p_pair", [1e-5, 3e-6, 2e-6, 1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 2e-13])
def test_swapped_diluted_tables_keep_their_gap(psi, p_pair):
    # The outcome-swapped tables, diluted: nonlocal with gap (sqrt 2 - 1) p_pair
    # at every p_pair, which the best CHSH lifting finds, down to the facet
    # floor.  From 2e-6 down the fit over all strategies misses every cell by
    # less than RECONSTRUCTION_TOL, and at 1e-11 the supported fit misses by
    # less than its rounding-level tolerance, so only the lifting running
    # first keeps these Infeasible.  At 2e-13 CLAMP_TOL has zeroed 8 of the
    # 38 non-zero cells, so the gap is no longer (sqrt 2 - 1) p_pair.
    tables = outcome_swapped(diluted_tables(psi, p_pair))
    verdict = lhv_feasible(tables)
    assert isinstance(verdict, Infeasible)
    report = verify_certificate(verdict.certificate, tables)
    assert report.local_bound == 2.0
    if p_pair == 2e-13:
        assert report.gap > 0.0
        return
    assert report.gap == pytest.approx((SQRT2 - 1) * p_pair, abs=1e-14)
    if p_pair >= 1e-6:
        assert report.gap / p_pair == pytest.approx(SQRT2 - 1, abs=1e-9)


@pytest.mark.parametrize("p_pair", [10.0**-k for k in range(1, 9)])
def test_dilution_sweep_infeasible_with_exact_gap(psi, p_pair):
    tables = diluted_tables(psi, p_pair)
    verdict = lhv_feasible(tables)
    assert isinstance(verdict, Infeasible)
    report = verify_certificate(verdict.certificate, tables)
    assert report.local_bound == 2.0
    assert report.gap == pytest.approx((SQRT2 - 1) * p_pair, abs=1e-12)
    # Ties in the lifting search keep the paper's grouping.
    paper = np.stack([s * SIGN_TABLE for s in CHSH_SIGNS])
    assert np.array_equal(verdict.certificate.coefficients, paper)


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
    # equal to one relabeling's signs: that relabeling reads 4, and every
    # lifting at most 4, so the best lifting agrees with it on the occupied
    # outcomes and comes back with gap 2.  Only its zero cells may differ.
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
    assert np.array_equal(verdict.certificate.coefficients[:, :2, :2], expected[:, :2, :2])
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
        assert_matches_pruned_oracle(verdict, tables)


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
    # the LP decides, as it did before the facet step.  It fits the
    # renormalized tables, so it finds a model at every delta.
    rng = np.random.default_rng(71)
    for _ in range(8):
        tables = facet_saturating_tables(rng, 16)
        terms = chsh_certificate(tables).coefficients * np.stack([t.probs for t in tables])
        scales = 1.0 + delta * np.where(terms.sum(axis=(1, 2)) >= 0.0, 1.0, -1.0)
        scaled = [JointDistribution(t.xi, t.eta, k * t.probs) for t, k in zip(tables, scales)]
        assert chsh_certificate(scaled).gap > 1e-12
        verdict = lhv_feasible(scaled)
        assert isinstance(verdict, Feasible)
        assert_matches_pruned_oracle(verdict, scaled)


def test_local_tables_with_a_negative_cell_left_to_the_fit():
    # A table admits cells down to -PHYSICS_TOL.  Moving 1e-10 out of a zero
    # cell into another cell of a facet-saturating mixture keeps every sum
    # at 1 and lifts the paper's CHSH by 2e-10: only the negative cell, in
    # the facet step's slack, keeps these tables from a certificate.
    tables = facet_saturating_tables(np.random.default_rng(74), 8)
    probs = np.array(tables[0].probs)
    probs[tuple(np.argwhere((probs == 0.0) & (SIGN_TABLE < 0.0))[0])] -= 1e-10
    probs[tuple(np.argwhere((probs > 0.0) & (SIGN_TABLE > 0.0))[0])] += 1e-10
    tampered = [JointDistribution(tables[0].xi, tables[0].eta, probs), *tables[1:]]
    assert chsh_certificate(tampered).gap == pytest.approx(2e-10, rel=1e-3)
    assert lhv._facet_verdict(stacked_probs(tampered)) is None
    assert lhv_feasible(tampered).feasible


def rebuild_error(verdict, tables) -> float:
    """The largest per-cell miss of ``tables`` by the tables the verdict's model synthesizes."""
    rebuilt = synthesize_tables(verdict.model, Behavior.of(tables).settings)
    return max(float(np.abs(a.probs - b.probs).max()) for a, b in zip(rebuilt, tables))


def test_feasible_verdict_json_matches_lp_only_oracle():
    rng = np.random.default_rng(72)
    for support in (1, 3, 8, 24, 64, 200, N_STRATEGIES):
        weights = np.zeros(N_STRATEGIES)
        weights[rng.choice(N_STRATEGIES, support, replace=False)] = rng.dirichlet(np.ones(support))
        settings = ChshSettings.from_radians(*rng.uniform(0.0, math.pi, 4))
        tables = synthesize_tables(LhvModel(weights), settings)
        verdict = lhv_feasible(tables)
        assert verdict.feasible is True
        if len(supported_strategies(tables)) < N_STRATEGIES:
            assert_matches_pruned_oracle(verdict, tables)
            continue
        # Every cell is non-zero (at support 200 already), so nothing is
        # pruned and the fit over all strategies decides, with the LP
        # oracle's flag.
        assert reference_lhv_feasible(tables).feasible is True
        assert verdict.reconstruction_error <= lhv.RECONSTRUCTION_TOL
        assert rebuild_error(verdict, tables) <= lhv.RECONSTRUCTION_TOL
    assert len(supported_strategies(tables)) == N_STRATEGIES


def recorded_matrices(monkeypatch) -> list:
    """(solver, matrix) of every nnls and linprog call lhv_feasible makes from now on."""
    calls = []
    fit, full = lhv.nnls, lhv.linprog

    def recording_nnls(*args, **kwargs):
        calls.append(("nnls", args[0]))
        return fit(*args, **kwargs)

    def recording_linprog(*args, **kwargs):
        calls.append(("linprog", kwargs["A_eq"]))
        return full(*args, **kwargs)

    monkeypatch.setattr(lhv, "nnls", recording_nnls)
    monkeypatch.setattr(lhv, "linprog", recording_linprog)
    return calls


def kept_rows(tables) -> np.ndarray:
    """The non-zero cells of the clipped, renormalized tables: the supported fit's rows."""
    stacked = np.clip(stacked_probs(tables), 0.0, None)
    return np.flatnonzero(stacked / stacked.sum(axis=(1, 2), keepdims=True))


def test_solver_sequence_and_dense_matrices(monkeypatch, quantum_tables):
    calls = recorded_matrices(monkeypatch)
    rng = np.random.default_rng(73)
    cases = []
    for support in (3, 40, N_STRATEGIES):
        weights = np.zeros(N_STRATEGIES)
        weights[rng.choice(N_STRATEGIES, support, replace=False)] = rng.dirichlet(np.ones(support))
        settings = ChshSettings.from_radians(*rng.uniform(0.0, math.pi, 4))
        cases.append((synthesize_tables(LhvModel(weights), settings), Feasible))
    cases.append((outcome_swapped(quantum_tables), Infeasible))
    # Signalling point masses: xi's outcome is 1 beside eta and 2 beside eta',
    # so no strategy is supported and nothing is fitted: CHSH reads 2, but a
    # lifting that groups xi's outcomes 1 and 2 apart reads 4.
    cells = [(0, 0), (1, 1), (0, 0), (0, 0)]
    signalling = [
        JointDistribution(xi, eta, np.eye(36)[6 * i + j].reshape(6, 6))
        for (xi, eta), (i, j) in zip(OPTIMAL_SETTINGS.setting_pairs(), cells)
    ]
    cases.append((signalling, Infeasible))
    expected = []
    for tables, verdict_type in cases:
        assert isinstance(lhv_feasible(tables), verdict_type)
        if verdict_type is Infeasible:
            continue
        supported = supported_strategies(tables)
        if 0 < len(supported) < N_STRATEGIES:
            expected.append(("nnls", supported, kept_rows(tables)))
        if len(supported) == N_STRATEGIES:
            expected.append(("nnls", np.arange(N_STRATEGIES), np.arange(144)))
    # supported fit, supported fit, full fit (every strategy supported); a
    # lifting settles the swapped and the signalling tables before any fit
    solvers = ["nnls", "nnls", "nnls"]
    assert [solver for solver, _ in calls] == [solver for solver, _, _ in expected] == solvers
    dense = reference_a_eq()
    for (_, matrix), (_, strategies, rows) in zip(calls, expected):
        assert isinstance(matrix, np.ndarray)
        assert np.array_equal(matrix, dense[np.append(rows, 144)][:, strategies])


def test_box_no_lifting_separates_gets_the_full_fits_residual(monkeypatch):
    # The CGLMP box (Collins et al., Phys. Rev. Lett. 88, 040404 (2002)) at
    # 45 % white noise is nonlocal, yet no CHSH lifting exceeds 2 on it: the
    # supported fit misses, and the fit over all strategies and cells gives
    # its residual as the certificate.  At 50 % it is local.
    tables = cglmp_box(0.45)
    stacked = stacked_probs(tables)
    assert lhv._certificate(lhv._best_lifting(stacked), stacked).gap <= 1e-12
    calls = recorded_matrices(monkeypatch)
    verdict = lhv_feasible(tables)
    assert isinstance(verdict, Infeasible)
    assert [(solver, matrix.shape) for solver, matrix in calls] == [
        ("nnls", (36 + 1, 81)),
        ("nnls", (144 + 1, N_STRATEGIES)),
    ]
    report = verify_certificate(verdict.certificate, tables)
    assert report.gap == verdict.certificate.gap > 0.0
    assert np.abs(verdict.certificate.coefficients).max() == 1.0
    assert reference_lhv_feasible(tables).feasible is False
    local = cglmp_box(0.5)
    assert lhv_feasible(local).feasible is reference_lhv_feasible(local).feasible is True


def test_supported_strategy_counts_of_the_paper_tables(monkeypatch, psi, quantum_tables):
    lossy = [JointDistribution(t.xi, t.eta, thinned_table(t.probs, 0.85)) for t in quantum_tables]
    assert len(supported_strategies(quantum_tables)) == 27
    assert len(supported_strategies(diluted_tables(psi, 0.01))) == 37
    assert len(supported_strategies(lossy)) == 119
    # The facet step settles the optimal tables diluted to p_pair 1e-12 with
    # no fit.  At 1e-13, below its floor (CLAMP_TOL has zeroed 16 of their 38
    # non-zero cells), and under loss, the tables pass it and are fitted
    # exactly by NNLS alone, over their supported strategies, on their
    # non-zero cells and the sum row.
    calls = recorded_matrices(monkeypatch)
    assert isinstance(lhv_feasible(diluted_tables(psi, 1e-12)), Infeasible)
    assert lhv_feasible(diluted_tables(psi, 1e-13)).feasible
    assert lhv_feasible(lossy).feasible
    assert [solver for solver, _ in calls] == ["nnls", "nnls"]
    assert [matrix.shape for _, matrix in calls] == [(22 + 1, 9), (54 + 1, 119)]


# -- the NNLS solver -------------------------------------------------------------


def fit_problem(b_cells: np.ndarray, supported: bool) -> tuple[np.ndarray, np.ndarray]:
    """The [cells; 1] matrix and [b; 1] target of lhv's supported fit (the full one when no
    strategy has all four cells non-zero) or of its full fit, selected from reference_a_eq."""
    strategies = np.flatnonzero(dense_cells()[b_cells > 0].sum(axis=0) == 4)
    rows = np.flatnonzero(b_cells)
    if not (supported and strategies.size):
        strategies, rows = np.arange(N_STRATEGIES), np.arange(len(b_cells))
    a = reference_a_eq()[np.append(rows, len(b_cells))][:, strategies]
    return a, np.append(b_cells[rows], 1.0)


def nnls_target(kind: str, support: int, seed: int) -> np.ndarray:
    """144 cell values: a random mixture of ``support`` strategies, a dense mixture, the CGLMP
    box at 45 % noise, or random non-negative numbers (a third of them zero)."""
    rng = np.random.default_rng(seed)
    if kind == "cglmp":
        return stacked_probs(cglmp_box(0.45)).reshape(-1)
    if kind == "random":
        return rng.random(144) * (rng.random(144) < 2 / 3)
    weights = np.zeros(N_STRATEGIES)
    picked = rng.choice(N_STRATEGIES, N_STRATEGIES if kind == "dense" else support, replace=False)
    weights[picked] = rng.dirichlet(np.ones(len(picked)))
    return dense_cells() @ weights


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["mixture", "dense", "cglmp", "random"]),
    support=st.integers(1, 150),
    supported=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="cglmp", support=1, supported=False, seed=0)
@example(kind="dense", support=1, supported=False, seed=3)
@example(kind="mixture", support=150, supported=True, seed=5)
def test_nnls_matches_scipy_and_meets_the_kkt_conditions(kind, support, supported, seed):
    # scipy's compiled Lawson-Hanson solver is the reference; only the tests use it.
    a, b = fit_problem(nnls_target(kind, support, seed), supported)
    x, rnorm = lhv.nnls(a, b)
    _, reference_rnorm = scipy_nnls(a, b)
    assert x.shape == (a.shape[1],) and x.min() >= 0.0
    scale = 1e-12 * np.linalg.norm(b)
    assert abs(rnorm - np.linalg.norm(b - a @ x)) <= scale
    assert abs(rnorm - reference_rnorm) <= scale
    tol = max(a.shape) * np.finfo(float).eps * np.abs(a).sum(axis=0).max()
    gradient = a.T @ (b - a @ x)
    assert (gradient[x == 0.0] <= tol).all()
    assert (np.abs(gradient[x > 0.0]) <= tol).all()


def test_full_fit_at_its_iteration_limit_raises_model_error(monkeypatch):
    # The supported fit runs, and misses the CGLMP box; the full fit then stops.
    fit = lhv.nnls

    def stopped_full_fit(a, b):
        if a.shape[1] == N_STRATEGIES:
            raise RuntimeError("NNLS reached its iteration limit")
        return fit(a, b)

    monkeypatch.setattr(lhv, "nnls", stopped_full_fit)
    with pytest.raises(ModelError, match="NNLS over all strategies stopped at its iteration limit"):
        lhv_feasible(cglmp_box(0.45))


def pruning_case(psi, quantum_tables, kind: str, support: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "mixture":
        weights = np.zeros(N_STRATEGIES)
        weights[rng.choice(N_STRATEGIES, support, replace=False)] = rng.dirichlet(np.ones(support))
        settings = ChshSettings.from_radians(*rng.uniform(0.0, math.pi, 4))
        return synthesize_tables(LhvModel(weights), settings)
    if kind == "diluted":
        return diluted_tables(psi, 1e-13)
    if kind == "lossy":
        return [JointDistribution(t.xi, t.eta, thinned_table(t.probs, 0.85)) for t in quantum_tables]
    return outcome_swapped(quantum_tables)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(("mixture", "diluted", "lossy", "swapped")),
    support=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_lp_agrees_with_the_unpruned_oracle(psi, quantum_tables, kind, support, seed):
    tables = pruning_case(psi, quantum_tables, kind, support, seed)
    verdict = lhv_feasible(tables)
    oracle = reference_lhv_feasible(tables)
    assert verdict.feasible == oracle.feasible
    if not verdict.feasible:
        report = verify_certificate(verdict.certificate, tables)
        assert report.gap == verdict.certificate.gap > 0.0
        assert report.gap >= oracle.certificate.gap - 1e-12
        return
    assert rebuild_error(verdict, tables) <= lhv.RECONSTRUCTION_TOL
    pruned = np.setdiff1d(np.arange(N_STRATEGIES), supported_strategies(tables))
    assert not verdict.model.weights[pruned].any()


def test_diluted_below_the_facet_floor_matches_lp_only_oracle(psi):
    # The facet step certifies the optimal tables diluted to p_pair 1e-12.
    # At 1e-13 CLAMP_TOL has zeroed 16 of their 38 non-zero cells, no lifting
    # clears the slack, and the supported fit finds a model of what is left.
    assert isinstance(lhv._facet_verdict(stacked_probs(diluted_tables(psi, 1e-12))), Infeasible)
    tables = diluted_tables(psi, 1e-13)
    assert lhv._facet_verdict(stacked_probs(tables)) is None
    verdict = lhv_feasible(tables)
    assert isinstance(verdict, Feasible)
    assert_matches_pruned_oracle(verdict, tables)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(support=st.integers(1, 59), on_facet=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_diluted_local_mixtures_are_never_certified(support, on_facet, seed):
    # Vacuum is a deterministic strategy, so a local mixture diluted with it
    # stays local at every p_pair.  Where CLAMP_TOL zeroes its smallest cells
    # the lost mass shows up as off-sums, which the facet step's slack
    # counts.  On the CHSH facet only the rounding bound stands between the
    # lifting's gap and that slack.
    rng = np.random.default_rng(seed)
    pool = CHSH_SATURATING if on_facet else np.arange(N_STRATEGIES)
    weights = np.zeros(N_STRATEGIES)
    weights[rng.choice(pool, support, replace=False)] = rng.dirichlet(np.ones(support))
    settings = ChshSettings.from_radians(*rng.uniform(0.0, math.pi, 4))
    tables = synthesize_tables(LhvModel(weights), settings)
    for p_pair in (1.0, 1e-3, 1e-8, 1e-12, 3e-13, 1e-13, 1e-14):
        diluted = [
            JointDistribution(t.xi, t.eta, p_pair * t.probs + (1.0 - p_pair) * VACUUM_MASK)
            for t in tables
        ]
        assert lhv._facet_verdict(stacked_probs(diluted)) is None


def relabelled(tables, permutations, swap):
    """``tables`` with each station's outcomes permuted per setting, then maybe the stations swapped.

    ``permutations`` holds the new order of the outcomes at xi, xi', eta and
    eta'.  The swap transposes every table and exchanges the settings, so the
    pair order becomes 0, 2, 1, 3.  Neither maps a local table set to a
    nonlocal one or back.
    """
    xi_order, eta_order = permutations[:2], permutations[2:]
    permuted = [
        JointDistribution(t.xi, t.eta, t.probs[np.ix_(xi_order[pair // 2], eta_order[pair % 2])])
        for pair, t in enumerate(tables)
    ]
    if not swap:
        return permuted
    return [JointDistribution(t.eta, t.xi, t.probs.T) for t in (permuted[k] for k in (0, 2, 1, 3))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p_pair=st.sampled_from((1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 2e-13)),
    permutations=st.lists(st.permutations(range(6)), min_size=4, max_size=4),
    swap=st.booleans(),
)
@example(p_pair=1e-12, permutations=[[1, 0, 2, 3, 4, 5]] * 4, swap=True)
@example(p_pair=2e-13, permutations=[[5, 4, 3, 2, 1, 0], *[list(range(6))] * 3], swap=False)
def test_relabelled_optimal_tables_keep_their_gap(psi, quantum_tables, p_pair, permutations, swap):
    # Relabelling maps the local polytope onto itself, so the verdict and
    # the enumerated gap (sqrt 2 - 1) p_pair stay.  The best CHSH lifting,
    # whose maximum no relabelling changes, certifies them before any fit:
    # the fit over all strategies would come within RECONSTRUCTION_TOL of
    # them from p_pair 1e-6 down, and at 1e-11 the supported fit within its
    # rounding-level tolerance.  At 2e-13 CLAMP_TOL has zeroed 8 of the 38
    # non-zero cells, so the gap is no longer (sqrt 2 - 1) p_pair.
    tables = quantum_tables if p_pair == 1.0 else diluted_tables(psi, p_pair)
    tables = relabelled(tables, permutations, swap)
    verdict = lhv_feasible(tables)
    assert isinstance(verdict, Infeasible)
    report = verify_certificate(verdict.certificate, tables)
    assert report.local_bound == verdict.certificate.local_bound
    if p_pair == 2e-13:
        assert report.gap > 0.0
    else:
        tol = 1e-14 if p_pair == 1e-12 else 1e-12
        assert report.gap == pytest.approx((SQRT2 - 1) * p_pair, abs=tol)


def lossy_tables(tables, eff: float) -> list[JointDistribution]:
    """Each table P through station_response(eff) at both stations: R P R^T."""
    response = station_response(eff)
    return [JointDistribution(t.xi, t.eta, response @ t.probs @ response.T) for t in tables]


@pytest.mark.parametrize("eff", [0.5, 0.9, 0.95])
def test_chsh_under_loss_in_closed_form(quantum_tables, eff):
    """At OPTIMAL_SETTINGS a bin with exactly one photon lost adds nothing to CHSH, so it reads
    eta^2 (1 + sqrt 2) + 2 (1 - eta)^2."""
    value = chsh_from_tables(lossy_tables(quantum_tables, eff)).total
    assert value == pytest.approx(eff**2 * (1 + SQRT2) + 2 * (1 - eff) ** 2, abs=1e-14)


def test_lhv_verdict_flips_at_the_closed_form_detection_threshold(quantum_tables):
    """CHSH(eta) = 2 at eta* = 4 / (3 + sqrt 2), where its slope is exactly 4."""
    eta_star = 4 / (3 + SQRT2)
    above = lhv_feasible(lossy_tables(quantum_tables, eta_star + 1e-6))
    assert not above.feasible
    assert above.certificate.gap == pytest.approx(4e-6, rel=1e-4)
    assert lhv_feasible(lossy_tables(quantum_tables, eta_star - 1e-6)).feasible
