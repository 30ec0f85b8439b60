import math
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_station_state
from pdcbell.bell import (
    GRID_POINTS,
    Behavior,
    ChshSettings,
    OPTIMAL_SETTINGS,
    OUTCOME_VALUES,
    SIGN_TABLE,
    chsh_decomposition,
    chsh_from_tables,
    chsh_operator_expectation,
    optimize_angles,
    _best_angle,
    _correlator_coefficients,
    _harmonics,
    _value_sign,
)
from pdcbell.errors import InputError
from pdcbell.fock import STATION_LABELS, vacuum
from pdcbell.lhv import LhvModel, N_STRATEGIES, synthesize_tables
from pdcbell.measurement import (
    OutcomeClass,
    PolarizerAngle,
    joint_distribution,
    rotate_station_basis,
)
from pdcbell.optics import PairAmplitude, attach_vacuum, build_experiment_state, split_by_locality

SQRT2 = math.sqrt(2.0)


def diluted_chsh(p_vacuum: float, undiluted: float) -> float:
    """CHSH value after mixing in vacuum bins at probability p_vacuum.

    Vacuum bins contribute +1 to every correlator, so the combination moves
    linearly toward 2; it stays above 2 exactly when the undiluted value is.
    """
    return 2.0 * p_vacuum + (1.0 - p_vacuum) * undiluted


def test_sign_table_is_read_only():
    # -1 for a single perpendicular photon, +1 for every other outcome
    assert OUTCOME_VALUES[OutcomeClass.SINGLE_PERP - 1] == -1.0
    assert sorted(OUTCOME_VALUES) == [-1.0] + [1.0] * 5
    assert np.array_equal(SIGN_TABLE, np.outer(OUTCOME_VALUES, OUTCOME_VALUES))
    with pytest.raises(ValueError):
        SIGN_TABLE[0, 0] = 1.0
    assert SIGN_TABLE[0, 0] == 1.0 and SIGN_TABLE[0, 1] == -1.0


def test_correlator_vacuum_table():
    dist = joint_distribution(vacuum(STATION_LABELS), PolarizerAngle(0.4), PolarizerAngle(1.0))
    assert float(np.sum(SIGN_TABLE * dist.probs)) == pytest.approx(1.0, abs=1e-15)


def test_correlator_equal_settings(psi):
    dist = joint_distribution(psi, PolarizerAngle(0.8), PolarizerAngle(0.8))
    assert float(np.sum(SIGN_TABLE * dist.probs)) == pytest.approx(0.0, abs=1e-12)


def test_correlator_quarter_turn(psi):
    dist = joint_distribution(psi, PolarizerAngle(math.pi / 4), PolarizerAngle(0.0))
    assert float(np.sum(SIGN_TABLE * dist.probs)) == pytest.approx(0.5, abs=1e-12)


def test_correlator_closed_form(psi):
    rng = np.random.default_rng(31)
    for _ in range(100):
        xi, eta = rng.random() * math.pi, rng.random() * math.pi
        dist = joint_distribution(psi, PolarizerAngle(xi), PolarizerAngle(eta))
        value = float(np.sum(SIGN_TABLE * dist.probs))
        assert value == pytest.approx(0.5 - 0.5 * math.cos(2 * (xi - eta)), abs=1e-9)
        assert -1.0 <= value <= 1.0


def test_chsh_equal_settings_is_zero(psi):
    settings = ChshSettings.from_radians(0.3, 0.3, 0.3, 0.3)
    result = chsh_from_tables(Behavior.at(psi, settings))
    assert result.total == pytest.approx(0.0, abs=1e-12)


def test_chsh_optimal_settings(psi, quantum_tables):
    result = chsh_from_tables(quantum_tables)
    assert result.total == pytest.approx(1 + SQRT2, abs=1e-9)
    assert result.favorable_part == pytest.approx(2 * SQRT2, abs=1e-9)
    assert result.unfavorable_part == pytest.approx(2.0, abs=1e-12)
    assert result.favorable_weight == pytest.approx(0.5, abs=1e-12)


def test_chsh_pure_vacuum_tables():
    settings = OPTIMAL_SETTINGS
    result = chsh_from_tables(Behavior.at(vacuum(STATION_LABELS), settings))
    assert result.total == pytest.approx(2.0, abs=1e-12)
    assert result.unfavorable_part == pytest.approx(2.0, abs=1e-12)
    assert result.favorable_part == 0.0


def test_behavior_at_is_the_per_pair_tables(psi):
    settings = ChshSettings.from_radians(0.3, 1.1, 2.0, 2.9)
    behavior = Behavior.at(psi, settings)
    per_pair = [joint_distribution(psi, xi, eta) for xi, eta in settings.setting_pairs()]
    assert behavior.settings == settings and len(behavior) == 4
    for table, probs, expected in zip(behavior, behavior.probs, per_pair, strict=True):
        assert (table.xi, table.eta) == (expected.xi, expected.eta)
        assert table.probs.tobytes() == probs.tobytes() == expected.probs.tobytes()
    assert not behavior.probs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        behavior.probs[0, 0, 0] = 1.0


def test_chsh_inconsistent_settings(psi):
    tables = Behavior.at(psi, OPTIMAL_SETTINGS)
    broken = [tables[0], tables[2], tables[1], tables[3]]
    with pytest.raises(InputError, match="pattern"):
        chsh_from_tables(broken)
    with pytest.raises(InputError, match="exactly 4"):
        chsh_from_tables(tables[:3])


def test_operator_and_table_paths_agree():
    rng = np.random.default_rng(32)
    for _ in range(100):
        state = random_station_state(rng)
        settings = ChshSettings.from_radians(*(rng.random(4) * math.pi))
        by_tables = chsh_from_tables(Behavior.at(state, settings)).total
        by_operators = chsh_operator_expectation(state, settings)
        assert by_operators == pytest.approx(by_tables, abs=1e-12)


def test_operator_expectation_on_block_states(psi):
    favorable, unfavorable = split_by_locality(psi)
    singlet = favorable.normalize()
    doubles = unfavorable.normalize()
    assert chsh_operator_expectation(singlet, OPTIMAL_SETTINGS) == pytest.approx(
        2 * SQRT2, abs=1e-12
    )
    rng = np.random.default_rng(33)
    for _ in range(20):
        settings = ChshSettings.from_radians(*(rng.random(4) * math.pi))
        assert chsh_operator_expectation(doubles, settings) == pytest.approx(2.0, abs=1e-12)


def test_decomposition_at_optimal_settings(psi):
    result = chsh_decomposition(psi, OPTIMAL_SETTINGS)
    assert result.unfavorable_part == pytest.approx(2.0, abs=1e-12)
    assert result.favorable_part == pytest.approx(2 * SQRT2, abs=1e-9)
    assert result.total == pytest.approx(1 + SQRT2, abs=1e-12)


def test_decomposition_at_equal_settings(psi):
    settings = ChshSettings.from_radians(0.5, 0.5, 0.5, 0.5)
    result = chsh_decomposition(psi, settings)
    assert result.unfavorable_part == pytest.approx(2.0, abs=1e-12)
    assert result.favorable_part == pytest.approx(-2.0, abs=1e-12)
    assert result.total == pytest.approx(0.0, abs=1e-12)


def test_decomposition_identity_random_settings(psi):
    rng = np.random.default_rng(34)
    for _ in range(100):
        settings = ChshSettings.from_radians(*(rng.random(4) * math.pi))
        result = chsh_decomposition(psi, settings)
        assert result.unfavorable_part == pytest.approx(2.0, abs=1e-12)
        assert result.total == pytest.approx(
            0.5 * result.unfavorable_part + 0.5 * result.favorable_part, abs=1e-12
        )


def test_decomposition_of_diluted_state(psi):
    half = attach_vacuum(psi, PairAmplitude.from_pair_probability(0.5))
    result = chsh_decomposition(half, OPTIMAL_SETTINGS)
    assert result.total == pytest.approx(0.5 * 2 + 0.5 * (1 + SQRT2), abs=1e-12)
    assert result.favorable_part == pytest.approx(2 * SQRT2, abs=1e-9)
    assert result.unfavorable_part == pytest.approx(2.0, abs=1e-12)
    # table path gives the same split
    by_tables = chsh_from_tables(Behavior.at(half, OPTIMAL_SETTINGS))
    assert by_tables.total == pytest.approx(result.total, abs=1e-12)
    assert by_tables.favorable_part == pytest.approx(result.favorable_part, abs=1e-9)


def test_diluted_chsh_endpoints():
    assert diluted_chsh(0.0, 1 + SQRT2) == 1 + SQRT2
    assert diluted_chsh(1.0, 1 + SQRT2) == 2.0
    assert diluted_chsh(0.99, 1 + SQRT2) == pytest.approx(2 + 0.01 * (SQRT2 - 1), abs=1e-12)


def test_dilution_preserves_violation_exactly():
    rng = np.random.default_rng(35)
    for _ in range(200):
        p = rng.random() * 0.999
        undiluted = 4.0 * rng.random() - 2.0 + 2.0 * rng.integers(0, 2)
        assert (diluted_chsh(p, undiluted) > 2.0) == (undiluted > 2.0)


def test_lhv_tables_respect_local_bound():
    rng = np.random.default_rng(36)
    for _ in range(20):
        weights = rng.random(N_STRATEGIES)
        model = LhvModel(weights / weights.sum())
        settings = ChshSettings.from_radians(*(rng.random(4) * math.pi))
        tables = synthesize_tables(model, settings)
        assert abs(chsh_from_tables(tables).total) <= 2.0 + 1e-9


def test_chsh_serialization(psi):
    result = chsh_decomposition(psi, OPTIMAL_SETTINGS)
    data = result.to_json_dict()
    assert set(data) == {
        "total",
        "favorable_part",
        "unfavorable_part",
        "correlators",
        "settings_rad",
    }
    assert len(data["correlators"]) == 4
    assert data["total"] == pytest.approx(1 + SQRT2, abs=1e-12)


def fock_correlator_grid(state, grid_points=72):
    """E(xi, eta) on the pi/grid_points grid, one Fock-space rotation per point."""
    grid = np.arange(grid_points) * (math.pi / grid_points)
    e_grid = np.empty((grid_points, grid_points))
    for i, x in enumerate(grid):
        rot1 = rotate_station_basis(state, state.spatial[0], PolarizerAngle(x))
        for j, e in enumerate(grid):
            rot = rotate_station_basis(rot1, state.spatial[1], PolarizerAngle(e))
            value = 0.0
            for occ, amp in rot.terms.items():
                value += _value_sign(occ) * abs(amp) ** 2
            e_grid[i, j] = value
    return e_grid


def _oracle_cases():
    psi = build_experiment_state()
    favorable, unfavorable = split_by_locality(psi)
    rng = np.random.default_rng(38)
    cases = [
        ("psi", psi),
        ("psi-p0.01", attach_vacuum(psi, PairAmplitude.from_pair_probability(0.01))),
        ("singlet", favorable.normalize()),
        ("unfavorable", unfavorable.normalize()),
        ("vacuum", vacuum(STATION_LABELS)),
    ]
    cases += [(f"random-{k}", random_station_state(rng)) for k in range(3)]
    # Two states of a seed-5 draw on which the seesaw climbs a ridge for more
    # than 50 sweeps before it stops gaining.
    ridge_rng = np.random.default_rng(5)
    ridge = [random_station_state(ridge_rng) for _ in range(44)]
    cases += [(f"ridge-{k}", ridge[k]) for k in (12, 43)]
    return [pytest.param(state, id=name) for name, state in cases]


@pytest.mark.parametrize("state", _oracle_cases())
def test_harmonic_grid_matches_fock_grid(state):
    grid = np.arange(72) * (math.pi / 72)
    basis = _harmonics(grid)
    closed_form = basis @ _correlator_coefficients(state) @ basis.T
    assert np.abs(closed_form - fock_correlator_grid(state)).max() <= 1e-13


def test_optimize_angles_experiment_state(psi):
    settings, value = optimize_angles(psi)
    assert settings == OPTIMAL_SETTINGS
    assert value == pytest.approx(1 + SQRT2, abs=1e-12)
    check = chsh_from_tables(Behavior.at(psi, settings)).total
    assert check == value


@pytest.mark.parametrize("p_pair", [0.01, 1e-6])
def test_optimize_angles_diluted_state(psi, p_pair):
    state = attach_vacuum(psi, PairAmplitude.from_pair_probability(p_pair))
    settings, value = optimize_angles(state)
    assert settings == OPTIMAL_SETTINGS
    assert value == pytest.approx(diluted_chsh(1.0 - p_pair, 1 + SQRT2), abs=1e-12)


@pytest.mark.parametrize("state", [c for c in _oracle_cases() if c.id.startswith("random")])
def test_refinement_finds_the_optimum_between_grid_points(state):
    coeffs = _correlator_coefficients(state)

    def chsh_poly(angles):
        b_xi, b_xip, b_eta, b_etap = _harmonics(angles)
        return float(b_xi @ coeffs @ (b_eta + b_etap) + b_xip @ coeffs @ (b_eta - b_etap))

    basis = _harmonics(np.arange(GRID_POINTS) * (math.pi / GRID_POINTS))
    e_grid = basis @ coeffs @ basis.T
    pair_best = (e_grid[:, None, :] + e_grid[None, :, :]).max(axis=2) + (
        e_grid[:, None, :] - e_grid[None, :, :]
    ).max(axis=2)
    settings, value = optimize_angles(state)
    assert value > pair_best.max() + 1e-5
    assert value == chsh_from_tables(Behavior.at(state, settings)).total
    angles = settings.as_radians()
    for k in range(4):
        for step in (-1e-4, 1e-4):
            moved = list(angles)
            moved[k] += step
            assert chsh_poly(moved) <= chsh_poly(angles) + 1e-9


def test_optimize_angles_singlet(psi):
    favorable, _ = split_by_locality(psi)
    _, value = optimize_angles(favorable.normalize())
    assert value == pytest.approx(2 * SQRT2, abs=1e-6)


def test_optimize_angles_vacuum():
    settings, value = optimize_angles(vacuum(STATION_LABELS))
    assert value == 2.0
    assert settings.as_radians() == (0.0, 0.0, 0.0, 0.0)


@cache
def _dense_harmonics() -> np.ndarray:
    """b(t) on 2*10^5 equally spaced angles of one period [0, pi)."""
    return _harmonics(np.arange(200_000) * (math.pi / 200_000))


_HARMONIC_COEFFICIENT = st.just(0.0) | st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    direction=st.tuples(*[_HARMONIC_COEFFICIENT] * 5),
    scale=st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300]),
)
@example(direction=(0.0, 0.0, 0.0, 0.0, 0.0), scale=1.0)
@example(direction=(0.7, 0.0, 0.0, 0.0, 0.0), scale=1.0)
@example(direction=(0.0, 1.0, 0.0, 0.0, 0.0), scale=1.0)
@example(direction=(0.0, 0.0, -1.0, 0.0, 0.0), scale=1.0)
@example(direction=(0.0, 0.0, 0.0, -1.0, 0.0), scale=1.0)
@example(direction=(0.0, 0.0, 0.0, 0.0, 1.0), scale=1.0)
@example(direction=(0.3, -0.6, 0.2, 0.5, -0.4), scale=1e-300)
@example(direction=(0.3, -0.6, 0.2, 0.5, -0.4), scale=1e300)
# a 4t part so far below the 2t part that the quartic's eigenvalues drown, or its companion's
# first row would overflow after division by the leading coefficient
@example(direction=(0.0, 0.0, 1.0, 0.0, 1.3544904463534418e-255), scale=1e-8)
@example(direction=(0.0, 1.0, 0.3, 5e-324, 0.0), scale=1e300)
def test_best_angle_is_the_exact_maximum_of_one_harmonic_form(direction, scale):
    v = np.array(direction) * scale
    t = _best_angle(v)
    best = float(_harmonics(t) @ v)
    sampled = float((_dense_harmonics() @ v).max())
    # where v is subnormal, b(t) @ v is rounded to units of the smallest subnormal, not relatively
    assert best >= sampled - 1e-12 * float(np.abs(v).max()) - 10 * math.ulp(0.0)
    if not np.any(v[1:]):
        assert t == 0.0


@pytest.mark.parametrize("state", _oracle_cases())
def test_no_single_angle_gains_at_the_returned_settings(state):
    """Each angle's exact best response, the other three held, gains at most 1e-12."""
    coeffs = _correlator_coefficients(state)
    chosen, _ = optimize_angles(state)
    b_xi, b_xip, b_eta, b_etap = _harmonics(chosen.as_radians())
    forms = (
        coeffs @ (b_eta + b_etap),
        coeffs @ (b_eta - b_etap),
        coeffs.T @ (b_xi + b_xip),
        coeffs.T @ (b_xi - b_xip),
    )
    for angle, v in zip(chosen.as_radians(), forms):
        gain = float(_harmonics(_best_angle(v)) @ v) - float(_harmonics(angle) @ v)
        assert gain <= 1e-12
