import math

import numpy as np
import pytest

from conftest import LEGAL_MASK, random_station_state, states_equal_up_to_phase
from pdcbell.errors import InputError, ModelError
from pdcbell.fock import STATION_LABELS, basis_state, vacuum
from pdcbell.measurement import (
    FAVORABLE_MASK,
    JointDistribution,
    OutcomeClass,
    PolarizerAngle,
    classify_occupation,
    joint_distribution,
    marginal,
    outcome_occupation,
    rotate_station_basis,
)
from pdcbell.optics import PairAmplitude, attach_vacuum


def test_polarizer_angle_reduced_mod_pi():
    assert PolarizerAngle(math.pi + 0.3).angle == pytest.approx(0.3, abs=1e-12)
    assert PolarizerAngle(-0.1).angle == pytest.approx(math.pi - 0.1, abs=1e-12)
    assert PolarizerAngle(math.pi).angle == pytest.approx(0.0, abs=1e-12)
    assert PolarizerAngle(math.radians(225.0)).angle == pytest.approx(math.pi / 4, abs=1e-12)
    # -1e-17 + pi rounds to pi, outside [0, pi): it is the axis 0
    assert PolarizerAngle(-1e-17).angle == 0.0
    assert 0.0 <= PolarizerAngle(-1e-300).angle < math.pi
    # fmod keeps the sign of zero; the axis is +0.0 either way
    assert math.copysign(1.0, PolarizerAngle(-0.0).angle) == 1.0


@pytest.mark.parametrize(
    "angle",
    [
        math.nan,
        math.inf,
        -math.inf,
        pytest.param(10**400, id="int-beyond-float"),
        pytest.param(-(10**400), id="negative-int-beyond-float"),
    ],
)
def test_polarizer_angle_rejects_non_finite(angle):
    with pytest.raises(InputError, match="is not finite"):
        PolarizerAngle(angle)


def test_classify_occupation_taxonomy():
    assert classify_occupation(0, 1) == OutcomeClass.SINGLE_PERP == 1
    assert classify_occupation(1, 0) == OutcomeClass.SINGLE_PARA == 2
    assert classify_occupation(0, 0) == OutcomeClass.NO_PHOTON == 3
    assert classify_occupation(1, 1) == OutcomeClass.ONE_EACH == 4
    assert classify_occupation(2, 0) == OutcomeClass.DOUBLE_PARA == 5
    assert classify_occupation(0, 2) == OutcomeClass.DOUBLE_PERP == 6


def test_classify_occupation_out_of_model():
    with pytest.raises(ModelError, match="outside the two-photon model"):
        classify_occupation(2, 1)
    with pytest.raises(ModelError, match="outside the two-photon model"):
        classify_occupation(-1, 0)


def test_outcome_occupation_inverse():
    for code in range(1, 7):
        assert classify_occupation(*outcome_occupation(code)) == code


def test_rotation_zero_is_identity():
    rng = np.random.default_rng(21)
    state = random_station_state(rng)
    out = rotate_station_basis(state, "1", PolarizerAngle(0.0))
    equal, _ = states_equal_up_to_phase(state, out, tol=1e-12)
    assert equal


def test_rotation_by_half_pi_swaps_axes():
    single_x = basis_state((1, 0, 0, 0), STATION_LABELS)
    out = rotate_station_basis(single_x, "1", PolarizerAngle(math.pi / 2))
    assert abs(out.terms.get((0, 1, 0, 0), 0j)) == pytest.approx(1.0, abs=1e-12)
    assert out.terms.get((1, 0, 0, 0), 0j) == pytest.approx(0.0, abs=1e-12)


def test_rotation_two_photon_closed_form():
    # x y -> sin cos sqrt(2)(|2+> - |2->) + cos(2 xi) |1+,1->
    rng = np.random.default_rng(22)
    pair = basis_state((1, 1, 0, 0), STATION_LABELS)
    for _ in range(100):
        xi = rng.random() * math.pi
        out = rotate_station_basis(pair, "1", PolarizerAngle(xi))
        sc = math.sin(xi) * math.cos(xi)
        assert out.terms.get((2, 0, 0, 0), 0j) == pytest.approx(math.sqrt(2) * sc, abs=1e-12)
        assert out.terms.get((0, 2, 0, 0), 0j) == pytest.approx(-math.sqrt(2) * sc, abs=1e-12)
        assert out.terms.get((1, 1, 0, 0), 0j) == pytest.approx(math.cos(2 * xi), abs=1e-12)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_rotation_unknown_station():
    with pytest.raises(ModelError, match="unknown station"):
        rotate_station_basis(vacuum(STATION_LABELS), "a", PolarizerAngle(0.1))


def test_joint_distribution_aligned_settings(psi):
    dist = joint_distribution(psi, PolarizerAngle(0.0), PolarizerAngle(0.0))
    expected = np.zeros((6, 6))
    expected[1, 0] = expected[0, 1] = 0.25  # anti-correlated singlet block
    expected[3, 2] = expected[2, 3] = 0.25  # both photons one side
    assert np.allclose(dist.probs, expected, atol=1e-12)


def test_joint_distribution_pure_vacuum():
    dist = joint_distribution(
        vacuum(STATION_LABELS), PolarizerAngle(0.3), PolarizerAngle(1.1)
    )
    assert dist.probs[2, 2] == 1.0
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_double_photon_station_local_law():
    # P(4) = cos^2(2 xi), P(5) = P(6) = sin^2(2 xi)/2 for the two-photon side
    both_at_one = basis_state((1, 1, 0, 0), STATION_LABELS)
    rng = np.random.default_rng(23)
    angles = [0.0, math.pi / 4] + [rng.random() * math.pi for _ in range(100)]
    for xi in angles:
        dist = joint_distribution(both_at_one, PolarizerAngle(xi), PolarizerAngle(0.0))
        local = marginal(dist, 1)
        assert local[3] == pytest.approx(math.cos(2 * xi) ** 2, abs=1e-9)
        assert local[4] == pytest.approx(math.sin(2 * xi) ** 2 / 2, abs=1e-9)
        assert local[5] == pytest.approx(math.sin(2 * xi) ** 2 / 2, abs=1e-9)
        assert marginal(dist, 2)[2] == pytest.approx(1.0, abs=1e-12)


def test_normalization_over_random_settings(psi):
    rng = np.random.default_rng(24)
    for _ in range(100):
        xi, eta = PolarizerAngle(rng.random() * math.pi), PolarizerAngle(rng.random() * math.pi)
        dist = joint_distribution(psi, xi, eta)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)
        for station in (1, 2):
            assert marginal(dist, station).sum() == pytest.approx(1.0, abs=1e-9)


def test_no_signaling(psi):
    rng = np.random.default_rng(25)
    for _ in range(100):
        xi = PolarizerAngle(rng.random() * math.pi)
        eta_one = PolarizerAngle(rng.random() * math.pi)
        eta_two = PolarizerAngle(rng.random() * math.pi)
        m1 = marginal(joint_distribution(psi, xi, eta_one), 1)
        m2 = marginal(joint_distribution(psi, xi, eta_two), 1)
        assert np.allclose(m1, m2, atol=1e-9)
        n1 = marginal(joint_distribution(psi, eta_one, xi), 2)
        n2 = marginal(joint_distribution(psi, eta_two, xi), 2)
        assert np.allclose(n1, n2, atol=1e-9)


def test_station_one_vacuum_marginal_constant(psi):
    rng = np.random.default_rng(26)
    for _ in range(50):
        xi, eta = PolarizerAngle(rng.random() * math.pi), PolarizerAngle(rng.random() * math.pi)
        assert marginal(joint_distribution(psi, xi, eta), 1)[2] == pytest.approx(0.25, abs=1e-12)


def test_block_structure(psi):
    rng = np.random.default_rng(27)
    diluted = attach_vacuum(psi, PairAmplitude.from_pair_probability(0.37))
    for state in (psi, diluted):
        for _ in range(100):
            xi = PolarizerAngle(rng.random() * math.pi)
            eta = PolarizerAngle(rng.random() * math.pi)
            dist = joint_distribution(state, xi, eta)
            assert np.all(dist.probs[~LEGAL_MASK] == 0.0)


def test_favorable_block_depends_only_on_angle_difference(psi):
    rng = np.random.default_rng(28)
    for _ in range(100):
        xi = rng.random() * math.pi
        eta = rng.random() * math.pi
        shift = rng.random() * math.pi
        base = joint_distribution(psi, PolarizerAngle(xi), PolarizerAngle(eta))
        moved = joint_distribution(psi, PolarizerAngle(xi + shift), PolarizerAngle(eta + shift))
        assert np.allclose(
            base.probs[FAVORABLE_MASK], moved.probs[FAVORABLE_MASK], atol=1e-9
        )


def test_favorable_block_singlet_statistics(psi):
    rng = np.random.default_rng(29)
    for _ in range(100):
        xi, eta = rng.random() * math.pi, rng.random() * math.pi
        dist = joint_distribution(psi, PolarizerAngle(xi), PolarizerAngle(eta))
        delta = xi - eta
        assert dist.probs[0, 0] == pytest.approx(math.sin(delta) ** 2 / 4, abs=1e-9)
        assert dist.probs[1, 1] == pytest.approx(math.sin(delta) ** 2 / 4, abs=1e-9)
        assert dist.probs[0, 1] == pytest.approx(math.cos(delta) ** 2 / 4, abs=1e-9)
        assert dist.probs[1, 0] == pytest.approx(math.cos(delta) ** 2 / 4, abs=1e-9)


def test_pair_amplitude_phase_invariance(psi):
    rng = np.random.default_rng(30)
    reference = attach_vacuum(psi, PairAmplitude.from_pair_probability(0.25))
    for _ in range(20):
        argument = rng.random() * 2 * math.pi
        phase = complex(math.cos(argument), math.sin(argument))
        twisted = attach_vacuum(psi, PairAmplitude(math.sqrt(0.75), math.sqrt(0.25) * phase))
        xi = PolarizerAngle(rng.random() * math.pi)
        eta = PolarizerAngle(rng.random() * math.pi)
        one = joint_distribution(reference, xi, eta)
        two = joint_distribution(twisted, xi, eta)
        assert np.allclose(one.probs, two.probs, atol=1e-12)


def test_marginal_of_vacuum_table():
    dist = joint_distribution(vacuum(STATION_LABELS), PolarizerAngle(0.0), PolarizerAngle(0.0))
    assert np.array_equal(marginal(dist, 1), np.array([0, 0, 1.0, 0, 0, 0]))
    with pytest.raises(InputError):
        marginal(dist, 3)


def test_joint_distribution_requires_normalized_state(psi):
    with pytest.raises(InputError):
        joint_distribution(psi.scale(0.5), PolarizerAngle(0.0), PolarizerAngle(0.0))


def test_table_json_round_trip(psi):
    dist = joint_distribution(psi, PolarizerAngle(0.2), PolarizerAngle(1.4))
    data = dist.to_json_dict()
    assert len(data["probs"]) == 36
    back = JointDistribution.from_json_dict(data)
    assert np.allclose(back.probs, dist.probs, atol=0)
    assert back.xi.angle == dist.xi.angle


def test_table_json_validation():
    with pytest.raises(InputError):
        JointDistribution.from_json_dict({"xi_rad": 0.0, "eta_rad": 0.0, "probs": [1.0] * 35})
    with pytest.raises(InputError):
        JointDistribution.from_json_dict({"xi_rad": 0.0, "probs": [1.0 / 36] * 36})
    bad = [1.0 / 18] * 36
    with pytest.raises(InputError):
        JointDistribution.from_json_dict({"xi_rad": 0.0, "eta_rad": 0.0, "probs": bad})
    with pytest.raises(InputError):
        JointDistribution.from_json_dict({"xi_rad": 10**400, "eta_rad": 0.0, "probs": [1.0 / 36] * 36})
