import math

import numpy as np
import pytest

from conftest import states_equal_up_to_phase
from pdcbell.errors import InputError, ModelError
from pdcbell.fock import STATION_LABELS, StateVector, basis_state, inner_product, vacuum
from pdcbell.measurement import PolarizerAngle, joint_distribution
from pdcbell.optics import (
    PairAmplitude,
    apply_beamsplitter,
    apply_waveplate,
    attach_vacuum,
    build_experiment_state,
    source_state,
    split_by_locality,
)

EQ1_AMPLITUDES = {
    (1, 0, 0, 1): 0.5,  # 1x at station 1, 1y at station 2
    (0, 1, 1, 0): -0.5,  # 1y at station 1, 1x at station 2
    (1, 1, 0, 0): 0.5j,  # both photons at station 1
    (0, 0, 1, 1): 0.5j,  # both photons at station 2
}


def test_source_state():
    src = source_state()
    assert src.terms == {(1, 0, 1, 0): 1.0}
    assert src.norm_squared() == pytest.approx(1.0, abs=1e-15)
    assert inner_product(src, vacuum()) == 0


def test_waveplate_rotates_arm_a_to_y():
    rotated = apply_waveplate(source_state(), "a", math.pi / 2)
    assert rotated.terms.get((0, 1, 1, 0), 0j) == pytest.approx(1.0, abs=1e-12)
    assert len(rotated.terms) == 1


@pytest.mark.parametrize(
    "angle, message",
    [("x", "= 'x' is not a number"), (10**5000, "= <int of 16610 bits> is not finite")],
    ids=["string", "huge-int"],
)
def test_waveplate_angle_follows_the_number_rule(angle, message):
    with pytest.raises(InputError, match=f"waveplate angle {message}"):
        apply_waveplate(source_state(), "a", angle)


def test_waveplate_zero_angle_is_identity():
    out = apply_waveplate(source_state(), "a", 0.0)
    assert out == source_state()


def test_waveplate_45_degrees():
    single = basis_state((1, 0, 0, 0))
    out = apply_waveplate(single, "a", math.pi / 4)
    assert out.terms.get((1, 0, 0, 0), 0j) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert out.terms.get((0, 1, 0, 0), 0j) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_waveplate_unknown_arm():
    with pytest.raises(ModelError, match="unknown arm"):
        apply_waveplate(source_state(), "z", math.pi / 2)
    with pytest.raises(ModelError, match="unknown arm"):
        apply_waveplate(build_experiment_state(), "a", math.pi / 2)


def test_beamsplitter_single_photon():
    # arm a reflects into station 1: amplitude i/sqrt(2) there, 1/sqrt(2) at 2
    out = apply_beamsplitter(basis_state((1, 0, 0, 0)))
    assert out.spatial == STATION_LABELS
    assert out.terms.get((1, 0, 0, 0), 0j) == pytest.approx(1j / math.sqrt(2), abs=1e-12)
    assert out.terms.get((0, 0, 1, 0), 0j) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_vacuum():
    out = apply_beamsplitter(vacuum())
    assert out == vacuum(STATION_LABELS)


def test_beamsplitter_rejects_station_frame():
    with pytest.raises(ModelError, match="beamsplitter expects arm labels"):
        apply_beamsplitter(build_experiment_state())


def test_experiment_state_amplitudes():
    state = build_experiment_state()
    assert set(state.terms) == set(EQ1_AMPLITUDES)
    for occ, amp in EQ1_AMPLITUDES.items():
        assert state.terms.get(occ, 0j) == pytest.approx(amp, abs=1e-12)


def test_experiment_state_equals_elementwise_composition():
    composed = apply_beamsplitter(
        apply_waveplate(source_state(), "a", math.pi / 2)
    )
    equal, phase = states_equal_up_to_phase(build_experiment_state(), composed, tol=1e-12)
    assert equal
    assert phase == pytest.approx(0.0, abs=1e-12)


def test_block_weights():
    favorable, unfavorable = split_by_locality(build_experiment_state())
    assert favorable.norm_squared() == pytest.approx(0.5, abs=1e-12)
    assert unfavorable.norm_squared() == pytest.approx(0.5, abs=1e-12)


def test_projections_onto_block_states():
    psi = build_experiment_state()
    singlet = StateVector(
        {(1, 0, 0, 1): 1 / math.sqrt(2), (0, 1, 1, 0): -1 / math.sqrt(2)}, STATION_LABELS
    )
    doubles = StateVector(
        {(1, 1, 0, 0): 1j / math.sqrt(2), (0, 0, 1, 1): 1j / math.sqrt(2)}, STATION_LABELS
    )
    assert inner_product(singlet, psi) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert inner_product(doubles, psi) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert inner_product(singlet, doubles) == 0


def test_favorable_block_is_polarization_antisymmetric():
    favorable, _ = split_by_locality(build_experiment_state())
    swapped = StateVector(
        {(occ[1], occ[0], occ[3], occ[2]): amp for occ, amp in favorable.terms.items()},
        STATION_LABELS,
    )
    equal, phase = states_equal_up_to_phase(favorable, swapped, tol=1e-12)
    assert equal
    assert abs(phase) == pytest.approx(math.pi, abs=1e-12)


def test_attach_vacuum_identity_and_pure_vacuum():
    psi = build_experiment_state()
    assert attach_vacuum(psi, PairAmplitude(0.0, 1.0)) == psi
    pure = attach_vacuum(psi, PairAmplitude(1.0, 0.0))
    assert pure == vacuum(STATION_LABELS)


def test_attach_vacuum_preserves_normalization():
    rng = np.random.default_rng(9)
    psi = build_experiment_state()
    for _ in range(25):
        p = rng.random()
        diluted = attach_vacuum(psi, PairAmplitude.from_pair_probability(p))
        assert diluted.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_attach_vacuum_small_pair_probability():
    psi = build_experiment_state()
    diluted = attach_vacuum(psi, PairAmplitude.from_pair_probability(0.01))
    rng = np.random.default_rng(10)
    for _ in range(5):
        xi, eta = PolarizerAngle(rng.random() * math.pi), PolarizerAngle(rng.random() * math.pi)
        dist = joint_distribution(diluted, xi, eta)
        assert dist.probs[2, 2] == pytest.approx(0.99, abs=1e-12)


def test_pair_amplitude_validation():
    with pytest.raises(InputError):
        PairAmplitude(1.0, 1.0)
    with pytest.raises(InputError):
        PairAmplitude.from_pair_probability(1.5)


@pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), ("a", 1)], ids=["nan", "string"])
def test_pair_amplitude_rejects_non_numbers(alpha, beta):
    with pytest.raises(InputError, match="bad term"):
        PairAmplitude(alpha, beta)
