import math

import numpy as np
import pytest
from scipy.linalg import expm, logm

from conftest import (
    ALLOWED_OCCUPATIONS,
    random_station_state,
    random_unitary,
    states_equal_up_to_phase,
)
from pdcbell.errors import InputError, ModelError
from pdcbell.fock import (
    ARM_LABELS,
    STATION_LABELS,
    ModeId,
    StateVector,
    apply_mode_unitary,
    basis_state,
    inner_product,
    occupation_key,
    vacuum,
)

SYMMETRIC_BS = ((1 / math.sqrt(2), 1j / math.sqrt(2)), (1j / math.sqrt(2), 1 / math.sqrt(2)))

MODE_A0 = ModeId("a", 0)
MODE_A1 = ModeId("a", 1)


def test_unitary_identity():
    rng = np.random.default_rng(11)
    state = random_station_state(rng)
    out = apply_mode_unitary(state, (ModeId("1", 0), ModeId("1", 1)), np.eye(2))
    equal, _ = states_equal_up_to_phase(state, out, tol=1e-12)
    assert equal


def test_unitary_single_photon_beamsplitter():
    state = basis_state((1, 0, 0, 0))
    out = apply_mode_unitary(state, (MODE_A0, MODE_A1), SYMMETRIC_BS)
    assert out.terms.get((1, 0, 0, 0), 0j) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert out.terms.get((0, 1, 0, 0), 0j) == pytest.approx(1j / math.sqrt(2), abs=1e-12)
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_unitary_two_photon_interference():
    # |2,0> -> 1/2 |2,0> + i/sqrt(2) |1,1> - 1/2 |0,2> under the symmetric 50-50
    state = basis_state((2, 0, 0, 0))
    out = apply_mode_unitary(state, (MODE_A0, MODE_A1), SYMMETRIC_BS)
    assert out.terms.get((2, 0, 0, 0), 0j) == pytest.approx(0.5, abs=1e-12)
    assert out.terms.get((1, 1, 0, 0), 0j) == pytest.approx(1j / math.sqrt(2), abs=1e-12)
    assert out.terms.get((0, 2, 0, 0), 0j) == pytest.approx(-0.5, abs=1e-12)


def test_non_unitary_rejected():
    with pytest.raises(ModelError, match="not unitary"):
        apply_mode_unitary(vacuum(), (MODE_A0, MODE_A1), ((1, 0), (0, 2)))


def _dense_oracle(u: np.ndarray, state: StateVector) -> dict:
    """Independent path: exponentiate the quadratic generator on a dense basis.

    H = -i log(u) gives exp(iG) with G = sum_jk H[j,k] adag_j a_k, whose
    action on creation operators reproduces the mode transformation.
    Restricted to the two 'a' modes; total photon number is conserved so
    the per-mode-2 truncation is exact on the allowed sector.
    """
    dim = 3
    adag = np.diag([math.sqrt(n) for n in range(1, dim)], -1)
    a = adag.T
    ops = [np.kron(adag, np.eye(dim)), np.kron(np.eye(dim), adag)]
    ann = [np.kron(a, np.eye(dim)), np.kron(np.eye(dim), a)]
    h = -1j * logm(np.asarray(u, dtype=complex))
    gen = sum(h[j, k] * ops[j] @ ann[k] for j in range(2) for k in range(2))
    u_fock = expm(1j * gen)
    vec = np.zeros(dim * dim, dtype=complex)
    for occ, amp in state.terms.items():
        assert occ[2] == occ[3] == 0
        vec[occ[0] * dim + occ[1]] = amp
    out = u_fock @ vec
    return {
        (n0, n1, 0, 0): out[n0 * dim + n1]
        for n0 in range(dim)
        for n1 in range(dim)
        if abs(out[n0 * dim + n1]) > 1e-12
    }


def test_unitary_matches_dense_exponential_oracle():
    rng = np.random.default_rng(202)
    two_mode_occupations = [occ for occ in ALLOWED_OCCUPATIONS if occ[2] == occ[3] == 0]
    for _ in range(50):
        u = random_unitary(rng)
        amps = rng.normal(size=len(two_mode_occupations)) + 1j * rng.normal(
            size=len(two_mode_occupations)
        )
        state = StateVector(dict(zip(two_mode_occupations, amps))).normalize()
        ours = apply_mode_unitary(state, (MODE_A0, MODE_A1), u)
        expected = _dense_oracle(u, state)
        for occ in set(expected) | set(dict(ours.terms)):
            assert ours.terms.get(occ, 0j) == pytest.approx(expected.get(occ, 0j), abs=1e-10)


def test_unitarity_norm_preservation_property():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        u = random_unitary(rng)
        state = random_station_state(rng)
        out = apply_mode_unitary(state, (ModeId("1", 0), ModeId("1", 1)), u)
        assert abs(out.norm_squared() - 1.0) <= 1e-12


def test_unitary_composition_property():
    rng = np.random.default_rng(43)
    modes = (ModeId("1", 0), ModeId("2", 1))
    for _ in range(200):
        u, v = random_unitary(rng), random_unitary(rng)
        state = random_station_state(rng)
        stepwise = apply_mode_unitary(apply_mode_unitary(state, modes, u), modes, v)
        combined = apply_mode_unitary(state, modes, v @ u)
        for occ in set(dict(stepwise.terms)) | set(dict(combined.terms)):
            assert stepwise.terms.get(occ, 0j) == pytest.approx(combined.terms.get(occ, 0j), abs=1e-12)


def _eq1_state() -> StateVector:
    return StateVector(
        {
            (1, 0, 0, 1): 0.5,
            (0, 1, 1, 0): -0.5,
            (1, 1, 0, 0): 0.5j,
            (0, 0, 1, 1): 0.5j,
        },
        STATION_LABELS,
    )


def test_inner_product_normalized_four_term_state():
    psi = _eq1_state()
    assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_disjoint_supports():
    unfavorable = StateVector(
        {(1, 1, 0, 0): 1j / math.sqrt(2), (0, 0, 1, 1): 1j / math.sqrt(2)}, STATION_LABELS
    )
    favorable = StateVector(
        {(1, 0, 0, 1): 1 / math.sqrt(2), (0, 1, 1, 0): -1 / math.sqrt(2)}, STATION_LABELS
    )
    assert inner_product(unfavorable, favorable) == 0
    assert inner_product(vacuum(STATION_LABELS), _eq1_state()) == 0


def test_inner_product_conjugate_linear():
    rng = np.random.default_rng(3)
    s1, s2 = random_station_state(rng), random_station_state(rng)
    assert inner_product(s1, s2) == pytest.approx(inner_product(s2, s1).conjugate(), abs=1e-14)


def test_inner_product_label_mismatch():
    with pytest.raises(ModelError, match="different spatial labels"):
        inner_product(vacuum(ARM_LABELS), vacuum(STATION_LABELS))


def test_equal_up_to_phase_reports_phase():
    psi = _eq1_state()
    rotated = psi.scale(complex(math.cos(0.7), math.sin(0.7)))
    equal, phase = states_equal_up_to_phase(psi, rotated, tol=1e-12)
    assert equal
    assert phase == pytest.approx(0.7, abs=1e-12)
    different = psi.add(vacuum(STATION_LABELS).scale(0.1))
    equal, _ = states_equal_up_to_phase(psi, different.normalize())
    assert not equal


def test_sorted_terms_canonical_order():
    psi = _eq1_state()
    keys = [occ for occ, _ in psi.sorted_terms()]
    assert keys == sorted(keys)


def test_occupation_key_grammar():
    assert occupation_key((1, 1, 0, 0)) == "1x1y|0"
    assert occupation_key((0, 1, 1, 0)) == "1y|1x"
    assert occupation_key((0, 0, 0, 0)) == "0|0"
    assert occupation_key((2, 0, 0, 0)) == "2x|0"
    # one key per allowed occupation: the grammar is unambiguous
    assert len({occupation_key(occ) for occ in ALLOWED_OCCUPATIONS}) == len(ALLOWED_OCCUPATIONS)


def test_state_rejects_overflowing_occupations():
    with pytest.raises(ModelError, match="photon cap"):
        StateVector({(2, 1, 0, 0): 1.0})
    with pytest.raises(ModelError, match="photon cap"):
        StateVector({(3, 0, 0, 0): 1.0})


@pytest.mark.parametrize(
    "terms",
    [{(0.5, 0, 0, 1): 1.0}, {(1, 0, 0, 0): math.nan}, {("x", 0, 0, 0): 1.0}],
    ids=["float-occupation", "nan-amplitude", "string-occupation"],
)
def test_state_rejects_bad_occupations_and_amplitudes(terms):
    """An occupation of 0.5 is refused, not truncated to 0; NaN and a string raise InputError."""
    with pytest.raises(InputError, match="bad term"):
        StateVector(terms)
