import cmath
import itertools

import numpy as np
import pytest

from pdcbell.bell import OPTIMAL_SETTINGS
from pdcbell.errors import ModeLabelMismatchError
from pdcbell.fock import PHYSICS_TOL, STATION_LABELS, StateVector
from pdcbell.measurement import joint_distribution
from pdcbell.montecarlo import EventLog
from pdcbell.optics import build_experiment_state

#: Every occupation allowed under the two-photon cap (15 of them).
ALLOWED_OCCUPATIONS = [
    occ for occ in itertools.product(range(3), repeat=4) if sum(occ) <= 2 and max(occ) <= 2
]


def event_log(setting1, setting2, outcome1, outcome2) -> EventLog:
    """An EventLog from its four columns: cell 36 * (2 s1 + s2) + 6 (o1 - 1) + o2 - 1 per bin."""
    s1, s2, o1, o2 = np.stack([setting1, setting2, outcome1, outcome2]).astype(np.int64)
    return EventLog(36 * (2 * s1 + s2) + 6 * (o1 - 1) + o2 - 1)


def random_station_state(rng: np.random.Generator) -> StateVector:
    """A random normalized state over the full allowed occupation support."""
    amps = rng.normal(size=len(ALLOWED_OCCUPATIONS)) + 1j * rng.normal(
        size=len(ALLOWED_OCCUPATIONS)
    )
    return StateVector(dict(zip(ALLOWED_OCCUPATIONS, amps)), STATION_LABELS).normalize()


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-ish random unitary via QR with phase normalization."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def states_equal_up_to_phase(
    s1: StateVector, s2: StateVector, tol: float = PHYSICS_TOL
) -> tuple[bool, float]:
    """Whether s2 == e^{i phi} s1 for a single phase phi; returns (equal, phi)."""
    if s1.spatial != s2.spatial:
        raise ModeLabelMismatchError(f"spatial labels differ: {s1.spatial} vs {s2.spatial}")
    if not s1.terms and not s2.terms:
        return True, 0.0
    if not s1.terms or not s2.terms:
        return False, 0.0
    ref_occ = max(s1.terms, key=lambda occ: abs(s1.terms[occ]))
    ref2 = s2.terms.get(ref_occ, 0j)
    if abs(ref2) <= tol:
        return False, 0.0
    phase = ref2 / s1.terms[ref_occ]
    phase /= abs(phase)
    keys = set(s1.terms) | set(s2.terms)
    for occ in keys:
        if abs(s1.terms.get(occ, 0j) * phase - s2.terms.get(occ, 0j)) > tol:
            return False, cmath.phase(phase)
    return True, cmath.phase(phase)


@pytest.fixture(scope="session")
def psi() -> StateVector:
    return build_experiment_state()


@pytest.fixture(scope="session")
def quantum_tables(psi):
    return [joint_distribution(psi, xi, eta) for xi, eta in OPTIMAL_SETTINGS.setting_pairs()]
