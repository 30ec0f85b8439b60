import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from pdcbell.bell import CHSH_SIGNS, OPTIMAL_SETTINGS, SIGN_TABLE, Behavior
from pdcbell.errors import ModelError
from pdcbell.fock import PHYSICS_TOL, STATION_LABELS, StateVector
from pdcbell.lhv import BellCertificate
from pdcbell.measurement import (
    FAVORABLE_MASK,
    OutcomeClass,
    classify_occupation,
    outcome_occupation,
)
from pdcbell.montecarlo import EventLog
from pdcbell.optics import build_experiment_state

#: Every occupation allowed under the two-photon cap (15 of them).
ALLOWED_OCCUPATIONS = [
    occ for occ in itertools.product(range(3), repeat=4) if sum(occ) <= 2 and max(occ) <= 2
]

# Block structure of the legal outcome pairs for the experiment's states:
# favorable (one photon each side), unfavorable (two photons one side,
# vacuum at the other) and the both-vacuum cell.
UNFAVORABLE_MASK = np.zeros((6, 6), dtype=bool)
UNFAVORABLE_MASK[3:6, 2] = True
UNFAVORABLE_MASK[2, 3:6] = True
VACUUM_MASK = np.zeros((6, 6), dtype=bool)
VACUUM_MASK[2, 2] = True
LEGAL_MASK = FAVORABLE_MASK | UNFAVORABLE_MASK | VACUUM_MASK

N_OUTCOMES = 6


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outcomes per setting: s1 = (at xi, at xi'), s2 = (at eta, at eta')."""

    s1: tuple[int, int]
    s2: tuple[int, int]

    def table(self, pair_index: int) -> np.ndarray:
        """The 0/1 point-mass table this strategy induces for one setting pair."""
        i = self.s1[pair_index // 2]
        j = self.s2[pair_index % 2]
        out = np.zeros((N_OUTCOMES, N_OUTCOMES))
        out[i - 1, j - 1] = 1.0
        return out


def enumerate_strategies() -> list[DeterministicStrategy]:
    """All 1296 strategies in canonical order (lexicographic in s1 then s2)."""
    return [
        DeterministicStrategy((a0, a1), (b0, b1))
        for a0, a1, b0, b1 in itertools.product(range(1, N_OUTCOMES + 1), repeat=4)
    ]


def thinned_table(probs: np.ndarray, eff: float) -> np.ndarray:
    """Independent oracle: binomial thinning of each port of each station."""

    def station_demotions(code):
        n_plus, n_minus = outcome_occupation(code)
        out = {}
        for keep_plus in range(n_plus + 1):
            for keep_minus in range(n_minus + 1):
                weight = (
                    math.comb(n_plus, keep_plus)
                    * eff**keep_plus
                    * (1 - eff) ** (n_plus - keep_plus)
                    * math.comb(n_minus, keep_minus)
                    * eff**keep_minus
                    * (1 - eff) ** (n_minus - keep_minus)
                )
                out_code = classify_occupation(keep_plus, keep_minus)
                out[out_code] = out.get(out_code, 0.0) + weight
        return out

    thinned = np.zeros((6, 6))
    for i in range(1, 7):
        for j in range(1, 7):
            if probs[i - 1, j - 1] == 0.0:
                continue
            for di, wi in station_demotions(i).items():
                for dj, wj in station_demotions(j).items():
                    thinned[di - 1, dj - 1] += probs[i - 1, j - 1] * wi * wj
    return thinned


def sample_cascade(n: int, efficiency: float, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo oracle: detected-class frequencies of a pair in one port with an n-arm cascade.

    For a balanced cascade the bosonic two-photon arm distribution matches
    independent uniform arm choices (the interference terms reproduce the
    classical weights), so each photon takes an arm uniformly and is seen with
    probability ``efficiency``; an arm fires when it sees a photon.  Two arms
    firing read as DOUBLE_PARA, one as SINGLE_PARA and none as NO_PHOTON, so the
    result estimates column DOUBLE_PARA of ``station_response(efficiency, n)``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    arms = rng.integers(0, n, size=(trials, 2))
    detected = rng.random((trials, 2)) < efficiency
    same = arms[:, 0] == arms[:, 1]
    # same arm: one detector, it fires if either photon is seen
    n_fired = np.where(same, detected.any(axis=1), detected.sum(axis=1))
    column = np.zeros(len(OutcomeClass))
    read_as = [OutcomeClass.NO_PHOTON, OutcomeClass.SINGLE_PARA, OutcomeClass.DOUBLE_PARA]
    column[np.array(read_as) - 1] = np.bincount(n_fired, minlength=3) / trials
    return column


def chsh_certificate(tables) -> BellCertificate:
    """The CHSH functional itself, packaged as a certificate against ``tables``."""
    coefficients = np.stack([s * SIGN_TABLE for s in CHSH_SIGNS])
    stacked = np.stack([t.probs for t in tables])
    return BellCertificate(coefficients, float(np.sum(coefficients * stacked)))


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
        raise ModelError(f"spatial labels differ: {s1.spatial} vs {s2.spatial}")
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
    return Behavior.at(psi, OPTIMAL_SETTINGS)
