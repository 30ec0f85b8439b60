"""Station analyzers and the six-outcome joint statistics.

Each station holds a polarizing beamsplitter at some axis angle followed by
two photon-number-resolving detectors on the parallel (D+) and perpendicular
(D-) ports.  A time bin then yields one of six outcome classes per station:

    1: one photon in D-, none in D+        4: one photon in each port
    2: one photon in D+, none in D-        5: two photons in D+
    3: no photons                          6: two photons in D-

Detectors here are ideal; the cascade realization of number resolution and
its failure modes live in the montecarlo module.  Probabilities below 1e-14
are clamped to zero so the block-structure checks are exact.  Everything is
immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping

import numpy as np

from .errors import InputError, OutOfModelError, UnknownModeError
from .fock import PHYSICS_TOL, ModeId, StateVector, apply_mode_unitary

#: Joint probabilities below this are clamped to exactly zero.
CLAMP_TOL = 1e-14


@dataclass(frozen=True)
class PolarizerAngle:
    """Analyzer axis angle in radians, reduced mod pi (an axis is a line)."""

    angle: float

    def __post_init__(self) -> None:
        reduced = math.fmod(float(self.angle), math.pi)
        if reduced < 0.0:
            reduced += math.pi
        object.__setattr__(self, "angle", reduced)

    @classmethod
    def from_degrees(cls, degrees: float) -> "PolarizerAngle":
        return cls(math.radians(degrees))

    def __sub__(self, other: "PolarizerAngle") -> float:
        return self.angle - other.angle


class OutcomeClass(IntEnum):
    """The six detector outcome classes of one station."""

    SINGLE_PERP = 1
    SINGLE_PARA = 2
    NO_PHOTON = 3
    ONE_EACH = 4
    DOUBLE_PARA = 5
    DOUBLE_PERP = 6


_OCCUPATION_TO_OUTCOME: dict[tuple[int, int], OutcomeClass] = {
    (0, 1): OutcomeClass.SINGLE_PERP,
    (1, 0): OutcomeClass.SINGLE_PARA,
    (0, 0): OutcomeClass.NO_PHOTON,
    (1, 1): OutcomeClass.ONE_EACH,
    (2, 0): OutcomeClass.DOUBLE_PARA,
    (0, 2): OutcomeClass.DOUBLE_PERP,
}

_OUTCOME_TO_OCCUPATION = {v: k for k, v in _OCCUPATION_TO_OUTCOME.items()}


def classify_occupation(n_plus: int, n_minus: int) -> OutcomeClass:
    """Outcome class for (D+ count, D- count); at most two photons total."""
    if n_plus < 0 or n_minus < 0 or n_plus + n_minus > 2:
        raise OutOfModelError(f"occupation ({n_plus}, {n_minus}) outside the two-photon model")
    return _OCCUPATION_TO_OUTCOME[(n_plus, n_minus)]


def outcome_occupation(outcome: OutcomeClass | int) -> tuple[int, int]:
    """Inverse of classify_occupation: (D+ count, D- count) for a class code."""
    return _OUTCOME_TO_OCCUPATION[OutcomeClass(outcome)]


# Block structure of the legal outcome pairs for the experiment's states:
# favorable (one photon each side), unfavorable (two photons one side,
# vacuum at the other) and the both-vacuum cell.
FAVORABLE_MASK = np.zeros((6, 6), dtype=bool)
FAVORABLE_MASK[0:2, 0:2] = True
UNFAVORABLE_MASK = np.zeros((6, 6), dtype=bool)
UNFAVORABLE_MASK[3:6, 2] = True
UNFAVORABLE_MASK[2, 3:6] = True
VACUUM_MASK = np.zeros((6, 6), dtype=bool)
VACUUM_MASK[2, 2] = True
LEGAL_MASK = FAVORABLE_MASK | UNFAVORABLE_MASK | VACUUM_MASK


class JointDistribution:
    """6x6 outcome-pair probabilities for one analyzer setting pair."""

    __slots__ = ("_xi", "_eta", "_probs")

    def __init__(self, xi: PolarizerAngle, eta: PolarizerAngle, probs) -> None:
        arr = np.array(probs, dtype=float)
        if arr.shape != (6, 6):
            raise InputError(f"probability table must be 6x6, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InputError("probability table contains NaN or infinite entries")
        if arr.min() < -PHYSICS_TOL:
            raise InputError(f"negative probability {arr.min()} in table")
        arr[np.abs(arr) < CLAMP_TOL] = 0.0
        total = arr.sum()
        if abs(total - 1.0) > 1e-6:
            raise InputError(f"probability table sums to {total}, not 1")
        arr.flags.writeable = False
        object.__setattr__(self, "_xi", xi)
        object.__setattr__(self, "_eta", eta)
        object.__setattr__(self, "_probs", arr)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("JointDistribution is immutable")

    @property
    def xi(self) -> PolarizerAngle:
        return self._xi

    @property
    def eta(self) -> PolarizerAngle:
        return self._eta

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def prob(self, i: int, j: int) -> float:
        """P(i, j) with the 1-based outcome codes."""
        return float(self._probs[i - 1, j - 1])

    def to_json_dict(self) -> dict:
        return {
            "xi_rad": self._xi.angle,
            "eta_rad": self._eta.angle,
            "probs": [float(p) for p in self._probs.reshape(36)],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "JointDistribution":
        try:
            xi = PolarizerAngle(float(data["xi_rad"]))
            eta = PolarizerAngle(float(data["eta_rad"]))
            probs = np.array([float(p) for p in data["probs"]], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed joint-distribution JSON: {exc}") from exc
        if probs.size != 36:
            raise InputError(f"probs must have 36 entries, got {probs.size}")
        return cls(xi, eta, probs.reshape(6, 6))


def rotate_station_basis(state: StateVector, station: str, xi: PolarizerAngle) -> StateVector:
    """Re-express one station's polarization modes in the analyzer frame.

    After the rotation, polarization index 0 is the component parallel to
    the analyzer axis and index 1 the perpendicular one.
    """
    if station not in state.spatial:
        raise UnknownModeError(f"unknown station {station!r}; state labels are {state.spatial}")
    c, s = math.cos(xi.angle), math.sin(xi.angle)
    u = ((c, s), (-s, c))
    return apply_mode_unitary(state, (ModeId(station, 0), ModeId(station, 1)), u)


def joint_distribution(
    state: StateVector, xi: PolarizerAngle, eta: PolarizerAngle
) -> JointDistribution:
    """Full 6x6 outcome-pair distribution of a normalized station state."""
    if abs(state.norm_squared() - 1.0) > PHYSICS_TOL:
        raise InputError("joint_distribution expects a normalized state")
    rotated = rotate_station_basis(state, state.spatial[0], xi)
    rotated = rotate_station_basis(rotated, state.spatial[1], eta)
    probs = np.zeros((6, 6))
    for occ, amp in rotated.terms.items():
        i = classify_occupation(occ[0], occ[1])
        j = classify_occupation(occ[2], occ[3])
        probs[i - 1, j - 1] += abs(amp) ** 2
    return JointDistribution(xi, eta, probs)


def marginal(dist: JointDistribution, station: int) -> np.ndarray:
    """Single-station outcome probabilities: row sums (station 1) or column sums (2)."""
    if station == 1:
        return dist.probs.sum(axis=1)
    if station == 2:
        return dist.probs.sum(axis=0)
    raise InputError(f"station must be 1 or 2, got {station}")
