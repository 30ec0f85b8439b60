"""Station analyzers and the six-outcome joint statistics.

Each station holds a polarizing beamsplitter at some axis angle followed by
two photon-number-resolving detectors on the parallel (D+) and perpendicular
(D-) ports.  A time bin then yields one of six outcome classes per station:

    1: one photon in D-, none in D+        4: one photon in each port
    2: one photon in D+, none in D-        5: two photons in D+
    3: no photons                          6: two photons in D-

Detectors here are ideal; loss, and the cascade realization of number
resolution, enter as the station response of the montecarlo module.
Probabilities below 1e-14 are clamped to zero so the block-structure checks
are exact.  Everything is immutable and pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, ModelError, shown
from .fock import PHYSICS_TOL, ModeId, StateVector, apply_mode_unitary

#: Joint probabilities below this are clamped to exactly zero.
CLAMP_TOL = 1e-14


@dataclass(frozen=True, slots=True)
class PolarizerAngle:
    """Analyzer axis angle in radians, reduced mod pi (an axis is a line).

    The angle passes the number rule (``number``): a bool, a string or any
    other non-number, NaN, inf and an int beyond the float range raise InputError.
    """

    angle: float

    def __post_init__(self) -> None:
        reduced = math.fmod(float(number(self.angle, "analyzer angle")), math.pi)
        if reduced < 0.0:
            reduced += math.pi
        if reduced in (0.0, math.pi):  # -0.0, and a tiny negative angle rounded up to pi
            reduced = 0.0
        object.__setattr__(self, "angle", reduced)


def axis_distance(a: float, b: float) -> float:
    """Distance in radians between two analyzer axes, wrapped mod pi (0 and pi are one axis)."""
    gap = math.fmod(abs(a - b), math.pi)
    return min(gap, math.pi - gap)


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
        raise ModelError(f"occupation ({n_plus}, {n_minus}) outside the two-photon model")
    return _OCCUPATION_TO_OUTCOME[(n_plus, n_minus)]


def outcome_occupation(outcome: OutcomeClass | int) -> tuple[int, int]:
    """Inverse of classify_occupation: (D+ count, D- count) for a class code."""
    return _OUTCOME_TO_OCCUPATION[OutcomeClass(outcome)]


# The favorable outcome pairs, one photon at each station: the block of the
# table that carries the violation.
FAVORABLE_MASK = np.zeros((6, 6), dtype=bool)
FAVORABLE_MASK[0:2, 0:2] = True


@dataclass(frozen=True, slots=True, eq=False)
class JointDistribution:
    """6x6 outcome-pair probabilities for one analyzer setting pair (see ``finite_floats``)."""

    xi: PolarizerAngle
    eta: PolarizerAngle
    probs: np.ndarray

    def __post_init__(self) -> None:
        check_angles(self, "xi", "eta")
        arr = finite_floats(self.probs, "probability table", (6, 6))
        if arr.min() < -PHYSICS_TOL:
            raise InputError(f"negative probability {arr.min()} in table")
        arr[np.abs(arr) < CLAMP_TOL] = 0.0
        with np.errstate(over="ignore"):  # finite cells can sum to inf: an error, not a warning
            total = arr.sum()
        if abs(total - 1.0) > 1e-6:
            raise InputError(f"probability table sums to {total}, not 1")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    def to_json_dict(self) -> dict:
        return {
            "xi_rad": self.xi.angle,
            "eta_rad": self.eta.angle,
            "probs": [float(p) for p in self.probs.reshape(36)],
        }

    @classmethod
    def from_json_dict(cls, data) -> "JointDistribution":
        """Parse one table object: exactly the keys of ``to_json_dict``."""
        data = closed_object(data, "table", ("xi_rad", "eta_rad", "probs"))
        probs = finite_floats(data["probs"], "probs", (36,)).reshape(6, 6)
        xi, eta = (named(key, PolarizerAngle, data[key]) for key in ("xi_rad", "eta_rad"))
        return cls(xi, eta, probs)


@lru_cache(maxsize=32)  # the library states seven intervals
def _interval(interval: str) -> tuple[float, float, bool, bool]:
    """An interval such as "(0, 1]", parsed once: its ends and whether each is open."""
    lo, hi = map(float, interval[1:-1].split(","))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


def number(value, name: str, interval: str = "(-inf, inf)", integer: bool = False):
    """The number rule, the one check of a scalar input: ``value`` as it is, if it is a real
    number (an integer, with ``integer``), finite and in ``interval``, such as "(0, 1]".
    Else InputError "<name> = <value> is not a number" (or "an integer"), "is not finite" or
    "outside <interval>".  A bool or a string is no number; an int beyond the float range
    is not finite."""
    kind = type(value)
    if kind is not int and (kind is not float or integer):  # a plain int or float skips the ABCs
        abc, noun = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
        if kind is bool or not isinstance(value, abc):
            raise InputError(f"{name} = {shown(value)} is not {noun}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise InputError(f"{name} = {shown(value)} is not finite")
    lo, hi, open_lo, open_hi = _interval(interval)
    if x < lo or x > hi or x == lo and open_lo or x == hi and open_hi:
        raise InputError(f"{name} = {shown(value)} outside {interval}")
    return value


def check_angles(value, *fields: str) -> None:
    """Raise InputError naming the first of ``value``'s ``fields`` that is no PolarizerAngle."""
    for name in fields:
        if not isinstance(angle := getattr(value, name), PolarizerAngle):
            raise InputError(f"{name} must be a PolarizerAngle, got {shown(angle)}")


def finite_floats(values, what: str, shape: tuple) -> np.ndarray:
    """A float copy of ``values``, an array of ``shape`` holding finite real numbers, else
    InputError.  An array must hold ints or floats; each entry of a list passes the number
    rule, so a bool there is refused, not read as 0 or 1.  A bad entry is named by its index."""
    if isinstance(values, np.ndarray) and values.dtype.kind not in "iuf":
        raise InputError(f"{what} must be an array of real numbers, not {values.dtype}")
    try:
        arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    except (TypeError, ValueError) as exc:  # nested arrays of clashing shapes
        raise InputError(f"{what} must be an array of numbers: {exc}") from exc
    if arr.shape != shape:
        raise InputError(f"{what} must have shape {shape}, got {arr.shape}")
    if arr.dtype == object or not np.isfinite(arr).all():
        for index, value in zip(np.ndindex(shape), arr.ravel().tolist()):
            number(value, f"{what}{list(index)}")
    return arr.astype(float)


def closed_object(data, what: str, keys: tuple, optional: tuple = ()) -> Mapping:
    """``data`` if it is a JSON object with all ``keys`` and no other key but ``optional``,
    else InputError naming each missing or unknown key: the rule for every object read."""
    if not isinstance(data, Mapping):
        raise InputError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    unknown = sorted(k if isinstance(k, str) else shown(k) for k in data if k not in keys + optional)
    errors = [f"{kind} {what} key(s): {', '.join(names)}"
              for kind, names in (("missing", missing), ("unknown", unknown)) if names]
    if errors:
        raise InputError("; ".join(errors))
    return data


def named(name: str, parse, value):
    """``parse(value)``, its InputError prefixed with ``name``, the key or flag of ``value``."""
    try:
        return parse(value)
    except InputError as exc:
        raise InputError(f"{name}: {exc}") from exc


def rotate_station_basis(state: StateVector, station: str, xi: PolarizerAngle) -> StateVector:
    """Re-express one station's polarization modes in the analyzer frame.

    After the rotation, polarization index 0 is the component parallel to
    the analyzer axis and index 1 the perpendicular one.
    """
    if station not in state.spatial:
        raise ModelError(f"unknown station {station!r}; state labels are {state.spatial}")
    c, s = math.cos(xi.angle), math.sin(xi.angle)
    u = ((c, s), (-s, c))
    return apply_mode_unitary(state, (ModeId(station, 0), ModeId(station, 1)), u)


def joint_distributions(
    state: StateVector, xis: Sequence[PolarizerAngle], etas: Sequence[PolarizerAngle]
) -> list[list[JointDistribution]]:
    """The 6x6 outcome-pair distributions of a normalized station state at every (xi, eta),
    one row per xi: station 1 is rotated once per xi, station 2 once per (xi, eta)."""
    if abs(state.norm_squared() - 1.0) > PHYSICS_TOL:
        raise InputError("joint_distribution expects a normalized state")
    rows = []
    for xi in xis:
        at_xi = rotate_station_basis(state, state.spatial[0], xi)
        rows.append([])
        for eta in etas:
            rotated = rotate_station_basis(at_xi, state.spatial[1], eta)
            probs = np.zeros((6, 6))
            for occ, amp in rotated.terms.items():
                i = classify_occupation(occ[0], occ[1])
                j = classify_occupation(occ[2], occ[3])
                probs[i - 1, j - 1] += abs(amp) ** 2
            rows[-1].append(JointDistribution(xi, eta, probs))
    return rows


def joint_distribution(
    state: StateVector, xi: PolarizerAngle, eta: PolarizerAngle
) -> JointDistribution:
    """Full 6x6 outcome-pair distribution of a normalized station state."""
    return joint_distributions(state, (xi,), (eta,))[0][0]


def marginal(dist: JointDistribution, station: int) -> np.ndarray:
    """Single-station outcome probabilities: row sums (station 1) or column sums (2)."""
    return dist.probs.sum(axis=2 - number(station, "station", "[1, 2]", integer=True))
