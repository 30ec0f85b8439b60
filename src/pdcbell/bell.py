"""The modified CHSH functional over the six-outcome statistics.

The outcome values are fixed and the same at both stations: -1 for a single
photon in the perpendicular port (outcome 1), +1 for every other outcome,
the unfavorable two-photon outcomes and the empty bin included
(OUTCOME_VALUES).  The correlator of a setting pair is the expectation of
the value product (SIGN_TABLE), vacuum bins contribute +1, and the CHSH
combination E(xi,eta) + E(xi,eta') + E(xi',eta) - E(xi',eta') is bounded
by 2 for every local hidden variable model while the full experiment state
reaches 1 + sqrt(2).

Two independent computation paths are provided on purpose: from joint
probability tables (chsh_from_tables) and from operator expectations taken
directly in Fock space (chsh_operator_expectation).  They must agree to
1e-12, which the test suite checks.

Pure functions throughout.  The angle optimizer exploits the harmonic
structure of the correlator: under the two-photon cap each outcome
amplitude at a station is a polynomial of degree at most 2 in the cosine
and sine of that station's analyzer angle, so every correlator is a
trigonometric polynomial with harmonics {0, 2, 4} in each angle,
E(xi, eta) = b(xi)^T C b(eta) with b(x) = (1, cos 2x, sin 2x, cos 4x,
sin 4x).  Twenty-five Fock-space samples fix the 5x5 matrix C, and the
whole search runs on that polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, shown
from .fock import PHYSICS_TOL, StateVector, inner_product
from .measurement import (
    FAVORABLE_MASK,
    JointDistribution,
    PolarizerAngle,
    axis_distance,
    check_angles,
    classify_occupation,
    joint_distribution,
    named,
    rotate_station_basis,
)
from .optics import split_by_locality

#: Signs of the four setting pairs (xi,eta), (xi,eta'), (xi',eta), (xi',eta').
CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)

#: Weight below which a favorable/unfavorable part is reported as 0 rather
#: than divided out.
_EMPTY_BLOCK_TOL = 1e-12

#: Value of outcome code k at either station, at index k - 1.
OUTCOME_VALUES = (-1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

#: Value product of the outcome pair (i, j) at [i - 1, j - 1]; read-only.
SIGN_TABLE = np.outer(OUTCOME_VALUES, OUTCOME_VALUES)
SIGN_TABLE.flags.writeable = False


@dataclass(frozen=True)
class ChshSettings:
    """The four analyzer angles (xi, xi', eta, eta')."""

    xi: PolarizerAngle
    xi_prime: PolarizerAngle
    eta: PolarizerAngle
    eta_prime: PolarizerAngle

    def __post_init__(self) -> None:
        check_angles(self, "xi", "xi_prime", "eta", "eta_prime")

    @classmethod
    def from_radians(cls, xi: float, xi_prime: float, eta: float, eta_prime: float) -> "ChshSettings":
        return cls(*map(PolarizerAngle, (xi, xi_prime, eta, eta_prime)))

    @classmethod
    def parse(cls, values, name: str, angle: Callable = PolarizerAngle) -> "ChshSettings":
        """The one reader of four angles: ``angle`` of each of ``values``, a JSON array of
        radians or the fields of ``--settings``.  InputError names ``name``, the key or flag."""
        if not isinstance(values, (list, tuple)) or len(values) != 4:
            raise InputError(f"{name} must list 4 angles, got {shown(values)}")
        return cls(*(named(name, angle, value) for value in values))

    @classmethod
    def from_tables(cls, tables: Sequence[JointDistribution]) -> "ChshSettings":
        """The angles of four tables in ``setting_pairs`` order.

        Raises InputError unless there are exactly four tables sharing the
        (xi,eta), (xi,eta'), (xi',eta), (xi',eta') pattern.
        """
        if len(tables) != 4:
            raise InputError(f"need exactly 4 tables, got {len(tables)}")
        t = tables
        checks = (
            axis_distance(t[0].xi.angle, t[1].xi.angle),
            axis_distance(t[2].xi.angle, t[3].xi.angle),
            axis_distance(t[0].eta.angle, t[2].eta.angle),
            axis_distance(t[1].eta.angle, t[3].eta.angle),
        )
        if max(checks) > 1e-12:
            raise InputError(
                "tables do not share the (xi,eta), (xi,eta'), (xi',eta), (xi',eta') pattern"
            )
        return cls(t[0].xi, t[2].xi, t[0].eta, t[1].eta)

    def setting_pairs(self) -> tuple[tuple[PolarizerAngle, PolarizerAngle], ...]:
        """The four (station-1, station-2) angle pairs in CHSH order."""
        return (
            (self.xi, self.eta),
            (self.xi, self.eta_prime),
            (self.xi_prime, self.eta),
            (self.xi_prime, self.eta_prime),
        )

    def as_radians(self) -> tuple[float, float, float, float]:
        return (self.xi.angle, self.xi_prime.angle, self.eta.angle, self.eta_prime.angle)


#: Angles at which the experiment state attains its maximal CHSH value.
#: Any rigid rotation of these works equally well; the value is what matters.
OPTIMAL_SETTINGS = ChshSettings.from_radians(0.0, math.pi / 4, 5 * math.pi / 8, 3 * math.pi / 8)


@dataclass(frozen=True)
class ChshResult:
    """A CHSH evaluation split into favorable and unfavorable contributions.

    The parts are the CHSH combinations restricted to each block and
    renormalized by the block weight, so for the undiluted experiment state
    total = (unfavorable_part + favorable_part) / 2.
    """

    favorable_part: float
    unfavorable_part: float
    correlators: tuple[float, float, float, float]
    settings: ChshSettings
    favorable_weight: float

    @property
    def total(self) -> float:
        return float(sum(s * e for s, e in zip(CHSH_SIGNS, self.correlators)))

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "favorable_part": self.favorable_part,
            "unfavorable_part": self.unfavorable_part,
            "correlators": list(self.correlators),
            "settings_rad": list(self.settings.as_radians()),
        }


def chsh_from_tables(tables: Sequence[JointDistribution]) -> ChshResult:
    """CHSH value and block decomposition from four joint distributions."""
    settings = ChshSettings.from_tables(tables)
    weighted = [SIGN_TABLE * t.probs for t in tables]
    correlators = tuple(float(np.sum(w)) for w in weighted)

    fav_mass = float(np.mean([t.probs[FAVORABLE_MASK].sum() for t in tables]))
    fav_combo = sum(s * float(np.sum(w[FAVORABLE_MASK])) for s, w in zip(CHSH_SIGNS, weighted))
    rest_combo = sum(s * float(np.sum(w[~FAVORABLE_MASK])) for s, w in zip(CHSH_SIGNS, weighted))
    favorable_part = fav_combo / fav_mass if fav_mass > _EMPTY_BLOCK_TOL else 0.0
    unfavorable_part = rest_combo / (1.0 - fav_mass) if 1.0 - fav_mass > _EMPTY_BLOCK_TOL else 0.0
    return ChshResult(favorable_part, unfavorable_part, correlators, settings, fav_mass)


def _value_sign(occ: tuple[int, int, int, int]) -> float:
    a = OUTCOME_VALUES[classify_occupation(occ[0], occ[1]) - 1]
    b = OUTCOME_VALUES[classify_occupation(occ[2], occ[3]) - 1]
    return a * b


def pair_operator_expectation(state: StateVector, xi: PolarizerAngle, eta: PolarizerAngle) -> float:
    """<state| A(xi) B(eta) |state> evaluated directly in Fock space.

    A acts as -1 on the one-photon-perpendicular state of station 1 and as
    +1 on everything else; B likewise for station 2.  Implemented by
    rotating into the analyzer frames, flipping the amplitudes in the -1
    eigenspace and contracting with the unflipped state.
    """
    rotated = rotate_station_basis(state, state.spatial[0], xi)
    rotated = rotate_station_basis(rotated, state.spatial[1], eta)
    flipped = StateVector(
        {occ: amp * _value_sign(occ) for occ, amp in rotated.terms.items()},
        rotated.spatial,
    )
    value = inner_product(rotated, flipped)
    if abs(value.imag) > PHYSICS_TOL:
        raise InputError(f"operator expectation has non-real value {value}")
    return value.real


def chsh_operator_expectation(state: StateVector, settings: ChshSettings) -> float:
    """CHSH combination of the four operator expectations (the Fock-space path)."""
    values = [pair_operator_expectation(state, x, e) for x, e in settings.setting_pairs()]
    return float(sum(s * v for s, v in zip(CHSH_SIGNS, values)))


def chsh_decomposition(state: StateVector, settings: ChshSettings) -> ChshResult:
    """Split the CHSH expectation into favorable and unfavorable subspace parts.

    The two normalized projections never mix under the analyzers, so the
    total is the weight-averaged sum of the parts; for the undiluted
    experiment state both weights are 1/2.
    """
    favorable, unfavorable = split_by_locality(state)
    w_fav = favorable.norm_squared()
    w_unfav = unfavorable.norm_squared()
    favorable_part = (
        chsh_operator_expectation(favorable.normalize(), settings)
        if w_fav > _EMPTY_BLOCK_TOL
        else 0.0
    )
    unfavorable_part = (
        chsh_operator_expectation(unfavorable.normalize(), settings)
        if w_unfav > _EMPTY_BLOCK_TOL
        else 0.0
    )
    correlators = tuple(pair_operator_expectation(state, x, e) for x, e in settings.setting_pairs())
    return ChshResult(favorable_part, unfavorable_part, correlators, settings, w_fav)


def _chsh_value(state: StateVector, angles: Sequence[float]) -> float:
    tables = [
        joint_distribution(state, x, e)
        for x, e in ChshSettings.from_radians(*angles).setting_pairs()
    ]
    return chsh_from_tables(tables).total


def _golden_section_max(g: Callable[[float], float], lo: float, hi: float, tol: float):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    gc, gd = g(c), g(d)
    while b - a > tol:
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(d)
    x = 0.5 * (a + b)
    return x, g(x)


#: The coarse search grid has this many angles per analyzer, pi/GRID_POINTS apart.
GRID_POINTS = 72

#: Angular resolution of the golden-section refinement, in radians.
REFINE_TOL = 1e-6

#: Analyzer angles k*pi/5 at which the correlator is sampled to fit C.
_SAMPLE_ANGLES = np.arange(5) * (math.pi / 5)

#: CHSH values closer than this count as equal: grid points this close to
#: the maximum are tied, and a refinement step must gain more than this, so
#: rounding noise never moves the settings.
_VALUE_TOL = 1e-12


def _harmonics(angles) -> np.ndarray:
    """Rows b(x) = (1, cos 2x, sin 2x, cos 4x, sin 4x), one per angle."""
    x = np.asarray(angles, dtype=float)
    return np.stack(
        [np.ones_like(x), np.cos(2 * x), np.sin(2 * x), np.cos(4 * x), np.sin(4 * x)], axis=-1
    )


def _correlator_coefficients(state: StateVector) -> np.ndarray:
    """The 5x5 matrix C with E(xi, eta) = b(xi)^T C b(eta) for ``state``.

    E is sampled in Fock space on the 5x5 grid of _SAMPLE_ANGLES, where the
    harmonic basis b is invertible (five equally spaced axis angles).
    """
    samples = np.empty((5, 5))
    for i, x in enumerate(_SAMPLE_ANGLES):
        rot1 = rotate_station_basis(state, state.spatial[0], PolarizerAngle(x))
        for j, e in enumerate(_SAMPLE_ANGLES):
            rot = rotate_station_basis(rot1, state.spatial[1], PolarizerAngle(e))
            samples[i, j] = sum(_value_sign(occ) * abs(amp) ** 2 for occ, amp in rot.terms.items())
    basis_inv = np.linalg.inv(_harmonics(_SAMPLE_ANGLES))
    return basis_inv @ samples @ basis_inv.T


def _best_grid_indices(e_grid: np.ndarray) -> tuple[int, int, int, int]:
    """Grid maximizer of E(xi,eta) + E(xi,eta') + E(xi',eta) - E(xi',eta').

    The combination splits into an eta part E(xi,.) + E(xi',.) and an eta'
    part E(xi,.) - E(xi',.), maximized independently for every (xi, xi').
    Among values within _VALUE_TOL of the maximum the lexicographically
    smallest (xi, xi', eta, eta') index tuple wins.
    """
    eta_part = e_grid[:, None, :] + e_grid[None, :, :]
    etap_part = e_grid[:, None, :] - e_grid[None, :, :]
    pair_best = eta_part.max(axis=2) + etap_part.max(axis=2)
    cutoff = pair_best.max() - _VALUE_TOL
    i_xi, i_xip = np.unravel_index(np.flatnonzero(pair_best >= cutoff)[0], pair_best.shape)
    combo = eta_part[i_xi, i_xip][:, None] + etap_part[i_xi, i_xip][None, :]
    i_eta, i_etap = np.unravel_index(np.flatnonzero(combo >= cutoff)[0], combo.shape)
    return int(i_xi), int(i_xip), int(i_eta), int(i_etap)


def optimize_angles(state: StateVector) -> tuple[ChshSettings, float]:
    """Settings maximizing the CHSH value for ``state``.

    Coarse stage: all angle combinations on a pi/GRID_POINTS grid, from the
    correlator grid B C B^T of the harmonic form.  Among grid points whose
    value lies within 1e-12 of the maximum, the lexicographically smallest
    (xi, xi', eta, eta') index tuple wins.  Fine stage: coordinate ascent
    with golden-section line search on the same polynomial down to
    REFINE_TOL angular resolution, accepting a step only when it gains more
    than 1e-12.  The returned value comes from the joint-distribution
    tables at the final settings.
    """
    step = math.pi / GRID_POINTS
    grid = np.arange(GRID_POINTS) * step
    coeffs = _correlator_coefficients(state)
    basis = _harmonics(grid)
    angles = [grid[k] for k in _best_grid_indices(basis @ coeffs @ basis.T)]

    def chsh_poly(trial: Sequence[float]) -> float:
        b_xi, b_xip, b_eta, b_etap = _harmonics(trial)
        return float(b_xi @ coeffs @ (b_eta + b_etap) + b_xip @ coeffs @ (b_eta - b_etap))

    best = chsh_poly(angles)
    for _ in range(50):
        improved = best
        for k in range(4):
            def g(t: float, k: int = k) -> float:
                trial = list(angles)
                trial[k] = t
                return chsh_poly(trial)

            x, v = _golden_section_max(g, angles[k] - step, angles[k] + step, REFINE_TOL)
            if v > best + _VALUE_TOL:
                best = v
                angles[k] = x
        if best - improved < _VALUE_TOL:
            break

    settings = ChshSettings.from_radians(*angles)
    return settings, _chsh_value(state, angles)
