"""The modified CHSH functional over the six-outcome statistics.

The outcome values are fixed and the same at both stations: -1 for a single
photon in the perpendicular port (outcome 1), +1 for every other outcome,
the unfavorable two-photon outcomes and the empty bin included
(OUTCOME_VALUES).  The correlator of a setting pair is the expectation of
the value product (SIGN_TABLE), vacuum bins contribute +1, and the CHSH
combination E(xi,eta) + E(xi,eta') + E(xi',eta) - E(xi',eta') is bounded
by 2 for every local hidden variable model while the full experiment state
reaches 1 + sqrt(2).

The four tables of a pattern travel as one value, a Behavior (Behavior.at
builds it from a state).  Two independent computation paths are provided on
purpose: from a Behavior (chsh_from_tables) and from operator expectations
taken directly in Fock space (chsh_operator_expectation).  They must agree
to 1e-12, which the test suite checks.

Pure functions throughout.  The angle optimizer exploits the harmonic
structure of the correlator: under the two-photon cap each outcome
amplitude at a station is a polynomial of degree at most 2 in the cosine
and sine of that station's analyzer angle, so every correlator is a
trigonometric polynomial with harmonics {0, 2, 4} in each angle,
E(xi, eta) = b(xi)^T C b(eta) with b(x) = (1, cos 2x, sin 2x, cos 4x,
sin 4x).  Each table cell has such a form, fitted to twenty-five
joint_distribution tables; C weighs the cells by SIGN_TABLE, and the whole
search runs on that polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, shown
from .fock import StateVector, inner_product
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

#: Value of outcome code k at either station, at index k - 1.
OUTCOME_VALUES = (-1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

#: Value product of the outcome pair (i, j) at [i - 1, j - 1]; read-only.
SIGN_TABLE = np.outer(OUTCOME_VALUES, OUTCOME_VALUES)
SIGN_TABLE.flags.writeable = False


def rounding_bound(values) -> float:
    """16 eps sum |x| over ``values``: the rounding error a decision between sums of them allows."""
    return 16 * math.ulp(1.0) * float(np.abs(values).sum())


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


@dataclass(frozen=True, eq=False)
class Behavior(Sequence):
    """Four tables at (xi,eta), (xi,eta'), (xi',eta), (xi',eta'): a behavior, a Sequence of them.

    Built from any iterable, checked once: anything but four JointDistributions on that
    pattern raises InputError.  ``settings`` and ``probs``, the tables stacked into a
    read-only (4, 6, 6) array, are derived when it is built.
    """

    tables: tuple[JointDistribution, ...]
    settings: ChshSettings = field(init=False)
    probs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        try:
            tables = iter(self.tables)
        except TypeError:
            raise InputError(f"need 4 tables, got {shown(self.tables)}") from None
        t = tuple(tables)
        if len(t) != 4:
            raise InputError(f"need exactly 4 tables, got {len(t)}")
        for index, table in enumerate(t):
            if not isinstance(table, JointDistribution):
                raise InputError(f"table {index} must be a JointDistribution, got {shown(table)}")
        settings = ChshSettings(t[0].xi, t[2].xi, t[0].eta, t[1].eta)
        pattern = [angle.angle for pair in settings.setting_pairs() for angle in pair]
        given = [angle.angle for table in t for angle in (table.xi, table.eta)]
        if max(map(axis_distance, pattern, given)) > 1e-12:
            raise InputError(
                "tables do not share the (xi,eta), (xi,eta'), (xi',eta), (xi',eta') pattern"
            )
        probs = np.stack([table.probs for table in t])
        probs.flags.writeable = False
        object.__setattr__(self, "tables", t)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def of(cls, tables) -> "Behavior":
        """``tables`` if it is a Behavior, else the Behavior of these four tables."""
        return tables if isinstance(tables, cls) else cls(tables)

    @classmethod
    def at(cls, state: StateVector, settings: ChshSettings) -> "Behavior":
        """The four tables of ``state`` at ``settings``: their one builder from a state."""
        return cls(joint_distribution(state, xi, eta) for xi, eta in settings.setting_pairs())

    def __getitem__(self, index):
        return self.tables[index]

    def __len__(self) -> int:
        return len(self.tables)


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
    """CHSH value and block decomposition of a Behavior, or of four tables (``Behavior.of``)."""
    behavior = Behavior.of(tables)
    weighted = SIGN_TABLE * behavior.probs
    correlators = tuple(float(np.sum(w)) for w in weighted)

    fav_mass = float(np.mean([p[FAVORABLE_MASK].sum() for p in behavior.probs]))
    favorable_part, unfavorable_part = (
        sum(s * float(np.sum(w[mask])) for s, w in zip(CHSH_SIGNS, weighted)) / mass
        if mass > 0.0
        else 0.0
        for mask, mass in ((FAVORABLE_MASK, fav_mass), (~FAVORABLE_MASK, 1.0 - fav_mass))
    )
    return ChshResult(favorable_part, unfavorable_part, correlators, behavior.settings, fav_mass)


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
    return inner_product(rotated, flipped).real


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
    blocks = split_by_locality(state)
    weights = [block.norm_squared() for block in blocks]
    favorable_part, unfavorable_part = (
        chsh_operator_expectation(block.normalize(), settings) if weight > 0.0 else 0.0
        for block, weight in zip(blocks, weights)
    )
    correlators = tuple(pair_operator_expectation(state, x, e) for x, e in settings.setting_pairs())
    return ChshResult(favorable_part, unfavorable_part, correlators, settings, weights[0])


#: The coarse search grid has this many angles per analyzer, pi/GRID_POINTS apart.
GRID_POINTS = 72

#: Analyzer angles k*pi/5 at which the tables are sampled to fit the cell form.
_SAMPLE_ANGLES = np.arange(5) * (math.pi / 5)


def _harmonics(angles) -> np.ndarray:
    """Rows b(x) = (1, cos 2x, sin 2x, cos 4x, sin 4x), one per angle."""
    x = np.asarray(angles, dtype=float)
    return np.stack(
        [np.ones_like(x), np.cos(2 * x), np.sin(2 * x), np.cos(4 * x), np.sin(4 * x)], axis=-1
    )


def _best_angle(v: np.ndarray) -> float:
    """The angle t maximizing b(t) @ v, exactly.

    z**2 d/dt (b(t) @ v) is lead z**4 + mid z**3 + conj(mid) z + conj(lead) in z = exp(2it);
    lead times its companion matrix has eigenvalues lead * z, so no division can overflow.
    Where the 4t part is under ~1e-20 of the 2t part they drown, and atan2(s2, c2) / 2, the 2t
    part's maximum, is that close.  The best of these candidates and 0 (a constant keeps 0) wins.
    """
    _, c2, s2, c4, s4 = v
    lead, mid = complex(2 * s4, 2 * c4), complex(s2, c2)
    companion = np.diag([lead] * 3, -1)
    companion[0] = -mid, 0, -mid.conjugate(), -lead.conjugate()
    roots = np.angle(np.linalg.eigvals(companion)) - np.angle(lead)
    candidates = np.concatenate([[0.0, math.atan2(s2, c2)], roots]) / 2
    return float(candidates[np.argmax(_harmonics(candidates) @ v)])


def _cell_coefficients(state: StateVector) -> np.ndarray:
    """The (5, 5, 6, 6) tensor C with P_kl(xi, eta) = b(xi)^T C[:, :, k, l] b(eta) for ``state``.

    Fitted to the joint_distribution tables on the 5x5 grid of _SAMPLE_ANGLES,
    where the harmonic basis b is invertible (five equally spaced axis angles).
    """
    angles = [PolarizerAngle(x) for x in _SAMPLE_ANGLES]
    tables = np.array([[joint_distribution(state, x, e).probs for e in angles] for x in angles])
    basis_inv = np.linalg.inv(_harmonics(_SAMPLE_ANGLES))
    return np.einsum("ia,abkl,jb->ijkl", basis_inv, tables, basis_inv)


def _correlator_coefficients(state: StateVector) -> np.ndarray:
    """The 5x5 matrix C with E(xi, eta) = b(xi)^T C b(eta): the cell form weighted by SIGN_TABLE."""
    return np.tensordot(_cell_coefficients(state), SIGN_TABLE, 2)


def _best_grid_indices(e_grid: np.ndarray, tol: float) -> tuple[int, int, int, int]:
    """Grid maximizer of E(xi,eta) + E(xi,eta') + E(xi',eta) - E(xi',eta').

    The combination splits into an eta part E(xi,.) + E(xi',.) and an eta'
    part E(xi,.) - E(xi',.), maximized independently for every (xi, xi').
    Among values within ``tol`` of the maximum the lexicographically
    smallest (xi, xi', eta, eta') index tuple wins.
    """
    eta_part = e_grid[:, None, :] + e_grid[None, :, :]
    etap_part = e_grid[:, None, :] - e_grid[None, :, :]
    pair_best = eta_part.max(axis=2) + etap_part.max(axis=2)
    cutoff = pair_best.max() - tol
    i_xi, i_xip = np.unravel_index(np.flatnonzero(pair_best >= cutoff)[0], pair_best.shape)
    combo = eta_part[i_xi, i_xip][:, None] + etap_part[i_xi, i_xip][None, :]
    i_eta, i_etap = np.unravel_index(np.flatnonzero(combo >= cutoff)[0], combo.shape)
    return int(i_xi), int(i_xip), int(i_eta), int(i_etap)


def optimize_angles(state: StateVector) -> tuple[ChshSettings, float]:
    """Settings maximizing the CHSH value for ``state``.

    Coarse stage: all angle combinations on a pi/GRID_POINTS grid, from the
    correlator grid B C B^T of the harmonic form.  Among grid points whose
    value lies within rounding_bound(C) of the maximum, the lexicographically
    smallest (xi, xi', eta, eta') index tuple wins.  Fine stage: a seesaw on
    the same polynomial.  At fixed eta, eta' the CHSH value is b(xi) @ C
    (b(eta) + b(eta')) + b(xi') @ C (b(eta) - b(eta')), so each half-step
    sets both angles of one station to their exact best responses
    (_best_angle), and is taken only when it gains more than that bound;
    sweeps of both half-steps repeat until one gains no more.  The returned
    value comes from the joint-distribution tables at the final settings.
    """
    grid = np.arange(GRID_POINTS) * (math.pi / GRID_POINTS)
    coeffs = _correlator_coefficients(state)
    basis = _harmonics(grid)
    tol = rounding_bound(coeffs)
    angles = [grid[k] for k in _best_grid_indices(basis @ coeffs @ basis.T, tol)]

    def chsh_poly(trial: Sequence[float]) -> float:
        b_xi, b_xip, b_eta, b_etap = _harmonics(trial)
        return float(b_xi @ coeffs @ (b_eta + b_etap) + b_xip @ coeffs @ (b_eta - b_etap))

    best, improved = chsh_poly(angles), -math.inf
    while best - improved >= tol:
        improved = best
        for k, matrix in ((0, coeffs), (2, coeffs.T)):
            b1, b2 = _harmonics(angles[2 - k : 4 - k])
            trial = list(angles)
            trial[k : k + 2] = map(_best_angle, (matrix @ (b1 + b2), matrix @ (b1 - b2)))
            value = chsh_poly(trial)
            if value > best + tol:
                best, angles = value, trial

    settings = ChshSettings.from_radians(*angles)
    return settings, chsh_from_tables(Behavior.at(state, settings)).total
