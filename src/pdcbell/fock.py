"""Exact Fock-space representation for the four optical modes of the experiment.

The experiment uses two spatial regions times two polarization axes.  Before
the beamsplitter the spatial labels are the source arms ``("a", "b")``; after
it they are the detection stations ``("1", "2")``.  Polarization is an index
0 or 1 naming the two orthonormal axes of whatever polarization frame the
state is currently expressed in (the lab frame x/y initially, an analyzer
frame after a station-basis rotation).

Mode ordering is fixed: for spatial labels ``(s0, s1)`` the four modes are

    0: (s0, pol 0)    1: (s0, pol 1)    2: (s1, pol 0)    3: (s1, pol 1)

and a basis state is the occupation 4-tuple in that order.  At most two
photons are allowed per mode and per state; the source never emits more than
one pair, so exceeding the cap is an error, not truncated physics.

All values here are immutable and all operations are pure functions, so
everything in this module is safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import InputError, ModelError, shown

ARM_LABELS = ("a", "b")
STATION_LABELS = ("1", "2")

#: Per-mode and per-state photon cap (one pair at most).
MAX_PHOTONS = 2

#: Tolerance for algebraic identities (unitarity, norm preservation).
ALGEBRA_TOL = 1e-12
#: Tolerance for physics assertions (probabilities, expectation values).
PHYSICS_TOL = 1e-9
#: Amplitudes below this magnitude may be pruned.
PRUNE_TOL = 1e-14
#: Types of a mode transformation's entries taken without a closer look.
_PLAIN_NUMBERS = frozenset((float, complex, int))

#: Letters used for polarization indices in occupation-string keys.  The
#: letters always name the axes of the state's *current* polarization frame.
_POL_LETTERS = ("x", "y")

Occupation = tuple[int, int, int, int]


@dataclass(frozen=True, slots=True)
class ModeId:
    """One of the four optical modes: a spatial label plus a polarization index."""

    spatial: str
    polarization: int

    def __post_init__(self) -> None:
        if self.polarization not in (0, 1):
            raise ModelError(f"polarization index must be 0 or 1, got {shown(self.polarization)}")


def mode_index(spatial_labels: tuple[str, str], mode: ModeId) -> int:
    """Position of ``mode`` in the canonical mode ordering for ``spatial_labels``."""
    try:
        s = spatial_labels.index(mode.spatial)
    except ValueError:
        raise ModelError(
            f"spatial label {mode.spatial!r} not in state labels {spatial_labels}"
        ) from None
    return 2 * s + mode.polarization


def station_totals(occupation: Occupation) -> tuple[int, int]:
    """Total photon number in each spatial region."""
    return occupation[0] + occupation[1], occupation[2] + occupation[3]


@dataclass(frozen=True, slots=True)
class StateVector:
    """Sparse pure state over the four-mode occupation basis.

    ``terms`` maps occupation 4-tuples to complex amplitudes; ``spatial``
    records which spatial frame the state lives in.  Instances are immutable.
    A term maps four integers >= 0 (0.5 is refused, not truncated) to a finite
    amplitude, else InputError; C-level checks, as every ``apply_mode_unitary`` builds a state.
    """

    terms: Mapping[Occupation, complex]
    spatial: tuple[str, str] = ARM_LABELS

    def __post_init__(self) -> None:
        spatial = tuple(self.spatial)
        if len(spatial) != 2 or spatial[0] == spatial[1]:
            raise InputError(f"need two distinct spatial labels, got {shown(spatial)}")
        clean: dict[Occupation, complex] = {}
        for occ, amp in self.terms.items():
            try:
                occ = tuple(map(operator.index, occ))
                good = len(occ) == 4 and min(occ) >= 0 and cmath.isfinite(amp)
            except (TypeError, OverflowError):
                good = False
            if not good:
                raise InputError(f"bad term {shown(occ)}: {shown(amp)} (need 4 ints >= 0, finite)")
            if max(occ) > MAX_PHOTONS or sum(occ) > MAX_PHOTONS:
                raise ModelError(f"occupation {shown(occ)} exceeds the {MAX_PHOTONS}-photon cap")
            amp = complex(amp)
            if amp != 0:
                clean[occ] = clean.get(occ, 0j) + amp
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def sorted_terms(self) -> list[tuple[Occupation, complex]]:
        """Terms in canonical (lexicographic occupation) order."""
        return sorted(self.terms.items())

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.terms.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise InputError("cannot normalize the zero vector")
        return StateVector(
            {occ: amp / n for occ, amp in self.terms.items() if abs(amp) / n > PRUNE_TOL},
            self.spatial,
        )

    def prune(self) -> "StateVector":
        return StateVector(
            {occ: amp for occ, amp in self.terms.items() if abs(amp) > PRUNE_TOL}, self.spatial
        )

    def scale(self, factor: complex) -> "StateVector":
        return StateVector({occ: factor * amp for occ, amp in self.terms.items()}, self.spatial)

    def add(self, other: "StateVector") -> "StateVector":
        _check_labels(self, other)
        out = dict(self.terms)
        for occ, amp in other.terms.items():
            out[occ] = out.get(occ, 0j) + amp
        return StateVector(out, self.spatial)

    def relabel(self, spatial: tuple[str, str]) -> "StateVector":
        """Rename the spatial frame without touching amplitudes (beamsplitter output)."""
        return StateVector(self.terms, spatial)

    def __repr__(self) -> str:
        inner = " + ".join(
            f"({amp:.6g})|{occupation_key(occ)}>" for occ, amp in self.sorted_terms()
        )
        return inner or "0"

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.spatial == other.spatial and dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        return hash((self.spatial, frozenset(self.terms.items())))


def vacuum(spatial: tuple[str, str] = ARM_LABELS) -> StateVector:
    return StateVector({(0, 0, 0, 0): 1.0}, spatial)


def basis_state(occupation: Occupation, spatial: tuple[str, str] = ARM_LABELS) -> StateVector:
    return StateVector({tuple(occupation): 1.0}, spatial)


def _check_labels(s1: StateVector, s2: StateVector) -> None:
    if s1.spatial != s2.spatial:
        raise ModelError(f"states use different spatial labels: {s1.spatial} vs {s2.spatial}")


def _check_unitary(u) -> tuple[tuple[complex, ...], ...]:
    """``u`` as rows of complex numbers, if it is a 2x2 unitary of numbers.  A bool or a string
    is refused, though ``complex`` takes both; types are looked at only when the fast test fails."""
    try:
        rows = tuple(map(tuple, u))
    except TypeError as exc:
        raise InputError(f"mode transformation must hold numbers, got {shown(u)}") from exc
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ModelError("mode transformation must be a 2x2 matrix")
    (a, b), (c, d) = rows
    if not {type(a), type(b), type(c), type(d)} <= _PLAIN_NUMBERS and not all(
        isinstance(x, numbers.Number) and not isinstance(x, bool) for x in (a, b, c, d)
    ):
        raise InputError(f"mode transformation must hold numbers, got {shown(u)}")
    a, b, c, d = map(complex, (a, b, c, d))
    # u @ u^dagger == I within ALGEBRA_TOL; its (1, 0) entry is the conjugate of (0, 1)
    gram = (
        a * a.conjugate() + b * b.conjugate() - 1.0,
        c * c.conjugate() + d * d.conjugate() - 1.0,
        a * c.conjugate() + b * d.conjugate(),
    )
    # "not <=" fails NaN too; a NaN or inf entry makes its row norm so, and only then is sought
    if not all(abs(entry) <= ALGEBRA_TOL for entry in gram):
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise InputError(f"mode transformation must hold finite numbers, got {shown(u)}")
        raise ModelError(f"matrix is not unitary within {ALGEBRA_TOL}")
    return (a, b), (c, d)


def apply_mode_unitary(state: StateVector, modes: tuple[ModeId, ModeId], u) -> StateVector:
    """Evolve ``state`` under a 2x2 unitary mixing the two given modes.

    Column convention: the creation operator of ``modes[j]`` maps to
    ``sum_k u[k][j] * (creation operator of modes[k])``.  Each basis term is
    re-expanded as a polynomial in creation operators acting on vacuum, so
    the bosonic sqrt(n!) factors come out exactly.
    """
    rows = _check_unitary(u)
    i0 = mode_index(state.spatial, modes[0])
    i1 = mode_index(state.spatial, modes[1])
    if i0 == i1:
        raise ModelError("mode pair must name two distinct modes")

    out: dict[Occupation, complex] = {}
    for occ, amp in state.terms.items():
        n0, n1 = occ[i0], occ[i1]
        base = amp / math.sqrt(math.factorial(n0) * math.factorial(n1))
        # (u00 c0 + u10 c1)^n0 * (u01 c0 + u11 c1)^n1, coefficient of c0^m0 c1^m1
        poly: dict[tuple[int, int], complex] = {(0, 0): base}
        for col, n in ((0, n0), (1, n1)):
            a, b = rows[0][col], rows[1][col]
            for _ in range(n):
                nxt: dict[tuple[int, int], complex] = {}
                for (m0, m1), c in poly.items():
                    if a != 0:
                        nxt[(m0 + 1, m1)] = nxt.get((m0 + 1, m1), 0j) + c * a
                    if b != 0:
                        nxt[(m0, m1 + 1)] = nxt.get((m0, m1 + 1), 0j) + c * b
                poly = nxt
        for (m0, m1), c in poly.items():
            new_occ = list(occ)
            new_occ[i0], new_occ[i1] = m0, m1
            key = tuple(new_occ)
            contrib = c * math.sqrt(math.factorial(m0) * math.factorial(m1))
            out[key] = out.get(key, 0j) + contrib
    return StateVector(out, state.spatial).prune()


def inner_product(s1: StateVector, s2: StateVector) -> complex:
    """<s1|s2>, conjugate-linear in the first argument."""
    _check_labels(s1, s2)
    small, big = (s1.terms, s2.terms) if len(s1.terms) <= len(s2.terms) else (s2.terms, s1.terms)
    total = 0j
    for occ in small:
        if occ in big:
            total += s1.terms[occ].conjugate() * s2.terms[occ]
    return total


# -- occupation-string keys --------------------------------------------------
#
# Grammar (documented in README): each spatial region serializes to the
# concatenation of "<count><axis>" tokens for its occupied modes in axis
# order, or "0" when empty; the two regions join with "|", first label first.
# Examples: "1x1y|0", "1y|1x", "2x|0", "0|0".


def occupation_key(occupation: Occupation) -> str:
    parts = []
    for side in (occupation[:2], occupation[2:]):
        tokens = [f"{n}{_POL_LETTERS[p]}" for p, n in enumerate(side) if n > 0]
        parts.append("".join(tokens) if tokens else "0")
    return "|".join(parts)
