"""Optical elements that prepare the experiment's quantum state.

A type-I source emits one photon pair, both photons polarized along the
first lab axis, one per arm.  The arm-a photon passes a 90 degree
polarization rotator, both arms then meet on a symmetric 50-50
beamsplitter, and the outputs are the two detection stations.

Phase conventions (fixed so the canonical four-term state comes out with
the exact textbook signs, not merely up to per-term phases):

* waveplate rotation by theta maps x -> cos(theta) x + sin(theta) y,
* the beamsplitter has real transmission 1/sqrt(2) and reflection
  i/sqrt(2), identical for both polarizations and both inputs,
* arm a reflects into station 1 and transmits into station 2 (the mirror
  geometry of the layout); arm b does the opposite,
* mirrors impart no phase (all optical paths are equal, so any common
  phase is global).

The residual freedom is one global phase, which with these choices is +1.
All functions are pure; values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, ModelError
from .fock import (
    ALGEBRA_TOL,
    ARM_LABELS,
    STATION_LABELS,
    ModeId,
    StateVector,
    apply_mode_unitary,
    basis_state,
    station_totals,
    vacuum,
)
from .measurement import number

#: Symmetric 50-50 beamsplitter amplitudes, polarization independent.
_TRANSMISSION = 1.0 / math.sqrt(2.0)
_REFLECTION = 1j * _TRANSMISSION


@dataclass(frozen=True)
class PairAmplitude:
    """Vacuum amplitude alpha and pair amplitude beta of the emitted state; finite, normalized."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        emitted = StateVector({(0, 0, 0, 0): self.alpha, (1, 0, 1, 0): self.beta})
        if abs(emitted.norm_squared() - 1.0) > ALGEBRA_TOL:
            raise InputError("pair amplitude must satisfy |alpha|^2 + |beta|^2 = 1")

    @classmethod
    def from_pair_probability(cls, p_pair: float) -> "PairAmplitude":
        """Real beta = sqrt(p_pair) >= 0, p_pair in [0, 1]; the relative phase is unobservable."""
        number(p_pair, "pair probability", "[0, 1]")
        return cls(alpha=math.sqrt(1.0 - p_pair), beta=math.sqrt(p_pair))


def source_state() -> StateVector:
    """One photon in each arm, both polarized along the first lab axis."""
    return basis_state((1, 0, 1, 0), ARM_LABELS)


def apply_waveplate(state: StateVector, arm: str, angle: float) -> StateVector:
    """Rotate the polarization of one arm by ``angle`` radians (the experiment uses pi/2)."""
    if arm not in state.spatial:
        raise ModelError(f"unknown arm {arm!r}; state labels are {state.spatial}")
    c, s = math.cos(angle), math.sin(angle)
    u = ((c, -s), (s, c))
    return apply_mode_unitary(state, (ModeId(arm, 0), ModeId(arm, 1)), u)


def apply_beamsplitter(state: StateVector) -> StateVector:
    """Mix the two arms on the beamsplitter and relabel outputs to stations.

    Arm a goes to station 1 with the reflection amplitude and to station 2
    with the transmission amplitude; arm b the other way around.
    """
    if state.spatial != ARM_LABELS:
        raise ModelError(f"beamsplitter expects arm labels {ARM_LABELS}, state has {state.spatial}")
    u = ((_REFLECTION, _TRANSMISSION), (_TRANSMISSION, _REFLECTION))
    out = state
    for pol in (0, 1):
        out = apply_mode_unitary(out, (ModeId("a", pol), ModeId("b", pol)), u)
    return out.relabel(STATION_LABELS)


def build_experiment_state() -> StateVector:
    """The two-photon state arriving at the stations.

    Equals (|1x>_1 |1y>_2 - |1y>_1 |1x>_2 + i |1x 1y>_1 |0>_2
    + i |0>_1 |1x 1y>_2) / 2: a polarization singlet when the pair splits,
    plus the two both-photons-one-side terms.
    """
    state = source_state()
    state = apply_waveplate(state, "a", math.pi / 2)
    return apply_beamsplitter(state)


def attach_vacuum(state: StateVector, pair: PairAmplitude) -> StateVector:
    """alpha |vacuum> + beta |state>, making the no-emission component explicit."""
    return vacuum(state.spatial).scale(pair.alpha).add(state.scale(pair.beta))


def split_by_locality(state: StateVector) -> tuple[StateVector, StateVector]:
    """Unnormalized (favorable, unfavorable) components of a station state.

    Favorable terms place exactly one photon at each station; everything
    else (double occupancy one side, or vacuum) is unfavorable.
    """
    fav = {occ: amp for occ, amp in state.terms.items() if station_totals(occ) == (1, 1)}
    unfav = {occ: amp for occ, amp in state.terms.items() if station_totals(occ) != (1, 1)}
    return StateVector(fav, state.spatial), StateVector(unfav, state.spatial)
