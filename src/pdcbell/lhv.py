"""Local-hidden-variable feasibility for the full six-outcome pattern.

A local model assigns each hidden variable value a deterministic outcome
per station per setting; the achievable correlation patterns form the
convex hull of the 6^2 * 6^2 = 1296 deterministic strategies.  Membership
in that polytope of four observed tables, taken in the (xi,eta), (xi,eta'),
(xi',eta), (xi',eta') pattern, is decided in two steps, and an infeasibility
verdict never rests on solver internals: a BellCertificate enumerates its
own local bound over all 1296 strategies when it is built.

First the facet step: the best of the eight CHSH relabelings (the minus
sign on each setting pair, times an overall sign) is evaluated on them.  It
settles the tables as infeasible when its gap exceeds the L1 distance of
the tables from their clipped, renormalized version (the slack a validated
but slightly unnormalized input carries) by more than the rounding
allowance _FACET_GAP_TOL.  The optimal tables and their vacuum-diluted
versions, whose gap is (sqrt 2 - 1) p_pair, are settled here down to
p_pair of about 2.5e-12, where that gap meets the allowance.  Below this
floor the LP decides, and its per-cell tolerance returns Feasible for them.

Everything else goes to a phase-one linear program: minimize the L1
mismatch between a strategy mixture and the clipped, renormalized tables.
Zero mismatch is an explicit model; positive mismatch means separation, and
the LP dual is the separating Bell functional.  A strategy of weight w adds
w to each of its four cells, so an exact model weighs only strategies whose
cells are all non-zero in the targets (27 of 1296 on the optimal tables, 37
diluted, 119 under per-photon loss).  The LP runs over those first, through
milp, on the non-zero cells alone (a zero cell's row would only zero its
slacks): a model there is a full one, but one exact mixture, not a canonical
one.  A miss reruns the LP over all 1296 strategies and 144 cells through
linprog, whose duals alone yield certificates.  Each solve's matrix, the
reconstruction check and synthesized tables come from one description of
the polytope, the four cells each strategy hits.  Only the LP imports scipy.
All inputs and outputs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bell import SIGN_TABLE, ChshSettings
from .errors import InputError, ModelError, shown
from .measurement import JointDistribution, axis_distance, closed_object, finite_floats, number


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use.

    scipy.optimize takes most of the package's import time, and only the
    LP needs it, so commands that never decide feasibility do not pay it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def milp(*args, **kwargs):
    """scipy.optimize.milp, imported on first use as linprog is; it solves the restricted LP."""
    from scipy.optimize import milp as scipy_milp

    return scipy_milp(*args, **kwargs)


N_OUTCOMES = 6
N_STRATEGIES = (N_OUTCOMES**2) ** 2  # 1296

#: A returned model must reproduce its targets at least this well, per cell.
RECONSTRUCTION_TOL = 1e-7

#: Tolerance on a model's weights: their sign and their sum to 1.
BOUND_TOL = 1e-9

#: Rounding allowance on a facet gap.  The CHSH value is a sum of 144
#: products of +-1 with probabilities adding up to 4, so its rounding error
#: stays below 1e-13.
_FACET_GAP_TOL = 1e-12

#: The eight CHSH relabelings, in the fixed order the facet step breaks ties
#: by: the minus sign on each of the four setting pairs, CHSH_SIGNS first,
#: then the same four with the overall sign flipped.
_CHSH_PATTERNS = np.array(
    [sign * (1.0 - 2.0 * np.eye(4)[minus]) for sign in (1.0, -1.0) for minus in (3, 0, 1, 2)]
)


@lru_cache(maxsize=1)
def _strategy_cells() -> np.ndarray:
    """The cell each strategy hits, per setting pair: a read-only (4, 1296) array.

    Entry [pair, k] is the flat cell index 36 pair + 6 (i - 1) + (j - 1) of
    strategy k's outcome pair (i, j); k runs lexicographically over the
    outcomes at (xi, xi', eta, eta').
    """
    s1, s2 = np.split(np.indices((N_OUTCOMES,) * 4).reshape(4, -1), 2)
    cells = np.stack([36 * pair + N_OUTCOMES * s1[pair // 2] + s2[pair % 2] for pair in range(4)])
    cells.flags.writeable = False
    return cells


def _cell_probs(weights: np.ndarray) -> np.ndarray:
    """The 144 flat cell probabilities a mixture with these strategy weights produces."""
    return np.bincount(
        _strategy_cells().reshape(-1), weights=np.tile(weights, 4), minlength=4 * N_OUTCOMES**2
    )


def _phase_one_csc(strategies: np.ndarray, rows: np.ndarray):
    """Phase-one equality CSC: each strategy's four cells, all in the sorted ``rows``
    and renumbered among them, and the sum row; then slack +1 and -1 per row."""
    from scipy.sparse import csc_array

    n, m = len(strategies), len(rows)
    renumbered = np.zeros(4 * N_OUTCOMES**2, dtype=np.int32)
    renumbered[rows] = np.arange(m)
    cells = np.vstack([renumbered[_strategy_cells()[:, strategies]], np.full((1, n), m, np.int32)])
    indices = np.concatenate([cells.T.reshape(-1), np.tile(np.arange(m, dtype=np.int32), 2)])
    starts = np.append(np.arange(0, 5 * n, 5), np.arange(5 * n, 5 * n + 2 * m + 1)).astype(np.int32)
    data = np.append(np.ones(5 * n + m), np.full(m, -1.0))
    return csc_array((data, indices, starts), shape=(m + 1, n + 2 * m))


@dataclass(frozen=True, eq=False)
class LhvModel:
    """Probability weights over the 1296 deterministic strategies, finite numbers summing to 1."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = finite_floats(self.weights, "strategy weights", (N_STRATEGIES,))
        if arr.min() < -BOUND_TOL:
            raise InputError(f"negative strategy weight {arr.min()}")
        if abs(arr.sum() - 1.0) > BOUND_TOL:
            raise InputError(f"weights sum to {arr.sum()}, not 1")
        arr = np.clip(arr, 0.0, None)
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)


@dataclass(frozen=True, eq=False)
class BellCertificate:
    """A linear functional separating some tables from the local polytope.

    ``coefficients`` has shape (4, 6, 6): one weight per (setting pair,
    outcome i, outcome j) cell, and ``quantum_value`` is the functional's
    value on the separated tables, each a finite number.  ``local_bound``, its
    maximum over all deterministic strategies, is enumerated on construction.
    """

    coefficients: np.ndarray
    quantum_value: float
    local_bound: float = field(init=False)

    def __post_init__(self) -> None:
        arr = finite_floats(self.coefficients, "coefficients", (4, N_OUTCOMES, N_OUTCOMES))
        number(self.quantum_value, "quantum value")
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)
        object.__setattr__(self, "local_bound", local_bound_by_enumeration(arr))

    @property
    def gap(self) -> float:
        return self.quantum_value - self.local_bound

    def to_json_dict(self) -> dict:
        return {
            "coefficients": [float(c) for c in self.coefficients.reshape(-1)],
            "local_bound": self.local_bound,
            "quantum_value": self.quantum_value,
            "gap": self.gap,
        }


@dataclass(frozen=True)
class Feasible:
    """The tables admit a local model."""

    model: LhvModel
    reconstruction_error: float
    feasible = True


@dataclass(frozen=True)
class Infeasible:
    """No local model exists; the certificate proves it."""

    certificate: BellCertificate
    feasible = False


def _strategy_values(coefficients: np.ndarray) -> np.ndarray:
    """Functional value of every deterministic strategy, vectorized."""
    return coefficients.reshape(-1)[_strategy_cells()].sum(axis=0)


def local_bound_by_enumeration(coefficients: np.ndarray) -> float:
    """Exact maximum of a Bell functional over all 1296 strategies."""
    return float(_strategy_values(np.asarray(coefficients, dtype=float)).max())


def _certificate(coefficients: np.ndarray, stacked: np.ndarray) -> BellCertificate:
    """The functional ``coefficients`` as a certificate: its value on the ``stacked`` tables."""
    return BellCertificate(coefficients, float(np.sum(coefficients * stacked)))


def _facet_verdict(stacked: np.ndarray, normalized: np.ndarray) -> Infeasible | None:
    """Infeasible when the best CHSH relabeling certifies it exactly, else None.

    Every local table set lies at least ``gap`` from ``stacked`` in summed
    L1 distance (the coefficients are +-1), so a gap above the slack of
    the clipped, renormalized tables plus _FACET_GAP_TOL cannot come from a
    local model that is off only by the normalization a JointDistribution admits.
    """
    correlators = (stacked * SIGN_TABLE).sum(axis=(1, 2))
    pattern = _CHSH_PATTERNS[int(np.argmax(_CHSH_PATTERNS @ correlators))]
    certificate = _certificate(pattern[:, None, None] * SIGN_TABLE, stacked)
    slack = float(np.abs(stacked - normalized).sum())
    if certificate.gap > slack + _FACET_GAP_TOL:
        return Infeasible(certificate)
    return None


def _phase_one(b_cells: np.ndarray, strategies: np.ndarray):
    """The phase-one LP: linprog over all 1296 strategies, else milp on the non-zero cells.

    Its matrix is built per solve from the cells each strategy hits; no
    supported strategy touches a zero cell, whose row 0 = s+ - s- only zeroes
    its slacks.  Returns the result, the clipped, renormalized weights over
    all 1296 strategies and their largest per-cell miss of ``b_cells``.
    """
    full = len(strategies) == N_STRATEGIES
    rows = np.arange(len(b_cells)) if full else np.flatnonzero(b_cells)
    cost = np.concatenate([np.zeros(len(strategies)), np.ones(2 * len(rows))])
    a = _phase_one_csc(strategies, rows)
    b = np.append(b_cells[rows], 1.0)
    if full:
        result = linprog(cost, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    else:
        result = milp(cost, constraints=(a, b, b))
    if not result.success:  # pragma: no cover - phase-one LP is always feasible
        raise ModelError(f"LP solver failed: {result.message}")

    weights = np.zeros(N_STRATEGIES)
    weights[strategies] = np.clip(result.x[: len(strategies)], 0.0, None)
    weights /= weights.sum()
    return result, weights, float(np.abs(_cell_probs(weights) - b_cells).max())


def lhv_feasible(tables: Sequence[JointDistribution]) -> Feasible | Infeasible:
    """Decide whether four tables admit any local-hidden-variable model.

    The facet step runs first: when the best of the eight CHSH relabelings
    exceeds its enumerated local bound (2) by more than the tables' L1
    normalization slack plus _FACET_GAP_TOL, the verdict is Infeasible with
    that CHSH certificate, and no LP is built.  Otherwise the LP decides:
    for local tables, and for CHSH-violating tables too close to the facet,
    such as the optimal tables diluted below p_pair 2.5e-12 (see the
    module docstring).

    The LP fits the clipped, renormalized tables, since a strategy mixture
    sums to 1 on every table: milp over the supported strategies and the
    non-zero cells, then linprog over everything if that misses.  Feasible returns
    one exact mixture, not a canonical one, reproducing the targets to
    RECONSTRUCTION_TOL per cell.  Infeasible from the LP returns a Bell
    functional with a strictly positive, enumeration-verified gap on the
    tables as given, scaled to max-abs coefficient 1.  Tables off the (xi,eta),
    (xi,eta'), (xi',eta), (xi',eta') pattern raise InputError.
    """
    ChshSettings.from_tables(tables)
    stacked = np.stack([t.probs for t in tables])
    clipped = np.clip(stacked, 0.0, None)
    normalized = clipped / clipped.sum(axis=(1, 2), keepdims=True)
    facet = _facet_verdict(stacked, normalized)
    if facet is not None:
        return facet
    b_cells = normalized.reshape(-1)
    supported = np.flatnonzero((b_cells[_strategy_cells()] > 0).all(axis=0))
    everything = np.arange(N_STRATEGIES)
    for strategies in [supported, everything] if 0 < len(supported) < N_STRATEGIES else [everything]:
        result, weights, error = _phase_one(b_cells, strategies)
        if error <= RECONSTRUCTION_TOL:
            return Feasible(LhvModel(weights), error)

    dual = np.asarray(result.eqlin.marginals[:-1], dtype=float)
    scale = np.abs(dual).max()
    # Max-abs scaling to 1 also lands CHSH-shaped functionals on their
    # conventional local bound of 2; an all-zero dual separates nothing.
    for candidate in (dual, -dual) if scale > 0.0 else ():
        certificate = _certificate((candidate / scale).reshape(4, N_OUTCOMES, N_OUTCOMES), stacked)
        if certificate.gap > 0.0:
            return Infeasible(certificate)
    raise ModelError("LP reported mismatch but no verifiable separating functional was found")


def synthesize_tables(model: LhvModel, settings: ChshSettings) -> list[JointDistribution]:
    """The four joint tables a strategy mixture produces."""
    tables = _cell_probs(model.weights).reshape(4, N_OUTCOMES, N_OUTCOMES)
    return [JointDistribution(xi, eta, t) for (xi, eta), t in zip(settings.setting_pairs(), tables)]


def verify_certificate(
    cert: BellCertificate, tables: Sequence[JointDistribution]
) -> BellCertificate:
    """``cert``'s functional contracted with ``tables``, as a new certificate.

    Its local bound is enumerated afresh over the 1296 strategies, never
    taken from an LP output, and its gap is its value on ``tables`` minus
    that bound.
    """
    return _certificate(cert.coefficients, np.stack([t.probs for t in tables]))


# -- JSON interchange ---------------------------------------------------------


def verdict_to_json_dict(verdict: Feasible | Infeasible) -> dict:
    if isinstance(verdict, Feasible):
        return {
            "feasible": True,
            "model": [float(w) for w in verdict.model.weights],
            "reconstruction_error": verdict.reconstruction_error,
        }
    return {"feasible": False, "certificate": verdict.certificate.to_json_dict()}


def tables_from_json_dict(data) -> list[JointDistribution]:
    """Parse the CLI interchange format, a closed object as each of its tables is:
    {"tables": [t0, t1, t2, t3]} in (xi,eta), (xi,eta'), (xi',eta), (xi',eta') order, and an
    optional "settings_rad", checked against the settings the tables share."""
    data = closed_object(data, "lhv-check input", ("tables",), ("settings_rad",))
    raw = data["tables"]
    if not isinstance(raw, list) or len(raw) != 4:
        raise InputError(f"'tables' must be an array of 4 table objects, got {shown(raw)}")
    tables = [JointDistribution.from_json_dict(t) for t in raw]
    if "settings_rad" in data:
        declared = ChshSettings.parse(data["settings_rad"], "settings_rad").as_radians()
        derived = ChshSettings.from_tables(tables).as_radians()
        if max(axis_distance(a, b) for a, b in zip(declared, derived)) > 1e-9:
            raise InputError("'settings_rad' disagrees with the per-table angles")
    return tables


def tables_to_json_dict(tables: Sequence[JointDistribution]) -> dict:
    """The ``tables_from_json_dict`` format; tables off the CHSH pattern raise."""
    return {
        "settings_rad": list(ChshSettings.from_tables(tables).as_radians()),
        "tables": [t.to_json_dict() for t in tables],
    }
