"""Local-hidden-variable feasibility for the full six-outcome pattern.

A local model assigns each hidden variable value a deterministic outcome
per station per setting; the achievable correlation patterns form the
convex hull of the 6^2 * 6^2 = 1296 deterministic strategies.  Membership
of four observed tables in that polytope is decided in two steps, and an
infeasibility verdict never rests on solver internals: its certificate's
local bound is always re-established by brute-force maximization over all
1296 strategies.

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
mismatch between a weighted strategy mixture and the target tables.  Zero
mismatch means an explicit model exists; positive mismatch means
separation, and the LP dual supplies the separating Bell functional.  Its
constraint matrix is built once, as a sparse CSC matrix, and every solve
reuses it.  Only this step imports scipy.  All inputs and outputs are
immutable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .bell import CHSH_SIGNS, SIGN_TABLE, ChshSettings
from .errors import (
    BoundMismatchError,
    CertificateExtractionError,
    InputError,
    MalformedTablesError,
)
from .measurement import JointDistribution


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use.

    scipy.optimize takes most of the package's import time, and only the
    LP needs it, so commands that never decide feasibility do not pay it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


N_OUTCOMES = 6
N_STRATEGIES = (N_OUTCOMES**2) ** 2  # 1296

#: A returned model must reproduce its targets at least this well, per cell.
RECONSTRUCTION_TOL = 1e-7

#: Tolerance for the stored-vs-recomputed local bound comparison.
BOUND_TOL = 1e-9

#: Rounding allowance on a facet gap.  The CHSH value is a sum of 144
#: products of +-1 with probabilities adding up to 4, so its rounding error
#: stays below 1e-13.
_FACET_GAP_TOL = 1e-12

#: The eight CHSH relabelings, in the fixed order the facet step breaks ties
#: by: the minus sign on each of the four setting pairs, CHSH_SIGNS first,
#: then the same four with the overall sign flipped.
_CHSH_PATTERNS = np.array(
    [
        [sign * (-1.0 if k == minus else 1.0) for k in range(4)]
        for sign in (1.0, -1.0)
        for minus in (3, 0, 1, 2)
    ]
)


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


@lru_cache(maxsize=1)
def _strategy_cells() -> np.ndarray:
    """The cell each strategy hits, per setting pair: a read-only (4, 1296) array.

    Entry [pair, k] is the flat cell index 36 pair + 6 (i - 1) + (j - 1) of
    strategy k's outcome pair (i, j), strategies in canonical order.
    """
    s1, s2 = np.split(np.indices((N_OUTCOMES,) * 4).reshape(4, -1), 2)
    cells = np.stack([36 * pair + N_OUTCOMES * s1[pair // 2] + s2[pair % 2] for pair in range(4)])
    cells.flags.writeable = False
    return cells


@lru_cache(maxsize=1)
def _constraint_matrix() -> np.ndarray:
    """Read-only (144, 1296) matrix: cell (pair, i, j) indicator per strategy."""
    rows = np.zeros((4 * N_OUTCOMES * N_OUTCOMES, N_STRATEGIES))
    rows[_strategy_cells(), np.arange(N_STRATEGIES)] = 1.0
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=1)
def _phase_one_matrix():
    """The phase-one LP's equality matrix, built once as a read-only CSC.

    Blocks [cells | +I | -I ; 1...1 | 0 | 0] over the variables [weights
    (1296), slack+ (144), slack- (144)].  Only the LP path imports scipy.
    """
    from scipy.sparse import csc_array

    eye = np.eye(4 * N_OUTCOMES**2)
    sums = np.concatenate([np.ones(N_STRATEGIES), np.zeros(2 * len(eye))])
    matrix = csc_array(np.block([[_constraint_matrix(), eye, -eye], [sums]]))
    for part in (matrix.data, matrix.indices, matrix.indptr):
        part.flags.writeable = False
    return matrix


@dataclass(frozen=True)
class LhvModel:
    """Probability weights over the 1296 deterministic strategies."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.weights, dtype=float)
        if arr.shape != (N_STRATEGIES,):
            raise InputError(f"weights must have length {N_STRATEGIES}, got {arr.shape}")
        if arr.min() < -BOUND_TOL:
            raise InputError(f"negative strategy weight {arr.min()}")
        if abs(arr.sum() - 1.0) > BOUND_TOL:
            raise InputError(f"weights sum to {arr.sum()}, not 1")
        arr = np.clip(arr, 0.0, None)
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)


@dataclass(frozen=True)
class BellCertificate:
    """A linear functional separating some tables from the local polytope.

    ``coefficients`` has shape (4, 6, 6): one weight per (setting pair,
    outcome i, outcome j) cell.  ``local_bound`` is the maximum of the
    functional over all deterministic strategies and ``quantum_value`` its
    value on the separated tables.
    """

    coefficients: np.ndarray
    local_bound: float
    quantum_value: float

    def __post_init__(self) -> None:
        arr = np.array(self.coefficients, dtype=float)
        if arr.shape != (4, N_OUTCOMES, N_OUTCOMES):
            raise InputError(f"coefficients must have shape (4, 6, 6), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

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

    @property
    def feasible(self) -> bool:
        return True


@dataclass(frozen=True)
class Infeasible:
    """No local model exists; the certificate proves it."""

    certificate: BellCertificate

    @property
    def feasible(self) -> bool:
        return False


def _strategy_values(coefficients: np.ndarray) -> np.ndarray:
    """Functional value of every deterministic strategy, vectorized."""
    return coefficients.reshape(-1)[_strategy_cells()].sum(axis=0)


def local_bound_by_enumeration(coefficients: np.ndarray) -> float:
    """Exact maximum of a Bell functional over all 1296 strategies."""
    return float(_strategy_values(np.asarray(coefficients, dtype=float)).max())


def contract_tables(coefficients: np.ndarray, tables: Sequence[JointDistribution]) -> float:
    """Value of a Bell functional on four observed tables."""
    stacked = np.stack([t.probs for t in tables])
    return float(np.sum(np.asarray(coefficients, dtype=float) * stacked))


def _certificate(coefficients: np.ndarray, tables: Sequence[JointDistribution]) -> BellCertificate:
    """``coefficients`` against ``tables``, with the local bound by enumeration."""
    return BellCertificate(
        coefficients,
        local_bound=local_bound_by_enumeration(coefficients),
        quantum_value=contract_tables(coefficients, tables),
    )


def chsh_certificate(tables: Sequence[JointDistribution]) -> BellCertificate:
    """The CHSH functional itself, packaged as a certificate against ``tables``."""
    return _certificate(np.stack([s * SIGN_TABLE for s in CHSH_SIGNS]), tables)


def _validate_tables(tables: Sequence[JointDistribution]) -> np.ndarray:
    if len(tables) != 4:
        raise MalformedTablesError(f"need exactly 4 tables, got {len(tables)}")
    stacked = np.stack([np.asarray(t.probs, dtype=float) for t in tables])
    if stacked.min() < -1e-9:
        raise MalformedTablesError(f"negative table entry {stacked.min()}")
    sums = stacked.reshape(4, -1).sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise MalformedTablesError(f"tables are not normalized: sums {sums}")
    return stacked


def _facet_verdict(
    stacked: np.ndarray, tables: Sequence[JointDistribution]
) -> Infeasible | None:
    """Infeasible when the best CHSH relabeling certifies it exactly, else None.

    Every local table set lies at least ``gap`` from ``stacked`` in summed
    L1 distance (the coefficients are +-1), so a gap above the slack of
    the clipped, renormalized tables plus _FACET_GAP_TOL cannot come from a
    local model that is off only by the normalization the validator admits.
    """
    correlators = (stacked * SIGN_TABLE).sum(axis=(1, 2))
    pattern = _CHSH_PATTERNS[int(np.argmax(_CHSH_PATTERNS @ correlators))]
    certificate = _certificate(pattern[:, None, None] * SIGN_TABLE, tables)
    clipped = np.clip(stacked, 0.0, None)
    normalized = clipped / clipped.sum(axis=(1, 2), keepdims=True)
    slack = float(np.abs(stacked - normalized).sum())
    if certificate.gap > slack + _FACET_GAP_TOL:
        return Infeasible(certificate)
    return None


def lhv_feasible(tables: Sequence[JointDistribution]) -> Feasible | Infeasible:
    """Decide whether four tables admit any local-hidden-variable model.

    The facet step runs first: when the best of the eight CHSH relabelings
    exceeds its enumerated local bound (2) by more than the tables' L1
    normalization slack plus _FACET_GAP_TOL, the verdict is Infeasible with
    that CHSH certificate, and no LP is built.  Otherwise the LP decides:
    for local tables, and for CHSH-violating tables too close to the facet,
    such as the optimal tables diluted below p_pair 2.5e-12 (see the
    module docstring).

    Feasible returns an explicit strategy mixture reproducing the tables to
    RECONSTRUCTION_TOL per cell.  Infeasible from the LP returns a Bell
    functional with a strictly positive, enumeration-verified gap, scaled
    to max-abs coefficient 1.
    """
    stacked = _validate_tables(tables)
    facet = _facet_verdict(stacked, tables)
    if facet is not None:
        return facet
    b_cells = stacked.reshape(-1)
    a_cells = _constraint_matrix()
    n_cells = a_cells.shape[0]
    b_eq = np.concatenate([b_cells, [1.0]])
    cost = np.concatenate([np.zeros(N_STRATEGIES), np.ones(2 * n_cells)])

    result = linprog(cost, A_eq=_phase_one_matrix(), b_eq=b_eq, bounds=(0, None), method="highs")
    if not result.success:  # pragma: no cover - phase-one LP is always feasible
        raise CertificateExtractionError(f"LP solver failed: {result.message}")

    weights = np.clip(result.x[:N_STRATEGIES], 0.0, None)
    weights /= weights.sum()
    error = float(np.abs(a_cells @ weights - b_cells).max())
    if error <= RECONSTRUCTION_TOL:
        return Feasible(LhvModel(weights), error)

    dual = np.asarray(result.eqlin.marginals[:n_cells], dtype=float)
    scale = np.abs(dual).max()
    # Max-abs scaling to 1 also lands CHSH-shaped functionals on their
    # conventional local bound of 2; an all-zero dual separates nothing.
    for candidate in (dual, -dual) if scale > 0.0 else ():
        certificate = _certificate((candidate / scale).reshape(4, N_OUTCOMES, N_OUTCOMES), tables)
        if certificate.gap > 0.0:
            return Infeasible(certificate)
    raise CertificateExtractionError(
        "LP reported mismatch but no verifiable separating functional was found"
    )


def synthesize_tables(model: LhvModel, settings: ChshSettings) -> list[JointDistribution]:
    """The four joint tables a strategy mixture produces."""
    cells = _strategy_cells().reshape(-1)
    probs = np.bincount(cells, weights=np.tile(model.weights, 4), minlength=4 * N_OUTCOMES**2)
    tables = probs.reshape(4, N_OUTCOMES, N_OUTCOMES)
    return [JointDistribution(xi, eta, t) for (xi, eta), t in zip(settings.setting_pairs(), tables)]


@dataclass(frozen=True)
class CertificateReport:
    """Independent re-verification of a certificate by strategy enumeration."""

    recomputed_local_bound: float
    quantum_value: float
    gap: float


def verify_certificate(
    cert: BellCertificate, tables: Sequence[JointDistribution]
) -> CertificateReport:
    """Recompute a certificate's bound and value from scratch.

    The local bound comes from exhaustive maximization over the 1296
    strategies, not from any LP output; a stored bound that disagrees by
    more than BOUND_TOL raises BoundMismatchError.
    """
    bound = local_bound_by_enumeration(cert.coefficients)
    if abs(bound - cert.local_bound) > BOUND_TOL:
        raise BoundMismatchError(
            f"stored local bound {cert.local_bound} vs recomputed {bound}"
        )
    value = contract_tables(cert.coefficients, tables)
    return CertificateReport(bound, value, value - bound)


# -- JSON interchange ---------------------------------------------------------


def verdict_to_json_dict(verdict: Feasible | Infeasible) -> dict:
    if isinstance(verdict, Feasible):
        return {
            "feasible": True,
            "model": [float(w) for w in verdict.model.weights],
            "reconstruction_error": verdict.reconstruction_error,
        }
    return {"feasible": False, "certificate": verdict.certificate.to_json_dict()}


def tables_from_json_dict(data: Mapping) -> list[JointDistribution]:
    """Parse the CLI interchange format: four tables plus optional settings.

    Expected shape: {"tables": [table, table, table, table]} with each table
    in the measurement JSON format, ordered (xi,eta), (xi,eta'), (xi',eta),
    (xi',eta'); an optional "settings_rad" entry is cross-checked.
    """
    try:
        raw = data["tables"]
    except (KeyError, TypeError) as exc:
        raise InputError("tables JSON must contain a 'tables' array") from exc
    if not isinstance(raw, Sequence) or len(raw) != 4:
        raise InputError("'tables' must be an array of exactly 4 tables")
    tables = [JointDistribution.from_json_dict(t) for t in raw]
    if "settings_rad" in data:
        try:
            declared = [float(a) for a in data["settings_rad"]]
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed 'settings_rad': {exc}") from exc
        if len(declared) != 4 or not all(math.isfinite(a) for a in declared):
            raise InputError("'settings_rad' must list 4 finite angles")
        settings = ChshSettings.from_radians(*declared)
        for table, (xi, eta) in zip(tables, settings.setting_pairs()):
            if abs(table.xi.angle - xi.angle) > 1e-9 or abs(table.eta.angle - eta.angle) > 1e-9:
                raise InputError("'settings_rad' disagrees with the per-table angles")
    return tables


def tables_to_json_dict(tables: Sequence[JointDistribution]) -> dict:
    """The ``tables_from_json_dict`` format; tables off the CHSH pattern raise."""
    return {
        "settings_rad": list(ChshSettings.from_tables(tables).as_radians()),
        "tables": [t.to_json_dict() for t in tables],
    }
