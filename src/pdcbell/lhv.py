"""Local-hidden-variable feasibility for the full six-outcome pattern.

A local model assigns each hidden variable value a deterministic outcome
per station per setting; the achievable correlation patterns form the
convex hull of the 6^2 * 6^2 = 1296 deterministic strategies.  Membership
in that polytope of a Behavior, four observed tables in the (xi,eta),
(xi,eta'), (xi',eta), (xi',eta') pattern, is decided in three exact steps,
and an infeasibility verdict never rests on solver internals: a
BellCertificate enumerates its own local bound over all 1296 strategies
when it is built.

1. The best CHSH lifting, CHSH on any +-1 grouping of the six outcomes per
   station and setting, with local bound 2 (Pironio, J. Math. Phys. 46,
   062112 (2005)).  It covers the eight relabelings of the paper's CHSH, and
   its maximum does not change when a station's outcomes are relabelled.
   It settles the tables as infeasible when its gap, summed error-free,
   exceeds their L1 distance from their clipped, renormalized version (the
   slack a validated but slightly unnormalized input carries) by more than
   their rounding bound.  The optimal tables diluted to p_pair, relabelled
   or not, gap (sqrt 2 - 1) p_pair, are settled here down to p_pair of about
   2e-13, set by CLAMP_TOL: below it their smallest cells are zeroed.
2. Non-negative least squares (NNLS; Lawson & Hanson, Solving Least Squares
   Problems, 1974) of the clipped, renormalized tables.  A strategy of
   weight w adds w to each of its four cells, so an exact model weighs only
   strategies whose cells are all non-zero (27 of 1296 on the optimal
   tables, 37 diluted, 119 under per-photon loss).  NNLS over those, on the
   non-zero cells and the sum row, is accepted only at rounding level per cell.
3. NNLS over all 1296 strategies and 144 cells.  A fit within
   RECONSTRUCTION_TOL per cell is a model; otherwise its residual is a
   separating functional, by the KKT conditions.  A verified certificate
   from step 1 thus outranks that tolerance.

A model is one exact mixture, not a canonical one.  Each matrix, the
reconstruction check and synthesized tables come from one description of
the polytope, the four cells each strategy hits.  Both fits run on nnls, a
numpy Lawson-Hanson solver, so no verdict imports scipy.  All inputs and
outputs are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bell import CHSH_SIGNS, SIGN_TABLE, Behavior, ChshSettings, rounding_bound
from .errors import InputError, ModelError, shown
from .measurement import JointDistribution, axis_distance, closed_object, finite_floats, number


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use.  No verdict calls it, so no verdict
    imports scipy: it stays because the tests' LP oracle calls it and
    ``perfbench/workloads.py::_patch_program`` reads ``vars(lhv)["linprog"]``."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """The x >= 0 minimizing ||a x - b||, and that norm (Lawson & Hanson's active set).

    The passive columns sit in a preallocated buffer beside their Gram inverse, bordered as
    a column enters and downdated by rank one as one leaves (Bro & De Jong, J. Chemometrics
    11, 393 (1997)).  A column enters while its gradient exceeds max(m, n) eps ||a||_1, or,
    with a Schur complement within that, waits until a passive column leaves.  At most 3 n
    column choices (else RuntimeError); the final passive solution is refined once.
    """
    at = np.ascontiguousarray(np.asarray(a, dtype=float).T)  # column j as row j, one layout
    n, m = at.shape
    tol = max(m, n) * np.finfo(float).eps * np.abs(at).sum(axis=1).max()
    size, k = min(m, n), 0
    cols, inverse, passive = np.empty((size, m)), np.empty((size, size)), np.empty(size, dtype=int)
    x, atb, norms = np.zeros(n), at @ b, np.einsum("ij,ij->i", at, at)
    waiting = np.zeros(n, dtype=bool)  # passive, or dependent on the passive columns
    w = atb.copy()
    for _ in range(3 * n):
        w[waiting] = -np.inf
        j = int(w.argmax())
        if w[j] <= tol:
            break
        waiting[j] = True
        g = cols[:k] @ at[j]
        u = inverse[:k, :k] @ g
        schur = norms[j] - g @ u
        if schur <= tol or k == size:
            continue
        inverse[:k, :k] += u[:, None] * (u / schur)
        inverse[k, :k] = inverse[:k, k] = -u / schur
        inverse[k, k], cols[k], passive[k] = 1.0 / schur, at[j], j
        k += 1
        while (z := inverse[:k, :k] @ atb[passive[:k]]).min() <= 0.0:
            current = x[passive[:k]]
            neg = np.flatnonzero(z <= 0.0)
            ratios = current[neg] / (current[neg] - z[neg])
            x[passive[:k]] = current + ratios.min() * (z - current)
            x[passive[neg[ratios.argmin()]]] = 0.0
            for r in np.flatnonzero(x[passive[:k]] <= 0.0)[::-1]:
                x[passive[r]] = 0.0
                order = np.append(np.delete(np.arange(k), r), r)  # r last, the rest kept
                inverse[:k, :k] = inverse[np.ix_(order, order)]
                cols[:k], passive[:k] = cols[order], passive[order]
                k -= 1
                inverse[:k, :k] -= inverse[:k, k, None] * (inverse[:k, k] / inverse[k, k])
            waiting = np.isin(np.arange(n), passive[:k])  # a column left: dependencies may change
        x[passive[:k]] = z
        w = at @ (b - z @ cols[:k])
    else:
        raise RuntimeError("NNLS reached its iteration limit")
    p = passive[:k]
    x[p] = np.clip(x[p] + inverse[:k, :k] @ (cols[:k] @ (b - x[p] @ cols[:k])), 0.0, None)
    return x, float(np.linalg.norm(b - x @ at))


N_OUTCOMES = 6
N_STRATEGIES = (N_OUTCOMES**2) ** 2  # 1296

#: A returned model must reproduce its targets at least this well, per cell.
RECONSTRUCTION_TOL = 1e-7

#: Tolerance on a model's weights: their sign and their sum to 1.
BOUND_TOL = 1e-9

#: A fit over the supported strategies is accepted only at rounding level per
#: cell.  Least squares spreads its residual over the cells: on nonlocal tables
#: diluted to p_pair 2e-6 its per-cell miss (0.0298 p on the outcome-swapped
#: ones) falls below RECONSTRUCTION_TOL, which would call them local.
_EXACT_FIT_TOL = 1e-12


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


@dataclass(frozen=True, eq=False)
class LhvModel:
    """Probability weights over the 1296 deterministic strategies, finite numbers summing to 1."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = finite_floats(self.weights, "strategy weights", (N_STRATEGIES,))
        if arr.min() < -BOUND_TOL:
            raise InputError(f"negative strategy weight {arr.min()}")
        with np.errstate(over="ignore"):  # finite weights can sum to inf: an error, not a warning
            total = arr.sum()
        if abs(total - 1.0) > BOUND_TOL:
            raise InputError(f"weights sum to {total}, not 1")
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
    """Exact maximum over all 1296 strategies of a Bell functional, (4, 6, 6) finite numbers."""
    arr = finite_floats(coefficients, "coefficients", (4, N_OUTCOMES, N_OUTCOMES))
    with np.errstate(over="ignore"):  # finite coefficients can sum to inf: an error, not a warning
        bound = float(_strategy_values(arr).max())
    if not np.isfinite(bound):
        raise InputError(f"local bound of the coefficients is {bound}, not finite")
    return bound


def _certificate(coefficients: np.ndarray, stacked: np.ndarray) -> BellCertificate:
    """The functional ``coefficients`` as a certificate: its value on the ``stacked`` tables."""
    return BellCertificate(coefficients, float(np.sum(coefficients * stacked)))


@lru_cache(maxsize=1)
def _bob_groupings() -> np.ndarray:
    """Bob's pairs of groupings, +-1 flips of OUTCOME_VALUES, read-only (12, 2048).

    Column 64 g + g' stacks flip g at eta, its outcome 1 held (flipping Bob's
    and Alice's groupings keeps a lifting), over flip g' at eta'; column 0
    is the paper's grouping.
    """
    flips = 1.0 - 2.0 * np.indices((2,) * N_OUTCOMES).reshape(N_OUTCOMES, -1)
    pairs = np.vstack([np.repeat(flips[:, :32], 64, axis=1), np.tile(flips, 32)])
    pairs.flags.writeable = False
    return pairs


def _best_lifting(stacked: np.ndarray) -> np.ndarray:
    """The coefficients of the CHSH lifting with the largest value on ``stacked``.

    A lifting is CHSH_SIGNS on a +-1 grouping of the six outcomes per
    station and setting; regrouping moves the minus sign too, so this one
    sign pattern covers the eight relabelings.  Every pair of Bob's
    groupings is scored (_bob_groupings), and Alice's best grouping per
    setting is then the sign of a 6-vector.  Ties within rounding_bound of
    the tables keep the paper's grouping: the first Bob pair that close to
    the best score wins, and Alice keeps the paper's value of each outcome
    whose entry is at least minus that bound.
    """
    tol = rounding_bound(stacked)
    signed = np.array(CHSH_SIGNS)[:, None, None] * SIGN_TABLE
    # [(setting x, outcome i), (setting y, outcome j)], relative to the paper's values
    relative = (signed * stacked).reshape(2, 2, 6, 6).transpose(0, 2, 1, 3).reshape(12, 12)
    pairs = _bob_groupings()
    alice = relative @ pairs
    scores = np.ones(12) @ np.abs(alice, out=alice)
    best = pairs[:, np.flatnonzero(scores >= scores.max() - tol)[0]]
    a = np.where(relative @ best >= -tol, 1.0, -1.0).reshape(2, N_OUTCOMES)
    b = best.reshape(2, N_OUTCOMES)
    return signed * (a[:, None, :, None] * b[None, :, None, :]).reshape(4, N_OUTCOMES, N_OUTCOMES)


def _facet_verdict(stacked: np.ndarray) -> Infeasible | None:
    """Infeasible when the best CHSH lifting certifies it exactly, else None.

    Every lifting has local bound 2 (Pironio, J. Math. Phys. 46, 062112
    (2005)), and every local table set lies at least ``gap`` from
    ``stacked`` in summed L1 distance (the coefficients are +-1).  The
    products being exact, fsum rounds the gap and the slack to the clipped,
    renormalized tables (negative cells, then each table's off-sum)
    correctly, so a gap above that slack plus the tables' rounding bound
    cannot come from a local model off only by rounding or by the
    normalization a JointDistribution admits.
    """
    coefficients = _best_lifting(stacked)
    gap = math.fsum([-2.0, *(coefficients * stacked).ravel().tolist()])
    clipped = np.clip(stacked, 0.0, None).reshape(4, -1).tolist()
    off_sums = [abs(math.fsum([-1.0, *table])) for table in clipped]
    slack = math.fsum([*(-stacked[stacked < 0.0]).tolist(), *off_sums])
    if gap > slack + rounding_bound(stacked):
        return Infeasible(_certificate(coefficients, stacked))
    return None


def _fit(
    b_cells: np.ndarray, rows: np.ndarray, strategies: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray] | None:
    """NNLS of [cells; 1] w = [b; 1], w >= 0, over ``strategies`` on the ``rows`` cells.

    The matrix is dense 0/1, the rows of those cells and the sum row; no
    strategy given may hit a cell outside ``rows``.  Returns the weights
    clipped and renormalized, their largest per-cell miss of ``b_cells``, and
    the residual [b; 1] - [cells; 1] w; None when NNLS stops at its
    iteration limit.
    """
    a = np.zeros((len(rows) + 1, len(strategies)))
    a[np.searchsorted(rows, _strategy_cells()[:, strategies]), np.arange(len(strategies))] = 1.0
    a[-1] = 1.0
    target = np.append(b_cells[rows], 1.0)
    try:
        x, _ = nnls(a, target)
    except RuntimeError:  # iteration limit
        return None
    weights = np.zeros(N_STRATEGIES)
    weights[strategies] = np.clip(x, 0.0, None)
    weights /= weights.sum()
    return weights, float(np.abs(_cell_probs(weights) - b_cells).max()), target - a @ x


def lhv_feasible(tables: Sequence[JointDistribution]) -> Feasible | Infeasible:
    """Decide whether four tables admit any local-hidden-variable model.

    The three steps of the module docstring run in turn, and the first that
    decides returns.  The best CHSH lifting calls the tables Infeasible when
    its gap exceeds the L1 normalization slack plus their rounding bound.  The
    fits are to the clipped, renormalized tables, since a strategy mixture
    sums to 1 on every table.  Feasible returns one exact mixture,
    reproducing the targets to _EXACT_FIT_TOL per cell from the supported
    fit, or to RECONSTRUCTION_TOL from the full one.
    Infeasible returns a Bell functional with a strictly positive,
    enumeration-verified gap on the tables as given: a CHSH lifting, or the
    full fit's residual on the cells scaled to max-abs coefficient 1.
    ``tables`` is a Behavior, or four tables made one by ``Behavior.of``,
    which refuses them off its pattern.
    """
    stacked = Behavior.of(tables).probs
    clipped = np.clip(stacked, 0.0, None)
    normalized = clipped / clipped.sum(axis=(1, 2), keepdims=True)
    facet = _facet_verdict(stacked)
    if facet is not None:
        return facet
    b_cells = normalized.reshape(-1)
    supported = np.flatnonzero((b_cells[_strategy_cells()] > 0).all(axis=0))
    if 0 < len(supported) < N_STRATEGIES:
        fit = _fit(b_cells, np.flatnonzero(b_cells), supported)
        if fit is not None and fit[1] <= _EXACT_FIT_TOL:
            return Feasible(LhvModel(fit[0]), fit[1])
    fit = _fit(b_cells, np.arange(len(b_cells)), np.arange(N_STRATEGIES))
    if fit is None:
        raise ModelError("NNLS over all strategies stopped at its iteration limit")
    weights, error, residual = fit
    if error <= RECONSTRUCTION_TOL:
        return Feasible(LhvModel(weights), error)
    cells = residual[:-1] / np.abs(residual[:-1]).max()
    certificate = _certificate(cells.reshape(stacked.shape), stacked)
    if certificate.gap > 0.0:
        return Infeasible(certificate)
    raise ModelError("NNLS missed the tables but its residual separates nothing")


def synthesize_tables(model: LhvModel, settings: ChshSettings) -> Behavior:
    """The Behavior a strategy mixture produces at ``settings``."""
    tables = _cell_probs(model.weights).reshape(4, N_OUTCOMES, N_OUTCOMES)
    pairs = zip(settings.setting_pairs(), tables)
    return Behavior(JointDistribution(xi, eta, t) for (xi, eta), t in pairs)


def verify_certificate(
    cert: BellCertificate, tables: Sequence[JointDistribution]
) -> BellCertificate:
    """``cert``'s functional contracted with ``tables``, as a new certificate.

    ``tables`` is a Behavior, or four tables on its pattern (``Behavior.of``).
    Its local bound is enumerated afresh over the 1296 strategies, never
    taken from a solver, and its gap is its value on ``tables`` minus
    that bound.
    """
    return _certificate(cert.coefficients, Behavior.of(tables).probs)


# -- JSON interchange ---------------------------------------------------------


def verdict_to_json_dict(verdict: Feasible | Infeasible) -> dict:
    if isinstance(verdict, Feasible):
        return {
            "feasible": True,
            "model": [float(w) for w in verdict.model.weights],
            "reconstruction_error": verdict.reconstruction_error,
        }
    return {"feasible": False, "certificate": verdict.certificate.to_json_dict()}


def tables_from_json_dict(data) -> Behavior:
    """Parse the CLI interchange format, a closed object as each of its tables is:
    {"tables": [t0, t1, t2, t3]} in (xi,eta), (xi,eta'), (xi',eta), (xi',eta') order, and an
    optional "settings_rad", checked against the settings of the Behavior the tables make."""
    data = closed_object(data, "lhv-check input", ("tables",), ("settings_rad",))
    raw = data["tables"]
    if not isinstance(raw, list) or len(raw) != 4:
        raise InputError(f"'tables' must be an array of 4 table objects, got {shown(raw)}")
    behavior = Behavior(JointDistribution.from_json_dict(t) for t in raw)
    if "settings_rad" in data:
        declared = ChshSettings.parse(data["settings_rad"], "settings_rad").as_radians()
        if max(map(axis_distance, declared, behavior.settings.as_radians())) > 1e-9:
            raise InputError("'settings_rad' disagrees with the per-table angles")
    return behavior


def tables_to_json_dict(tables: Sequence[JointDistribution]) -> dict:
    """The ``tables_from_json_dict`` format of a Behavior (or of four tables, ``Behavior.of``)."""
    behavior = Behavior.of(tables)
    return {
        "settings_rad": list(behavior.settings.as_radians()),
        "tables": [t.to_json_dict() for t in behavior],
    }
