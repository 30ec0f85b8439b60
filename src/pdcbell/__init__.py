"""Simulation of an idealized type-I down-conversion Bell experiment.

The package builds the two-photon state behind a waveplate-plus-beamsplitter
layout, computes the full six-outcome joint statistics at both detection
stations (keeping the bins where both photons end up on one side, and the
empty bins), evaluates the modified CHSH functional over that full pattern,
decides by CHSH liftings and non-negative least squares whether the pattern
admits any local hidden variable model, and simulates the time-binned
counting protocol that makes the whole scheme work without an event-ready
source.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .bell import (
    CHSH_SIGNS,
    Behavior,
    ChshResult,
    ChshSettings,
    OPTIMAL_SETTINGS,
    chsh_decomposition,
    chsh_from_tables,
    chsh_operator_expectation,
    optimize_angles,
)
from .errors import InputError, ModelError, PdcBellError
from .fock import (
    ModeId,
    StateVector,
    apply_mode_unitary,
    inner_product,
)
from .lhv import (
    BellCertificate,
    Feasible,
    Infeasible,
    LhvModel,
    lhv_feasible,
    synthesize_tables,
    verify_certificate,
)
from .measurement import (
    JointDistribution,
    OutcomeClass,
    PolarizerAngle,
    classify_occupation,
    joint_distribution,
    marginal,
    rotate_station_basis,
)
from .montecarlo import (
    EstimateReport,
    EventLog,
    RunConfig,
    estimate_correlators,
    run_experiment,
    station_response,
)
from .optics import (
    PairAmplitude,
    apply_beamsplitter,
    apply_waveplate,
    attach_vacuum,
    build_experiment_state,
    source_state,
)

# The submodules bound by the imports above are reached as attributes, not exported.
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
