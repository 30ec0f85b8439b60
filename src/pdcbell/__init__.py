"""Simulation of an idealized type-I down-conversion Bell experiment.

The package builds the two-photon state behind a waveplate-plus-beamsplitter
layout, computes the full six-outcome joint statistics at both detection
stations (keeping the bins where both photons end up on one side, and the
empty bins), evaluates the modified CHSH functional over that full pattern,
decides by CHSH liftings and non-negative least squares whether the pattern
admits any local hidden variable model, and simulates the time-binned
counting protocol that makes the whole scheme work without an event-ready
source.

Importing the package loads none of its submodules: each exported name, and
each submodule, is imported on first access (PEP 562), so a command loads
only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule and the names it exports from the package.
_EXPORTED_BY = {
    "bell": (
        "CHSH_SIGNS", "Behavior", "ChshResult", "ChshSettings", "OPTIMAL_SETTINGS",
        "chsh_decomposition", "chsh_from_tables", "chsh_operator_expectation", "optimize_angles",
    ),
    "errors": ("InputError", "ModelError", "PdcBellError"),
    "fock": ("ModeId", "StateVector", "apply_mode_unitary", "inner_product"),
    "lhv": (
        "BellCertificate", "Feasible", "Infeasible", "LhvModel", "lhv_feasible",
        "synthesize_tables", "verify_certificate",
    ),
    "measurement": (
        "JointDistribution", "OutcomeClass", "PolarizerAngle", "classify_occupation",
        "joint_distribution", "marginal", "rotate_station_basis",
    ),
    "montecarlo": (
        "EstimateReport", "EventLog", "RunConfig", "estimate_correlators", "run_experiment",
        "station_response",
    ),
    "optics": (
        "PairAmplitude", "apply_beamsplitter", "apply_waveplate", "attach_vacuum",
        "build_experiment_state", "source_state",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTED_BY.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """An exported name or a submodule, imported on first access and then cached here."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTED_BY:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTED_BY})
