"""Every value type is immutable: no field can be reassigned, no array written.

A reassigned or written field would bypass the checks its constructor made,
so the value could hold what no constructor accepts (an event-log code of
200, say, which renders as a plausible CSV row).
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from pdcbell.bell import OPTIMAL_SETTINGS, ChshSettings, chsh_decomposition
from pdcbell.errors import InputError
from pdcbell.lhv import N_STRATEGIES, BellCertificate, LhvModel
from pdcbell.measurement import JointDistribution, PolarizerAngle, joint_distribution
from pdcbell.montecarlo import RunConfig, estimate_correlators, run_experiment
from pdcbell.optics import build_experiment_state


def _run_config():
    return RunConfig(
        total_time=1e-5, bin_width=1e-8, pair_probability=0.05, settings=OPTIMAL_SETTINGS, seed=7
    )


VALUES = {
    "PolarizerAngle": lambda: PolarizerAngle(0.3),
    "ChshSettings": lambda: OPTIMAL_SETTINGS,
    "JointDistribution": lambda: joint_distribution(
        build_experiment_state(), *OPTIMAL_SETTINGS.setting_pairs()[0]
    ),
    "StateVector": build_experiment_state,
    "RunConfig": _run_config,
    "EventLog": lambda: run_experiment(_run_config()),
    "EstimateReport": lambda: estimate_correlators(run_experiment(_run_config())),
    "LhvModel": lambda: LhvModel(np.full(N_STRATEGIES, 1.0 / N_STRATEGIES)),
    "BellCertificate": lambda: BellCertificate(np.zeros((4, 6, 6)), 1.0 + math.sqrt(2.0)),
    "ChshResult": lambda: chsh_decomposition(build_experiment_state(), OPTIMAL_SETTINGS),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_value_fields_cannot_be_changed(make):
    value = make()
    fields = dataclasses.fields(value)
    assert fields
    for field in fields:
        current = getattr(value, field.name)
        with pytest.raises(AttributeError):
            setattr(value, field.name, current)
        if isinstance(current, np.ndarray):
            assert not current.flags.writeable, field.name
            with pytest.raises(ValueError, match="read-only"):
                current.reshape(-1)[0] = 1
        assert getattr(value, field.name) is current
    assert isinstance(value == make(), bool)


ANGLE = PolarizerAngle(0.0)

#: Each array field, with a valid value and how to build its value type from it.
ARRAY_FIELDS = {
    "probs": (np.full((6, 6), 1.0 / 36.0), lambda a: JointDistribution(ANGLE, ANGLE, a)),
    "weights": (np.full(N_STRATEGIES, 1.0 / N_STRATEGIES), LhvModel),
    "coefficients": (np.zeros((4, 6, 6)), lambda a: BellCertificate(a, 1.0)),
}


def _first(a):
    """True at the first entry of ``a`` only."""
    return np.arange(a.size).reshape(a.shape) == 0


#: Entries that are no finite real numbers, each in the field's shape.  Bools
#: sit one-hot, so a cast would sum to 1 as the tables and weights must.
NON_NUMBERS = {
    "strings": lambda a: a.astype(str),
    "bools": _first,
    "objects": lambda a: a.astype(object),
    "nan": lambda a: np.where(_first(a), math.nan, a),
    "inf": lambda a: np.where(_first(a), math.inf, a),
}


@pytest.mark.parametrize("corrupt", NON_NUMBERS.values(), ids=NON_NUMBERS.keys())
@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_array_fields_hold_only_finite_numbers(field, corrupt):
    valid, make = ARRAY_FIELDS[field]
    make(valid)
    with pytest.raises(InputError):
        make(corrupt(valid))


@pytest.mark.parametrize(
    "field, message",
    [("probs", "probability table sums to inf, not 1"), ("weights", "weights sum to inf, not 1")],
)
def test_finite_entries_summing_to_inf_raise_no_warning(field, message):
    valid, make = ARRAY_FIELDS[field]
    huge = np.where(np.arange(valid.size).reshape(valid.shape) < 2, 1e308, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as caught:
            make(huge)
    assert str(caught.value) == message


#: Values built with a plain number or tuple in a typed field, and the message naming that field.
UNTYPED = {
    "JointDistribution": (
        lambda: JointDistribution(PolarizerAngle(0.0), 0.0, np.full((6, 6), 1.0 / 36)),
        "eta must be a PolarizerAngle, got 0.0",
    ),
    "ChshSettings": (
        lambda: ChshSettings(PolarizerAngle(0.0), 1.0, 2.0, 3.0),
        "xi_prime must be a PolarizerAngle, got 1.0",
    ),
    "RunConfig": (
        lambda: dataclasses.replace(_run_config(), settings=(0, 1, 2, 3)),
        "settings must be a ChshSettings, got (0, 1, 2, 3)",
    ),
}


@pytest.mark.parametrize("make, message", UNTYPED.values(), ids=UNTYPED.keys())
def test_typed_fields_are_checked_when_built(make, message):
    with pytest.raises(InputError) as caught:
        make()
    assert str(caught.value) == message
