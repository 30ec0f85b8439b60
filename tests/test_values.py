"""Every value type is immutable: no field can be reassigned, no array written.

A reassigned or written field would bypass the checks its constructor made,
so the value could hold what no constructor accepts (an event-log code of
200, say, which renders as a plausible CSV row).
"""

import dataclasses
import math

import numpy as np
import pytest

from pdcbell.bell import OPTIMAL_SETTINGS
from pdcbell.lhv import N_STRATEGIES, BellCertificate, LhvModel
from pdcbell.measurement import PolarizerAngle, joint_distribution
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
    "BellCertificate": lambda: BellCertificate(np.zeros((4, 6, 6)), 2.0, 1.0 + math.sqrt(2.0)),
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
