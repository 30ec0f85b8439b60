"""The number rule: every scalar and array input is checked, and every bad value shown in one place.

``measurement.number`` decides whether a scalar is a valid number,
``measurement.finite_floats`` whether an array holds only such numbers, and
``errors.shown`` how a bad value appears in a message.  Whatever a
constructor is handed where a number belongs (a bool, a string, None, NaN,
inf, an int beyond the float range that Python cannot even write as a
string, a numpy scalar or an ordinary value), it either succeeds or raises
InputError.  Examples are derandomized and no example database is kept, so
the suite stays deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcbell.bell import OPTIMAL_SETTINGS, ChshSettings
from pdcbell.errors import InputError, shown
from pdcbell.lhv import (
    N_STRATEGIES,
    BellCertificate,
    LhvModel,
    tables_from_json_dict,
    tables_to_json_dict,
)
from pdcbell.measurement import (
    JointDistribution,
    PolarizerAngle,
    finite_floats,
    joint_distribution,
    marginal,
    number,
)
from pdcbell.montecarlo import RunConfig, station_response
from pdcbell.optics import PairAmplitude, build_experiment_state

HUGE = 10**5000
BITS = HUGE.bit_length()  # 16 610

#: Anything a numeric field may be handed.
NUMBERS = st.one_of(
    st.sampled_from([True, False, "0.5", "x", None, math.nan, math.inf, -math.inf, HUGE, -HUGE]),
    st.sampled_from(
        [np.float64(0.5), np.float32(math.nan), np.float64(-math.inf), np.int64(2), np.uint8(1)]
    ),
    st.sampled_from([np.bool_(True), np.str_("1"), np.complex128(1.0)]),
    st.floats(-4.0, 4.0),
    st.integers(-3, 5),
)

ANGLE = PolarizerAngle(0.0)
TABLES = [
    joint_distribution(build_experiment_state(), xi, eta)
    for xi, eta in OPTIMAL_SETTINGS.setting_pairs()
]
TABLE = TABLES[0]
PROBS = [float(p) for p in TABLE.probs.reshape(-1)]
CONFIG = {
    "T": 1e-5,
    "tau": 1e-8,
    "p_pair": 0.01,
    "settings_rad": list(OPTIMAL_SETTINGS.as_radians()),
    "seed": 7,
    "L": 30.0,
    "detector_efficiency": 0.9,
}


def field(valid):
    """A valid value, or anything else."""
    return st.one_of(st.just(valid), NUMBERS)


def patched(data, valid: list, shape: tuple | None = None) -> list:
    """``valid`` with up to three entries replaced by anything, nested in ``shape``."""
    out = list(valid)
    replacements = st.lists(st.tuples(st.integers(0, len(out) - 1), NUMBERS), max_size=3)
    for index, value in data.draw(replacements):
        out[index] = value
    return out if shape is None else np.array(out, dtype=object).reshape(shape).tolist()


def config_json(data) -> dict:
    config = {key: data.draw(field(value)) for key, value in CONFIG.items()}
    config["settings_rad"] = patched(data, CONFIG["settings_rad"])
    return config


def tables_json(data) -> dict:
    tables = tables_to_json_dict(TABLES)
    for table in tables["tables"]:
        table["probs"] = patched(data, table["probs"])
        table["xi_rad"] = data.draw(field(table["xi_rad"]))
    tables["settings_rad"] = patched(data, tables["settings_rad"])
    return data.draw(st.sampled_from([tables, {"tables": data.draw(NUMBERS)}]))


CALLS = {
    "PolarizerAngle": lambda d: PolarizerAngle(d.draw(NUMBERS)),
    "ChshSettings.parse": lambda d: ChshSettings.parse(
        d.draw(st.lists(field(0.5), max_size=5)), "settings_rad"
    ),
    "RunConfig": lambda d: RunConfig(
        total_time=d.draw(field(1e-5)),
        bin_width=d.draw(field(1e-8)),
        pair_probability=d.draw(field(0.01)),
        settings=OPTIMAL_SETTINGS,
        seed=d.draw(field(7)),
        station_separation=d.draw(field(None) | field(30.0)),
        detector_efficiency=d.draw(field(0.9)),
    ),
    "RunConfig.from_json_dict": lambda d: RunConfig.from_json_dict(config_json(d)),
    "station_response": lambda d: station_response(
        d.draw(field(0.9)), d.draw(field(None) | field(4))
    ),
    "PairAmplitude.from_pair_probability": lambda d: PairAmplitude.from_pair_probability(
        d.draw(NUMBERS)
    ),
    "JointDistribution": lambda d: JointDistribution(
        d.draw(st.just(ANGLE) | NUMBERS), ANGLE, patched(d, PROBS, (6, 6))
    ),
    "JointDistribution.from_json_dict": lambda d: JointDistribution.from_json_dict(
        {"xi_rad": d.draw(field(0.0)), "eta_rad": d.draw(field(0.5)), "probs": patched(d, PROBS)}
    ),
    "tables_from_json_dict": lambda d: tables_from_json_dict(tables_json(d)),
    "LhvModel": lambda d: LhvModel(patched(d, [1.0 / N_STRATEGIES] * N_STRATEGIES)),
    "BellCertificate": lambda d: BellCertificate(
        patched(d, [0.0] * 144, (4, 6, 6)), d.draw(field(2.5))
    ),
    "marginal": lambda d: marginal(TABLE, d.draw(field(1))),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_constructors_raise_only_input_error(call, data):
    try:
        call(data)
    except InputError:
        pass


#: Inputs that once escaped as ValueError (an int Python cannot write as a
#: string), TypeError or silent acceptance, with the message each now gets.
ESCAPES = {
    "run-config-huge-time": (
        lambda: RunConfig(
            HUGE, bin_width=1e-8, pair_probability=0.01, settings=OPTIMAL_SETTINGS, seed=7
        ),
        f"T = <int of {BITS} bits> is not finite",
    ),
    "station-response-huge-efficiency": (
        lambda: station_response(HUGE),
        f"efficiency = <int of {BITS} bits> is not finite",
    ),
    "settings-parse-huge-angle": (
        lambda: ChshSettings.parse([HUGE], "x"),
        f"x must list 4 angles, got [<int of {BITS} bits>]",
    ),
    "tables-huge-entry": (
        lambda: tables_from_json_dict({"tables": [HUGE]}),
        f"'tables' must be an array of 4 table objects, got [<int of {BITS} bits>]",
    ),
    "marginal-huge-station": (
        lambda: marginal(TABLE, HUGE),
        f"station = <int of {BITS} bits> is not finite",
    ),
    "pair-probability-string": (
        lambda: PairAmplitude.from_pair_probability("0.5"),
        "pair probability = '0.5' is not a number",
    ),
    "config-huge-key": (
        lambda: RunConfig.from_json_dict({**CONFIG, HUGE: 1}),
        f"unknown run config key(s): <int of {BITS} bits>",
    ),
    "weights-bool-in-list": (
        lambda: LhvModel([True] + [0.0] * (N_STRATEGIES - 1)),
        "strategy weights[0] = True is not a number",
    ),
}


@pytest.mark.parametrize("make, message", ESCAPES.values(), ids=ESCAPES.keys())
def test_huge_ints_strings_and_bools_raise_input_error(make, message):
    with pytest.raises(InputError) as caught:
        make()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "value, interval, integer, message",
    [
        (1.0, "(0, 1]", False, None),
        (0.0, "(0, 1]", False, "x = 0.0 outside (0, 1]"),
        (0, "[0, 1]", False, None),
        (1.5, "[0, 1]", False, "x = 1.5 outside [0, 1]"),
        (np.int64(2), "[2, inf)", True, None),
        (1, "[2, inf)", True, "x = 1 outside [2, inf)"),
        (2.0, "[2, inf)", True, "x = 2.0 is not an integer"),
        (True, "(-inf, inf)", False, "x = True is not a number"),
        (np.bool_(False), "(-inf, inf)", False, f"x = {np.bool_(False)!r} is not a number"),
        ("1", "(-inf, inf)", False, "x = '1' is not a number"),
        (1j, "(-inf, inf)", False, "x = 1j is not a number"),
        (-math.inf, "(-inf, inf)", False, "x = -inf is not finite"),
        pytest.param(
            -HUGE, "(-inf, inf)", True, f"x = -<int of {BITS} bits> is not finite", id="huge-int"
        ),
    ],
)
def test_number_rule(value, interval, integer, message):
    if message is None:
        assert number(value, "x", interval, integer) is value
    else:
        with pytest.raises(InputError) as caught:
            number(value, "x", interval, integer)
        assert str(caught.value) == message


def test_shown_never_writes_a_huge_int():
    assert shown({"T": [HUGE, -HUGE]}) == f"{{'T': [<int of {BITS} bits>, -<int of {BITS} bits>]}}"
    assert "..." in shown(2**1024 - 1)  # within the float range: cut, not refused
    assert shown("abcd") == "'abcd'"


@pytest.mark.parametrize(
    "values, message",
    [
        ([[0.0, True]], "t[0, 1] = True is not a number"),
        ([[0.0, None]], "t[0, 1] = None is not a number"),
        (np.array([[0.0, math.nan]]), "t[0, 1] = nan is not finite"),
        (np.array([[0.0, 1.0]], dtype=object), "t must be an array of real numbers, not object"),
        (np.array([[False, True]]), "t must be an array of real numbers, not bool"),
        ([0.0, 1.0], "t must have shape (1, 2), got (2,)"),
    ],
    ids=["bool-in-list", "none-in-list", "nan", "object-array", "bool-array", "shape"],
)
def test_finite_floats_names_the_bad_entry(values, message):
    assert finite_floats([[0.5, 2]], "t", (1, 2)).tolist() == [[0.5, 2.0]]
    with pytest.raises(InputError) as caught:
        finite_floats(values, "t", (1, 2))
    assert str(caught.value) == message
