"""Property tests: fuzzed input files never make ``cli.main`` crash.

``simulate`` reads a run-config JSON file and ``lhv-check`` a tables JSON
file.  Whatever those files hold, the command must exit 0 (3 for an
infeasible verdict) or exit 2 with an ``error:`` message; exit 4, any other
code or an escaping exception is a bug.

Examples are derandomized so the suite stays deterministic, and run lengths
are bounded: T stays within 1e-4 s and tau at or above 1e-8 s whenever both
are numbers, so no fuzzed run exceeds 10^4 bins.  The one exception sets T
to a value of ``HUGE_T``, whose ratio to any fuzzed tau (at most 1 s) is
infinite or above ``montecarlo.MAX_BINS``; such a config must exit 2 before
anything is allocated.  No fuzzed run lies between the two.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcbell import cli, montecarlo
from pdcbell.bell import OPTIMAL_SETTINGS
from pdcbell.lhv import LhvModel, N_STRATEGIES, synthesize_tables, tables_to_json_dict
from pdcbell.measurement import joint_distribution
from pdcbell.optics import build_experiment_state

FUZZ = settings(max_examples=120, deadline=5000, derandomize=True, database=None)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NON_NUMBERS = (
    st.none()
    | st.text(max_size=4)
    | st.lists(st.integers(-2, 2), max_size=3)
    | st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2)
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ")
    return code


VALID_CONFIG = {
    "T": 1e-5,
    "tau": 1e-8,
    "p_pair": 0.05,
    "settings_rad": list(OPTIMAL_SETTINGS.as_radians()),
    "seed": 99,
    "L": 10.0,
    "detector_efficiency": 0.8,
}
CONFIG_VALUES = {
    "T": st.sampled_from([1e-6, 0.0, -1e-6]) | st.floats(-1e-4, 1e-4) | NON_FINITE | NON_NUMBERS,
    "tau": st.sampled_from([1e-7, 0.0, -1e-8]) | st.floats(1e-8, 1.0) | st.booleans() | NON_FINITE | NON_NUMBERS,
    "p_pair": st.floats(0.0, 1.0) | JSON_VALUES,
    "settings_rad": st.lists(st.floats(), min_size=3, max_size=5) | JSON_VALUES,
    "seed": st.integers(-3, 2**70) | JSON_VALUES,
    "L": st.none() | st.floats(0.0, 100.0) | JSON_VALUES,
    "detector_efficiency": st.sampled_from([1.0]) | st.floats(-0.5, 1.5) | JSON_VALUES,
}
UNKNOWN_KEYS = st.text(max_size=6).filter(lambda key: key not in CONFIG_VALUES)


@st.composite
def run_configs(draw):
    """A valid config with up to three keys replaced, deleted or added."""
    config = dict(VALID_CONFIG)
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(CONFIG_VALUES)) | UNKNOWN_KEYS)
        if key in config and draw(st.booleans()):
            del config[key]
        else:
            config[key] = draw(CONFIG_VALUES.get(key, JSON_VALUES))
    return config


@FUZZ
@given(document=run_configs() | st.lists(JSON_VALUES, max_size=3) | SCALARS)
def test_simulate_fuzzed_config(tmp_path_factory, document):
    work = tmp_path_factory.mktemp("simulate")
    config = work / "run.json"
    config.write_text(json.dumps(document))
    if _run(["simulate", "--config", str(config), "--out", str(work / "log.csv")]) == 0:
        assert (work / "log.csv").read_bytes().startswith(b"bin,setting1")


#: Run lengths over the bin cap for every fuzzed tau (tau <= 1 s).
HUGE_T = (montecarlo.MAX_BINS * 10.0, 1e300, sys.float_info.max)


@FUZZ
@given(config=run_configs(), total_time=st.sampled_from(HUGE_T), bin_width=CONFIG_VALUES["tau"])
def test_simulate_huge_run_exits_2(tmp_path_factory, config, total_time, bin_width):
    work = tmp_path_factory.mktemp("huge")
    path = work / "run.json"
    path.write_text(json.dumps(dict(config, T=total_time, tau=bin_width)))
    assert _run(["simulate", "--config", str(path), "--out", str(work / "log.csv")]) == 2
    assert not (work / "log.csv").exists()


def _base_tables():
    psi = build_experiment_state()
    quantum = [joint_distribution(psi, xi, eta) for xi, eta in OPTIMAL_SETTINGS.setting_pairs()]
    weights = np.random.default_rng(5).random(N_STRATEGIES)
    local = synthesize_tables(LhvModel(weights / weights.sum()), OPTIMAL_SETTINGS)
    return quantum, local


QUANTUM, LOCAL = _base_tables()


#: Table mutations, applied in this order so a replaced container is not indexed.
TABLE_MUTATIONS = ("cell", "xi_rad", "eta_rad", "probs", "settings_rad", "tables")


@st.composite
def table_documents(draw):
    """A mixture of quantum and local tables with up to three mutations."""
    mix = draw(st.floats(0.0, 1.0))
    data = tables_to_json_dict(QUANTUM)
    for table, q, c in zip(data["tables"], QUANTUM, LOCAL):
        table["probs"] = [float(p) for p in (mix * q.probs + (1.0 - mix) * c.probs).reshape(-1)]
    mutations = draw(st.lists(st.sampled_from(TABLE_MUTATIONS), max_size=3))
    for kind in sorted(mutations, key=TABLE_MUTATIONS.index):
        value = draw(st.floats() | JSON_VALUES)
        if kind == "cell":
            data["tables"][draw(st.integers(0, 3))]["probs"][draw(st.integers(0, 35))] = value
        elif kind in ("xi_rad", "eta_rad", "probs"):
            data["tables"][draw(st.integers(0, 3))][kind] = value
        else:
            data[kind] = draw(st.lists(st.floats(), max_size=5)) if draw(st.booleans()) else value
    return data


@FUZZ
@given(document=table_documents() | JSON_VALUES)
def test_lhv_check_fuzzed_tables(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("lhv") / "tables.json"
    path.write_text(json.dumps(document))
    _run(["lhv-check", "--input", str(path)])
