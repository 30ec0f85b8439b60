"""Self-test of the benchmark harness, at toy size.

Run from the checkout root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

import harness

harness.use_checkout_sources()

import run  # noqa: E402
import workloads  # noqa: E402
from pdcbell.lhv import N_STRATEGIES, Feasible, LhvModel  # noqa: E402
from pdcbell.montecarlo import EventLog, RunConfig, run_experiment  # noqa: E402

TOY_BINS = 40_000
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "theory": {"optimize_s", "chsh_s", "lhv_check_s"},
    "lhv-sweep": {"lhv_decide_ms"},
    "counting-csv": {"simulate_s", "analyze_s"},
    "counting-lossy": {"sim_mbins_per_s", "estimate_ms"},
}


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in workloads.PER_LAYER.items()
    ]


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_run_emits_every_metric(workload, trace):
    report = run.measure(workload, seed=3, seconds=0.5, trace=trace, n_bins=TOY_BINS)
    line = run.result_line(report)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert line["correct"] and line["attempted"] >= 1
    assert json.loads(json.dumps(line)) == line
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
        for name in NAMED[workload] | {"setup_s", "op_p50_ms"}:
            assert {"value", "unit", "n", "tail", "tail_pct"} <= report["metrics"][name].keys()
        assert 0.0 <= report["failed_ratio"] < 1.0
    assert report["provenance"]["nproc"] >= 1


def test_feasible_verdicts_on_sweep_tables_are_failures():
    model = LhvModel([1.0 / N_STRATEGIES] * N_STRATEGIES)
    for p_pair, known in ((1e-2, False), (1e-7, True)):
        instance = workloads.LhvInstance("sweep", tuple(workloads.optimal_tables(p_pair)), False, p_pair)
        problems = workloads.check_verdict(instance, Feasible(model, 0.0))
        assert problems and "Feasible verdict" in problems[0]
        assert instance.known_defect is known


def test_corrupted_table_counts_as_failure():
    tally = workloads.Tally()
    samples = defaultdict(list)
    tables = workloads.optimal_tables(1.0)
    workloads.decide(workloads.LhvInstance("three tables", tuple(tables[:3]), False), harness.NoTracer(), tally, samples)
    assert (tally.attempted, tally.failed, tally.known) == (1, 1, 0)

    theory = workloads.Theory(seed=3, n_bins=TOY_BINS)
    data = json.loads(theory.table_files[1.0].read_text())
    data["tables"][0]["probs"][0] = -0.5
    corrupted = harness.WORK / "corrupted_tables.json"
    corrupted.write_text(json.dumps(data))
    theory.table_files[1.0] = corrupted
    tally = workloads.Tally()
    ctx = workloads.Context(harness.NoTracer(), workloads.inprocess_cli(harness.NoTracer()))
    theory.cycle(ctx, tally, samples, 0)
    assert (tally.attempted, tally.failed) == (6, 1)
    assert not tally.correct
    assert "exit 2, expected 3" in next(iter(tally.problems))


def test_corrupted_event_log_counts_as_failure():
    counting = workloads.CountingCsv(seed=3, n_bins=2_000)
    plain = workloads.inprocess_cli(harness.NoTracer())

    def corrupting_cli(argv):
        result = plain(argv)
        if argv[0] == "simulate":
            lines = counting.csv_path.read_bytes().split(b"\r\n")
            lines[5] = lines[5][:-1] + b"9"
            counting.csv_path.write_bytes(b"\r\n".join(lines))
        return result

    tally = workloads.Tally()
    counting.cycle(workloads.Context(harness.NoTracer(), corrupting_cli), tally, defaultdict(list), 0)
    assert (tally.attempted, tally.failed) == (3, 2)
    problems = " ".join(tally.problems)
    assert "CSV differs" in problems and "analyze: exit 2, expected 0" in problems


def test_render_csv_matches_event_log_writer():
    config = RunConfig.from_json_dict(workloads.run_config(5, 12_345, 0.3, 0.8))
    with pytest.warns(UserWarning):
        log = run_experiment(config)
    path = harness.WORK / "render.csv"
    log.to_csv(path)
    assert path.read_bytes() == workloads.render_csv(log)
    assert EventLog.from_csv(path) == log
    path.unlink()


def test_lossy_reference_reduces_to_the_dilution_law():
    for p_pair in (1.0, 0.1, 0.01):
        value = workloads.lossy_reference_chsh(workloads.OPTIMAL_SETTINGS, p_pair, 1.0)
        assert value == pytest.approx(workloads.diluted_value(p_pair), abs=1e-12)


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   encodings",
            "import time:        50 |       4000 |       scipy.optimize",
            "import time:        10 |       6000 |     pdcbell.lhv",
            "import time:        20 |       9000 |   pdcbell",
            "import time:        30 |        300 |   pdcbell.cli",
        ]
    )
    assert run.parse_importtime(text) == (9.3, 4.0)
