import csv
import hashlib
import math

import numpy as np
import pytest

from pdcbell import montecarlo
from pdcbell.bell import ChshSettings, OPTIMAL_SETTINGS
from pdcbell.errors import EmptySettingPairError, InputError, InvalidConfigError
from pdcbell.measurement import LEGAL_MASK, PolarizerAngle, joint_distribution, outcome_occupation
from pdcbell.montecarlo import (
    EventLog,
    EventRecord,
    RunConfig,
    cascade_misclassification,
    estimate_chsh,
    estimate_correlators,
    run_experiment,
    sample_cascade,
    validate_config,
)
from pdcbell.optics import build_experiment_state

SQRT2 = math.sqrt(2.0)


def make_config(**overrides):
    base = dict(
        total_time=1e-3,
        bin_width=1e-8,
        pair_probability=0.01,
        settings=OPTIMAL_SETTINGS,
        seed=12345,
    )
    base.update(overrides)
    return RunConfig(**base)


# -- configuration validation -------------------------------------------------


def test_config_tau_within_light_travel_time():
    ok = make_config(station_separation=10.0, bin_width=1e-8, total_time=1e-3)
    assert validate_config(ok).ok
    bad = make_config(station_separation=1.0, bin_width=1e-8, total_time=1e-3)
    report = validate_config(bad)
    assert not report.ok
    assert any("L/c" in message for message in report.errors)


def test_config_bin_count_arithmetic():
    config = make_config(total_time=1.0, bin_width=1e-8)
    assert validate_config(config).ok
    assert config.n_bins == 10**8
    ragged = make_config(total_time=1.05e-8, bin_width=1e-8)
    assert not validate_config(ragged).ok


def test_config_pair_probability_warning():
    report = validate_config(make_config(pair_probability=0.5))
    assert report.ok
    assert report.warnings
    with pytest.warns(UserWarning):
        run_experiment(make_config(pair_probability=0.5, total_time=1e-6))


def test_config_errors_collected():
    report = validate_config(
        make_config(pair_probability=1.5, detector_efficiency=0.0, cascade_fanout=1)
    )
    assert len(report.errors) == 3
    with pytest.raises(InvalidConfigError):
        run_experiment(make_config(pair_probability=-0.1))


@pytest.mark.parametrize(
    "field", ["total_time", "bin_width", "pair_probability", "station_separation", "detector_efficiency"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(field, value):
    report = validate_config(make_config(**{field: value}))
    assert not report.ok
    assert "is not finite" in report.errors[0]
    with pytest.raises(InvalidConfigError):
        run_experiment(make_config(**{field: value}))


def test_config_json_round_trip():
    config = make_config(station_separation=30.0, detector_efficiency=0.8, cascade_fanout=4)
    back = RunConfig.from_json_dict(config.to_json_dict())
    assert back == config
    with pytest.raises(InvalidConfigError):
        RunConfig.from_json_dict({"T": 1.0})


# -- event generation ---------------------------------------------------------


def test_fixed_seed_reproduces_log():
    config = make_config()
    one, two = run_experiment(config), run_experiment(config)
    assert one == two
    other = run_experiment(make_config(seed=54321))
    assert other != one


def test_vacuum_only_run():
    log = run_experiment(make_config(pair_probability=0.0, total_time=1e-5))
    assert np.all(log.outcome1 == 3)
    assert np.all(log.outcome2 == 3)


def test_pair_every_bin_at_aligned_settings():
    settings = ChshSettings.from_radians(0.0, 0.0, 0.0, 0.0)
    with pytest.warns(UserWarning):
        log = run_experiment(
            make_config(pair_probability=1.0, settings=settings, total_time=4e-4)
        )
    pairs = set(zip(log.outcome1.tolist(), log.outcome2.tolist()))
    assert pairs == {(2, 1), (1, 2), (4, 3), (3, 4)}
    frequencies = [
        np.mean((log.outcome1 == i) & (log.outcome2 == j)) for i, j in sorted(pairs)
    ]
    assert np.allclose(frequencies, 0.25, atol=0.01)


def test_setting_choices_uniform():
    log = run_experiment(make_config(total_time=4e-4))
    for column in (log.setting1, log.setting2):
        assert abs(column.mean() - 0.5) < 0.01


def test_outcomes_respect_block_structure():
    with pytest.warns(UserWarning):
        log = run_experiment(make_config(pair_probability=0.2, total_time=1e-4))
    for record in list(log.records())[:2000]:
        i, j = record.outcome
        assert LEGAL_MASK[i - 1, j - 1]
    observed = np.zeros((6, 6), dtype=bool)
    observed[log.outcome1 - 1, log.outcome2 - 1] = True
    assert not observed[~LEGAL_MASK].any()


def test_records_iteration():
    log = run_experiment(make_config(total_time=1e-6))
    records = list(log.records())
    assert len(records) == 100
    assert records[0].bin == 1 and records[-1].bin == 100
    assert records[0] == EventRecord(
        1, (int(log.setting1[0]), int(log.setting2[0])), (int(log.outcome1[0]), int(log.outcome2[0]))
    )


def test_vacuum_fraction_tracks_pair_probability():
    p = 0.04
    config = make_config(pair_probability=p, total_time=4e-4)
    report = estimate_correlators(run_experiment(config))
    sigma = math.sqrt(p * (1 - p) / config.n_bins)
    assert abs(report.vacuum_fraction() - (1 - p)) < 5 * sigma
    for pair in range(4):
        assert abs(report.pair_vacuum_probability(pair) - (1 - p)) < 20 * sigma


def _thinned_table(probs: np.ndarray, eff: float) -> np.ndarray:
    """Independent oracle: binomial thinning of each port of each station."""

    def station_demotions(code):
        n_plus, n_minus = outcome_occupation(code)
        out = {}
        for keep_plus in range(n_plus + 1):
            for keep_minus in range(n_minus + 1):
                weight = (
                    math.comb(n_plus, keep_plus)
                    * eff**keep_plus
                    * (1 - eff) ** (n_plus - keep_plus)
                    * math.comb(n_minus, keep_minus)
                    * eff**keep_minus
                    * (1 - eff) ** (n_minus - keep_minus)
                )
                from pdcbell.measurement import classify_occupation

                out_code = classify_occupation(keep_plus, keep_minus)
                out[out_code] = out.get(out_code, 0.0) + weight
        return out

    thinned = np.zeros((6, 6))
    for i in range(1, 7):
        for j in range(1, 7):
            if probs[i - 1, j - 1] == 0.0:
                continue
            for di, wi in station_demotions(i).items():
                for dj, wj in station_demotions(j).items():
                    thinned[di - 1, dj - 1] += probs[i - 1, j - 1] * wi * wj
    return thinned


def test_detector_inefficiency_demotes_outcomes():
    eff = 0.6
    settings = ChshSettings.from_radians(0.3, 0.3, 1.2, 1.2)
    with pytest.warns(UserWarning):
        log = run_experiment(
            make_config(
                pair_probability=1.0,
                settings=settings,
                detector_efficiency=eff,
                total_time=4e-3,
            )
        )
    report = estimate_correlators(log)
    ideal = joint_distribution(
        build_experiment_state(), PolarizerAngle(0.3), PolarizerAngle(1.2)
    ).probs
    expected = _thinned_table(ideal, eff)
    empirical = report.counts.sum(axis=0) / report.n_bins
    assert np.allclose(empirical, expected, atol=0.01)


# -- estimation ---------------------------------------------------------------


def test_all_vacuum_estimates():
    report = estimate_correlators(run_experiment(make_config(pair_probability=0.0)))
    assert report.correlators == (1.0, 1.0, 1.0, 1.0)
    assert report.correlator_stderrs == (0.0, 0.0, 0.0, 0.0)
    value, stderr = estimate_chsh(report)
    assert value == 2.0 and stderr == 0.0
    assert report.n_vacuum == report.n_bins


def test_estimator_consistency_many_seeds():
    psi = build_experiment_state()
    p = 0.05
    settings = OPTIMAL_SETTINGS
    analytic = [
        (1 - p) + p * float(np.sum(np.outer([-1, 1, 1, 1, 1, 1], [-1, 1, 1, 1, 1, 1])
                                   * joint_distribution(psi, xi, eta).probs))
        for xi, eta in settings.setting_pairs()
    ]
    failures = 0
    for seed in range(100):
        config = make_config(pair_probability=p, total_time=1e-3, seed=seed)
        report = estimate_correlators(run_experiment(config))
        ok = all(
            abs(estimate - truth) <= 5 * stderr
            for estimate, stderr, truth in zip(
                report.correlators, report.correlator_stderrs, analytic
            )
        )
        failures += 0 if ok else 1
    assert failures <= 1


def test_chsh_estimate_matches_dilution_law():
    config = make_config(pair_probability=0.01, total_time=4e-3, seed=777)
    report = estimate_correlators(run_experiment(config))
    value, stderr = estimate_chsh(report)
    expected = 2 + 0.01 * (SQRT2 - 1)
    assert abs(value - expected) <= 5 * stderr


def test_chsh_estimate_undiluted():
    settings = OPTIMAL_SETTINGS
    with pytest.warns(UserWarning):
        config = make_config(pair_probability=1.0, settings=settings, total_time=4e-4)
        report = estimate_correlators(run_experiment(config))
    value, stderr = estimate_chsh(report)
    assert abs(value - (1 + SQRT2)) <= 5 * stderr


def test_empty_setting_pair_rejected():
    log = EventLog([0, 0], [0, 1], [3, 3], [3, 3])
    with pytest.raises(EmptySettingPairError):
        estimate_correlators(log)
    with pytest.raises(EmptySettingPairError):
        estimate_correlators(EventLog([], [], [], []))


def test_report_json_counts_shape():
    report = estimate_correlators(run_experiment(make_config(total_time=1e-5)))
    data = report.to_json_dict()
    assert len(data["counts"]) == 4
    assert len(data["counts"][0]) == 6
    assert data["n_bins"] == 1000
    assert sum(sum(sum(row) for row in table) for table in data["counts"]) == 1000


# -- event log io -------------------------------------------------------------


HEADER = ["bin", "setting1", "setting2", "outcome1", "outcome2"]

#: The README run shortened to 40 000 bins, seed 20240817; SHA-256 of the CSV
#: written by the csv-module writer, frozen before the vectorised one replaced it.
SMALL_README_CONFIG = {
    "T": 4e-4,
    "tau": 1e-8,
    "p_pair": 0.01,
    "settings_rad": [0.0, 0.7853981633974483, 1.9634954084936207, 1.1780972450961724],
    "seed": 20240817,
    "L": 10.0,
    "detector_efficiency": 1.0,
}
SMALL_README_LOG_SHA256 = "3a8cd5830c5091fd1a2720cab64346226c450196e63c6622fec4ed1d7b8f2dbf"


def reference_to_csv(log: EventLog, path) -> None:
    """Row-at-a-time csv-module writer: the byte-level oracle for EventLog.to_csv."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        writer.writerows(
            zip(
                range(1, len(log) + 1),
                log.setting1.tolist(),
                log.setting2.tolist(),
                log.outcome1.tolist(),
                log.outcome2.tolist(),
            )
        )


def reference_from_csv(path) -> EventLog:
    """Row-at-a-time csv-module reader, the oracle for EventLog.from_csv on valid logs."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        assert next(reader) == HEADER
        columns = ([], [], [], [])
        for row in reader:
            for col, value in zip(columns, row[1:5]):
                col.append(int(value))
    return EventLog(*columns)


def random_log(n: int, seed: int = 0) -> EventLog:
    rng = np.random.default_rng(seed)
    return EventLog(
        rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(1, 7, n), rng.integers(1, 7, n)
    )


@pytest.mark.parametrize("n", [0, 1, 9, 10, 99, 100, 1000, 12345, montecarlo._WRITE_BLOCK + 1])
def test_event_log_csv_matches_reference(tmp_path, n):
    log = random_log(n, seed=n)
    path, reference = tmp_path / "events.csv", tmp_path / "reference.csv"
    log.to_csv(path)
    reference_to_csv(log, reference)
    data = path.read_bytes()
    assert data == reference.read_bytes()
    if n > montecarlo._WRITE_BLOCK:
        assert len(data) > montecarlo._READ_BLOCK  # the reader crosses a block boundary
    assert EventLog.from_csv(path) == reference_from_csv(path) == log
    lf = data.replace(b"\r\n", b"\n")
    for variant in (lf, lf[:-1], data[:-2]):
        path.write_bytes(variant)
        assert EventLog.from_csv(path) == log


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_event_log_csv_small_blocks(tmp_path, monkeypatch, block):
    log = random_log(1000, seed=1)
    path, reference = tmp_path / "events.csv", tmp_path / "reference.csv"
    monkeypatch.setattr(montecarlo, "_WRITE_BLOCK", block)
    monkeypatch.setattr(montecarlo, "_READ_BLOCK", block)
    log.to_csv(path)
    reference_to_csv(log, reference)
    assert path.read_bytes() == reference.read_bytes()
    assert EventLog.from_csv(path) == log
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    assert EventLog.from_csv(path) == log


def test_event_log_csv_frozen_digest(tmp_path):
    path = tmp_path / "events.csv"
    run_experiment(RunConfig.from_json_dict(SMALL_README_CONFIG)).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_README_LOG_SHA256


def test_event_log_csv_round_trip(tmp_path):
    log = run_experiment(make_config(total_time=1e-5))
    path = tmp_path / "events.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "bin,setting1,setting2,outcome1,outcome2"
    assert EventLog.from_csv(path) == log


#: Replacements for the second data row (line 3) of a valid three-row log.
MALFORMED_ROWS = {
    "out of range value": "2,0,0,300,3",
    "short row": "2,0,0,3",
    "extra field": "2,0,0,3,3,3",
    "leading space": " 2,0,0,3,3",
    "trailing space": "2,0,0,3,3 ",
    "quoted field": '"2",0,0,3,3',
    "zero-padded bin": "02,0,0,3,3",
    "wrong bin order": "3,0,0,3,3",
    "non-numeric bin": "x,0,0,3,3",
    "blank line": "",
    "setting 2": "2,2,0,3,3",
    "outcome 7": "2,0,0,7,3",
    "outcome 0": "2,0,0,0,3",
}


def write_log_with_row(path, row: str) -> None:
    rows = ["1,0,0,3,3", row, "3,1,1,1,2"]
    path.write_bytes(("bin,setting1,setting2,outcome1,outcome2\r\n" + "\r\n".join(rows) + "\r\n").encode())


@pytest.mark.parametrize("row", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_event_log_csv_rejects_malformed_row(tmp_path, row):
    path = tmp_path / "bad.csv"
    write_log_with_row(path, row)
    with pytest.raises(InputError, match="line 3: malformed row"):
        EventLog.from_csv(path)


def test_event_log_csv_rejects_non_digit_bin(tmp_path):
    rows = [f"{k},0,0,3,3" for k in range(1, 10)] + ["0:,0,0,3,3"]  # b"0:" would weigh in as 10
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["bin,setting1,setting2,outcome1,outcome2"] + rows) + "\n")
    with pytest.raises(InputError, match="line 11: malformed row"):
        EventLog.from_csv(path)


def test_event_log_csv_rejects_overlong_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"bin,setting1,setting2,outcome1,outcome2\n1,0,0,3,3\n" + b"9" * 100_000)
    with pytest.raises(InputError, match="line 3: row longer than"):
        EventLog.from_csv(path)


def test_event_log_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InputError):
        EventLog.from_csv(path)


def test_event_log_validation():
    with pytest.raises(InputError):
        EventLog([0], [0], [0], [3])  # outcome 0 out of range
    with pytest.raises(InputError):
        EventLog([2], [0], [3], [3])  # setting 2 out of range
    with pytest.raises(InputError):
        EventLog([0, 1], [0], [3, 3], [3, 3])  # ragged columns


# -- generator contract -------------------------------------------------------


def test_pcg64_reference_sequence():
    rng = np.random.Generator(np.random.PCG64(123456789))
    reference = [
        0.02771273928251694,
        0.9067000554840227,
        0.8813935546997342,
        0.6248972754209087,
        0.7907148110979404,
        0.8259080143630941,
        0.8417058359864552,
        0.47172794771859994,
    ]
    assert np.allclose(rng.random(8), reference, atol=0, rtol=0)


def test_stream_layout_settings_then_emission_then_outcome():
    config = make_config(total_time=1e-6, pair_probability=0.3)
    with pytest.warns(UserWarning):
        log = run_experiment(config)
    u = np.random.Generator(np.random.PCG64(config.seed)).random((config.n_bins, 3))
    pair_index = np.minimum((u[:, 0] * 4).astype(int), 3)
    assert np.array_equal(log.setting1, (pair_index // 2).astype(np.int8))
    assert np.array_equal(log.setting2, (pair_index % 2).astype(np.int8))
    emitted = u[:, 1] < 0.3
    assert np.array_equal((log.outcome1 != 3) | (log.outcome2 != 3), emitted)


# -- cascade detector ---------------------------------------------------------


def test_cascade_same_arm_probability():
    for n in (2, 4, 8, 16, 64):
        report = cascade_misclassification(n)
        assert report.same_arm == pytest.approx(1.0 / n, abs=0)
        assert report.two_detectors_fire == pytest.approx((n - 1) / n, abs=1e-12)
    values = [cascade_misclassification(n).same_arm for n in (2, 4, 8, 16, 32, 64, 128)]
    assert all(later < earlier for earlier, later in zip(values, values[1:]))


def test_cascade_probabilities_partition():
    for n in (2, 3, 5, 8):
        for eff in (1.0, 0.7, 0.25):
            report = cascade_misclassification(n, eff)
            total = (
                report.two_detectors_fire
                + report.one_detector_fires
                + report.no_detector_fires
            )
            assert total == pytest.approx(1.0, abs=1e-12)
            assert report.same_arm + report.distinct_arms == pytest.approx(1.0, abs=1e-12)
            assert report.single_photon_fires == eff
    perfect = cascade_misclassification(4, 1.0)
    assert perfect.no_detector_fires == 0.0


def test_cascade_sampler_agrees_with_analytic():
    trials = 100_000
    for n in (2, 4, 8, 16):
        analytic = cascade_misclassification(n, 0.75)
        sampled = sample_cascade(n, 0.75, trials=trials, seed=n)
        for fieldname in (
            "same_arm",
            "two_detectors_fire",
            "one_detector_fires",
            "no_detector_fires",
            "single_photon_fires",
        ):
            truth = getattr(analytic, fieldname)
            estimate = getattr(sampled, fieldname)
            sigma = math.sqrt(max(truth * (1 - truth), 1e-12) / trials)
            assert abs(estimate - truth) <= 4 * sigma, (fieldname, n)


def test_cascade_invalid_parameters():
    with pytest.raises(InputError):
        cascade_misclassification(1)
    with pytest.raises(InputError):
        cascade_misclassification(4, 0.0)
    with pytest.raises(InputError):
        cascade_misclassification(4, 1.5)
    with pytest.raises(InputError):
        sample_cascade(4, 1.0, trials=0)
