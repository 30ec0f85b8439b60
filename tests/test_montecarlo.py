import csv
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import event_log
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcbell import montecarlo
from pdcbell.bell import ChshSettings, OPTIMAL_SETTINGS
from pdcbell.errors import EmptySettingPairError, InputError, InvalidConfigError
from pdcbell.measurement import (
    LEGAL_MASK,
    PolarizerAngle,
    classify_occupation,
    joint_distribution,
    outcome_occupation,
)
from pdcbell.montecarlo import (
    EventLog,
    RunConfig,
    cascade_misclassification,
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


@pytest.mark.parametrize(
    "total_time, bin_width, message",
    [
        (1e300, 1e-300, "T/tau = inf is not finite"),
        (1e-5, 5e-324, "T/tau = inf is not finite"),
        (1e12, 1e-8, "exceeds the limit"),
        ((montecarlo.MAX_BINS + 1) * 1e-8, 1e-8, "exceeds the limit"),
    ],
)
def test_config_bin_count_bounded(total_time, bin_width, message):
    report = validate_config(make_config(total_time=total_time, bin_width=bin_width))
    assert not report.ok
    assert any(message in error for error in report.errors)


@pytest.mark.parametrize(
    "total_time, bins",
    [(0.04, 4_000_000), (montecarlo.MAX_BINS * 1e-8, montecarlo.MAX_BINS), (9.999999995, None)],
    ids=["readme", "cap", "half-bin-short"],
)
def test_config_bin_count_integral_to_a_few_ulps(total_time, bins):
    config = make_config(total_time=total_time, bin_width=1e-8)
    report = validate_config(config)
    if bins is None:  # T/tau = 999 999 999.5
        assert any("is not a positive integer bin count" in error for error in report.errors)
    else:
        assert report.ok and config.n_bins == bins


def test_config_bin_count_cap_is_inclusive(monkeypatch):
    assert validate_config(make_config(total_time=montecarlo.MAX_BINS * 1e-8)).ok
    monkeypatch.setattr(montecarlo, "MAX_BINS", 1000)
    assert len(run_experiment(make_config(total_time=1e-5))) == 1000
    with pytest.raises(InvalidConfigError, match="exceeds the limit of 1000"):
        run_experiment(make_config(total_time=1.001e-5))


def test_config_pair_probability_warning():
    report = validate_config(make_config(pair_probability=0.5))
    assert report.ok
    assert report.warnings
    with pytest.warns(UserWarning):
        run_experiment(make_config(pair_probability=0.5, total_time=1e-6))


def test_config_errors_collected():
    report = validate_config(
        make_config(pair_probability=1.5, detector_efficiency=0.0, seed=-1)
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
    config = make_config(station_separation=30.0, detector_efficiency=0.8)
    back = RunConfig.from_json_dict(config.to_json_dict())
    assert back == config
    assert RunConfig.from_json_dict(make_config().to_json_dict()) == make_config()
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
    observed = np.zeros((6, 6), dtype=bool)
    observed[log.outcome1 - 1, log.outcome2 - 1] = True
    assert not observed[~LEGAL_MASK].any()


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


def station_detects(code, hit_a, hit_b):
    # slot A is the first photon in port order (D+ before D-), slot B the second
    n_plus, n_minus = outcome_occupation(code)
    ports = "+" * n_plus + "-" * n_minus
    kept = [port for port, hit in zip(ports, (hit_a, hit_b)) if hit]
    return classify_occupation(kept.count("+"), kept.count("-"))


@pytest.mark.parametrize("code", range(1, 7))
def test_thin_station_drops_each_missed_photon(code):
    """The cell loss table thins station 1 at outcome ``code`` and station 2 at each outcome."""
    table = montecarlo._LOSS_TABLE
    assert table.dtype == np.uint8
    for other in range(1, 7):
        for hits in np.ndindex(2, 2, 2, 2):
            o1, o2 = station_detects(code, *hits[:2]), station_detects(other, *hits[2:])
            assert table[(6 * (code - 1) + other - 1, *hits)] == 6 * (o1 - 1) + o2 - 1


# -- estimation ---------------------------------------------------------------


def test_all_vacuum_estimates():
    report = estimate_correlators(run_experiment(make_config(pair_probability=0.0)))
    assert report.correlators == (1.0, 1.0, 1.0, 1.0)
    assert report.correlator_stderrs == (0.0, 0.0, 0.0, 0.0)
    value, stderr = report.chsh, report.chsh_stderr
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
    value, stderr = report.chsh, report.chsh_stderr
    expected = 2 + 0.01 * (SQRT2 - 1)
    assert abs(value - expected) <= 5 * stderr


def test_chsh_estimate_undiluted():
    settings = OPTIMAL_SETTINGS
    with pytest.warns(UserWarning):
        config = make_config(pair_probability=1.0, settings=settings, total_time=4e-4)
        report = estimate_correlators(run_experiment(config))
    value, stderr = report.chsh, report.chsh_stderr
    assert abs(value - (1 + SQRT2)) <= 5 * stderr


def test_empty_setting_pair_rejected():
    log = event_log([0, 0], [0, 1], [3, 3], [3, 3])
    with pytest.raises(EmptySettingPairError):
        estimate_correlators(log)
    with pytest.raises(EmptySettingPairError):
        estimate_correlators(event_log([], [], [], []))


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
    return event_log(*columns)


def reference_digit_to_csv(log: EventLog, path) -> None:
    """Digit-by-digit vectorised writer, a second byte oracle for EventLog.to_csv.

    Each bin digit is its own ``bins // 10**k % 10`` pass, in blocks of rows of
    one width.
    """
    n = len(log)
    columns = (log.setting1, log.setting2, log.outcome1, log.outcome2)
    with open(path, "wb") as handle:
        handle.write(b"bin,setting1,setting2,outcome1,outcome2\r\n")
        for digits in range(1, len(str(n)) + 1):
            stop = min(10**digits, n + 1)
            for first in range(10 ** (digits - 1), stop, 1 << 16):
                bins = np.arange(first, min(first + (1 << 16), stop))
                rows = np.empty((bins.size, digits + 10), dtype=np.uint8)
                for k in range(digits):
                    rows[:, digits - 1 - k] = ord("0") + bins // 10**k % 10
                rows[:, digits : digits + 8 : 2] = ord(",")
                for j, column in enumerate(columns):
                    rows[:, digits + 1 + 2 * j] = ord("0") + column[first - 1 : bins[-1]]
                rows[:, -2:] = (ord("\r"), ord("\n"))
                handle.write(rows)


_REFERENCE_POW10 = 10 ** np.arange(19, dtype=np.int64)
_REFERENCE_MAX_LINE = 64


def reference_parse_csv(path) -> EventLog:
    """The general block reader alone, with no canonical fast path.

    The oracle for EventLog.from_csv on every input, valid or not: it must
    return the same log or raise InputError with the same message.  Reads
    blocks of ``montecarlo._READ_BLOCK`` bytes.
    """
    header_text = b"bin,setting1,setting2,outcome1,outcome2"
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read event log {path}: {exc}") from exc
    with handle:
        header = handle.readline(len(header_text) + 2)
        if header.removesuffix(b"\n").removesuffix(b"\r") != header_text:
            raise InputError(f"event log {path} line 1: unexpected header {header!r}")
        blocks = [np.empty((4, 0), dtype=np.int8)]
        rows = 0
        carry = b""
        while chunk := handle.read(montecarlo._READ_BLOCK):
            buf = carry + chunk
            cut = buf.rfind(b"\n") + 1
            blocks.append(reference_parse_rows(buf[:cut], rows, path))
            rows += blocks[-1].shape[1]
            carry = buf[cut:]
            if len(carry) > _REFERENCE_MAX_LINE:
                raise InputError(
                    f"event log {path} line {rows + 2}: row longer than {_REFERENCE_MAX_LINE} bytes"
                )
        if carry:
            blocks.append(reference_parse_rows(carry + b"\n", rows, path))
    return event_log(*np.concatenate(blocks, axis=1))


def reference_parse_rows(buf: bytes, first_row: int, path) -> np.ndarray:
    """Check newline-terminated rows digit by digit; return their (4, n) int8 columns."""
    data = bytes(8) + buf
    a = np.frombuffer(data, dtype=np.uint8)
    words = np.ndarray((a.size - 7,), dtype="<u8", buffer=data, strides=(1,))
    ends = np.flatnonzero(a == ord("\n"))
    starts = np.concatenate(([8], ends[:-1] + 1))
    stops = ends - (a[ends - 1] == ord("\r"))
    bins = first_row + 1 + np.arange(ends.size)
    width = np.searchsorted(_REFERENCE_POW10, bins, side="right")
    ok = stops - starts == width + 8
    tail = words[stops - 8].view(np.uint8).reshape(-1, 8)
    fields = tail[:, 1::2].T - np.uint8(ord("0"))
    for j, (low, high) in enumerate(((0, 1), (0, 1), (1, 6), (1, 6))):
        ok &= (tail[:, 2 * j] == ord(",")) & (fields[j] - np.uint8(low) <= high - low)
    value = np.zeros_like(bins)
    for k in range(int(width.max(initial=0))):
        byte = a[np.maximum(stops - 9 - k, 0)]
        digit = np.where(k < width, byte - np.uint8(ord("0")), 0)
        ok &= digit <= 9
        value += digit.astype(np.int64) * 10**k
    ok &= value == bins
    if not ok.all():
        bad = int(np.argmin(ok))
        line = data[starts[bad] : ends[bad] + 1]
        raise InputError(
            f"event log {path} line {first_row + bad + 2}: "
            f"malformed row {line[:_REFERENCE_MAX_LINE]!r}"
        )
    return fields.astype(np.int8)


def read_outcome(reader, path):
    """The log ``reader`` returns for ``path``, or the message of its InputError."""
    try:
        return reader(path)
    except InputError as exc:
        return str(exc)


def assert_reads_like_reference(path) -> None:
    assert read_outcome(EventLog.from_csv, path) == read_outcome(reference_parse_csv, path)


def random_log(n: int, seed: int = 0) -> EventLog:
    rng = np.random.default_rng(seed)
    return event_log(
        rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(1, 7, n), rng.integers(1, 7, n)
    )


@pytest.mark.parametrize(
    "n", [0, 1, 9, 10, 99, 100, 1000, 12345, 4 * montecarlo._WRITE_BLOCK + 1]
)
def test_event_log_csv_matches_reference(tmp_path, n):
    log = random_log(n, seed=n)
    path, reference = tmp_path / "events.csv", tmp_path / "reference.csv"
    log.to_csv(path)
    reference_to_csv(log, reference)
    data = path.read_bytes()
    assert data == reference.read_bytes()
    reference_digit_to_csv(log, reference)
    assert data == reference.read_bytes()
    if n > montecarlo._WRITE_BLOCK:
        assert len(data) > montecarlo._READ_BLOCK  # the reader crosses a block boundary
    assert EventLog.from_csv(path) == reference_from_csv(path) == log
    lf = data.replace(b"\r\n", b"\n")
    for variant in (lf, lf[:-1], data[:-2], data[:-1]):
        path.write_bytes(variant)
        assert EventLog.from_csv(path) == reference_parse_csv(path) == log


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_event_log_csv_small_blocks(tmp_path, monkeypatch, block):
    log = random_log(1000, seed=1)
    path, reference = tmp_path / "events.csv", tmp_path / "reference.csv"
    monkeypatch.setattr(montecarlo, "_WRITE_BLOCK", block)
    monkeypatch.setattr(montecarlo, "_READ_BLOCK", block)
    log.to_csv(path)
    reference_to_csv(log, reference)
    data = path.read_bytes()
    assert data == reference.read_bytes()
    assert EventLog.from_csv(path) == log
    lines = data.split(b"\r\n")
    terminators = np.random.default_rng(block).choice([b"\r\n", b"\n"], len(lines) - 1)
    mixed = b"".join(line + end for line, end in zip(lines, terminators))
    for variant in (data.replace(b"\r\n", b"\n"), mixed):
        path.write_bytes(variant)
        assert EventLog.from_csv(path) == reference_parse_csv(path) == log


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
    assert_reads_like_reference(path)


def canonical_offset(rows: int) -> int:
    """Byte offset of the end of data row ``rows`` in a canonical CRLF log."""
    header = len(b"bin,setting1,setting2,outcome1,outcome2\r\n")
    return header + sum(
        (min(rows, 10**d - 1) - 10 ** (d - 1) + 1) * (d + 10) for d in range(1, len(str(rows)) + 1)
    )


@pytest.mark.parametrize("seed", range(6))
def test_event_log_csv_mixed_terminators(tmp_path, monkeypatch, seed):
    """Per-line random CRLF/LF mixes, with read blocks cut anywhere in a line."""
    rng = np.random.default_rng(seed)
    log = random_log(3000, seed=seed)
    path = tmp_path / "events.csv"
    log.to_csv(path)
    lines = path.read_bytes().split(b"\r\n")
    lf_share = (0.5, 0.01, 0.001)[seed % 3]  # most blocks canonical, or few
    ends = np.where(rng.random(len(lines) - 1) < lf_share, b"\n", b"\r\n")
    path.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
    monkeypatch.setattr(montecarlo, "_READ_BLOCK", int(rng.integers(100, 5000)))
    assert EventLog.from_csv(path) == reference_parse_csv(path) == log


@pytest.mark.parametrize(
    "boundary",
    [9, 99_999, 199_999, 999_999, 1_099_999],
    ids=["width-2", "width-6", "span-6", "width-7", "span-7"],
)
def test_event_log_csv_block_across_width_or_span(tmp_path, monkeypatch, boundary):
    """A canonical block that crosses a digit-width or template-span change."""
    log = random_log(boundary + 3, seed=boundary)
    path, reference = tmp_path / "events.csv", tmp_path / "reference.csv"
    log.to_csv(path)
    reference_digit_to_csv(log, reference)
    assert path.read_bytes() == reference.read_bytes()

    def general_reader_called(*args):
        raise AssertionError("a canonical block left the fast path")

    monkeypatch.setattr(montecarlo, "_parse_rows", general_reader_called)
    assert EventLog.from_csv(path) == log
    # the first block stops 5 bytes short of the boundary row's end, so the
    # next one starts with that row and runs into the new width or span
    monkeypatch.setattr(montecarlo, "_READ_BLOCK", canonical_offset(boundary) - 5)
    assert EventLog.from_csv(path) == log


CORRUPTION_ROWS = 250_001


@pytest.fixture(scope="module")
def corruption_log(tmp_path_factory):
    log = random_log(CORRUPTION_ROWS, seed=5)
    path = tmp_path_factory.mktemp("corrupt") / "events.csv"
    log.to_csv(path)
    return log, path.read_bytes()


@pytest.mark.parametrize("seed", range(12))
def test_event_log_csv_single_byte_corruption(tmp_path, corruption_log, seed):
    """Each corrupted log reads like the general reader: same log or same message."""
    log, data = corruption_log
    rng = np.random.default_rng(seed)
    path = tmp_path / "events.csv"
    for _ in range(4):
        at = int(rng.integers(len(data)))
        byte = bytes([rng.choice(list(b"0123456789,\r\n x") + [int(rng.integers(256))])])
        for variant in (data[:at] + byte + data[at + 1 :], data[:at] + data[at + 1 :]):
            path.write_bytes(variant)
            outcome = read_outcome(EventLog.from_csv, path)
            assert outcome == read_outcome(reference_parse_csv, path)
            if variant == data:
                assert outcome == log


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
        event_log([0], [0], [0], [3])  # outcome 0 out of range: code -4
    with pytest.raises(InputError):
        event_log([2], [0], [3], [3])  # setting 2 out of range: code 158
    with pytest.raises(InputError):
        EventLog([[14, 14], [14]])  # ragged codes


@pytest.mark.parametrize(
    "codes",
    [
        [0.7],
        np.array([3.0]),
        [True],
        np.array([False, True]),
        [math.nan],
        [-1],
        [144],
        np.array([0, 255], dtype=np.uint8),
        [[14]],
        np.zeros((2, 2), dtype=np.uint8),
        14,
        "14",
    ],
    ids=[
        "float", "integral-float", "bool", "bool-array", "nan", "negative", "144", "uint8-255",
        "2-D", "2-D-uint8", "scalar", "string",
    ],
)
def test_event_log_rejects_non_codes(codes):
    with pytest.raises(InputError):
        EventLog(codes)


def test_event_log_decodes_every_code():
    codes = np.arange(144, dtype=np.uint8)
    log = EventLog(codes)
    assert np.shares_memory(log.codes, codes) and codes.flags.writeable
    assert not log.codes.flags.writeable
    s1, s2, o1, o2 = np.indices((2, 2, 6, 6)).reshape(4, -1)
    for column, expected in zip(
        (log.setting1, log.setting2, log.outcome1, log.outcome2), (s1, s2, o1 + 1, o2 + 1)
    ):
        assert column.dtype == np.int8 and not column.flags.writeable
        assert np.array_equal(column, expected)
    assert event_log(log.setting1, log.setting2, log.outcome1, log.outcome2) == log
    for dtype in (np.int16, np.int64, np.uint16, np.uint64):
        assert EventLog(codes.astype(dtype)) == log


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


# -- chunked stream -----------------------------------------------------------


def reference_run_experiment(config: RunConfig) -> EventLog:
    """Whole-stream run: one (n, width) draw, every bin sampled and thinned.

    The oracle for the block-wise ``run_experiment``; same stream layout.
    """
    state = build_experiment_state()
    cumulative = np.stack(
        [
            np.cumsum(joint_distribution(state, xi, eta).probs.reshape(-1))
            for xi, eta in config.settings.setting_pairs()
        ]
    )
    n = config.n_bins
    ideal = config.detector_efficiency >= 1.0
    u = np.random.Generator(np.random.PCG64(config.seed)).random((n, 3 if ideal else 7))
    pair_index = np.minimum((u[:, 0] * 4).astype(np.int64), 3)
    emitted = u[:, 1] < config.pair_probability
    cells = np.zeros(n, dtype=np.int64)
    for k in range(4):
        mask = emitted & (pair_index == k)
        if mask.any():
            cells[mask] = np.minimum(np.searchsorted(cumulative[k], u[mask, 2], side="right"), 35)
    outcome1 = np.where(emitted, cells // 6 + 1, 3).astype(np.int8)
    outcome2 = np.where(emitted, cells % 6 + 1, 3).astype(np.int8)
    if not ideal:
        station = np.zeros((6, 2, 2), dtype=np.int64)
        for code, a, b in np.ndindex(6, 2, 2):
            station[code, a, b] = station_detects(code + 1, a, b)
        hits = (u[:, 3:] < config.detector_efficiency).astype(np.int64)
        outcome1 = station[outcome1 - 1, hits[:, 0], hits[:, 1]]
        outcome2 = station[outcome2 - 1, hits[:, 2], hits[:, 3]]
    return event_log(pair_index // 2, pair_index % 2, outcome1, outcome2)


#: The small README run at p_pair 0.1 with detector efficiency 0.8; SHA-256 of
#: its CSV log, frozen from the whole-stream run_experiment before blocks.
SMALL_LOSSY_CONFIG = dict(SMALL_README_CONFIG, p_pair=0.1, detector_efficiency=0.8)
SMALL_LOSSY_LOG_SHA256 = "87b79917bf181bb8a20896b868181663e75121deb269983609a46702a40cefea"

CHUNK_RUN_BINS = 3000


@pytest.mark.parametrize("efficiency", [1.0, 0.8], ids=["ideal", "lossy"])
@pytest.mark.parametrize(
    "chunk", [1, 7, 4096, CHUNK_RUN_BINS, CHUNK_RUN_BINS + 1], ids=["1", "7", "4096", "n", "n+1"]
)
def test_chunked_run_matches_whole_stream(monkeypatch, efficiency, chunk):
    config = make_config(
        total_time=CHUNK_RUN_BINS * 1e-8, pair_probability=0.1, detector_efficiency=efficiency
    )
    reference = reference_run_experiment(config)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    assert run_experiment(config) == reference


@pytest.mark.parametrize("p_pair", [0.0, 1.0], ids=["vacuum-only", "pair-every-bin"])
@pytest.mark.parametrize("efficiency", [1.0, 0.6], ids=["ideal", "lossy"])
def test_chunked_run_extreme_pair_probabilities(monkeypatch, p_pair, efficiency):
    config = make_config(total_time=1e-5, pair_probability=p_pair, detector_efficiency=efficiency)
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p_pair = 1 is above the warning level
        log = run_experiment(config)
    assert log == reference_run_experiment(config)
    vacuum = (log.outcome1 == 3) & (log.outcome2 == 3)
    assert vacuum.all() if p_pair == 0.0 else not vacuum.all()


def outcome_cumulative(chsh: ChshSettings) -> np.ndarray:
    """The (4, 36) cumulative outcome tables run_experiment samples from."""
    state = build_experiment_state()
    return np.stack(
        [
            np.cumsum(joint_distribution(state, xi, eta).probs.reshape(-1))
            for xi, eta in chsh.setting_pairs()
        ]
    )


def lookup_edges(cum: np.ndarray) -> np.ndarray:
    """The u in [0, 1) where a cell lookup in ``cum`` can go wrong."""
    cum = cum[(cum >= 0) & (cum < 1)]
    edges = np.arange(montecarlo._GUIDE) / montecarlo._GUIDE
    u = np.concatenate(
        [
            cum,
            np.nextafter(cum, 0.0),
            np.nextafter(cum, 2.0),
            edges,  # b / M, with 0.0
            np.nextafter(edges + 1 / montecarlo._GUIDE, 0.0),  # below (b + 1) / M, with 1 - ulp
        ]
    )
    return u[(u >= 0) & (u < 1)]


@pytest.mark.parametrize(
    "seed", [None, 0, 1, 2], ids=["optimal", "random-0", "random-1", "random-2"]
)
def test_cell_lookup_is_exact_at_every_edge(seed):
    """The p_pair 1 tables at the optimal and at random settings, for all four pairs."""
    chsh = OPTIMAL_SETTINGS
    if seed is not None:
        chsh = ChshSettings.from_radians(*np.random.default_rng(seed).uniform(0, math.pi, 4))
    cumulative = outcome_cumulative(chsh)
    # zero-probability cells repeat cumulative values: the ties a lookup must get right
    assert all((np.diff(cum) == 0).any() for cum in cumulative)
    guide = montecarlo._guide_table(cumulative)
    assert guide.dtype == np.uint8 and not guide.flags.writeable
    # each cumulative value splits at most one bucket of its pair
    assert np.count_nonzero(guide == montecarlo._SPLIT) <= cumulative.size
    us = [lookup_edges(cum) for cum in cumulative]
    pairs = np.concatenate([np.full(len(u), k, dtype=np.uint8) for k, u in enumerate(us)])
    u = np.concatenate(us)
    # pair 3 in the top bucket: the largest guide index
    assert ((pairs == 3) & (u == np.nextafter(1.0, 0.0))).any()
    cells = montecarlo._lookup_cells(guide, cumulative, pairs, u)
    expected = np.concatenate(
        [np.minimum(np.searchsorted(cum, u, side="right"), 35) for cum, u in zip(cumulative, us)]
    )
    assert cells.dtype == np.uint8
    assert np.array_equal(cells, expected)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**63),
    angles=st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
    p_pair=st.floats(0.0, 1.0),
    efficiency=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True),
    n_bins=st.integers(1, 5000),
    chunk=st.sampled_from(["1", "7", "64", "n", "n+1"]),
)
def test_run_matches_whole_stream_oracle(seed, angles, p_pair, efficiency, n_bins, chunk):
    config = make_config(
        total_time=n_bins * 1e-8,
        pair_probability=p_pair,
        settings=ChshSettings.from_radians(*angles),
        seed=seed,
        detector_efficiency=efficiency,
    )
    assert config.n_bins == n_bins
    chunk = {"n": n_bins, "n+1": n_bins + 1}.get(chunk) or int(chunk)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(montecarlo, "_CHUNK", chunk)
        warnings.simplefilter("ignore", UserWarning)  # p_pair above the warning level
        assert run_experiment(config) == reference_run_experiment(config)


def test_chunked_run_frozen_lossy_digest(tmp_path):
    path = tmp_path / "events.csv"
    run_experiment(RunConfig.from_json_dict(SMALL_LOSSY_CONFIG)).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_LOSSY_LOG_SHA256


def test_run_memory_is_bounded():
    n = 4 * 10**6
    config = make_config(total_time=n * 1e-8, pair_probability=0.1, detector_efficiency=0.8)
    run_experiment(make_config(total_time=1e-6))  # state build and lookups outside the trace
    tracemalloc.start()
    try:
        run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 1 B/bin log plus one 0.9 MB block of uniforms and its emitted rows
    assert peak < n + 2 * 2**20


def test_csv_read_memory_is_bounded(tmp_path):
    n = 10**6
    path = tmp_path / "events.csv"
    run_experiment(make_config(total_time=n * 1e-8)).to_csv(path)
    EventLog.from_csv(path)  # lookups and templates outside the trace
    tracemalloc.start()
    try:
        EventLog.from_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the blocks' codes and their concatenation, plus one read block and its temporaries
    assert peak < 2 * n + 4 * 2**20


def test_estimate_memory_is_bounded():
    log = run_experiment(make_config(total_time=2e6 * 1e-8))
    estimate_correlators(random_log(100))  # lookups outside the trace
    tracemalloc.start()
    try:
        estimate_correlators(log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's cell index and its intp copy, whatever the log length
    assert peak < 2 * 2**20


@pytest.mark.parametrize("chunk", [1, 7, 1001], ids=["1", "7", "n+1"])
def test_estimate_counts_blockwise_match_whole_array(monkeypatch, chunk):
    log = random_log(1000, seed=chunk)
    columns = (log.setting1, log.setting2, log.outcome1, log.outcome2)
    s1, s2, o1, o2 = (column.astype(np.int64) for column in columns)
    whole = np.bincount(72 * s1 + 36 * s2 + 6 * o1 + o2 - 7, minlength=144).reshape(4, 6, 6)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    assert np.array_equal(estimate_correlators(log).counts, whole)


def reference_counts(log: EventLog) -> np.ndarray:
    counts = np.zeros((4, 6, 6), dtype=np.int64)
    np.add.at(
        counts,
        (2 * log.setting1 + log.setting2, log.outcome1 - 1, log.outcome2 - 1),
        1,
    )
    return counts


@pytest.mark.parametrize("n", [1000, 100_003])
def test_estimate_counts_match_reference(n):
    for log in (random_log(n, seed=n), run_experiment(make_config(total_time=n * 1e-8, seed=n))):
        assert np.array_equal(estimate_correlators(log).counts, reference_counts(log))


def test_estimate_counts_extreme_cells():
    log = event_log([0, 0, 1, 1], [0, 1, 0, 1], [1, 6, 1, 6], [1, 6, 6, 6])  # cells 0 ... 143
    counts = estimate_correlators(log).counts
    assert counts[0, 0, 0] == counts[3, 5, 5] == 1
    assert np.array_equal(counts, reference_counts(log))


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
