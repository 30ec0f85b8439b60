"""Time-binned counting protocol and the cascade photon-number detector.

The run is divided into bins of width tau, chosen below the light-travel
time between the stations so a bin's analyzer choices cannot influence each
other, and small enough that at most one pair is emitted per bin.  At each
bin both analyzers jump to fresh, uniformly random settings out of the four
CHSH combinations; almost all bins contain no photons at all, and those
count as outcome (3, 3) rather than being discarded.

Reproducibility contract: the generator is numpy's PCG64, seeded with the
config seed, consumed as one uniform stream in bin-major order with a fixed
width per bin: slot 0 picks the setting pair, slot 1 decides pair emission,
slot 2 picks the outcome cell.  With detector efficiency below 1 each bin
consumes four further slots (station 1 photon slots A and B, then station
2), whether or not photons are present.  A reference sequence for the
generator ships with the test suite.

Bins could be simulated in parallel by assigning each bin its slice of the
stream; this implementation draws the whole stream in one vectorized pass,
which is equivalent and single threaded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .bell import CHSH_SIGNS, ChshSettings
from .errors import EmptySettingPairError, InputError, InvalidConfigError
from .measurement import joint_distribution, outcome_occupation
from .optics import build_experiment_state

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Above this per-bin pair probability the one-pair-per-bin assumption is shaky.
PAIR_PROBABILITY_WARN = 0.1

_N_SETTING_PAIRS = 4

# classify detected (n_plus, n_minus) -> outcome code, indexed [n_plus][n_minus]
_CLASSIFY = np.array([[3, 1, 6], [2, 4, 0], [5, 0, 0]], dtype=np.int8)

_CSV_HEADER = b"bin,setting1,setting2,outcome1,outcome2"
# Rows rendered per write and bytes read per block by the CSV event-log I/O.
_WRITE_BLOCK = 1 << 16
_READ_BLOCK = 1 << 19
# No valid row comes near this length (an int64 bin has at most 19 digits).
_MAX_LINE = 64
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# Value range of each single-digit field after the bin: setting1, setting2, outcome1, outcome2.
_FIELD_RANGES = ((0, 1), (0, 1), (1, 6), (1, 6))


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one counting run.  SI units, angles in radians."""

    total_time: float
    bin_width: float
    pair_probability: float
    settings: ChshSettings
    seed: int
    station_separation: float | None = None
    detector_efficiency: float = 1.0
    cascade_fanout: int | None = None

    @property
    def n_bins(self) -> int:
        return int(round(self.total_time / self.bin_width))

    def to_json_dict(self) -> dict:
        data = {
            "T": self.total_time,
            "tau": self.bin_width,
            "p_pair": self.pair_probability,
            "settings_rad": list(self.settings.as_radians()),
            "seed": self.seed,
            "detector_efficiency": self.detector_efficiency,
        }
        if self.station_separation is not None:
            data["L"] = self.station_separation
        if self.cascade_fanout is not None:
            data["cascade_n"] = self.cascade_fanout
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RunConfig":
        try:
            settings = ChshSettings.from_radians(*[float(a) for a in data["settings_rad"]])
            return cls(
                total_time=float(data["T"]),
                bin_width=float(data["tau"]),
                pair_probability=float(data["p_pair"]),
                settings=settings,
                seed=int(data["seed"]),
                station_separation=(None if data.get("L") is None else float(data["L"])),
                detector_efficiency=float(data.get("detector_efficiency", 1.0)),
                cascade_fanout=(
                    None if data.get("cascade_n") is None else int(data["cascade_n"])
                ),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfigError(f"malformed run config: {exc}") from exc


@dataclass(frozen=True)
class ConfigReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_config(config: RunConfig) -> ConfigReport:
    """Check every RunConfig invariant; p_pair above 0.1 warns, not errors.

    Non-finite values are reported alone, before any arithmetic on them.
    """
    errors = [
        f"{name} = {value} is not finite"
        for name, value in (
            ("T", config.total_time),
            ("tau", config.bin_width),
            ("p_pair", config.pair_probability),
            ("L", config.station_separation),
            ("detector_efficiency", config.detector_efficiency),
        )
        if value is not None and not math.isfinite(value)
    ]
    if errors:
        return ConfigReport(tuple(errors), ())
    warns: list[str] = []
    if config.total_time <= 0 or config.bin_width <= 0:
        errors.append(
            f"T and tau must be positive, got T={config.total_time}, tau={config.bin_width}"
        )
    else:
        ratio = config.total_time / config.bin_width
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or round(ratio) < 1:
            errors.append(f"T/tau = {ratio} is not a positive integer bin count")
    if not 0.0 <= config.pair_probability <= 1.0:
        errors.append(f"p_pair = {config.pair_probability} outside [0, 1]")
    elif config.pair_probability > PAIR_PROBABILITY_WARN:
        warns.append(
            f"p_pair = {config.pair_probability} > {PAIR_PROBABILITY_WARN}: "
            "multiple pairs per bin are no longer negligible"
        )
    if config.station_separation is not None:
        limit = config.station_separation / SPEED_OF_LIGHT
        if config.bin_width >= limit:
            errors.append(
                f"tau = {config.bin_width}s must be below L/c = {limit:.3e}s "
                f"for L = {config.station_separation}m"
            )
    if not 0.0 < config.detector_efficiency <= 1.0:
        errors.append(f"detector_efficiency = {config.detector_efficiency} outside (0, 1]")
    if config.cascade_fanout is not None and config.cascade_fanout < 2:
        errors.append(f"cascade_n = {config.cascade_fanout} must be at least 2")
    return ConfigReport(tuple(errors), tuple(warns))


@dataclass(frozen=True)
class EventRecord:
    """One time bin: 1-based bin index, setting index pair, outcome code pair."""

    bin: int
    setting_choice: tuple[int, int]
    outcome: tuple[int, int]


class EventLog:
    """Column-wise event storage; one entry per time bin."""

    __slots__ = ("setting1", "setting2", "outcome1", "outcome2")

    def __init__(self, setting1, setting2, outcome1, outcome2) -> None:
        arrays = []
        for name, col in (
            ("setting1", setting1),
            ("setting2", setting2),
            ("outcome1", outcome1),
            ("outcome2", outcome2),
        ):
            arr = np.asarray(col, dtype=np.int8)
            if arr.ndim != 1:
                raise InputError(f"{name} must be one dimensional")
            arrays.append(arr)
        if len({a.size for a in arrays}) != 1:
            raise InputError("event log columns must have equal length")
        if arrays[0].size and (
            arrays[0].min() < 0
            or arrays[0].max() > 1
            or arrays[1].min() < 0
            or arrays[1].max() > 1
        ):
            raise InputError("setting indices must be 0 or 1")
        if arrays[2].size and (
            min(arrays[2].min(), arrays[3].min()) < 1
            or max(arrays[2].max(), arrays[3].max()) > 6
        ):
            raise InputError("outcome codes must lie in 1..6")
        for arr in arrays:
            arr.flags.writeable = False
        self.setting1, self.setting2, self.outcome1, self.outcome2 = arrays

    def __len__(self) -> int:
        return int(self.setting1.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.__slots__
        )

    def records(self) -> Iterator[EventRecord]:
        for n in range(len(self)):
            yield EventRecord(
                bin=n + 1,
                setting_choice=(int(self.setting1[n]), int(self.setting2[n])),
                outcome=(int(self.outcome1[n]), int(self.outcome2[n])),
            )

    def to_csv(self, path) -> None:
        """Write the log as CSV: the header, then one CRLF-terminated row per bin.

        Rows are rendered as bytes in blocks of at most ``_WRITE_BLOCK`` bins,
        so memory stays bounded whatever the log's length.
        """
        n = len(self)
        columns = (self.setting1, self.setting2, self.outcome1, self.outcome2)
        with open(path, "wb") as handle:
            handle.write(_CSV_HEADER + b"\r\n")
            for digits in range(1, len(str(n)) + 1):
                stop = min(10**digits, n + 1)
                for first in range(10 ** (digits - 1), stop, _WRITE_BLOCK):
                    bins = np.arange(first, min(first + _WRITE_BLOCK, stop))
                    rows = np.empty((bins.size, digits + 10), dtype=np.uint8)
                    for k in range(digits):
                        rows[:, digits - 1 - k] = ord("0") + bins // 10**k % 10
                    rows[:, digits : digits + 8 : 2] = ord(",")
                    for j, column in enumerate(columns):
                        rows[:, digits + 1 + 2 * j] = ord("0") + column[first - 1 : bins[-1]]
                    rows[:, -2:] = (ord("\r"), ord("\n"))
                    handle.write(rows)

    @classmethod
    def from_csv(cls, path) -> "EventLog":
        """Read a log written by ``to_csv``; any other form raises InputError.

        Accepted: the header line, then rows ``<bin>,<s1>,<s2>,<o1>,<o2>``
        with the bin written in canonical decimal and equal to the row's
        1-based number, single-digit settings 0/1 and outcomes 1-6, lines
        ending in CRLF or LF, the last one optionally unterminated.  The file
        is read in blocks of ``_READ_BLOCK`` bytes cut after the last newline.
        """
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise InputError(f"cannot read event log {path}: {exc}") from exc
        with handle:
            header = handle.readline(len(_CSV_HEADER) + 2)
            if header.removesuffix(b"\n").removesuffix(b"\r") != _CSV_HEADER:
                raise InputError(f"event log {path} line 1: unexpected header {header!r}")
            blocks = [np.empty((4, 0), dtype=np.int8)]
            rows = 0
            carry = b""
            while chunk := handle.read(_READ_BLOCK):
                buf = carry + chunk
                cut = buf.rfind(b"\n") + 1
                blocks.append(_parse_rows(buf[:cut], rows, path))
                rows += blocks[-1].shape[1]
                carry = buf[cut:]
                if len(carry) > _MAX_LINE:
                    raise InputError(
                        f"event log {path} line {rows + 2}: row longer than {_MAX_LINE} bytes"
                    )
            if carry:
                blocks.append(_parse_rows(carry + b"\n", rows, path))
        return cls(*np.concatenate(blocks, axis=1))


def _parse_rows(buf: bytes, first_row: int, path) -> np.ndarray:
    """Check newline-terminated CSV rows and return their (4, n) int8 columns.

    ``first_row`` counts the rows before ``buf``; the error names the first
    bad line by its number in the file (the header is line 1).
    """
    data = bytes(8) + buf  # the 8-byte gathers below never reach before the buffer
    a = np.frombuffer(data, dtype=np.uint8)
    words = np.ndarray((a.size - 7,), dtype="<u8", buffer=data, strides=(1,))
    ends = np.flatnonzero(a == ord("\n"))
    starts = np.concatenate(([8], ends[:-1] + 1))
    stops = ends - (a[ends - 1] == ord("\r"))
    bins = first_row + 1 + np.arange(ends.size)
    width = np.searchsorted(_POW10, bins, side="right")
    ok = stops - starts == width + 8
    tail = words[stops - 8].view(np.uint8).reshape(-1, 8)
    # uint8 arithmetic: a byte below the allowed range wraps round to a large value
    fields = tail[:, 1::2].T - np.uint8(ord("0"))
    for j, (low, high) in enumerate(_FIELD_RANGES):
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
            f"event log {path} line {first_row + bad + 2}: malformed row {line[:_MAX_LINE]!r}"
        )
    return fields.astype(np.int8)


def run_experiment(config: RunConfig) -> EventLog:
    """Simulate one counting run; bit-identical for identical configs and seeds."""
    report = validate_config(config)
    if not report.ok:
        raise InvalidConfigError("; ".join(report.errors))
    for message in report.warnings:
        warnings.warn(message, stacklevel=2)

    state = build_experiment_state()
    cumulative = np.stack(
        [
            np.cumsum(joint_distribution(state, xi, eta).probs.reshape(-1))
            for xi, eta in config.settings.setting_pairs()
        ]
    )

    n = config.n_bins
    ideal = config.detector_efficiency >= 1.0
    width = 3 if ideal else 7
    rng = np.random.Generator(np.random.PCG64(config.seed))
    u = rng.random((n, width))

    pair_index = np.minimum((u[:, 0] * _N_SETTING_PAIRS).astype(np.int64), _N_SETTING_PAIRS - 1)
    emitted = u[:, 1] < config.pair_probability

    cells = np.zeros(n, dtype=np.int64)
    for k in range(_N_SETTING_PAIRS):
        mask = emitted & (pair_index == k)
        if mask.any():
            cells[mask] = np.minimum(
                np.searchsorted(cumulative[k], u[mask, 2], side="right"), 35
            )
    outcome1 = np.where(emitted, cells // 6 + 1, 3).astype(np.int8)
    outcome2 = np.where(emitted, cells % 6 + 1, 3).astype(np.int8)

    if not ideal:
        outcome1 = _thin_station(outcome1, u[:, 3], u[:, 4], config.detector_efficiency)
        outcome2 = _thin_station(outcome2, u[:, 5], u[:, 6], config.detector_efficiency)

    return EventLog(
        (pair_index // 2).astype(np.int8),
        (pair_index % 2).astype(np.int8),
        outcome1,
        outcome2,
    )


def _thin_station(outcomes: np.ndarray, u_a: np.ndarray, u_b: np.ndarray, eff: float) -> np.ndarray:
    """Demote outcome codes when photons go undetected.

    Slot A covers the first photon in port order (D+ before D-), slot B the
    second; unused slots still consume their stream positions.
    """
    occ = np.array([outcome_occupation(code) for code in range(1, 7)], dtype=np.int64)
    n_plus = occ[outcomes - 1, 0]
    n_minus = occ[outcomes - 1, 1]
    total = n_plus + n_minus

    hit_a = u_a < eff
    hit_b = u_b < eff
    first_is_plus = n_plus >= 1
    second_is_plus = n_plus == 2

    detected_plus = (hit_a & (total >= 1) & first_is_plus).astype(np.int64) + (
        hit_b & (total == 2) & second_is_plus
    ).astype(np.int64)
    detected_minus = (hit_a & (total >= 1) & ~first_is_plus).astype(np.int64) + (
        hit_b & (total == 2) & ~second_is_plus
    ).astype(np.int64)
    return _CLASSIFY[detected_plus, detected_minus]


@dataclass(frozen=True)
class EstimateReport:
    """Counting-run summary: cell counts, vacuum tally, correlator estimates."""

    counts: np.ndarray  # (4, 6, 6) events per (setting pair, i, j)
    n_bins: int
    n_vacuum: int  # events with no photons at either end
    correlators: tuple[float, float, float, float]
    correlator_stderrs: tuple[float, float, float, float]
    chsh: float
    chsh_stderr: float

    def vacuum_fraction(self) -> float:
        return self.n_vacuum / self.n_bins

    def pair_vacuum_probability(self, pair: int) -> float:
        """Estimated P(3, 3) for one setting pair (vacuum count over pair bins)."""
        pair_bins = self.counts[pair].sum()
        return float(self.counts[pair, 2, 2] / pair_bins)

    def to_json_dict(self) -> dict:
        return {
            "n_bins": self.n_bins,
            "n_vacuum": self.n_vacuum,
            "counts": [[[int(c) for c in row] for row in table] for table in self.counts],
            "correlators": list(self.correlators),
            "correlator_stderrs": list(self.correlator_stderrs),
            "chsh": self.chsh,
            "chsh_stderr": self.chsh_stderr,
        }


def estimate_correlators(log: EventLog) -> EstimateReport:
    """Empirical correlators with plug-in standard errors from an event log."""
    if len(log) == 0:
        raise EmptySettingPairError("event log is empty")
    pair_index = log.setting1.astype(np.int64) * 2 + log.setting2
    flat = pair_index * 36 + (log.outcome1.astype(np.int64) - 1) * 6 + (log.outcome2 - 1)
    counts = np.bincount(flat, minlength=144).reshape(4, 6, 6)
    pair_bins = counts.sum(axis=(1, 2))
    if (pair_bins == 0).any():
        missing = [k for k in range(4) if pair_bins[k] == 0]
        raise EmptySettingPairError(f"no events for setting pair(s) {missing}")

    sign = np.outer([-1.0, 1, 1, 1, 1, 1], [-1.0, 1, 1, 1, 1, 1])
    correlators = []
    stderrs = []
    for k in range(4):
        mean = float(np.sum(sign * counts[k]) / pair_bins[k])
        variance = max(1.0 - mean * mean, 0.0)
        correlators.append(mean)
        stderrs.append(math.sqrt(variance / pair_bins[k]))

    chsh = float(sum(s * e for s, e in zip(CHSH_SIGNS, correlators)))
    chsh_stderr = math.sqrt(sum(se * se for se in stderrs))
    return EstimateReport(
        counts=counts,
        n_bins=len(log),
        n_vacuum=int(counts[:, 2, 2].sum()),
        correlators=tuple(correlators),
        correlator_stderrs=tuple(stderrs),
        chsh=chsh,
        chsh_stderr=chsh_stderr,
    )


def estimate_chsh(report: EstimateReport) -> tuple[float, float]:
    """CHSH combination of the estimated correlators with propagated error."""
    value = float(sum(s * e for s, e in zip(CHSH_SIGNS, report.correlators)))
    stderr = math.sqrt(sum(se * se for se in report.correlator_stderrs))
    return value, stderr


# -- cascade photon-number detector ------------------------------------------


@dataclass(frozen=True)
class CascadeProbabilities:
    """Outcome probabilities of an n-arm cascade fed with click detectors.

    ``same_arm`` and ``distinct_arms`` describe where a two-photon input
    ends up; the ``*_fire`` fields fold in detector efficiency.
    ``single_photon_fires`` is the one-photon detection probability.
    """

    fanout: int
    efficiency: float
    same_arm: float
    distinct_arms: float
    two_detectors_fire: float
    one_detector_fires: float
    no_detector_fires: float
    single_photon_fires: float

    def to_json_dict(self) -> dict:
        return {
            "fanout": self.fanout,
            "efficiency": self.efficiency,
            "same_arm": self.same_arm,
            "distinct_arms": self.distinct_arms,
            "two_detectors_fire": self.two_detectors_fire,
            "one_detector_fires": self.one_detector_fires,
            "no_detector_fires": self.no_detector_fires,
            "single_photon_fires": self.single_photon_fires,
        }


def _check_cascade_args(n: int, efficiency: float) -> None:
    if int(n) != n or n < 2:
        raise InputError(f"cascade fan-out must be an integer >= 2, got {n}")
    if not 0.0 < efficiency <= 1.0:
        raise InputError(f"efficiency must lie in (0, 1], got {efficiency}")


def cascade_misclassification(n: int, efficiency: float = 1.0) -> CascadeProbabilities:
    """Analytic cascade statistics for two-photon and one-photon inputs.

    A balanced splitter sends each input photon into one of n arms with
    amplitude 1/sqrt(n); for a two-photon same-mode input the bosonic
    cross terms give both photons the same arm with probability exactly
    1/n, which vanishes as n grows.
    """
    _check_cascade_args(n, efficiency)
    same = 1.0 / n
    distinct = (n - 1.0) / n
    miss = 1.0 - efficiency
    two_fire = distinct * efficiency**2
    one_fire = same * (1.0 - miss**2) + distinct * 2.0 * efficiency * miss
    no_fire = miss**2
    return CascadeProbabilities(
        fanout=int(n),
        efficiency=efficiency,
        same_arm=same,
        distinct_arms=distinct,
        two_detectors_fire=two_fire,
        one_detector_fires=one_fire,
        no_detector_fires=no_fire,
        single_photon_fires=efficiency,
    )


def sample_cascade(
    n: int, efficiency: float = 1.0, trials: int = 100_000, seed: int = 0
) -> CascadeProbabilities:
    """Monte Carlo estimate of the same quantities, as empirical frequencies.

    For a balanced cascade the bosonic two-photon arm distribution matches
    independent uniform arm choices (the interference terms reproduce the
    classical weights), so the sampler draws each photon's arm uniformly
    and thins detections at the given efficiency.
    """
    _check_cascade_args(n, efficiency)
    if trials < 1:
        raise InputError(f"trials must be positive, got {trials}")
    rng = np.random.Generator(np.random.PCG64(seed))
    arms = rng.integers(0, n, size=(trials, 2))
    detected = rng.random((trials, 2)) < efficiency
    same = arms[:, 0] == arms[:, 1]
    fired = np.where(
        same[:, None],
        # same arm: one detector, it fires if either photon is seen
        np.column_stack([detected.any(axis=1), np.zeros(trials, dtype=bool)]),
        detected,
    )
    n_fired = fired.sum(axis=1)
    single = rng.random(trials) < efficiency
    return CascadeProbabilities(
        fanout=int(n),
        efficiency=efficiency,
        same_arm=float(same.mean()),
        distinct_arms=float(1.0 - same.mean()),
        two_detectors_fire=float((n_fired == 2).mean()),
        one_detector_fires=float((n_fired == 1).mean()),
        no_detector_fires=float((n_fired == 0).mean()),
        single_photon_fires=float(single.mean()),
    )
