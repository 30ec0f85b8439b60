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

The stream is drawn in sequential blocks of ``_CHUNK`` bins; consecutive
draws from one generator continue the same stream, so a blocked run is
bit-identical to a single whole-stream draw while holding only one block of
uniforms besides the event log.  Outcome cells come from a guide table, exact
as a binary search in the cumulative distribution.  The log keeps one byte
per bin: the bin's ``_cell_code``, its (setting pair, i, j) cell out of 144.

Event logs are CSV.  One renderer, ``_render_rows``, owns the bytes of a
row: ``EventLog.to_csv`` writes what it renders, and ``EventLog.from_csv``
takes a block as it is only when the renderer reproduces it from the
block's own fields.  A block with any non-canonical line goes through the
general checker ``_parse_rows``, so the accepted grammar and every error
message are the checker's.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bell import CHSH_SIGNS, SIGN_TABLE, ChshSettings
from .errors import EmptySettingPairError, InputError, InvalidConfigError
from .measurement import OutcomeClass, classify_occupation, joint_distribution, outcome_occupation
from .optics import build_experiment_state

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Above this per-bin pair probability the one-pair-per-bin assumption is shaky.
PAIR_PROBABILITY_WARN = 0.1

#: Longest accepted run in bins: its in-memory event log takes 1 GB.
MAX_BINS = 10**9

#: Relative distance from an integer within which T/tau counts as that
#: integer.  T and tau are decimals that doubles only approximate, so their
#: quotient may miss the intended count by a few ulps, but no more:
#: T/tau = 999999999.5 is not a bin count.
_RATIO_ULPS = 8 * np.finfo(float).eps

_N_SETTING_PAIRS = 4
_N_CELLS = 36 * _N_SETTING_PAIRS
#: Cell 6 * (o1 - 1) + o2 - 1 of the vacuum outcome (3, 3) within a setting pair.
_VACUUM_CELL = 14

#: Bins drawn per block of the random stream; a lossy block of uniforms,
#: ``_CHUNK * 7 * 8`` bytes (0.9 MB), stays in L2.
_CHUNK = 1 << 14
#: Buckets per setting pair of ``_guide_table``: a power of two, so u * _GUIDE is exact.
_GUIDE = 1 << 12
_SPLIT = 255  # guide entry of a bucket that a cumulative value splits


def _loss_table() -> np.ndarray:
    """Detected cell at [cell, hit1a, hit1b, hit2a, hit2b] for a cell 6 * (o1 - 1) + o2 - 1.

    At each station slot A covers the first photon in port order (D+ before
    D-), slot B the second; a photon whose slot misses goes undetected.
    """
    station = np.empty((len(OutcomeClass), 2, 2), dtype=np.uint8)
    for code in OutcomeClass:
        n_plus, n_minus = outcome_occupation(code)
        ports = [0] * n_plus + [1] * n_minus
        for hits in np.ndindex(2, 2):
            detected = [0, 0]
            for port, hit in zip(ports, hits):
                detected[port] += hit
            station[(code - 1, *hits)] = classify_occupation(*detected) - 1
    cells = 6 * station[:, None, :, :, None, None] + station[None, :, None, None, :, :]
    return cells.reshape(36, 2, 2, 2, 2)


_LOSS_TABLE = _loss_table()

# The closed set of run-config JSON keys; "L" may be absent or null.
_CONFIG_KEYS = ("T", "tau", "p_pair", "settings_rad", "seed", "L", "detector_efficiency")

_CSV_HEADER = b"bin,setting1,setting2,outcome1,outcome2"
# Rows rendered per write and bytes read per block by the CSV event-log I/O.
# A write block's 8 B/row of tails stays below a run's block of uniforms: glibc
# raises its mmap threshold to the largest block freed, so they reuse heap pages.
_WRITE_BLOCK = 1 << 14
_READ_BLOCK = 1 << 19
# No valid row comes near this length (an int64 bin has at most 19 digits).
_MAX_LINE = 64
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# Value range of each single-digit field after the bin: setting1, setting2, outcome1, outcome2.
_FIELD_RANGES = ((0, 1), (0, 1), (1, 6), (1, 6))
# Low bin digits a row template covers: rows in one aligned span of
# 10**_SPAN_DIGITS bins differ only there and in their tail.
_SPAN_DIGITS = 5


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
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RunConfig":
        """Parse the run-config JSON object; only the keys of ``to_json_dict``.

        Unknown keys and a seed that is not an integer (``1.5``, ``true``,
        ``"7"``) raise InvalidConfigError rather than being ignored or cast.
        """
        if not isinstance(data, Mapping):
            raise InvalidConfigError(f"run config must be a JSON object, got {type(data).__name__}")
        unknown = sorted(str(key) for key in data if key not in _CONFIG_KEYS)
        if unknown:
            raise InvalidConfigError(f"unknown run config key(s): {', '.join(unknown)}")
        try:
            seed = data["seed"]
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise InvalidConfigError(f"seed must be an integer, got {seed!r}")
            settings = ChshSettings.from_radians(*[float(a) for a in data["settings_rad"]])
            return cls(
                total_time=float(data["T"]),
                bin_width=float(data["tau"]),
                pair_probability=float(data["p_pair"]),
                settings=settings,
                seed=seed,
                station_separation=(None if data.get("L") is None else float(data["L"])),
                detector_efficiency=float(data.get("detector_efficiency", 1.0)),
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

    Non-finite values are reported alone, before any arithmetic on them.  The
    bin count T/tau must be a finite integer between 1 and ``MAX_BINS``, so
    no run is sized from an unchecked count.
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
        if not math.isfinite(ratio):
            errors.append(f"T/tau = {ratio} is not finite")
        elif ratio > MAX_BINS + 0.5:
            errors.append(f"T/tau = {ratio:.6g} bins exceeds the limit of {MAX_BINS}")
        elif abs(ratio - round(ratio)) > _RATIO_ULPS * max(1.0, ratio) or round(ratio) < 1:
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
    if config.seed < 0:
        errors.append(f"seed = {config.seed} must be non-negative")
    return ConfigReport(tuple(errors), tuple(warns))


class EventLog:
    """One uint8 cell code per time bin, in bin order (see ``_cell_code``).

    The columns ``setting1``, ``setting2``, ``outcome1`` and ``outcome2`` are
    decoded from the codes on access, as read-only int8 arrays.
    """

    __slots__ = ("codes",)

    def __init__(self, codes) -> None:
        """Hold ``codes``, a one-dimensional integer array of values 0..143.

        A uint8 array is held as a read-only view, not copied.  Floats,
        booleans, NaN, other shapes and out-of-range codes raise InputError.
        """
        try:
            arr = np.asarray(codes)
        except (TypeError, ValueError) as exc:
            raise InputError(f"event log codes must be an integer array: {exc}") from exc
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise InputError(
                f"event log codes must be a 1-D integer array, not {arr.ndim}-D {arr.dtype}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= _N_CELLS):
            raise InputError(f"event log codes must lie in 0..{_N_CELLS - 1}")
        self.codes = arr.astype(np.uint8, copy=False).view()
        self.codes.flags.writeable = False

    setting1 = property(lambda self: _column(self.codes // 72))
    setting2 = property(lambda self: _column(self.codes // 36 & 1))
    outcome1 = property(lambda self: _column(self.codes % 36 // 6 + 1))
    outcome2 = property(lambda self: _column(self.codes % 6 + 1))

    def __len__(self) -> int:
        return int(self.codes.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return np.array_equal(self.codes, other.codes)

    def to_csv(self, path) -> None:
        """Write the log as CSV: the header, then one CRLF-terminated row per bin.

        Rows are rendered by ``_render_rows`` in blocks of at most
        ``_WRITE_BLOCK`` bins, so memory stays bounded whatever the log's length.
        """
        n = len(self)
        try:
            handle = open(path, "wb")
        except OSError as exc:
            raise InputError(f"cannot write event log {path}: {exc}") from exc
        scratch = np.empty(min(n, _WRITE_BLOCK) * (len(str(n)) + 10), dtype=np.uint8)
        with handle:
            handle.write(_CSV_HEADER + b"\r\n")
            for start in range(0, n, _WRITE_BLOCK):
                codes = self.codes[start : start + _WRITE_BLOCK]
                handle.write(_render_rows(scratch, start + 1, codes))

    @classmethod
    def from_csv(cls, path) -> "EventLog":
        """Read a log written by ``to_csv``; any other form raises InputError.

        Accepted: the header line, then rows ``<bin>,<s1>,<s2>,<o1>,<o2>``
        with the bin written in canonical decimal and equal to the row's
        1-based number, single-digit settings 0/1 and outcomes 1-6, lines
        ending in CRLF or LF, the last one optionally unterminated.  The file
        is read in blocks of ``_READ_BLOCK`` bytes cut after the last newline.
        A block that ``_render_rows`` renders back to the same bytes is taken
        as it is; any other goes to ``_parse_rows``, which decides the rest
        of the grammar and words every error.
        """
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise InputError(f"cannot read event log {path}: {exc}") from exc
        with handle:
            header = handle.readline(len(_CSV_HEADER) + 2)
            if header.removesuffix(b"\n").removesuffix(b"\r") != _CSV_HEADER:
                raise InputError(f"event log {path} line 1: unexpected header {header!r}")
            scratch = np.empty(_MAX_LINE + 1 + _READ_BLOCK, dtype=np.uint8)
            blocks = [np.empty(0, dtype=np.uint8)]
            rows = 0
            carry = b""
            while chunk := handle.read(_READ_BLOCK):
                buf = carry + chunk
                cut = buf.rfind(b"\n") + 1
                blocks.append(_read_rows(buf[:cut], rows, path, scratch))
                rows += len(blocks[-1])
                carry = buf[cut:]
                if len(carry) > _MAX_LINE:
                    raise InputError(
                        f"event log {path} line {rows + 2}: row longer than {_MAX_LINE} bytes"
                    )
            if carry:
                blocks.append(_read_rows(carry + b"\n", rows, path, scratch))
        return cls(np.concatenate(blocks))


def _column(values: np.ndarray) -> np.ndarray:
    """A column decoded from the uint8 codes, as a read-only int8 array."""
    column = values.view(np.int8)
    column.flags.writeable = False
    return column


def _cell_code(s1, s2, o1, o2):
    """Flat (pair, o1, o2) cell index 36 * (2 * s1 + s2) + 6 * (o1 - 1) + o2 - 1.

    Kept in the inputs' dtype: uint8 fields of a valid row reach at most 150
    before the - 7, so nothing wraps.
    """
    return 72 * s1 + 36 * s2 + 6 * o1 + o2 - 7


@functools.lru_cache(maxsize=1)
def _tail_table() -> np.ndarray:
    """The row tail ``,s1,s2,o1,o2`` of each cell code, as 8 little-endian bytes."""
    fields = np.indices((2, 2, 6, 6), dtype=np.uint8).reshape(4, -1)
    fields[2:] += 1
    tails = np.empty((fields.shape[1], 8), dtype=np.uint8)
    tails[:, 0::2] = ord(",")
    tails[:, 1::2] = fields.T + ord("0")
    table = np.empty(len(tails), dtype="<u8")
    table[_cell_code(*fields)] = tails.view("<u8").ravel()
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=len(_POW10))
def _row_template(width: int) -> np.ndarray:
    """Rows of ``width``-digit bins over one span: the low digits 0...0 to 9...9, CRLF.

    A span is ``10**_SPAN_DIGITS`` bins (all of them for a narrower width).
    The high digits and the tail are left zero for ``_render_rows`` to fill.
    """
    low = min(width, _SPAN_DIGITS)
    rows = np.zeros((10**low, width + 10), dtype=np.uint8)
    rows[:, width - low : width] = np.indices((10,) * low, dtype=np.uint8).reshape(low, -1).T
    rows[:, width - low : width] += ord("0")
    rows[:, -2:] = (ord("\r"), ord("\n"))
    rows.flags.writeable = False
    return rows


def _render_rows(out: np.ndarray, first: int, codes: np.ndarray) -> np.ndarray:
    """Render the canonical CSV rows of bins ``first``, ``first + 1``, ... into ``out``.

    The only code that knows the row bytes ``<bin>,<s1>,<s2>,<o1>,<o2>\\r\\n``.
    ``codes`` holds each row's ``_cell_code``; ``out`` is a uint8 scratch
    buffer long enough for the rows.  Each run of rows in one span copies
    the span's template, sets its constant high digits and stores each
    row's tail as one 8-byte word.  Returns the rendered prefix of ``out``.
    """
    # clip: a code decoded from non-canonical bytes may exceed the table
    tails = _tail_table().take(codes, mode="clip")
    pos = done = 0
    bin_ = first
    while done < len(codes):
        template = _row_template(len(str(bin_)))
        span, size = template.shape
        width = size - 10
        low = bin_ % span
        run = min(len(codes) - done, span - low)
        rows = out[pos : pos + run * size].reshape(run, size)
        rows[...] = template[low : low + run]
        if width > _SPAN_DIGITS:
            rows[:, : width - _SPAN_DIGITS] = np.frombuffer(str(bin_ // span).encode(), np.uint8)
        tail = np.ndarray((run,), dtype="<u8", buffer=out, offset=pos + width, strides=(size,))
        tail[...] = tails[done : done + run]
        pos += run * size
        done += run
        bin_ += run
    return out[:pos]


def _read_rows(buf: bytes, first_row: int, path, scratch: np.ndarray) -> np.ndarray:
    """``_parse_rows``, taking ``buf`` as it is when it renders back to itself.

    The row count of canonical CRLF rows follows from the length of ``buf``,
    width by width; their tails give the cell codes, and ``_render_rows``
    must reproduce ``buf`` byte for byte from them.
    """
    tails = [np.empty(0, dtype="<u8")]
    pos, bin_ = 0, first_row + 1
    while pos < len(buf):
        width = len(str(bin_))
        size = width + 10
        run = min((len(buf) - pos) // size, 10**width - bin_)
        if run == 0:
            return _parse_rows(buf, first_row, path)
        tails.append(
            np.ndarray((run,), dtype="<u8", buffer=buf, offset=pos + width, strides=(size,))
        )
        pos += run * size
        bin_ += run
    # a non-canonical tail decodes to a wrong code, which the comparison catches
    tail_bytes = np.concatenate(tails).view(np.uint8).reshape(-1, 8)
    codes = _cell_code(*(tail_bytes[:, 1::2].T - np.uint8(ord("0"))))
    if _render_rows(scratch, first_row + 1, codes).tobytes() != buf:
        return _parse_rows(buf, first_row, path)
    return codes


def _parse_rows(buf: bytes, first_row: int, path) -> np.ndarray:
    """Check newline-terminated CSV rows and return their uint8 cell codes.

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
    return _cell_code(*fields)


def _guide_table(cumulative: np.ndarray) -> np.ndarray:
    """Read-only uint8: at k * _GUIDE + b, pair k's cell on [b, b + 1) / _GUIDE, or _SPLIT."""
    edges = np.arange(_GUIDE + 1) / _GUIDE
    lo = np.stack([np.searchsorted(cum, edges[:-1], side="right") for cum in cumulative])
    hi = np.stack([np.searchsorted(cum, edges[1:], side="left") for cum in cumulative])
    guide = np.where(lo == hi, np.minimum(lo, 35), _SPLIT).astype(np.uint8).reshape(-1)
    guide.flags.writeable = False
    return guide


def _lookup_cells(guide, cumulative, pairs, u) -> np.ndarray:
    """uint8 min(searchsorted(cumulative[pair], u, "right"), 35) per (pair, u)."""
    cells = guide.take(pairs.astype(np.intp) * _GUIDE + (u * _GUIDE).astype(np.intp))
    split = np.flatnonzero(cells == _SPLIT)
    # cumulative never decreases: its count of values <= u is searchsorted "right"
    cells[split] = np.minimum((cumulative[pairs[split]] <= u[split, None]).sum(axis=1), 35)
    return cells


def run_experiment(config: RunConfig) -> EventLog:
    """Simulate one counting run; bit-identical for identical configs and seeds.

    Vacuum bins get the cell of outcome (3, 3); outcome sampling and loss
    thinning run on the emitted bins only (thinning maps a vacuum station to 3
    anyway).
    """
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
    guide = _guide_table(cumulative)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    codes = np.empty(n, dtype=np.uint8)
    block = np.empty((min(_CHUNK, n), width))  # reused: no fresh pages per block
    for start in range(0, n, _CHUNK):
        u = block[: min(_CHUNK, n - start)]
        rng.random(out=u)
        pair_index = (u[:, 0] * _N_SETTING_PAIRS).astype(np.uint8)  # exact scaling: below 4
        codes[start : start + len(u)] = 36 * pair_index + _VACUUM_CELL

        emitted = np.flatnonzero(u[:, 1] < config.pair_probability)
        rows = u.take(emitted, axis=0)
        pairs = pair_index.take(emitted)
        cells = _lookup_cells(guide, cumulative, pairs, rows[:, 2])
        if not ideal:
            # flat index 16 * cell + 8 * h1a + 4 * h1b + 2 * h2a + h2b into _LOSS_TABLE
            hits = (rows[:, 3:] < config.detector_efficiency).view(np.uint8)
            bits = hits @ np.array([8, 4, 2, 1], dtype=np.uint8)
            cells = _LOSS_TABLE.reshape(-1).take(16 * cells.astype(np.intp) + bits)
        codes[start + emitted] = 36 * pairs + cells

    return EventLog(codes)


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
    # Counted per block, since bincount casts its uint8 input to an intp copy.
    counts = np.zeros(_N_CELLS, dtype=np.int64)
    for start in range(0, len(log), _CHUNK):
        counts += np.bincount(log.codes[start : start + _CHUNK], minlength=_N_CELLS)
    counts = counts.reshape(4, 6, 6)
    pair_bins = counts.sum(axis=(1, 2))
    if (pair_bins == 0).any():
        missing = [k for k in range(4) if pair_bins[k] == 0]
        raise EmptySettingPairError(f"no events for setting pair(s) {missing}")

    correlators = []
    stderrs = []
    for k in range(4):
        mean = float(np.sum(SIGN_TABLE * counts[k]) / pair_bins[k])
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
