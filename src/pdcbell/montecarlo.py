"""Time-binned counting protocol, and the station response to detector loss.

The run is divided into bins of width tau, chosen below the light-travel
time between the stations so a bin's analyzer choices cannot influence each
other, and small enough that at most one pair is emitted per bin.  At each
bin both analyzers jump to fresh, uniformly random settings out of the four
CHSH combinations; almost all bins contain no photons at all, and those
count as outcome (3, 3) rather than being discarded.

Reproducibility contract: the generator is numpy's PCG64, seeded with the
config seed, consumed as one uniform stream in bin-major order with three
slots per bin, whatever the config: slot 0 picks the setting pair, slot 1
decides pair emission, slot 2 picks the outcome cell from the pair's
detected law R P R^T.  P is the emitted 6x6 table and R the station response
to detector loss (``station_response``), the identity at efficiency 1.  The
same builder composes a cascade of click detectors behind each port into R.
A reference sequence for the generator ships with the test suite.

The stream is drawn in sequential blocks of ``_CHUNK`` bins; consecutive
draws from one generator continue the same stream, so a blocked run is
bit-identical to a single whole-stream draw while holding only one block of
uniforms besides the event log.  Outcome cells come from a guide table, exact
as a binary search in the cumulative distribution.  The log keeps one byte
per bin: the bin's ``_cell_code``, its (setting pair, i, j) cell out of 144.

Event logs are CSV.  One renderer, ``_render_rows``, is the row grammar:
``EventLog.to_csv`` writes what it renders, and ``EventLog.from_csv``
accepts a block only when the renderer reproduces it from the block's own
fields, as it stands or with every line ending made CRLF.  An error names
the line holding the first byte where the two differ.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .bell import CHSH_SIGNS, SIGN_TABLE, ChshSettings
from .errors import InputError, shown
from .measurement import (
    OutcomeClass,
    classify_occupation,
    closed_object,
    joint_distribution,
    number,
    outcome_occupation,
)
from .optics import build_experiment_state

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Above this per-bin pair probability the one-pair-per-bin assumption is shaky.
PAIR_PROBABILITY_WARN = 0.1

#: Longest accepted run in bins, and longest event log read: 1 GB in memory.
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

#: Bins drawn per block of the random stream; a block of uniforms,
#: ``_CHUNK * 3 * 8`` bytes (0.4 MB), stays in L2.
_CHUNK = 1 << 14
#: Buckets per setting pair of ``_guide_table``: a power of two, so u * _GUIDE is exact.
_GUIDE = 1 << 12
_SPLIT = 255  # guide entry of a bucket that a cumulative value splits

_CSV_HEADER = b"bin,setting1,setting2,outcome1,outcome2"
# Rows rendered per write and bytes read per block by the CSV event-log I/O.
# A write block's 8 B/row of tails stays below a run's block of uniforms: glibc
# raises its mmap threshold to the largest block freed, so they reuse heap pages.
_WRITE_BLOCK = 1 << 14
_READ_BLOCK = 1 << 19
# No valid row comes near this length (an int64 bin has at most 19 digits).
_MAX_LINE = 64
# Low bin digits a row template covers: rows in one aligned span of
# 10**_SPAN_DIGITS bins differ only there and in their tail.
_SPAN_DIGITS = 5


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Parameters of one counting run, checked on construction.  SI units, angles in radians."""

    total_time: float
    bin_width: float
    pair_probability: float
    settings: ChshSettings
    seed: int
    station_separation: float | None = None
    detector_efficiency: float = 1.0

    def __post_init__(self) -> None:
        """Every field passes the number rule, and every bad one is reported at once,
        before any arithmetic on them; then the bin count T/tau must be an integer
        in [1, ``MAX_BINS``], so no run is sized from an unchecked count, and tau < L/c."""
        errors = []
        for name, value, interval in (
            ("T", self.total_time, "(0, inf)"),
            ("tau", self.bin_width, "(0, inf)"),
            ("p_pair", self.pair_probability, "[0, 1]"),
            ("L", self.station_separation, "(0, inf)"),
            ("detector_efficiency", self.detector_efficiency, "(0, 1]"),
            ("seed", self.seed, "[0, inf)"),
        ):
            try:
                if name != "L" or value is not None:
                    number(value, name, interval, integer=name == "seed")
            except InputError as exc:
                errors.append(str(exc))
        if not isinstance(self.settings, ChshSettings):
            errors.append(f"settings must be a ChshSettings, got {shown(self.settings)}")
        if not errors:
            ratio = float(self.total_time) / float(self.bin_width)  # no numpy overflow warning
            if not math.isfinite(ratio):
                errors.append(f"T/tau = {ratio} is not finite")
            elif ratio > MAX_BINS + 0.5:
                errors.append(f"T/tau = {ratio:.6g} bins exceeds the limit of {MAX_BINS}")
            elif abs(ratio - round(ratio)) > _RATIO_ULPS * max(1.0, ratio) or round(ratio) < 1:
                errors.append(f"T/tau = {ratio} is not a positive integer bin count")
            limit = (self.station_separation or math.inf) / SPEED_OF_LIGHT  # no L, no limit
            if self.bin_width >= limit:
                errors.append(
                    f"tau = {self.bin_width}s must be below L/c = {limit:.3e}s "
                    f"for L = {self.station_separation}m"
                )
        if errors:
            raise InputError("; ".join(errors))

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
    def from_json_dict(cls, data) -> "RunConfig":
        """Parse the run-config JSON object, closed to the keys of ``to_json_dict``.
        Values pass the number rule as they are, never cast: a string or bool for a number
        (``"1e-5"``, ``true``) and a seed that is no integer (``1.5``, ``"7"``) raise InputError."""
        keys = ("T", "tau", "p_pair", "settings_rad", "seed")
        data = closed_object(data, "run config", keys, ("L", "detector_efficiency"))
        return cls(
            total_time=data["T"],
            bin_width=data["tau"],
            pair_probability=data["p_pair"],
            settings=ChshSettings.parse(data["settings_rad"], "settings_rad"),
            seed=data["seed"],
            station_separation=data.get("L"),
            detector_efficiency=data.get("detector_efficiency", 1.0),
        )


@dataclass(frozen=True, slots=True)
class EventLog:
    """One uint8 cell code per time bin, in bin order (see ``_cell_code``).

    ``codes`` is a one-dimensional integer array of values 0..143; a uint8
    array is held as a read-only view, not copied.  Floats, booleans, NaN,
    other shapes and out-of-range codes raise InputError.  The columns
    ``setting1``, ``setting2``, ``outcome1`` and ``outcome2`` are decoded
    from the codes on access, as read-only int8 arrays.
    """

    codes: np.ndarray

    def __post_init__(self) -> None:
        try:
            arr = np.asarray(self.codes)
        except (TypeError, ValueError) as exc:
            raise InputError(f"event log codes must be an integer array: {exc}") from exc
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise InputError(
                f"event log codes must be a 1-D integer array, not {arr.ndim}-D {arr.dtype}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= _N_CELLS):
            raise InputError(f"event log codes must lie in 0..{_N_CELLS - 1}")
        codes = arr.astype(np.uint8, copy=False).view()
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

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
        A file that fails to open, take a write or close raises InputError; a regular
        one is removed first, as a log cut at a row boundary reads as a shorter run.
        """
        n = len(self)
        scratch = np.empty(min(n, _WRITE_BLOCK) * (len(str(n)) + 10), dtype=np.uint8)
        tails = np.empty(min(n, _WRITE_BLOCK), dtype="<u8")
        regular = False
        try:
            with open(path, "wb") as handle:
                regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
                handle.write(_CSV_HEADER + b"\r\n")
                for start in range(0, n, _WRITE_BLOCK):
                    codes = self.codes[start : start + _WRITE_BLOCK]
                    handle.write(_render_rows(scratch, start + 1, codes, tails))
        except OSError as exc:
            if regular:
                with contextlib.suppress(OSError):
                    os.unlink(path)
            raise InputError(f"cannot write event log {path}: {exc}") from exc

    @classmethod
    def from_csv(cls, path) -> "EventLog":
        """Read a log written by ``to_csv``; any other form raises InputError.

        Accepted: the header line, then rows ``<bin>,<s1>,<s2>,<o1>,<o2>``
        with the bin written in canonical decimal and equal to the row's
        1-based number, single-digit settings 0/1 and outcomes 1-6, lines
        ending in CRLF or LF, the last one optionally unterminated, and at
        most ``MAX_BINS`` rows, the longest run.  The file is read into one
        reused buffer in blocks of ``_READ_BLOCK`` bytes, cut after the last
        newline, the partial line carried to the buffer's front; ``_read_rows``
        accepts a block only when ``_render_rows`` renders it back, as it
        stands or in its CRLF form, and the row count is checked per block.
        The codes go into one array sized from the file length, grown when
        the input is a pipe or holds more rows, and cut to the rows read.
        """
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise InputError(f"cannot read event log {path}: {exc}") from exc
        with handle:
            header = handle.readline(len(_CSV_HEADER) + 2)
            if header.removesuffix(b"\n").removesuffix(b"\r") != _CSV_HEADER:
                raise InputError(f"event log {path} line 1: unexpected header {header!r}")
            info = os.fstat(handle.fileno())
            size = info.st_size - len(header) if stat.S_ISREG(info.st_mode) else 0
            codes = np.empty(_max_rows(size), dtype=np.uint8)
            buf = bytearray(_MAX_LINE + 1 + _READ_BLOCK)
            data = np.frombuffer(buf, np.uint8)
            # a block's CRLF form takes up to twice its bytes
            scratch = np.empty(2 * len(buf), dtype=np.uint8)
            work = np.empty(len(scratch) // 8 + 1, dtype="<u8")
            rows = carry = 0
            while end := carry + handle.readinto(data[carry : carry + _READ_BLOCK]):
                if end == carry:  # end of file after an unterminated last row
                    buf[end] = ord("\n")
                    end += 1
                cut = buf.rfind(b"\n", 0, end) + 1
                need = rows + cut // 10  # a row takes at least 10 bytes
                if need > len(codes):  # in place: no view of codes is left
                    codes.resize(max(need, min(2 * len(codes), MAX_BINS)), refcheck=False)
                rows += _read_rows(data[:cut], rows, path, codes[rows:need], scratch, work)
                if rows > MAX_BINS:
                    raise InputError(
                        f"event log {path} line {MAX_BINS + 2}: more than {MAX_BINS} rows"
                    )
                carry = end - cut
                if carry > _MAX_LINE:
                    raise InputError(
                        f"event log {path} line {rows + 2}: row longer than {_MAX_LINE} bytes"
                    )
                buf[:carry] = buf[cut:end]
        codes.resize(rows, refcheck=False)
        return cls(codes)


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


@functools.lru_cache(maxsize=19)  # an int64 bin has at most 19 digits
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


def _render_rows(out: np.ndarray, first: int, codes: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Render the canonical CSV rows of bins ``first``, ``first + 1``, ... into ``out``.

    The only code that knows the row bytes ``<bin>,<s1>,<s2>,<o1>,<o2>\\r\\n``.
    ``codes`` holds each row's ``_cell_code``; ``out`` (uint8) and ``tails`` (uint64, a
    word per row) are scratch buffers long enough for the rows.  Each run of rows in one
    span copies the span's template, sets its constant high digits and stores each row's
    tail word, gathered into ``tails``.  Returns the rendered prefix of ``out``.
    """
    # widened in place, the codes need no index copy, nor a contiguous out a write-back
    # one; clip: a code decoded from non-canonical bytes may exceed the table
    tails = tails[: len(codes)]
    np.copyto(tails.view(np.int64), codes)
    np.take(_tail_table(), tails.view(np.int64), mode="clip", out=tails)
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
            # the constant high digits, one strided byte column each: numpy
            # broadcasts them into the 2-D rows on a slow path
            for j, digit in enumerate(str(bin_ // span).encode()):
                out[pos + j : pos + run * size : size] = digit
        tail = np.ndarray((run,), dtype="<u8", buffer=out, offset=pos + width, strides=(size,))
        tail[...] = tails[done : done + run]
        pos += run * size
        done += run
        bin_ += run
    return out[:pos]


def _max_rows(size: int) -> int:
    """The most rows ``size`` bytes after the header can hold, at most ``MAX_BINS``.

    Every row ends in LF, the shortest ending, except the last, which may
    have none; a log holding more rows is not accepted.
    """
    rows, width, size = 0, 1, size + 1
    while size >= width + 9:
        run = min(size // (width + 9), 9 * 10 ** (width - 1))
        rows += run
        size -= run * (width + 9)
        width += 1
    return min(rows, MAX_BINS)


def _read_rows(block, first_row: int, path, out, scratch, work) -> int:
    """Decode newline-terminated rows into ``out``; their count, or InputError.

    ``block`` is a uint8 array, ``first_row`` counts the rows before it and
    ``out`` holds ``len(block) // 10`` codes, as many rows as it can hold.
    The rows are accepted when ``_render_rows`` renders their codes back to
    them, as they stand or in their CRLF form (LF and mixed endings).
    Otherwise the error names the line holding the first byte where the CRLF
    form and its rendering differ.  ``scratch`` (uint8) and ``work`` (uint64)
    each hold twice the block's bytes; only the CRLF form allocates.
    """
    rows, rendered = _render_back(block, first_row, out, scratch, work)
    if _same(rendered, block, work):
        return rows
    crlf = bytes(block).replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")
    crlf_block = np.frombuffer(crlf, np.uint8)
    codes = np.empty(len(crlf) // 11, dtype=np.uint8)
    rows, rendered = _render_back(crlf_block, first_row, codes, scratch, work)
    if _same(rendered, crlf_block, work):
        out[:rows] = codes[:rows]
        return rows
    # the rendering is never longer than crlf; a prefix of it differs at its end
    same = crlf_block[: len(rendered)] == rendered
    bad = crlf.count(b"\n", 0, np.append(same, False).argmin())
    line = bytes(block).split(b"\n", bad + 1)[bad] + b"\n"
    raise InputError(
        f"event log {path} line {first_row + bad + 2}: malformed row {line[:_MAX_LINE]!r}"
    )


def _same(rendered: np.ndarray, block: np.ndarray, work: np.ndarray) -> bool:
    """Whether two uint8 arrays hold the same bytes; ``work`` holds the flags."""
    if len(rendered) != len(block):
        return False
    return bool(np.equal(rendered, block, out=work.view(bool)[: len(block)]).all())


#: Keeps the low nibble of each field digit of a tail word, at bits 8, 24, 40, 56.
_TAIL_DIGITS = np.uint64(0x0F000F000F000F00)
#: Times the masked word, puts ``_cell_code`` + 7 of its fields into bits 56-63:
#: field k sits at bit 16 k + 8 and meets its weight at bit 48 - 16 k.  The
#: other partial products stay below bit 56 or overflow.
_TAIL_WEIGHTS = np.uint64(_cell_code(1 << 48, 1 << 32, 1 << 16, 1) + 7)


def _render_back(block, first_row: int, out, scratch, work) -> tuple[int, np.ndarray]:
    """Decode ``block`` as canonical CRLF rows into ``out``: their count and rendering.

    The row count follows from the length of ``block``, width by width; a
    remainder too short for a whole row is left out.  Each row's 8-byte
    tail word decodes with one mask, multiply and shift in ``work`` (reused by
    the rendering); a non-canonical tail decodes to a wrong code, which it shows.
    """
    rows, pos, bin_ = 0, 0, first_row + 1
    while pos + len(str(bin_)) + 10 <= len(block):
        width = len(str(bin_))
        size = width + 10
        run = min((len(block) - pos) // size, 10**width - bin_)
        tails = np.ndarray((run,), dtype="<u8", buffer=block, offset=pos + width, strides=(size,))
        np.bitwise_and(tails, _TAIL_DIGITS, out=work[rows : rows + run])
        rows += run
        pos += run * size
        bin_ += run
    out = out[:rows]
    np.multiply(work[:rows], _TAIL_WEIGHTS, out=work[:rows])
    np.right_shift(work[:rows], np.uint64(56), out=out, casting="unsafe")
    out -= np.uint8(7)  # wraps a non-canonical tail's code, which take clips
    return rows, _render_rows(scratch, first_row + 1, out, work)


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


def station_response(efficiency: float = 1.0, fanout: int | None = None) -> np.ndarray:
    """Column-stochastic R[detected - 1, emitted - 1] of one station's outcome classes.

    Each emitted photon is seen independently with probability ``efficiency``
    and the photons seen are classified again; R is the identity at efficiency 1.
    With a cascade of ``fanout`` click detectors behind each port, a pair seen
    in one port reaches one arm, and reads as one photon, with probability
    1/fanout: R is that merge times the loss response, loss first.  Both pass
    the number rule: an efficiency outside (0, 1], or a fan-out that is no
    integer in [2, inf), raises InputError.
    """
    number(efficiency, "efficiency", "(0, 1]")
    if fanout is not None:
        number(fanout, "cascade fan-out", "[2, inf)", integer=True)
    response = np.zeros((len(OutcomeClass), len(OutcomeClass)))
    for code in OutcomeClass:
        occupation = outcome_occupation(code)
        for seen in np.ndindex(*(n + 1 for n in occupation)):
            weight = math.prod(
                math.comb(n, k) * efficiency**k * (1 - efficiency) ** (n - k)
                for n, k in zip(occupation, seen)
            )
            response[classify_occupation(*seen) - 1, code - 1] += weight
    if fanout is not None:
        same_arm = 1 / fanout
        pairs = [OutcomeClass.DOUBLE_PARA - 1, OutcomeClass.DOUBLE_PERP - 1]
        ones = [OutcomeClass.SINGLE_PARA - 1, OutcomeClass.SINGLE_PERP - 1]
        response[ones] += same_arm * response[pairs]
        response[pairs] *= 1 - same_arm
    return response


def run_experiment(config: RunConfig) -> EventLog:
    """Simulate one counting run; bit-identical for identical configs and seeds.

    Three uniforms per bin: vacuum bins get the cell of outcome (3, 3), an emitted
    bin's cell is drawn from its setting pair's law R P R^T, loss folded in.
    """
    if config.pair_probability > PAIR_PROBABILITY_WARN:
        warnings.warn(
            f"p_pair = {config.pair_probability} > {PAIR_PROBABILITY_WARN}: "
            "multiple pairs per bin are no longer negligible",
            stacklevel=2,
        )

    state = build_experiment_state()
    response = station_response(config.detector_efficiency)
    cumulative = np.stack(
        [
            np.cumsum(response @ joint_distribution(state, xi, eta).probs @ response.T)
            for xi, eta in config.settings.setting_pairs()
        ]
    )

    n = config.n_bins
    guide = _guide_table(cumulative)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    codes = np.empty(n, dtype=np.uint8)
    block = np.empty((min(_CHUNK, n), 3))  # reused: no fresh pages per block
    for start in range(0, n, _CHUNK):
        u = block[: min(_CHUNK, n - start)]
        rng.random(out=u)
        pair_index = (u[:, 0] * _N_SETTING_PAIRS).astype(np.uint8)  # exact scaling: below 4
        codes[start : start + len(u)] = 36 * pair_index + _VACUUM_CELL

        emitted = np.flatnonzero(u[:, 1] < config.pair_probability)
        pairs = pair_index.take(emitted)
        codes[start + emitted] = 36 * pairs + _lookup_cells(guide, cumulative, pairs, u[emitted, 2])

    return EventLog(codes)


@dataclass(frozen=True, slots=True, eq=False)
class EstimateReport:
    """Counting-run summary: the cell counts, and the estimates they determine.

    ``counts`` is a read-only (4, 6, 6) array of events per (setting pair,
    i, j).  Anything but non-negative integers in that shape raises
    InputError, as does a setting pair without events.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.counts)
        if arr.shape != (4, 6, 6):
            raise InputError(f"counts must have shape (4, 6, 6), not {arr.shape}")
        if arr.dtype.kind not in "iu":
            raise InputError(f"counts must be integers, not {arr.dtype}")
        if (arr < 0).any():
            cell = tuple(int(i) for i in np.argwhere(arr < 0)[0])
            raise InputError(f"counts must be non-negative, not {arr[cell]} at {cell}")
        if missing := [k for k in range(4) if arr[k].sum() == 0]:
            raise InputError(f"no events for setting pair(s) {missing}")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    n_bins = property(lambda self: int(self.counts.sum()))
    n_vacuum = property(lambda self: int(self.counts[:, 2, 2].sum()))  # no photons at either end

    @property
    def correlators(self) -> tuple[float, float, float, float]:
        pair_bins = self.counts.sum(axis=(1, 2))
        return tuple(float(np.sum(SIGN_TABLE * self.counts[k]) / pair_bins[k]) for k in range(4))

    @property
    def correlator_stderrs(self) -> tuple[float, float, float, float]:
        pairs = zip(self.correlators, self.counts.sum(axis=(1, 2)))
        return tuple(math.sqrt(max(1.0 - mean * mean, 0.0) / n) for mean, n in pairs)

    chsh = property(lambda self: float(sum(s * e for s, e in zip(CHSH_SIGNS, self.correlators))))
    chsh_stderr = property(lambda self: math.sqrt(sum(se * se for se in self.correlator_stderrs)))

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
    """The log's cell counts: the report derives correlators and plug-in standard errors."""
    # Counted per block, since bincount casts its uint8 input to an intp copy.
    counts = np.zeros(_N_CELLS, dtype=np.int64)
    for start in range(0, len(log), _CHUNK):
        counts += np.bincount(log.codes[start : start + _CHUNK], minlength=_N_CELLS)
    return EstimateReport(counts.reshape(4, 6, 6))
