"""The package's two kinds of failure, under one base class, and how a bad value is shown.

Every library failure is one of two kinds, and the CLI maps each to an exit
code: InputError covers malformed user-supplied data (bad angles, bad config
files, bad tables, bad event logs) and maps to exit code 2, while ModelError
covers violated physics or algebra contracts (occupancy overflow, non-unitary
matrices, mismatched labels) and maps to exit code 4.  The message says which
check fired, and shows the offending value through ``shown``.
"""

import reprlib


class PdcBellError(Exception):
    """Base class for all package errors."""


class InputError(PdcBellError):
    """User-supplied data is malformed or out of the supported range."""


class ModelError(PdcBellError):
    """An internal physics or algebra invariant was violated."""


class _Shown(reprlib.Repr):
    def repr_int(self, x, level):
        if x.bit_length() <= 1024:  # within the float range: at most 309 digits
            return super().repr_int(x, level)
        return f"{'-' * (x < 0)}<int of {x.bit_length()} bits>"  # Python writes no 4 301 digits


_SHOWN = _Shown()
_SHOWN.maxstring = _SHOWN.maxother = 60


def shown(value) -> str:
    """``value`` as an error message shows it: its repr, cut to a few dozen characters and a
    few entries per container, an int beyond the float range as its bit length.  Never raises."""
    return _SHOWN.repr(value)
