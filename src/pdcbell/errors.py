"""The package's two kinds of failure, under one base class.

Every library failure is one of two kinds, and the CLI maps each to an exit
code: InputError covers malformed user-supplied data (bad angles, bad config
files, bad tables, bad event logs) and maps to exit code 2, while ModelError
covers violated physics or algebra contracts (occupancy overflow, non-unitary
matrices, mismatched labels) and maps to exit code 4.  The message says which
check fired.
"""


class PdcBellError(Exception):
    """Base class for all package errors."""


class InputError(PdcBellError):
    """User-supplied data is malformed or out of the supported range."""


class ModelError(PdcBellError):
    """An internal physics or algebra invariant was violated."""
