"""Exception hierarchy shared across the package.

Two branches matter for the CLI exit-code mapping: InputError covers
malformed user-supplied data (bad angles, bad config files, bad tables)
and maps to exit code 2, while ModelError covers violated physics or
algebra contracts (occupancy overflow, non-unitary matrices, mismatched
labels) and maps to exit code 4.
"""


class PdcBellError(Exception):
    """Base class for all package errors."""


class InputError(PdcBellError):
    """User-supplied data is malformed or out of the supported range."""


class ModelError(PdcBellError):
    """An internal physics or algebra invariant was violated."""


class OccupancyOverflowError(ModelError):
    """A creation operator would push a mode (or state) past 2 photons."""


class NonUnitaryMatrixError(ModelError):
    """A mode transformation matrix failed the unitarity check."""


class ModeLabelMismatchError(ModelError):
    """Two states use different spatial labelings and cannot be combined."""


class UnknownModeError(ModelError):
    """A spatial label or polarization index does not exist in the state."""


class WrongFrameError(ModelError):
    """Operation applied to a state in the wrong spatial frame

    (e.g. beamsplitter applied to an already post-beamsplitter state).
    """


class OutOfModelError(ModelError):
    """A detector occupation pattern falls outside the two-photon model."""


class InconsistentSettingsError(InputError):
    """Four correlation tables do not share a consistent CHSH setting pattern."""


class CertificateExtractionError(ModelError):
    """LP dual did not yield a verifiable separating functional."""


class InvalidConfigError(InputError):
    """A simulation run configuration violates its invariants."""


class EmptySettingPairError(InputError):
    """An event log contains no events for one of the four setting pairs."""
