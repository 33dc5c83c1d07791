"""Exception types shared across the pipeline.

Everything derived from RadopplerError signals a problem with the user's
input or configuration; the CLI maps these to exit code 2. Unexpected
exceptions map to exit code 1.
"""


class RadopplerError(Exception):
    """Invalid input data or configuration."""


class FileFormatError(RadopplerError):
    """File is missing, malformed, or inconsistent with its metadata."""


class DegenerateInputError(RadopplerError):
    """Input is formally valid but carries no usable signal (e.g. all zeros)."""


class DegenerateCornerError(DegenerateInputError):
    """Corner search landed below the minimum usable corner frequency."""


class ForcedCornerError(RadopplerError, ValueError):
    """A forced corner frequency does not round to a bin inside the axis."""


class ConfigMismatchError(RadopplerError, ValueError):
    """A config value the cube cannot hold; the message names the key, its value and the limit."""


class FilterBankError(RadopplerError):
    """Filter-bank break points collapsed; the warp is not resolvable."""


class AliasingError(RadopplerError):
    """A scatterer's peak Doppler exceeds the unambiguous band."""
