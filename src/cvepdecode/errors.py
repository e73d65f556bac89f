"""Exception hierarchy shared by all cvepdecode modules.

DataError subclasses indicate malformed or inconsistent inputs (CLI exit
code 2); NumericalError subclasses indicate a computation that could not
be completed (exit code 3).
"""


class CvepError(Exception):
    """Base class for all cvepdecode errors."""


class DataError(CvepError):
    """Invalid, malformed, or inconsistent input data."""


class NumericalError(CvepError):
    """A numerical procedure failed or produced non-finite results."""


# -- code generation ---------------------------------------------------------

class InvalidSeed(DataError):
    """LFSR register seeded with the all-zero state."""


class NotPrimitive(DataError):
    """Feedback taps do not define a primitive polynomial (period < 2^n - 1)."""


class DegeneratePair(DataError):
    """Gold construction called with two identical m-sequences."""


class LengthMismatch(DataError):
    """Sequence length does not match the operation's requirement."""


class InsufficientCodes(DataError):
    """Requested more codes than are available."""


class UnmodulatedCode(DataError):
    """Code violates the run-length-limited modulation invariants."""


class InvalidCodeSet(DataError):
    """A code set read from outside is empty, holds a malformed line, a
    repeated code, or codes of unequal lengths."""


# -- signal processing -------------------------------------------------------

class InvalidCutoff(DataError):
    """Filter cutoff at or above the Nyquist frequency, or badly ordered."""


class TruncatedTrial(DataError):
    """Trial window extends past the edge of the recording."""


class TrialTooShort(DataError):
    """Trial too short for the requested analysis window."""


# -- encoding / decoding -----------------------------------------------------

class DegenerateCovariance(NumericalError):
    """Covariance matrix is identically zero or otherwise unusable."""


class ShapeError(DataError):
    """Array dimensions or event layout inconsistent with the decoder or
    its accumulated state."""


class LabelOutOfRange(DataError):
    """A decided label names no hypothesis of the decoder."""


class UnlabeledTrial(DataError):
    """An accuracy was asked of a trial that carries no true label."""


class ConfidenceOutOfRange(DataError):
    """A decision's confidence, used as a weight, is not a number in [0, 1]."""


class InsufficientEpochs(DataError):
    """Too few epochs for covariance estimation."""


class DegenerateHypothesis(DataError):
    """A hypothesis yields an empty flash or non-flash epoch set."""


class NumericalFailure(NumericalError):
    """A trial sample, a score or a filter is non-finite."""


# -- simulation / evaluation / io -------------------------------------------

class InvalidSnr(DataError):
    """Negative or NaN signal-to-noise ratio requested."""


class ConfigError(DataError):
    """Unknown method tag, inconsistent run configuration, or a run
    parameter out of range (a non-finite duration, no runs, no codes)."""


class DegenerateSample(DataError):
    """A paired sample is not finite, or all paired differences are zero;
    the signed-rank test is undefined."""


class CorruptArchive(DataError):
    """Trial archive header and payload are inconsistent."""


class UnsupportedVersion(DataError):
    """Trial archive written by an unknown format version."""
