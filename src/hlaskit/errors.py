"""Exception hierarchy for the toolkit.

Validation errors (bad weights, missing config sections) are distinct from
data errors (missing samples, degenerate inputs) so the CLI can map them to
different exit codes.
"""

from __future__ import annotations


class HlasError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(HlasError):
    """A pre-registration document or weight scheme violates its contract."""


class DataError(HlasError):
    """Measurement or reference data is missing, malformed, or degenerate."""


# --- validation ---------------------------------------------------------

class WeightSumViolation(ValidationError):
    pass


class NegativeWeight(ValidationError):
    pass


class MissingSection(ValidationError):
    pass


class ConfigIncomplete(ValidationError):
    pass


class EmptyCriticalSet(ValidationError):
    pass


class ZeroTarget(ValidationError):
    pass


class ZeroRequirement(ValidationError):
    pass


class DuplicateDeclaration(ValidationError):
    """A registration document gives one mapping key twice."""


class InvalidDeclaration(ValidationError):
    """A registration value that must be a number is not one."""


class NegativeHeadroom(ValidationError, ValueError):
    """A demand headroom below zero.  Also a ``ValueError`` for direct
    callers."""


class TemperatureLimit(ValidationError, ValueError):
    """A duty temperature limit that is not a finite temperature above the
    ambient one.  Also a ``ValueError`` for direct callers."""


class NoiseLevel(ValidationError, ValueError):
    """A synthetic noise level that is negative, NaN or infinite.  Also a
    ``ValueError`` for direct callers."""


class NoiseSeed(ValidationError, ValueError):
    """A synthetic noise seed below zero, which NumPy's generator cannot
    take.  Also a ``ValueError`` for direct callers."""


class PlantParameter(ValidationError, ValueError):
    """A synthetic plant or duty-cycle parameter out of its range: one not
    finite, or not positive where it must be, or a burst that does not fit
    its period.  Also a ``ValueError`` for direct callers."""


class InvalidRange(ValidationError, ValueError):
    """A grid range that is not finite or has lo > hi, or a grid count
    below 1.  Also a ``ValueError`` for direct callers."""


# --- data ---------------------------------------------------------------

class EmptyAxisSet(DataError):
    pass


class DegenerateInterval(DataError):
    pass


class EmptyBand(DataError):
    pass


class DegenerateBand(DataError):
    pass


class ZeroDemand(DataError):
    pass


class SampleMismatch(DataError):
    pass


class MissingJoint(DataError):
    pass


class InsufficientCycles(DataError):
    pass


class AliasedFrequency(DataError):
    pass


class InsufficientExcitation(DataError):
    pass


class RankDeficient(DataError):
    pass


class WindowTooLong(DataError):
    pass


class InvalidRecord(DataError, ValueError):
    """A measured record breaks its own contract; ``row`` is the 0-based
    sample at fault, if one is.  Also a ``ValueError`` for direct callers."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class InvalidFeature(DataError, ValueError):
    """A factor of a feature vector outside [0, 1], NaN included.  Also a
    ``ValueError`` for direct callers."""


class DuplicateKey(DataError):
    """Two rows, samples or files give the same measured key."""


class GoldenMismatch(HlasError):
    """A regenerated worked-example artifact diverged from its golden copy."""


# --- warnings -----------------------------------------------------------

class NotMonotoneWarning(UserWarning):
    """FRF magnitude crossed the -3 dB line more than once."""


class ZeroDemandWarning(UserWarning):
    """A margin ratio was skipped because the human demand was not positive."""
