"""Exception types raised across the estimation pipeline."""


class RisposError(Exception):
    """Base class for all package errors."""


class DegenerateGeometry(RisposError):
    """Node placement makes an angle or distance undefined."""


class DimensionMismatch(RisposError):
    """Array shapes are inconsistent with the system configuration."""


class ScheduleInfeasible(RisposError):
    """Slot counts cannot realize the requested phase-shift block layout."""


class SparsityInfeasible(RisposError):
    """Requested sparsity level exceeds the number of measurements."""


class RankDeficient(RisposError):
    """A Gram matrix or block mixing matrix is numerically singular."""


class SingularConcentration(RisposError):
    """Concentrated likelihood is undefined (colliding departure angles)."""


class OutOfRange(RisposError):
    """A normalized delay left the identifiable interval (0, 1)."""


class InfeasibleGeometry(RisposError):
    """Estimated delay is shorter than the fixed RIS-BS leg."""


class ArccosDomain(RisposError):
    """arccos argument exceeds [-1, 1] beyond the clamping tolerance."""


class SingularDenominator(RisposError):
    """Scatterer closed form has a vanishing denominator."""


class IoError(RisposError):
    """Failed to write experiment outputs."""
