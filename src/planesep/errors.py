"""Exception hierarchy for planesep."""


class PlanesepError(Exception):
    """Base class for all planesep errors."""


class DimensionMismatchError(PlanesepError):
    """A point or plane does not match the ambient dimension."""


class DuplicatePointError(PlanesepError):
    """Two input points are coordinate-identical and cannot be separated."""


class IncidentPointError(PlanesepError):
    """A point lies within tolerance of a plane and no remedy succeeded."""


class InconsistentSystemError(PlanesepError):
    """No plane with unit constant term satisfies the given constraints.

    ``rank`` is the elimination rank of the constraint rows when the
    system itself is inconsistent, and None when only the re-verification
    of a produced solution failed.
    """

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class GeometryExhaustedError(PlanesepError):
    """The shift-and-refit retry budget ran out while placing a plane."""


class DigitOverflowError(PlanesepError):
    """An integer value does not fit in the configured digit width."""


class NotADigitPointError(PlanesepError):
    """A point has coordinates outside the digit range and cannot map back."""


class RepositoryFormatError(PlanesepError):
    """A repository file is malformed or has an unsupported version."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
