"""Exception hierarchy shared by all modules."""


class SubtypingError(Exception):
    """Base class for every error raised by this package."""


class NonSquareInput(SubtypingError):
    pass


class NegativeOffDiagonal(SubtypingError):
    pass


class ExpmInaccuracy(SubtypingError):
    pass


class NonPositiveInterval(SubtypingError):
    pass


class UnknownFeature(SubtypingError):
    pass


class NonCausalQuery(SubtypingError):
    pass


class StructureNotChain(SubtypingError):
    pass


class DimensionMismatch(SubtypingError):
    pass


class DegenerateOccupancy(SubtypingError):
    pass


class TooFewPatients(SubtypingError):
    pass


class EmptyCohort(SubtypingError):
    pass


class NoHeldOutObservations(SubtypingError):
    pass


class ParseError(SubtypingError):
    pass


class DuplicateTimestamp(SubtypingError):
    pass


class UnknownColumn(SubtypingError):
    pass


class VersionMismatch(SubtypingError):
    pass


class InvariantViolation(SubtypingError):
    pass


class ImpossibleTrajectory(SubtypingError):
    pass
