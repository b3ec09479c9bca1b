"""Exception types shared across the package."""


class QmdsError(Exception):
    """Base class for all errors raised by this package."""


class Contradiction(QmdsError):
    """A mathematical invariant failed: a bug, never a bad input."""


class NotPrime(QmdsError):
    pass


class TooLarge(QmdsError):
    pass


class NotQuadraticTower(QmdsError):
    pass


class NotInSubfield(QmdsError):
    pass


class NotASubfield(QmdsError):
    pass


class NotGaloisStable(QmdsError):
    pass


class FieldMismatch(QmdsError):
    pass


class LengthMismatch(QmdsError):
    pass


class BadCoordinate(QmdsError):
    pass


class ZeroDimensional(QmdsError):
    pass


class NotASubcode(QmdsError):
    pass


class BadDistance(QmdsError):
    pass


class BadWeight(QmdsError):
    pass


class BadBudget(QmdsError):
    pass


class UnsupportedAlphabet(QmdsError):
    pass


class DescentFailure(QmdsError):
    pass


class TowerTooLarge(QmdsError):
    pass


class NotInPunctureCode(QmdsError):
    pass


class ZeroWord(QmdsError):
    pass


class NotSelfOrthogonal(QmdsError):
    pass


class NotPure(QmdsError):
    pass


class BadS(QmdsError):
    pass


class DistanceOne(QmdsError):
    pass


class NotKnown(QmdsError):
    pass
