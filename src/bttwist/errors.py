"""Exception hierarchy shared by all modules."""


class BttwistError(Exception):
    pass


class InternalInvariant(BttwistError):
    """A check that guards a result failed (raised instead of an assert)."""


# field construction / arithmetic
class NotPrime(BttwistError, ValueError):
    pass


class SplitPrime(BttwistError):
    pass


class NotSquareFree(BttwistError):
    pass


class NotInField(BttwistError, ValueError):
    """The model holds no such element (a square root it does not contain)."""


class ZeroInput(BttwistError):
    pass


class DivisionByZero(BttwistError):
    pass


class NumberTooLarge(BttwistError):
    """An integer too large to factor by bounded trial division."""


# tree geometry
class WindowTooLarge(BttwistError):
    pass


# branches
class NeedsExtension(BttwistError):
    pass


class NotAUnit(BttwistError):
    pass


# twisted forms / trivializations
class CocycleLawViolated(BttwistError):
    pass


class FieldTooSmall(BttwistError):
    pass


# counting
class WindowInsufficient(BttwistError):
    pass


class NotAbsolutelyIrreducible(BttwistError):
    pass


# global counts
class BadN(BttwistError):
    pass


class DyadicSplit(BttwistError):
    pass


class WrongResidue(BttwistError):
    pass


class ExistenceUnknown(BttwistError):
    pass


class ExistenceFails(BttwistError):
    pass


class InvalidRepresentation(BttwistError):
    pass
