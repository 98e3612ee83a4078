"""Exception types shared across the package."""


class BruhatError(Exception):
    """Base class for all domain errors raised by this package."""


class PatternMismatch(BruhatError):
    """The addressed 2x2 submatrix does not match the interchange pattern."""


class MarginMismatch(BruhatError):
    """Two matrices do not share dimensions and row/column sums."""


class NotInClass(BruhatError):
    """A matrix does not belong to the class required by the operation."""


class InfeasibleMargins(BruhatError):
    """No (0,1)-matrix realizes the requested row/column sums."""


class ClassTooLarge(BruhatError):
    """The class would need an array, or an order search a path, over the
    byte limit (``engine.MAX_ARRAY_BYTES``), or more cells than a packed
    key holds."""


class SearchBudgetExceeded(BruhatError):
    """A reachability search hit its node limit before resolving."""


class StartAboveTarget(BruhatError, ValueError):
    """A tight chain search starts with more inversions than its target
    has, so no chain that raises the count can join them.  A ValueError
    too, as a bad argument."""


class UnsupportedOrder(BruhatError):
    """The matrix order n is outside the operation's domain."""


class MalformedChain(BruhatError):
    """Chain data cannot be interpreted (bad step tuples, bad matrices)."""
