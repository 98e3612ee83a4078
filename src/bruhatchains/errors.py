"""Exception types shared across the package, and the resource limits
that raise ClassTooLarge.  Every check reads the limits here at call time,
so one assignment to ``errors.MAX_ARRAY_BYTES`` reaches them all."""

# The largest array the engine allocates: a row's frontier (a key per
# state, and a byte a column for its caps while the next row is placed)
# or the arc targets.  A(7,2) needs 47 MB for its last frontier and 396 MB
# for its 98,894,250 arcs; A(8,2) would need 790 MB for the frontier
# after six rows, and is refused there.
MAX_ARRAY_BYTES = 1 << 29

# The most cells a packed key holds: one uint64 bit each.
MAX_CELLS = 64


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
    byte limit (``MAX_ARRAY_BYTES``), or more cells than a packed key
    holds (``MAX_CELLS``)."""


def _check_budget(count: int, per_item: int, what: str) -> None:
    if count * per_item > MAX_ARRAY_BYTES:
        raise ClassTooLarge(
            f"{what} would take {count * per_item} bytes, over the "
            f"{MAX_ARRAY_BYTES}-byte limit")


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
