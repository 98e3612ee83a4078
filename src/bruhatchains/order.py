"""Bruhat and secondary Bruhat order predicates, and the structural
minimal/maximal tests for classes where every row and column sums to 2."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import MarginMismatch, NotInClass, SearchBudgetExceeded
from .matrices import (
    BinaryMatrix,
    Direction,
    apply_interchange,
    cumulative_sums,
    find_interchanges,
    inversion_count,
    reverse_columns,
)

DEFAULT_NODE_BUDGET = 10**6

_J2_ROWS = (0b11, 0b11)
_F3_ROWS = (0b011, 0b101, 0b110)


@dataclass(frozen=True)
class OrderVerdict:
    """Both directions of the Bruhat comparison of a pair."""

    leq: bool
    geq: bool

    @property
    def comparable(self) -> bool:
        return self.leq or self.geq

    @property
    def equal(self) -> bool:
        return self.leq and self.geq


def _require_same_class(a: BinaryMatrix, c: BinaryMatrix) -> None:
    if a.m != c.m or a.n != c.n or a.margins() != c.margins():
        raise MarginMismatch("matrices are not in the same class")


def bruhat_leq(a: BinaryMatrix, c: BinaryMatrix) -> bool:
    """a precedes c iff the partial-sum table of a dominates that of c
    entrywise."""
    _require_same_class(a, c)
    sa = cumulative_sums(a).values
    sc = cumulative_sums(c).values
    return all(x >= y for ra, rc in zip(sa, sc) for x, y in zip(ra, rc))


def bruhat_verdict(a: BinaryMatrix, c: BinaryMatrix) -> OrderVerdict:
    _require_same_class(a, c)
    sa = cumulative_sums(a).flat()
    sc = cumulative_sums(c).flat()
    return OrderVerdict(
        leq=all(x >= y for x, y in zip(sa, sc)),
        geq=all(x <= y for x, y in zip(sa, sc)),
    )


def bruhat_less(a: BinaryMatrix, c: BinaryMatrix) -> bool:
    """Strict Bruhat precedence."""
    return a != c and bruhat_leq(a, c)


def secondary_bruhat_leq(a: BinaryMatrix, c: BinaryMatrix,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff c is reachable from a by ItoL interchanges only.

    Best-first search guided by the total excess of the partial-sum table
    over that of c.  States that stop dominating c, or whose inversion
    count reaches that of c without being c, are pruned: interchanges only
    lower partial sums and strictly raise the inversion count, so such
    states can never reach c.
    """
    _require_same_class(a, c)
    if a == c:
        return True
    sc = cumulative_sums(c).flat()
    nu_c = inversion_count(c)

    def admissible_excess(x: BinaryMatrix) -> int | None:
        excess = 0
        for u, v in zip(cumulative_sums(x).flat(), sc):
            if u < v:
                return None
            excess += u - v
        return excess

    start_excess = admissible_excess(a)
    if start_excess is None or inversion_count(a) >= nu_c:
        return False
    visited = {a}
    heap = [(start_excess, a.bits, a)]
    expanded = 0
    while heap:
        _, _, x = heapq.heappop(heap)
        expanded += 1
        if expanded > node_budget:
            raise SearchBudgetExceeded(
                f"secondary order search exceeded {node_budget} nodes")
        for move in find_interchanges(x, Direction.ItoL):
            y = apply_interchange(x, move)
            if y == c:
                return True
            if y in visited:
                continue
            visited.add(y)
            if inversion_count(y) >= nu_c:
                continue
            excess = admissible_excess(y)
            if excess is None:
                continue
            heapq.heappush(heap, (excess, y.bits, y))
    return False


def _require_all_two(a: BinaryMatrix) -> None:
    if not a.margins().is_all_two_square():
        raise NotInClass("matrix rows and columns must all sum to 2")


def is_minimal_An2(a: BinaryMatrix) -> bool:
    """Minimal in the Bruhat order of its class iff it is block-diagonal
    with every block the all-ones 2x2 or the 3x3 minimal block.  The scan
    is greedy down the diagonal; the two block patterns never overlap."""
    _require_all_two(a)
    p = 0
    n = a.n
    while p < n:
        if p + 2 <= n and all(
                a.bits[p + r] == _J2_ROWS[r] << p for r in range(2)):
            p += 2
        elif p + 3 <= n and all(
                a.bits[p + r] == _F3_ROWS[r] << p for r in range(3)):
            p += 3
        else:
            return False
    return True


def is_maximal_An2(a: BinaryMatrix) -> bool:
    """Maximal iff the column reversal is minimal."""
    _require_all_two(a)
    return is_minimal_An2(reverse_columns(a))


def duality_check(a: BinaryMatrix, c: BinaryMatrix) -> bool:
    """Property hook: precedence of (a, c) must equal precedence of the
    column-reversed pair in the opposite direction."""
    _require_same_class(a, c)
    return bruhat_leq(a, c) == bruhat_leq(reverse_columns(c),
                                          reverse_columns(a))
