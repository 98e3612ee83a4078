"""Bruhat and secondary Bruhat order predicates, and the structural
minimal/maximal tests for classes where every row and column sums to 2."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import MarginMismatch, NotInClass, SearchBudgetExceeded
from .matrices import (
    F3,
    J2,
    BinaryMatrix,
    _dominates,
    _expand,
    _guards,
    _lanes,
    _lowered,
    _moves,
    _order_table,
    _OrderTable,
    reverse_columns,
)

DEFAULT_NODE_BUDGET = 10**6


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


def _require_same_class(a: BinaryMatrix, c: BinaryMatrix
                        ) -> tuple[_OrderTable, _OrderTable, int]:
    """The order tables of a and c and their guard bits, once a and c are
    known to share a class: equal dimensions, equal lane widths (else the
    lanes do not line up), and equal lanes along the last row (cumulative
    column sums) and the last column (cumulative row sums)."""
    if a.m == c.m and a.n == c.n:
        ta, tc = _order_table(a), _order_table(c)
        if ta.width == tc.width:
            high, edge = _guards(a.m, a.n, ta.width)
            if not (ta.sigma ^ tc.sigma) & edge:
                return ta, tc, high
    raise MarginMismatch("matrices are not in the same class")


def bruhat_leq(a: BinaryMatrix, c: BinaryMatrix) -> bool:
    """a precedes c iff the partial-sum table of a dominates that of c
    entrywise."""
    ta, tc, high = _require_same_class(a, c)
    return _dominates(ta.sigma, tc.sigma, high)


def bruhat_verdict(a: BinaryMatrix, c: BinaryMatrix) -> OrderVerdict:
    ta, tc, high = _require_same_class(a, c)
    return OrderVerdict(leq=_dominates(ta.sigma, tc.sigma, high),
                        geq=_dominates(tc.sigma, ta.sigma, high))


def bruhat_less(a: BinaryMatrix, c: BinaryMatrix) -> bool:
    """Strict Bruhat precedence."""
    return a != c and bruhat_leq(a, c)


def secondary_bruhat_leq(a: BinaryMatrix, c: BinaryMatrix,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff c is reachable from a by ItoL interchanges only.

    Best-first search guided by the total excess of the partial-sum table
    over that of c.  States that stop dominating c are pruned:
    interchanges only lower partial sums, so such states can never reach
    c.

    A state is its rows and its excess table sigma(x) - sigma(c) packed
    into lanes of one int, each updated by the move rather than
    recounted: the rows by two XORs, the table by lowering one block,
    which also says whether c is still dominated.  The start's table comes
    from the order tables of a and c, and a state's children and moves
    from the child memo the searches share (``matrices._ChildMemo``).
    States expand in (total excess, rows) order, and more than
    node_budget expansions raise SearchBudgetExceeded.
    """
    ta, tc, high = _require_same_class(a, c)
    if a == c:
        return True
    if not _dominates(ta.sigma, tc.sigma, high):
        return False
    lanes = _lanes(a.m, a.n, ta.width)
    target = c.bits
    visited = {a.bits}
    heap = [(ta.total - tc.total, a.bits, ta.sigma - tc.sigma)]
    expanded = 0
    while heap:
        total, rows, excess = heapq.heappop(heap)
        expanded += 1
        if expanded > node_budget:
            raise SearchBudgetExceeded(
                f"secondary order search exceeded {node_budget} nodes")
        for y, (i, i2, j, j2) in _expand(rows, _moves):
            if y == target:
                return True
            if y in visited:
                continue
            visited.add(y)
            lowered = _lowered(excess, lanes, i, i2, j, j2)
            if lowered is not None:
                heapq.heappush(
                    heap, (total - (i2 - i) * (j2 - j), y, lowered))
    return False


def is_minimal_An2(a: BinaryMatrix) -> bool:
    """Minimal in the Bruhat order of its class iff it is block-diagonal
    with every block the all-ones 2x2 or the 3x3 minimal block.  The scan
    is greedy down the diagonal; the two block patterns never overlap."""
    if not a.margins().is_all_two_square():
        raise NotInClass("matrix rows and columns must all sum to 2")
    p = 0
    while p < a.n:
        if a.bits[p:p + 2] == tuple(b << p for b in J2.bits):
            p += 2
        elif a.bits[p:p + 3] == tuple(b << p for b in F3.bits):
            p += 3
        else:
            return False
    return True


def is_maximal_An2(a: BinaryMatrix) -> bool:
    """Maximal iff the column reversal (same class) is minimal."""
    return is_minimal_An2(reverse_columns(a))


def duality_check(a: BinaryMatrix, c: BinaryMatrix) -> bool:
    """Property hook: precedence of (a, c) must equal precedence of the
    column-reversed pair in the opposite direction."""
    return bruhat_leq(a, c) == bruhat_leq(reverse_columns(c),
                                          reverse_columns(a))
