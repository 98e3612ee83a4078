"""Bruhat and secondary Bruhat order predicates, and the structural
minimal/maximal tests for classes where every row and column sums to 2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import engine
from .errors import (
    ClassTooLarge,
    MarginMismatch,
    NotInClass,
    SearchBudgetExceeded,
)
from .matrices import (
    F3,
    J2,
    _CHILD_MEMO,
    BinaryMatrix,
    _children,
    _dominates,
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


# What a search holds beside the child memo, charged against
# engine.MAX_ARRAY_BYTES before each level is pushed: per level of the
# path, its packed excess table and the frames and tuples that walk its
# children; per state expanded, which the dead set may keep, its rows
# tuple (8 bytes a row), two new row ints and a set slot.
_LEVEL_BYTES = 600
_STATE_BYTES = 200


def _search(a: BinaryMatrix, c: BinaryMatrix, tables, generate,
            budget: int) -> tuple[list[tuple[int, ...]] | None, int]:
    """Depth-first search from a to c over the moves of generate,
    ``_moves`` or ``_tight_moves``; tables are _require_same_class(a, c).
    Gives the moves of the chain found, or None, and the states expanded,
    which pass budget only when the search gave up.

    Every ItoL move raises the inversion count, so a state whose children
    are exhausted is dead for the rest of the query, and the search is
    complete.  A state is its rows and its excess table sigma(x) - sigma(c)
    in packed lanes, both updated by the move: two XORs, and ``_lowered``,
    which prunes the states that stop dominating c.  Children come in
    (i, i2, j, j2) order: from the shared child memo for a matrix of at
    most engine.MAX_CELLS cells, the small classes whose states the
    exhaustive oracles meet again and again; lazily and unstored for a
    larger one, whose search expands each state about once.  The path is
    an explicit stack of each level's rows, excess and child iterator, so
    a chain may be longer than the recursion limit.  Before a level is
    pushed, the bytes of the path's tables and the expanded states' rows
    are checked against engine.MAX_ARRAY_BYTES."""
    ta, tc, high = tables
    if not _dominates(ta.sigma, tc.sigma, high):
        return None, 0
    lanes = _lanes(a.m, a.n, ta.width)
    target = c.bits
    dead: set[tuple[int, ...]] = set()
    table = a.m * a.n * ta.width // 8 + _LEVEL_BYTES
    level = table + 8 * a.m + _STATE_BYTES
    limit = engine.MAX_ARRAY_BYTES
    expand = (_CHILD_MEMO.expand if a.m * a.n <= engine.MAX_CELLS
              else _children)

    explored = held = 0
    path: list[tuple[int, int, int, int]] = []
    # the states on the path, each with its children not yet tried
    stack: list[tuple[tuple[int, ...], int, Iterator]] = []
    rows, excess = a.bits, ta.sigma - tc.sigma
    while rows != target:
        explored += 1
        if explored > budget:
            return None, explored
        held += level
        if held > limit:
            raise ClassTooLarge(
                f"the search would hold {held} bytes at depth "
                f"{len(path)}, over the {limit}-byte limit")
        stack.append((rows, excess, expand(rows, generate)))
        while True:
            rows, excess, children = stack[-1]
            for child, move in children:
                if child not in dead:
                    lowered = _lowered(excess, lanes, *move)
                    if lowered is not None:
                        break
            else:   # every child tried: the state is dead
                stack.pop()
                if not stack:
                    return None, explored
                held -= table
                dead.add(rows)
                path.pop()
                continue
            break
        path.append(move)
        rows, excess = child, lowered
    return path, explored


def secondary_bruhat_leq(a: BinaryMatrix, c: BinaryMatrix,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff c is reachable from a by ItoL interchanges only: the
    depth-first search ``_search`` over every ItoL move.  More than
    node_budget expansions raise SearchBudgetExceeded."""
    path, expanded = _search(a, c, _require_same_class(a, c), _moves,
                             node_budget)
    if expanded > node_budget:
        raise SearchBudgetExceeded(
            f"secondary order search exceeded {node_budget} nodes")
    return path is not None


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
