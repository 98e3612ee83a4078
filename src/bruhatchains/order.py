"""Bruhat and secondary Bruhat order predicates, and the structural
minimal/maximal tests for classes where every row and column sums to 2."""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import errors
from .errors import (
    ClassTooLarge,
    MarginMismatch,
    NotInClass,
    SearchBudgetExceeded,
)
from .matrices import (
    F3,
    J2,
    _MOVE_BYTES,
    BinaryMatrix,
    Interchange,
    MarginPair,
    _dominates,
    _entries,
    _flip,
    _moves,
    _order_table,
    _OrderTable,
    decode,
    reverse_columns,
)

if TYPE_CHECKING:
    from .enumeration import ClassPoset

DEFAULT_NODE_BUDGET = 10**6


@dataclass(frozen=True)
class OrderVerdict:
    """Both directions of the Bruhat comparison of a pair."""

    leq: bool
    geq: bool


def _require_same_class(a: BinaryMatrix, c: BinaryMatrix
                        ) -> tuple[_OrderTable, _OrderTable]:
    """The order tables of a and c, once their class keys match."""
    ta, tc = _order_table(a), _order_table(c)
    if ta.cls != tc.cls:
        raise MarginMismatch("matrices are not in the same class")
    return ta, tc


def bruhat_leq(a: BinaryMatrix, c: BinaryMatrix) -> bool:
    """a precedes c iff the partial-sum table of a dominates that of c
    entrywise."""
    ta, tc = _require_same_class(a, c)
    return _dominates(ta.sigma, tc.sigma, ta.high)


# The four verdicts, by (leq, geq); frozen, so every query shares them.
_VERDICTS = {(leq, geq): OrderVerdict(leq, geq)
             for leq in (False, True) for geq in (False, True)}


def bruhat_verdict(a: BinaryMatrix, c: BinaryMatrix) -> OrderVerdict:
    ta, tc = _require_same_class(a, c)
    return _VERDICTS[_dominates(ta.sigma, tc.sigma, ta.high),
                     _dominates(tc.sigma, ta.sigma, ta.high)]


def bruhat_less(a: BinaryMatrix, c: BinaryMatrix) -> bool:
    """Strict Bruhat precedence."""
    return a != c and bruhat_leq(a, c)


# Charged against errors.MAX_ARRAY_BYTES before each state is expanded,
# from tracemalloc (tests/test_memo.py checks it).  Ints take 30 bits per 4
# bytes.  Once: the excess array, 4 bytes an entry, and beside it while the
# second table is decoded, that table's bytes and its own array.  Per state
# expanded, and never given back: its level of the path (the generator
# frame of its moves, its stack entry and move, the Interchange of the chain
# found), and what the dead set may keep: its rows tuple and a set slot;
# and nine ints of n bits, its two new rows and the masks in the frame.
_LEVEL_BYTES = 750
_STATE_BYTES = 150


def _search(a: BinaryMatrix, c: BinaryMatrix, tables, generate,
            budget: int) -> tuple[list[Interchange] | None, int]:
    """Depth-first search from a to c over the moves of generate,
    ``_moves`` or ``_tight_moves``; tables are _require_same_class(a, c).
    Gives the steps of the chain found, or None, and the states expanded,
    which pass budget only when the search gave up.  It answers classes
    with no table (``_class_table``), and is the tests' oracle for tables.

    Every ItoL move raises the inversion count, so a state whose children
    are exhausted is dead for the rest of the query, and the search is
    complete.  The search keeps the excess sigma(x) - sigma(c) of the
    state x on top of its path as one m x n int32 array (``_entries``).
    A move lowers sigma by one on its block, ``excess[i:i2, j:j2]``, and
    nowhere else: the child still dominates c iff the block has no zero,
    and taking the move subtracts 1 from it in place; backing out of a
    dead state adds 1 back to its move's block.  Moves come lazily, in
    (i, i2, j, j2) order.  The path is an explicit stack of each level's
    rows and move iterator, so a chain may be longer than the recursion
    limit.  Before a state is expanded, the bytes of the array and of the
    states expanded so far are checked against errors.MAX_ARRAY_BYTES."""
    ta, tc = tables
    m, n = a.m, a.n
    excess = _entries(ta, m, n)
    excess -= _entries(tc, m, n)
    if excess.min() < 0:
        return None, 0
    target = c.bits
    dead: set[tuple[int, ...]] = set()
    limit = errors.MAX_ARRAY_BYTES
    held = m * n * (8 + ta.width // 8)
    level = 8 * m + n * 18 // 15 + _LEVEL_BYTES + _STATE_BYTES

    explored = 0
    path: list[tuple[int, int, int, int]] = []
    # the states on the path, each with its moves not yet tried
    stack: list[tuple[tuple[int, ...], Iterator]] = []
    rows = a.bits
    while rows != target:
        explored += 1
        if explored > budget:
            return None, explored
        held += level
        if held > limit:
            raise ClassTooLarge(
                f"the search would hold {held} bytes at depth "
                f"{len(path)}, over the {limit}-byte limit")
        stack.append((rows, generate(rows)))
        while True:
            rows, moves = stack[-1]
            for i, i2, j, j2 in moves:
                child = _flip(rows, i, i2, j, j2)
                if child not in dead and excess[i:i2, j:j2].all():
                    break
            else:   # every child tried: the state is dead
                stack.pop()
                if not stack:
                    return None, explored
                dead.add(rows)
                i, i2, j, j2 = path.pop()
                excess[i:i2, j:j2] += 1
                continue
            break
        excess[i:i2, j:j2] -= 1
        path.append((i, i2, j, j2))
        rows = child
    return [Interchange(*move) for move in path], explored


# The most bytes the one class table may hold: A(5,2)'s charges 2.2 MB,
# and the bitsets alone of a class of over 5,607 members pass it.
MAX_TABLE_BYTES = 1 << 23

# A table's charge, from tracemalloc (tests/test_memo.py checks it): per
# member, its index entry and rows, key, arc list, list slots and bitset
# heads, about 290 bytes on A(5,2); per tight arc, its slot and target;
# per move of the shape, its mask and Interchange.
_MEMBER_BYTES = 340
_ARC_BYTES = 40


def _table_charge(m: int, n: int, size: int, arcs: int) -> int:
    return (size * (_MEMBER_BYTES + 8 * m + 8 * ((size + 29) // 30))
            + arcs * _ARC_BYTES + comb(m, 2) * comb(n, 2) * _MOVE_BYTES)


class _ClassTable(NamedTuple):
    """Both orders on a class sorted by inversion count: ``index`` maps
    rows to members and ``keys`` holds their keys, bit w of ``up[v]``
    (``tight[v]``) is set iff w is reachable from v by (increment-one)
    ItoL interchanges, ``arcs[v]`` lists v's increment-one targets in
    move order, and ``moves`` maps a move's mask to its Interchange: the
    step from v to w is ``moves[keys[v] ^ keys[w]]``."""

    index: dict[tuple[int, ...], int]
    keys: list[int]
    up: list[int]
    tight: list[int]
    arcs: list[list[int]]
    moves: dict[int, Interchange]

    def tight_path(self, a: BinaryMatrix, c: BinaryMatrix
                   ) -> tuple[list[Interchange] | None, int]:
        """The chain ``_search`` finds over ``_tight_moves`` and its length,
        or (None, 0): at each state, the first arc whose target reaches c."""
        index, keys, tight, arcs, moves = (self.index, self.keys, self.tight,
                                           self.arcs, self.moves)
        v, goal = index[a.bits], index[c.bits]
        if not tight[v] >> goal & 1:
            return None, 0
        path = []
        while v != goal:
            for w in arcs[v]:
                if tight[w] >> goal & 1:
                    break
            path.append(moves[keys[v] ^ keys[w]])
            v = w
        return path, len(path)


def _reach(poset: ClassPoset) -> list[int]:
    """Bit w of entry v set iff w is reachable from v: bits OR-pulled."""
    import numpy as np

    from .enumeration import _pull

    bits = np.array([1 << v for v in range(len(poset))], dtype=object)
    return _pull(poset, bits, np.bitwise_or, 0).tolist()


def _build_table(margins: MarginPair) -> _ClassTable | None:
    """The table of a class of at most ``errors.MAX_CELLS`` cells, or None
    past MAX_TABLE_BYTES: ``count_class`` sizes members and bitsets before
    anything is built, and the tight arcs are charged before any list is.
    Both orders are read off the interchange DAG: an arc raises the
    inversion count by its move's increment, so it is tight iff it raises
    it by one, and its move's mask is the XOR of its ends' keys.  It is
    where the order predicates first load numpy and the class engine."""
    import numpy as np

    from .engine import move_masks
    from .enumeration import build_interchange_dag, count_class

    m, n = margins.m, margins.n
    try:
        size = count_class(margins)
    except ClassTooLarge:
        return None
    if _table_charge(m, n, size, 0) > MAX_TABLE_BYTES:
        return None
    dag = build_interchange_dag(margins)
    nu, indptr, targets = dag.nu, dag.indptr, dag.targets
    rise = nu[targets] == np.repeat(nu, np.diff(indptr)) + 1
    if _table_charge(m, n, size, np.count_nonzero(rise)) > MAX_TABLE_BYTES:
        return None
    up = _reach(dag)
    rises = replace(dag, indptr=np.concatenate(([0], rise.cumsum()))[indptr],
                    targets=targets[rise])
    tight = _reach(rises)
    arcs = [row.tolist() for row in rises.succ]
    keys = dag.keys.tolist()
    index = {decode(key, m, n).bits: v for v, key in enumerate(keys)}
    moves = {src | dst: Interchange(*quad)
             for quad, src, dst in move_masks(m, n)}
    return _ClassTable(index, keys, up, tight, arcs, moves)


# The last class queried, by class key (``_OrderTable.cls``): table or None.
_SLOT: dict[tuple, _ClassTable | None] = {}


def _class_table(a: BinaryMatrix, tables) -> _ClassTable | None:
    """The table of a's class, or None past ``errors.MAX_CELLS`` cells;
    tables are _require_same_class(a, c), whose class key keys the slot.
    _SLOT holds the last class queried, and another class replaces it."""
    if a.m * a.n > errors.MAX_CELLS:
        return None
    key = tables[0].cls
    if key not in _SLOT:
        _SLOT.clear()
        _SLOT[key] = _build_table(a.margins())
    return _SLOT[key]


def secondary_bruhat_leq(a: BinaryMatrix, c: BinaryMatrix,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff c is reachable from a by ItoL interchanges only: one bit
    test for a class with a table (``_class_table``), which ignores
    node_budget; else ``_search`` over every ItoL move, which raises
    SearchBudgetExceeded past node_budget expansions."""
    tables = _require_same_class(a, c)
    table = _class_table(a, tables)
    if table is not None:
        return bool(table.up[table.index[a.bits]] >> table.index[c.bits] & 1)
    path, expanded = _search(a, c, tables, _moves, node_budget)
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

