"""Packed class engine: a class of (0,1)-matrices with at most 64 cells as a
sorted array of uint64 keys, and its single-interchange arcs in CSR form.

Cell (i, j) of an m x n member sits at bit m*n - 1 - (i*n + j) of its key,
so integer order of keys is ``canonical_key`` order.  An ItoL interchange
at rows i < i2 and columns j < j2 is a four-bit mask M with source pattern
V: it applies to X where ``X & M == V`` and yields ``X ^ M`` (the bitboard
idiom; Knuth, TAOCP 4A, section 7.1.3).  Every per-member count is that
section's sideways addition: a popcount of the keys under a cell mask
from ``_mask``.  ``matrices.pack`` and ``matrices.decode`` convert
between a key and a ``BinaryMatrix``.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from . import errors
from .errors import ClassTooLarge, InfeasibleMargins, _check_budget

if TYPE_CHECKING:
    from .matrices import MarginPair

# The most row splits count_class walks, each a way to spread a row's ones
# over the columns at each cap.  A(14,7) walks 3,891,541 of them in about
# 3 s on a 2-core machine; A(16,8), which would take about 45 s, is
# refused at its row 8.
MAX_COUNT_SPLITS = 1 << 22


def _bit(m: int, n: int, i: int, j: int) -> int:
    """The key bit of cell (i, j)."""
    return m * n - 1 - (i * n + j)


def _mask(m: int, n: int, cells) -> int:
    """The OR of the key bits of the distinct cells (i, j)."""
    return sum(1 << _bit(m, n, i, j) for i, j in cells)


def check_cells(margins: MarginPair) -> None:
    m, n = margins.m, margins.n
    if m * n > errors.MAX_CELLS:
        raise ClassTooLarge(
            f"a {m}x{n} class has {m * n} cells; packed keys hold "
            f"{errors.MAX_CELLS}")


def check_margins(margins: MarginPair) -> None:
    if (any(r > margins.n for r in margins.row_sums)
            or any(c > margins.m for c in margins.col_sums)):
        raise InfeasibleMargins("a margin exceeds the opposite dimension")


def enumerate_keys(margins: MarginPair) -> np.ndarray:
    """Every member's key, ascending.  Rows are placed one at a time over a
    frontier of keys; a state's cap in column j is ``col_sums[j]`` less the
    popcount under column j's mask.  A row choice must use only open
    columns and every column whose cap exceeds the rows left after it."""
    check_cells(margins)
    check_margins(margins)
    m, n = margins.m, margins.n
    columns = [np.uint64(_mask(m, n, product(range(m), [j])))
               for j in range(n)]
    keys = np.zeros(1, np.uint64)
    col_set = np.min_scalar_type((1 << n) - 1)  # n bits, column j at bit j
    for i, r in enumerate(margins.row_sums):
        open_cols = np.zeros(len(keys), col_set)
        must = np.zeros(len(keys), col_set)
        live = []  # only a column still open in some state can take a one
        for j, (total, column) in enumerate(zip(margins.col_sums, columns)):
            cap = total - np.bitwise_count(keys & column)
            bit = col_set.type(1 << j)
            open_cols[cap > 0] |= bit
            must[cap > m - i - 1] |= bit
            if cap.any():
                live.append(j)
        # a choice holds a tuple of r columns, its mask and the pair of
        # them: under 128 + 8r bytes (tracemalloc)
        _check_budget(comb(len(live), r), 128 + 8 * r,
                      f"the column choices for row {i + 1}")
        choices = [(cols, col_set.type(sum(1 << j for j in cols)))
                   for cols in combinations(live, r)]

        def fits(c) -> np.ndarray:
            return ((open_cols & c) == c) & ((must & c) == must)

        size = sum(int(np.count_nonzero(fits(c))) for _, c in choices)
        _check_budget(size, 8 + n, f"row {i + 1} of the class enumeration")
        new_keys = np.empty(size, np.uint64)
        at = 0
        for cols, c in choices:
            idx = np.flatnonzero(fits(c))
            word = np.uint64(_mask(m, n, product([i], cols)))
            new_keys[at:at + len(idx)] = keys[idx] | word
            at += len(idx)
        keys = new_keys
    if not len(keys):
        raise InfeasibleMargins("no matrix realizes these margins")
    keys.sort()
    return keys


def inversion_counts(keys: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inversion count of every key: each cell (i, j) that holds a one
    adds the popcount under the mask of rows < i and columns > j."""
    nu = np.zeros(len(keys), np.int16)
    for i, j in product(range(1, m), range(n - 1)):
        one = np.bitwise_count(keys & np.uint64(_mask(m, n, [(i, j)])))
        above = _mask(m, n, product(range(i), range(j + 1, n)))
        nu += one * np.bitwise_count(keys & np.uint64(above))
    return nu


def move_masks(m: int, n: int
               ) -> list[tuple[tuple[int, int, int, int], int, int]]:
    """Every ItoL move of an m x n key in (i, i2, j, j2) order: its quad,
    and its source and target patterns, whose OR is the move's mask."""
    return [((i, i2, j, j2),
             _mask(m, n, [(i, j), (i2, j2)]),
             _mask(m, n, [(i, j2), (i2, j)]))
            for i, i2 in combinations(range(m), 2)
            for j, j2 in combinations(range(n), 2)]


def interchange_arcs(keys: np.ndarray, rank: np.ndarray, m: int, n: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """CSR arcs over members, member v holding key ``keys[v]`` and
    ``rank[k]`` the member with the k-th smallest key: an arc from each
    member to the result of each ItoL interchange that applies to it, in
    move order (``move_masks``).  The work runs in key order, one mask
    per move.  A move's sources all carry its source pattern under the
    mask, so it adds the same constant to each of them, and the k-th
    source by key goes to the k-th member holding the target pattern: no
    search.  A counting pass sizes every member's slot before the targets
    are filled in."""
    moves = [(np.uint64(src | dst), np.uint64(src), np.uint64(dst))
             for _, src, dst in move_masks(m, n)]
    keys = keys[rank]
    masked = np.empty_like(keys)  # one move's four cells of every key
    counts = np.zeros(len(keys), np.int32)
    for mask, src, _ in moves:
        counts += np.bitwise_and(keys, mask, out=masked) == src
    _check_budget(int(counts.sum(dtype=np.int64)), 4,
                  "the interchange arcs")
    indptr = np.zeros(len(keys) + 1, np.int32)
    indptr[1:][rank] = counts
    del counts
    np.cumsum(indptr, out=indptr)
    targets = np.empty(int(indptr[-1]), np.int32)
    cursor = indptr[rank]
    for mask, src, dst in moves:
        np.bitwise_and(keys, mask, out=masked)
        p = np.flatnonzero(masked == src)
        q = np.flatnonzero(masked == dst)
        if len(p) != len(q) or (keys[q] != keys[p] ^ mask).any():
            raise RuntimeError("an interchange left the enumerated class "
                               "or a member is missing")
        targets[cursor[p]] = rank[q]
        cursor[p] += 1
    return indptr, targets


def sigma_table(keys: np.ndarray, m: int, n: int) -> np.ndarray:
    """Every key's partial-sum table, one row each, entry k*n + l counting
    the ones in rows 0..k and columns 0..l as the recount ``sigma`` of
    ``tests/reference.py`` does: the popcount under that block's mask.
    It is the transpose of an entry-major array."""
    table = np.empty((m * n, len(keys)), np.int8)
    for e, (k, l) in enumerate(product(range(m), range(n))):
        block = _mask(m, n, product(range(k + 1), range(l + 1)))
        np.bitwise_count(keys & np.uint64(block), out=table[e])
    return table.T


def ranked_class(margins: MarginPair) -> tuple[
        np.ndarray, np.ndarray, np.ndarray]:
    """The members' keys and inversion counts, sorted stably by inversion
    count so members of equal count stay in key order, and the rank:
    ``rank[k]`` is the member with the k-th smallest key."""
    keys = enumerate_keys(margins)
    nu = inversion_counts(keys, margins.m, margins.n)
    order = np.argsort(nu, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return keys[order], nu[order], rank
