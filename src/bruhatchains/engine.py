"""Packed class engine: a class of (0,1)-matrices with at most 64 cells as a
sorted array of uint64 keys, and its single-interchange arcs in CSR form.

Cell (i, j) of an m x n member sits at bit m*n - 1 - (i*n + j) of its key,
so integer order of keys is ``canonical_key`` order.  An ItoL interchange
at rows i < i2 and columns j < j2 is a four-bit mask M with source pattern
V: it applies to X where ``X & M == V`` and yields ``X ^ M`` (the bitboard
idiom; Knuth, TAOCP 4A, section 7.1.3).  ``matrices.pack`` and
``matrices.decode`` convert between a key and a ``BinaryMatrix``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from .errors import ClassTooLarge, InfeasibleMargins

if TYPE_CHECKING:
    from .matrices import MarginPair

# The largest array the engine allocates: a row's frontier (a key and n
# column caps per state) or the arc targets.  A(7,2) needs 47 MB for its
# last frontier and 396 MB for its 98,894,250 arcs; A(8,2) would need
# 790 MB for the frontier after six rows, and is refused there.
MAX_ARRAY_BYTES = 1 << 29

# The most row splits count_class walks, each a way to spread a row's ones
# over the columns at each cap.  A(14,7) walks 3,891,541 of them in about
# 3 s on a 2-core machine; A(16,8), which would take about 45 s, is
# refused at its row 8.
MAX_COUNT_SPLITS = 1 << 22

# The most cells a packed key holds: one uint64 bit each.
MAX_CELLS = 64

_ONE = np.uint64(1)


def _bit(m: int, n: int, i: int, j: int) -> int:
    """The key bit of cell (i, j)."""
    return m * n - 1 - (i * n + j)


def _cell(keys: np.ndarray, m: int, n: int, i: int, j: int) -> np.ndarray:
    return (keys >> np.uint64(_bit(m, n, i, j))) & _ONE


def _check_budget(count: int, per_item: int, what: str) -> None:
    if count * per_item > MAX_ARRAY_BYTES:
        raise ClassTooLarge(
            f"{what} would take {count * per_item} bytes, over the "
            f"{MAX_ARRAY_BYTES}-byte limit")


def check_cells(margins: MarginPair) -> None:
    m, n = margins.m, margins.n
    if m * n > MAX_CELLS:
        raise ClassTooLarge(
            f"a {m}x{n} class has {m * n} cells; packed keys hold "
            f"{MAX_CELLS}")


def check_margins(margins: MarginPair) -> None:
    if (any(r > margins.n for r in margins.row_sums)
            or any(c > margins.m for c in margins.col_sums)):
        raise InfeasibleMargins("a margin exceeds the opposite dimension")


def enumerate_keys(margins: MarginPair) -> np.ndarray:
    """Every member's key, ascending.  Rows are placed one at a time over a
    frontier of (key, column caps) states; a row choice must use only open
    columns and every column whose cap exceeds the rows left after it."""
    check_cells(margins)
    check_margins(margins)
    m, n = margins.m, margins.n
    keys = np.zeros(1, np.uint64)
    caps = np.array([margins.col_sums], np.int8)
    col_set = np.min_scalar_type((1 << n) - 1)  # n bits, column j at bit j
    for i, r in enumerate(margins.row_sums):
        open_cols = np.zeros(len(keys), col_set)
        must = np.zeros(len(keys), col_set)
        for j in range(n):
            bit = col_set.type(1 << j)
            open_cols[caps[:, j] > 0] |= bit
            must[caps[:, j] > m - i - 1] |= bit
        # only a column still open in some state can take a one
        live = [j for j in range(n) if caps[:, j].any()]
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
        new_caps = np.empty((size, n), np.int8)
        at = 0
        for cols, c in choices:
            idx = np.flatnonzero(fits(c))
            word = np.uint64(sum(1 << _bit(m, n, i, j) for j in cols))
            new_keys[at:at + len(idx)] = keys[idx] | word
            new_caps[at:at + len(idx)] = caps[idx]
            new_caps[at:at + len(idx), list(cols)] -= 1
            at += len(idx)
        keys, caps = new_keys, new_caps
    if not len(keys):
        raise InfeasibleMargins("no matrix realizes these margins")
    keys.sort()
    return keys


def inversion_counts(keys: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inversion count of every key, one cell at a time: a one gains the
    ones in earlier rows at columns to its right."""
    nu = np.zeros(len(keys), np.int16)
    above = [np.zeros(len(keys), np.int16) for _ in range(n)]
    for i in range(m):
        right = np.zeros(len(keys), np.int16)
        row = [None] * n
        for j in reversed(range(n)):
            row[j] = _cell(keys, m, n, i, j).astype(np.int16)
            nu += row[j] * right
            right += above[j]
        for j in range(n):
            above[j] += row[j]
    return nu


def move_masks(m: int, n: int
               ) -> list[tuple[tuple[int, int, int, int], int, int]]:
    """Every ItoL move of an m x n key in (i, i2, j, j2) order: its quad,
    and its source and target patterns, whose OR is the move's mask."""
    return [((i, i2, j, j2),
             1 << _bit(m, n, i, j) | 1 << _bit(m, n, i2, j2),
             1 << _bit(m, n, i, j2) | 1 << _bit(m, n, i2, j))
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
    ``tests/reference.py`` does: the cells, summed down and then across."""
    shifts = np.arange(m * n - 1, -1, -1, dtype=np.uint64)
    cells = ((keys[:, None] >> shifts) & _ONE).astype(np.int8)
    cells = cells.reshape(len(keys), m, n).cumsum(axis=1, dtype=np.int8)
    return cells.cumsum(axis=2, dtype=np.int8).reshape(len(keys), m * n)


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
