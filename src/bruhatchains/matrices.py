"""(0,1)-matrices with bit-packed rows, and the pure kernels on them.

A matrix row is stored as a Python int, bit ``j`` holding column ``j``.
Python ints are arbitrary precision, so a single int per row covers any
width; all kernels below work word-parallel through int bit operations.
All values are immutable and hashable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import engine
from .errors import PatternMismatch

# The two cell characters; a row's text holds no other.
_CELLS = frozenset("01")


# The blanks that may pad a line of text or separate its fields.
_BLANKS = " \t"


def _text_lines(text: str) -> list[str]:
    """The lines of a text as str.splitlines() gives them, except that a
    line ends at \n or \r\n and nowhere else: any other break (a lone
    \r, a form feed, U+2028) stays in its line, where no cell or index
    reader accepts it."""
    lines = text.replace("\r\n", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _ascii_int(text: str) -> int:
    """The integer spelled by ASCII digits alone.  A sign, a blank, an
    underscore or a fullwidth digit, which int() takes, raises ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not written in the digits 0-9")
    return int(text)


@dataclass(frozen=True, slots=True)
class BinaryMatrix:
    """An m x n matrix of zeros and ones, one int of packed bits per row.

    ``_table`` holds the order table once an order query has computed it
    (``_order_table``).  It is a cache: equality, hashing, the repr, a
    pickle and ``dataclasses.replace`` all ignore it."""

    m: int
    n: int
    bits: tuple[int, ...]
    _table: "_OrderTable | None" = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be at least 1x1")
        if len(self.bits) != self.m:
            raise ValueError("bits must hold one int per row")
        limit = 1 << self.n
        if any(b < 0 or b >= limit for b in self.bits):
            raise ValueError("row bits exceed the declared width")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int] | str]) -> "BinaryMatrix":
        """Build from rows given as strings of '0'/'1' characters or as
        sequences of the integers 0 and 1.  A row is read as a reversed
        binary numeral, so its first cell is bit 0.  Any other cell (a
        float, a bool, a digit other than 0 and 1) raises ValueError."""
        n = len(rows[0]) if len(rows) else 0
        if not n:
            raise ValueError("need at least one row of at least one cell")
        bits = []
        for row in rows:
            cells = row if isinstance(row, str) else tuple(map(str, row))
            if len(cells) != n or not _CELLS.issuperset(cells):
                raise ValueError(f"each row must be {n} cells, each 0 or 1")
            bits.append(int("".join(cells)[::-1], 2))
        return cls(len(rows), n, tuple(bits))

    def get(self, i: int, j: int) -> int:
        return (self.bits[i] >> j) & 1

    def row_string(self, i: int) -> str:
        return format(self.bits[i], f"0{self.n}b")[::-1]

    def count_ones(self) -> int:
        return sum(b.bit_count() for b in self.bits)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.bits)

    def col_sums(self) -> tuple[int, ...]:
        return tuple(
            sum((b >> j) & 1 for b in self.bits) for j in range(self.n)
        )

    def margins(self) -> "MarginPair":
        return MarginPair(self.row_sums(), self.col_sums())

    # --- text / JSON wire formats ---

    def to_text(self) -> str:
        """One row per line, characters '0'/'1', no separators."""
        return "\n".join(self.row_string(i) for i in range(self.m))

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        """Parse the text format; a blank line terminates the matrix."""
        rows = []
        for line in _text_lines(text):
            line = line.strip(_BLANKS)
            if not line:
                break
            rows.append(line)
        if not rows:
            raise ValueError("no matrix rows found")
        return cls.from_rows(rows)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n,
                "rows": [self.row_string(i) for i in range(self.m)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BinaryMatrix":
        """``rows`` a list of strings or lists (``from_rows``), and ``m``
        and ``n`` JSON integers, not ``true`` or ``1.0``, equal to its size."""
        rows, m, n = data["rows"], data["m"], data["n"]
        if not (type(m) is int and type(n) is int and isinstance(rows, list)
                and all(isinstance(row, (str, list)) for row in rows)):
            raise ValueError("m and n must be integers, rows a list of "
                             "strings or lists")
        mat = cls.from_rows(rows)
        if mat.m != m or mat.n != n:
            raise ValueError("declared dimensions disagree with row data")
        return mat

    @classmethod
    def from_json(cls, text: str) -> "BinaryMatrix":
        return cls.from_json_dict(json.loads(text))

    def __str__(self) -> str:
        return self.to_text()

    def __reduce__(self):
        # the cells alone, so a pickle is the same with or without _table
        return BinaryMatrix, (self.m, self.n, self.bits)


@dataclass(frozen=True)
class MarginPair:
    """Row sum vector and column sum vector of a class of (0,1)-matrices."""

    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_sums", tuple(self.row_sums))
        object.__setattr__(self, "col_sums", tuple(self.col_sums))
        if any(r < 0 for r in self.row_sums) or any(c < 0 for c in self.col_sums):
            raise ValueError("margins must be nonnegative")
        if sum(self.row_sums) != sum(self.col_sums):
            raise ValueError("row and column sums must have equal totals")

    @classmethod
    def uniform(cls, n: int, k: int) -> "MarginPair":
        """Margins of the square class where every row and column sums to k."""
        return cls((k,) * n, (k,) * n)

    @property
    def m(self) -> int:
        return len(self.row_sums)

    @property
    def n(self) -> int:
        return len(self.col_sums)

    def is_all_two_square(self) -> bool:
        return (self.m == self.n
                and all(r == 2 for r in self.row_sums)
                and all(c == 2 for c in self.col_sums))


class Interchange(NamedTuple):
    """The ItoL move at rows i < i2 and columns j < j2: the I2 there
    becomes L2.  The value is its quad, equal to the tuple (i, i2, j, j2).
    Nothing is checked when one is built; its readers test the indices."""

    i: int
    i2: int
    j: int
    j2: int


# Named small matrices used throughout: the all-ones 2x2 block, its
# column reversal is itself; the two interchange patterns; the 3x3
# minimal block and its column reversal.
J2 = BinaryMatrix.from_rows(["11", "11"])
I2 = BinaryMatrix.from_rows(["10", "01"])
L2 = BinaryMatrix.from_rows(["01", "10"])
F3 = BinaryMatrix.from_rows(["110", "101", "011"])
F3R = BinaryMatrix.from_rows(["011", "101", "110"])


# What `sigma --json` holds per entry at its peak: the entries as Python
# ints, the rows the CLI copies and their JSON text, 65 bytes under
# tracemalloc at n = 1000 and 2000 (76 with the output held in memory).
_SIGMA_ENTRY_BYTES = 80


def cumulative_sums(a: BinaryMatrix) -> tuple[tuple[int, ...], ...]:
    """The rows of the table of leading-submatrix one-counts: entry
    (k, l) counts the ones in the leading (k+1) x (l+1) submatrix.  They
    are read off the order table (``_entries``).  A table whose entries
    would pass ``engine.MAX_ARRAY_BYTES`` at ``_SIGMA_ENTRY_BYTES`` each
    raises ClassTooLarge before anything is built."""
    engine._check_budget(a.m * a.n, _SIGMA_ENTRY_BYTES,
                         f"the {a.m}x{a.n} partial-sum table")
    values = _entries(_order_table(a), a.m, a.n)
    return tuple(map(tuple, values.tolist()))


def inversion_count(a: BinaryMatrix) -> int:
    """Number of unordered pairs of ones where one sits strictly
    top-right of the other, read off the order table."""
    return _order_table(a).nu


def _moves(rows: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """Every (i, i2, j, j2) whose 2x2 submatrix holds the ItoL source
    pattern, in lexicographic order: rows and columns are walked in
    ascending order, so no sort is needed."""
    m = len(rows)
    for i in range(m - 1):
        bi = rows[i]
        for i2 in range(i + 1, m):
            bi2 = rows[i2]
            left = bi & ~bi2    # columns with a one in row i only
            right = bi2 & ~bi   # columns with a one in row i2 only
            while left:
                low = left & -left
                left ^= low
                above = right & -(low << 1)   # right columns beyond j
                while above:
                    high = above & -above
                    above ^= high
                    yield i, i2, low.bit_length() - 1, high.bit_length() - 1


def _tight_moves(rows: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """The moves of ``_moves(rows)`` whose increment is 1, in the same
    order.  The increment counts the ones of rows i and i2 strictly
    between columns j and j2 and of the rows between in columns j..j2, so
    it is 1 iff j2 is the next one of rows[i] | rows[i2] after j, in row
    i2 only, and a running OR of the rows between holds none in j..j2.
    A one of row i at j stays ``alive`` until row i or a row between has
    a one at j + 1, or a row between one at j; row i stops once none is."""
    m = len(rows)
    for i in range(m - 1):
        bi = rows[i]
        alive = bi & ~(bi >> 1)
        between = 0
        for i2 in range(i + 1, m):
            bi2 = rows[i2]
            left = alive & ~bi2   # columns with a one in row i only
            bot = bi2 & ~bi       # columns with a one in row i2 only
            both = bi | bi2
            while left:
                low = left & -left
                left ^= low
                beyond = both & -(low << 1)
                high = beyond & -beyond   # the next one after j
                if high & bot and not between & ((high << 1) - low):
                    yield i, i2, low.bit_length() - 1, high.bit_length() - 1
            between |= bi2
            alive &= ~(bi2 | bi2 >> 1)
            if not alive:
                break


# What find_interchanges holds per move, from tracemalloc: an Interchange
# and its list slot, 88 to 90 bytes on P_60, P_100 and random states.
_MOVE_BYTES = 256


def find_interchanges(a: BinaryMatrix) -> list[Interchange]:
    """All positions whose 2x2 submatrix holds the identity pattern I2,
    sorted lexicographically by (i, i2, j, j2).  A list that could pass
    ``engine.MAX_ARRAY_BYTES`` raises ClassTooLarge before it is built:
    each move takes two ones, so there are at most C(ones, 2)."""
    engine._check_budget(min(comb(a.m, 2) * comb(a.n, 2),
                             comb(a.count_ones(), 2)), _MOVE_BYTES,
                         "the interchange list")
    return [Interchange(*move) for move in _moves(a.bits)]


def _flip(rows: tuple[int, ...], i: int, i2: int, j: int, j2: int
          ) -> tuple[int, ...]:
    """The rows after an interchange at (i, i2, j, j2): two XORs."""
    flip = (1 << j) | (1 << j2)
    out = list(rows)
    out[i] ^= flip
    out[i2] ^= flip
    return tuple(out)


@lru_cache(maxsize=8)
def _guards(m: int, n: int, w: int) -> int:
    """The top bit of every lane of an m x n table in lanes of w/8 bytes,
    little-endian, entry k*n + l in bits (k*n + l)*w and up."""
    high = bytes(w // 8 - 1) + b"\x80"
    return int.from_bytes(high * (m * n), "little")


@lru_cache(maxsize=8)
def _class_key(*key: int | tuple[int, ...]) -> tuple:
    """The key itself: the tables of one of the last 8 classes share it."""
    return key


class _OrderTable(NamedTuple):
    """What every order query reads of a matrix: its partial-sum table
    packed into w-bit lanes as ``_guards`` lays them out, with each guard
    bit clear; w, a multiple of 8; the inversion count; the class key
    (n, the row sums, the packed last row of sigma), equal iff two
    matrices share a shape and margins; and the guard bits."""

    sigma: int
    width: int
    nu: int
    cls: tuple[int, tuple[int, ...], int]
    high: int


def _order_table(a: BinaryMatrix) -> _OrderTable:
    """The order table of a, computed by the first call and kept in a's
    slot for every later one.

    A lane is the fewest whole bytes that hold the number of ones, the top
    entry of sigma and so a bound on every entry, with the top bit clear:
    that bit is the lane's guard bit.  Row i of sigma is kept as an int of
    n lanes: each one at (i, j) adds a 1 to lanes j..n-1 of row i - 1, and
    the finished row is appended as little-endian bytes, so one
    int.from_bytes reads the whole table.  A row's ones are taken from the
    right, so lane j still holds sigma(i-1, j) when the one at (i, j)
    reads it: that one sits below and left of the ones in rows 0..i-1 and
    columns j+1..n-1, which number sigma(i-1, n-1) - sigma(i-1, j)."""
    table = a._table
    if table is not None:
        return table
    n = a.n
    size = (a.count_ones().bit_length() + 8) // 8
    w = 8 * size
    lane = (1 << w) - 1
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * n, "little")
    sigma = bytearray()
    row = above = nu = 0  # row: row i-1 of sigma; above: its ones
    for i, b in enumerate(a.bits):
        count = b.bit_count()
        while b:
            j = b.bit_length() - 1
            b ^= 1 << j
            nu += above - (row >> j * w & lane)
            row += ones >> j * w << j * w
        above += count
        sigma += row.to_bytes(n * size, "little")
    table = _OrderTable(int.from_bytes(sigma, "little"), w, nu,
                        _class_key(n, a.row_sums(), row), _guards(a.m, n, w))
    object.__setattr__(a, "_table", table)
    return table


def _entries(table: _OrderTable, m: int, n: int) -> np.ndarray:
    """The entries of an m x n order table as a new m x n int32 array:
    lanes of 1, 2 or 4 bytes read as little-endian unsigned ints, and of
    3 bytes padded to 4; each is under its guard bit, so under 2**31."""
    size = table.width // 8
    raw = np.frombuffer(table.sigma.to_bytes(m * n * size, "little"), "u1")
    if size == 3:
        raw = np.pad(raw.reshape(-1, 3), ((0, 0), (0, 1)))
        size = 4
    return raw.view(f"<u{size}").astype(np.int32).reshape(m, n)


def _dominates(x: int, y: int, high: int) -> bool:
    """Whether every entry of the packed table x is at least the entry of
    y in the same lane; high is the tables' guard bits.  With every guard
    bit of x set, one subtraction borrows within lanes only, and a lane's
    guard bit survives iff its entry of x is at least that of y."""
    return ((x | high) - y) & high == high


def apply_interchange(a: BinaryMatrix, t: Interchange) -> BinaryMatrix:
    """Replace the I2 at t's 2x2 submatrix by L2."""
    rows = list(a.bits)
    if _take(rows, *t) is None:
        raise PatternMismatch(f"submatrix at {tuple(t)} is not I2")
    return BinaryMatrix(a.m, a.n, tuple(rows))


def _columns(rows: Sequence[int], width: int) -> list[int]:
    """The column view of the rows: bit r of entry c is cell (r, c)."""
    cols = [0] * width
    for r, b in enumerate(rows):
        while b:
            c = b.bit_length() - 1
            b ^= 1 << c
            cols[c] |= 1 << r
    return cols


def _take(rows: list[int], i: int, i2: int, j: int, j2: int,
          cols: list[int] | None = None) -> int | None:
    """Apply the ItoL interchange at (i, i2, j, j2) to rows, and to their
    column view cols (``_columns``) when given, in place, and return its
    inversion gain; or return None, changing nothing, unless the rows hold
    I2 there.  The row indices are tested before any row is read, and j2
    against the highest one of the two rows, where I2 never matches,
    before any bit is shifted by it.

    The ones strictly inside the move's rectangle count twice and those
    beside it, in its rows or its columns, once; the flipped cells are not
    read.  Given cols, the inside is counted over whichever span is
    shorter, the rows between i and i2 or the columns between j and j2;
    the value is the same either way."""
    if not 0 <= i < i2 < len(rows):
        return None
    top, bottom = rows[i], rows[i2]
    if not 0 <= j < j2 < (top | bottom).bit_length():
        return None
    left, right = 1 << j, 1 << j2
    ends = left | right
    if top & ends != left or bottom & ends != right:
        return None
    rows[i], rows[i2] = top ^ ends, bottom ^ ends
    mid = right - (left << 1)       # columns strictly between j and j2
    gain = 1 + (top & mid).bit_count() + (bottom & mid).bit_count()
    if cols is not None:
        down = (1 << i) | (1 << i2)
        cols[j] ^= down
        cols[j2] ^= down
        if j2 - j < i2 - i:
            inner = (1 << i2) - (2 << i)    # rows strictly between i and i2
            gain += ((cols[j] & inner).bit_count()
                     + (cols[j2] & inner).bit_count())
            for c in cols[j + 1:j2]:
                gain += 2 * (c & inner).bit_count()
            return gain
    for b in rows[i + 1:i2]:
        gain += 2 * (b & mid).bit_count() + (b & ends).bit_count()
    return gain


def interchange_increment(a: BinaryMatrix, t: Interchange) -> int:
    """Exact inversion gain of applying a valid ItoL interchange: one plus
    a weighted count of ones in the five blocks strictly between the two
    rows and two columns of the move."""
    gain = _take(list(a.bits), *t)
    if gain is None:
        raise PatternMismatch(f"no ItoL pattern at {tuple(t)}")
    return gain


def direct_sum(blocks: Sequence[BinaryMatrix]) -> BinaryMatrix:
    """Block-diagonal assembly of the given blocks, in order."""
    if not blocks:
        raise ValueError("need at least one block")
    m = sum(b.m for b in blocks)
    n = sum(b.n for b in blocks)
    bits = []
    col_off = 0
    for blk in blocks:
        bits.extend(row << col_off for row in blk.bits)
        col_off += blk.n
    return BinaryMatrix(m, n, tuple(bits))


def reverse_columns(a: BinaryMatrix) -> BinaryMatrix:
    """Flip the matrix left/right; an involution.  A row string read as a
    plain binary numeral is the reversed row."""
    return BinaryMatrix(a.m, a.n, tuple(int(a.row_string(i), 2)
                                        for i in range(a.m)))


def pack(a: BinaryMatrix) -> int:
    """The key of a matrix: its cells in row-major order read as one binary
    number, so cell (i, j) sits at bit m*n - 1 - (i*n + j)."""
    packed = 0  # cell (i, j) at bit i*n + j
    for i, b in enumerate(a.bits):
        packed |= b << (i * a.n)
    return int(format(packed, f"0{a.m * a.n}b")[::-1], 2)


def decode(key: int, m: int, n: int) -> BinaryMatrix:
    """The m x n matrix with this key; the inverse of ``pack``.  Written in
    binary and reversed, the key holds cell (i, j) at (m-1-i)*n + n-1-j,
    so the slice of row i reads in binary as its row int."""
    cells = format(key, f"0{m * n}b")[::-1]
    return BinaryMatrix(m, n, tuple(int(cells[k:k + n], 2)
                                    for k in range((m - 1) * n, -1, -n)))


def canonical_key(a: BinaryMatrix) -> bytes:
    """Injective byte encoding: dimensions then the key (``pack``).  For
    equal dimensions, byte order agrees with key order."""
    cells = a.m * a.n
    # the sentinel high bit keeps leading zero rows in to_bytes
    payload = 1 << cells | pack(a)
    return (a.m.to_bytes(2, "big") + a.n.to_bytes(2, "big")
            + payload.to_bytes(cells // 8 + 1, "big"))
