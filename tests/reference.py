"""References for the tests: a row-by-row backtracking enumerator over
BinaryMatrix values, independent of the packed engine, an interchange arc
builder that finds each target by binary search, a partial-sum recount
independent of the order tables, a pair-by-pair poset built on that
recount, the numpy sweep ``build_poset``'s bitsets replaced, a
reachability pass over lists of arcs, the paper's order-5
chain tables, and helpers only the tests call, a submatrix writer and
LtoI moves among them: an LtoI move at (i, i2, j, j2) turns L2 back into
I2, the undo of the ItoL move there."""

from functools import reduce
from itertools import accumulate, combinations
from operator import or_

import numpy as np

from bruhatchains import (
    BinaryMatrix,
    ClassPoset,
    InfeasibleMargins,
    Interchange,
    MarginPair,
    PatternMismatch,
    apply_interchange,
    bruhat_leq,
    find_interchanges,
    reverse_columns,
)
from bruhatchains import engine
from bruhatchains.search import _longest_paths


def backtrack_class(margins: MarginPair) -> list[BinaryMatrix]:
    """Every member of the class once, in search order.  A row placement
    is pruned when some remaining column demand exceeds the number of rows
    left."""
    m, n = margins.m, margins.n
    if any(r > n for r in margins.row_sums) or any(c > m for c in margins.col_sums):
        raise InfeasibleMargins("a margin exceeds the opposite dimension")

    caps = list(margins.col_sums)
    rows: list[int] = []
    out: list[BinaryMatrix] = []

    def backtrack(i: int) -> None:
        if i == m:
            out.append(BinaryMatrix(m, n, tuple(rows)))
            return
        remaining = m - i - 1
        open_cols = [j for j in range(n) if caps[j] > 0]
        for chosen in combinations(open_cols, margins.row_sums[i]):
            for j in chosen:
                caps[j] -= 1
            if all(cap <= remaining for cap in caps):
                rows.append(sum(1 << j for j in chosen))
                backtrack(i + 1)
                rows.pop()
            for j in chosen:
                caps[j] += 1

    backtrack(0)
    if not out:
        raise InfeasibleMargins("no matrix realizes these margins")
    return out


def searchsorted_arcs(keys, rank, m: int, n: int):
    """The CSR interchange arcs of ``engine.interchange_arcs``, each
    source's target found by binary search over the keys in key order.  A
    counting pass in member order sizes every member's slot; each slot
    lists its targets in move order."""
    def bit(i, j):
        return 1 << m * n - 1 - (i * n + j)

    moves = []
    for i, i2 in combinations(range(m), 2):
        for j, j2 in combinations(range(n), 2):
            src = bit(i, j) | bit(i2, j2)
            moves.append((np.uint64(src | bit(i, j2) | bit(i2, j)),
                          np.uint64(src)))
    counts = np.zeros(len(keys), np.int64)
    for mask, pattern in moves:
        counts[np.flatnonzero((keys & mask) == pattern)] += 1
    indptr = np.zeros(len(keys) + 1, np.int32)
    np.cumsum(counts, out=indptr[1:])
    targets = np.empty(int(indptr[-1]), np.int32)
    keys, cursor = keys[rank], indptr[rank]
    for mask, pattern in moves:
        p = np.flatnonzero((keys & mask) == pattern)
        moved = keys[p] ^ mask
        q = np.searchsorted(keys, moved)
        q[q == len(keys)] = 0  # past the largest key: no member there
        if (keys[q] != moved).any():
            raise RuntimeError("an interchange left the enumerated class")
        targets[cursor[p]] = rank[q]
        cursor[p] += 1
    return indptr, targets


def sigma(rows, n: int) -> list[int]:
    """Flat partial-sum table of the rows: entry k*n + l counts the ones in
    rows 0..k and columns 0..l, the prefix sums of the column counts of
    rows 0..k.  The last row holds the cumulative column sums, the last
    column the cumulative row sums."""
    cols = [0] * n
    out: list[int] = []
    for b in rows:
        while b:
            low = b & -b
            cols[low.bit_length() - 1] += 1
            b ^= low
        out.extend(accumulate(cols))
    return out


def poset_by_pairs(members) -> tuple[list[list[bool]], list[int], list[int]]:
    """Comparability and covers of the members, in their order: a <= c
    when every entry of ``sigma(a)`` is at least the one of ``sigma(c)``,
    and c covers a when a < c and no member lies strictly between them.
    Returns the comparability rows and the covers as CSR lists, each
    member's targets ascending."""
    tables = [sigma(a.bits, a.n) for a in members]
    leq = [[all(x >= y for x, y in zip(ta, tc)) for tc in tables]
           for ta in tables]
    size = len(members)
    above = [sum(1 << c for c in range(size) if leq[a][c] and c != a)
             for a in range(size)]
    below = [sum(1 << a for a in range(size) if leq[a][c] and a != c)
             for c in range(size)]
    indptr, targets = [0], []
    for a in range(size):
        targets += [c for c in range(size)
                    if above[a] >> c & 1 and not above[a] & below[c]]
        indptr.append(len(targets))
    return leq, indptr, targets


def swept_poset(margins: MarginPair):
    """Comparability and covers of the class in ``build_poset``'s member
    order, by numpy sweeps in place of its bitsets: ``leq`` swept in
    blocks of rows of about 64 KiB, one partial-sum entry of
    ``engine.sigma_table`` at a time by plain ``>=``; a member's covers
    its strict up-set less the OR of the strict rows of that up-set, 32
    rows at a time, a row whose member is already in the OR skipped.
    Returns ``leq`` and the covers as CSR arrays (bool, int32, int32),
    each member's targets ascending."""
    keys, _, _ = engine.ranked_class(margins)
    size = len(keys)
    sig = np.ascontiguousarray(
        engine.sigma_table(keys, margins.m, margins.n).T)
    leq = np.ones((size, size), dtype=bool)
    block = max(1, (1 << 16) // size)
    for lo in range(0, size, block):
        rows = leq[lo:lo + block]
        for entry in sig:
            rows &= entry[lo:lo + block, None] >= entry
    strict = leq.copy()
    np.fill_diagonal(strict, False)
    indptr, targets = [0], []
    for a in range(size):
        up = rest = np.flatnonzero(strict[a])
        through = np.zeros(size, dtype=bool)
        while len(rest):
            through |= np.logical_or.reduce(strict[rest[:32]], axis=0)
            rest = rest[32:]
            rest = rest[~through[rest]]
        targets += up[~through[up]].tolist()
        indptr.append(len(targets))
    return (leq, np.array(indptr, dtype=np.int32),
            np.array(targets, dtype=np.int32))


def reach(indptr, targets) -> tuple[list[int], list[list[int]]]:
    """The bitsets of the CSR arcs' reachability, bit w of entry v set iff
    w is reachable from v, and the arcs as lists.  Every arc raises the
    inversion count, so one reverse pass over the members fills the
    bitsets."""
    bounds, targets = indptr.tolist(), targets.tolist()
    arcs = [targets[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    bits = [0] * len(arcs)
    for v in reversed(range(len(arcs))):
        bits[v] = reduce(or_, map(bits.__getitem__, arcs[v]), 1 << v)
    return bits, arcs


# Helpers only the tests call.

def duality_check(a: BinaryMatrix, c: BinaryMatrix) -> bool:
    """Precedence of (a, c) must equal precedence of the column-reversed
    pair in the opposite direction."""
    return bruhat_leq(a, c) == bruhat_leq(reverse_columns(c),
                                          reverse_columns(a))


def all_pair_count(a: BinaryMatrix) -> int:
    """Pairs of ones sharing neither row nor column.  Each such pair is an
    inversion in exactly one of a and its column reversal."""
    ones = a.count_ones()
    total = ones * (ones - 1) // 2
    same_row = sum(r * (r - 1) // 2 for r in a.row_sums())
    same_col = sum(c * (c - 1) // 2 for c in a.col_sums())
    return total - same_row - same_col


def ones(a: BinaryMatrix) -> list[tuple[int, int]]:
    """Positions of ones in row-major order, read cell by cell."""
    return [(i, j) for i in range(a.m) for j in range(a.n) if a.get(i, j)]


def embed(host: BinaryMatrix, row_idx, col_idx,
          sub: BinaryMatrix) -> BinaryMatrix:
    """host with its cells at the given rows and columns overwritten by
    sub's, one cell at a time; every other cell is unchanged."""
    bits = list(host.bits)
    for k, i in enumerate(row_idx):
        for jj, j in enumerate(col_idx):
            bits[i] = bits[i] & ~(1 << j) | sub.get(k, jj) << j
    return BinaryMatrix(host.m, host.n, tuple(bits))


def submatrix(a: BinaryMatrix, row_idx, col_idx) -> BinaryMatrix:
    """The submatrix at the given strictly increasing row/column indices."""
    bits = [sum(((a.bits[i] >> j) & 1) << jj for jj, j in enumerate(col_idx))
            for i in row_idx]
    return BinaryMatrix(len(row_idx), len(col_idx), tuple(bits))


def ltoi_moves(a: BinaryMatrix) -> list[Interchange]:
    """Every position whose 2x2 submatrix holds L2, sorted: an L2 at rows
    i < i2 is an I2 of the rows reversed, at rows m-1-i2 < m-1-i."""
    last = a.m - 1
    flipped = BinaryMatrix(a.m, a.n, a.bits[::-1])
    return sorted(Interchange(last - i2, last - i, j, j2)
                  for i, i2, j, j2 in find_interchanges(flipped))


def undo(a: BinaryMatrix, t: Interchange) -> BinaryMatrix:
    """The LtoI move at t: the L2 there becomes I2, so undo(b, t) == a when
    b is apply_interchange(a, t).  Anything but L2 at t raises
    PatternMismatch."""
    i, i2, j, j2 = t
    if not (0 <= i < i2 < a.m and 0 <= j < j2 < a.n
            and (a.get(i, j), a.get(i, j2), a.get(i2, j), a.get(i2, j2))
            == (0, 1, 1, 0)):
        raise PatternMismatch(f"submatrix at {tuple(t)} is not L2")
    flip = (1 << j) | (1 << j2)
    bits = list(a.bits)
    bits[i] ^= flip
    bits[i2] ^= flip
    return BinaryMatrix(a.m, a.n, tuple(bits))


def random_interchange_walk(a: BinaryMatrix, steps: int, rng) -> BinaryMatrix:
    """Apply the given number of uniformly chosen interchanges (either
    direction).  Stays inside the class of a; used for sampling members."""
    cur = a
    for _ in range(steps):
        downs = ltoi_moves(cur)
        moves = find_interchanges(cur) + downs
        if not moves:
            break
        t = rng.choice(moves)
        cur = undo(cur, t) if t in downs else apply_interchange(cur, t)
    return cur


def strict(poset: ClassPoset) -> np.ndarray:
    """Strict comparability: a copy of ``leq`` with the diagonal
    cleared."""
    if poset.leq is None:
        raise ValueError("comparability needs the full poset")
    out = np.asarray(poset.leq)
    np.fill_diagonal(out, False)
    return out


def strict_pairs(poset: ClassPoset):
    """All ordered pairs (a, c) with a strictly below c, read from the
    rows of ``leq`` (one int each) one row at a time."""
    if poset.leq is None:
        raise ValueError("comparability needs the full poset")
    for a, row in enumerate(poset.leq.rows):
        # bit c of the row is character c of its reversed binary digits
        bits = format(row & ~(1 << a), f"0{len(poset)}b")[::-1]
        c = bits.find("1")
        while c >= 0:
            yield a, c
            c = bits.find("1", c + 1)


def longest_chain_between(poset: ClassPoset, start_idx: int,
                          end_idx: int) -> int | None:
    """Maximum chain length from one member to another, or None when no
    path exists."""
    length = int(_longest_paths(poset, [end_idx])[start_idx])
    return length if length >= 0 else None


# The paper's two order-5 chains, one matrix per row of its tables: P_5 to
# Z, then Z to Q_5.  ``chains`` stores the same chains as interchange steps.
TABLE_P5_TO_Z = (
    ("11000", "11000", "00110", "00101", "00011"),
    ("11000", "11000", "00110", "00011", "00101"),
    ("11000", "10100", "01010", "00011", "00101"),
    ("11000", "10010", "01100", "00011", "00101"),
    ("11000", "10010", "01010", "00101", "00101"),
    ("11000", "10010", "01001", "00110", "00101"),
    ("11000", "10010", "01001", "00101", "00110"),
)

TABLE_Z_TO_Q5 = (
    ("11000", "10010", "01001", "00101", "00110"),
    ("11000", "10001", "01010", "00101", "00110"),
    ("11000", "10001", "00110", "01001", "00110"),
    ("11000", "10001", "00110", "00101", "01010"),
    ("11000", "10001", "00110", "00011", "01100"),
    ("10100", "10001", "01010", "00011", "01100"),
    ("10010", "10001", "01100", "00011", "01100"),
    ("10010", "10001", "01010", "00101", "01100"),
    ("10010", "10001", "01001", "00110", "01100"),
    ("10001", "10010", "01001", "00110", "01100"),
    ("10001", "10010", "00101", "01010", "01100"),
    ("10001", "01010", "00101", "10010", "01100"),
    ("10001", "01010", "00101", "01010", "10100"),
    ("10001", "01010", "00101", "00110", "11000"),
    ("10001", "00110", "01001", "00110", "11000"),
    ("10001", "00110", "00101", "01010", "11000"),
    ("10001", "00110", "00011", "01100", "11000"),
    ("00101", "10010", "00011", "01100", "11000"),
    ("00011", "10100", "00011", "01100", "11000"),
    ("00011", "10010", "00101", "01100", "11000"),
    ("00011", "10001", "00110", "01100", "11000"),
    ("00011", "00101", "10010", "01100", "11000"),
    ("00011", "00011", "10100", "01100", "11000"),
    ("00011", "00011", "01100", "10100", "11000"),
)
