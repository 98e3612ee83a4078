"""References for the tests: a row-by-row backtracking enumerator over
BinaryMatrix values, independent of the packed engine, and a partial-sum
recount independent of the order tables."""

from itertools import accumulate, combinations

from bruhatchains import BinaryMatrix, InfeasibleMargins, MarginPair


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
