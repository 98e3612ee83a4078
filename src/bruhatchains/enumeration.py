"""Exhaustive enumeration of a class with fixed margins, and its order
digraphs (comparability and covers)."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .errors import ClassTooLarge, InfeasibleMargins
from .matrices import (
    BinaryMatrix,
    Direction,
    MarginPair,
    apply_interchange,
    canonical_key,
    cumulative_sums,
    find_interchanges,
    inversion_count,
)

DEFAULT_MEMBER_CAP = 100_000


def enumerate_class(margins: MarginPair) -> Iterator[BinaryMatrix]:
    """Yield every member of the class exactly once, sorted by canonical
    key.  Row-by-row backtracking; a row placement is pruned when some
    remaining column demand exceeds the number of rows left."""
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
            ok = True
            for j in chosen:
                caps[j] -= 1
            for j in range(n):
                if caps[j] > remaining:
                    ok = False
                    break
            if ok:
                mask = 0
                for j in chosen:
                    mask |= 1 << j
                rows.append(mask)
                backtrack(i + 1)
                rows.pop()
            for j in chosen:
                caps[j] += 1

    backtrack(0)
    if not out:
        raise InfeasibleMargins("no matrix realizes these margins")
    out.sort(key=canonical_key)
    yield from out


@dataclass
class ClassPoset:
    """All members of one class, with order arcs over them.

    In ``full`` mode ``leq`` holds the complete comparability relation
    (including equality on the diagonal) and ``succ`` holds cover arcs.
    In ``interchange`` mode ``leq`` is absent and ``succ`` holds single
    ItoL interchange arcs; on all-two square classes the Bruhat order is
    the transitive closure of these arcs, which is all the longest-path
    and spectrum machinery needs.
    """

    margins: MarginPair
    members: list[BinaryMatrix]
    nu: list[int]
    succ: list[list[int]]
    mode: str
    leq: np.ndarray | None = None
    _index: dict[BinaryMatrix, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._index:
            self._index = {a: i for i, a in enumerate(self.members)}

    def __len__(self) -> int:
        return len(self.members)

    def index_of(self, a: BinaryMatrix) -> int:
        if a not in self._index:
            raise KeyError("matrix is not a member of this class")
        return self._index[a]

    def strict_pairs(self) -> Iterator[tuple[int, int]]:
        """All ordered pairs (a, c) with a strictly below c."""
        if self.mode != "full":
            raise ValueError("comparability pairs need a full-mode poset")
        rows, cols = np.nonzero(self.leq)
        for a, c in zip(rows.tolist(), cols.tolist()):
            if a != c:
                yield a, c

    def cover_pairs(self) -> list[tuple[int, int]]:
        return [(a, c) for a, succs in enumerate(self.succ) for c in succs]

    def minimal_indices(self) -> list[int]:
        if self.mode == "full":
            strict = self.leq.copy()
            np.fill_diagonal(strict, False)
            return [int(i) for i in np.nonzero(~strict.any(axis=0))[0]]
        indeg = [0] * len(self.members)
        for succs in self.succ:
            for c in succs:
                indeg[c] += 1
        return [i for i, d in enumerate(indeg) if d == 0]

    def maximal_indices(self) -> list[int]:
        if self.mode == "full":
            strict = self.leq.copy()
            np.fill_diagonal(strict, False)
            return [int(i) for i in np.nonzero(~strict.any(axis=1))[0]]
        return [i for i, succs in enumerate(self.succ) if not succs]

    def to_dot(self) -> str:
        """DOT digraph over cover arcs, nodes labeled key and inversion
        count."""
        if self.mode != "full":
            raise ValueError("DOT export needs a full-mode poset")
        lines = ["digraph class_poset {"]
        for i, a in enumerate(self.members):
            key = canonical_key(a).hex()
            lines.append(f'  n{i} [label="{key}\\nnu={self.nu[i]}"];')
        for a, c in self.cover_pairs():
            lines.append(f"  n{a} -> n{c};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        """One member per line: key, inversion count, cover successors."""
        import json

        lines = []
        for i, a in enumerate(self.members):
            lines.append(json.dumps({
                "key": canonical_key(a).hex(),
                "nu": self.nu[i],
                "covers": [canonical_key(self.members[c]).hex()
                           for c in self.succ[i]],
            }))
        return "\n".join(lines) + "\n"


def _sorted_members(margins: MarginPair) -> tuple[list[BinaryMatrix], list[int]]:
    members = list(enumerate_class(margins))
    nu = [inversion_count(a) for a in members]
    # a stable sort keeps the canonical-key order of enumerate_class on ties
    order = sorted(range(len(members)), key=nu.__getitem__)
    return [members[i] for i in order], [nu[i] for i in order]


def sigma_array(members: Sequence[BinaryMatrix]) -> np.ndarray:
    """Stacked flattened partial-sum tables, one row per member."""
    return np.array([cumulative_sums(a).flat() for a in members],
                    dtype=np.int32)


def build_poset(margins: MarginPair,
                max_members: int = DEFAULT_MEMBER_CAP) -> ClassPoset:
    """Full poset: comparability by all-pairs domination of partial-sum
    tables, covers by pruning arcs that factor through an intermediate.

    Every ordered pair is tested, with no inversion-count shortcut, so the
    comparability relation stays an independent oracle for the
    monotonicity sweeps.
    """
    members, nu = _sorted_members(margins)
    size = len(members)
    if size > max_members:
        raise ClassTooLarge(f"{size} members exceed the cap {max_members}")
    sig = sigma_array(members)
    leq = np.zeros((size, size), dtype=bool)
    for c in range(size):
        leq[:, c] = (sig >= sig[c]).all(axis=1)

    strict = leq.copy()
    np.fill_diagonal(strict, False)
    # pred_mask[c]: bit a set when a is strictly below c
    pred_mask = []
    for c in range(size):
        col = np.packbits(strict[:, c], bitorder="little")
        pred_mask.append(int.from_bytes(col.tobytes(), "little"))
    succ: list[list[int]] = [[] for _ in range(size)]
    for c in range(size):
        preds = np.nonzero(strict[:, c])[0]
        through = 0
        for b in preds.tolist():
            through |= pred_mask[b]
        for a in preds.tolist():
            if not (through >> a) & 1:
                succ[a].append(c)
    for lst in succ:
        lst.sort()
    return ClassPoset(margins, members, nu, succ, "full", leq)


def build_interchange_dag(margins: MarginPair) -> ClassPoset:
    """Single-interchange digraph over the class.  Intended for all-two
    square classes, where cover arcs are a subset of these arcs and the
    Bruhat order is their transitive closure."""
    members, nu = _sorted_members(margins)
    index = {a: i for i, a in enumerate(members)}
    succ: list[list[int]] = []
    for a in members:
        targets = sorted(
            index[apply_interchange(a, t)]
            for t in find_interchanges(a, Direction.ItoL))
        succ.append(targets)
    return ClassPoset(margins, members, nu, succ, "interchange", None, index)


def extremes(poset: ClassPoset) -> tuple[list[BinaryMatrix], list[BinaryMatrix]]:
    """Members with no strictly smaller element, and with no strictly
    larger element."""
    return ([poset.members[i] for i in poset.minimal_indices()],
            [poset.members[i] for i in poset.maximal_indices()])
