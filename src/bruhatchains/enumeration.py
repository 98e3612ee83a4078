"""Exhaustive enumeration of a class with fixed margins, and its order
digraphs (comparability and covers)."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterator

import numpy as np

from . import engine
from .errors import InfeasibleMargins
from .matrices import (
    BinaryMatrix,
    MarginPair,
    _sigma,
    canonical_key,
    inversion_count,
)


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


class _ArcRows(Sequence):
    """Read-only per-member view of CSR arcs: ``rows[v]`` is the array of
    v's arc targets."""

    def __init__(self, indptr: np.ndarray, targets: np.ndarray) -> None:
        self._indptr = indptr
        self._targets = targets

    def __len__(self) -> int:
        return len(self._indptr) - 1

    def __getitem__(self, v: int) -> np.ndarray:
        return self._targets[self._indptr[v]:self._indptr[v + 1]]


@dataclass
class ClassPoset:
    """All members of one class, sorted by inversion count, with order arcs
    over them.

    The arcs are stored once, in CSR form: the targets of member v are
    ``targets[indptr[v]:indptr[v + 1]]`` (int32 arrays, read-only).
    ``succ`` is the same store as a per-member sequence of arrays.

    With ``leq`` present this is the full poset: ``leq`` holds the
    complete comparability relation (including equality on the diagonal)
    and the arcs are the covers, in increasing order per member.  With
    ``leq`` None it is an interchange DAG: the arcs are single ItoL
    interchanges, and on all-two square classes the Bruhat order is their
    transitive closure, which is all the longest-path and spectrum
    machinery needs.  Comparability queries and the exports refuse a DAG.
    """

    margins: MarginPair
    members: list[BinaryMatrix]
    nu: list[int]
    indptr: np.ndarray
    targets: np.ndarray
    leq: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int32)
        self.targets = np.asarray(self.targets, dtype=np.int32)
        size = len(self.members)
        if (len(self.indptr) != size + 1 or self.indptr[0] != 0
                or self.indptr[-1] != len(self.targets)
                or (np.diff(self.indptr) < 0).any()
                or len(self.targets) and (self.targets.min() < 0
                                          or self.targets.max() >= size)):
            raise ValueError("CSR arrays do not describe arcs over the members")
        self.indptr.flags.writeable = False
        self.targets.flags.writeable = False

    @cached_property
    def succ(self) -> _ArcRows:
        return _ArcRows(self.indptr, self.targets)

    @cached_property
    def _index(self) -> dict[BinaryMatrix, int]:
        return {a: i for i, a in enumerate(self.members)}

    def __len__(self) -> int:
        return len(self.members)

    def index_of(self, a: BinaryMatrix) -> int:
        if a not in self._index:
            raise KeyError("matrix is not a member of this class")
        return self._index[a]

    def strict(self) -> np.ndarray:
        """Strict comparability: a copy of ``leq`` with the diagonal
        cleared."""
        if self.leq is None:
            raise ValueError("comparability needs the full poset")
        strict = self.leq.copy()
        np.fill_diagonal(strict, False)
        return strict

    def strict_pairs(self) -> Iterator[tuple[int, int]]:
        """All ordered pairs (a, c) with a strictly below c."""
        rows, cols = np.nonzero(self.strict())
        yield from zip(rows.tolist(), cols.tolist())

    def cover_pairs(self) -> list[tuple[int, int]]:
        sources = np.repeat(np.arange(len(self.members)), np.diff(self.indptr))
        return list(zip(sources.tolist(), self.targets.tolist()))

    def minimal_indices(self) -> list[int]:
        """Members with no incoming arc."""
        has_pred = np.zeros(len(self.members), dtype=bool)
        has_pred[self.targets] = True
        return np.flatnonzero(~has_pred).tolist()

    def maximal_indices(self) -> list[int]:
        """Members with no outgoing arc."""
        return np.flatnonzero(np.diff(self.indptr) == 0).tolist()

    def to_dot(self) -> str:
        """DOT digraph over cover arcs, nodes labeled key and inversion
        count."""
        if self.leq is None:
            raise ValueError("DOT export needs the full poset")
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
        if self.leq is None:
            raise ValueError("JSONL export needs the full poset")
        lines = []
        for i, a in enumerate(self.members):
            lines.append(json.dumps({
                "key": canonical_key(a).hex(),
                "nu": self.nu[i],
                "covers": [canonical_key(self.members[c]).hex()
                           for c in self.succ[i]],
            }))
        return "\n".join(lines) + "\n"


def build_poset(margins: MarginPair) -> ClassPoset:
    """Full poset: comparability by all-pairs domination of partial-sum
    tables, covers by pruning arcs that factor through an intermediate.

    Every ordered pair is tested, with no inversion-count shortcut, so the
    comparability relation stays an independent oracle for the
    monotonicity sweeps.  A size x size matrix over
    ``engine.MAX_ARRAY_BYTES`` is refused with ClassTooLarge before any
    is allocated.
    """
    members = list(enumerate_class(margins))
    nu = [inversion_count(a) for a in members]
    # a stable sort keeps the canonical-key order of enumerate_class on ties
    order = sorted(range(len(members)), key=nu.__getitem__)
    members, nu = [members[i] for i in order], [nu[i] for i in order]
    size = len(members)
    engine._check_budget(size * size, 1, "the comparability matrix")
    sig = np.array([_sigma(a.bits, a.n) for a in members], dtype=np.int32)
    leq = np.zeros((size, size), dtype=bool)
    for c in range(size):
        leq[:, c] = (sig >= sig[c]).all(axis=1)
    strict = leq.copy()
    np.fill_diagonal(strict, False)
    # pred_mask[c]: bit a set when a is strictly below c
    pred_mask = [int.from_bytes(np.packbits(col, bitorder="little").tobytes(),
                                "little") for col in strict.T]
    succ: list[list[int]] = [[] for _ in range(size)]
    for c in range(size):
        preds = np.flatnonzero(strict[:, c]).tolist()
        through = 0
        for b in preds:
            through |= pred_mask[b]
        for a in preds:
            if not (through >> a) & 1:
                succ[a].append(c)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum([len(lst) for lst in succ], out=indptr[1:])
    targets = np.fromiter(chain.from_iterable(succ), dtype=np.int32,
                          count=indptr[-1])
    return ClassPoset(margins, members, nu, indptr, targets, leq)


def build_interchange_dag(margins: MarginPair) -> ClassPoset:
    """Single-interchange digraph over the class, built by the packed
    engine (at most 64 cells).  Intended for all-two square classes, where
    cover arcs are a subset of these arcs and the Bruhat order is their
    transitive closure."""
    members, nu, indptr, targets = engine.interchange_class(margins)
    return ClassPoset(margins, members, nu, indptr, targets)


def extremes(poset: ClassPoset) -> tuple[list[BinaryMatrix], list[BinaryMatrix]]:
    """Members with no strictly smaller element, and with no strictly
    larger element."""
    return ([poset.members[i] for i in poset.minimal_indices()],
            [poset.members[i] for i in poset.maximal_indices()])
