"""Exhaustive enumeration and counting of a class with fixed margins, and
its order digraphs (comparability and covers)."""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from math import comb, isqrt, prod
from operator import and_
from typing import Iterator

import numpy as np

from . import engine
from .errors import ClassTooLarge, InfeasibleMargins
from .matrices import BinaryMatrix, MarginPair, canonical_key, decode


def enumerate_class(margins: MarginPair) -> Iterator[BinaryMatrix]:
    """Yield every member of the class exactly once, sorted by canonical
    key: the packed engine's keys, decoded one at a time.  A class over 64
    cells raises ClassTooLarge, as does one whose enumeration frontier
    would pass ``engine.MAX_ARRAY_BYTES``."""
    m, n = margins.m, margins.n
    for key in engine.enumerate_keys(margins):
        yield decode(int(key), m, n)


def count_class(margins: MarginPair) -> int:
    """The number of members, by an exact DP over the rows that enumerates
    nothing.  A state counts the columns at each remaining cap; a row of
    sum r that takes k_v of the c_v columns at cap v has prod C(c_v, k_v)
    ways.  Infeasible margins raise InfeasibleMargins.  The DP walks every
    split of a row over the caps, a take of 0..min(c_v, r) columns from
    each, and raises ClassTooLarge, before a row, once the splits walked
    with it would pass ``engine.MAX_COUNT_SPLITS``."""
    engine.check_margins(margins)  # so no cap passes the rows
    top = max(margins.col_sums, default=0)
    states = Counter({tuple(map(margins.col_sums.count, range(top + 1))): 1})
    splits = 0
    for i, r in enumerate(margins.row_sums):
        splits += sum(prod(min(c, r) + 1 for c in state[1:])
                      for state in states)
        if splits > engine.MAX_COUNT_SPLITS:
            raise ClassTooLarge(
                f"the class count to row {i + 1} would walk {splits} "
                f"splits, over the {engine.MAX_COUNT_SPLITS}-split limit")
        after: Counter = Counter()
        for state, ways in states.items():
            for take in product(*(range(min(c, r) + 1) for c in state[1:])):
                if sum(take) == r:
                    moved = (0, *take, 0)  # columns leaving each cap
                    after[tuple(c - moved[v] + moved[v + 1]
                                for v, c in enumerate(state))] \
                        += ways * prod(map(comb, state[1:], take))
        states = after
    total = sum(states.values())  # the caps total the rows: none is left
    if not total:
        raise InfeasibleMargins("no matrix realizes these margins")
    return total


# The members whose arc bounds ``_ArcRows`` iteration holds at once: a
# part of 4096 raised the peak RSS of a sweep over A(6,2) by 0.1 MB.
_ARC_ROWS_PART = 256


class _ArcRows(Sequence):
    """Read-only per-member view of CSR arcs: ``rows[v]`` is the array of
    v's arc targets, and ``rows[-k]`` that of member ``len(rows) - k``."""

    def __init__(self, indptr: np.ndarray, targets: np.ndarray) -> None:
        self._indptr = indptr
        self._targets = targets

    def __len__(self) -> int:
        return len(self._indptr) - 1

    def __getitem__(self, v: int) -> np.ndarray:
        size = len(self)
        if not -size <= v < size:
            raise IndexError(f"member {v} is out of range for {size}")
        if v < 0:
            v += size
        return self._targets[self._indptr[v]:self._indptr[v + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        # the bounds as Python ints, which slice about twice as fast as
        # numpy scalars, a part at a time, so no class-sized list is held
        for start in range(0, len(self), _ARC_ROWS_PART):
            bounds = self._indptr[start:start + _ARC_ROWS_PART + 1].tolist()
            for lo, hi in zip(bounds, bounds[1:]):
                yield self._targets[lo:hi]


class _Members(Sequence):
    """Read-only view of keys as matrices: ``members[v]`` decodes key v on
    its first read and keeps it, so every later read returns that object."""

    def __init__(self, keys: np.ndarray, m: int, n: int) -> None:
        self._keys, self._m, self._n = keys, m, n
        self._slots: list[BinaryMatrix | None] = [None] * len(keys)

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, v):
        if isinstance(v, slice):
            return [self[i] for i in range(*v.indices(len(self)))]
        member = self._slots[v]
        if member is None:
            member = self._slots[v] = decode(int(self._keys[v]), self._m,
                                             self._n)
        return member

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


@dataclass(eq=False)
class ClassPoset:
    """All members of one class, sorted by inversion count, with order arcs
    over them.

    The members are stored once, as their keys (``matrices.pack``) in a
    read-only uint64 array, with their inversion counts ``nu`` beside them
    in a read-only int16 array.  ``members`` is a read-only view that
    decodes a key on its first read and keeps the matrix.

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

    Equality is identity, so a poset is hashable.
    """

    margins: MarginPair
    keys: np.ndarray
    nu: np.ndarray
    indptr: np.ndarray
    targets: np.ndarray
    leq: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys, dtype=np.uint64)
        self.nu = np.asarray(self.nu, dtype=np.int16)
        self.indptr = np.asarray(self.indptr, dtype=np.int32)
        self.targets = np.asarray(self.targets, dtype=np.int32)
        size = len(self.keys)
        if (len(self.indptr) != size + 1 or self.indptr[0] != 0
                or self.indptr[-1] != len(self.targets)
                or (np.diff(self.indptr) < 0).any()
                or len(self.targets) and (self.targets.min() < 0
                                          or self.targets.max() >= size)):
            raise ValueError("CSR arrays do not describe arcs over the members")
        if len(self.nu) != size:
            raise ValueError(f"nu holds {len(self.nu)} counts for {size} "
                             f"members")
        if self.leq is not None and np.shape(self.leq) != (size, size):
            raise ValueError(f"leq is {np.shape(self.leq)}, not {size} x "
                             f"{size}")
        for store in (self.keys, self.nu, self.indptr, self.targets):
            store.flags.writeable = False

    @cached_property
    def members(self) -> _Members:
        return _Members(self.keys, self.margins.m, self.margins.n)

    @cached_property
    def succ(self) -> _ArcRows:
        return _ArcRows(self.indptr, self.targets)

    def __len__(self) -> int:
        return len(self.keys)

    def cover_pairs(self) -> list[tuple[int, int]]:
        sources = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        return list(zip(sources.tolist(), self.targets.tolist()))

    def minimal_indices(self) -> list[int]:
        """Members with no incoming arc."""
        has_pred = np.zeros(len(self), dtype=bool)
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
                "nu": int(self.nu[i]),
                "covers": [canonical_key(self.members[c]).hex()
                           for c in self.succ[i]],
            }))
        return "\n".join(lines) + "\n"


def _bitset(members: np.ndarray) -> int:
    """The bool array as one int: bit v set iff ``members[v]``."""
    return int.from_bytes(np.packbits(members, bitorder="little"), "little")


def _bits(bitset: int) -> list[int]:
    """The set bits of an int, ascending: the members of a ``_bitset``."""
    out = []
    while bitset:
        low = bitset & -bitset
        out.append(low.bit_length() - 1)
        bitset ^= low
    return out


def build_poset(margins: MarginPair) -> ClassPoset:
    """Full poset: comparability by entry-wise domination of partial-sum
    tables, covers by removing from each up-set what lies above another
    of its members.

    Each member's strict up-set is one int, bit c set iff the member lies
    strictly below member c.  For each partial-sum entry of
    ``engine.sigma_table`` and each value t, one bitset holds the members
    whose entry is at most t, and a member's up-set is the AND of those
    bitsets at its own entries: every ordered pair is tested, with no
    inversion-count shortcut, so the comparability relation stays an
    independent oracle for the monotonicity sweeps.  A member's covers
    are its strict up-set less the OR of the strict up-sets of its
    members, taken lowest first; a member already in the OR is skipped,
    since its up-set is inside the OR too, so the covers are exact in any
    member order, each member's targets ascending.  ``leq`` is written
    last, from the ints, a block of about sqrt(size) rows at a time, each
    block's ints dropped once written: beside ``leq`` the build holds the
    up-sets and the covers.

    Members and their tables come from the engine's keys
    (``engine.ranked_class``), so a class over 64 cells is refused at
    once.  The class is counted next and, before anything is enumerated,
    refused with ClassTooLarge when two size x size matrices would pass
    ``engine.MAX_ARRAY_BYTES``: ``leq``, and as much again for what this
    build and ``monotonicity_check`` hold beside it.
    """
    engine.check_cells(margins)
    size = count_class(margins)
    engine._check_budget(size * size, 2, f"the comparability matrix "
                         f"({size * size} bytes) and its working arrays")
    keys, nu, _ = engine.ranked_class(margins)
    sig = engine.sigma_table(keys, margins.m, margins.n)
    # at_most[e][t]: the members whose entry e is at most t
    at_most = [[_bitset(entry <= t) for t in range(int(entry.max()) + 1)]
               for entry in sig.T]
    ups = [reduce(and_, map(list.__getitem__, at_most, row.tolist()))
           ^ (1 << a) for a, row in enumerate(sig)]
    del sig, at_most
    indptr = np.zeros(size + 1, dtype=np.int32)
    covers = []
    for a, up in enumerate(ups):
        through, rest = 0, up
        while rest:
            low = rest & -rest
            through |= ups[low.bit_length() - 1]
            rest &= ~(through | low)
        covers += _bits(up & ~through)
        indptr[a + 1] = len(covers)
    targets = np.array(covers, dtype=np.int32)
    del covers
    leq = np.empty((size, size), dtype=bool)
    width, block = (size + 7) // 8, isqrt(size)
    for lo in reversed(range(0, size, block)):
        rows = b"".join(up.to_bytes(width, "little") for up in ups[lo:])
        del ups[lo:]
        leq[lo:lo + block] = np.unpackbits(
            np.frombuffer(rows, dtype=np.uint8).reshape(-1, width),
            axis=1, count=size, bitorder="little")
    np.fill_diagonal(leq, True)
    return ClassPoset(margins, keys, nu, indptr, targets, leq)


def build_interchange_dag(margins: MarginPair) -> ClassPoset:
    """Single-interchange digraph over the class, built by the packed
    engine (at most 64 cells).  Intended for all-two square classes, where
    cover arcs are a subset of these arcs and the Bruhat order is their
    transitive closure."""
    keys, nu, rank = engine.ranked_class(margins)
    indptr, targets = engine.interchange_arcs(keys, rank, margins.m, margins.n)
    return ClassPoset(margins, keys, nu, indptr, targets)


def _pull(poset: ClassPoset, values: np.ndarray, ufunc: np.ufunc,
          step: int) -> np.ndarray:
    """Pull values along every arc, in place: each member's value takes
    ufunc of it and of its targets' values plus step.

    Members are sorted by inversion count, which every arc raises, so the
    pull runs along the CSR rows of one inversion-count layer at a time,
    last layer first.  Every arc of a layer is checked to raise the count;
    one that does not raises ValueError naming it."""
    nu, indptr, targets = poset.nu, poset.indptr, poset.targets
    if (np.diff(nu) < 0).any():
        raise ValueError("members are not sorted by inversion count")
    edges = [0, *(np.flatnonzero(np.diff(nu)) + 1).tolist(), len(nu)]
    for lo, hi in reversed(list(zip(edges, edges[1:]))):
        first, last = indptr[lo], indptr[hi]
        ahead = targets[first:last]
        # members are sorted by nu, so an arc raises it iff its target
        # lies past this layer
        behind = ahead < hi
        if behind.any():
            arc = first + int(np.argmax(behind))
            v = int(np.searchsorted(indptr, arc, side="right")) - 1
            w = int(targets[arc])
            raise ValueError(f"arc {v} -> {w} does not raise the inversion "
                             f"count (nu {nu[v]} -> {nu[w]})")
        # reduceat gives an empty segment its next element, not nothing, so
        # it takes only the members with arcs.  Indexing casts the int32
        # targets a buffer at a time, where take would cast a whole
        # layer's at once, for a peak 34 MB higher on A(7,2)
        rows = lo + np.flatnonzero(np.diff(indptr[lo:hi + 1]))
        if len(rows):
            pulled = ufunc.reduceat(values[ahead], indptr[rows] - first)
            values[rows] = ufunc(values[rows], pulled + step)
    return values
