"""Brute-force and pruned search: longest chains in a class, tight-chain
existence, inversion-monotonicity sweeps, and the spectrum of maximal
chain lengths."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable

import numpy as np

from .chains import BruhatStep, Chain
from .enumeration import ClassPoset, _bits, _bitset, _pull
from .errors import StartAboveTarget
from .matrices import (
    BinaryMatrix,
    _tight_moves,
    cumulative_sums,
    inversion_count,
)
from .order import (
    DEFAULT_NODE_BUDGET,
    _class_table,
    _require_same_class,
    _search,
)


@dataclass
class SearchOutcome:
    """Result of a witness search."""

    found: bool
    witness: Chain | None
    explored: int
    budget_hit: bool


@dataclass
class MonotonicityReport:
    """Sweep over all strict comparability arcs of a class, flagging any
    arc whose inversion count fails to increase."""

    pairs_checked: int
    violations: list[tuple[BinaryMatrix, BinaryMatrix]]


def _longest_paths(poset: ClassPoset, sinks: Iterable[int]) -> np.ndarray:
    """Longest path length (edge count) from every member to any of the
    sinks, with -1 where no path leads to one: a max-plus ``_pull``, so an
    arc that does not raise nu raises ValueError."""
    # members that reach no sink stay negative however far they pull
    dist = np.full(len(poset), -len(poset) - 1, dtype=np.int32)
    dist[list(sinks)] = 0
    dist = _pull(poset, dist, np.maximum, 1)
    dist[dist < 0] = -1
    return dist


def longest_chain(poset: ClassPoset) -> tuple[int, Chain]:
    """Longest path over the poset's arc DAG, with the witness returned as
    a jump-step chain.  The witness starts at the first member of greatest
    length and steps along the first arc whose target is one shorter.
    Every longest path ends at a maximal member, so the lengths are pulled
    to those."""
    dist = _longest_paths(poset, poset.maximal_indices())
    indptr, targets = poset.indptr, poset.targets
    v = int(np.argmax(dist))
    length, path = int(dist[v]), [v]
    while dist[v] > 0:
        row = targets[indptr[v]:indptr[v + 1]]
        v = int(row[np.argmax(dist[row] == dist[v] - 1)])
        path.append(v)
    mats = [poset.members[v] for v in path]
    chain = Chain(mats[0], tuple(BruhatStep(a) for a in mats[1:]))
    return length, chain


def tight_chain_search(a: BinaryMatrix, c: BinaryMatrix,
                       budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """An interchange chain from a to c whose inversion count rises by one
    per step; a start above the target raises StartAboveTarget.  A class
    with a table (``order._class_table``) ignores budget and gives the
    witness ``order._search`` finds, ``explored`` its length (0 for none).
    Else ``order._search`` runs over the increment-one moves (every step
    of a tight chain has one), ``explored`` counts its expansions, and
    past budget it gives up, with budget_hit set."""
    ta, tc = tables = _require_same_class(a, c)
    if ta.nu > tc.nu:
        raise StartAboveTarget(
            f"start has more inversions than the target ({ta.nu} > {tc.nu})")
    table = _class_table(a, tables)
    path, explored = (table.tight_path(a, c) if table is not None
                      else _search(a, c, tables, _tight_moves, budget))
    if path is None:
        return SearchOutcome(False, None, explored, explored > budget)
    return SearchOutcome(True, Chain(a, tuple(path)), explored, False)


def monotonicity_check(poset: ClassPoset) -> MonotonicityReport:
    """Scan every strict comparability arc for an inversion-count
    non-increase.  A non-empty violation list is a re-verifiable
    counterexample certificate, not a failure.  Violations come in
    row-major (first, second) index order.  ``leq`` is packed a block of
    about sqrt(size) rows at a time, each row read as one int and ANDed
    with the bitset of the members whose inversion count is at most its
    member's, one bitset per distinct count (``nu`` need not be sorted),
    so beside ``leq`` only those bitsets and one block are held."""
    if poset.leq is None:
        raise ValueError("comparability needs the full poset")
    leq, nu = poset.leq, poset.nu
    checked = int(np.count_nonzero(leq) - np.count_nonzero(leq.diagonal()))
    nus, size = nu.tolist(), len(nu)
    at_most = {v: _bitset(nu <= v) for v in set(nus)}
    width, block = (size + 7) // 8, max(1, isqrt(size))
    violations = []
    for lo in range(0, size, block):
        rows = np.packbits(leq[lo:lo + block], axis=1,
                           bitorder="little").tobytes()
        for at, a in zip(range(0, len(rows), width), range(lo, size)):
            bad = (int.from_bytes(rows[at:at + width], "little")
                   & at_most[nus[a]] & ~(1 << a))
            violations += [(poset.members[a], poset.members[c])
                           for c in _bits(bad)]
    return MonotonicityReport(checked, violations)


def certificate(a: BinaryMatrix, c: BinaryMatrix) -> dict:
    """Self-contained JSON-ready certificate for a monotonicity violation."""
    return {
        "first": a.to_json_dict(),
        "second": c.to_json_dict(),
        "sigma_first": [list(row) for row in cumulative_sums(a)],
        "sigma_second": [list(row) for row in cumulative_sums(c)],
        "nu_first": inversion_count(a),
        "nu_second": inversion_count(c),
        "violated": "first strictly precedes second in the Bruhat order "
                    "but nu(first) >= nu(second)",
    }


def maximal_chain_spectrum(poset: ClassPoset) -> set[int]:
    """For every comparable (minimal, maximal) pair, the maximum chain
    length between them: one pass to each maximal member, read at the
    minimal ones."""
    minima = poset.minimal_indices()
    spectrum = set()
    for q in poset.maximal_indices():
        dist = _longest_paths(poset, [q])[minima]
        spectrum.update(dist[dist >= 0].tolist())
    return spectrum
