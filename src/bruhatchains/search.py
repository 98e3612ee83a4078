"""Brute-force and pruned search: longest chains in a class, tight-chain
existence, inversion-monotonicity sweeps, and the spectrum of maximal
chain lengths."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .chains import BruhatStep, Chain
from .enumeration import ClassPoset
from .errors import MarginMismatch
from .matrices import (
    BinaryMatrix,
    Direction,
    Interchange,
    apply_interchange,
    cumulative_sums,
    find_interchanges,
    interchange_increment,
    inversion_count,
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


def _longest_paths(poset: ClassPoset, sources: Iterable[int] | None = None
                   ) -> np.ndarray:
    """Longest path length (edge count) to every member, from any member or
    only from the given sources, with -1 where no path arrives.

    Members are sorted by inversion count, which every order arc raises, so
    the DP pushes along the arcs of one inversion-count layer at a time.
    Every arc of a layer is checked to raise the count; one that does not
    raises ValueError naming it."""
    nu = np.asarray(poset.nu)
    indptr, targets = poset.indptr, poset.targets
    if (np.diff(nu) < 0).any():
        raise ValueError("members are not sorted by inversion count")
    if sources is None:
        dist = np.zeros(len(nu), dtype=np.int32)
    else:
        # unreached members stay negative however far they are pushed
        dist = np.full(len(nu), -len(nu) - 1, dtype=np.int32)
        dist[list(sources)] = 0
    bounds = np.flatnonzero(np.diff(nu)) + 1
    for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), len(nu)]):
        first, last = indptr[lo], indptr[hi]
        ahead = targets[first:last]
        behind = nu[ahead] <= nu[lo]
        if behind.any():
            arc = first + int(np.argmax(behind))
            v = int(np.searchsorted(indptr, arc, side="right")) - 1
            w = int(targets[arc])
            raise ValueError(f"arc {v} -> {w} does not raise the inversion "
                             f"count (nu {nu[v]} -> {nu[w]})")
        pushed = np.repeat(dist[lo:hi] + 1, np.diff(indptr[lo:hi + 1]))
        np.maximum.at(dist, ahead, pushed)
    dist[dist < 0] = -1
    return dist


def longest_chain(poset: ClassPoset) -> tuple[int, Chain]:
    """Longest path over the poset's arc DAG, with the witness returned as
    a jump-step chain.  The witness ends at the first member of greatest
    length and steps back to the smallest-index predecessor one shorter."""
    dist = _longest_paths(poset)
    v = int(np.argmax(dist))
    length, path = int(dist[v]), [v]
    while dist[v] > 0:
        arcs = np.flatnonzero(poset.targets == v)
        preds = np.searchsorted(poset.indptr, arcs, side="right") - 1
        v = int(preds[dist[preds] == dist[v] - 1].min())
        path.append(v)
    mats = [poset.members[v] for v in reversed(path)]
    chain = Chain(mats[0], tuple(BruhatStep(a) for a in mats[1:]))
    return length, chain


def longest_chain_between(poset: ClassPoset, start_idx: int,
                          end_idx: int) -> int | None:
    """Maximum chain length from one member to another, or None when no
    path exists."""
    dist = _longest_paths(poset, [start_idx])
    return int(dist[end_idx]) if dist[end_idx] >= 0 else None


def tight_chain_search(a: BinaryMatrix, c: BinaryMatrix,
                       budget: int = 10**6) -> SearchOutcome:
    """Depth-first search for an interchange chain from a to c whose
    inversion count rises by exactly one per step.

    Restricting moves to increment-one interchanges loses no witnesses:
    every step of a tight chain has increment exactly one.  States that
    stop dominating the target's partial-sum table are dead.  Dead states
    are memoized."""
    if a.m != c.m or a.n != c.n or a.margins() != c.margins():
        raise MarginMismatch("endpoints are not in the same class")
    if inversion_count(a) > inversion_count(c):
        raise ValueError("start has more inversions than the target")
    sc = cumulative_sums(c).flat()

    def dominates(x: BinaryMatrix) -> bool:
        return all(u >= v for u, v in zip(cumulative_sums(x).flat(), sc))

    if not dominates(a):
        return SearchOutcome(False, None, 0, False)

    dead: set[BinaryMatrix] = set()
    explored = 0
    budget_hit = False
    path: list[Interchange] = []

    def dfs(x: BinaryMatrix) -> bool:
        nonlocal explored, budget_hit
        if x == c:
            return True
        explored += 1
        if explored > budget:
            budget_hit = True
            return False
        for move in find_interchanges(x, Direction.ItoL):
            if interchange_increment(x, move) != 1:
                continue
            y = apply_interchange(x, move)
            if y in dead or not dominates(y):
                continue
            path.append(move)
            if dfs(y):
                return True
            path.pop()
            if budget_hit:
                return False
            dead.add(y)
        return False

    found = dfs(a)
    witness = Chain(a, tuple(path)) if found else None
    return SearchOutcome(found, witness, explored, budget_hit)


def monotonicity_check(poset: ClassPoset) -> MonotonicityReport:
    """Scan every strict comparability arc for an inversion-count
    non-increase.  A non-empty violation list is a re-verifiable
    counterexample certificate, not a failure."""
    checked = 0
    violations = []
    for a, c in poset.strict_pairs():
        checked += 1
        if poset.nu[a] >= poset.nu[c]:
            violations.append((poset.members[a], poset.members[c]))
    return MonotonicityReport(checked, violations)


def certificate(a: BinaryMatrix, c: BinaryMatrix) -> dict:
    """Self-contained JSON-ready certificate for a monotonicity violation."""
    return {
        "first": a.to_json_dict(),
        "second": c.to_json_dict(),
        "sigma_first": [list(r) for r in cumulative_sums(a).values],
        "sigma_second": [list(r) for r in cumulative_sums(c).values],
        "nu_first": inversion_count(a),
        "nu_second": inversion_count(c),
        "violated": "first strictly precedes second in the Bruhat order "
                    "but nu(first) >= nu(second)",
    }


def maximal_chain_spectrum(poset: ClassPoset) -> set[int]:
    """For every comparable (minimal, maximal) pair, the maximum chain
    length between them."""
    maxima = poset.maximal_indices()
    spectrum = set()
    for p in poset.minimal_indices():
        dist = _longest_paths(poset, [p])[maxima]
        spectrum.update(dist[dist >= 0].tolist())
    return spectrum
