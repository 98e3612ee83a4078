"""Search oracles: longest chains, tight-chain search, monotonicity
sweeps, and the spectrum of maximal chain lengths."""

import numpy as np
import pytest

from bruhatchains import (
    BinaryMatrix,
    ClassPoset,
    MarginMismatch,
    MarginPair,
    MonotonicityReport,
    build_extremes,
    build_interchange_dag,
    build_poset,
    certificate,
    delta,
    inversion_count,
    longest_chain,
    maximal_chain_spectrum,
    monotonicity_check,
    tight_chain_search,
    verify_chain,
)
from bruhatchains.matrices import pack
from bruhatchains.search import _longest_paths
from reference import longest_chain_between, strict_pairs

A221_A1 = BinaryMatrix.from_rows(["110", "110", "001"])
A221_A4 = BinaryMatrix.from_rows(["101", "110", "010"])
A221_A5 = BinaryMatrix.from_rows(["011", "110", "100"])


class TestLongestChain:
    def test_singleton(self):
        poset = build_poset(MarginPair((2, 2), (2, 2)))
        length, witness = longest_chain(poset)
        assert length == 0 and witness.length == 0

    def test_42(self, poset_42):
        length, witness = longest_chain(poset_42)
        assert length == 16 == delta(4)
        rep = verify_chain(witness)
        assert rep.valid and rep.length == 16

    def test_52(self, poset_52):
        length, witness = longest_chain(poset_52)
        assert length == 29 == delta(5)
        assert verify_chain(witness).valid

    def test_between_221(self, poset_221):
        a1 = poset_221.members.index(A221_A1)
        a5 = poset_221.members.index(A221_A5)
        assert longest_chain_between(poset_221, a1, a5) == 3
        # the gap in inversion counts is larger than the chain
        assert inversion_count(A221_A5) - inversion_count(A221_A1) == 5

    def test_between_matches_brute_force(self, poset_221, poset_42):
        for poset in (poset_221, poset_42):
            size = len(poset)
            for end in range(size):
                memo = {}

                def longest_to_end(v):
                    # edge count of the longest path v -> end, or None
                    if v == end:
                        return 0
                    if v not in memo:
                        tails = [longest_to_end(w) for w in poset.succ[v]]
                        tails = [t for t in tails if t is not None]
                        memo[v] = 1 + max(tails) if tails else None
                    return memo[v]

                for start in range(size):
                    assert longest_chain_between(poset, start, end) \
                        == longest_to_end(start)

    def test_backward_arc_raises(self):
        lo, hi = A221_A1, A221_A5
        # CSR arcs: member 0 has none, member 1 has one, back to 0
        poset = ClassPoset(lo.margins(), [pack(lo), pack(hi)],
                           [inversion_count(lo), inversion_count(hi)],
                           [0, 0, 1], [0])
        with pytest.raises(ValueError, match="arc 1 -> 0"):
            longest_chain(poset)
        with pytest.raises(ValueError, match="arc 1 -> 0"):
            maximal_chain_spectrum(poset)

    def test_pulls_to_sinks_on_a_hand_built_poset(self):
        # 0 -> 2, 3 -> 5 is a diamond, with the shortcut 0 -> 5 listed
        # first in 0's row; 4 has no arcs, and 1 reaches only 6
        keys = build_interchange_dag(MarginPair.uniform(4, 1)).keys[:7]
        poset = ClassPoset(MarginPair.uniform(4, 1), keys,
                           [0, 0, 1, 1, 1, 2, 2], [0, 3, 4, 5, 6, 6, 6, 6],
                           [5, 2, 3, 6, 5, 5])
        for sinks, want in (
                ([4, 5, 6], [2, 1, 1, 1, 0, 0, 0]),
                ([5], [2, -1, 1, 1, -1, 0, -1]),
                ([5, 6], [2, 1, 1, 1, -1, 0, 0]),
                ([2], [1, -1, 0, -1, -1, -1, -1]),
                ([4], [-1, -1, -1, -1, 0, -1, -1])):
            assert _longest_paths(poset, sinks).tolist() == want
        length, witness = longest_chain(poset)
        # the shortcut's target is not one shorter, so the walk skips it
        assert length == 2
        assert witness.matrices() == [poset.members[v] for v in (0, 2, 5)]
        assert maximal_chain_spectrum(poset) == {0, 1, 2}

    def test_witness_runs_from_a_minimal_to_a_maximal_member(
            self, poset_221, poset_42, poset_52, dag_62):
        posets = [poset_221, poset_42, poset_52, dag_62,
                  build_poset(MarginPair((2, 2, 2), (2, 1, 2, 1))),
                  *(build_interchange_dag(MarginPair.uniform(n, 2))
                    for n in range(2, 6))]
        for poset in posets:
            length, witness = longest_chain(poset)
            rep = verify_chain(witness)
            assert rep.valid
            assert rep.length == length == _longest_paths(
                poset, poset.maximal_indices()).max()
            mats = witness.matrices()
            members = poset.members
            assert mats[0] in [members[v] for v in poset.minimal_indices()]
            assert mats[-1] in [members[v] for v in poset.maximal_indices()]

    def test_witness_respects_nu_gap(self, poset_42):
        length, witness = longest_chain(poset_42)
        mats = witness.matrices()
        assert length <= inversion_count(mats[-1]) - inversion_count(mats[0])

    def test_at_least_construction(self, poset_42, poset_52):
        from bruhatchains import build_chain

        assert longest_chain(poset_42)[0] >= build_chain(4).length
        assert longest_chain(poset_52)[0] >= build_chain(5).length


class TestTightChainSearch:
    def test_p4_q4(self):
        p4, q4 = build_extremes(4)
        out = tight_chain_search(p4, q4)
        assert out.found and not out.budget_hit
        rep = verify_chain(out.witness, p4, q4)
        assert rep.length == 16 and rep.tight and rep.endpoints_ok

    def test_trivial_pair(self):
        p4, _ = build_extremes(4)
        out = tight_chain_search(p4, p4)
        assert out.found and out.witness.length == 0

    def test_cover_with_wide_gap_has_no_tight_chain(self):
        out = tight_chain_search(A221_A4, A221_A5)
        assert not out.found and not out.budget_hit
        assert inversion_count(A221_A5) - inversion_count(A221_A4) == 3

    def test_margin_mismatch(self):
        with pytest.raises(MarginMismatch):
            tight_chain_search(A221_A1, build_extremes(4)[0])

    def test_budget(self):
        p6, q6 = build_extremes(6)
        out = tight_chain_search(p6, q6, budget=3)
        assert out.budget_hit and not out.found

    def test_chain_longer_than_the_recursion_limit(self):
        # delta(30) = 1680 steps, past the default recursion limit of 1000
        p30, q30 = build_extremes(30)
        out = tight_chain_search(p30, q30, budget=5000)
        assert out.found and not out.budget_hit
        assert out.explored <= 5000
        rep = verify_chain(out.witness, p30, q30)
        assert rep.valid and rep.tight and rep.endpoints_ok
        assert rep.length == delta(30) == 1680

    def test_witness_is_tight_everywhere(self, poset_42):
        import random

        rng = random.Random(8)
        for _ in range(30):
            a = rng.choice(poset_42.members)
            c = rng.choice(poset_42.members)
            if inversion_count(a) > inversion_count(c):
                a, c = c, a
            out = tight_chain_search(a, c)
            if out.found:
                rep = verify_chain(out.witness, a, c)
                assert rep.tight and rep.endpoints_ok
                assert rep.length \
                    == inversion_count(c) - inversion_count(a)


def reference_monotonicity(poset):
    """The per-pair loop the vectorised check replaced: every strict pair in
    row-major order, a violation where the inversion count does not rise."""
    checked = 0
    violations = []
    for a, c in strict_pairs(poset):
        checked += 1
        if poset.nu[a] >= poset.nu[c]:
            violations.append((poset.members[a], poset.members[c]))
    return MonotonicityReport(checked, violations)


class TestMonotonicity:
    def test_matches_reference_on_criterion_9_classes(
            self, poset_221, poset_42, poset_52, small_posets):
        for poset in (poset_221, poset_42, poset_52, *small_posets):
            assert monotonicity_check(poset) == reference_monotonicity(poset)

    def test_matches_reference_on_planted_violations(self, poset_42):
        # claim a few pairs comparable whose inversion count falls or stays
        nu = np.asarray(poset_42.nu)
        leq = poset_42.leq.copy()
        planted = [(89, 0), (40, 3), (5, 2)]
        assert nu[89] > nu[0] and nu[40] > nu[3] and nu[5] == nu[2]
        assert not any(leq[a, c] for a, c in planted)
        for a, c in planted:
            leq[a, c] = True
        poset = ClassPoset(poset_42.margins, poset_42.keys, poset_42.nu,
                           poset_42.indptr, poset_42.targets, leq)
        report = monotonicity_check(poset)
        assert report == reference_monotonicity(poset)
        assert report.pairs_checked \
            == monotonicity_check(poset_42).pairs_checked + 3
        members = poset_42.members
        assert report.violations == [(members[a], members[c])
                                     for a, c in sorted(planted)]

    def test_matches_reference_at_the_first_and_last_bits(self, poset_42):
        # swapping the ends' inversion counts puts violations in row 0,
        # the lowest bits, and in column 89, the highest bit of a row;
        # the diagonal bits (0, 0) and (89, 89) are no pair
        nu = np.array(poset_42.nu)
        nu[[0, -1]] = nu[[-1, 0]]
        poset = ClassPoset(poset_42.margins, poset_42.keys, nu,
                           poset_42.indptr, poset_42.targets, poset_42.leq)
        report = monotonicity_check(poset)
        assert report == reference_monotonicity(poset)
        index = {id(a): v for v, a in enumerate(poset.members)}
        pairs = [(index[id(a)], index[id(c)]) for a, c in report.violations]
        assert pairs == sorted(pairs)
        assert {(0, 1), (0, 89), (88, 89)} <= set(pairs)
        assert not {(0, 0), (89, 89)} & set(pairs)

    def test_no_members_no_pairs(self):
        empty = np.zeros((0, 0), dtype=bool)
        poset = ClassPoset(MarginPair((), ()), [], [], [0], [], empty)
        assert monotonicity_check(poset) == MonotonicityReport(0, [])

    def test_refuses_an_interchange_dag(self):
        dag = build_interchange_dag(MarginPair.uniform(4, 2))
        with pytest.raises(ValueError, match="full poset"):
            monotonicity_check(dag)

    def test_zero_violations_on_small_classes(self, poset_221, poset_42):
        for poset in (poset_221, poset_42):
            report = monotonicity_check(poset)
            assert report.pairs_checked > 0
            assert report.violations == []

    def test_certificate_shape(self):
        cert = certificate(A221_A1, A221_A5)
        assert cert["nu_first"] == 1 and cert["nu_second"] == 6
        assert cert["first"]["rows"] == ["110", "110", "001"]
        assert len(cert["sigma_first"]) == 3


class TestSpectrum:
    def test_42(self, poset_42):
        assert maximal_chain_spectrum(poset_42) == {16}

    def test_52(self, poset_52):
        assert maximal_chain_spectrum(poset_52) == {29}

    def test_221(self, poset_221):
        assert maximal_chain_spectrum(poset_221) == {3}
