"""Order predicates: Bruhat domination, interchange reachability, and the
structural extremal tests."""

import dataclasses
import random

import pytest

from bruhatchains import (
    F3,
    I2,
    J2,
    L2,
    BinaryMatrix,
    MarginMismatch,
    MarginPair,
    NotInClass,
    OrderVerdict,
    bruhat_leq,
    bruhat_less,
    bruhat_verdict,
    build_extremes,
    direct_sum,
    enumerate_class,
    inversion_count,
    is_maximal_An2,
    is_minimal_An2,
    reverse_columns,
    secondary_bruhat_leq,
)
from reference import duality_check

INCOMP_A = BinaryMatrix.from_rows(["1001", "1100", "0110", "0011"])
INCOMP_C = BinaryMatrix.from_rows(["0110", "1100", "1001", "0011"])


class TestBruhatLeq:
    def test_two_by_two(self):
        assert bruhat_leq(I2, L2)
        assert not bruhat_leq(L2, I2)

    def test_reflexive(self):
        assert bruhat_leq(INCOMP_A, INCOMP_A)

    def test_incomparable_pair(self):
        verdict = bruhat_verdict(INCOMP_A, INCOMP_C)
        assert not verdict.leq and not verdict.geq

    def test_verdicts_are_shared_frozen_values(self, poset_42):
        # every (leq, geq) value of A(4,2): equal, below, above, neither
        members, leq = poset_42.members, poset_42.leq
        seen = {}
        for x in range(len(members)):
            for y in range(len(members)):
                want = OrderVerdict(bool(leq[x, y]), bool(leq[y, x]))
                verdict = bruhat_verdict(members[x], members[y])
                shared = seen.setdefault((want.leq, want.geq), verdict)
                assert verdict == want and verdict is shared
        assert len(seen) == 4
        for verdict in seen.values():
            with pytest.raises(dataclasses.FrozenInstanceError):
                verdict.leq = not verdict.leq
            copy = dataclasses.replace(verdict)
            assert copy == verdict and copy is not verdict
        flipped = dataclasses.replace(seen[True, False], leq=False)
        assert flipped == OrderVerdict(False, False)
        assert seen[True, False] == OrderVerdict(True, False)

    def test_margin_mismatch(self):
        with pytest.raises(MarginMismatch):
            bruhat_leq(I2, J2)
        with pytest.raises(MarginMismatch):
            bruhat_leq(J2, F3)

    def test_poset_axioms_on_221(self, poset_221):
        members = poset_221.members
        for a in members:
            for c in members:
                if bruhat_leq(a, c) and bruhat_leq(c, a):
                    assert a == c
                for d in members:
                    if bruhat_leq(a, c) and bruhat_leq(c, d):
                        assert bruhat_leq(a, d)


class TestSecondaryBruhat:
    def test_single_move(self):
        assert secondary_bruhat_leq(I2, L2)
        assert not secondary_bruhat_leq(L2, I2)

    def test_reflexive(self):
        assert secondary_bruhat_leq(J2, J2)

    def test_p4_to_q4(self):
        p4, q4 = build_extremes(4)
        assert secondary_bruhat_leq(p4, q4)

    def test_implies_bruhat_on_221(self, poset_221):
        for a in poset_221.members:
            for c in poset_221.members:
                if secondary_bruhat_leq(a, c):
                    assert bruhat_leq(a, c)

    def test_matches_bruhat_on_small_all_two(self, poset_42):
        rng = random.Random(1)
        idx = rng.sample(range(len(poset_42)), 25)
        for a in idx:
            for c in idx:
                assert secondary_bruhat_leq(
                    poset_42.members[a], poset_42.members[c]) \
                    == bool(poset_42.leq[a, c])

    def test_strict_implies_nu_increase(self, poset_42):
        rng = random.Random(4)
        members = poset_42.members
        for _ in range(200):
            a, c = rng.choice(members), rng.choice(members)
            if a != c and secondary_bruhat_leq(a, c):
                assert inversion_count(a) < inversion_count(c)


class TestExtremalStructure:
    def test_block_diagonal_minimal(self):
        assert is_minimal_An2(direct_sum([J2, J2, J2]))
        assert is_minimal_An2(direct_sum([F3, F3]))
        assert is_minimal_An2(direct_sum([F3, J2]))

    def test_q4_not_minimal(self):
        _, q4 = build_extremes(4)
        assert not is_minimal_An2(q4)

    def test_maximal_by_reversal(self):
        p6, q6 = build_extremes(6)
        assert is_maximal_An2(q6)
        assert not is_maximal_An2(p6)
        assert is_maximal_An2(reverse_columns(direct_sum([F3, F3])))

    def test_not_in_class(self):
        with pytest.raises(NotInClass):
            is_minimal_An2(I2)
        with pytest.raises(NotInClass):
            is_maximal_An2(I2)

    def test_matches_poset_extremes(self, poset_42):
        strict = poset_42.leq.copy()
        for i in range(len(poset_42)):
            strict[i, i] = False
        for i, a in enumerate(poset_42.members):
            assert is_minimal_An2(a) == (not strict[:, i].any())
            assert is_maximal_An2(a) == (not strict[i, :].any())

    def test_minimal_matches_no_downward_move(self, poset_52):
        # minimality in the class coincides with the block-structure test
        for i, a in enumerate(poset_52.members):
            structural = is_minimal_An2(a)
            no_smaller = i in poset_52.minimal_indices()
            assert structural == no_smaller


class TestDuality:
    def test_simple_pairs(self):
        assert duality_check(I2, L2)
        p4, q4 = build_extremes(4)
        assert duality_check(p4, q4)

    def test_exhaustive_on_221(self, poset_221):
        for a in poset_221.members:
            for c in poset_221.members:
                assert duality_check(a, c)

    def test_reversal_flips_direction(self, poset_42):
        rng = random.Random(6)
        for _ in range(300):
            a, c = rng.choice(poset_42.members), rng.choice(poset_42.members)
            assert bruhat_leq(a, c) == bruhat_leq(
                reverse_columns(c), reverse_columns(a))
