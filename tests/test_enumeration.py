"""Class enumeration and poset construction, cross-checked against an
independent brute-force filter over all bit patterns."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from bruhatchains import (
    J2,
    BinaryMatrix,
    ClassTooLarge,
    InfeasibleMargins,
    MarginPair,
    build_interchange_dag,
    build_poset,
    bruhat_leq,
    canonical_key,
    enumerate_class,
    extremes,
    inversion_count,
)
from bruhatchains import engine

A221_MEMBERS = [
    BinaryMatrix.from_rows(rows)
    for rows in (
        ("110", "110", "001"),
        ("110", "101", "010"),
        ("110", "011", "100"),
        ("101", "110", "010"),
        ("011", "110", "100"),
    )
]


def brute_class(margins: MarginPair) -> set[bytes]:
    m, n = margins.m, margins.n
    keys = set()
    for bits in product(range(1 << n), repeat=m):
        a = BinaryMatrix(m, n, bits)
        if a.row_sums() == margins.row_sums and a.col_sums() == margins.col_sums:
            keys.add(canonical_key(a))
    return keys


class TestEnumerateClass:
    def test_singleton(self):
        assert list(enumerate_class(MarginPair((2, 2), (2, 2)))) == [J2]

    def test_221_members(self):
        got = list(enumerate_class(MarginPair((2, 2, 1), (2, 2, 1))))
        assert len(got) == 5
        assert {canonical_key(a) for a in got} \
            == {canonical_key(a) for a in A221_MEMBERS}

    def test_42_against_brute_force(self):
        margins = MarginPair.uniform(4, 2)
        got = list(enumerate_class(margins))
        assert len(got) == 90
        assert {canonical_key(a) for a in got} == brute_class(margins)

    def test_sorted_and_unique(self):
        keys = [canonical_key(a)
                for a in enumerate_class(MarginPair.uniform(4, 2))]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_permutation_matrices(self, n):
        got = list(enumerate_class(MarginPair.uniform(n, 1)))
        assert len(got) == math.factorial(n)

    def test_members_have_margins(self):
        margins = MarginPair((2, 1, 2), (1, 2, 2))
        for a in enumerate_class(margins):
            assert a.margins() == margins

    def test_infeasible(self):
        with pytest.raises(InfeasibleMargins):
            list(enumerate_class(MarginPair((2, 0), (0, 2))))
        with pytest.raises(InfeasibleMargins):
            # a column would need 3 ones but only 2 rows exist
            list(enumerate_class(MarginPair((2, 2), (3, 1))))


class TestBuildPoset:
    def test_singleton_no_arcs(self):
        poset = build_poset(MarginPair((2, 2), (2, 2)))
        assert len(poset) == 1
        assert list(poset.strict_pairs()) == []
        assert poset.cover_pairs() == []

    def test_221_arc_set(self, poset_221):
        idx = {canonical_key(a): i for i, a in enumerate(poset_221.members)}
        pos = [idx[canonical_key(a)] for a in A221_MEMBERS]
        arcs = set(poset_221.strict_pairs())
        want = {(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
                (3, 5), (4, 5)}
        assert arcs == {(pos[a - 1], pos[c - 1]) for a, c in want}

    def test_comparability_matches_pairwise_predicate(self, poset_221):
        for i, a in enumerate(poset_221.members):
            for j, c in enumerate(poset_221.members):
                assert bool(poset_221.leq[i, j]) == bruhat_leq(a, c)

    def test_covers_close_to_comparability(self, poset_42):
        # transitive closure of cover arcs reproduces strict comparability
        size = len(poset_42)
        reach = np.zeros((size, size), dtype=bool)
        for a, c in poset_42.cover_pairs():
            reach[a, c] = True
        for _ in range(size):
            new = reach | (reach @ reach)
            if (new == reach).all():
                break
            reach = new
        strict = poset_42.leq.copy()
        np.fill_diagonal(strict, False)
        assert (reach == strict).all()

    def test_no_transitive_shortcut_in_covers(self, poset_221):
        covers = set(poset_221.cover_pairs())
        for a, c in covers:
            for b in range(len(poset_221)):
                assert not ((a, b) in covers and (b, c) in covers)

    def test_cap(self, monkeypatch):
        # A(4,2) has 90 members: its comparability matrix is 90^2 bytes
        monkeypatch.setattr(engine, "MAX_ARRAY_BYTES", 90 * 90 - 1)
        with pytest.raises(ClassTooLarge, match="8100 bytes, over the "
                                                "8099-byte limit"):
            build_poset(MarginPair.uniform(4, 2))
        monkeypatch.setattr(engine, "MAX_ARRAY_BYTES", 90 * 90)
        assert len(build_poset(MarginPair.uniform(4, 2))) == 90

    def test_refused_before_any_square_array(self, monkeypatch):
        # A(5,2) has 2040 members; a refusal must come before any
        # 2040 x 2040 array exists, so numpy never holds that many bytes
        monkeypatch.setattr(engine, "MAX_ARRAY_BYTES", 2040 * 2040 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ClassTooLarge, match="comparability matrix"):
                build_poset(MarginPair.uniform(5, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2040 * 2040


class TestExtremes:
    def test_221_unique_min_max(self, poset_221):
        mins, maxs = extremes(poset_221)
        assert mins == [A221_MEMBERS[0]]
        assert maxs == [A221_MEMBERS[4]]

    def test_42_minimal_contains_block_diagonal(self, poset_42):
        from bruhatchains import direct_sum

        mins, maxs = extremes(poset_42)
        assert direct_sum([J2, J2]) in mins

    def test_62_minimal_inversion_values(self, dag_62):
        mins, _ = extremes(dag_62)
        assert sorted(inversion_count(a) for a in mins) == [3, 4]


class TestInterchangeDag:
    def test_arcs_are_single_interchanges(self, poset_42):
        dag = build_interchange_dag(MarginPair.uniform(4, 2))
        assert len(dag) == 90
        # every interchange arc is a strict comparability arc of the poset
        idx = {canonical_key(a): i for i, a in enumerate(poset_42.members)}
        for a, targets in enumerate(dag.succ):
            src = idx[canonical_key(dag.members[a])]
            for c in targets:
                dst = idx[canonical_key(dag.members[c])]
                assert poset_42.leq[src, dst] and src != dst

    def test_extremes_agree_with_full_mode(self, poset_42):
        dag = build_interchange_dag(MarginPair.uniform(4, 2))
        mins_f, maxs_f = extremes(poset_42)
        mins_d, maxs_d = extremes(dag)
        assert {canonical_key(a) for a in mins_f} \
            == {canonical_key(a) for a in mins_d}
        assert {canonical_key(a) for a in maxs_f} \
            == {canonical_key(a) for a in maxs_d}


class TestFullPosetOnly:
    """An interchange DAG has no comparability matrix: the queries and
    exports that need one refuse it."""

    @pytest.fixture(scope="class")
    def dag_42(self):
        return build_interchange_dag(MarginPair.uniform(4, 2))

    def test_dag_has_no_comparability(self, dag_42):
        assert dag_42.leq is None
        with pytest.raises(ValueError, match="full poset"):
            dag_42.strict()
        with pytest.raises(ValueError, match="full poset"):
            list(dag_42.strict_pairs())

    def test_dag_exports_refused(self, dag_42):
        with pytest.raises(ValueError, match="DOT export needs the full"):
            dag_42.to_dot()
        with pytest.raises(ValueError, match="JSONL export needs the full"):
            dag_42.to_jsonl()

    def test_strict_is_leq_without_diagonal(self, poset_42):
        strict = poset_42.strict()
        assert not strict.diagonal().any()
        assert (strict | np.eye(len(poset_42), dtype=bool)
                == poset_42.leq).all()
        assert poset_42.leq.diagonal().all()


class TestExports:
    def test_dot(self, poset_221):
        dot = poset_221.to_dot()
        assert dot.startswith("digraph")
        assert dot.count("->") == len(poset_221.cover_pairs())
        assert "nu=" in dot

    def test_jsonl(self, poset_221):
        import json

        lines = poset_221.to_jsonl().strip().splitlines()
        assert len(lines) == 5
        rows = [json.loads(ln) for ln in lines]
        assert {r["key"] for r in rows} \
            == {canonical_key(a).hex() for a in poset_221.members}
        total_covers = sum(len(r["covers"]) for r in rows)
        assert total_covers == len(poset_221.cover_pairs())
