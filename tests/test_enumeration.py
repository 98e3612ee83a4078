"""Class enumeration and poset construction, cross-checked against an
independent brute-force filter over all bit patterns."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bruhatchains import (
    J2,
    BinaryMatrix,
    ClassPoset,
    ClassTooLarge,
    InfeasibleMargins,
    MarginPair,
    build_interchange_dag,
    build_poset,
    bruhat_leq,
    canonical_key,
    count_class,
    enumerate_class,
    inversion_count,
    monotonicity_check,
)
from bruhatchains import engine, errors
from bruhatchains.matrices import decode, pack
from reference import (
    backtrack_class,
    poset_by_pairs,
    strict,
    strict_pairs,
    swept_poset,
)

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

    def test_holds_no_list_of_the_class(self):
        # A(6,2)'s 67,950 keys take 0.54 MB as the engine's uint64 array,
        # and 2.72 MB as a list of Python ints
        members = enumerate_class(MarginPair.uniform(6, 2))
        tracemalloc.start()
        try:
            next(members)
            tracemalloc.reset_peak()
            count = 1 + sum(1 for _ in members)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 67950
        assert peak < 67950 * 8 + (1 << 18)

    def test_infeasible(self):
        with pytest.raises(InfeasibleMargins):
            list(enumerate_class(MarginPair((2, 0), (0, 2))))
        with pytest.raises(InfeasibleMargins):
            # a column would need 3 ones but only 2 rows exist
            list(enumerate_class(MarginPair((2, 2), (3, 1))))


def assert_same_as_pairwise_reference(poset):
    leq, indptr, targets = poset_by_pairs(poset.members)
    full = np.asarray(poset.leq)
    assert full.dtype == bool and full.tolist() == leq
    assert poset.indptr.dtype == np.int32 and poset.indptr.tolist() == indptr
    assert poset.targets.dtype == np.int32 \
        and poset.targets.tolist() == targets


class TestBuildPoset:
    def test_pairwise_reference_on_criterion_9_classes(self, small_posets):
        for poset in small_posets:
            assert_same_as_pairwise_reference(poset)

    @pytest.mark.parametrize("margins", [
        MarginPair((2, 2, 1, 1, 1), (2, 2, 2, 1)),  # 117 members
        MarginPair((2, 2, 2, 2), (2, 2, 2, 1, 1)),  # 204 members
        MarginPair((3, 3, 2, 2), (2, 2, 2, 2, 2)),  # 310 members
    ], ids=lambda pair: f"{pair.row_sums}/{pair.col_sums}")
    def test_pairwise_reference_on_larger_classes(self, margins):
        assert_same_as_pairwise_reference(build_poset(margins))

    # too large for the pairwise reference: A(4,2) pads the last byte of
    # each row's bitset (90 members), A(5,2) fills it (2,040), and the
    # 1,860-member class is not square
    @pytest.mark.parametrize("margins", [
        MarginPair.uniform(4, 2),
        MarginPair.uniform(5, 2),
        MarginPair((3, 3, 3, 3), (2, 2, 2, 2, 2, 2)),
        MarginPair((2, 2), (2, 2)),  # one member
    ], ids=lambda pair: f"{pair.row_sums}/{pair.col_sums}")
    def test_swept_reference(self, margins):
        poset = build_poset(margins)
        for got, want in zip((np.asarray(poset.leq), poset.indptr,
                              poset.targets), swept_poset(margins)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_singleton_no_arcs(self):
        poset = build_poset(MarginPair((2, 2), (2, 2)))
        assert len(poset) == 1
        assert list(strict_pairs(poset)) == []
        assert poset.cover_pairs() == []

    def test_221_arc_set(self, poset_221):
        idx = {canonical_key(a): i for i, a in enumerate(poset_221.members)}
        pos = [idx[canonical_key(a)] for a in A221_MEMBERS]
        arcs = set(strict_pairs(poset_221))
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
        assert (reach == strict(poset_42)).all()

    def test_no_transitive_shortcut_in_covers(self, poset_221):
        covers = set(poset_221.cover_pairs())
        for a, c in covers:
            for b in range(len(poset_221)):
                assert not ((a, b) in covers and (b, c) in covers)

    def test_cap(self, monkeypatch):
        # A(4,2) has 90 members: the check counts 90^2 / 2 bytes, four
        # times the 90^2 bits of its comparability rows
        monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 90 * 90 // 2 - 1)
        with pytest.raises(ClassTooLarge, match="comparability rows .* "
                                                "4050 bytes, over the "
                                                "4049-byte limit"):
            build_poset(MarginPair.uniform(4, 2))
        monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 90 * 90 // 2)
        assert len(build_poset(MarginPair.uniform(4, 2))) == 90

    def test_equality_is_identity(self):
        # a field-by-field == would ask numpy arrays for one truth value
        p = build_poset(MarginPair.uniform(4, 2))
        q = build_poset(MarginPair.uniform(4, 2))
        assert p == p
        assert p != q
        assert len({p, q}) == 2

    def test_refused_before_any_square_array(self, monkeypatch):
        # A(5,2) has 2040 members; a refusal must come before its
        # comparability rows exist, so nothing holds their 2040^2 bits
        monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 2040 * 2040 // 2 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ClassTooLarge, match="comparability rows"):
                build_poset(MarginPair.uniform(5, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2040 * 2040 // 8


class TestExtremes:
    def test_221_unique_min_max(self, poset_221):
        members = poset_221.members
        assert [members[i] for i in poset_221.minimal_indices()] \
            == [A221_MEMBERS[0]]
        assert [members[i] for i in poset_221.maximal_indices()] \
            == [A221_MEMBERS[4]]

    def test_42_minimal_contains_block_diagonal(self, poset_42):
        from bruhatchains import direct_sum

        mins = [poset_42.members[i] for i in poset_42.minimal_indices()]
        assert direct_sum([J2, J2]) in mins

    def test_62_minimal_inversion_values(self, dag_62):
        mins = [dag_62.members[i] for i in dag_62.minimal_indices()]
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

        def keys(poset, indices):
            return {canonical_key(poset.members[i]) for i in indices}

        assert keys(poset_42, poset_42.minimal_indices()) \
            == keys(dag, dag.minimal_indices())
        assert keys(poset_42, poset_42.maximal_indices()) \
            == keys(dag, dag.maximal_indices())


class TestFullPosetOnly:
    """An interchange DAG has no comparability relation: the queries and
    exports that need one refuse it."""

    @pytest.fixture(scope="class")
    def dag_42(self):
        return build_interchange_dag(MarginPair.uniform(4, 2))

    def test_dag_has_no_comparability(self, dag_42):
        assert dag_42.leq is None
        with pytest.raises(ValueError, match="full poset"):
            strict(dag_42)
        with pytest.raises(ValueError, match="full poset"):
            list(strict_pairs(dag_42))

    def test_dag_exports_refused(self, dag_42):
        with pytest.raises(ValueError, match="DOT export needs the full"):
            dag_42.to_dot()
        with pytest.raises(ValueError, match="JSONL export needs the full"):
            dag_42.to_jsonl()

    def test_strict_is_leq_without_diagonal(self, poset_42):
        below = strict(poset_42)
        assert not below.diagonal().any()
        assert (below | np.eye(len(poset_42), dtype=bool)
                == np.asarray(poset_42.leq)).all()
        assert np.asarray(poset_42.leq).diagonal().all()

    def test_strict_pairs_are_strict_in_row_major_order(self, poset_42):
        rows, cols = np.nonzero(strict(poset_42))
        assert list(strict_pairs(poset_42)) == list(zip(rows.tolist(),
                                                         cols.tolist()))


class TestBitView:
    """``leq`` holds one int per member; the view reads bits of them."""

    def test_every_entry_is_a_bit_of_the_unpacked_matrix(self, poset_42):
        full = np.asarray(poset_42.leq)
        size = len(poset_42)
        assert poset_42.leq.shape == full.shape == (size, size)
        assert full.dtype == bool
        for a in range(size):
            for c in range(size):
                assert poset_42.leq[a, c] is bool(full[a, c])
        assert full.tolist() == [[bool(row >> c & 1) for c in range(size)]
                                 for row in poset_42.leq.rows]

    def test_index_rules_follow_numpy(self, poset_42):
        full = np.asarray(poset_42.leq)
        for a, c in [(-1, -1), (0, -90), (np.int32(5), np.int64(89)),
                     (np.int64(-3), 40)]:
            assert poset_42.leq[a, c] == full[a, c]
        for a, c in [(90, 0), (0, 90), (-91, 0), (0, -91)]:
            with pytest.raises(IndexError):
                poset_42.leq[a, c]
        with pytest.raises(TypeError):
            poset_42.leq[0, 1.0]

    def test_assignment_is_refused(self, poset_42):
        before = poset_42.leq[0, 89]
        with pytest.raises(TypeError):
            poset_42.leq[0, 89] = not before
        assert poset_42.leq[0, 89] == before

    def test_asarray_is_a_fresh_bool_matrix(self, poset_42):
        full = np.asarray(poset_42.leq)
        full[:] = False
        assert np.asarray(poset_42.leq).any()
        assert np.asarray(poset_42.leq, dtype=np.uint8).dtype == np.uint8

    def test_bool_array_is_packed_into_rows(self, poset_42):
        full = np.asarray(poset_42.leq)
        poset = ClassPoset(poset_42.margins, poset_42.keys, poset_42.nu,
                           poset_42.indptr, poset_42.targets, full)
        assert poset.leq.rows == poset_42.leq.rows
        assert all(isinstance(row, int) for row in poset.leq.rows)


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


def a001499(n: int) -> int:
    """OEIS A001499, n x n (0,1)-matrices with every row and column sum 2,
    from its closed form."""
    f = math.factorial
    return int(sum(Fraction((-1) ** k * f(n) ** 2 * f(2 * n - 2 * k),
                            f(k) * f(n - k) ** 2 * 2 ** (2 * n - k))
                   for k in range(n + 1)))


class TestCountClass:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_a001499(self, n):
        want = a001499(n)
        if want == 0:
            with pytest.raises(InfeasibleMargins):
                count_class(MarginPair.uniform(n, 2))
        else:
            assert count_class(MarginPair.uniform(n, 2)) == want

    def test_reference_length_on_criterion_9_classes(self, small_posets):
        for poset in small_posets:
            assert count_class(poset.margins) \
                == len(backtrack_class(poset.margins)) == len(poset)

    def test_infeasible(self):
        for margins in (MarginPair((2, 0), (0, 2)), MarginPair((2, 2), (3, 1)),
                        MarginPair((3, 3, 0), (3, 2, 1))):
            with pytest.raises(InfeasibleMargins):
                count_class(margins)

    def test_margin_over_the_opposite_dimension(self, memory_cap):
        for margins in (MarginPair((10**9,), (10**9,)),
                        MarginPair((3, 0), (2, 1)),
                        MarginPair((10**9, 0), (10**9 - 1, 1))):
            with pytest.raises(InfeasibleMargins, match="opposite dimension"):
                count_class(margins)

    def test_counts_past_64_cells(self):
        assert count_class(MarginPair.uniform(9, 9)) == 1
        assert count_class(MarginPair.uniform(9, 1)) == math.factorial(9)

    def test_split_limit(self, monkeypatch):
        # A(8,2) walks 131 row splits in all
        monkeypatch.setattr(engine, "MAX_COUNT_SPLITS", 131)
        assert count_class(MarginPair.uniform(8, 2)) == 187_530_840
        monkeypatch.setattr(engine, "MAX_COUNT_SPLITS", 130)
        with pytest.raises(ClassTooLarge, match="130-split limit"):
            count_class(MarginPair.uniform(8, 2))


class TestMembersView:
    def test_members_cannot_be_written(self, poset_221):
        with pytest.raises(TypeError):
            poset_221.members[0] = poset_221.members[1]
        with pytest.raises(TypeError):
            del poset_221.members[0]
        with pytest.raises(ValueError):
            poset_221.keys[0] = 0
        assert not hasattr(poset_221.members, "append")

    def test_a_decoded_member_is_kept(self):
        dag = build_interchange_dag(MarginPair.uniform(4, 2))
        first = dag.members[5]
        assert dag.members[5] is first
        assert dag.members[-85] is first
        assert list(dag.members)[5] is first

    def test_members_slice(self):
        dag = build_interchange_dag(MarginPair.uniform(4, 2))
        # a slice of a fresh view decodes, as reading one member does
        assert dag.members[:3] == [decode(k, 4, 4) for k in
                                   dag.keys[:3].tolist()]
        every = list(dag.members)
        for cut in (slice(3), slice(-4, None), slice(1, 40, 3),
                    slice(None, None, -7), slice(200, None)):
            assert dag.members[cut] == every[cut]

    def test_members_equal_only_sequences(self, poset_221):
        members = poset_221.members
        assert members == list(members) and members == tuple(members)
        assert members != set(members) and members != len(members)

    def test_members_decode_the_keys(self, poset_42):
        assert [pack(a) for a in poset_42.members] \
            == poset_42.keys.tolist()


class TestOversizeClass:
    """A class over 64 cells is refused on every path that enumerates."""

    MARGINS = MarginPair.uniform(9, 9)  # one member, 81 cells

    def test_enumerate_class(self):
        with pytest.raises(ClassTooLarge, match="81 cells"):
            list(enumerate_class(self.MARGINS))

    def test_build_poset(self):
        with pytest.raises(ClassTooLarge, match="81 cells"):
            build_poset(self.MARGINS)


def test_peaks_stay_under_the_checked_bytes():
    # build_poset admits A(5,2) by counting 2040^2 / 2 bytes; neither it
    # nor monotonicity_check, with the rows still held, may go past
    checked = 2040 * 2040 // 2
    tracemalloc.start()
    try:
        poset = build_poset(MarginPair.uniform(5, 2))
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        report = monotonicity_check(poset)
        _, check_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.pairs_checked == 752_695
    assert build_peak < checked
    assert check_peak < checked


def test_build_holds_little_beside_leq():
    # the A(5,2) build keeps its up-set ints as the rows of leq, 2040^2
    # bits, and writes no matrix from them: it holds 0.165 x 2040^2
    # bytes once built and peaks at 0.243 x 2040^2 (0.69 and 1.01 MB)
    tracemalloc.start()
    try:
        poset = build_poset(MarginPair.uniform(5, 2))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = len(poset)
    assert held < size * size // 4
    assert peak < size * size * 3 // 8


def test_monotonicity_check_holds_little_beside_leq(poset_52):
    # the bitsets of the inversion counts and one strict row at a time,
    # 32 KB on A(5,2): no row of leq is copied or packed
    tracemalloc.start()
    try:
        report = monotonicity_check(poset_52)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = len(poset_52)
    assert report.violations == []
    assert peak < size * size // 32


def test_strict_pairs_stream_one_row_at_a_time(poset_52):
    # the pairs come from the rows of leq one at a time: no matrix, no
    # list of pairs (7.5 KB on A(5,2))
    pairs = 0
    tracemalloc.start()
    try:
        for _ in strict_pairs(poset_52):
            pairs += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = len(poset_52)
    assert pairs == int(np.asarray(poset_52.leq).sum()) - size
    assert peak < size * size // 128
