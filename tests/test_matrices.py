"""Core kernels, checked against brute-force recounts from the raw
definitions."""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatchains import (
    F3,
    F3R,
    I2,
    J2,
    L2,
    BinaryMatrix,
    ClassTooLarge,
    Interchange,
    MarginPair,
    PatternMismatch,
    apply_interchange,
    build_chain,
    build_extremes,
    canonical_key,
    cumulative_sums,
    direct_sum,
    errors,
    find_interchanges,
    interchange_increment,
    inversion_count,
    reverse_columns,
)
from bruhatchains import matrices
from bruhatchains.matrices import _moves
from reference import (
    all_pair_count,
    ltoi_moves,
    ones,
    random_interchange_walk,
    undo,
)

# the illustrated 4x5 matrix with nine inversions
ILLUSTRATED = BinaryMatrix.from_rows(["11101", "10000", "01001", "00110"])

# the incomparable pair in the order-4 all-two class
INCOMP_A = BinaryMatrix.from_rows(["1001", "1100", "0110", "0011"])
INCOMP_C = BinaryMatrix.from_rows(["0110", "1100", "1001", "0011"])


def brute_inversions(a: BinaryMatrix) -> int:
    cells = ones(a)
    return sum(
        1
        for x in range(len(cells))
        for y in range(x + 1, len(cells))
        if (cells[x][0] - cells[y][0]) * (cells[x][1] - cells[y][1]) < 0
    )


def brute_sigma(a: BinaryMatrix, k: int, l: int) -> int:
    return sum(a.get(i, j) for i in range(k + 1) for j in range(l + 1))


# the cells (i, j), (i, j2), (i2, j), (i2, j2) of I2 and of L2
ITOL, LTOI = (1, 0, 0, 1), (0, 1, 1, 0)


def brute_interchanges(a: BinaryMatrix, want: tuple[int, ...]):
    out = []
    for i in range(a.m):
        for i2 in range(i + 1, a.m):
            for j in range(a.n):
                for j2 in range(j + 1, a.n):
                    cells = (a.get(i, j), a.get(i, j2),
                             a.get(i2, j), a.get(i2, j2))
                    if cells == want:
                        out.append(Interchange(i, i2, j, j2))
    return out


def random_matrix(rng, m, n):
    return BinaryMatrix.from_rows(
        [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])


matrices_st = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.integers(0, (1 << n) - 1), min_size=m, max_size=m
        ).map(lambda bits: BinaryMatrix(m, n, tuple(bits)))
    )
)


class TestCumulativeSums:
    def test_all_ones_2x2(self):
        assert cumulative_sums(J2) == ((1, 2), (2, 4))

    def test_incomparable_pair_entries(self):
        sa = cumulative_sums(INCOMP_A)
        sc = cumulative_sums(INCOMP_C)
        assert sa[0][0] == 1 and sc[0][0] == 0
        assert sa[0][2] == 1 and sc[0][2] == 2

    def test_matches_brute_force(self):
        rng = random.Random(0)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            table = cumulative_sums(a)
            for k in range(a.m):
                for l in range(a.n):
                    assert table[k][l] == brute_sigma(a, k, l)

    @given(matrices_st)
    def test_monotone_and_total(self, a):
        v = cumulative_sums(a)
        for row in v:
            assert all(x <= y for x, y in zip(row, row[1:]))
        for r1, r2 in zip(v, v[1:]):
            assert all(x <= y for x, y in zip(r1, r2))
        assert v[-1][-1] == a.count_ones()


class TestInversionCount:
    def test_illustrated_matrix(self):
        assert inversion_count(ILLUSTRATED) == 9

    def test_named_blocks(self):
        assert inversion_count(J2) == 1
        assert inversion_count(F3) == 2
        assert inversion_count(F3R) == 7

    def test_identity_permutation(self):
        for n in (1, 3, 5):
            ident = BinaryMatrix(n, n, tuple(1 << j for j in range(n)))
            assert inversion_count(ident) == 0

    def test_incomparable_pair(self):
        assert inversion_count(INCOMP_A) == 5
        assert inversion_count(INCOMP_C) == 7

    @given(matrices_st)
    @settings(max_examples=60)
    def test_matches_brute_force(self, a):
        assert inversion_count(a) == brute_inversions(a)

    def test_matches_brute_force_past_six(self):
        # sigma is read at row stride n: one row or one column (no
        # inversions, but every stride), and 20x20 states with many
        rng = random.Random(7)
        wide = BinaryMatrix(1, 130, (rng.getrandbits(130),))
        tall = BinaryMatrix(130, 1, tuple(rng.getrandbits(1)
                                          for _ in range(130)))
        for a in [wide, tall, *build_chain(20).matrices()]:
            assert inversion_count(a) == brute_inversions(a)

    @given(matrices_st)
    @settings(max_examples=60)
    def test_reversal_complement(self, a):
        assert inversion_count(a) + inversion_count(reverse_columns(a)) \
            == all_pair_count(a)


class TestFindInterchanges:
    def test_i2_patterns(self):
        assert find_interchanges(I2) == [(0, 1, 0, 1)]
        assert find_interchanges(L2) == []
        assert ltoi_moves(L2) == [(0, 1, 0, 1)]

    def test_interchange_is_its_quad(self):
        t = Interchange(0, 1, 2, 3)
        assert Interchange._fields == ("i", "i2", "j", "j2")
        assert t == (0, 1, 2, 3) and hash(t) == hash((0, 1, 2, 3))
        assert tuple(t) == (t.i, t.i2, t.j, t.j2)

    def test_block_diagonal_matches_brute_scan(self):
        p4 = direct_sum([J2, J2])
        got = find_interchanges(p4)
        assert got == brute_interchanges(p4, ITOL)
        # every move pairs a one of the first block with one of the second
        assert all(t.i < 2 <= t.i2 and t.j < 2 <= t.j2 for t in got)

    @given(matrices_st)
    @settings(max_examples=40)
    def test_matches_brute_scan(self, a):
        assert find_interchanges(a) == brute_interchanges(a, ITOL)
        assert ltoi_moves(a) == brute_interchanges(a, LTOI)

    def test_sorted_lexicographically(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_matrix(rng, 5, 5)
            quads = find_interchanges(a)
            assert quads == sorted(quads)

    @pytest.mark.parametrize("a, most", [
        # 60 ones: at most C(60,2) = 1,770 moves, not C(30,2)^2
        (build_extremes(30)[0], 1770),
        # all ones, 4 x 4: at most C(4,2)^2 = 36 moves, not C(16,2)
        (BinaryMatrix(4, 4, (15,) * 4), 36),
    ])
    def test_refused_past_the_byte_limit(self, monkeypatch, a, most):
        # the largest list the matrix could give is charged before any
        # of it is built, for its ItoL moves and for those of its rows
        # reversed, its LtoI moves
        want = [find_interchanges(a), ltoi_moves(a)]
        limit = most * matrices._MOVE_BYTES
        monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", limit - 1)
        for moves in (find_interchanges, ltoi_moves):
            with pytest.raises(ClassTooLarge, match="interchange list"):
                moves(a)
        monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", limit)
        assert [find_interchanges(a), ltoi_moves(a)] == want

    def test_sparse_wide_states_fit(self):
        # a 100 x 100 state of 200 ones charges C(200,2) moves, 5 MB,
        # where C(100,2)^2 moves would pass the limit
        p100 = build_extremes(100)[0]
        assert len(find_interchanges(p100)) == len(list(_moves(p100.bits)))


class TestApplyInterchange:
    def test_roundtrip_patterns(self):
        t = Interchange(0, 1, 0, 1)
        assert apply_interchange(I2, t) == L2
        assert undo(L2, t) == I2

    def test_pattern_mismatch(self):
        with pytest.raises(PatternMismatch):
            apply_interchange(L2, Interchange(0, 1, 0, 1))

    @pytest.mark.parametrize("a, t", [
        (I2, Interchange(0, 1, 0, 2)),
        (L2, Interchange(0, 1, 0, 2)),
        (I2, Interchange(0, 2, 0, 1)),
    ])
    def test_indices_beyond_matrix(self, a, t):
        with pytest.raises(PatternMismatch):
            apply_interchange(a, t)

    @pytest.mark.parametrize("quad", [
        (-1, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, -1, 1)])
    def test_out_of_order_quads_never_match(self, quad):
        # nothing is checked when an Interchange is built: a negative
        # index must not read from the far end, nor a reversed span count.
        # Read that way, the first three would find I2 in L2, and the last
        # would shift by -1.
        t = Interchange(*quad)
        for a in (build_extremes(4)[0], L2):
            with pytest.raises(PatternMismatch, match=re.escape(
                    f"submatrix at {quad} is not I2")):
                apply_interchange(a, t)
            with pytest.raises(PatternMismatch, match=re.escape(
                    f"no ItoL pattern at {quad}")):
                interchange_increment(a, t)

    @given(matrices_st)
    @settings(max_examples=40)
    def test_preserves_margins(self, a):
        for t in find_interchanges(a):
            b = apply_interchange(a, t)
            assert b.margins() == a.margins()

    def test_sigma_drops_on_rectangle_only(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_matrix(rng, 5, 6)
            before = cumulative_sums(a)
            for t in find_interchanges(a):
                after = cumulative_sums(apply_interchange(a, t))
                for k in range(a.m):
                    for l in range(a.n):
                        want = -1 if t.i <= k < t.i2 and t.j <= l < t.j2 else 0
                        assert after[k][l] - before[k][l] == want


class TestInterchangeIncrement:
    def test_standalone_block(self):
        assert interchange_increment(I2, Interchange(0, 1, 0, 1)) == 1

    def test_block_diagonal_inner_move(self):
        p4 = direct_sum([J2, J2])
        assert interchange_increment(p4, Interchange(1, 2, 1, 2)) == 1

    def test_random_all_two_members(self):
        rng = random.Random(11)
        cur, _ = build_extremes(6)
        cur = random_interchange_walk(cur, 40, rng)
        for _ in range(30):
            for t in find_interchanges(cur):
                gain = inversion_count(apply_interchange(cur, t)) \
                    - inversion_count(cur)
                assert interchange_increment(cur, t) == gain >= 1
            cur = random_interchange_walk(cur, 1, rng)

    @given(matrices_st)
    @settings(max_examples=40)
    def test_matches_recount(self, a):
        for t in find_interchanges(a):
            gain = inversion_count(apply_interchange(a, t)) - inversion_count(a)
            assert interchange_increment(a, t) == gain
            assert gain >= 1


class TestDirectSumAndReversal:
    def test_known_assemblies(self):
        p4 = direct_sum([J2, J2])
        assert p4 == BinaryMatrix.from_rows(["1100", "1100", "0011", "0011"])
        p5 = direct_sum([J2, F3])
        assert p5 == BinaryMatrix.from_rows(
            ["11000", "11000", "00110", "00101", "00011"])
        one = BinaryMatrix.from_rows(["1"])
        assert direct_sum([one]) == one
        with pytest.raises(ValueError, match="at least one block"):
            direct_sum([])

    def test_nu_additive(self):
        rng = random.Random(2)
        for _ in range(20):
            blocks = [random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
                      for _ in range(rng.randint(1, 4))]
            assert inversion_count(direct_sum(blocks)) \
                == sum(inversion_count(b) for b in blocks)

    def test_reverse_known(self):
        assert reverse_columns(direct_sum([J2, J2])) == BinaryMatrix.from_rows(
            ["0011", "0011", "1100", "1100"])
        assert reverse_columns(F3) == F3R

    @given(matrices_st)
    def test_reverse_involution(self, a):
        assert reverse_columns(reverse_columns(a)) == a


def bitwise_canonical_key(a: BinaryMatrix) -> bytes:
    """The reference encoding, one cell at a time: a sentinel one, then the
    cells in row-major order, big-endian, after two-byte m and n."""
    acc = 1
    for i in range(a.m):
        for j in range(a.n):
            acc = (acc << 1) | ((a.bits[i] >> j) & 1)
    payload = acc.to_bytes((acc.bit_length() + 7) // 8, "big")
    return a.m.to_bytes(2, "big") + a.n.to_bytes(2, "big") + payload


@st.composite
def any_matrix(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(
        st.one_of(st.just(0), st.just((1 << n) - 1),
                  st.integers(0, (1 << n) - 1)),
        min_size=m, max_size=m))
    return BinaryMatrix(m, n, tuple(rows))


class TestCanonicalKey:
    @given(any_matrix())
    @settings(max_examples=300)
    def test_matches_bitwise_reference(self, a):
        assert canonical_key(a) == bitwise_canonical_key(a)

    @pytest.mark.parametrize("rows", [
        ["0"], ["1"], ["00000000"], ["10000001"], ["0", "0", "1"],
        ["1", "0", "0", "0", "0", "0", "0", "0", "1"],
        ["000", "000", "001"], ["1" * 70], ["0" * 70, "1" * 70],
    ])
    def test_edge_shapes_match_reference(self, rows):
        a = BinaryMatrix.from_rows(rows)
        assert canonical_key(a) == bitwise_canonical_key(a)

    def test_deterministic_and_injective(self):
        assert canonical_key(J2) == canonical_key(
            BinaryMatrix.from_rows(["11", "11"]))
        assert canonical_key(I2) != canonical_key(L2)

    def test_distinct_across_class(self):
        from bruhatchains import MarginPair, enumerate_class

        members = list(enumerate_class(MarginPair.uniform(4, 2)))
        assert len(members) == 90
        assert len({canonical_key(a) for a in members}) == 90

    def test_dimension_sensitivity(self):
        tall = BinaryMatrix.from_rows(["1", "1", "1", "1"])
        wide = BinaryMatrix.from_rows(["1111"])
        assert canonical_key(tall) != canonical_key(wide)


class TestWireFormats:
    def test_text_roundtrip(self):
        for a in (J2, F3, ILLUSTRATED):
            assert BinaryMatrix.from_text(a.to_text()) == a
        assert str(F3) == "110\n101\n011"

    def test_blank_line_terminates(self):
        parsed = BinaryMatrix.from_text("10\n01\n\n11\n11\n")
        assert parsed == I2

    def test_only_ascii_blanks_and_line_ends(self):
        assert BinaryMatrix.from_text(" 10\t\r\n\t01 \r\n\r\n11") == I2
        for text in ("10\u00a0\n01", "\u300010\n01", "10\r01",
                     "10\u202801", "10\x0c\n01"):
            with pytest.raises(ValueError):
                BinaryMatrix.from_text(text)

    def test_json_roundtrip(self):
        for a in (J2, F3R, INCOMP_A):
            assert BinaryMatrix.from_json(json.dumps(a.to_json_dict())) == a

    def test_json_dimension_check(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_json('{"m": 3, "n": 2, "rows": ["11", "11"]}')


@pytest.mark.parametrize("m, n, bits, message", [
    (0, 1, (), "at least 1x1"), (1, 0, (0,), "at least 1x1"),
    (2, 2, (1,), "one int per row"), (1, 2, (4,), "exceed the declared"),
    (1, 2, (-1,), "exceed the declared"),
])
def test_fields_outside_a_matrix_refused(m, n, bits, message):
    with pytest.raises(ValueError, match=message):
        BinaryMatrix(m, n, bits)


@pytest.mark.parametrize("rows, cols", [((-1, 1), (0, 0)),
                                        ((1, 1), (3, -1))])
def test_negative_margins_refused(rows, cols):
    # the totals agree, so only the sign refuses them
    with pytest.raises(ValueError, match="nonnegative"):
        MarginPair(rows, cols)


class TestStrictRowCodec:
    """A row is its '0'/'1' text, or a sequence of the integers 0 and 1;
    every other cell is refused, never truncated or coerced."""

    @pytest.mark.parametrize("rows", [
        [[0.5, 1]], [[1.9, 0]], [[True, False]], [[10, 0]], ["１0"],
        [[0.7, 1]], [["11", ""]], [[1, None]], ["1 "], ["2"], ["-1"],
        ["1_0"], [[]], [""], [], ["10", "1"], [[1, 0], [1]],
    ])
    def test_other_cells_refused(self, rows):
        with pytest.raises(ValueError):
            BinaryMatrix.from_rows(rows)

    @pytest.mark.parametrize("rows", [
        ["10", "01"], [[1, 0], [0, 1]], [["1", "0"], ["0", "1"]],
        ["10", [0, 1]], ("10", "01"),
    ])
    def test_strings_and_integer_sequences_agree(self, rows):
        assert BinaryMatrix.from_rows(rows) == I2

    def test_numpy_integer_rows(self):
        np = pytest.importorskip("numpy")
        rows = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=np.int8)
        assert BinaryMatrix.from_rows(rows) == F3

    @given(st.integers(1, 130).flatmap(lambda n: st.lists(
        st.text(alphabet="01", min_size=n, max_size=n),
        min_size=1, max_size=8)))
    def test_row_strings_roundtrip(self, rows):
        a = BinaryMatrix.from_rows(rows)
        assert (a.m, a.n) == (len(rows), len(rows[0]))
        for i, row in enumerate(rows):
            assert a.row_string(i) == row
            assert all(a.get(i, j) == int(c) for j, c in enumerate(row))
        flipped = reverse_columns(a)
        assert [flipped.row_string(i) for i in range(a.m)] \
            == [row[::-1] for row in rows]
        assert BinaryMatrix.from_text(a.to_text()) == a
        assert BinaryMatrix.from_json(json.dumps(a.to_json_dict())) == a
        assert a.to_text() == "\n".join(rows)


def test_column_past_the_rows_never_matches(memory_cap):
    # no shift by the column index: 1 << 10**10 alone is 1.25 GB
    far = Interchange(0, 1, 0, 10 ** 10)
    with pytest.raises(PatternMismatch):
        apply_interchange(I2, far)
    with pytest.raises(PatternMismatch):
        interchange_increment(I2, far)
