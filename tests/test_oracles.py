"""The order oracles on incremental state, cross-checked against the object
path: the two depth-first searches, over every ItoL move and over the
increment-one moves, as they were written over BinaryMatrix values,
recomputing the partial-sum table (the independent recount of
tests/reference.py) of every state and the increment of every move.  The
packed order table each matrix keeps is cross-checked against the same
recount and a brute inversion count."""

import dataclasses
import pickle
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatchains import (
    BinaryMatrix,
    Chain,
    ClassTooLarge,
    MarginMismatch,
    OrderVerdict,
    SearchBudgetExceeded,
    apply_interchange,
    build_chain,
    bruhat_leq,
    bruhat_verdict,
    build_extremes,
    cumulative_sums,
    errors,
    extremal_inversions,
    find_interchanges,
    interchange_increment,
    inversion_count,
    secondary_bruhat_leq,
    tight_chain_search,
    verify_chain,
)
from bruhatchains.matrices import (
    _columns,
    _entries,
    _flip,
    _guards,
    _moves,
    _order_table,
    _OrderTable,
    _take,
    _tight_moves,
)
from bruhatchains.order import (
    DEFAULT_NODE_BUDGET,
    _require_same_class,
    _search,
)
from reference import ones, sigma


def reference_secondary(a, c):
    """Depth-first ItoL search from a to c, with memoized dead states and
    moves tried in (i, i2, j, j2) order: the verdict and the number of
    states expanded, which is the smallest node budget that succeeds."""
    if a.m != c.m or a.n != c.n or a.margins() != c.margins():
        raise MarginMismatch("matrices are not in the same class")
    sc = sigma(c.bits, c.n)

    def dominates(x):
        return all(u >= v for u, v in zip(sigma(x.bits, x.n), sc))

    if not dominates(a):
        return False, 0
    dead = set()
    expanded = 0

    def dfs(x):
        nonlocal expanded
        if x == c:
            return True
        expanded += 1
        for move in find_interchanges(x):
            y = apply_interchange(x, move)
            if y in dead or not dominates(y):
                continue
            if dfs(y):
                return True
            dead.add(y)
        return False

    return dfs(a), expanded


def reference_tight(a, c, budget=10**6):
    """Depth-first search for an increment-one interchange chain from a to
    c, with memoized dead states: (found, witness, explored, budget_hit)."""
    if a.m != c.m or a.n != c.n or a.margins() != c.margins():
        raise MarginMismatch("endpoints are not in the same class")
    if inversion_count(a) > inversion_count(c):
        raise ValueError("start has more inversions than the target")
    sc = sigma(c.bits, c.n)

    def dominates(x):
        return all(u >= v for u, v in zip(sigma(x.bits, x.n), sc))

    if not dominates(a):
        return False, None, 0, False
    dead = set()
    explored = 0
    budget_hit = False
    path = []

    def dfs(x):
        nonlocal explored, budget_hit
        if x == c:
            return True
        explored += 1
        if explored > budget:
            budget_hit = True
            return False
        for move in find_interchanges(x):
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
    return found, witness, explored, budget_hit


def searched(a, c, generate, budget=DEFAULT_NODE_BUDGET):
    """``order._search`` on (a, c) over the moves of generate, the route of
    a class with no table: (found, witness, explored, budget_hit)."""
    path, explored = _search(a, c, _require_same_class(a, c), generate,
                             budget)
    witness = None if path is None else Chain(a, tuple(path))
    return path is not None, witness, explored, explored > budget


def assert_same_searches(a, c):
    """Both routes against the references: the search expands the same
    states, and the table gives the same verdicts and witnesses."""
    verdict, expanded = reference_secondary(a, c)
    assert secondary_bruhat_leq(a, c) == verdict
    found, _, explored, _ = searched(a, c, _moves)
    assert (found, explored) == (verdict, expanded)
    if expanded:
        # the same states expand: the budget that just suffices, and one less
        assert not searched(a, c, _moves, expanded)[3]
        assert searched(a, c, _moves, expanded - 1)[3]
    if inversion_count(a) > inversion_count(c):
        with pytest.raises(ValueError):
            tight_chain_search(a, c)
        return
    want = reference_tight(a, c)
    assert searched(a, c, _tight_moves) == want
    out = tight_chain_search(a, c)
    assert (out.found, out.witness, out.budget_hit) == (*want[:2], False)
    assert out.explored == (out.witness.length if out.found else 0)
    if want[2] > 1:
        budget = want[2] // 2
        assert searched(a, c, _tight_moves, budget) \
            == reference_tight(a, c, budget)


@pytest.mark.parametrize("poset", ["poset_221", "poset_42"])
def test_searches_match_reference_on_every_pair(poset, request):
    members = request.getfixturevalue(poset).members
    for a in members:
        for c in members:
            assert_same_searches(a, c)


def test_searches_match_reference_on_seeded_a52_pairs(poset_52):
    rng = random.Random(2040)
    members = poset_52.members
    for _ in range(2000):
        assert_same_searches(rng.choice(members), rng.choice(members))


def test_p4_q4_budget():
    # A(6,2) has no table, so its searches count their expansions; the
    # P_4 -> Q_4 query is answered from the A(4,2) table whatever the budget
    p4, q4 = build_extremes(4)
    assert secondary_bruhat_leq(p4, q4, node_budget=1)
    p6, q6 = build_extremes(6)
    with pytest.raises(SearchBudgetExceeded):
        secondary_bruhat_leq(p6, q6, node_budget=1)
    verdict, expanded = reference_secondary(p6, q6)
    assert verdict and expanded > 1
    assert secondary_bruhat_leq(p6, q6, node_budget=expanded)
    with pytest.raises(SearchBudgetExceeded):
        secondary_bruhat_leq(p6, q6, node_budget=expanded - 1)


def test_searches_refuse_past_the_byte_limit(monkeypatch):
    # P_30 -> Q_30 charges about 1.2 KB a state it expands, and each
    # search expands over 400: far past a limit of 100,000 bytes
    p30, q30 = build_extremes(30)
    monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 100_000)
    with pytest.raises(ClassTooLarge, match=r"hold \d+ bytes .* over the "
                                            r"100000-byte limit"):
        secondary_bruhat_leq(p30, q30)
    with pytest.raises(ClassTooLarge, match="100000-byte limit"):
        tight_chain_search(p30, q30, 5000)


def test_secondary_search_holds_one_path():
    # a best-first search held the excess table of every state it queued:
    # 25 MB under tracemalloc from P_30, 644 MB of RSS from P_60
    p30, q30 = build_extremes(30)
    tracemalloc.start()
    try:
        assert secondary_bruhat_leq(p30, q30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    # and the byte limit admits P_60
    assert secondary_bruhat_leq(*build_extremes(60))


WIDE = BinaryMatrix.from_rows(["110", "011"])
TALL = BinaryMatrix.from_rows(["11", "01", "10"])


@pytest.mark.parametrize("a, c", [
    (WIDE, TALL),                                    # the dimensions differ
    (WIDE, BinaryMatrix.from_rows(["111", "010"])),  # only row sums differ
    (WIDE, BinaryMatrix.from_rows(["101", "101"])),  # only column sums differ
    # same dimensions and lane width (4 and 5 ones), more ones in c
    (BinaryMatrix.from_rows(["110", "011"]),
     BinaryMatrix.from_rows(["111", "011"])),
    # 2 ones against 4 in lanes of one byte: the edge lanes differ
    (BinaryMatrix.from_rows(["100", "010"]), WIDE),
    # no ones against one, in lanes of one byte
    (BinaryMatrix.from_rows(["00"]), BinaryMatrix.from_rows(["01"])),
    # 127 ones against 128: the lane widths differ, one byte against two
    (BinaryMatrix(8, 16, ((1 << 16) - 1,) * 7 + ((1 << 15) - 1,)),
     BinaryMatrix(8, 16, ((1 << 16) - 1,) * 8)),
])
def test_class_mismatch_raises(a, c):
    with pytest.raises(MarginMismatch):
        bruhat_leq(a, c)
    with pytest.raises(MarginMismatch):
        bruhat_verdict(a, c)
    with pytest.raises(MarginMismatch):
        secondary_bruhat_leq(a, c)
    with pytest.raises(MarginMismatch):
        tight_chain_search(a, c)


@st.composite
def matrix_pairs(draw):
    """Two matrices of at most 16 x 16, so that one may hold 128 ones or
    more and take lanes of two bytes (its rows drawn, or their complements):
    the second drawn afresh, in the first's shape or its own, or the first
    after ItoL moves (its class), with one cell flipped, with its rows or
    its columns permuted (one margin kept), or complemented (most often
    with the lane width changed)."""
    def matrix(m, n):
        full = (1 << n) - 1
        flip = full if draw(st.booleans()) else 0
        return BinaryMatrix(m, n, tuple(flip ^ b for b in draw(st.lists(
            st.integers(0, full), min_size=m, max_size=m))))

    side = st.integers(1, 16) | st.integers(12, 16)
    m, n = draw(side), draw(side)
    a = matrix(m, n)
    how = draw(st.sampled_from(["fresh", "moved", "flipped", "rows",
                                "columns", "complement"]))
    if how == "fresh":
        c = matrix(*draw(st.sampled_from([(m, n), (draw(side), draw(side))])))
    elif how == "moved":
        rows = a.bits
        for pick in draw(st.lists(st.integers(0, 10**6), max_size=5)):
            moves = list(_moves(rows))
            if not moves:
                break
            rows = _flip(rows, *moves[pick % len(moves)])
        c = BinaryMatrix(m, n, rows)
    elif how == "flipped":
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        rows = list(a.bits)
        rows[i] ^= 1 << j
        c = BinaryMatrix(m, n, tuple(rows))
    elif how == "rows":
        c = BinaryMatrix(m, n, tuple(draw(st.permutations(a.bits))))
    elif how == "columns":
        perm = draw(st.permutations(range(n)))
        c = BinaryMatrix(m, n, tuple(
            sum((b >> perm[j] & 1) << j for j in range(n)) for b in a.bits))
    else:
        c = BinaryMatrix(m, n, tuple(b ^ (1 << n) - 1 for b in a.bits))
    return a, c


@given(matrix_pairs())
@settings(max_examples=300)
def test_class_keys_are_equal_iff_shapes_and_margins_are(pair):
    a, c = pair
    same = (a.m, a.n, a.margins()) == (c.m, c.n, c.margins())
    assert (_order_table(a).cls == _order_table(c).cls) == same


@st.composite
def walks(draw):
    """A random matrix and a random ItoL walk from it."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rows = tuple(draw(st.lists(st.integers(0, (1 << n) - 1),
                               min_size=m, max_size=m)))
    states, quads = [rows], []
    for pick in draw(st.lists(st.integers(0, 10**6), max_size=25)):
        moves = list(_moves(states[-1]))
        if not moves:
            break
        quads.append(moves[pick % len(moves)])
        states.append(_flip(states[-1], *quads[-1]))
    return n, states, quads


def byte_lane_width(ones):
    """The width of a lane that holds ones: the fewest whole bytes whose
    top bit stays clear."""
    w = 8
    while ones >= 1 << w - 1:
        w += 8
    return w


def lane_width(high):
    """The lane width: the guard bit of lane 0 is its top bit."""
    return (high & -high).bit_length()


def unpack(packed, size, high):
    """The lanes of a packed table, guard bits included, checking that
    nothing is set past its last lane."""
    w = lane_width(high)
    assert 0 <= packed < 1 << size * w
    return [packed >> k * w & (1 << w) - 1 for k in range(size)]


def excess_of(rows, target, n):
    """The excess sigma(rows) - sigma(target) of two same-class row tuples
    as the search holds it: their order tables decoded by ``_entries``
    into an m x n int32 array, negative entries included."""
    m = len(rows)
    ta = _order_table(BinaryMatrix(m, n, rows))
    tc = _order_table(BinaryMatrix(m, n, target))
    assert ta.width == tc.width
    return _entries(ta, m, n) - _entries(tc, m, n)


def recounted(rows, end, n):
    """The excess of rows over the recounted table end, row-major."""
    return [u - v for u, v in zip(sigma(rows, n), end)]


@given(walks())
@settings(max_examples=200)
def test_incremental_state_equals_recount(walk):
    # every state of an ItoL walk dominates its end, so the whole walk
    # stays admissible with the end as the target: each move's block has
    # no zero, and lowering it in place gives the next state's excess
    n, states, quads = walk
    m = len(states[0])
    start = BinaryMatrix(m, n, states[0])
    end = sigma(states[-1], n)
    excess = excess_of(states[0], states[-1], n)
    assert excess.dtype == np.int32 and excess.shape == (m, n)
    # the top entry of sigma, the number of ones, fits below the guard bit
    assert _order_table(start).width == byte_lane_width(end[-1])
    nu = inversion_count(start)
    for rows, (i, i2, j, j2) in zip(states, quads):
        nu += _take(list(rows), i, i2, j, j2)
        block = excess[i:i2, j:j2]
        assert block.all()
        block -= 1
        x = BinaryMatrix(m, n, _flip(rows, i, i2, j, j2))
        assert excess.ravel().tolist() == recounted(x.bits, end, n)
        assert nu == inversion_count(x)
    assert not excess.any()


@given(walks())
@settings(max_examples=200)
def test_a_block_with_no_zero_is_exactly_a_dominating_move(walk):
    # every move of every state along the walk, not only the one taken:
    # the child dominates the end iff the move's block has no zero
    n, states, _ = walk
    end = sigma(states[-1], n)
    for rows in states:
        excess = excess_of(rows, states[-1], n)
        assert excess.ravel().tolist() == recounted(rows, end, n)
        for i, i2, j, j2 in _moves(rows):
            child = recounted(_flip(rows, i, i2, j, j2), end, n)
            assert excess[i:i2, j:j2].all() == (min(child) >= 0)


@given(walks())
@settings(max_examples=200)
def test_block_is_the_move_and_adding_it_back_undoes_it(walk):
    # subtracting 1 from the block of any move of any state along the walk
    # gives the child's excess, admissible or not: the move lowers sigma
    # on its block and nowhere else; adding 1 back restores the array,
    # which is the search's undo on backtrack
    n, states, _ = walk
    end = sigma(states[-1], n)
    for rows in states:
        excess = excess_of(rows, states[-1], n)
        before = excess.copy()
        for i, i2, j, j2 in _moves(rows):
            excess[i:i2, j:j2] -= 1
            assert excess.ravel().tolist() == \
                recounted(_flip(rows, i, i2, j, j2), end, n)
            excess[i:i2, j:j2] += 1
            assert (excess == before).all()


def brute_inversions(a):
    cells = ones(a)
    return sum(1 for x, (i, j) in enumerate(cells) for i2, j2 in cells[x + 1:]
               if i2 > i and j2 < j)


def assert_table_equals_recount(a):
    """The order table of a against the slow path: every lane (guard bit
    included) is the recounted entry and nu the brute count;
    cumulative_sums reads the same entries back."""
    table = _order_table(a)
    assert table.width == byte_lane_width(a.count_ones())
    high = _guards(a.m, a.n, table.width)
    entries = unpack(table.sigma, a.m * a.n, high)
    assert entries == sigma(a.bits, a.n) \
        == [v for row in cumulative_sums(a) for v in row]
    assert table.nu == brute_inversions(a) == inversion_count(a)


def inversions_by_columns(a):
    """The inversion count as column counts give it: each one pairs with
    the ones of earlier rows in later columns.  Linear in the ones per one,
    where brute_inversions is quadratic in the ones."""
    above = [0] * a.n
    nu = 0
    for b in a.bits:
        cols = [j for j in range(a.n) if b >> j & 1]
        nu += sum(sum(above[j + 1:]) for j in cols)
        for j in cols:
            above[j] += 1
    return nu


@pytest.mark.parametrize("ones, side, width", [
    (127, 16, 8), (128, 16, 16), (32767, 256, 16), (32768, 256, 24)])
def test_order_tables_at_the_lane_boundaries(ones, side, width):
    # the corner entry, the number of ones, is the largest lane value: the
    # most a lane of that width holds below its guard bit, or one more
    rng = random.Random(ones)
    cells = set(rng.sample(range(side * side), ones))
    a = BinaryMatrix(side, side, tuple(
        sum(1 << j for j in range(side) if i * side + j in cells)
        for i in range(side)))
    table = _order_table(a)
    assert table.width == width == byte_lane_width(ones)
    # the lanes, guard bits included, read back as the recount
    recount = sigma(a.bits, side)
    assert table.sigma & _guards(side, side, width) == 0
    assert [v for row in cumulative_sums(a) for v in row] == recount
    assert recount[-1] == ones
    assert table.nu == inversions_by_columns(a)
    if ones < 1000:
        assert table.nu == brute_inversions(a)
    up = BinaryMatrix(side, side, _flip(a.bits, *next(_moves(a.bits))))
    # an LtoI move of a: an ItoL move of its rows reversed
    p, p2, j, j2 = next(_moves(a.bits[::-1]))
    down = BinaryMatrix(side, side, _flip(
        a.bits, side - 1 - p2, side - 1 - p, j, j2))
    for x, y in product((a, up, down), repeat=2):
        sx, sy = sigma(x.bits, side), sigma(y.bits, side)
        assert bruhat_verdict(x, y) == OrderVerdict(
            all(u >= v for u, v in zip(sx, sy)),
            all(u <= v for u, v in zip(sx, sy)))
    assert bruhat_verdict(down, up) == OrderVerdict(True, False)


def test_order_table_on_every_a52_member(poset_52):
    for a in poset_52.members:
        assert_table_equals_recount(a)


@given(st.integers(1, 7).flatmap(lambda m: st.integers(1, 7).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=m,
                       max_size=m).map(lambda rows: BinaryMatrix(
                           m, n, tuple(rows))))))
@settings(max_examples=300)
def test_order_table_on_random_shapes(a):
    assert_table_equals_recount(a)


@pytest.mark.parametrize("m", [31, 32, 33, 64, 65, 100])
def test_order_table_past_one_block(m):
    # tall tables: many rows of one or three lanes
    rng = random.Random(m)
    for n in (1, 3):
        assert_table_equals_recount(BinaryMatrix(
            m, n, tuple(rng.getrandbits(n) for _ in range(m))))


@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (4, 1), (3, 7), (7, 7),
                                  (33, 2), (65, 1)])
def test_guards_are_the_lane_masks(m, n):
    for w in (8, 16, 24):
        high = _guards(m, n, w)
        assert high == sum(1 << k * w + w - 1 for k in range(m * n))


@pytest.mark.parametrize("width", [8, 16, 24, 32])
def test_entries_read_every_lane_width(width):
    # lanes of 4 bytes need 2**23 ones, too many to build a matrix for:
    # a packed table of random entries below the guard bit, down to 0 and
    # up to the largest, reads back as a new writable int32 array
    rng = random.Random(width)
    m, n = 3, 5
    values = [0, (1 << width - 1) - 1] + [
        rng.randrange(1 << width - 1) for _ in range(m * n - 2)]
    sigma = sum(v << k * width for k, v in enumerate(values))
    got = _entries(_OrderTable(sigma, width, 0, None, None), m, n)
    assert got.dtype == np.int32 and got.shape == (m, n)
    assert got.ravel().tolist() == values
    got -= 1
    assert got.ravel().tolist() == [v - 1 for v in values]


def test_order_queries_on_large_extremes(memory_cap):
    # each table is 1500 x 1500 lanes of 2 bytes, 4.5 MB, and so is each
    # guard mask; a search beside them would hold one excess array of
    # 4-byte entries, 9 MB, and edit each move's block of it in place
    p, q = build_extremes(1500)
    assert (inversion_count(p), inversion_count(q)) == \
        extremal_inversions(1500)
    verdict = bruhat_verdict(p, q)
    assert verdict.leq and not verdict.geq
    assert bruhat_leq(p, q) and not bruhat_leq(q, p)


def test_order_table_lanes_wider_than_a_byte():
    states = build_chain(70).matrices()
    for a in states[::len(states) // 8]:
        assert _order_table(a).width == 16
        assert_table_equals_recount(a)


def test_order_table_is_kept():
    a = BinaryMatrix.from_rows(["110", "101", "011"])
    table = _order_table(a)
    assert _order_table(a) is table
    assert bruhat_verdict(a, a) == OrderVerdict(True, True)
    assert _order_table(a) is table


def test_order_table_slot_is_invisible():
    rows = ["1100", "1010", "0101", "0011"]
    queried, fresh = (BinaryMatrix.from_rows(rows) for _ in range(2))
    assert bruhat_leq(queried, queried)
    assert queried._table is not None and fresh._table is None
    assert queried == fresh and hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh)
    assert pickle.dumps(queried) == pickle.dumps(fresh)
    loaded = pickle.loads(pickle.dumps(queried))
    assert loaded == fresh and loaded._table is None
    replaced = dataclasses.replace(queried)
    assert replaced == fresh and replaced._table is None
    # a replaced matrix computes its own table, not the original's
    moved = dataclasses.replace(queried, bits=(12, 10, 5, 3))
    assert_table_equals_recount(moved)
    assert inversion_count(moved) != inversion_count(queried)


@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.integers(0, (1 << n) - 1), min_size=1, max_size=7)))
@settings(max_examples=300)
def test_tight_moves_are_the_increment_one_moves(rows):
    rows = tuple(rows)
    assert list(_tight_moves(rows)) == [
        mv for mv in _moves(rows) if _take(list(rows), *mv) == 1]


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.integers(0, (1 << n) - 1), min_size=1, max_size=9))))
@settings(max_examples=300)
def test_column_view_increment_equals_the_row_walk(case):
    # m x n rows, square or not, so either span may be the shorter
    n, rows = case
    m = len(rows)
    cols = _columns(rows, n)
    assert cols == [sum((b >> c & 1) << r for r, b in enumerate(rows))
                    for c in range(n)]
    nu = inversion_count(BinaryMatrix(m, n, tuple(rows)))
    for mv in _moves(rows):
        after = _flip(rows, *mv)
        gain = inversion_count(BinaryMatrix(m, n, after)) - nu
        by_rows, by_cols, view = list(rows), list(rows), list(cols)
        assert _take(by_cols, *mv, view) == _take(by_rows, *mv) == gain
        assert tuple(by_rows) == tuple(by_cols) == after
        assert view == _columns(after, n)


def test_tight_moves_on_every_a52_member(poset_52):
    for a in poset_52.members:
        assert list(_tight_moves(a.bits)) == [
            mv for mv in _moves(a.bits) if _take(list(a.bits), *mv) == 1]


def test_tight_moves_on_every_state_of_a_maximum_chain():
    # 30 x 30 states from P_30 to Q_30, where the scan of each row i stops
    # once the rows below it cover its ones
    for a in build_chain(30).matrices():
        assert list(_tight_moves(a.bits)) == [
            mv for mv in _moves(a.bits) if _take(list(a.bits), *mv) == 1]


def test_lanes_wider_than_a_byte():
    # 140 ones, past 127, so a lane takes two bytes
    states = build_chain(70).matrices()
    a, c = states[100], states[103]
    assert _order_table(a).width == _order_table(c).width == 16
    assert secondary_bruhat_leq(a, c)
    assert not secondary_bruhat_leq(c, a)
    out = tight_chain_search(a, c)
    assert out.found and not out.budget_hit
    assert out.witness.length == 3
    report = verify_chain(out.witness, a, c)
    assert report.valid and report.tight and report.endpoints_ok
