"""The order oracles on incremental state, cross-checked against the object
path: the secondary-order search and the tight DFS as they were written
over BinaryMatrix values, recomputing the partial-sum table and the
inversion count of every state."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatchains import (
    BinaryMatrix,
    Chain,
    Direction,
    MarginMismatch,
    SearchBudgetExceeded,
    apply_interchange,
    build_chain,
    bruhat_verdict,
    build_extremes,
    cumulative_sums,
    find_interchanges,
    interchange_increment,
    inversion_count,
    secondary_bruhat_leq,
    tight_chain_search,
    verify_chain,
)
from bruhatchains.matrices import (
    _flip,
    _increment,
    _lowered,
    _moves,
    _packed_excess,
    _sigma,
    _tight_moves,
)


def reference_secondary(a, c):
    """Best-first ItoL search from a to c: the verdict and the number of
    states expanded, which is the smallest node budget that succeeds."""
    if a.m != c.m or a.n != c.n or a.margins() != c.margins():
        raise MarginMismatch("matrices are not in the same class")
    if a == c:
        return True, 0
    sc = cumulative_sums(c).flat()
    nu_c = inversion_count(c)

    def admissible_excess(x):
        excess = 0
        for u, v in zip(cumulative_sums(x).flat(), sc):
            if u < v:
                return None
            excess += u - v
        return excess

    start_excess = admissible_excess(a)
    if start_excess is None or inversion_count(a) >= nu_c:
        return False, 0
    visited = {a}
    heap = [(start_excess, a.bits, a)]
    expanded = 0
    while heap:
        _, _, x = heapq.heappop(heap)
        expanded += 1
        for move in find_interchanges(x, Direction.ItoL):
            y = apply_interchange(x, move)
            if y == c:
                return True, expanded
            if y in visited:
                continue
            visited.add(y)
            if inversion_count(y) >= nu_c:
                continue
            excess = admissible_excess(y)
            if excess is None:
                continue
            heapq.heappush(heap, (excess, y.bits, y))
    return False, expanded


def reference_tight(a, c, budget=10**6):
    """Depth-first search for an increment-one interchange chain from a to
    c, with memoized dead states: (found, witness, explored, budget_hit)."""
    if a.m != c.m or a.n != c.n or a.margins() != c.margins():
        raise MarginMismatch("endpoints are not in the same class")
    if inversion_count(a) > inversion_count(c):
        raise ValueError("start has more inversions than the target")
    sc = cumulative_sums(c).flat()

    def dominates(x):
        return all(u >= v for u, v in zip(cumulative_sums(x).flat(), sc))

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
    return found, witness, explored, budget_hit


def assert_same_searches(a, c):
    verdict, expanded = reference_secondary(a, c)
    assert secondary_bruhat_leq(a, c) == verdict
    if expanded:
        # the same states expand: the budget that just suffices, and one less
        assert secondary_bruhat_leq(a, c, node_budget=expanded) == verdict
        with pytest.raises(SearchBudgetExceeded):
            secondary_bruhat_leq(a, c, node_budget=expanded - 1)
    if inversion_count(a) > inversion_count(c):
        with pytest.raises(ValueError):
            tight_chain_search(a, c)
        return
    want = reference_tight(a, c)
    out = tight_chain_search(a, c)
    assert (out.found, out.witness, out.explored, out.budget_hit) == want
    if want[2] > 1:
        budget = want[2] // 2
        out = tight_chain_search(a, c, budget)
        assert (out.found, out.witness, out.explored, out.budget_hit) \
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
    p4, q4 = build_extremes(4)
    with pytest.raises(SearchBudgetExceeded):
        secondary_bruhat_leq(p4, q4, node_budget=1)
    verdict, expanded = reference_secondary(p4, q4)
    assert verdict and expanded > 1
    assert secondary_bruhat_leq(p4, q4, node_budget=expanded)
    with pytest.raises(SearchBudgetExceeded):
        secondary_bruhat_leq(p4, q4, node_budget=expanded - 1)


WIDE = BinaryMatrix.from_rows(["110", "011"])
TALL = BinaryMatrix.from_rows(["11", "01", "10"])


@pytest.mark.parametrize("a, c", [
    (WIDE, TALL),                                    # the dimensions differ
    (WIDE, BinaryMatrix.from_rows(["111", "010"])),  # only row sums differ
    (WIDE, BinaryMatrix.from_rows(["101", "101"])),  # only column sums differ
])
def test_class_mismatch_raises(a, c):
    with pytest.raises(MarginMismatch):
        bruhat_verdict(a, c)
    with pytest.raises(MarginMismatch):
        secondary_bruhat_leq(a, c)
    with pytest.raises(MarginMismatch):
        tight_chain_search(a, c)


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


def lane_width(lanes):
    """The lane width: the guard bit of lane 0 is its top bit."""
    high = lanes[0]
    return (high & -high).bit_length()


def unpack(packed, size, lanes):
    """The lanes of a packed table, guard bits included, checking that
    nothing is set past its last lane."""
    w = lane_width(lanes)
    assert 0 <= packed < 1 << size * w
    return [packed >> k * w & (1 << w) - 1 for k in range(size)]


@given(walks())
@settings(max_examples=200)
def test_incremental_state_equals_recount(walk):
    # every state of an ItoL walk dominates its end, so the whole walk
    # stays admissible with the end as the target
    n, states, quads = walk
    m = len(states[0])
    start = BinaryMatrix(m, n, states[0])
    end = _sigma(states[-1], n)
    excess, lanes = _packed_excess(_sigma(states[0], n), end, n)
    # the top entry of sigma, the number of ones, fits below the guard bit
    assert lane_width(lanes) == end[-1].bit_length() + 1
    nu = inversion_count(start)
    for rows, quad in zip(states, quads):
        nu += _increment(rows, *quad)
        excess = _lowered(excess, lanes, *quad)
        x = BinaryMatrix(m, n, _flip(rows, *quad))
        recount = cumulative_sums(x).flat()
        assert unpack(excess, m * n, lanes) == [u - v for u, v in
                                                zip(recount, end)]
        assert nu == inversion_count(x)
    assert excess == 0


@given(walks())
@settings(max_examples=200)
def test_lowered_refuses_exactly_the_non_dominating(walk):
    # every move of every state along the walk, not only the one taken:
    # the move keeps domination of the end iff _lowered returns a table
    n, states, _ = walk
    m = len(states[0])
    target = _sigma(states[-1], n)
    for rows in states:
        sigma = _sigma(rows, n)
        excess, lanes = _packed_excess(sigma, target, n)
        assert unpack(excess, m * n, lanes) == [u - v for u, v in
                                                zip(sigma, target)]
        for quad in _moves(rows):
            child_sigma = _sigma(_flip(rows, *quad), n)
            child = [u - v for u, v in zip(child_sigma, target)]
            got = _lowered(excess, lanes, *quad)
            if min(child) < 0:
                assert got is None
                assert _packed_excess(child_sigma, target, n) is None
            else:
                assert unpack(got, m * n, lanes) == child


@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.integers(0, (1 << n) - 1), min_size=1, max_size=7)))
@settings(max_examples=300)
def test_tight_moves_are_the_increment_one_moves(rows):
    rows = tuple(rows)
    assert list(_tight_moves(rows)) == [
        mv for mv in _moves(rows) if _increment(rows, *mv) == 1]


def test_tight_moves_on_every_a52_member(poset_52):
    for a in poset_52.members:
        assert list(_tight_moves(a.bits)) == [
            mv for mv in _moves(a.bits) if _increment(a.bits, *mv) == 1]


def test_lanes_wider_than_a_byte():
    # 140 ones, so sigma's top entry needs 8 bits and a lane 9
    states = build_chain(70).matrices()
    a, c = states[100], states[103]
    _, lanes = _packed_excess(_sigma(a.bits, a.n), _sigma(c.bits, c.n), a.n)
    assert lane_width(lanes) == 9
    assert secondary_bruhat_leq(a, c)
    assert not secondary_bruhat_leq(c, a)
    out = tight_chain_search(a, c)
    assert out.found and not out.budget_hit
    assert out.witness.length == 3
    report = verify_chain(out.witness, a, c)
    assert report.valid and report.tight and report.endpoints_ok
