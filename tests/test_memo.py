"""The child memo both order searches share: the searches give the same
verdicts, expansion counts and witnesses with the memo cold, warm, and
reset mid-search, and the memo keeps to its admission and byte rules: a
state of at most 64 cells is stored on its first expansion, a larger one
never."""

import random

import numpy as np
import pytest

from bruhatchains import (
    BinaryMatrix,
    MarginPair,
    SearchBudgetExceeded,
    build_extremes,
    bruhat_less,
    engine,
    inversion_count,
    secondary_bruhat_leq,
    tight_chain_search,
)
from bruhatchains import matrices
from bruhatchains.matrices import (
    _CHILD_MEMO,
    _flip,
    _moves,
    _tight_moves,
)
from reference import sigma
from test_oracles import reference_secondary, reference_tight


def reference_outcomes(a, c):
    """What the references give on (a, c): the secondary verdict and its
    expansions, and the tight outcome at the full budget and at half the
    states it explores (None where the search refuses the pair)."""
    verdict, expanded = reference_secondary(a, c)
    if inversion_count(a) > inversion_count(c):
        return verdict, expanded, None, None
    full = reference_tight(a, c)
    half = reference_tight(a, c, full[2] // 2) if full[2] > 1 else None
    return verdict, expanded, full, half


def tight(a, c, budget=10**6):
    out = tight_chain_search(a, c, budget)
    return out.found, out.witness, out.explored, out.budget_hit


def assert_outcomes(a, c, want, cold):
    """The searches on (a, c) against the reference outcomes; cold clears
    the memo before every search."""
    verdict, expanded, full, half = want

    def fresh():
        if cold:
            _CHILD_MEMO.clear()

    fresh()
    assert secondary_bruhat_leq(a, c) == verdict
    if expanded:
        fresh()
        assert secondary_bruhat_leq(a, c, node_budget=expanded) == verdict
        fresh()
        with pytest.raises(SearchBudgetExceeded):
            secondary_bruhat_leq(a, c, node_budget=expanded - 1)
    if full is None:
        fresh()
        with pytest.raises(ValueError):
            tight_chain_search(a, c)
        return
    fresh()
    assert tight(a, c) == full
    if half is not None:
        fresh()
        assert tight(a, c, full[2] // 2) == half


@pytest.fixture(scope="module")
def pairs_with_references(poset_42, poset_52):
    """Every ordered A(4,2) pair and 2,000 seeded A(5,2) pairs, each with
    its reference outcomes."""
    pairs = [(a, c) for a in poset_42.members for c in poset_42.members]
    rng = random.Random(2052)
    pairs += [(rng.choice(poset_52.members), rng.choice(poset_52.members))
              for _ in range(2000)]
    return [(a, c, reference_outcomes(a, c)) for a, c in pairs]


@pytest.fixture
def clean_memo():
    _CHILD_MEMO.clear()
    yield _CHILD_MEMO
    _CHILD_MEMO.clear()


def test_searches_match_reference_with_a_cold_memo(pairs_with_references,
                                                   clean_memo):
    for a, c, want in pairs_with_references:
        assert_outcomes(a, c, want, cold=True)


def test_searches_match_reference_with_a_warm_memo(pairs_with_references,
                                                   clean_memo):
    # the first pass stores every state it expands; the second reads all
    # of its expansions from stored entries
    for _ in range(2):
        for a, c, want in pairs_with_references:
            assert_outcomes(a, c, want, cold=False)
    assert len(clean_memo.entries[_moves]) > 1000
    assert len(clean_memo.entries[_tight_moves]) > 1000
    assert clean_memo.charged <= matrices.MAX_MEMO_BYTES


def test_searches_match_reference_when_the_memo_resets(
        pairs_with_references, clean_memo, monkeypatch):
    # a bound of a few entries: the memo clears itself inside most
    # searches that expand more than a handful of states
    monkeypatch.setattr(matrices, "MAX_MEMO_BYTES", 20_000)
    resets = 0
    clear = matrices._ChildMemo.clear

    def counting_clear(self):
        nonlocal resets
        resets += 1
        clear(self)

    monkeypatch.setattr(matrices._ChildMemo, "clear", counting_clear)
    stored = 0
    for _ in range(2):
        for a, c, want in pairs_with_references:
            assert_outcomes(a, c, want, cold=False)
            stored = max(stored, len(clean_memo.entries[_moves]))
            assert clean_memo.charged <= 20_000
    assert resets > 100 and stored > 0


def test_first_expansion_stores_a_small_state(clean_memo):
    rows = build_extremes(8)[0].bits   # 64 cells, the most stored
    want = [(_flip(rows, *move), move) for move in _moves(rows)]
    assert list(clean_memo.expand(rows, _moves)) == want
    # the entry: two parallel tuples whose child rows are interned, and
    # the next expansion reads the same objects
    children, moves = clean_memo.entries[_moves][rows]
    assert list(zip(children, moves)) == want
    assert all(clean_memo.interned[y] is y for y in children)
    charged = clean_memo.charged
    again = list(clean_memo.expand(rows, _moves))
    assert all(x[0] is y for x, y in zip(again, children))
    assert clean_memo.charged == charged
    # the tight generator keeps its own entries
    assert rows not in clean_memo.entries[_tight_moves]
    tight_want = [(_flip(rows, *move), move) for move in _tight_moves(rows)]
    assert list(clean_memo.expand(rows, _tight_moves)) == tight_want
    assert rows in clean_memo.entries[_tight_moves]


def test_one_shot_searches_store_nothing(clean_memo):
    # P_12 has 144 cells: its states never reach the memo
    p, q = build_extremes(12)
    assert secondary_bruhat_leq(p, q)
    assert tight_chain_search(p, q).found
    assert not clean_memo.entries[_moves]
    assert not clean_memo.entries[_tight_moves]
    assert clean_memo.charged == 0


def test_charge_stays_under_the_bound_on_large_searches(clean_memo):
    p, q = build_extremes(30)
    for _ in range(2):
        out = tight_chain_search(p, q, 5000)
        assert out.found and not out.budget_hit
        assert secondary_bruhat_leq(p, q)
    assert not clean_memo.entries[_moves]
    assert not clean_memo.entries[_tight_moves]
    assert clean_memo.charged == 0


def test_large_searches_keep_the_small_entries(poset_52, clean_memo):
    # A(5,2) pairs warm the memo; P_30 searches then leave it as it was
    rng = random.Random(3052)
    for _ in range(200):
        a, c = rng.choice(poset_52.members), rng.choice(poset_52.members)
        secondary_bruhat_leq(a, c)
        if inversion_count(a) <= inversion_count(c):
            tight_chain_search(a, c)
    entries = {g: dict(clean_memo.entries[g]) for g in (_moves, _tight_moves)}
    charged = clean_memo.charged
    assert entries[_moves] and entries[_tight_moves]
    p, q = build_extremes(30)
    assert tight_chain_search(p, q, 5000).found
    assert secondary_bruhat_leq(p, q)
    assert {g: clean_memo.entries[g] for g in entries} == entries
    assert clean_memo.charged == charged


def test_the_largest_small_entry_fits_under_the_bound():
    # every (i, i2, j, j2) a move of an m x n state, m * n <= 64: the
    # entry interns its rows, one child per move and every move
    largest = 0
    for m in range(1, 65):
        for n in range(1, 64 // m + 1):
            count = m * (m - 1) // 2 * (n * (n - 1) // 2)
            tuples = [(0,) * m] * (1 + count) + [(0,) * 4] * count
            largest = max(largest, matrices._entry_bytes(count, tuples))
    # a 16 x 4 state: 720 moves, each child a rows tuple of 16 items
    assert largest == 357_600 < matrices.MAX_MEMO_BYTES


def test_the_next_entry_past_the_bound_clears_the_memo(clean_memo,
                                                       monkeypatch):
    states = build_extremes(8)[0].bits, build_extremes(8)[1].bits
    for rows in states:
        clean_memo.expand(rows, _moves)
    assert set(clean_memo.entries[_moves]) == set(states)
    # room for the charge so far, not one more entry
    monkeypatch.setattr(matrices, "MAX_MEMO_BYTES", clean_memo.charged)
    child = next(iter(clean_memo.entries[_moves][states[0]][0]))
    clean_memo.expand(child, _moves)   # the memo starts over
    assert list(clean_memo.entries[_moves]) == [child]
    assert clean_memo.charged <= matrices.MAX_MEMO_BYTES


# A non-interchange cover of A(6,3): c is a with rows 0..3 reversed.
COVER_LOW = BinaryMatrix.from_rows(
    ["001110", "110010", "110100", "000111", "101001", "011001"])
COVER_HIGH = BinaryMatrix.from_rows(
    ["000111", "110100", "110010", "001110", "101001", "011001"])


def test_a63_cover_that_no_interchange_gives(clean_memo):
    a, c = COVER_LOW, COVER_HIGH
    assert a.margins() == c.margins() == MarginPair.uniform(6, 3)
    assert (inversion_count(a), inversion_count(c)) == (54, 62)
    assert bruhat_less(a, c)
    # cold, then read from the stored entries
    for _ in range(3):
        assert not secondary_bruhat_leq(a, c)
        out = tight_chain_search(a, c)
        assert not out.found and not out.budget_hit
    assert a.bits in clean_memo.entries[_moves]
    assert a.bits in clean_memo.entries[_tight_moves]


# One LtoI step below COVER_LOW: the secondary search reaches COVER_HIGH
# only after backing out of a branch, and meets a state of that branch
# again, so its dead set saves one expansion (8, against 9 without it).
BELOW_COVER = BinaryMatrix.from_rows(
    ["101010", "010110", "110100", "000111", "101001", "011001"])


def test_secondary_search_skips_dead_states(clean_memo):
    assert reference_secondary(BELOW_COVER, COVER_HIGH) == (True, 8)
    assert secondary_bruhat_leq(BELOW_COVER, COVER_HIGH, node_budget=8)
    with pytest.raises(SearchBudgetExceeded):
        secondary_bruhat_leq(BELOW_COVER, COVER_HIGH, node_budget=7)


def test_a63_cover_has_nothing_strictly_between():
    # the sigma tables of the whole class in byte lanes, scanned against
    # both ends: x lies in [a, c] iff sigma(a) >= sigma(x) >= sigma(c)
    keys = engine.enumerate_keys(MarginPair.uniform(6, 3))
    assert len(keys) == 297_200
    low = np.array(sigma(COVER_LOW.bits, 6), dtype=np.int8)
    high = np.array(sigma(COVER_HIGH.bits, 6), dtype=np.int8)
    between = []
    for chunk in np.array_split(keys, 8):
        table = engine.sigma_table(chunk, 6, 6)
        inside = ((table <= low) & (table >= high)).all(axis=1)
        between += chunk[inside].tolist()
    assert sorted(between) == sorted([matrices.pack(COVER_LOW),
                                      matrices.pack(COVER_HIGH)])
