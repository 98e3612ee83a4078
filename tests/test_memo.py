"""The class tables behind the order queries, a memo of one table per
class: on every class that has one, the table gives the verdicts, found
flags and witnesses of the depth-first search it replaces, and the
memo keeps to its rules: a class of at most 64 cells whose charge fits
MAX_TABLE_BYTES gets a table on its first query, and keeps it until a
new table would pass the bound."""

import random
import tracemalloc

import numpy as np
import pytest

from bruhatchains import (
    BinaryMatrix,
    Chain,
    MarginPair,
    SearchBudgetExceeded,
    build_extremes,
    bruhat_less,
    engine,
    inversion_count,
    secondary_bruhat_leq,
    tight_chain_search,
)
from bruhatchains import matrices, order
from bruhatchains.matrices import _moves, _order_table, _tight_moves
from bruhatchains.order import _class_table, _require_same_class, _search
from reference import sigma
from test_oracles import reference_secondary, reference_tight


@pytest.fixture
def tables():
    """The kept tables, empty before and after the test."""
    order._TABLES.clear()
    yield order._TABLES
    order._TABLES.clear()


def table_of(a):
    return _class_table(a, _order_table(a))


def assert_routes_agree(a, c):
    """The table's answers on (a, c) against ``order._search``, the route
    of a class with no table: the secondary verdict, and the tight
    search's found flag and witness."""
    assert table_of(a) is not None
    path, _ = _search(a, c, _require_same_class(a, c), _moves, 10**6)
    assert secondary_bruhat_leq(a, c) == (path is not None)
    if inversion_count(a) > inversion_count(c):
        return
    path, _ = _search(a, c, _require_same_class(a, c), _tight_moves, 10**6)
    out = tight_chain_search(a, c)
    assert out.found == (path is not None) and not out.budget_hit
    assert out.witness == (None if path is None else Chain(a, tuple(path)))
    assert out.explored == len(path or ())


def test_table_matches_the_search_on_every_pair(poset_221, poset_42):
    for poset in (poset_221, poset_42):
        for a in poset.members:
            for c in poset.members:
                assert_routes_agree(a, c)


def test_table_matches_the_search_on_seeded_a52_pairs(poset_52):
    rng = random.Random(5252)
    members = poset_52.members
    for _ in range(20_000):
        assert_routes_agree(rng.choice(members), rng.choice(members))


def test_table_matches_the_search_on_criterion_9_classes(small_posets):
    rng = random.Random(9)
    for poset in rng.sample(small_posets, 200):
        members = poset.members
        for _ in range(20):
            assert_routes_agree(rng.choice(members), rng.choice(members))


def test_a52_table_is_the_comparability_matrix(poset_52):
    table = table_of(poset_52.members[0])
    size = len(poset_52)
    # the table and the poset list the class in the same order
    assert [table.index[a.bits] for a in poset_52.members] == \
        list(range(size))
    up = np.array([np.unpackbits(np.frombuffer(
        bits.to_bytes(size // 8 + 1, "little"), np.uint8),
        bitorder="little")[:size] for bits in table.up], dtype=bool)
    assert (up == poset_52.leq).all()


def test_first_query_builds_the_class_table(tables):
    p, q = build_extremes(5)
    assert not tables
    assert tight_chain_search(p, q).found
    (table,) = tables.values()
    assert len(table.index) == 2040
    # later queries on the class read the same table
    assert secondary_bruhat_leq(p, q) and not secondary_bruhat_leq(q, p)
    assert list(tables.values()) == [table] and table_of(q) is table


def held_by_the_package(snapshot) -> int:
    """The bytes still held that the package's own code allocated: not
    numpy's or the interpreter's caches."""
    package = tracemalloc.Filter(True, order.__file__.replace("order.py",
                                                              "*"))
    return sum(stat.size for stat in
               snapshot.filter_traces([package]).statistics("filename"))


def test_the_charge_covers_what_a_table_holds():
    for margins in (MarginPair((2, 2, 1), (2, 2, 1)),
                    MarginPair((2, 1, 1, 0), (1, 1, 1, 1)),
                    MarginPair.uniform(4, 2), MarginPair.uniform(5, 2)):
        order._build_table(margins)   # fill the package's caches first
        tracemalloc.start()
        try:
            table = order._build_table(margins)
            held = held_by_the_package(tracemalloc.take_snapshot())
        finally:
            tracemalloc.stop()
        assert held <= table.charge
    # on the class the bound is sized for, the charge is not far over
    assert table.charge < 1.5 * held


def test_classes_past_the_gate_get_no_table(tables, monkeypatch):
    counted = []
    count_class = order.count_class

    def counting(margins):
        counted.append(margins)
        return count_class(margins)

    def no_build(margins):
        raise AssertionError("a refused class was enumerated")

    monkeypatch.setattr(order, "count_class", counting)
    monkeypatch.setattr(order, "build_interchange_dag", no_build)
    # A(6,2): 67,950 members, refused by its count alone
    p, q = build_extremes(6)
    for _ in range(2):
        assert secondary_bruhat_leq(p, q)
        assert tight_chain_search(p, q).found
    assert counted == [MarginPair.uniform(6, 2)]
    # 81 cells: refused before it is counted
    p9, q9 = build_extremes(9)
    assert secondary_bruhat_leq(p9, q9)
    assert counted == [MarginPair.uniform(6, 2)]
    assert list(tables.values()) == [None, None]


def test_a_class_whose_arcs_pass_the_bound_gets_no_table(tables,
                                                         monkeypatch):
    # room for A(4,2)'s members and bitsets, none for its 168 tight arcs
    monkeypatch.setattr(order, "MAX_TABLE_BYTES",
                        order._table_charge(4, 90, 0, 0))
    p, q = build_extremes(4)
    assert table_of(p) is None
    assert secondary_bruhat_leq(p, q)
    with pytest.raises(SearchBudgetExceeded):
        secondary_bruhat_leq(p, q, node_budget=1)


def test_one_shot_searches_store_nothing(tables):
    # P_12 has 144 cells: its class gets no table
    p, q = build_extremes(12)
    assert secondary_bruhat_leq(p, q)
    assert tight_chain_search(p, q).found
    assert list(tables.values()) == [None]


def test_charge_stays_under_the_bound_on_large_searches(tables):
    p, q = build_extremes(30)
    for _ in range(2):
        out = tight_chain_search(p, q, 5000)
        assert out.found and not out.budget_hit
        assert secondary_bruhat_leq(p, q)
    assert list(tables.values()) == [None]


def test_searches_match_reference_when_the_memo_resets(
        poset_42, poset_221, tables, monkeypatch):
    # room for one small table at a time: queries that alternate between
    # two classes clear the kept tables and build them again each time
    monkeypatch.setattr(order, "MAX_TABLE_BYTES",
                        table_of(poset_42.members[0]).charge + 1000)
    tables.clear()
    rng = random.Random(4221)
    builds = 0
    build = order._build_table

    def counting_build(margins):
        nonlocal builds
        builds += 1
        return build(margins)

    monkeypatch.setattr(order, "_build_table", counting_build)
    for _ in range(100):
        for poset in (poset_42, poset_221):
            a, c = rng.choice(poset.members), rng.choice(poset.members)
            assert secondary_bruhat_leq(a, c) == reference_secondary(a, c)[0]
            if inversion_count(a) <= inversion_count(c):
                out = tight_chain_search(a, c)
                assert (out.found, out.witness) == reference_tight(a, c)[:2]
            assert len(tables) == 1
    assert builds == 200


def test_large_searches_keep_the_small_entries(poset_52, tables):
    # an A(5,2) table is kept; P_30 searches then leave it as it was
    a, c = poset_52.members[0], poset_52.members[-1]
    assert secondary_bruhat_leq(a, c)
    kept = dict(tables)
    p, q = build_extremes(30)
    assert tight_chain_search(p, q, 5000).found
    assert secondary_bruhat_leq(p, q)
    assert all(tables[key] is table for key, table in kept.items())


def test_the_next_table_past_the_bound_clears_the_cache(poset_42, poset_221,
                                                        tables, monkeypatch):
    a42, a221 = poset_42.members[0], poset_221.members[0]
    small = table_of(a42).charge
    # room for the A(4,2) table, not for one more beside it
    monkeypatch.setattr(order, "MAX_TABLE_BYTES", small + 1000)
    assert table_of(a42) is not None and len(tables) == 1
    table = table_of(a221)
    assert table is not None and list(tables.values()) == [table]
    assert table.charge <= order.MAX_TABLE_BYTES


# A non-interchange cover of A(6,3): c is a with rows 0..3 reversed.
COVER_LOW = BinaryMatrix.from_rows(
    ["001110", "110010", "110100", "000111", "101001", "011001"])
COVER_HIGH = BinaryMatrix.from_rows(
    ["000111", "110100", "110010", "001110", "101001", "011001"])


def test_a63_cover_that_no_interchange_gives(tables):
    a, c = COVER_LOW, COVER_HIGH
    assert a.margins() == c.margins() == MarginPair.uniform(6, 3)
    assert (inversion_count(a), inversion_count(c)) == (54, 62)
    assert bruhat_less(a, c)
    # A(6,3) has 297,200 members and no table: both queries search
    assert not secondary_bruhat_leq(a, c)
    out = tight_chain_search(a, c)
    assert not out.found and not out.budget_hit
    assert list(tables.values()) == [None]


# One LtoI step below COVER_LOW: the secondary search reaches COVER_HIGH
# only after backing out of a branch, and meets a state of that branch
# again, so its dead set saves one expansion (8, against 9 without it).
BELOW_COVER = BinaryMatrix.from_rows(
    ["101010", "010110", "110100", "000111", "101001", "011001"])


def test_secondary_search_skips_dead_states():
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
