"""The class table behind the order queries, kept in one slot: on every
class that has one, the table gives the verdicts, found flags and
witnesses of the depth-first search it replaces, and the slot keeps to
its rules: it holds the last class of at most 64 cells that was queried,
with its table when the charge fits MAX_TABLE_BYTES or else its
refusal, and a class over 64 cells is neither keyed nor kept.  A class
with no table is searched with one excess array: the byte rule charges
that array once and each state before it is expanded, which covers what
the search holds under tracemalloc, and a query that makes no move
tries none."""

import random
import tracemalloc

import numpy as np
import pytest

from bruhatchains import (
    I2,
    L2,
    BinaryMatrix,
    Chain,
    ClassPoset,
    ClassTooLarge,
    Interchange,
    MarginPair,
    SearchBudgetExceeded,
    build_extremes,
    build_interchange_dag,
    bruhat_less,
    engine,
    inversion_count,
    secondary_bruhat_leq,
    tight_chain_search,
)
from bruhatchains import matrices, order
from bruhatchains.matrices import _flip, _moves, _tight_moves
from bruhatchains.order import _class_table, _require_same_class, _search
from bruhatchains.search import _longest_paths
from reference import reach, sigma
from test_oracles import reference_secondary, reference_tight


@pytest.fixture
def slot():
    """The slot, empty before and after the test."""
    order._SLOT.clear()
    yield order._SLOT
    order._SLOT.clear()


def table_of(a):
    return _class_table(a, _require_same_class(a, a))


def charge_of(margins, table):
    """The byte charge ``_build_table`` gave the table of the class."""
    return order._table_charge(margins.m, margins.n, len(table.index),
                               sum(map(len, table.arcs)))


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


def assert_table_is_the_old_construction(margins):
    """Each member's arcs and steps in the class table against the
    construction the table was once built by: the member's
    ``_tight_moves``, each flipped (``_flip``) and looked up in the
    index."""
    table = order._build_table(margins)
    for bits, v in table.index.items():
        assert table.keys[v] == matrices.pack(
            BinaryMatrix(margins.m, margins.n, bits))
        want = [(table.index[_flip(bits, *q)], Interchange(*q))
                for q in _tight_moves(bits)]
        assert [(w, table.moves[table.keys[v] ^ table.keys[w]])
                for w in table.arcs[v]] == want


def test_table_arcs_are_the_tight_moves(poset_42, poset_52, small_posets):
    for poset in (poset_42, poset_52, *small_posets):
        assert_table_is_the_old_construction(poset.margins)


def test_pulled_reach_is_the_reference(poset_42, poset_52, small_posets):
    # the OR pull's bitsets on the interchange DAG and its tight arcs, and
    # the table built from them, against a reverse pass over arc lists
    for poset in (poset_42, poset_52, *small_posets):
        dag = build_interchange_dag(poset.margins)
        nu, indptr, targets = dag.nu, dag.indptr, dag.targets
        rise = nu[targets] == np.repeat(nu, np.diff(indptr)) + 1
        tight = ClassPoset(dag.margins, dag.keys, nu,
                           np.concatenate(([0], rise.cumsum()))[indptr],
                           targets[rise])
        up, _ = reach(indptr, targets)
        rises, arcs = reach(tight.indptr, tight.targets)
        assert order._reach(dag) == up
        assert order._reach(tight) == rises
        table = order._build_table(poset.margins)
        assert (table.up, table.tight, table.arcs) == (up, rises, arcs)


def test_reach_refuses_a_backward_arc():
    # the arc 1 -> 0 lowers the inversion count: the OR pull names it as
    # the max-plus pull does
    margins = MarginPair.uniform(2, 1)
    poset = ClassPoset(margins, [matrices.pack(I2), matrices.pack(L2)],
                       [0, 1], [0, 0, 1], [0])
    message = r"arc 1 -> 0 does not raise the inversion count \(nu 1 -> 0\)"
    with pytest.raises(ValueError, match=message):
        order._reach(poset)
    with pytest.raises(ValueError, match=message):
        _longest_paths(poset, poset.maximal_indices())


def test_first_query_builds_the_class_table(slot):
    p, q = build_extremes(5)
    assert not slot
    assert tight_chain_search(p, q).found
    (table,) = slot.values()
    assert len(table.index) == 2040
    # later queries on the class read the same table
    assert secondary_bruhat_leq(p, q) and not secondary_bruhat_leq(q, p)
    assert list(slot.values()) == [table] and table_of(q) is table


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
        assert held <= charge_of(margins, table)
    # on the class the bound is sized for, the charge is not far over
    assert charge_of(margins, table) < 1.5 * held


def test_classes_past_the_gate_get_no_table(slot, monkeypatch):
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
    assert list(slot.values()) == [None]
    # 81 cells: refused before it is counted, and not kept
    p9, q9 = build_extremes(9)
    assert secondary_bruhat_leq(p9, q9)
    assert counted == [MarginPair.uniform(6, 2)]
    assert list(slot.values()) == [None]


def test_a_class_whose_arcs_pass_the_bound_gets_no_table(slot,
                                                         monkeypatch):
    # room for A(4,2)'s members, bitsets and moves, none for its 168
    # tight arcs
    monkeypatch.setattr(order, "MAX_TABLE_BYTES",
                        order._table_charge(4, 4, 90, 0))
    p, q = build_extremes(4)
    assert table_of(p) is None
    assert secondary_bruhat_leq(p, q)
    with pytest.raises(SearchBudgetExceeded):
        secondary_bruhat_leq(p, q, node_budget=1)


def test_a_class_too_large_to_count_gets_no_table(slot, monkeypatch):
    # count_class refuses A(4,2) past one split: its queries then search
    monkeypatch.setattr(engine, "MAX_COUNT_SPLITS", 1)
    p, q = build_extremes(4)
    assert table_of(p) is None and list(slot.values()) == [None]
    assert secondary_bruhat_leq(p, q)
    with pytest.raises(SearchBudgetExceeded):
        secondary_bruhat_leq(p, q, node_budget=1)


def test_one_shot_searches_store_nothing(slot):
    # P_12 has 144 cells: its class gets no table
    p, q = build_extremes(12)
    assert secondary_bruhat_leq(p, q)
    assert tight_chain_search(p, q).found
    assert not slot


def test_charge_stays_under_the_bound_on_large_searches(slot):
    p, q = build_extremes(30)
    for _ in range(2):
        out = tight_chain_search(p, q, 5000)
        assert out.found and not out.budget_hit
        assert secondary_bruhat_leq(p, q)
    assert not slot


def test_searches_match_reference_when_the_memo_resets(
        poset_42, poset_221, slot, monkeypatch):
    # the slot holds one class: queries that alternate between two
    # classes drop the kept table and build the other each time
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
            (table,) = slot.values()
            assert len(table.index) == len(poset)
    assert builds == 200


def test_large_searches_keep_the_small_entries(poset_52, slot, monkeypatch):
    # an A(5,2) table is kept; queries on classes over 64 cells then leave
    # the slot as it was, and look up no table of their own
    a, c = poset_52.members[0], poset_52.members[-1]
    assert secondary_bruhat_leq(a, c)
    kept = dict(slot)

    def no_build(margins):
        raise AssertionError("a class over 64 cells was looked up")

    monkeypatch.setattr(order, "_build_table", no_build)
    p, q = build_extremes(30)
    assert tight_chain_search(p, q, 5000).found
    assert secondary_bruhat_leq(p, q)
    for n in (9, 100):
        p, q = build_extremes(n)
        assert secondary_bruhat_leq(p, p) and not secondary_bruhat_leq(q, p)
    assert list(slot) == list(kept)
    assert all(slot[key] is table for key, table in kept.items())


def test_a_query_that_makes_no_move_tries_none(monkeypatch):
    def no_flip(*args):
        raise AssertionError("a move tried")

    monkeypatch.setattr(order, "_flip", no_flip)
    # P_600 has 1,200 ones: a self-query is at its target before any move,
    # and Q_600 does not dominate P_600, which the excess array tells
    p, q = build_extremes(600)
    assert secondary_bruhat_leq(p, p) and secondary_bruhat_leq(q, q)
    assert not secondary_bruhat_leq(q, p)
    out = tight_chain_search(p, p)
    assert out.found and out.witness.length == 0 and out.explored == 0


def search_under_its_peak(monkeypatch, n, generate, budget):
    """The search from P_n to Q_n, run under tracemalloc.  A limit one
    byte under its peak refuses it before it gets there, and one half
    over it admits it: the charge is neither under what the search holds
    nor far over it."""
    p, q = build_extremes(n)
    tables = _require_same_class(p, q)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        found = _search(p, q, tables, generate, budget)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    with monkeypatch.context() as patch:
        patch.setattr(engine, "MAX_ARRAY_BYTES", peak - 1)
        with pytest.raises(ClassTooLarge, match="over the"):
            _search(p, q, tables, generate, budget)
        patch.setattr(engine, "MAX_ARRAY_BYTES", peak + peak // 2)
        assert _search(p, q, tables, generate, budget) == found
    return found


@pytest.mark.parametrize("generate", [_moves, _tight_moves],
                         ids=["secondary", "tight"])
def test_the_search_charge_covers_what_it_holds(monkeypatch, generate):
    for n in (30, 40):
        assert search_under_its_peak(monkeypatch, n, generate,
                                     10**6)[0] is not None


@pytest.mark.slow
@pytest.mark.parametrize("generate", [_moves, _tight_moves],
                         ids=["secondary", "tight"])
def test_the_search_charge_covers_budgeted_searches(monkeypatch, generate):
    # from P_100 and P_200 the n-bit ints of a state weigh more than at
    # P_30 and P_40; 1,000 expansions take each search far short of Q_n
    for n in (100, 200):
        assert search_under_its_peak(monkeypatch, n, generate,
                                     1000) == (None, 1001)


def test_the_search_holds_one_excess_table(monkeypatch):
    # the tight chain from P_40 is 3,040 steps, and 6 MB leaves under 2 KB
    # a step: too little for an excess table of 1,600 lanes per level of
    # the path beside the level's rows and frames, but room for the one
    # table the search keeps and the rows and frames of each state
    p, q = build_extremes(40)
    monkeypatch.setattr(engine, "MAX_ARRAY_BYTES", 6_000_000)
    out = tight_chain_search(p, q, 5000)
    assert out.found and out.witness.length == 3040
    assert secondary_bruhat_leq(p, q)


# A non-interchange cover of A(6,3): c is a with rows 0..3 reversed.
COVER_LOW = BinaryMatrix.from_rows(
    ["001110", "110010", "110100", "000111", "101001", "011001"])
COVER_HIGH = BinaryMatrix.from_rows(
    ["000111", "110100", "110010", "001110", "101001", "011001"])


def test_a63_cover_that_no_interchange_gives(slot):
    a, c = COVER_LOW, COVER_HIGH
    assert a.margins() == c.margins() == MarginPair.uniform(6, 3)
    assert (inversion_count(a), inversion_count(c)) == (54, 62)
    assert bruhat_less(a, c)
    # A(6,3) has 297,200 members and no table: both queries search
    assert not secondary_bruhat_leq(a, c)
    out = tight_chain_search(a, c)
    assert not out.found and not out.budget_hit
    assert list(slot.values()) == [None]


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
