"""The packed class engine behind build_interchange_dag, cross-checked
against the object path: enumerate_class, inversion_count and
find_interchanges/apply_interchange on BinaryMatrix values."""

import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatchains import (
    BinaryMatrix,
    ClassPoset,
    ClassTooLarge,
    InfeasibleMargins,
    Interchange,
    MarginPair,
    apply_interchange,
    build_extremes,
    build_interchange_dag,
    build_poset,
    enumerate_class,
    find_interchanges,
    inversion_count,
    is_maximal_An2,
    is_minimal_An2,
    longest_chain,
    maximal_chain_spectrum,
)
from bruhatchains import canonical_key, engine, enumeration, errors, search
from bruhatchains.matrices import decode, pack
from reference import backtrack_class, searchsorted_arcs, sigma

CLASSES = [
    MarginPair((2, 2, 1), (2, 2, 1)),
    MarginPair.uniform(4, 2),
    MarginPair.uniform(5, 2),
    MarginPair((2, 1, 1, 2), (1, 2, 2, 1)),
    MarginPair((2,), (1, 0, 1)),
    MarginPair((1, 0, 1), (2,)),
    MarginPair((0, 2, 1, 0), (1, 1, 1)),
]


def object_dag(margins):
    """The object-path reference: members sorted stably by inversion count
    from canonical-key order, and each member's interchange targets."""
    members = sorted(backtrack_class(margins), key=canonical_key)
    nu = [inversion_count(a) for a in members]
    order = sorted(range(len(members)), key=nu.__getitem__)
    members = [members[i] for i in order]
    nu = [nu[i] for i in order]
    index = {a: i for i, a in enumerate(members)}
    succ = [{index[apply_interchange(a, t)]
             for t in find_interchanges(a)}
            for a in members]
    return members, nu, succ


def reference_longest_paths(poset, ends=None, pull=False):
    """Member-order DP in plain Python.  Pushing: the longest path length to
    each member from ends (any member when None), -1 where none arrives,
    and its smallest-index predecessor.  Pulling: the longest path length
    from each member to ends, -1 where none leads, and its first arc
    target one shorter."""
    size = len(poset.members)
    dist = [0 if ends is None else -1] * size
    for v in ends or ():
        dist[v] = 0
    step = [-1] * size
    if pull:
        for v in reversed(range(size)):
            for w in poset.succ[v].tolist():
                if dist[w] >= 0 and dist[w] + 1 > dist[v]:
                    dist[v] = dist[w] + 1
                    step[v] = w
        return dist, step
    for v in range(size):
        for w in sorted(poset.succ[v].tolist()):
            if dist[v] >= 0 and dist[v] + 1 > dist[w]:
                dist[w] = dist[v] + 1
                step[w] = v
    return dist, step


@pytest.mark.parametrize("margins", CLASSES, ids=str)
def test_engine_matches_object_path(margins):
    members, nu, succ = object_dag(margins)
    dag = build_interchange_dag(margins)
    assert dag.leq is None
    assert dag.members == members
    assert dag.nu.tolist() == nu
    assert [set(s.tolist()) for s in dag.succ] == succ
    assert len(dag.targets) == sum(len(s) for s in succ)


def test_engine_uses_all_64_bits():
    # the permutation matrices of order 8 fill every bit of the key
    margins = MarginPair.uniform(8, 1)
    dag = build_interchange_dag(margins)
    members = sorted(sorted(backtrack_class(margins), key=canonical_key),
                     key=inversion_count)
    assert len(dag) == 40320
    assert dag.members == members
    assert dag.nu.tolist() == [inversion_count(a) for a in members]
    keys = random.Random(64).sample(dag.keys.tolist(), 2000)
    table = engine.sigma_table(np.array(keys, np.uint64), 8, 8)
    assert table.tolist() == [sigma(decode(key, 8, 8).bits, 8)
                              for key in keys]


@pytest.mark.parametrize("margins", [
    MarginPair((2, 2), (1, 1) + (0,) * 28 + (1, 1)),
    MarginPair((1, 1) + (0,) * 28 + (1, 1), (2, 2)),
], ids=["2x32", "32x2"])
def test_engine_reaches_bits_0_and_63(margins):
    # ones in the first and last cells sit at the key's top and low bits
    m, n = margins.m, margins.n
    keys = engine.enumerate_keys(margins)
    members = [decode(key, m, n) for key in keys.tolist()]
    assert members == sorted(backtrack_class(margins), key=canonical_key)
    assert any(key >> 63 and key & 1 for key in keys.tolist())
    assert engine.inversion_counts(keys, m, n).tolist() == [
        inversion_count(a) for a in members]
    assert engine.sigma_table(keys, m, n).tolist() == [
        sigma(a.bits, n) for a in members]


def test_engine_nu_equals_inversion_count_on_a52():
    margins = MarginPair.uniform(5, 2)
    keys = engine.enumerate_keys(margins)
    nu = engine.inversion_counts(keys, 5, 5)
    members = [decode(key, 5, 5) for key in keys.tolist()]
    assert len(members) == 2040
    assert nu.tolist() == [inversion_count(a) for a in members]


@pytest.mark.parametrize("n, pairs, gaps", [
    (4, 1, {16}), (5, 4, {29}), (6, 4, {46, 47, 48})], ids=["4", "5", "6"])
def test_extremes_are_the_block_structure_members(n, pairs, gaps):
    # and every (minimal, maximal) pair's longest chain is its nu gap, so
    # a tight chain joins it, and the spectrum is the set of the gaps
    dag = build_interchange_dag(MarginPair.uniform(n, 2))
    minima, maxima = dag.minimal_indices(), dag.maximal_indices()
    assert minima == [
        i for i, a in enumerate(dag.members) if is_minimal_An2(a)]
    assert maxima == [
        i for i, a in enumerate(dag.members) if is_maximal_An2(a)]
    assert len(minima) * len(maxima) == pairs
    nu = dag.nu.tolist()
    for q in maxima:
        dist = search._longest_paths(dag, [q]).tolist()
        assert [dist[p] for p in minima] == [nu[q] - nu[p] for p in minima]
    assert {nu[q] - nu[p] for p in minima for q in maxima} == gaps
    assert maximal_chain_spectrum(dag) == gaps


@pytest.mark.parametrize("margins", CLASSES, ids=str)
def test_dp_matches_reference(margins):
    # the witness follows the pulling reference; lengths and the spectrum
    # are checked against the pushing one, so the directions cross-check
    dag = build_interchange_dag(margins)
    dist, step = reference_longest_paths(dag, pull=True)
    assert search._longest_paths(
        dag, dag.maximal_indices()).tolist() == dist
    length, witness = longest_chain(dag)
    start = dist.index(max(dist))
    path = [start]
    while step[path[-1]] != -1:
        path.append(step[path[-1]])
    assert length == dist[start] == max(reference_longest_paths(dag)[0])
    assert witness.matrices() == [dag.members[v] for v in path]
    want = set()
    for p in dag.minimal_indices():
        reach, _ = reference_longest_paths(dag, [p])
        want.update(reach[q] for q in dag.maximal_indices() if reach[q] >= 0)
    assert maximal_chain_spectrum(dag) == want


def test_infeasible_margins():
    with pytest.raises(InfeasibleMargins):
        build_interchange_dag(MarginPair((2, 0), (0, 2)))
    with pytest.raises(InfeasibleMargins):
        build_interchange_dag(MarginPair((2, 2), (3, 1)))


def test_more_than_64_cells_refused():
    with pytest.raises(ClassTooLarge, match="81 cells"):
        build_interchange_dag(MarginPair.uniform(9, 2))


def test_frontier_over_budget_refused(monkeypatch):
    # A(6,2) has 20,610 states after four rows and 67,950 after five, 14
    # bytes each: every partial state completes, so a limit of exactly the
    # fourth frontier passes rows 1-4 and refuses row 5
    monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 20_610 * 14)
    with pytest.raises(ClassTooLarge, match=f"row 5 .* {67_950 * 14} bytes"):
        build_interchange_dag(MarginPair.uniform(6, 2))


def test_arcs_over_budget_refused(monkeypatch):
    # A(5,2) has 26,100 arcs of 4 bytes; its frontier stays under 30 kB
    monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 100_000)
    with pytest.raises(ClassTooLarge, match="interchange arcs"):
        build_interchange_dag(MarginPair.uniform(5, 2))


def test_target_outside_the_class_raises(monkeypatch):
    full = engine.enumerate_keys

    def missing_one(margins):
        return full(margins)[1:]

    monkeypatch.setattr(engine, "enumerate_keys", missing_one)
    with pytest.raises(RuntimeError, match="left the enumerated class"):
        build_interchange_dag(MarginPair.uniform(4, 2))


def test_missing_minimal_member_raises(monkeypatch):
    # P_4 is the source of interchanges but the target of none, so every
    # source left has its target: only the pairing of sources with
    # targets notices that P_4's targets have one source too few
    full = engine.enumerate_keys
    p4 = np.uint64(pack(build_extremes(4)[0]))

    def missing_p4(margins):
        keys = full(margins)
        return keys[keys != p4]

    monkeypatch.setattr(engine, "enumerate_keys", missing_p4)
    with pytest.raises(RuntimeError, match="or a member is missing"):
        build_interchange_dag(MarginPair.uniform(4, 2))


def test_arc_store_is_read_only():
    dag = build_interchange_dag(MarginPair.uniform(4, 2))
    with pytest.raises(ValueError):
        dag.succ[0][0] = 1
    with pytest.raises(ValueError):
        dag.targets[0] = 1
    assert dag.succ is dag.succ


@pytest.mark.parametrize("part", [None, 7, 1])
@pytest.mark.parametrize("build", [build_interchange_dag, build_poset])
def test_arc_rows_iterate_and_index_from_either_end(monkeypatch, build,
                                                    part):
    # iteration takes the bounds of a part of the members at a time
    if part:
        monkeypatch.setattr(enumeration, "_ARC_ROWS_PART", part)
    succ = build(MarginPair.uniform(4, 2)).succ
    size = len(succ)
    rows = list(succ)
    assert len(rows) == size
    assert all(np.array_equal(row, succ[v]) for v, row in enumerate(rows))
    for k in range(1, size + 1):
        assert np.array_equal(succ[-k], succ[size - k])
    for v in (size, -size - 1, np.int32(size)):
        with pytest.raises(IndexError):
            succ[v]


@pytest.mark.parametrize("build", [build_interchange_dag, build_poset])
def test_nu_is_the_engines_read_only_array(monkeypatch, build):
    ranked = engine.ranked_class
    made = []

    def keep(margins):
        made.append(ranked(margins))
        return made[-1]

    monkeypatch.setattr(engine, "ranked_class", keep)
    poset = build(MarginPair.uniform(4, 2))
    assert poset.nu is made[0][1]
    assert poset.nu.dtype == np.int16
    with pytest.raises(ValueError):
        poset.nu[0] = 1


@pytest.mark.parametrize("indptr, targets", [
    ([0], []),              # too short for two members
    ([0, 1, 1], []),        # ends past the targets
    ([1, 1, 1], [1]),       # does not start at 0
    ([0, 1, 0], []),        # decreasing
    ([0, 1, 1], [2]),       # target past the last member
    ([0, 1, 1], [-1]),      # negative target
])
def test_csr_must_describe_arcs_over_members(indptr, targets):
    a, c = _equal_nu_pair()
    with pytest.raises(ValueError, match="CSR"):
        ClassPoset(a.margins(), [pack(a), pack(c)], [1, 1],
                   indptr, targets)


def test_nu_must_count_every_member(poset_42):
    with pytest.raises(ValueError, match="nu holds 85 counts for 90"):
        ClassPoset(poset_42.margins, poset_42.keys, poset_42.nu[:-5],
                   poset_42.indptr, poset_42.targets, poset_42.leq)


def test_leq_must_be_size_by_size(poset_42):
    with pytest.raises(ValueError, match=r"leq is \(3, 3\), not 90 x 90"):
        ClassPoset(poset_42.margins, poset_42.keys, poset_42.nu,
                   poset_42.indptr, poset_42.targets,
                   np.asarray(poset_42.leq)[:3, :3])


def _equal_nu_pair():
    members = list(enumerate_class(MarginPair.uniform(4, 2)))
    by_nu = {}
    for a in members:
        by_nu.setdefault(inversion_count(a), []).append(a)
    return next(group[:2] for group in by_nu.values() if len(group) >= 2)


def test_equal_nu_arc_raises():
    a, c = _equal_nu_pair()
    nu = inversion_count(a)
    poset = ClassPoset(a.margins(), [pack(a), pack(c)],
                       [nu, nu], [0, 1, 1], [1])
    with pytest.raises(ValueError, match=f"arc 0 -> 1 .*nu {nu} -> {nu}"):
        longest_chain(poset)
    with pytest.raises(ValueError, match="arc 0 -> 1"):
        maximal_chain_spectrum(poset)


def test_members_out_of_nu_order_raise():
    a, c = _equal_nu_pair()
    poset = ClassPoset(a.margins(), [pack(a), pack(c)],
                       [2, 1], [0, 0, 0], [])
    with pytest.raises(ValueError, match="not sorted"):
        longest_chain(poset)


def test_full_mode_extremes_match_comparability(poset_52):
    strict = np.asarray(poset_52.leq)
    np.fill_diagonal(strict, False)
    assert poset_52.minimal_indices() \
        == np.flatnonzero(~strict.any(axis=0)).tolist()
    assert poset_52.maximal_indices() \
        == np.flatnonzero(~strict.any(axis=1)).tolist()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dag_and_full_poset_agree_on_all_two_classes(n):
    # the CLI routes every all-two square class to the DAG; on the classes
    # small enough for the full poset both give the same answers
    margins = MarginPair.uniform(n, 2)
    dag, full = build_interchange_dag(margins), build_poset(margins)
    assert dag.members == full.members
    assert dag.nu.tolist() == full.nu.tolist()
    assert longest_chain(dag)[0] == longest_chain(full)[0]
    assert maximal_chain_spectrum(dag) == maximal_chain_spectrum(full)


REFERENCE_CLASSES = [
    *(MarginPair.uniform(n, 2) for n in range(2, 7)),
    *(MarginPair.uniform(n, 1) for n in range(1, 6)),
    # zero-sum rows and columns
    MarginPair((0, 2, 1, 0), (1, 1, 1)),
    MarginPair((2, 0, 1), (1, 0, 1, 1)),
    MarginPair((0, 0), (0, 0, 0)),
    # 1 x n and n x 1, up to the full 64 cells
    MarginPair((3,), (1, 1, 0, 1)),
    MarginPair((1, 1, 0, 1), (3,)),
    MarginPair((32,), (1, 0) * 32),
    MarginPair((0, 1) * 32, (32,)),
]


def reference_members(margins):
    return sorted(backtrack_class(margins), key=canonical_key)


@pytest.mark.parametrize("margins", REFERENCE_CLASSES, ids=str)
def test_engine_members_match_backtracking(margins):
    assert list(enumerate_class(margins)) == reference_members(margins)


def test_engine_members_match_backtracking_on_criterion_9_classes(
        small_posets):
    for poset in small_posets:
        want = reference_members(poset.margins)
        assert list(enumerate_class(poset.margins)) == want
        assert sorted(poset.members, key=canonical_key) == want


@settings(max_examples=300)
@given(st.data())
def test_pack_and_decode_are_inverses(data):
    m = data.draw(st.integers(1, 64))
    n = data.draw(st.integers(1, 64 // m))
    key = data.draw(st.integers(0, (1 << m * n) - 1))
    a = decode(key, m, n)
    assert (a.m, a.n) == (m, n)
    assert pack(a) == key
    assert decode(pack(a), m, n) == a
    # key bit m*n - 1 - (i*n + j) holds cell (i, j)
    assert all(a.get(i, j) == key >> (m * n - 1 - (i * n + j)) & 1
               for i in range(m) for j in range(n))


def test_move_masks_are_the_cells_a_move_flips_on_every_shape():
    # every shape a key holds, 1 x 64 and 64 x 1 (no moves), 2 x 7, 7 x 2
    # and 8 x 8 among them; each move is applied to a member with random
    # cells around its pattern, so its mask is the XOR of the two keys
    shapes = [(m, n) for m in range(1, 65) for n in range(1, 64 // m + 1)]
    assert {(1, 64), (64, 1), (2, 7), (7, 2), (8, 8)} <= set(shapes)
    rng = random.Random(64)
    for m, n in shapes:
        moves = engine.move_masks(m, n)
        quads = [quad for quad, _, _ in moves]
        assert quads == sorted(set(quads))
        assert len(quads) == comb(m, 2) * comb(n, 2)
        for (i, i2, j, j2), src, dst in moves:
            rows = [rng.getrandbits(n) for _ in range(m)]
            rows[i] = rows[i] & ~(1 << j2) | 1 << j
            rows[i2] = rows[i2] & ~(1 << j) | 1 << j2
            a = BinaryMatrix(m, n, tuple(rows))
            b = apply_interchange(a, Interchange(i, i2, j, j2))
            assert pack(b) ^ pack(a) == src | dst
            assert (pack(a) & (src | dst), pack(b) & (src | dst)) == \
                (src, dst)


@pytest.mark.parametrize("margins", CLASSES + REFERENCE_CLASSES, ids=str)
def test_arcs_match_the_search_reference(margins):
    # REFERENCE_CLASSES holds A(6,2)
    keys, _, rank = engine.ranked_class(margins)
    got = engine.interchange_arcs(keys, rank, margins.m, margins.n)
    want = searchsorted_arcs(keys, rank, margins.m, margins.n)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
