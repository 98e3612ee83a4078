"""Acceptance gate: one test per criterion, each printing a pass/fail
line."""

import random
import resource
import time

import numpy as np
import pytest

from bruhatchains import (
    BinaryMatrix,
    MarginPair,
    apply_interchange,
    build_chain,
    build_extremes,
    build_interchange_dag,
    bruhat_verdict,
    cumulative_sums,
    delta,
    extremal_inversions,
    tabulated_chains_5,
    find_interchanges,
    interchange_increment,
    inversion_count,
    longest_chain,
    maximal_chain_spectrum,
    monotonicity_check,
    secondary_bruhat_leq,
    tight_chain_search,
    verify_chain,
    z_matrix,
)
from bruhatchains import engine
from bruhatchains.matrices import pack
from reference import (
    backtrack_class,
    longest_chain_between,
    ltoi_moves,
    strict_pairs,
    undo,
)


def _report(name: str, ok: bool, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} {name} ({time.monotonic() - started:.2f}s)")
    assert ok, name


def test_criterion_1_longest_chain_matches_formula(poset_42, poset_52):
    started = time.monotonic()
    ok = (longest_chain(poset_42)[0] == 16 == delta(4)
          and longest_chain(poset_52)[0] == 29 == delta(5))
    _report("criterion 1: brute-force longest chains equal the formula",
            ok, started)


def test_criterion_2_constructions_achieve_bound():
    started = time.monotonic()
    ok = True
    for n in range(4, 21):
        p, q = build_extremes(n)
        rep = verify_chain(build_chain(n), p, q)
        ok &= (rep.valid and rep.endpoints_ok and rep.tight
               and rep.length == delta(n))
    _report("criterion 2: constructed chains reach delta(n) for n=4..20",
            ok, started)


def test_criterion_3_closed_forms():
    started = time.monotonic()
    ok = True
    for n in range(4, 41):
        nu_p, nu_q = extremal_inversions(n)
        p, q = build_extremes(n)
        ok &= nu_p == inversion_count(p)
        ok &= nu_q == inversion_count(q)
        ok &= delta(n) == nu_q - nu_p
    _report("criterion 3: closed-form inversion counts for n=4..40",
            ok, started)


def test_criterion_4_tabulated_chain_fidelity():
    started = time.monotonic()
    first, second = tabulated_chains_5()
    p5, q5 = build_extremes(5)
    rep1 = verify_chain(first, p5, z_matrix())
    rep2 = verify_chain(second, z_matrix(), q5)
    ok = (rep1.length == 6 and rep1.valid and rep1.endpoints_ok
          and rep1.tight
          and rep2.length == 23 and rep2.valid and rep2.endpoints_ok
          and rep2.tight)
    _report("criterion 4: tabulated chains replay at lengths 6 and 23",
            ok, started)


def test_criterion_5_increment_and_sigma_rectangle():
    started = time.monotonic()
    rng = random.Random(20240)
    ok = True
    members = 0
    for n, count in ((4, 3000), (5, 3000), (6, 2000), (7, 1000), (8, 1000)):
        cur, _ = build_extremes(n)
        for _ in range(count):
            ups = find_interchanges(cur)
            downs = ltoi_moves(cur)
            nu = inversion_count(cur)
            sigma = cumulative_sums(cur)
            for t in ups:
                gain = interchange_increment(cur, t)
                nxt = apply_interchange(cur, t)
                ok &= gain >= 1
                ok &= inversion_count(nxt) - nu == gain
                after = cumulative_sums(nxt)
                for k in range(n):
                    row_before = sigma[k]
                    row_after = after[k]
                    if t.i <= k < t.i2:
                        ok &= row_after[:t.j] == row_before[:t.j]
                        ok &= row_after[t.j2:] == row_before[t.j2:]
                        ok &= all(a - b == -1 for a, b in zip(
                            row_after[t.j:t.j2], row_before[t.j:t.j2]))
                    else:
                        ok &= row_after == row_before
            members += 1
            t = rng.choice(ups + downs)
            cur = undo(cur, t) if t in downs else apply_interchange(cur, t)
    assert members == 10_000
    _report("criterion 5: increment formula and sigma rectangle on 1e4 "
            "random members", ok, started)


def test_criterion_6_order_equivalence(poset_42, poset_52):
    started = time.monotonic()
    ok = True
    for a in range(len(poset_42)):
        for c in range(len(poset_42)):
            ok &= secondary_bruhat_leq(
                poset_42.members[a], poset_42.members[c]) \
                == bool(poset_42.leq[a, c])
    rng = random.Random(99)
    size = len(poset_52)
    for _ in range(100_000):
        a, c = rng.randrange(size), rng.randrange(size)
        ok &= secondary_bruhat_leq(
            poset_52.members[a], poset_52.members[c]) \
            == bool(poset_52.leq[a, c])
    for a, c in poset_52.cover_pairs():
        ok &= secondary_bruhat_leq(poset_52.members[a], poset_52.members[c])
    _report("criterion 6: secondary order coincides with Bruhat order on "
            "all-two classes of order 4 and 5", ok, started)


def test_criterion_7_small_counterexample_class(poset_221):
    started = time.monotonic()
    a1 = BinaryMatrix.from_rows(["110", "110", "001"])
    a4 = BinaryMatrix.from_rows(["101", "110", "010"])
    a5 = BinaryMatrix.from_rows(["011", "110", "100"])
    ok = len(poset_221) == 5
    ok &= sum(1 for _ in strict_pairs(poset_221)) == 9
    ok &= longest_chain_between(
        poset_221, poset_221.members.index(a1),
        poset_221.members.index(a5)) == 3
    outcome = tight_chain_search(a4, a5)
    ok &= not outcome.found and not outcome.budget_hit
    ok &= inversion_count(a5) - inversion_count(a4) == 3
    _report("criterion 7: five-member class reproduces its Bruhat graph "
            "and refutes tightness", ok, started)


def test_criterion_8_incomparability_example():
    started = time.monotonic()
    a = BinaryMatrix.from_rows(["1001", "1100", "0110", "0011"])
    c = BinaryMatrix.from_rows(["0110", "1100", "1001", "0011"])
    sa, sc = cumulative_sums(a), cumulative_sums(c)
    verdict = bruhat_verdict(a, c)
    ok = (inversion_count(a) == 5 and inversion_count(c) == 7
          and sa[0][0] == 1 and sc[0][0] == 0
          and sa[0][2] == 1 and sc[0][2] == 2
          and not verdict.leq and not verdict.geq)
    _report("criterion 8: incomparable pair with inversion gap", ok, started)


def test_criterion_9_monotonicity_sweep(poset_221, poset_42, poset_52,
                                       small_posets):
    started = time.monotonic()
    ok = True
    for poset in (poset_221, poset_42, poset_52, *small_posets):
        ok &= monotonicity_check(poset).violations == []
    swept = len(small_posets)
    assert swept > 1000
    _report(f"criterion 9: no monotonicity violation in {swept + 3} "
            "classes with margins at most 2", ok, started)


def test_criterion_10_order_six_class(dag_62):
    started = time.monotonic()
    ok = longest_chain(dag_62)[0] == 48
    ok &= maximal_chain_spectrum(dag_62) == {46, 47, 48}
    # the class has exactly two block-structure minimal members
    from bruhatchains import is_minimal_An2

    ok &= sum(1 for a in dag_62.members if is_minimal_An2(a)) == 2
    _report("criterion 10: order-6 class longest chain and spectrum",
            ok, started)


@pytest.mark.slow
def test_order_seven_class_longest_chain(monkeypatch):
    started = time.monotonic()
    margins = MarginPair.uniform(7, 2)
    reference = backtrack_class(margins)
    want = np.sort(np.fromiter(map(pack, reference), np.uint64,
                               len(reference)))
    del reference
    reference_s = time.monotonic() - started

    # time each engine stage inside the one build the CLI runs
    timers, results = {}, {}

    def timed(name, stage):
        def run(*args):
            begun = time.monotonic()
            results[name] = stage(*args)
            timers[name] = time.monotonic() - begun
            return results[name]
        return run

    for name, stage in (("enumeration", "enumerate_keys"),
                        ("nu", "inversion_counts"),
                        ("arcs", "interchange_arcs")):
        monkeypatch.setattr(engine, stage, timed(name, getattr(engine, stage)))
    timed("build", build_interchange_dag)(margins)
    dag = results.pop("build")
    ok = bool((results.pop("enumeration") == want).all())
    del want, results
    timed_at = time.monotonic()
    length = longest_chain(dag)[0]
    longest_s = time.monotonic() - timed_at
    timed_at = time.monotonic()
    spectrum = sorted(maximal_chain_spectrum(dag))
    spectrum_s = time.monotonic() - timed_at
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the spectrum is recorded, not asserted: nothing predicts it
    print(f"A(7,2): {len(dag)} members, {len(dag.targets)} arcs; reference "
          f"backtracking {reference_s:.1f}s; enumeration "
          f"{timers['enumeration']:.1f}s, nu {timers['nu']:.1f}s, arcs "
          f"{timers['arcs']:.1f}s, build {timers['build']:.1f}s; longest "
          f"{length} in {longest_s:.1f}s; spectrum {spectrum} in "
          f"{spectrum_s:.1f}s; peak RSS {peak_mb:.0f} MB")
    ok &= len(dag) == 3_110_940 and length == 69 == delta(7)
    _report("A(7,2): OEIS A001499 size, keys equal to the reference "
            "backtracking, and longest chain delta(7)", ok, started)
