"""Chain values, the tabulated chains, the maximum-chain constructions,
and the closed-form extremal quantities."""

import hashlib

import pytest

from bruhatchains import chains as chains_module
from bruhatchains import engine, matrices
from bruhatchains import (
    F3,
    F3R,
    J2,
    BinaryMatrix,
    BruhatStep,
    Chain,
    ClassTooLarge,
    Interchange,
    MalformedChain,
    MarginMismatch,
    PatternMismatch,
    UnsupportedOrder,
    base_chain_4,
    build_chain,
    build_extremes,
    bruhat_leq,
    chain_even,
    chain_from_json,
    chain_from_text,
    chain_odd,
    chain_p5_q5,
    chain_to_json,
    chain_to_text,
    chain_y_to_q5,
    delta,
    direct_sum,
    extremal_inversions,
    tabulated_chains_5,
    inversion_count,
    reverse_columns,
    tight_chain_search,
    verify_chain,
    z_matrix,
)
from bruhatchains.chains import chain_from_json_dict, chain_to_json_dict
from reference import TABLE_P5_TO_Z, TABLE_Z_TO_Q5, embed, submatrix


def antidiagonal_q(n: int) -> BinaryMatrix:
    """Q_n assembled directly from its block-antidiagonal description."""
    zeros = BinaryMatrix(n, n, (0,) * n)
    out = zeros
    if n % 2 == 0:
        blocks = n // 2
        for b in range(blocks):
            rows = [2 * b, 2 * b + 1]
            cols = [n - 2 * b - 2, n - 2 * b - 1]
            out = embed(out, rows, cols, J2)
    else:
        blocks = (n - 3) // 2
        for b in range(blocks):
            rows = [2 * b, 2 * b + 1]
            cols = [n - 2 * b - 2, n - 2 * b - 1]
            out = embed(out, rows, cols, J2)
        out = embed(out, [n - 3, n - 2, n - 1], [0, 1, 2], F3R)
    return out


class TestBuildExtremes:
    def test_n4(self):
        p4, q4 = build_extremes(4)
        assert p4 == direct_sum([J2, J2])
        assert q4 == antidiagonal_q(4)

    def test_n5(self):
        p5, q5 = build_extremes(5)
        assert p5 == direct_sum([J2, F3])
        assert q5 == antidiagonal_q(5)
        assert submatrix(q5, [2, 3, 4], [0, 1, 2]) == F3R

    @pytest.mark.parametrize("n", range(4, 13))
    def test_q_is_column_reversal(self, n):
        p, q = build_extremes(n)
        assert q == reverse_columns(p)
        assert q == antidiagonal_q(n)

    def test_unsupported(self):
        with pytest.raises(UnsupportedOrder):
            build_extremes(3)


class TestTabulatedChains:
    def test_lengths_and_endpoints(self):
        first, second = tabulated_chains_5()
        p5, q5 = build_extremes(5)
        assert first.length == 6
        assert second.length == 23
        assert first.start == p5 and first.matrices()[-1] == z_matrix()
        assert second.start == z_matrix() and second.matrices()[-1] == q5

    def test_tightness(self):
        first, second = tabulated_chains_5()
        assert verify_chain(first).tight
        assert verify_chain(second).tight

    def test_concatenation(self):
        c29 = chain_p5_q5()
        p5, q5 = build_extremes(5)
        assert c29.length == 29
        rep = verify_chain(c29, p5, q5)
        assert rep.valid and rep.endpoints_ok and rep.tight

    def test_replays_the_paper_tables(self):
        # the frozen steps pass through every row of both tables
        rows = TABLE_P5_TO_Z + TABLE_Z_TO_Q5[1:]
        assert chain_p5_q5().matrices() == [BinaryMatrix.from_rows(r)
                                           for r in rows]
        assert z_matrix() == BinaryMatrix.from_rows(TABLE_P5_TO_Z[-1]) \
            == BinaryMatrix.from_rows(TABLE_Z_TO_Q5[0])
        assert chain_y_to_q5().steps[1:] == chain_p5_q5().steps[6:]


class TestBaseChain4:
    def test_frozen_chain(self):
        p4, q4 = build_extremes(4)
        chain = base_chain_4()
        rep = verify_chain(chain, p4, q4)
        assert rep.length == 16
        assert rep.valid and rep.endpoints_ok and rep.tight
        assert rep.nu_profile == tuple(range(2, 19))

    def test_regenerates_identically(self):
        # the frozen data is exactly what the tight search produces
        p4, q4 = build_extremes(4)
        outcome = tight_chain_search(p4, q4)
        assert outcome.found
        assert outcome.witness.steps == base_chain_4().steps


class TestChainYToQ5:
    def test_structure(self):
        chain = chain_y_to_q5()
        assert chain.length == 24
        assert chain.mode == "bruhat"
        assert chain.start == direct_sum([J2, F3R])
        assert inversion_count(chain.start) == 8
        assert isinstance(chain.steps[0], BruhatStep)
        assert bruhat_leq(chain.start, chain.steps[0].target)
        _, q5 = build_extremes(5)
        rep = verify_chain(chain, chain.start, q5)
        assert rep.valid and rep.endpoints_ok and rep.tight


class TestRecursiveConstructions:
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_even(self, n):
        chain = chain_even(n)
        p, q = build_extremes(n)
        rep = verify_chain(chain, p, q)
        assert rep.length == 2 * n * (n - 2)
        assert rep.valid and rep.endpoints_ok and rep.tight
        assert chain.mode == "interchange"

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_odd(self, n):
        chain = chain_odd(n)
        p, q = build_extremes(n)
        rep = verify_chain(chain, p, q)
        assert rep.length == 2 * n * (n - 2) - 1
        assert rep.valid and rep.endpoints_ok and rep.tight

    def test_round_structure_n8(self):
        # rounds 4 and 6 give the n=6 chain, then round 8 places three
        # copies of the length-16 base chain
        chain = chain_even(8)
        assert chain.length == 48 + 16 * 3 == 96

    def test_round_structure_n9(self):
        # 29 on the trailing block, two mixed rounds of 24, then the even
        # rounds of order 6
        chain = chain_odd(9)
        assert chain.length == 29 + 24 * 2 + 48 == 125
        jumps = [k for k, s in enumerate(chain.steps)
                 if isinstance(s, BruhatStep)]
        assert jumps == [29, 29 + 24]

    def test_embedded_steps_leave_host_untouched(self):
        # outside the active window every entry is constant across a round
        chain = chain_even(6)
        mats = chain.matrices()
        rounds = (
            (16, 32, (0, 1, 4, 5), (2, 3, 4, 5)),
            (32, 48, (2, 3, 4, 5), (0, 1, 2, 3)),
        )
        for lo, hi, rows, cols in rounds:
            outside = [(i, j) for i in range(6) for j in range(6)
                       if i not in rows or j not in cols]
            for a, b in zip(mats[lo:hi], mats[lo + 1:hi + 1]):
                for i, j in outside:
                    assert a.get(i, j) == b.get(i, j)

    def test_dispatch(self):
        assert build_chain(6).length == delta(6)
        assert build_chain(7).length == delta(7)
        with pytest.raises(UnsupportedOrder):
            build_chain(3)


# sha256 of chain_to_json(build_chain(n)) as the earlier recursive
# construction emitted it: the one-pass build matches it step for step
_CHAIN_DIGESTS = {
    4: "e5738c1eca354eb20f5e40c6e9a3e27f4be7e00e4d05b5c723f329d01bbd065f",
    5: "27a741ccdeefb353d7529a2a171d290661313d4248cf7434d448ad797126692b",
    6: "c9dab2063e938dd4667b511bb33c0a06e3214623d0b2e66f7e4f4c4c2ddb0c21",
    7: "af8085ef9f2f6b48654de35568495d6380efda9f41acb1f181136259d60cfaa1",
    8: "39db86c99ddedd2af757b7a50314cf808ee25be12ec20c371e9d5a4ca4bd794e",
    9: "5066b79485a99cc3c1cfdd7b53bdf72c0a274819402f197cb8954678315f38fe",
    10: "d58d48fb184196e8fcb427203853b52e7c2450231095145c325953426cb4b8ab",
    11: "3fc36ec0dd28eae59ca3c82b23cd9c160fad837682d2d3e1ed822232bdc9e44c",
    12: "da7547cc240c0b003a659752475007578fd09c0036eabbd603eebfaf14991a5f",
    13: "42927b72fcb2bb9d34cc4ecad358751093f9bef162c355c2132c8824cf99c862",
    14: "3acf7c22b608d8267f6c29b2b135dec1629c0da6399c2bb20dd34ec75684a59f",
    15: "532b6599119479e4cc801269e96d281d819997a0cee8deb885cbb51b838c7a16",
    16: "6f20c3b971514c538636e6f1958c4a63f720d9d90e0bba242dd2852857c42e17",
    17: "59a6520daa2b75b9006dd734d61169a25b57633ba3202d4bc4904d3879d49ea9",
    18: "8cf7f2569ef9d3d8b799d9254227cfe7e4242fac7aad6304999b9d58d7abbea9",
    19: "71843b10c75b809ff2055e62ef55782672bbe2575f5db946fe99f34b5063a956",
    20: "6a5dcf8aa81d860fa95932b4ed5f71e3f61856ac4c15faa874ccdbfb08d3dcd2",
    21: "73d63f5ccec4218dd761c1076736ea1570323ba42cc4e40bc00765225897d98d",
    22: "d8de9221a8d415d45749628916d0e052c49497abc0c844df2056db1fd6ebdf37",
    23: "ce13f808770710f4b9caa9928e1fda3921a5446bcad061afef556d50e54e8618",
    24: "575d78fca8b53b18285a0bbd24c69477717e575ae5a23dd478b79857e3c7c679",
    25: "5b1a92d07a93629c947aeafd717c72580bd1d7533ce4e4e4cbf683193e92a913",
    26: "34dc5aec843dd7e1890139f15c8774b8a2d3b9469e71d9a6a0f3ca38ad41a537",
    27: "1b88efd0af9066c9d224e90506825d6b14174890265715035ff819ebd3c5e0bc",
    28: "a0498ef2b5bde838f196850c9d11bfbbdbefc5674eaf320441c50447f7fe67b3",
    29: "a22e48245e34daedd141efe8ebaa5c1e82c79807fcffcb2faa5377ddf715924a",
    30: "2b16ad93f15b5f32a485d346ace6a5b2eaf73a51450d5a5e27cb064bad7ab1d6",
    31: "660c9571e861cf733c077c0c97bda6fedf42716b1ca5e9b6ee4e34d32f29bccd",
    32: "76289226cca24b78ede026a4abd473b46a6ea6ddb4ee30f1f444167e7723cc6a",
    33: "c1167ee12b869f4d8f48b66aef01c9e4d67adf9cd37597b070cb044f0b288bd8",
    34: "c8da55d93c1847712b26b16875f6a73aa67a1977767a96fd3de82783f0b8df07",
    35: "d1fad8d4e675ed0220d237eef195445d91355b41814fdf42eddcd90753fbe9c8",
    36: "adabc6666580333ee3b69344e301949d807864afb6c72eecf67d41405c937457",
    37: "8c49d92d83ec022da26d177c6c737376e3ada42230f3f17a7aee5ded4995bf71",
    38: "2b077ffccc09b5fe848bc2e7bd2ace371579267b0c9450e5af8db66684aca01b",
    39: "40d329c4059e5b7e78f142f11ebdf7016d72867fa8842e5fd4be6f2104d30579",
    40: "a6f41550844cb42a0e3f5833a612e08aa86d946ed3fde8164164dced0b2e1e95",
    61: "069325a5e70e0593b70894eed22da1706068b6a3a231aee08e9f3afe7c4c2d96",
    100: "f05402f4a18663d65e3cfadcace88e465b50690fc378f5009e8b85e1f44ef067",
}


class TestOnePassBuild:
    @pytest.mark.parametrize("n", sorted(_CHAIN_DIGESTS))
    def test_chain_json_is_pinned(self, n):
        text = chain_to_json(build_chain(n))
        assert hashlib.sha256(text.encode()).hexdigest() == _CHAIN_DIGESTS[n]

    @pytest.mark.parametrize("n", [10, 11, 61])
    def test_the_build_replays_and_orders_nothing(self, monkeypatch, n):
        # the build writes the frozen sub-chains' steps unchecked: no
        # replay and no order table (the odd orders' jumps included);
        # verify_chain and the pinned digests check what it wrote
        replays, tables = [], []
        replay, table = chains_module._replay, matrices._OrderTable

        def counting_replay(*args):
            replays.append(args)
            return replay(*args)

        def counting_table(*fields):
            tables.append(fields)
            return table(*fields)

        monkeypatch.setattr(chains_module, "_replay", counting_replay)
        monkeypatch.setattr(matrices, "_OrderTable", counting_table)
        chain_even.cache_clear()
        chain_odd.cache_clear()
        chain = build_chain(n)
        assert replays == [] and tables == []
        text = chain_to_json(chain)
        assert hashlib.sha256(text.encode()).hexdigest() == _CHAIN_DIGESTS[n]

    def test_caches_hold_one_chain(self):
        # a repeated build is served from the cache, but a process that
        # builds many orders holds only the last chain of each parity
        for n in range(4, 31):
            assert build_chain(n) is build_chain(n)
        assert chain_even.cache_info().currsize <= 1
        assert chain_odd.cache_info().currsize <= 1

    def test_order_past_the_byte_limit_refused(self):
        # 837 is the largest order whose steps fit the limit
        assert delta(837) * chains_module._STEP_BYTES \
            <= engine.MAX_ARRAY_BYTES
        with pytest.raises(ClassTooLarge, match="order-838 chain"):
            build_chain(838)


@pytest.mark.parametrize("build, n", [
    (chain_even, 2), (chain_even, 7), (chain_odd, 3), (chain_odd, 6),
    (extremal_inversions, 3),
])
def test_orders_outside_a_construction_refused(build, n):
    with pytest.raises(UnsupportedOrder):
        build(n)


class TestClosedForms:
    def test_delta_small(self):
        assert delta(2) == 0
        assert delta(3) == 3
        assert delta(4) == 16
        assert delta(5) == 29
        assert delta(6) == 48
        with pytest.raises(UnsupportedOrder):
            delta(1)

    @pytest.mark.parametrize("n", range(4, 41))
    def test_extremal_inversions_match_count(self, n):
        nu_p, nu_q = extremal_inversions(n)
        p, q = build_extremes(n)
        assert nu_p == inversion_count(p)
        assert nu_q == inversion_count(q)
        assert delta(n) == nu_q - nu_p

    def test_known_values(self):
        assert extremal_inversions(4) == (2, 18)
        assert extremal_inversions(5) == (3, 32)


def _failing_y_to_q5() -> list:
    """chain_y_to_q5 made to fail three ways, with the failing step and
    reason verify_chain reports: an interchange after the jump that
    repeats the one before it, which left L2 where it needs I2; a jump
    from Q_5 back down to Z, after all 24 steps; and a jump into the
    class of the identity, after the first jump and two interchanges."""
    chain = chain_y_to_q5()
    start, steps = chain.start, chain.steps
    other = BinaryMatrix.from_rows(
        ["10000", "01000", "00100", "00010", "00001"])
    return [
        (Chain(start, steps[:5] + steps[4:5] + steps[6:]), 5,
         "pattern_mismatch"),
        (Chain(start, steps + (BruhatStep(z_matrix()),)), 24,
         "not_strict_ascent"),
        (Chain(start, steps[:3] + (BruhatStep(other),) + steps[3:]), 3,
         "other_class"),
    ]


class TestVerifyChain:
    def test_empty_chain(self):
        p4, _ = build_extremes(4)
        rep = verify_chain(Chain(p4, ()), p4, p4)
        assert rep.length == 0 and rep.valid and rep.endpoints_ok
        assert rep.tight  # vacuously

    def test_reports_failing_step(self):
        p4, _ = build_extremes(4)
        bad = Chain(p4, (Interchange(0, 1, 0, 1),))
        rep = verify_chain(bad)
        assert not rep.valid and rep.failing_step == 0
        assert rep.failing_reason == "pattern_mismatch"

    def test_a_step_undoing_the_last_is_a_pattern_mismatch(self):
        # every step is ItoL: the first step of the base chain, taken
        # again, finds L2 where it left it
        p4, _ = build_extremes(4)
        first = base_chain_4().steps[0]
        rep = verify_chain(Chain(p4, (first, first)))
        assert not rep.valid and rep.failing_step == 1
        assert rep.failing_reason == "pattern_mismatch"

    @pytest.mark.parametrize("quad", [
        (-1, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, -1, 1)])
    def test_out_of_order_quads_are_a_pattern_mismatch(self, quad):
        # nothing is checked when an Interchange is built: a negative row
        # must not read from the far end, nor a reversed span count
        p4, _ = build_extremes(4)
        for start in (p4, BinaryMatrix.from_rows(["01", "10"])):
            rep = verify_chain(Chain(start, (Interchange(*quad),)))
            assert not rep.valid and rep.failing_step == 0
            assert rep.failing_reason == "pattern_mismatch"
            assert rep.nu_profile == (inversion_count(start),)

    def test_bad_bruhat_step(self):
        p4, q4 = build_extremes(4)
        down = Chain(q4, (BruhatStep(p4),))
        rep = verify_chain(down)
        assert not rep.valid and rep.failing_step == 0
        assert rep.failing_reason == "not_strict_ascent"

    def test_valid_chain_has_no_reason(self):
        rep = verify_chain(base_chain_4())
        assert rep.valid and rep.failing_step is None
        assert rep.failing_reason is None

    @pytest.mark.parametrize(
        "chain, failing, reason",
        [(build_chain(n), None, None) for n in range(4, 42)]
        + [(chain_y_to_q5(), None, None)] + _failing_y_to_q5(),
        ids=[f"n{n}" for n in range(4, 42)] + ["y_to_q5"]
        + ["corrupt_interchange", "jump_down", "jump_to_other_class"])
    def test_nu_profile_matches_full_recount(self, chain, failing, reason):
        # the odd orders jump, and the column view is rebuilt after each;
        # a failing chain's profile stops before its failing step, and
        # the replay leaves the rows and their column view at that state
        rep = verify_chain(chain)
        assert rep.valid is (failing is None)
        assert (rep.failing_step, rep.failing_reason) == (failing, reason)
        states = Chain(chain.start, chain.steps[:failing]).matrices()
        assert rep.nu_profile == tuple(inversion_count(a) for a in states)
        rows = list(chain.start.bits)
        cols = matrices._columns(rows, chain.start.n)
        replay = chains_module._replay(rows, cols, chain.steps)
        if failing is None:
            assert len(list(replay)) == chain.length
        else:
            with pytest.raises((PatternMismatch, MarginMismatch)):
                for _ in replay:
                    pass
        assert tuple(rows) == states[-1].bits
        assert cols == matrices._columns(rows, chain.start.n)

    def test_jump_targets_keep_no_order_table(self):
        # the jump checks and the nu recounts read fresh copies, so the
        # 28 jump targets of a kept chain hold no table
        chain = chain_odd.__wrapped__(61)
        assert verify_chain(chain).valid
        jumps = [s.target for s in chain.steps if isinstance(s, BruhatStep)]
        assert len(jumps) == 28
        assert all(target._table is None for target in jumps)

    def test_a_jump_builds_two_order_tables(self, monkeypatch):
        # the ascent check orders copies of the state and the target, and
        # the target's nu is read off its copy's table: 2 tables a jump,
        # and one each for the start and the final recount
        built = []
        table = matrices._OrderTable

        def counting(*fields):
            built.append(fields)
            return table(*fields)

        chain = chain_from_json(chain_to_json(build_chain(61)))
        jumps = [s.target for s in chain.steps if isinstance(s, BruhatStep)]
        monkeypatch.setattr(matrices, "_OrderTable", counting)
        rep = verify_chain(chain)
        assert rep.valid and rep.tight and len(built) == 2 * 28 + 2
        assert rep.nu_profile == tuple(
            inversion_count(a) for a in chain.matrices())
        assert all(target._table is None for target in jumps)

    @pytest.mark.parametrize("end", ["tabled", "bare", "none"])
    def test_the_recount_guards_the_increments(self, monkeypatch, end):
        # an increment one too many is caught by the full recount, whether
        # it reads the expected end's kept table, builds that table, or
        # builds one for a fresh copy of the final state
        _, q4 = build_extremes(4)
        inversion_count(q4)
        bare = BinaryMatrix(4, 4, q4.bits)
        assert q4._table is not None and bare._table is None
        expected = {"tabled": q4, "bare": bare, "none": None}[end]
        take = chains_module._take
        monkeypatch.setattr(chains_module, "_take",
                            lambda *args: take(*args) + 1)
        with pytest.raises(RuntimeError, match="full recount"):
            verify_chain(base_chain_4(), None, expected)

    def test_a_tabled_end_saves_one_order_table(self, monkeypatch):
        # the witness starts at p4 and ends at q4, both tabled by the
        # search: with q4 as expected_end the recount reads q4's table,
        # without it the final state is a fresh copy that builds its own
        p4, q4 = build_extremes(4)
        witness = tight_chain_search(p4, q4).witness
        assert q4._table is not None
        built = []
        table = matrices._OrderTable

        def counting(*fields):
            built.append(fields)
            return table(*fields)

        monkeypatch.setattr(matrices, "_OrderTable", counting)
        bare = verify_chain(witness)
        fresh_end = len(built)
        matched = verify_chain(witness, p4, q4)
        assert len(built) - fresh_end == fresh_end - 1
        assert matched == bare
        assert matched.valid and matched.tight and matched.endpoints_ok

    def test_a_rise_of_two_is_not_tight(self):
        p4, _ = build_extremes(4)
        rep = verify_chain(Chain(p4, (Interchange(1, 2, 0, 2),)))
        assert rep.valid and rep.nu_profile == (2, 4)
        assert rep.tight is False

    def test_a_chain_failing_after_rises_of_one_is_not_tight(self):
        p4, _ = build_extremes(4)
        steps = base_chain_4().steps[:3] + (Interchange(0, 1, 0, 1),)
        rep = verify_chain(Chain(p4, steps))
        assert not rep.valid and rep.failing_step == 3
        assert rep.nu_profile == (2, 3, 4, 5)
        assert rep.tight is False

    def test_a_jump_that_raises_nu_by_one_stays_tight(self):
        rep = verify_chain(chain_y_to_q5())
        assert rep.valid and rep.nu_profile[1] - rep.nu_profile[0] == 1
        assert rep.tight is True

    def test_jump_into_another_class(self):
        p4, _ = build_extremes(4)
        first = base_chain_4().steps[0]
        other = BinaryMatrix.from_rows(["1000", "0100", "0010", "0001"])
        rep = verify_chain(Chain(p4, (first, BruhatStep(other))))
        assert not rep.valid and rep.failing_step == 1
        assert rep.failing_reason == "other_class"
        assert len(rep.nu_profile) == 2

    def test_jump_dimension_change_raises(self):
        p4, _ = build_extremes(4)
        p5, _ = build_extremes(5)
        with pytest.raises(MalformedChain):
            verify_chain(Chain(p4, (BruhatStep(p5),)))

    def test_a_plain_tuple_step_is_malformed(self):
        # a quad is a step only as an Interchange
        p4, _ = build_extremes(4)
        chain = Chain(p4, (tuple(base_chain_4().steps[0]),))
        with pytest.raises(MalformedChain, match="step 0: unknown step type"):
            verify_chain(chain)

    @pytest.mark.parametrize("kernel, chain", [
        ("bruhat_less", chain_y_to_q5()),
        ("_take", base_chain_4()),
    ], ids=["bruhat_less", "_take"])
    def test_kernel_bug_propagates(self, monkeypatch, kernel, chain):
        # a fault in a kernel is not an invalid step
        def broken(*args):
            raise ZeroDivisionError("kernel bug")

        monkeypatch.setattr(chains_module, kernel, broken)
        with pytest.raises(ZeroDivisionError):
            verify_chain(chain)

    def test_endpoint_mismatch(self):
        p4, q4 = build_extremes(4)
        rep = verify_chain(Chain(p4, ()), p4, q4)
        assert rep.valid and not rep.endpoints_ok


class TestSerialization:
    def test_json_roundtrip_interchange(self):
        chain = base_chain_4()
        again = chain_from_json(chain_to_json(chain))
        assert again == chain

    def test_json_roundtrip_mixed(self):
        chain = chain_odd(7)
        again = chain_from_json(chain_to_json(chain))
        assert again.start == chain.start
        assert again.steps == chain.steps
        assert again.mode == "bruhat"

    @pytest.mark.parametrize("n", [12, 13])
    def test_equal_steps_share_one_interchange(self, n):
        built = build_chain(n)
        loaded = chain_from_json(chain_to_json(built))
        assert loaded == built and loaded.steps == built.steps
        for chain in (built, loaded):
            moves = [s for s in chain.steps if isinstance(s, Interchange)]
            quads = set(moves)
            assert len(quads) < len(moves)
            assert len({id(s) for s in moves}) == len(quads)

    def test_text_roundtrip(self):
        chain = chain_p5_q5()
        again = chain_from_text(chain_to_text(chain))
        assert again == chain

    def test_text_rejects_mixed(self):
        with pytest.raises(MalformedChain):
            chain_to_text(chain_y_to_q5())

    @pytest.mark.parametrize("steps", [
        [[-1, 0, 0, 1]], [[1, 0, 0, 1]], [[0, 1, 1, 0]]])
    def test_out_of_order_json_steps_refused(self, steps):
        data = chain_to_json_dict(Chain(build_extremes(4)[0], ()))
        with pytest.raises(MalformedChain) as err:
            chain_from_json_dict({**data, "steps": steps})
        assert str(err.value) \
            == "steps[0]: interchange needs i < i2 and j < j2"

    def test_out_of_order_text_step_refused(self):
        with pytest.raises(MalformedChain) as err:
            chain_from_text("10\n01\n\n1 0 0 1\n")
        assert str(err.value) == "interchange needs i < i2 and j < j2"

    def test_malformed_json(self):
        with pytest.raises(MalformedChain):
            chain_from_json("{not json")
        with pytest.raises(MalformedChain):
            chain_from_json('{"mode": "interchange"}')


class TestExtremesByteLimit:
    def test_order_past_the_byte_limit_refused(self):
        # 6426 is the largest order whose n x n cells fit the limit
        assert 6426 ** 2 * chains_module._CELL_BYTES <= engine.MAX_ARRAY_BYTES
        with pytest.raises(ClassTooLarge, match="6427x6427 extremes"):
            build_extremes(6427)
