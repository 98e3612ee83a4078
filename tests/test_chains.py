"""Chain values, the tabulated chains, the recursive constructions, and
the closed-form extremal quantities."""

import pytest

from bruhatchains import chains as chains_module
from bruhatchains import (
    F3,
    F3R,
    J2,
    BinaryMatrix,
    BruhatStep,
    Chain,
    Direction,
    Interchange,
    MalformedChain,
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
    embed,
    extremal_inversions,
    tabulated_chains_5,
    inversion_count,
    reverse_columns,
    submatrix,
    tight_chain_search,
    verify_chain,
    z_matrix,
)


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
        assert first.start == p5 and first.end == z_matrix()
        assert second.start == z_matrix() and second.end == q5

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
        # the lift contributes the n=6 chain, then three embedded copies
        # of the length-16 base chain
        chain = chain_even(8)
        assert chain.length == 48 + 16 * 3 == 96

    def test_round_structure_n9(self):
        # 29 on the trailing block, two mixed rounds of 24, then the even
        # construction of order 6
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


class TestVerifyChain:
    def test_empty_chain(self):
        p4, _ = build_extremes(4)
        rep = verify_chain(Chain(p4, ()), p4, p4)
        assert rep.length == 0 and rep.valid and rep.endpoints_ok
        assert rep.tight  # vacuously

    def test_reports_failing_step(self):
        p4, _ = build_extremes(4)
        bad = Chain(p4, (Interchange(0, 1, 0, 1, Direction.ItoL),))
        rep = verify_chain(bad)
        assert not rep.valid and rep.failing_step == 0

    def test_bad_bruhat_step(self):
        p4, q4 = build_extremes(4)
        down = Chain(q4, (BruhatStep(p4),))
        rep = verify_chain(down)
        assert not rep.valid and rep.failing_step == 0

    @pytest.mark.parametrize(
        "chain", [build_chain(n) for n in range(4, 15)] + [chain_y_to_q5()],
        ids=[f"n{n}" for n in range(4, 15)] + ["y_to_q5"])
    def test_nu_profile_matches_full_recount(self, chain):
        rep = verify_chain(chain)
        assert rep.valid
        assert rep.nu_profile == tuple(
            inversion_count(a) for a in chain.matrices())

    def test_jump_into_another_class(self):
        p4, _ = build_extremes(4)
        first = base_chain_4().steps[0]
        other = BinaryMatrix.from_rows(["1000", "0100", "0010", "0001"])
        rep = verify_chain(Chain(p4, (first, BruhatStep(other))))
        assert not rep.valid and rep.failing_step == 1
        assert len(rep.nu_profile) == 2

    def test_jump_dimension_change_raises(self):
        p4, _ = build_extremes(4)
        p5, _ = build_extremes(5)
        with pytest.raises(MalformedChain):
            verify_chain(Chain(p4, (BruhatStep(p5),)))

    @pytest.mark.parametrize("kernel, chain", [
        ("bruhat_less", chain_y_to_q5()),
        ("_increment", base_chain_4()),
    ], ids=["bruhat_less", "_increment"])
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

    def test_text_roundtrip(self):
        chain = chain_p5_q5()
        again = chain_from_text(chain_to_text(chain))
        assert again == chain

    def test_text_rejects_mixed(self):
        with pytest.raises(MalformedChain):
            chain_to_text(chain_y_to_q5())

    def test_malformed_json(self):
        with pytest.raises(MalformedChain):
            chain_from_json("{not json")
        with pytest.raises(MalformedChain):
            chain_from_json('{"mode": "interchange"}')
