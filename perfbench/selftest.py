"""Self-test of the benchmark harness, on inputs small enough to run in
seconds.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It exits 0 when every check below holds.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def small_chain_inputs() -> dict:
    # Order 9 is odd with (9 - 5) / 2 = 2 Bruhat jumps; order 12 is even.
    return {"orders": (9, 12), "jumps": {9: 2, 12: 0}}


def test_wrong_expectation_is_counted(bc) -> None:
    chk = run.Checker()
    workloads.chains_big(bc, small_chain_inputs(), run.NullTracer(), chk)
    assert chk.attempted > 1 and chk.failed == 0, chk.failures

    wrong = small_chain_inputs()
    wrong["jumps"][12] = 1
    chk = run.Checker()
    workloads.chains_big(bc, wrong, run.NullTracer(), chk)
    assert chk.failed == 1, chk.failures
    assert chk.failures[0]["check"] == "chains_big.n12.jumps", chk.failures


def test_exception_is_counted(bc) -> None:
    chk = run.Checker()
    inputs = {"orders": (3,), "jumps": {3: 0}}  # no chain below order 4
    passes, _ = run.run_passes(workloads.chains_big, bc, inputs, chk, 0.0,
                               run.NullTracer)
    assert passes == [] and chk.failed == 1, chk.failures
    assert "UnsupportedOrder" in chk.failures[0]["error"], chk.failures


def test_caches_empty_before_each_build(bc) -> None:
    # Without clearing, the odd build leaves even chains behind for the
    # next even build to reuse.
    bc.build_chain(9)
    assert bc.chain_even.cache_info().currsize > 0

    seen = []

    class CacheWatch(run.NullTracer):
        def call(self, name, fn, *args):
            if name.startswith("chains.build_chain"):
                seen.append((bc.chain_even.cache_info().currsize,
                             bc.chain_odd.cache_info().currsize))
            return fn(*args)

    chk = run.Checker()
    workloads.chains_big(bc, small_chain_inputs(), CacheWatch(), chk)
    assert seen == [(0, 0), (0, 0)], seen
    assert chk.failed == 0, chk.failures


def test_spans_nest(bc) -> None:
    tr = run.Tracer()
    chk = run.Checker()
    tr.call("pass", workloads.chains_big, bc, small_chain_inputs(), tr, chk)
    names = [span[0] for span in tr.spans]
    assert names[0] == "pass" and tr.spans[0][3] is None, names
    assert all(span[3] == 0 for span in tr.spans[1:]), tr.spans
    assert all(start <= end for _, start, end, _ in tr.spans)
    stages = run.stage_metrics([tr])
    assert stages["chains.build_chain_n61_s"] == 0.0
    assert "chains.build_chain_n9" in names


def test_metric_names_match_benchmark_json(bc) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == units, (key, declared, units)
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.PIPELINES)


def main() -> int:
    bc = run.load_package()
    tests = [value for name, value in globals().items()
             if name.startswith("test_")]
    for test in tests:
        test(bc)
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
