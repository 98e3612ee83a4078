"""The three benchmark workloads, their seeded inputs and the kernel probes.

Each pipeline calls the package's public functions in the order the CLI
commands do, wraps every call into a package layer in ``tr.call`` (a span
when tracing, a plain call otherwise) and checks every result through
``chk``.  A pipeline returns the counts it observed and the matrices the
kernel probes sample from.
"""

from __future__ import annotations

import random
from time import perf_counter

ORACLE_PAIRS = 20_000
# A 100x100 state costs find_interchanges about 40 ms, so the chain sample
# is smaller than the class samples.
KERNEL_SAMPLE = {"sweep_a6": 10_000, "oracle_a5": 10_000, "chains_big": 250}

# Class sizes of A(n,2): OEIS A001499.
A001499 = {5: 2040, 6: 67950}
A62_INTERCHANGE_ARCS = 1_447_200
A52_COVER_ARCS = 8220


def delta(n: int) -> int:
    """The paper's maximum chain length for A(n,2), n >= 4, written out
    here so the checks do not rest on the package's own ``delta``."""
    return 2 * n * (n - 2) - n % 2


def make_inputs(workload: str, seed: int, bc) -> dict:
    """Seeded inputs; the same seed gives the same inputs."""
    if workload == "sweep_a6":
        return {"margins": bc.MarginPair.uniform(6, 2)}
    if workload == "chains_big":
        # Odd orders carry (n - 5) / 2 Bruhat jumps, even orders none.
        return {"orders": (61, 100), "jumps": {61: 28, 100: 0}}
    rng = random.Random(seed)
    size = A001499[5]
    pairs = [(rng.randrange(size), rng.randrange(size))
             for _ in range(ORACLE_PAIRS)]
    return {"margins": bc.MarginPair.uniform(5, 2), "pairs": pairs}


def sweep_a6(bc, inp, tr, chk):
    """`longest --n 6` then `spectrum --n 6`, over one interchange DAG."""
    dag = tr.call("enumeration.build_interchange_dag",
                  bc.build_interchange_dag, inp["margins"])
    members = len(dag.members)
    arcs = sum(len(s) for s in dag.succ)
    chk.check("sweep_a6.members", members, A001499[6])
    chk.check("sweep_a6.arcs", arcs, A62_INTERCHANGE_ARCS)
    length, witness = tr.call("search.longest_chain", bc.longest_chain, dag)
    chk.check("sweep_a6.longest", length, delta(6))
    chk.check("sweep_a6.witness_length", witness.length, delta(6))
    spectrum = tr.call("search.maximal_chain_spectrum",
                       bc.maximal_chain_spectrum, dag)
    chk.check("sweep_a6.spectrum", sorted(spectrum), [46, 47, 48])
    counts = {"enumeration.members": members, "enumeration.arcs": arcs}
    return counts, dag.members


def chains_big(bc, inp, tr, chk):
    """`chain build --n N | chain verify -` for each order, against P_n, Q_n."""
    steps = 0
    chain = None
    for n in inp["orders"]:
        # chain_odd(n) fills chain_even(n - 3), which a later even build
        # would reuse: clear both so each build pays what the CLI pays.
        bc.chain_even.cache_clear()
        bc.chain_odd.cache_clear()
        chk.check(f"chains_big.n{n}.cache_empty",
                  (bc.chain_even.cache_info().currsize,
                   bc.chain_odd.cache_info().currsize), (0, 0))
        chain = tr.call(f"chains.build_chain_n{n}", bc.build_chain, n)
        text = tr.call(f"chains.chain_to_json_n{n}", bc.chain_to_json, chain)
        loaded = tr.call(f"chains.chain_from_json_n{n}",
                         bc.chain_from_json, text)
        chk.check(f"chains_big.n{n}.round_trip", loaded == chain, True)
        p, q = tr.call("chains.build_extremes", bc.build_extremes, n)
        report = tr.call(f"chains.verify_chain_n{n}",
                         bc.verify_chain, loaded, p, q)
        chk.check(f"chains_big.n{n}.valid", report.valid, True)
        chk.check(f"chains_big.n{n}.tight", report.tight, True)
        chk.check(f"chains_big.n{n}.endpoints", report.endpoints_ok, True)
        chk.check(f"chains_big.n{n}.length", report.length, delta(n))
        chk.check(f"chains_big.n{n}.nu_ends",
                  (report.nu_profile[0], report.nu_profile[-1]),
                  ((n + 1) // 2, (4 * n * n - 7 * n) // 2))
        jumps = sum(isinstance(s, bc.BruhatStep) for s in chain.steps)
        chk.check(f"chains_big.n{n}.jumps", jumps, inp["jumps"][n])
        steps += chain.length
    return {"chains.steps": steps}, chain


def oracle_a5(bc, inp, tr, chk):
    """The paper's oracles cross-checked on A(5,2)."""
    poset = tr.call("enumeration.build_poset", bc.build_poset, inp["margins"])
    members, nu = poset.members, poset.nu
    covers = poset.cover_pairs()
    chk.check("oracle_a5.members", len(members), A001499[5])
    chk.check("oracle_a5.cover_arcs", len(covers), A52_COVER_ARCS)
    mono = tr.call("search.monotonicity_check", bc.monotonicity_check, poset)
    chk.check("oracle_a5.violations", len(mono.violations), 0)
    length, _ = tr.call("search.longest_chain", bc.longest_chain, poset)
    chk.check("oracle_a5.longest", length, delta(5))
    spectrum = tr.call("search.maximal_chain_spectrum",
                       bc.maximal_chain_spectrum, poset)
    chk.check("oracle_a5.spectrum", sorted(spectrum), [delta(5)])

    # Seeded indices address members in the benchmark's own order, so the
    # pairs do not depend on how the package sorts the class.
    by_bits = sorted(range(len(members)), key=lambda i: members[i].bits)
    queries = queries_leq = 0
    comparable = []
    for i, j in inp["pairs"]:
        ia, ic = by_bits[i], by_bits[j]
        a, c = members[ia], members[ic]
        leq, geq = bool(poset.leq[ia, ic]), bool(poset.leq[ic, ia])
        verdict = tr.call("order.bruhat_verdict", bc.bruhat_verdict, a, c)
        chk.check("oracle_a5.verdict", (verdict.leq, verdict.geq), (leq, geq))
        secondary = tr.call("order.secondary_bruhat_leq",
                            bc.secondary_bruhat_leq, a, c)
        chk.check("oracle_a5.secondary", secondary, leq)
        queries += 1
        queries_leq += secondary
        if ia != ic and (leq or geq):
            comparable.append((ia, ic) if leq else (ic, ia))
    for ia, ic in covers:
        secondary = tr.call("order.secondary_bruhat_leq",
                            bc.secondary_bruhat_leq, members[ia], members[ic])
        chk.check("oracle_a5.secondary_cover", secondary, True)
        queries += 1
        queries_leq += secondary

    explored = found = 0
    for ia, ic in comparable:
        a, c = members[ia], members[ic]
        outcome = tr.call("search.tight_chain_search",
                          bc.tight_chain_search, a, c)
        chk.check("oracle_a5.tight_budget", outcome.budget_hit, False)
        explored += outcome.explored
        if outcome.found:
            found += 1
            report = tr.call("chains.verify_witness",
                             bc.verify_chain, outcome.witness, a, c)
            chk.check("oracle_a5.tight_witness",
                      (report.valid, report.tight, report.endpoints_ok,
                       report.length), (True, True, True, nu[ic] - nu[ia]))
    counts = {
        "enumeration.members": len(members),
        "enumeration.arcs": len(covers),
        "search.pairs_checked": mono.pairs_checked,
        "search.tight_explored": explored,
        "search.tight_found": found,
        "order.queries": queries,
        "order.queries_leq": queries_leq,
    }
    return counts, members


PIPELINES = {"sweep_a6": sweep_a6, "chains_big": chains_big,
             "oracle_a5": oracle_a5}


def sample_states(workload: str, artifact, seed: int) -> list:
    """The seeded kernel sample: members of the workload's class, or states
    along the n=100 chain."""
    rng = random.Random(f"{seed}:kernels")
    count = KERNEL_SAMPLE[workload]
    if workload == "chains_big":
        states = artifact.matrices()
        return [states[k] for k in sorted(rng.sample(range(len(states)), count))]
    pool = sorted(artifact, key=lambda a: a.bits)
    return rng.choices(pool, k=count)


def probes(workload: str, inp: dict, artifact, seed: int, bc, chk):
    """Stages and kernels timed on their own, outside the pipeline spans:
    per-layer metrics and the sample counts they rest on."""
    states = sample_states(workload, artifact, seed)
    metrics, moved = kernel_probes(states, seed, bc)
    if workload == "sweep_a6":
        start = perf_counter()
        members = list(bc.enumerate_class(inp["margins"]))
        metrics["enumeration.enumerate_class_s"] = perf_counter() - start
        chk.check("sweep_a6.enumerate_class", len(members), A001499[6])
    return metrics, {"kernel_states": len(states), "kernel_moves": moved}


def kernel_probes(states: list, seed: int, bc) -> tuple[dict, int]:
    """Per-call cost of each kernel in microseconds, and the number of
    (matrix, move) pairs the move kernels ran on."""
    rng = random.Random(f"{seed}:moves")
    out = {}

    def per_call_us(count: int, start: float) -> float:
        return (perf_counter() - start) / count * 1e6

    # The seeded move for each state is drawn from the timed call's result,
    # so a 100x100 state pays for find_interchanges once.
    moved = []
    start = perf_counter()
    for a in states:
        found = bc.find_interchanges(a)
        if found:
            moved.append((a, found[rng.randrange(len(found))]))
    out["matrices.find_interchanges_us"] = per_call_us(len(states), start)
    for name, fn in (("inversion_count", bc.inversion_count),
                     ("cumulative_sums", bc.cumulative_sums),
                     ("canonical_key", bc.canonical_key),
                     ("hash", hash)):
        start = perf_counter()
        for a in states:
            fn(a)
        out[f"matrices.{name}_us"] = per_call_us(len(states), start)
    for name, fn in (("apply_interchange", bc.apply_interchange),
                     ("interchange_increment", bc.interchange_increment)):
        start = perf_counter()
        for a, t in moved:
            fn(a, t)
        out[f"matrices.{name}_us"] = per_call_us(len(moved), start)
    return out, len(moved)
