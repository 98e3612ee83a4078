"""Outputs pinned by digest: the sigma, compare, tight, monotone, poset and
chain verify results, the poset exports, monotonicity certificates and
cumulative_sums tables, on seeded inputs, and the built chains' JSON.  A
digest is the SHA-256 of the outputs as sorted-key JSON, so a change in
any verdict, count, witness, table or error message changes it."""

import hashlib
import json
import random

import pytest
from click.testing import CliRunner

from bruhatchains import (
    BinaryMatrix,
    MarginPair,
    build_chain,
    chain_even,
    chain_odd,
    chain_to_json,
    chain_to_text,
    cumulative_sums,
    enumerate_class,
    inversion_count,
)
from bruhatchains.cli import main
from bruhatchains.search import certificate
from reference import random_interchange_walk


def digest(outputs) -> str:
    return hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def random_matrix(rng, size=9):
    m, n = rng.randint(1, size), rng.randint(1, size)
    return BinaryMatrix(m, n, tuple(rng.getrandbits(n) for _ in range(m)))


def same_class_pairs(seed, count):
    """Pairs of a random matrix of at most 9 x 9 and a random interchange
    walk from it, so both share a class, and the pair reversed."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        a = random_matrix(rng)
        c = random_interchange_walk(a, rng.randint(0, 6), rng)
        pairs += [(a, c), (c, a)]
    return pairs


def chain_pairs(n, seed, count):
    """Pairs of states of the order-n chain, the earlier first."""
    states = build_chain(n).matrices()
    rng = random.Random(seed)
    return [tuple(states[k] for k in sorted(rng.sample(range(len(states)), 2)))
            for _ in range(count)]


def member_pairs(n, seed, count):
    members = list(enumerate_class(MarginPair.uniform(n, 2)))
    rng = random.Random(seed)
    return [(rng.choice(members), rng.choice(members)) for _ in range(count)]


def run(args, stdin=None):
    """The exit code and the envelope's result, or the exit code and the
    error line when the command fails."""
    result = CliRunner().invoke(main, args, input=stdin)
    if result.exit_code == 0:
        return [0, json.loads(result.stdout)["result"]]
    assert result.output.startswith("error: ")
    return [result.exit_code, result.output]


def run_pair(tmp_path, command, a, c, *options):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text(a.to_text() + "\n")
    second.write_text(c.to_text() + "\n")
    return run([command, str(first), str(second), "--json", *options])


def cumulative_sums_outputs(tmp_path):
    rng = random.Random(12)
    return [cumulative_sums(random_matrix(rng)) for _ in range(400)]


def sigma_outputs(tmp_path):
    rng = random.Random(13)
    return [run(["sigma", "-", "--json"], random_matrix(rng).to_text())
            for _ in range(40)]


def compare_outputs(tmp_path):
    pairs = member_pairs(4, 14, 30) + member_pairs(5, 15, 30) \
        + same_class_pairs(16, 30) + chain_pairs(8, 21, 10)
    return [run_pair(tmp_path, "compare", a, c, "--budget", budget)
            for a, c in pairs for budget in ("3", "1000")]


def tight_outputs(tmp_path):
    pairs = member_pairs(5, 17, 30) + same_class_pairs(18, 30) \
        + chain_pairs(8, 22, 10)
    # the start first: the search refuses a start of more inversions
    pairs = [sorted(pair, key=inversion_count) for pair in pairs]
    return [run_pair(tmp_path, "tight", a, c, "--budget", budget)
            for a, c in pairs for budget in ("5", "1000")]


def monotone_outputs(tmp_path):
    classes = [["--n", "4"], ["--n", "4", "--k", "1"],
               ["--margins", "2,1,1/1,2,1"], ["--margins", "3,2,1/2,2,2"],
               ["--margins", "2,2,1,1/3,1,1,1"]]
    return [run(["monotone", *spec, "--json"]) for spec in classes]


def poset_outputs(tmp_path):
    """The summary and both exports of the full poset of each class."""
    classes = [["--n", "4"], ["--n", "5"], ["--margins", "2,2,1/2,2,1"],
               ["--margins", "2,2,1,1,1/2,2,2,1"],
               ["--margins", "2,2,2,2/2,2,2,1,1"]]
    dot, jsonl = tmp_path / "poset.dot", tmp_path / "poset.jsonl"
    return [[run(["poset", *spec, "--json", "--dot", str(dot),
                  "--jsonl", str(jsonl)]),
             dot.read_text(), jsonl.read_text()] for spec in classes]


def certificate_outputs(tmp_path):
    return [certificate(a, c) for a, c in
            member_pairs(4, 19, 20) + same_class_pairs(20, 20)]


def chain_verify_outputs(tmp_path):
    outputs = []
    for n in range(4, 10):
        chain = build_chain(n)
        text = chain_to_json(chain)
        data = json.loads(text)
        # the same chain with one interchange step moved by a column
        k = next(k for k, s in enumerate(data["steps"]) if s is not None)
        data["steps"][k][3] = (data["steps"][k][3] + 1) % n
        outputs += [run(["chain", "verify", "-", "--json"], text),
                    run(["chain", "verify", "-", "--json"], json.dumps(data))]
        if chain.mode == "interchange":
            outputs.append(run(["chain", "verify", "-", "--json"],
                               chain_to_text(chain)))
    return outputs


PINNED = {
    cumulative_sums_outputs:
        "8ad481ac33d0bccdff1d50a9db14ae5e6c95c6c5a65c5680f87c6495ea93cc49",
    sigma_outputs:
        "48aa190312abd2b2e539b0b956c48d5e3eb18f9ca1d5166912437a3ee8baa87c",
    compare_outputs:
        "dce18314ff61c7f0d17ed5e9f555ecc0f479ecf610830e6b4c27476db27ec5fd",
    tight_outputs:
        "9f8600d38fd929424adb457894e717f47c5e0da0b8080600daebeb4e17261f72",
    monotone_outputs:
        "fbaf9e5116ac0273b8cfe19d169dda8d66c688f3276bcdcafc198dda853b009f",
    poset_outputs:
        "982e314cf4e86c28f250428830987a737546cf327c61d40fe2dfe80912bd1251",
    certificate_outputs:
        "ceb14db226c87b6ca1422ab2ec09c2b2b404968aac198ac11f38e7f8552e77e9",
    chain_verify_outputs:
        "6f24e57c45999e6e435647f994c4fe7db92b60d1214090eaa03bb0703fe78924",
}


@pytest.mark.parametrize("outputs", PINNED, ids=lambda f: f.__name__)
def test_outputs_match_their_pinned_digest(outputs, tmp_path):
    assert digest(outputs(tmp_path)) == PINNED[outputs]


# The SHA-256 of chain_to_json(build_chain(n)) for n = 4..101, each
# followed by a newline: every step and every splice matrix of the built
# chains, byte for byte.
BUILT_CHAINS = \
    "bb6f91a1d6f538fa579f5cf40a7df08d1d26acc99a98fec4f7e12fb353cfd46f"


def test_built_chains_match_their_pinned_digest():
    built = hashlib.sha256()
    for n in range(4, 102):
        # so each order is built afresh, not read from the caches
        chain_even.cache_clear()
        chain_odd.cache_clear()
        built.update(chain_to_json(build_chain(n)).encode() + b"\n")
    assert built.hexdigest() == BUILT_CHAINS
