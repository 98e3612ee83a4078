"""Command-line surface: subcommands, formats, exit codes, determinism."""

import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from bruhatchains import (
    MarginPair,
    build_extremes,
    chains,
    cli,
    engine,
    enumeration,
    errors,
    matrices,
    search,
)
from bruhatchains.cli import main


@pytest.fixture
def runner():
    return CliRunner()


P4_TEXT = "1100\n1100\n0011\n0011\n"
INCOMP_A = "1001\n1100\n0110\n0011\n"
INCOMP_C = "0110\n1100\n1001\n0011\n"


def test_delta(runner):
    result = runner.invoke(main, ["delta", "--n", "5"])
    assert result.exit_code == 0
    assert result.output.strip() == "29"


def test_delta_json_envelope(runner):
    result = runner.invoke(main, ["delta", "--n", "4", "--json"])
    data = json.loads(result.output)
    assert data["command"] == "delta"
    assert data["result"] == 16
    assert "elapsed_ms" in data


def test_inv_stdin(runner):
    result = runner.invoke(main, ["inv", "-"], input=INCOMP_A)
    assert result.exit_code == 0
    assert result.output.strip() == "5"


def test_sigma(runner):
    result = runner.invoke(main, ["sigma", "-"], input="11\n11\n")
    assert result.output.splitlines() == ["1 2", "2 4"]


def test_sigma_past_the_byte_limit_refused(runner, monkeypatch):
    # a 4x4 table passes a limit that holds 15 entries
    monkeypatch.setattr(errors, "MAX_ARRAY_BYTES",
                        15 * matrices._SIGMA_ENTRY_BYTES)
    result = runner.invoke(main, ["sigma", "-", "--json"], input=P4_TEXT)
    _one_error_line(result)
    assert "4x4 partial-sum table" in result.output
    monkeypatch.setattr(errors, "MAX_ARRAY_BYTES",
                        16 * matrices._SIGMA_ENTRY_BYTES)
    result = runner.invoke(main, ["sigma", "-", "--json"], input=P4_TEXT)
    assert json.loads(result.output)["result"][-1] == [2, 4, 6, 8]


@pytest.mark.parametrize("n", [400, pytest.param(1000, marks=pytest.mark.slow),
                               pytest.param(2000, marks=pytest.mark.slow)])
def test_sigma_peak_within_its_charge(runner, n):
    text = build_extremes(n)[0].to_text() + "\n"
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["sigma", "-", "--json"], input=text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert peak < n * n * matrices._SIGMA_ENTRY_BYTES


def test_compare(runner, tmp_path):
    a = tmp_path / "a.txt"
    c = tmp_path / "c.txt"
    a.write_text(INCOMP_A)
    c.write_text(INCOMP_C)
    result = runner.invoke(main, ["compare", str(a), str(c), "--json"])
    data = json.loads(result.output)["result"]
    assert data == {"bruhat_leq": False, "bruhat_geq": False,
                    "secondary_leq": False, "secondary_geq": False}


def test_enumerate_count(runner):
    result = runner.invoke(
        main, ["enumerate", "--margins", "2,2,1/2,2,1", "--count"])
    assert result.output.strip() == "5"


def test_enumerate_square_sugar(runner):
    result = runner.invoke(main, ["enumerate", "--n", "4", "--count"])
    assert result.output.strip() == "90"
    result = runner.invoke(
        main, ["enumerate", "--n", "3", "--k", "1", "--count"])
    assert result.output.strip() == "6"


# sha256 of the plain listing as one joined text: members one blank line
# apart, A(4,2), A(5,2) and a non-square class
_ENUMERATE_DIGESTS = {
    "--n 4": "34a9860e46b340853c9bd9e59ec875b8a33aab87bd10d859ab021d1a9e68c7f9",
    "--n 5": "f61e2cc1e4f30ac3a915a71f17bd4d3d702b10e3398bcd5ac8b6e0ac08d35a70",
    "--margins 3,3,2,2,1,1/3,3,2,2,1,1":
        "62a9f95cae5be6e4b52dd0df1b15daac834239ee934d92896c56276e8497fce2",
}


@pytest.mark.parametrize("batch", [cli._ECHO_BATCH, 7, 1])
@pytest.mark.parametrize("args", sorted(_ENUMERATE_DIGESTS))
def test_enumerate_output_is_pinned(runner, monkeypatch, args, batch):
    monkeypatch.setattr(cli, "_ECHO_BATCH", batch)
    result = runner.invoke(main, ["enumerate", *args.split()])
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == _ENUMERATE_DIGESTS[args]


def test_enumerate_holds_one_batch(monkeypatch):
    # 7672 members, printed 64 at a time: no list of them all, nor their
    # joined text
    monkeypatch.setattr(cli, "_ECHO_BATCH", 64)
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink):
            main(["enumerate", "--margins", "3,3,2,2,1,1/3,3,2,2,1,1"],
                 standalone_mode=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7672 * 128


# sha256 of the JSON listing with its elapsed_ms taken out, as printed
# before the JSON list was written in batches: the same classes
_ENUMERATE_JSON_DIGESTS = {
    "--n 4": "6a6c725c285b9fcf28b95cca9e079c27b8ed1d4244e556244fccfc993164263a",
    "--n 5": "732887d6b6f224f5916da5711aeeea18cb1a4c12fdb570d8314d35b3d2e97a87",
    "--margins 3,3,2,2,1,1/3,3,2,2,1,1":
        "f12587c4f155c784264116230281f5580670853dfc69a3f4e7fd1a3327119c42",
}


@pytest.mark.parametrize("batch", [cli._ECHO_BATCH, 7, 1])
@pytest.mark.parametrize("args", sorted(_ENUMERATE_JSON_DIGESTS))
def test_enumerate_json_output_is_pinned(runner, monkeypatch, args, batch):
    monkeypatch.setattr(cli, "_ECHO_BATCH", batch)
    result = runner.invoke(main, ["enumerate", *args.split(), "--json"])
    assert result.exit_code == 0
    text, elapsed = re.subn(r', "elapsed_ms": \d+\}\n\Z', "}\n",
                            result.output)
    assert elapsed == 1
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _ENUMERATE_JSON_DIGESTS[args]


def test_enumerate_json_holds_one_batch(monkeypatch):
    # the same 7672 members as one JSON document, 64 at a time: no list of
    # their dicts, nor the document's text
    monkeypatch.setattr(cli, "_ECHO_BATCH", 64)
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink):
            main(["enumerate", "--margins", "3,3,2,2,1,1/3,3,2,2,1,1",
                  "--json"], standalone_mode=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7672 * 128


@pytest.mark.parametrize("args, message", [
    (["--margins", "2,0/0,2"], "no matrix realizes these margins"),
    (["--n", "9", "--k", "9"], "81 cells"),
])
def test_enumerate_json_refused_before_any_output(args, message):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "bruhatchains.cli", "enumerate", *args,
         "--json"], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr


def test_poset_exports(runner, tmp_path):
    dot = tmp_path / "p.dot"
    jsonl = tmp_path / "p.jsonl"
    result = runner.invoke(main, [
        "poset", "--margins", "2,2,1/2,2,1",
        "--dot", str(dot), "--jsonl", str(jsonl), "--json"])
    summary = json.loads(result.output)["result"]
    assert summary["members"] == 5
    assert summary["strict_arcs"] == 9
    assert dot.read_text().startswith("digraph")
    assert len(jsonl.read_text().strip().splitlines()) == 5


@pytest.mark.parametrize("option", ["--dot", "--jsonl"])
def test_poset_export_to_a_directory_is_a_usage_error(runner, tmp_path,
                                                      option):
    result = runner.invoke(main, ["poset", "--n", "4", option, str(tmp_path)])
    _usage_error(result, option)


@pytest.mark.parametrize("option", ["--dot", "--jsonl"])
@pytest.mark.parametrize("target, reason", [
    ("missing/p.out", "No such file or directory"),
    pytest.param("/dev/full", "No space left on device",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full")),
])
def test_poset_export_write_error(runner, tmp_path, option, target, reason):
    path = tmp_path / target
    result = runner.invoke(main, ["poset", "--n", "4", option, str(path)])
    _one_error_line(result)
    assert result.output == f"error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("chain, reason", [
    ("01\n10\n\n0 1 0 1\n", "pattern_mismatch"),
    (json.dumps({"start": {"m": 2, "n": 2, "rows": ["01", "10"]},
                 "steps": [None],
                 "splices": [{"at": 0, "matrix": {
                     "m": 2, "n": 2, "rows": ["10", "01"]}}]}),
     "not_strict_ascent"),
    (json.dumps({"start": {"m": 2, "n": 2, "rows": ["10", "01"]},
                 "steps": [None],
                 "splices": [{"at": 0, "matrix": {
                     "m": 2, "n": 2, "rows": ["11", "01"]}}]}),
     "other_class"),
], ids=["pattern", "descent", "other-class"])
def test_chain_verify_gives_the_reason(runner, chain, reason):
    plain = runner.invoke(main, ["chain", "verify", "-"], input=chain)
    lines = dict(ln.split(": ") for ln in plain.output.splitlines())
    assert plain.exit_code == 0 and lines["valid"] == "false"
    assert lines["failing_step"] == "0" and lines["failing_reason"] == reason
    wrapped = runner.invoke(main, ["chain", "verify", "--json", "-"],
                            input=chain)
    report = json.loads(wrapped.output)["result"]
    assert report["failing_step"] == 0 and report["failing_reason"] == reason


def test_extremes(runner):
    result = runner.invoke(main, ["extremes", "--n", "4"])
    p_text, q_text = result.output.strip().split("\n\n")
    assert p_text == P4_TEXT.strip()
    assert q_text == "0011\n0011\n1100\n1100"


def test_chain_build_verify_roundtrip(runner):
    for n in (4, 5, 6, 7):
        built = runner.invoke(main, ["chain", "build", "--n", str(n)])
        assert built.exit_code == 0
        verified = runner.invoke(main, ["chain", "verify", "-"],
                                 input=built.output)
        assert verified.exit_code == 0
        lines = dict(ln.split(": ") for ln in verified.output.splitlines())
        assert lines["valid"] == "true"
        assert lines["tight"] == "true"
        assert int(lines["length"]) == 2 * n * (n - 2) - (n % 2)


def test_longest(runner):
    result = runner.invoke(main, ["longest", "--n", "4"])
    assert result.output.strip() == "16"


A62_MARGINS = ",".join(["2"] * 6) + "/" + ",".join(["2"] * 6)


def _route_to_fake_dag(monkeypatch, dag):
    calls = []

    def fake_dag(margins):
        calls.append(margins)
        return dag

    def full_poset(*args, **kwargs):
        raise AssertionError("the full A(6,2) poset needs about 9.7 GB")

    monkeypatch.setattr(enumeration, "build_interchange_dag", fake_dag)
    monkeypatch.setattr(enumeration, "build_poset", full_poset)
    return calls


def test_longest_k2_routes_like_n(runner, monkeypatch, poset_42):
    # every all-two square class, however given, takes the interchange DAG
    calls = _route_to_fake_dag(monkeypatch, poset_42)
    forms = [["--n", "6"], ["--n", "6", "--k", "2"], ["--margins", A62_MARGINS],
             ["--n", "4"]]
    for args in forms:
        result = runner.invoke(main, ["longest", *args])
        assert result.exit_code == 0
        assert result.output.strip() == "16"
    assert calls == [MarginPair.uniform(6, 2)] * 3 + [MarginPair.uniform(4, 2)]


def test_spectrum_routes_to_the_dag(runner, monkeypatch, poset_42):
    calls = _route_to_fake_dag(monkeypatch, poset_42)
    result = runner.invoke(main, ["spectrum", "--n", "6"])
    assert result.exit_code == 0
    assert result.output.strip() == "16"
    assert calls == [MarginPair.uniform(6, 2)]


def test_other_classes_route_to_the_full_poset(runner, monkeypatch):
    def no_dag(margins):
        raise AssertionError("not an all-two square class")

    monkeypatch.setattr(enumeration, "build_interchange_dag", no_dag)
    for args, length in ((["--margins", "2,2,1/2,2,1"], "3"),
                         (["--n", "3", "--k", "1"], "3"),
                         (["--margins", "2,2,2/3,3"], "0")):
        result = runner.invoke(main, ["longest", *args])
        assert result.exit_code == 0
        assert result.output.strip() == length


def test_longest_margins_a62(runner):
    result = runner.invoke(main, ["longest", "--margins", A62_MARGINS])
    assert result.exit_code == 0
    assert result.output.strip() == "48"


@pytest.mark.parametrize("n, length", [(2, 0), (3, 3), (4, 16), (5, 29)])
def test_longest_and_spectrum_small_orders(runner, n, length):
    # delta(n) for n >= 4, and the values the full poset gives for n < 4
    for command in ("longest", "spectrum"):
        result = runner.invoke(main, [command, "--n", str(n)])
        assert result.exit_code == 0
        assert result.output.strip() == str(length)


@pytest.mark.parametrize("command", ["poset", "monotone"])
def test_full_poset_over_byte_limit_refused(runner, command):
    # A(6,2) has 67,950 members: its 67,950^2 comparability bits are
    # charged half a byte each, 2.3 GB
    started = time.monotonic()
    result = runner.invoke(main, [command, "--n", "6"])
    assert time.monotonic() - started < 30
    _one_error_line(result)
    assert f"{67_950 ** 2 // 2} bytes" in result.output
    assert f"{errors.MAX_ARRAY_BYTES}-byte limit" in result.output


def test_cap_option_removed(runner):
    result = runner.invoke(main, ["poset", "--n", "4", "--cap", "10"])
    assert result.exit_code == 2


def test_parallel_option_removed(runner):
    result = runner.invoke(main, ["longest", "--n", "4", "--parallel", "2"])
    assert result.exit_code == 2


def test_spectrum(runner):
    result = runner.invoke(main, ["spectrum", "--n", "4"])
    assert result.output.strip() == "16"


def test_tight(runner, tmp_path):
    src = tmp_path / "p4.txt"
    dst = tmp_path / "q4.txt"
    src.write_text(P4_TEXT)
    dst.write_text("0011\n0011\n1100\n1100\n")
    result = runner.invoke(main, ["tight", str(src), str(dst), "--json"])
    data = json.loads(result.output)["result"]
    assert data["found"] is True
    assert data["length"] == 16


@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_tight_start_above_target_is_a_domain_error(runner, tmp_path,
                                                    as_json):
    # nu 6 at the start against nu 2 at the target: no raising chain
    src = tmp_path / "from.txt"
    dst = tmp_path / "to.txt"
    src.write_text("1100\n0011\n1100\n0011\n")
    dst.write_text(P4_TEXT)
    result = runner.invoke(main, ["tight", str(src), str(dst), *as_json])
    _one_error_line(result)
    assert "more inversions than the target (6 > 2)" in result.output


def test_monotone(runner):
    result = runner.invoke(main, ["monotone", "--margins", "2,2,1/2,2,1"])
    assert result.exit_code == 0
    assert "no violations" in result.output


def test_monotone_prints_a_violation_as_its_certificate(runner, monkeypatch):
    # no class checked has a violation, so a report of one is patched in:
    # the plain output is its certificate, and the command exits 0
    p, q = build_extremes(4)
    report = search.MonotonicityReport(1, [(q, p)])
    monkeypatch.setattr(search, "monotonicity_check", lambda poset: report)
    result = runner.invoke(main, ["monotone", "--n", "4"])
    assert result.exit_code == 0
    assert json.loads(result.output) == [search.certificate(q, p)]


def test_domain_error_exit_code(runner):
    result = runner.invoke(main, ["delta", "--n", "1"])
    assert result.exit_code == 1
    result = runner.invoke(main, ["enumerate", "--margins", "2,0/0,2",
                                  "--count"])
    assert result.exit_code == 1


@pytest.mark.parametrize("text", [
    "012\n", '{"m":1}\n',
    # a dimension is a JSON integer, and rows a list of strings or lists
    '{"m": true, "n": 2, "rows": ["01"]}',
    '{"m": 1.0, "n": 2, "rows": ["01"]}',
    '{"m": 1, "n": 2, "rows": [{"1": 0, "0": 5}]}',
    '{"m": 2, "n": 1, "rows": "01"}',
])
def test_malformed_matrix_exit_code(runner, text):
    result = runner.invoke(main, ["inv", "-"], input=text)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.startswith("error: malformed matrix")
    assert len(result.output.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["compare", "tight"])
def test_search_past_the_byte_limit_is_a_domain_error(runner, tmp_path,
                                                      monkeypatch, command):
    p30, q30 = build_extremes(30)
    src, dst = tmp_path / "p30.txt", tmp_path / "q30.txt"
    src.write_text(p30.to_text())
    dst.write_text(q30.to_text())
    monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 100_000)
    result = runner.invoke(main, [command, str(src), str(dst)])
    _one_error_line(result)
    assert "100000-byte limit" in result.output


def _one_error_line(result):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert len(result.output.strip().splitlines()) == 1
    assert result.output.startswith("error: ")


@pytest.mark.parametrize("command", [["inv"], ["chain", "verify"]])
def test_unreadable_path_exit_code(runner, tmp_path, command):
    missing = tmp_path / "missing.txt"
    result = runner.invoke(main, [*command, str(missing)])
    _one_error_line(result)
    assert result.output.startswith(f"error: cannot read {missing}")
    result = runner.invoke(main, [*command, str(tmp_path)])
    _one_error_line(result)
    assert result.output.startswith("error: cannot read")
    binary = tmp_path / "binary.bin"
    binary.write_bytes(b"\xff\xfe\x00")
    result = runner.invoke(main, [*command, str(binary)])
    _one_error_line(result)
    assert result.output.startswith("error: cannot read")


def test_closed_stdin_exit_code():
    # with fd 0 closed, Python starts with sys.stdin None
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "bruhatchains.cli", "inv", "-"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: os.close(0))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: cannot read -: stdin is closed\n"


def test_closed_stdin_refused_in_process(monkeypatch, capsys):
    # the same refusal, with sys.stdin None as Python leaves it
    monkeypatch.setattr(sys, "stdin", None)
    with pytest.raises(SystemExit) as exc:
        main(["inv", "-"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == "error: cannot read -: stdin is closed\n"


@pytest.mark.parametrize("args", [["longest", "--n", "9"],
                                  ["spectrum", "--n", "8"]])
def test_oversize_class_refused(runner, args):
    # A(9,2) has 81 cells, past the packed 64; A(8,2) fits but its
    # enumeration frontier would pass the engine's byte limit
    started = time.monotonic()
    result = runner.invoke(main, args)
    assert time.monotonic() - started < 60
    _one_error_line(result)
    assert "class" in result.output or "bytes" in result.output


@pytest.mark.parametrize("spec", [
    " 2 ,  2/ 2,2", "１_0/1_0", "1_0/1_0", "+2,2/2,2", "2,-0/2,0",
    "２,2/2,2", "1/1/1", "2,2",
])
def test_margin_entries_are_ascii_digits(runner, spec):
    # int() took blanks, signs, underscores and fullwidth digits; a spec
    # without exactly one slash is named by its R/S form, not by Python's
    # unpacking message
    result = runner.invoke(main, ["enumerate", "--margins", spec, "--count"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert result.output.count("Error: bad margins") == 1
    assert "unpack" not in result.output


@pytest.mark.parametrize("command, text", [
    (["chain", "verify"], "10\n01\n\n0\u30001 0 1\n"),
    (["inv"], "10\u00a0\n01\n"),
    (["chain", "verify"], "10\n01\n\n0 1\u00a00 1\n"),
    (["chain", "verify"], "10\n01\n\u2003\n0 1 0 1\n"),
    (["chain", "verify"], "10\n01\n\n0 1 0 1\x0c\n"),
    (["inv"], "\u300010\n01\n"),
    (["inv"], "10\r01\n"),
    (["chain", "verify"], "10\r01\r\r0 1 0 1\r"),
    (["inv"], "10\u202801\n"),
    (["inv"], "10\x0b01\n"),
    (["inv"], "10\x8501\n"),
], ids=["step-U+3000", "row-U+00A0", "step-U+00A0", "separator-U+2003",
        "step-formfeed", "row-lead-U+3000", "lone-CR", "chain-lone-CR",
        "U+2028", "VT", "NEL"])
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_only_ascii_blanks_and_line_ends(runner, tmp_path, command, text,
                                         source):
    # str.split() and str.strip() took these as blanks, and
    # str.splitlines() or the file reader the last six as line ends
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode())
    args = ["-"] if source == "stdin" else [str(path)]
    result = runner.invoke(main, [*command, *args], input=path.read_bytes())
    _one_error_line(result)


@pytest.mark.parametrize("command, text, want", [
    (["chain", "verify"], "10\r\n01\r\n\r\n0 1 0 1\r\n", "valid: true"),
    (["chain", "verify"], " 10\t\n\t01 \n\n \t0\t 1  0 1 \n",
     "valid: true"),
    (["inv"], "10\r\n01\r\n", "0"),
    (["inv"], " 10\t\n\t01 \n", "0"),
])
def test_ascii_blanks_and_crlf_accepted(runner, command, text, want):
    result = runner.invoke(main, [*command, "-"], input=text.encode())
    assert result.exit_code == 0
    assert want in result.output.splitlines()


@pytest.mark.parametrize("step", ["０ 1 0 1", "+0 1 0 1", "-0 1 0 1",
                                  "0 1 0 1_0"])
def test_chain_text_indices_are_ascii_digits(runner, step):
    result = runner.invoke(main, ["chain", "verify", "-"],
                           input=f"10\n01\n\n{step}\n")
    _one_error_line(result)
    assert "not written in the digits 0-9" in result.output


@pytest.mark.parametrize("command", ["enumerate", "poset", "longest",
                                     "monotone"])
@pytest.mark.parametrize("square", [["--n", "3"], ["--k", "2"],
                                    ["--n", "3", "--k", "2"]],
                         ids=["n", "k", "n-k"])
def test_margins_with_n_or_k_is_a_usage_error(runner, command, square):
    # --n was dropped: longest --margins <A(4,2)> --n 3 answered 16
    result = runner.invoke(main, [command, "--margins", "2,2,2,2/2,2,2,2",
                                  *square])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert result.output.count("Error: give either --margins") == 1


def test_usage_error_exit_code(runner):
    result = runner.invoke(main, ["longest"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["no-such-command"])
    assert result.exit_code == 2


def test_deterministic_output(runner):
    first = runner.invoke(main, ["chain", "build", "--n", "8"])
    second = runner.invoke(main, ["chain", "build", "--n", "8"])
    assert first.output == second.output


Q4_TEXT = "0011\n0011\n1100\n1100\n"


@pytest.fixture
def p4_q4(tmp_path):
    src, dst = tmp_path / "p4.txt", tmp_path / "q4.txt"
    src.write_text(P4_TEXT)
    dst.write_text(Q4_TEXT)
    return str(src), str(dst)


@pytest.mark.parametrize("command", ["compare", "tight"])
@pytest.mark.parametrize("budget", ["-5", "0"])
def test_non_positive_budget_is_a_usage_error(runner, p4_q4, command, budget):
    result = runner.invoke(main, [command, *p4_q4, "--budget", budget])
    assert result.exit_code == 2
    assert "--budget" in result.output


@pytest.fixture
def p6_q6(tmp_path):
    """P_6 and Q_6: A(6,2) is too large for a class table, so its queries
    search and count their expansions against the budget."""
    src, dst = tmp_path / "p6.txt", tmp_path / "q6.txt"
    for path, mat in zip((src, dst), build_extremes(6)):
        path.write_text(mat.to_text())
    return str(src), str(dst)


def test_compare_budget_exhausted_is_a_domain_error(runner, p6_q6):
    result = runner.invoke(main, ["compare", *p6_q6, "--budget", "1"])
    assert result.exit_code == 1
    assert "exceeded 1 nodes" in result.output


@pytest.mark.parametrize("forward, key", [(True, "secondary_leq"),
                                          (False, "secondary_geq")])
def test_compare_budget_error_names_its_direction(runner, p6_q6, forward,
                                                  key):
    # P_6 -> Q_6 needs more than one expansion; Q_6 -> P_6 needs none,
    # as Q_6 does not dominate P_6
    args = p6_q6 if forward else p6_q6[::-1]
    result = runner.invoke(main, ["compare", *args, "--budget", "1"])
    assert result.exit_code == 1
    assert result.output == (
        f"error: {key}: secondary order search exceeded 1 nodes\n")


def test_tight_plain_reports_budget_hit(runner, p6_q6):
    result = runner.invoke(main, ["tight", *p6_q6])
    lines = dict(ln.split(": ") for ln in result.output.splitlines())
    assert result.exit_code == 0
    assert (lines["found"], lines["budget_hit"]) == ("true", "false")
    result = runner.invoke(main, ["tight", *p6_q6, "--budget", "3"])
    lines = dict(ln.split(": ") for ln in result.output.splitlines())
    assert result.exit_code == 0
    assert (lines["found"], lines["budget_hit"]) == ("false", "true")
    assert lines["explored"] == "4"


def test_table_answers_ignore_the_budget(runner, p4_q4):
    # A(4,2) has a class table: a query expands nothing, so --budget 1
    # cannot run out
    result = runner.invoke(main, ["compare", *p4_q4, "--budget", "1",
                                  "--json"])
    assert result.exit_code == 0
    verdicts = json.loads(result.output)["result"]
    assert (verdicts["secondary_leq"], verdicts["secondary_geq"]) \
        == (True, False)
    result = runner.invoke(main, ["tight", *p4_q4, "--budget", "1"])
    lines = dict(ln.split(": ") for ln in result.output.splitlines())
    assert result.exit_code == 0
    assert (lines["found"], lines["budget_hit"], lines["explored"],
            lines["length"]) == ("true", "false", "16", "16")


def test_tight_default_budget_is_the_order_default(runner, p4_q4,
                                                   monkeypatch):
    budgets = []
    real = search.tight_chain_search

    def spy(a, c, budget):
        budgets.append(budget)
        return real(a, c, budget)

    monkeypatch.setattr(search, "tight_chain_search", spy)
    assert runner.invoke(main, ["tight", *p4_q4]).exit_code == 0
    assert budgets == [cli.order.DEFAULT_NODE_BUDGET]


def test_tight_chain_longer_than_the_recursion_limit(runner, tmp_path):
    p30, q30 = build_extremes(30)
    src, dst = tmp_path / "p30.txt", tmp_path / "q30.txt"
    src.write_text(p30.to_text())
    dst.write_text(q30.to_text())
    result = runner.invoke(main, ["tight", str(src), str(dst),
                                  "--budget", "5000"])
    assert result.exit_code == 0
    assert result.exception is None
    lines = dict(ln.split(": ") for ln in result.output.splitlines())
    assert (lines["found"], lines["budget_hit"]) == ("true", "false")
    assert lines["length"] == "1680"


def _usage_error(result, option):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"Invalid value for '{option}'" in result.output


@pytest.mark.parametrize("command", [["enumerate"], ["enumerate", "--count"],
                                     ["poset"], ["monotone"], ["longest"],
                                     ["spectrum"]])
@pytest.mark.parametrize("n", ["0", "-1", "-7"])
def test_order_below_one_is_a_usage_error(runner, command, n):
    _usage_error(runner.invoke(main, [*command, "--n", n]), "--n")


@pytest.mark.parametrize("command", [["enumerate"], ["enumerate", "--count"],
                                     ["poset"], ["monotone"], ["longest"]])
def test_negative_row_sum_is_a_usage_error(runner, command):
    _usage_error(runner.invoke(main, [*command, "--n", "3", "--k", "-1"]),
                 "--k")


@pytest.mark.parametrize("n, count", [(7, 3_110_940), (8, 187_530_840)])
def test_count_does_not_enumerate(runner, n, count):
    started = time.monotonic()
    result = runner.invoke(main, ["enumerate", "--n", str(n), "--count"])
    assert time.monotonic() - started < 5
    assert result.exit_code == 0
    assert result.output.strip() == str(count)


def test_long_count_refused(runner):
    # A(16,8) would keep the count DP busy for about 45 s
    started = time.monotonic()
    result = runner.invoke(main, ["enumerate", "--n", "16", "--k", "8",
                                  "--count"])
    assert time.monotonic() - started < 10
    _one_error_line(result)
    assert f"{engine.MAX_COUNT_SPLITS}-split limit" in result.output


def test_full_poset_refused_before_enumerating(runner):
    # A(7,2) has 3,110,940 members; the count alone refuses it
    started = time.monotonic()
    result = runner.invoke(main, ["poset", "--n", "7"])
    assert time.monotonic() - started < 5
    _one_error_line(result)
    assert f"{errors.MAX_ARRAY_BYTES}-byte limit" in result.output


def test_more_than_64_cells(runner):
    # J_9 is the only member of its class, and has 81 cells
    result = runner.invoke(main, ["enumerate", "--n", "9", "--k", "9"])
    _one_error_line(result)
    assert "81 cells" in result.output
    result = runner.invoke(main, ["enumerate", "--n", "9", "--k", "9",
                                  "--count"])
    assert result.exit_code == 0
    assert result.output.strip() == "1"


@pytest.mark.parametrize("args", [
    ["poset", "--margins", "1000000000/1000000000"],
    ["monotone", "--margins", "1000000000/1000000000"],
    ["longest", "--margins", "1000000000/1000000000"],
    ["enumerate", "--n", "1", "--k", "1000000000"],
    ["enumerate", "--n", "1", "--k", "1000000000", "--count"],
])
def test_margin_over_the_opposite_dimension(runner, memory_cap, args):
    # refused before the count builds a table as long as the margin
    started = time.monotonic()
    result = runner.invoke(main, args)
    assert time.monotonic() - started < 5
    _one_error_line(result)
    assert "a margin exceeds the opposite dimension" in result.output


_ONES_32 = "16,16/" + ",".join(["1"] * 32)


def test_column_choices_refused_before_they_are_listed(runner, memory_cap):
    # row 1 would choose 16 of 32 columns: C(32, 16) choices, over 100 GB
    # as a list, refused before the list is built
    started = time.monotonic()
    result = runner.invoke(main, ["enumerate", "--margins", _ONES_32])
    assert time.monotonic() - started < 5
    _one_error_line(result)
    assert "column choices for row 1" in result.output
    result = runner.invoke(main, ["enumerate", "--margins", _ONES_32,
                                  "--count"])
    assert result.exit_code == 0
    assert result.output.strip() == "601080390"


def test_chain_too_large_refused_before_building(runner, memory_cap):
    # 49,980,000 steps at about 380 bytes each
    started = time.monotonic()
    result = runner.invoke(main, ["chain", "build", "--n", "5000"])
    assert time.monotonic() - started < 5
    _one_error_line(result)
    assert "49980000 steps" in result.output
    assert f"{errors.MAX_ARRAY_BYTES}-byte limit" in result.output


_START = {"m": 2, "n": 2, "rows": ["10", "01"]}
_L2 = {"m": 2, "n": 2, "rows": ["01", "10"]}


@pytest.mark.parametrize("chain, field", [
    ({"start": 1}, "start"),
    ({"steps": []}, "start"),
    ({"start": {"m": 2, "n": 2}, "steps": []}, "start"),
    ({"start": _START}, "steps"),
    ({"start": _START, "steps": 3}, "steps"),
    ({"start": _START, "steps": [[0, 1, 0, 1], [0, 1, 0]]}, "steps[1]"),
    ({"start": _START, "steps": [[0, 1.0, 0, 1]]}, "steps[0]"),
    ({"start": _START, "steps": [[1, 0, 0, 1]]}, "steps[0]"),
    ({"start": _START, "steps": [None]}, "steps[0]"),
    ({"start": _START, "steps": [None], "splices": 5}, "splices"),
    ({"start": _START, "steps": [None], "splices": [{"at": 0}]},
     "splices[0]"),
    ({"start": _START, "steps": [None],
      "splices": [{"at": 0, "matrix": _START}, {"at": [0], "matrix": _START}]},
     "splices[1]"),
    # at is a JSON integer, not 0.0 or true, naming a null step once
    ({"start": _START, "steps": [None],
      "splices": [{"at": 0.0, "matrix": _L2}]}, "splices[0]"),
    ({"start": _START, "steps": [None],
      "splices": [{"at": True, "matrix": _L2}]}, "splices[0]"),
    ({"start": _START, "steps": [[0, 1, 0, 1]],
      "splices": [{"at": 0, "matrix": _L2}]}, "splices[0]"),
    ({"start": _START, "steps": [None],
      "splices": [{"at": 0, "matrix": _L2}, {"at": 1, "matrix": _L2}]},
     "splices[1]"),
    ({"start": _START, "steps": [None],
      "splices": [{"at": -1, "matrix": _L2}, {"at": 0, "matrix": _L2}]},
     "splices[0]"),
    ({"start": _START, "steps": [None],
      "splices": [{"at": 0, "matrix": _L2}, {"at": 0, "matrix": _L2}]},
     "splices[1]"),
])
def test_malformed_chain_names_the_field(runner, chain, field):
    result = runner.invoke(main, ["chain", "verify", "-"],
                           input=json.dumps(chain))
    _one_error_line(result)
    assert result.output.startswith(f"error: {field}: ")


@pytest.mark.parametrize("text", [
    '{"m":1,"n":2,"rows":[[0.7,1]]}',
    '{"m":1,"n":2,"rows":[[1.9,0]]}',
    '{"m":1,"n":2,"rows":[[true,false]]}',
    '{"m":1,"n":2,"rows":[[10,0]]}',
    '{"m":1,"n":2,"rows":["１0"]}',
    "１１\n",
])
def test_cells_other_than_0_and_1_are_malformed(runner, text):
    # a cell was truncated by int() before it was checked: 0.7 read as 0
    result = runner.invoke(main, ["inv", "-"], input=text)
    _one_error_line(result)
    assert result.output.startswith("error: malformed matrix")


_DEEP = '{"a":' * 100_000
_HUGE_INT_STEP = ('{"start": {"m": 2, "n": 2, "rows": ["10", "01"]}, '
                  '"steps": [[0, 1, 0, ' + "9" * 5000 + ']]}')


@pytest.mark.parametrize("command, text", [
    (["inv"], _DEEP),
    (["chain", "verify"], _DEEP),
    (["chain", "verify"], _HUGE_INT_STEP),
], ids=["inv-deep", "chain-deep", "chain-digits"])
def test_json_past_the_parser_limits_is_malformed(runner, command, text):
    # nesting past the recursion limit, an integer past 4300 digits
    result = runner.invoke(main, [*command, "-"], input=text)
    _one_error_line(result)


@pytest.mark.parametrize("chain", [
    json.dumps({"start": {"m": 2, "n": 2, "rows": ["10", "01"]},
                "steps": [[0, 1, 0, far]]})
    for far in (10 ** 10, 10 ** 14)
] + ["10\n01\n\n0 1 0 10000000000\n"],
    ids=["json-1e10", "json-1e14", "text-1e10"])
def test_column_past_the_width_fails_its_step(runner, memory_cap, chain):
    # the step is invalid; 1 << 10**10 alone would take 1.25 GB
    result = runner.invoke(main, ["chain", "verify", "--json", "-"],
                           input=chain)
    assert result.exit_code == 0
    report = json.loads(result.output)["result"]
    assert report["valid"] is False and report["failing_step"] == 0


# sha256 prefixes of `extremes --n N` before the row codec was rewritten
_EXTREMES_DIGESTS = {
    4: "10ca6c53b99c272d", 5: "e3e3e5d6195fcec8", 6: "be31c369237641f6",
    7: "201a8d5fbb5c2885", 60: "67db7ced1c6a3692", 61: "f9d8d04557bed442",
    1000: "0553bdaafc601faf", 1001: "40af67b74a82114d",
}


@pytest.mark.parametrize("n", sorted(_EXTREMES_DIGESTS))
def test_extremes_output_is_pinned(runner, n):
    result = runner.invoke(main, ["extremes", "--n", str(n)])
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest[:16] == _EXTREMES_DIGESTS[n]


@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_extremes_too_large_refused_before_building(runner, memory_cap,
                                                    as_json):
    # 10**10 cells: two matrices and their text would take about 130 GB
    started = time.monotonic()
    result = runner.invoke(main, ["extremes", "--n", "100000", *as_json])
    assert time.monotonic() - started < 5
    _one_error_line(result)
    assert "100000x100000 extremes" in result.output
    assert f"{errors.MAX_ARRAY_BYTES}-byte limit" in result.output


@pytest.mark.parametrize("name", ["enumerate", "poset", "longest",
                                  "monotone"])
def test_class_options_are_the_same_everywhere(name):
    params = {p.name: p for p in main.commands[name].params}
    assert params["margins"].type is click.STRING
    for option, low in (("n", 1), ("k", 0)):
        assert isinstance(params[option].type, click.IntRange)
        assert params[option].type.min == low
    assert all(params[o].default is None for o in ("margins", "n", "k"))


def test_spectrum_takes_only_the_order(runner):
    params = {p.name for p in main.commands["spectrum"].params}
    assert params == {"n", "as_json"}
    result = runner.invoke(main, ["spectrum", "--n", "4", "--k", "2"])
    assert result.exit_code == 2


def _envelope_commands(p4, q4):
    """One --json invocation of every command: name, arguments, stdin."""
    chain = json.dumps(chains.chain_to_json_dict(chains.build_chain(4)))
    return [
        ("delta", ["delta", "--n", "4"], None),
        ("inv", ["inv", "-"], P4_TEXT),
        ("sigma", ["sigma", "-"], P4_TEXT),
        ("compare", ["compare", p4, q4], None),
        ("enumerate", ["enumerate", "--n", "3"], None),
        ("poset", ["poset", "--n", "3"], None),
        ("extremes", ["extremes", "--n", "4"], None),
        ("chain build", ["chain", "build", "--n", "4"], None),
        ("chain verify", ["chain", "verify", "-"], chain),
        ("longest", ["longest", "--n", "3"], None),
        ("spectrum", ["spectrum", "--n", "3"], None),
        ("tight", ["tight", p4, q4], None),
        ("monotone", ["monotone", "--n", "3"], None),
    ]


def test_every_envelope_is_timed_by_the_group_clock(runner, p4_q4,
                                                    monkeypatch):
    commands = _envelope_commands(*p4_q4)
    # every leaf command: the group's, less `chain`, plus chain's two
    assert len(commands) == len(main.commands) - 1 + len(cli.chain.commands)
    for name, args, stdin in commands:
        ticks = iter([100.0, 100.25])  # the group's start, then _emit's read
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(ticks))
        result = runner.invoke(main, [*args, "--json"], input=stdin)
        assert result.exit_code == 0, (name, result.output)
        envelope = json.loads(result.output)
        assert envelope["command"] == name
        assert envelope["elapsed_ms"] == 250
