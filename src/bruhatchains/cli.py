"""Command-line front end.

Matrices are read in the text format (rows of '0'/'1', blank line
terminates) from a file path or from stdin when the path is ``-``.
Margins are given as ``R/S`` with comma-separated entries, or through the
``--n/--k`` sugar for square classes with uniform sums.  Every subcommand
supports ``--json`` for a machine-readable envelope.

``longest`` and ``spectrum`` build the interchange DAG for an all-two
square class, however given, and the full poset for any other class.
``poset`` and ``monotone`` always build the full poset, which is refused
when its size x size matrix passes ``engine.MAX_ARRAY_BYTES``.

Exit codes: 0 on success, 1 on domain errors (a class too large to
build among them), malformed input and unreadable input files, 2 on
usage errors.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections.abc import Iterator
from itertools import islice

import click
import numpy as np

from . import chains, enumeration, matrices, order, search
from .errors import BruhatError, SearchBudgetExceeded
from .matrices import BinaryMatrix, MarginPair, _ascii_int


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for "-", with no line-end
    translation: the parsers take \n and \r\n and refuse a lone \r."""
    try:
        if path == "-":
            if sys.stdin is None:   # Python's stdin when fd 0 is closed
                raise BruhatError("cannot read -: stdin is closed")
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise BruhatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise BruhatError(f"cannot read {path}: not UTF-8 text") from exc


def _write_text(path: str, text: str) -> None:
    """Write text to a file, as UTF-8; a file that cannot be opened or
    written is a domain error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise BruhatError(f"cannot write {path}: {exc.strerror}") from exc


def _read_matrix(path: str) -> BinaryMatrix:
    text = _read_text(path)
    try:
        if text.lstrip().startswith("{"):
            return BinaryMatrix.from_json(text)
        return BinaryMatrix.from_text(text)
    except KeyError as exc:
        raise BruhatError(
            f"malformed matrix in {path}: missing key {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise BruhatError(f"malformed matrix in {path}: {exc}") from exc


def _parse_margins(spec: str) -> MarginPair:
    try:
        if spec.count("/") != 1:
            raise ValueError("the form is R/S, row sums then column sums")
        rows, cols = (tuple(map(_ascii_int, side.split(",")))
                      for side in spec.split("/"))
        return MarginPair(rows, cols)
    except ValueError as exc:
        raise click.UsageError(f"bad margins {spec!r}: {exc}") from exc


def _class_options(command):
    """Name a class by ``--margins R/S``, or by ``--n N`` with ``--k K``
    (default 2) for the square class of uniform sums; the command gets
    the class as ``pair``.  Both at once, or neither, is a usage error."""

    @click.option("--margins", default=None)
    @click.option("--n", type=click.IntRange(min=1), default=None)
    @click.option("--k", type=click.IntRange(min=0), default=None)
    @functools.wraps(command)
    def with_pair(margins, n, k, **kwargs):
        if margins is not None and n is None and k is None:
            pair = _parse_margins(margins)
        elif n is not None and margins is None:
            pair = MarginPair.uniform(n, 2 if k is None else k)
        else:
            raise click.UsageError(
                "give either --margins R/S or --n N [--k K]")
        return command(pair=pair, **kwargs)

    return with_pair


def _emit(command: str, result, as_json: bool,
          plain: str | None = None) -> None:
    if as_json:
        started = click.get_current_context().obj["started"]
        # an iterator of non-empty lists is one list, written as each is pulled
        lists = result if isinstance(result, Iterator) else iter([result])
        text = json.dumps(next(lists, []))
        click.echo(f'{{"command": {json.dumps(command)}, "result": ', nl=False)
        for batch in lists:
            click.echo(text[:-1] + ", ", nl=False)
            text = json.dumps(batch)[1:]
        click.echo(text, nl=False)
        elapsed_ms = int((time.monotonic() - started) * 1000)
        click.echo(f', "elapsed_ms": {elapsed_ms}}}')
    else:
        click.echo(plain if plain is not None else str(result))


class _DomainErrorGroup(click.Group):
    """Map domain errors to exit code 1, usage problems stay at 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BruhatError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_DomainErrorGroup)
@click.pass_context
def main(ctx: click.Context) -> None:
    """Bruhat-order toolkit for (0,1)-matrix classes."""
    # the clock of every --json envelope's elapsed_ms
    ctx.obj = {"started": time.monotonic()}


@main.command()
@click.argument("matrix", default="-")
@click.option("--json", "as_json", is_flag=True)
def inv(matrix: str, as_json: bool) -> None:
    """Inversion count of a matrix."""
    nu = matrices.inversion_count(_read_matrix(matrix))
    _emit("inv", nu, as_json)


@main.command()
@click.argument("matrix", default="-")
@click.option("--json", "as_json", is_flag=True)
def sigma(matrix: str, as_json: bool) -> None:
    """Cumulative partial-sum table of a matrix."""
    rows = [list(r) for r in matrices.cumulative_sums(_read_matrix(matrix))]
    plain = "\n".join(" ".join(map(str, r)) for r in rows)
    _emit("sigma", rows, as_json, plain)


@main.command()
@click.argument("first")
@click.argument("second")
@click.option("--budget", type=click.IntRange(min=1),
              default=order.DEFAULT_NODE_BUDGET, show_default=True,
              help="Most states each secondary order search expands before "
                   "it fails; a class with a table answers with no search.")
@click.option("--json", "as_json", is_flag=True)
def compare(first: str, second: str, budget: int, as_json: bool) -> None:
    """Bruhat and secondary Bruhat verdicts for a pair.  A secondary
    search past the budget is an error that names its direction."""
    a, c = _read_matrix(first), _read_matrix(second)
    verdict = order.bruhat_verdict(a, c)
    result = {"bruhat_leq": verdict.leq, "bruhat_geq": verdict.geq}
    for key, x, y in (("secondary_leq", a, c), ("secondary_geq", c, a)):
        try:
            result[key] = order.secondary_bruhat_leq(x, y, budget)
        except SearchBudgetExceeded as exc:
            raise SearchBudgetExceeded(f"{key}: {exc}") from exc
    plain = "\n".join(f"{k}: {str(v).lower()}" for k, v in result.items())
    _emit("compare", result, as_json, plain)


# Members the listing decodes and prints at a time, as text or JSON.
_ECHO_BATCH = 4096


@main.command(name="enumerate")
@_class_options
@click.option("--count", "count_only", is_flag=True,
              help="print only the number of members")
@click.option("--json", "as_json", is_flag=True)
def enumerate_members(pair, count_only, as_json) -> None:
    """List every member of a class, or count them without enumerating.
    Both lists, plain text and one JSON document, are printed in batches
    as they are decoded.  The class is enumerated before its first member
    is decoded, so a refusal comes before any output."""
    if count_only:
        _emit("enumerate", enumeration.count_class(pair), as_json)
        return
    members = enumeration.enumerate_class(pair)  # a generator: lazy
    batches = iter(lambda: list(islice(members, _ECHO_BATCH)), [])
    if as_json:
        _emit("enumerate", ([m.to_json_dict() for m in batch]
                            for batch in batches), True)
        return
    sep = ""
    for batch in batches:
        click.echo(sep + "\n\n".join(m.to_text() for m in batch))
        sep = "\n"


@main.command()
@_class_options
@click.option("--dot", "dot_path",
              type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--jsonl", "jsonl_path",
              type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--json", "as_json", is_flag=True)
def poset(pair, dot_path, jsonl_path, as_json) -> None:
    """Build the class poset and export it."""
    built = enumeration.build_poset(pair)
    if dot_path:
        _write_text(dot_path, built.to_dot())
    if jsonl_path:
        _write_text(jsonl_path, built.to_jsonl())
    summary = {
        "members": len(built),
        # every member is below itself: strict arcs are leq less its diagonal
        "strict_arcs": int(np.count_nonzero(built.leq)) - len(built),
        "cover_arcs": len(built.targets),
        "minimal": len(built.minimal_indices()),
        "maximal": len(built.maximal_indices()),
    }
    plain = "\n".join(f"{key}: {val}" for key, val in summary.items())
    _emit("poset", summary, as_json, plain)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def extremes(n: int, as_json: bool) -> None:
    """The distinguished minimal and maximal matrices P_n and Q_n."""
    p, q = chains.build_extremes(n)
    if as_json:
        _emit("extremes", {"P": p.to_json_dict(), "Q": q.to_json_dict()}, True)
    else:
        click.echo(p.to_text() + "\n\n" + q.to_text())


@main.group()
def chain() -> None:
    """Build and verify chains."""


@chain.command("build")
@click.option("--n", type=int, required=True)
@click.option("--json", "as_json", is_flag=True,
              help="wrap the chain in the result envelope")
def chain_build(n: int, as_json: bool) -> None:
    """Maximum-length chain from P_n to Q_n, as chain JSON."""
    built = chains.build_chain(n)
    payload = chains.chain_to_json_dict(built)
    if as_json:
        _emit("chain build", payload, True)
    else:
        click.echo(json.dumps(payload))


@chain.command("verify")
@click.argument("chain_file", default="-")
@click.option("--json", "as_json", is_flag=True)
def chain_verify(chain_file: str, as_json: bool) -> None:
    """Replay a chain (chain JSON or text format) and report on it."""
    text = _read_text(chain_file)
    if text.lstrip().startswith("{"):
        loaded = chains.chain_from_json(text)
    else:
        loaded = chains.chain_from_text(text)
    report = chains.verify_chain(loaded)
    result = {
        "length": report.length,
        "valid": report.valid,
        "failing_step": report.failing_step,
        "failing_reason": report.failing_reason,
        "tight": report.tight,
        "nu_profile": list(report.nu_profile),
    }
    plain = (f"length: {report.length}\nvalid: {str(report.valid).lower()}\n"
             f"tight: {str(report.tight).lower()}")
    if report.failing_step is not None:
        plain += (f"\nfailing_step: {report.failing_step}"
                  f"\nfailing_reason: {report.failing_reason}")
    _emit("chain verify", result, as_json, plain)


def _chain_poset(pair: MarginPair) -> enumeration.ClassPoset:
    """The interchange DAG for an all-two square class, whose Bruhat order
    is the closure of its arcs; the full poset for any other class."""
    if pair.is_all_two_square():
        return enumeration.build_interchange_dag(pair)
    return enumeration.build_poset(pair)


@main.command()
@_class_options
@click.option("--json", "as_json", is_flag=True)
def longest(pair, as_json) -> None:
    """Length of the longest chain in the Bruhat order of a class."""
    built = _chain_poset(pair)
    length, _ = search.longest_chain(built)
    _emit("longest", length, as_json)


@main.command()
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--json", "as_json", is_flag=True)
def spectrum(n, as_json) -> None:
    """Maximum chain lengths over all (minimal, maximal) pairs."""
    built = _chain_poset(MarginPair.uniform(n, 2))
    lengths = sorted(search.maximal_chain_spectrum(built))
    _emit("spectrum", lengths, as_json, " ".join(map(str, lengths)))


@main.command()
@click.argument("from_matrix")
@click.argument("to_matrix")
@click.option("--budget", type=click.IntRange(min=1),
              default=order.DEFAULT_NODE_BUDGET, show_default=True,
              help="Most states expanded; a class with a table expands none.")
@click.option("--json", "as_json", is_flag=True)
def tight(from_matrix, to_matrix, budget, as_json) -> None:
    """Search for a tight chain between two matrices."""
    a, c = _read_matrix(from_matrix), _read_matrix(to_matrix)
    outcome = search.tight_chain_search(a, c, budget)
    result = {
        "found": outcome.found,
        "length": outcome.witness.length if outcome.found else None,
        "explored": outcome.explored,
        "budget_hit": outcome.budget_hit,
        "witness": (chains.chain_to_json_dict(outcome.witness)
                    if outcome.found else None),
    }
    plain = (f"found: {str(outcome.found).lower()}\n"
             f"explored: {outcome.explored}\n"
             f"budget_hit: {str(outcome.budget_hit).lower()}")
    if outcome.found:
        plain += f"\nlength: {outcome.witness.length}"
    _emit("tight", result, as_json, plain)


@main.command()
@_class_options
@click.option("--json", "as_json", is_flag=True)
def monotone(pair, as_json) -> None:
    """Check inversion monotonicity over all strict arcs of a class.

    A found violation is printed as a certificate and still exits 0."""
    built = enumeration.build_poset(pair)
    report = search.monotonicity_check(built)
    certs = [search.certificate(a, c) for a, c in report.violations]
    result = {"pairs_checked": report.pairs_checked,
              "violations": certs}
    if certs:
        plain = json.dumps(certs, indent=2)
    else:
        plain = f"checked {report.pairs_checked} arcs, no violations"
    _emit("monotone", result, as_json, plain)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def delta(n: int, as_json: bool) -> None:
    """Closed-form maximum chain length for the all-two square class."""
    _emit("delta", chains.delta(n), as_json)


if __name__ == "__main__":
    main()
