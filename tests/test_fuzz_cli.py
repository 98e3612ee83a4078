"""Every outside input through the CLI ends in exit 0, 1 or 2.

Hypothesis drives each parser through ``CliRunner``: matrix text and
JSON (``inv``), chain JSON and text (``chain verify``), ``--margins``
strings and the ``--n``/``--k`` integers.  No example may end in a
traceback, and an exit-1 output is one ``error:`` line.  Sizes stay small
(orders up to 8, margin entries up to 4, at most 6 entries), so each
example runs in milliseconds; ``count_class`` alone takes seconds on
large uniform classes.  Each test runs under the ``memory_cap`` fixture,
so an input that allocates by its size fails with MemoryError instead of
filling the machine.
"""

import json

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bruhatchains import BinaryMatrix, inversion_count
from bruhatchains.cli import main

RUNNER = CliRunner()

# the memory cap is set once per test and holds for all of its examples
fuzz = settings(max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _run(args, stdin=None):
    """Invoke the CLI and check the exit contract; return the result."""
    result = RUNNER.invoke(main, args, input=stdin)
    assert result.exit_code in (0, 1, 2), (args, stdin, result.output)
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
    if result.exit_code == 1:
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return result


# --- matrices -------------------------------------------------------------

_cells = st.one_of(
    st.sampled_from([0, 1, "0", "1"]), st.integers(-2, 12), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False), st.none(),
    st.text(alphabet="01２ .", max_size=3), st.lists(st.integers(0, 1),
                                                     max_size=2))
_rows = st.lists(st.one_of(st.text(alphabet="01１ .\t", max_size=6),
                           st.lists(_cells, max_size=6)), max_size=6)
_dims = st.one_of(st.integers(-1, 7), st.floats(0, 7), st.booleans(),
                  st.text(max_size=2), st.none())
_matrix_dicts = st.one_of(
    st.fixed_dictionaries({"m": _dims, "n": _dims, "rows": _rows}),
    st.dictionaries(st.sampled_from(["m", "n", "rows", "x"]),
                    st.one_of(_dims, _rows), max_size=4))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@fuzz
@given(st.text(alphabet="01{}[]\":, \n\t2１m", max_size=40))
def test_matrix_text(memory_cap, text):
    _run(["inv", "-"], text)


@fuzz
@given(st.one_of(_matrix_dicts, st.dictionaries(st.text(max_size=4), _json,
                                                max_size=4)))
def test_matrix_json(memory_cap, data):
    _run(["inv", "-"], json.dumps(data))


@fuzz
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.text(alphabet="01", min_size=n, max_size=n), min_size=1, max_size=8)),
    st.booleans())
def test_well_formed_matrices_are_read(memory_cap, rows, as_json):
    a = BinaryMatrix.from_rows(rows)
    text = json.dumps(a.to_json_dict()) if as_json else a.to_text()
    result = _run(["inv", "-"], text)
    assert result.exit_code == 0
    assert result.output.strip() == str(inversion_count(a))


# --- chains ---------------------------------------------------------------

_START = {"m": 4, "n": 4, "rows": ["1100", "1100", "0011", "0011"]}
_far = st.integers(10 ** 9, 10 ** 15)  # a column index far past the width
_index = st.one_of(st.integers(-2, 5), _far,
                   st.floats(0, 5), st.booleans(), st.text(max_size=2))
# row indices that fit, column indices that may lie far past the width
_quads = st.tuples(st.integers(0, 2), st.integers(1, 3), st.integers(0, 4),
                   st.one_of(st.integers(1, 5), _far))
_steps = st.lists(st.one_of(st.none(), st.lists(_index, min_size=3,
                                                 max_size=5),
                            _quads.map(list)), max_size=6)
_splices = st.lists(st.fixed_dictionaries({
    "at": st.one_of(st.integers(-1, 6), st.text(max_size=2)),
    "matrix": st.one_of(st.just(_START), _matrix_dicts)}), max_size=3)
_chain_dicts = st.one_of(
    st.fixed_dictionaries({"start": st.one_of(st.just(_START), _matrix_dicts),
                           "steps": _steps}, optional={"splices": _splices}),
    st.dictionaries(st.sampled_from(["start", "steps", "splices"]), _json,
                    max_size=3))


@fuzz
@given(_chain_dicts, st.booleans())
def test_chain_json(memory_cap, data, as_json):
    _run(["chain", "verify", "-", *(["--json"] if as_json else [])],
         json.dumps(data))


@fuzz
@given(st.lists(_quads.map(list), min_size=1, max_size=6), st.booleans())
def test_chain_steps_from_a_valid_start(memory_cap, steps, as_json):
    _run(["chain", "verify", "-", *(["--json"] if as_json else [])],
         json.dumps({"start": _START, "steps": steps}))


_step_lines = st.lists(st.one_of(
    _quads.map(lambda quad: " ".join(map(str, quad))),
    st.text(alphabet="0123456789 -x.", max_size=12)), max_size=6)


@fuzz
@given(st.one_of(st.just(["1100", "1100", "0011", "0011"]),
                 st.lists(st.text(alphabet="01 2", max_size=5), max_size=4)),
       _step_lines)
def test_chain_text(memory_cap, start, lines):
    _run(["chain", "verify", "-"], "\n".join([*start, "", *lines]) + "\n")


# --- margins --------------------------------------------------------------

_sides = st.lists(st.integers(0, 4), min_size=1, max_size=6)


@fuzz
@given(st.one_of(
    st.tuples(_sides, _sides).map(
        lambda rc: ",".join(map(str, rc[0])) + "/" + ",".join(map(str, rc[1]))),
    st.text(alphabet="0123/,- 4", max_size=14),
    st.text(max_size=8)))
def test_margins_counted(memory_cap, spec):
    _run(["enumerate", "--margins", spec, "--count"])


_small_sides = st.lists(st.integers(0, 2), min_size=1, max_size=4)


@fuzz
@given(st.tuples(_small_sides, _small_sides).map(
    lambda rc: ",".join(map(str, rc[0])) + "/" + ",".join(map(str, rc[1]))),
    st.sampled_from([["enumerate"], ["poset"], ["longest"], ["monotone"]]))
def test_margins_built(memory_cap, spec, command):
    _run([*command, "--margins", spec])


# --- orders ---------------------------------------------------------------

def _numbers(ints):
    """An integer option value: a number in range, or any short text."""
    return st.one_of(ints.map(str), st.text(max_size=4))


@fuzz
@given(_numbers(st.integers(-3, 8)),
       st.one_of(st.none(), _numbers(st.integers(-3, 10 ** 12))))
def test_orders_counted(memory_cap, n, k):
    _run(["enumerate", "--n", n, *(["--k", k] if k is not None else []),
          "--count"])


@fuzz
@given(st.sampled_from([["longest"], ["spectrum"], ["enumerate"], ["poset"],
                        ["monotone"]]),
       _numbers(st.integers(-3, 4)),
       st.one_of(st.none(), _numbers(st.integers(-3, 4))))
def test_orders_built(memory_cap, command, n, k):
    if k is not None and command != ["spectrum"]:
        command = [*command, "--k", k]
    _run([*command, "--n", n])


@fuzz
@given(st.sampled_from([["delta"], ["extremes"], ["chain", "build"]]),
       _numbers(st.one_of(st.integers(-3, 30),
                          st.integers(10 ** 5, 10 ** 30))))
def test_orders_of_the_constructions(memory_cap, command, n):
    _run([*command, "--n", n])
