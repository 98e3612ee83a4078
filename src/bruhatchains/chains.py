"""Chain values, the distinguished minimal/maximal matrices P_n and Q_n,
the tabulated base chains, the maximum-chain constructions, and the
closed-form extremal quantities."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Union

from . import engine
from .errors import (
    MalformedChain,
    MarginMismatch,
    PatternMismatch,
    UnsupportedOrder,
)
from .matrices import (
    F3,
    F3R,
    J2,
    BinaryMatrix,
    Interchange,
    _BLANKS,
    _ascii_int,
    _columns,
    _take,
    _text_lines,
    direct_sum,
    inversion_count,
    reverse_columns,
)
from .order import bruhat_less


@dataclass(frozen=True)
class BruhatStep:
    """A chain step that jumps to a full replacement matrix; valid when the
    predecessor strictly precedes it in the Bruhat order."""

    target: BinaryMatrix


Step = Union[Interchange, BruhatStep]


@dataclass(frozen=True)
class Chain:
    """A start matrix and an ordered list of steps.  Pure interchange
    chains have mode ``interchange``; chains with at least one jump step
    have mode ``bruhat``."""

    start: BinaryMatrix
    steps: tuple[Step, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def mode(self) -> str:
        if all(isinstance(s, Interchange) for s in self.steps):
            return "interchange"
        return "bruhat"

    def matrices(self) -> list[BinaryMatrix]:
        """Replay the chain (``_replay``); raises PatternMismatch on an
        invalid step."""
        m, n, rows = self.start.m, self.start.n, list(self.start.bits)
        cols = _columns(rows, n)
        return [self.start] + [BinaryMatrix(m, n, tuple(rows))
                               for _ in _replay(rows, cols, self.steps)]


def _replay(rows: list[int], cols: list[int],
            steps: Sequence[Step]) -> Iterator[int]:
    """Apply the steps in order to rows and to their column view cols
    (``matrices._columns``; the width is ``len(cols)``), in place, and
    yield each step's inversion gain once it is applied.  This is the only
    code that checks chain steps.  An interchange is checked, applied and
    counted by ``matrices._take``, its gain over the shorter span; a
    jump's gain is the inversion count of its target less that of the
    state before it, read off the tables its ascent check built for fresh
    copies of the two, so a target kept in a chain holds no table.

    An interchange step must match its ItoL pattern; a jump step must be
    a strict Bruhat ascent.  An invalid step raises PatternMismatch
    (MarginMismatch for a jump into another class) and leaves rows and
    cols at the state before it; malformed step data raises
    MalformedChain."""
    m, width = len(rows), len(cols)
    for k, step in enumerate(steps):
        if isinstance(step, Interchange):
            i, i2, j, j2 = step
            gain = _take(rows, i, i2, j, j2, cols)
            if gain is None:
                raise PatternMismatch(
                    f"step {k}: no ItoL pattern at {(i, i2, j, j2)}")
            yield gain
        elif isinstance(step, BruhatStep):
            target = step.target
            if target.m != m or target.n != width:
                raise MalformedChain(f"step {k}: dimension change")
            before = BinaryMatrix(m, width, tuple(rows))
            after = BinaryMatrix(m, width, target.bits)
            if not bruhat_less(before, after):
                raise PatternMismatch(
                    f"step {k}: jump is not a strict Bruhat ascent")
            rows[:] = target.bits
            cols[:] = _columns(rows, width)
            yield inversion_count(after) - inversion_count(before)
        else:
            raise MalformedChain(f"step {k}: unknown step type")


@dataclass(frozen=True)
class ChainReport:
    """Outcome of replaying a chain.  ``failing_reason`` says why
    ``failing_step`` is invalid: ``pattern_mismatch``,
    ``not_strict_ascent`` (a jump) or ``other_class`` (a jump into
    another class); both are None on a valid chain."""

    length: int
    valid: bool
    failing_step: int | None
    failing_reason: str | None
    endpoints_ok: bool
    tight: bool
    nu_profile: tuple[int, ...]


def verify_chain(chain: Chain,
                 expected_start: BinaryMatrix | None = None,
                 expected_end: BinaryMatrix | None = None) -> ChainReport:
    """Replay a chain, validating every step by its kind (``_replay``).

    Interchange steps must address a valid ItoL pattern; jump steps must be
    a strict Bruhat ascent.  An invalid step is reported by index and
    reason rather than raised; only structurally malformed data raises.
    The inversion count advances by the gain ``_replay`` yields for each
    step, and is recounted in full on the final state.  When the final
    rows equal expected_end, that matrix is the final state, and the
    recount reads its order table, built once for it and kept
    (``_order_table``)."""
    m, n = chain.start.m, chain.start.n
    rows = list(chain.start.bits)
    cols = _columns(rows, n)
    nu = inversion_count(chain.start)
    nu_profile = [nu]
    tight = True
    failing = reason = None
    try:
        for rise in _replay(rows, cols, chain.steps):
            if rise != 1:
                tight = False
            nu += rise
            nu_profile.append(nu)
    except MarginMismatch:
        failing, reason = len(nu_profile) - 1, "other_class"
    except PatternMismatch:
        failing = len(nu_profile) - 1
        reason = ("not_strict_ascent"
                  if isinstance(chain.steps[failing], BruhatStep)
                  else "pattern_mismatch")
    bits = tuple(rows)
    at_end = (expected_end is not None and expected_end.m == m
              and expected_end.n == n and expected_end.bits == bits)
    end = expected_end if at_end else BinaryMatrix(m, n, bits)
    if inversion_count(end) != nu:
        raise RuntimeError("inversion increments disagree with a full "
                           "recount of the final state")
    valid = failing is None
    endpoints_ok = (valid and (expected_start is None
                               or chain.start == expected_start)
                    and (expected_end is None or at_end))
    return ChainReport(len(chain.steps), valid, failing, reason,
                       endpoints_ok, valid and tight, tuple(nu_profile))


# --- distinguished matrices ---------------------------------------------


# What `extremes --json` holds per cell of the n x n grid at its peak:
# both matrices as row strings, their JSON text and its encoded output,
# 12.4 bytes under tracemalloc at n = 1000 and 2000 (plain text: 10.3).
_CELL_BYTES = 13


def build_extremes(n: int) -> tuple[BinaryMatrix, BinaryMatrix]:
    """The block-diagonal minimal matrix P_n and its column reversal Q_n,
    the distinguished maximal matrix.  An order whose n x n cells would
    pass ``engine.MAX_ARRAY_BYTES`` at ``_CELL_BYTES`` each is refused
    with ClassTooLarge before anything is built."""
    if n < 4:
        raise UnsupportedOrder("extremes are defined for n >= 4")
    engine._check_budget(n * n, _CELL_BYTES,
                         f"the two {n}x{n} extremes")
    if n % 2 == 0:
        p = direct_sum([J2] * (n // 2))
    else:
        p = direct_sum([J2] * ((n - 3) // 2) + [F3])
    return p, reverse_columns(p)


def delta(n: int) -> int:
    """Largest possible chain length in the Bruhat order of the all-two
    square class of order n."""
    if n < 2:
        raise UnsupportedOrder("delta is defined for n >= 2")
    if n == 2:
        return 0
    if n == 3:
        return 3
    return 2 * n * (n - 2) - (n % 2)


def extremal_inversions(n: int) -> tuple[int, int]:
    """Closed forms for the inversion counts of P_n and Q_n."""
    if n < 4:
        raise UnsupportedOrder("extremal inversions are defined for n >= 4")
    return math.ceil(n / 2), (4 * n * n - 7 * n) // 2


# --- the paper's order-5 chains, frozen as steps ------------------------

# The two tabulated chains as one length-29 chain from P_5 to Q_5: steps
# 0..5 reach Z, steps 6..28 go on to Q_5.  The tests replay them through
# every row of the paper's tables.
_P5_Q5_STEPS: tuple[tuple[int, int, int, int], ...] = (
    (3, 4, 2, 3), (1, 2, 1, 2), (1, 2, 2, 3), (2, 3, 2, 3), (2, 3, 3, 4),
    (3, 4, 3, 4), (1, 2, 3, 4), (2, 3, 1, 2), (3, 4, 1, 2), (3, 4, 2, 3),
    (0, 2, 1, 2), (0, 2, 2, 3), (2, 3, 2, 3), (2, 3, 3, 4), (0, 1, 3, 4),
    (2, 3, 1, 2), (1, 3, 0, 1), (3, 4, 0, 1), (3, 4, 1, 2), (1, 2, 1, 2),
    (2, 3, 1, 2), (2, 3, 2, 3), (0, 1, 0, 2), (0, 1, 2, 3), (1, 2, 2, 3),
    (1, 2, 3, 4), (1, 2, 0, 2), (1, 2, 2, 3), (2, 3, 0, 1),
)
_Z_ROWS = ("11000", "10010", "01001", "00101", "00110")


def tabulated_chains_5() -> tuple[Chain, Chain]:
    """The two tabulated chains: length 6 from P_5 to Z, and length 23
    from Z to Q_5."""
    whole = chain_p5_q5()
    return (Chain(whole.start, whole.steps[:6]),
            Chain(z_matrix(), whole.steps[6:]))


def z_matrix() -> BinaryMatrix:
    """The intermediate matrix Z joining the two tabulated chains."""
    return BinaryMatrix.from_rows(_Z_ROWS)


def chain_p5_q5() -> Chain:
    """Length-29 interchange chain from P_5 to Q_5: the two tabulated
    chains joined at Z."""
    p5, _ = build_extremes(5)
    return Chain(p5, tuple(Interchange(*q) for q in _P5_Q5_STEPS))


# The length-16 tight chain from P_4 to Q_4.  Its existence is known; the
# explicit steps were produced once by tight_chain_search and frozen here
# for determinism (see tests for the regeneration check).
_BASE16_STEPS: tuple[tuple[int, int, int, int], ...] = (
    (1, 2, 1, 2), (0, 1, 1, 2), (2, 3, 1, 2), (1, 2, 1, 2),
    (1, 2, 0, 1), (0, 1, 0, 1), (1, 2, 2, 3), (0, 1, 2, 3),
    (0, 1, 1, 2), (2, 3, 0, 1), (2, 3, 2, 3), (2, 3, 1, 2),
    (1, 2, 1, 2), (1, 2, 0, 1), (1, 2, 2, 3), (1, 2, 1, 2),
)


def base_chain_4() -> Chain:
    """Frozen tight chain of length 16 from P_4 to Q_4."""
    p4, _ = build_extremes(4)
    return Chain(p4, tuple(Interchange(*q) for q in _BASE16_STEPS))


def chain_y_to_q5() -> Chain:
    """Length-24 mixed chain: one Bruhat jump from Y (the 2x2 all-ones
    block above the reversed 3x3 block) to Z, then the tabulated length-23
    chain to Q_5."""
    y = direct_sum([J2, F3R])
    return Chain(y, (BruhatStep(z_matrix()),) + chain_p5_q5().steps[6:])


# --- maximum-chain constructions ----------------------------------------


def _place(state: list[int], width: int, steps: Sequence[Step],
           rows: Sequence[int], cols: Sequence[int], out: list[Step],
           made: dict[tuple[int, int, int, int], Interchange]) -> None:
    """Reindex sub-chain steps into the rows x cols window of the running
    state, write each into the state and append it to out.  The sub-chains
    are frozen and their steps valid (the tests replay them), so a placed
    step is written unchecked; ``verify_chain`` replays a built chain.
    made holds one interchange per step of the build, so equal steps share
    one object; every sub-chain step is ItoL, so it is two XORs.  A jump
    target's rows fill the window of the state: nothing outside the window
    moves, so the state after the write is the jump's full target."""
    for s in steps:
        if isinstance(s, Interchange):
            i, i2, j, j2 = key = rows[s.i], rows[s.i2], cols[s.j], cols[s.j2]
            step = made.get(key)
            if step is None:
                step = made[key] = Interchange(*key)
            flip = (1 << j) | (1 << j2)
            state[i] ^= flip
            state[i2] ^= flip
        else:
            for i, sub in zip(rows, s.target.bits):
                for jj, j in enumerate(cols):
                    state[i] = state[i] & ~(1 << j) | (sub >> jj & 1) << j
            step = BruhatStep(BinaryMatrix(len(state), width, tuple(state)))
        out.append(step)


def _even_rounds(state: list[int], width: int, n: int, shift: int,
                 out: list[Step],
                 made: dict[tuple[int, int, int, int], Interchange]) -> None:
    """The rounds of the even construction of order n (see ``chain_even``)
    on rows 0..n-1 and columns shift..shift+n-1."""
    base = base_chain_4().steps
    for m in range(4, n + 1, 2):
        for r in range(1, m // 2):
            _place(state, width, base, (2 * r - 2, 2 * r - 1, m - 2, m - 1),
                   range(shift + m - 2 * r - 2, shift + m - 2 * r + 2), out,
                   made)


@lru_cache(maxsize=1)
def chain_even(n: int) -> Chain:
    """Chain of length 2n(n-2) from P_n to Q_n, for even n >= 4.

    Built in rounds over one running state, from P_n.  Round m = 4, 6,
    ..., n walks the all-ones 2x2 block at rows m-2, m-1 to the top-right
    corner of the leading m x m block by m/2 - 1 copies of the length-16
    base chain, copy r on rows 2r-2, 2r-1, m-2, m-1 and columns
    m-2r-2 .. m-2r+1.  Round 4 is the base chain itself."""
    if n < 4 or n % 2:
        raise UnsupportedOrder("even construction needs even n >= 4")
    p_n, _ = build_extremes(n)
    state, steps = list(p_n.bits), []
    _even_rounds(state, n, n, 0, steps, {})
    return Chain(p_n, tuple(steps))


@lru_cache(maxsize=1)
def chain_odd(n: int) -> Chain:
    """Chain of length 2n(n-2)-1 from P_n to Q_n, for odd n >= 5.

    The length-29 chain runs on the trailing 5x5 block; the 3x3 reversed
    block then migrates to the bottom-left corner through (n-5)/2 copies
    of the length-24 mixed chain on sliding 5-row windows; the rounds of
    the even construction of order n-3 finish on rows 0..n-4 and columns
    3..n-1."""
    if n < 5 or n % 2 == 0:
        raise UnsupportedOrder("odd construction needs odd n >= 5")
    k = (n - 5) // 2
    p_n, _ = build_extremes(n)
    state, steps, made = list(p_n.bits), [], {}
    _place(state, n, chain_p5_q5().steps, range(2 * k, n), range(2 * k, n),
           steps, made)
    y_steps = chain_y_to_q5().steps
    for t in range(1, k + 1):
        rows = (2 * k - 2 * t, 2 * k - 2 * t + 1, n - 3, n - 2, n - 1)
        _place(state, n, y_steps, rows,
               range(2 * k - 2 * t, 2 * k - 2 * t + 5), steps, made)
    _even_rounds(state, n, n - 3, 3, steps, made)
    return Chain(p_n, tuple(steps))


# What `chain build` holds per step at its peak: the chain, its JSON dict
# and its JSON text, about 380 bytes under tracemalloc at n = 100.
_STEP_BYTES = 384


def build_chain(n: int) -> Chain:
    """Dispatch to the even or odd construction.  An order whose delta(n)
    steps would pass ``engine.MAX_ARRAY_BYTES`` at ``_STEP_BYTES`` each is
    refused with ClassTooLarge before anything is built."""
    if n < 4:
        raise UnsupportedOrder("chain construction needs n >= 4")
    engine._check_budget(delta(n), _STEP_BYTES,
                         f"the {delta(n)} steps of the order-{n} chain")
    return chain_even(n) if n % 2 == 0 else chain_odd(n)


# --- serialization -------------------------------------------------------


def _parsed(i: int, i2: int, j: int, j2: int) -> Interchange:
    """The interchange a chain file names; ValueError unless
    0 <= i < i2 and 0 <= j < j2."""
    if not (0 <= i < i2 and 0 <= j < j2):
        raise ValueError("interchange needs i < i2 and j < j2")
    return Interchange(i, i2, j, j2)


def chain_to_json_dict(chain: Chain) -> dict:
    steps: list[list[int] | None] = []
    splices = []
    for k, step in enumerate(chain.steps):
        if isinstance(step, Interchange):
            steps.append(list(step))
        else:
            steps.append(None)
            splices.append({"at": k, "matrix": step.target.to_json_dict()})
    return {"mode": "bruhat" if splices else "interchange",
            "start": chain.start.to_json_dict(),
            "steps": steps, "splices": splices}


def chain_to_json(chain: Chain) -> str:
    return json.dumps(chain_to_json_dict(chain))


def chain_from_json_dict(data: dict) -> Chain:
    """The chain in its JSON form.  Bad data raises MalformedChain naming
    the field: ``start``, ``splices``, ``splices[k]``, ``steps`` or
    ``steps[k]``.  Each splice's ``at`` is a JSON integer naming a
    ``null`` step, and no step is named twice.  Equal steps share one
    interchange."""
    field = "start"
    try:
        start = BinaryMatrix.from_json_dict(data["start"])
        field, splices = "splices", {}
        for k, s in enumerate(data.get("splices", [])):
            field = f"splices[{k}]"
            at = s["at"]
            if type(at) is not int:
                raise ValueError("at must be an integer")
            if at in splices:
                raise ValueError(f"step {at} is spliced twice")
            splices[at] = k, BinaryMatrix.from_json_dict(s["matrix"])
        field = "steps"
        steps: list[Step] = []
        made: dict[tuple[int, int, int, int], Interchange] = {}
        for k, quad in enumerate(data["steps"]):
            field = f"steps[{k}]"
            if quad is None:
                steps.append(BruhatStep(splices.pop(k)[1]))
                continue
            i, i2, j, j2 = quad
            if (type(i) is not int or type(i2) is not int
                    or type(j) is not int or type(j2) is not int):
                raise ValueError(f"step indices must be integers: {quad}")
            key = i, i2, j, j2
            step = made.get(key)
            if step is None:
                step = made[key] = _parsed(*key)
            steps.append(step)
    except KeyError as exc:
        raise MalformedChain(f"{field}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedChain(f"{field}: {exc}") from exc
    if splices:  # a splice no null step took
        at, (k, _) = next(iter(splices.items()))
        raise MalformedChain(f"splices[{k}]: step {at} is not a null step")
    return Chain(start, tuple(steps))


def chain_from_json(text: str) -> Chain:
    """The chain in this JSON text.  Text that ``json`` cannot read, an
    integer past Python's digit limit or nesting past its recursion limit
    among them, raises MalformedChain."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedChain(str(exc)) from exc
    return chain_from_json_dict(data)


def chain_to_text(chain: Chain) -> str:
    """Start matrix, a blank line, then one interchange step per line.
    Only pure interchange chains have a text form."""
    if chain.mode != "interchange":
        raise MalformedChain("text format only covers interchange chains")
    lines = [chain.start.to_text(), ""]
    lines.extend(" ".join(map(str, s)) for s in chain.steps)
    return "\n".join(lines) + "\n"


def chain_from_text(text: str) -> Chain:
    """The text format: rows and step fields are padded and separated by
    ASCII spaces and tabs alone (``matrices._text_lines``)."""
    lines = _text_lines(text)
    try:
        split = lines.index("")
    except ValueError as exc:
        raise MalformedChain("missing blank line after start matrix") from exc
    try:
        start = BinaryMatrix.from_rows([ln.strip(_BLANKS)
                                        for ln in lines[:split]])
        steps = []
        for ln in lines[split + 1:]:
            fields = [f for f in ln.replace("\t", " ").split(" ") if f]
            if not fields:
                continue
            i, i2, j, j2 = map(_ascii_int, fields)
            steps.append(_parsed(i, i2, j, j2))
    except (ValueError, TypeError) as exc:
        raise MalformedChain(str(exc)) from exc
    return Chain(start, tuple(steps))
