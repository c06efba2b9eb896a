"""Deterministic single-tape Turing machines with loop-detecting execution.

A machine halts exactly when no transition applies to its current
configuration.  Configurations are compared up to translation along the
tape, so a run self-terminates both on exact repeats and on head drift
over an unchanged tape pattern.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional

from . import GodelsimError, _Frozen

BLANK = "_"


class Move(enum.Enum):
    LEFT = "L"
    RIGHT = "R"


class MachineError(GodelsimError):
    """Base class for errors raised by this module."""


class MalformedIDError(MachineError):
    """A configuration references a state or symbol the machine does not have."""


class MachineParseError(MachineError):
    """A machine definition file failed to parse."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# Every compile compares a move with this; on Python 3.11 the attribute
# lookup ``Move.RIGHT`` costs about ten times a module-global lookup.
_RIGHT = Move.RIGHT


@dataclass(frozen=True)
class Machine:
    """A deterministic Turing machine over string states and symbols.

    ``transitions`` maps (state, read symbol) to (next state, write
    symbol, move).  Determinism is structural: a dict admits one entry
    per key.  The blank symbol is always part of the alphabet.

    Construction validates the rules and compiles them, once, into the
    integer form a ``Runner`` steps: ``symbol_names`` (blank = 0, then the
    sorted alphabet) and ``state_names`` (sorted) are the decode lists,
    ``codes`` and ``rows`` their inverses, and ``table[row + code]`` is the
    rule for the state whose row offset is ``row`` reading the symbol
    ``code``: ``(next row, write code, +1 | -1)``, or ``None`` where the
    machine halts.  A state's row offset is its index times the number of
    symbols.
    """

    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: Mapping[tuple[str, str], tuple[str, str, Move]]
    start_state: str
    state_names: list[str] = field(init=False, repr=False, compare=False)
    symbol_names: list[str] = field(init=False, repr=False, compare=False)
    rows: dict[str, int] = field(init=False, repr=False, compare=False)
    codes: dict[str, int] = field(init=False, repr=False, compare=False)
    table: list[Optional[tuple[int, int, int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if BLANK not in self.alphabet:
            raise GodelsimError("alphabet must contain the blank symbol")
        if self.start_state not in self.states:
            raise GodelsimError(f"start state {self.start_state!r} not in states")
        state_names = sorted(self.states)
        symbol_names = [BLANK, *sorted(self.alphabet - {BLANK})]
        width = len(symbol_names)
        rows = {state: index * width for index, state in enumerate(state_names)}
        codes = {sym: code for code, sym in enumerate(symbol_names)}
        table: list[Optional[tuple[int, int, int]]] = [None] * (len(state_names) * width)
        for (state, sym), (nstate, nsym, move) in self.transitions.items():
            row, nrow = rows.get(state), rows.get(nstate)
            if row is None or nrow is None:
                raise GodelsimError(f"transition ({state!r}, {sym!r}) uses unknown state")
            code, ncode = codes.get(sym), codes.get(nsym)
            if code is None or ncode is None:
                raise GodelsimError(f"transition ({state!r}, {sym!r}) uses unknown symbol")
            if not isinstance(move, Move):
                raise GodelsimError("move must be a Move")
            table[row + code] = (nrow, ncode, 1 if move is _RIGHT else -1)
        # A frozen dataclass sets its fields through __dict__.
        self.__dict__.update(
            state_names=state_names, symbol_names=symbol_names, rows=rows, codes=codes, table=table
        )

    @classmethod
    def from_rules(
        cls,
        rules: Iterable[tuple[str, str, str, str, str]],
        start_state: str,
        extra_states: Iterable[str] = (),
        extra_symbols: Iterable[str] = (),
    ) -> "Machine":
        """Build a machine from (state, read, next, write, 'L'|'R') rules.

        States and alphabet are inferred from the rules; ``extra_states``
        and ``extra_symbols`` add declared-but-unreferenced entries (e.g.
        a halting sink, or symbols only ever present on input tapes).
        """
        states = {start_state, *extra_states}
        alphabet = {BLANK, *extra_symbols}
        transitions: dict[tuple[str, str], tuple[str, str, Move]] = {}
        for state, read, nstate, write, move in rules:
            key = (state, read)
            if key in transitions:
                raise GodelsimError(f"duplicate transition for {key!r}")
            transitions[key] = (nstate, write, Move(move))
            states.update((state, nstate))
            alphabet.update((read, write))
        return cls(frozenset(states), frozenset(alphabet), transitions, start_state)


def _plain_cells(n: int, symbol: str, writes: dict[int, str]) -> dict[int, str]:
    """The non-blank cells of ``symbol`` on 0..n-1 overlaid by ``writes``, as a new plain dict."""
    cells = dict.fromkeys(range(n), symbol) if n else {}
    cells.update(writes)
    for cell, sym in writes.items():
        if sym == BLANK:
            del cells[cell]
    return cells


class Tape(Mapping[int, str]):
    """An immutable tape: ``symbol`` on cells 0..n-1, overlaid by ``writes``.

    ``writes`` overrides the base run cell by cell; a blank in it erases a
    base cell (and is a no-op elsewhere).  It is the tape of every ``ID``.
    As a mapping it holds exactly its non-blank cells, so it compares equal
    to a plain dict with the same cells.  Reading one cell or counting a
    symbol costs O(1) or O(writes); iterating builds the plain dict once,
    with C-level dict operations, and keeps it.
    The tape takes ownership of ``writes``: nobody may mutate it afterwards.
    A ``Runner`` started on a tape reads its base in place for the whole
    run, so its ``Halted.final_id`` is a tape over the same base whose
    writes are the start's writes and the cells the run wrote.
    """

    __slots__ = ("n", "symbol", "writes", "_cells")

    def __init__(self, n: int, symbol: str, writes: dict[int, str]):
        self.n = 0 if symbol == BLANK else n
        self.symbol = symbol
        self.writes = writes
        self._cells: Optional[dict[int, str]] = None

    def cells(self) -> dict[int, str]:
        """The non-blank cells as a plain dict (read-only)."""
        if self._cells is None:
            self._cells = _plain_cells(self.n, self.symbol, self.writes)
        return self._cells

    def __getitem__(self, cell: int) -> str:
        sym = self.writes.get(cell)
        if sym is None:
            if isinstance(cell, int) and 0 <= cell < self.n:
                return self.symbol
            raise KeyError(cell)
        if sym == BLANK:
            raise KeyError(cell)
        return sym

    def __iter__(self):
        return iter(self.cells())

    def __len__(self) -> int:
        return len(self.cells())

    def items(self):
        return self.cells().items()

    def values(self):
        return self.cells().values()

    def __repr__(self) -> str:
        """The cells as a dict literal, in cell order whatever the order of the writes."""
        return repr(dict(sorted(self.cells().items())))

    def count(self, symbol: str) -> int:
        """Number of cells holding ``symbol``, in O(writes); a blank cell is not held."""
        if symbol == BLANK:
            return 0
        n, in_base = self.n, self.symbol == symbol
        if not n:
            return list(self.writes.values()).count(symbol)
        total = n if in_base else 0
        for cell, sym in self.writes.items():
            total += (sym == symbol) - (in_base and 0 <= cell < n)
        return total


@dataclass(frozen=True)
class ID:
    """An instantaneous description: state, head position, finite-support tape.

    Cells absent from ``tape`` hold the blank symbol.  The tape is a
    ``Tape``: a plain mapping is copied on construction, its explicit
    blanks stripped, into the writes of ``Tape(0, BLANK, ...)``, which
    serve as its cells too, so equal configurations compare equal and
    reading the tape whole copies nothing more; a ``Tape`` is kept as it
    is.
    """

    state: str
    head: int
    tape: Tape

    def __post_init__(self) -> None:
        if type(self.tape) is not Tape:
            clean = {cell: sym for cell, sym in self.tape.items() if sym != BLANK}
            tape = Tape(0, BLANK, clean)
            # With no base run and no blank write, the writes are the cells.
            tape._cells = clean
            object.__setattr__(self, "tape", tape)

    def symbol_at(self, cell: int) -> str:
        return self.tape.get(cell, BLANK)


def blank_id(machine: Machine) -> ID:
    """The all-blank starting configuration of ``machine``."""
    return ID(machine.start_state, 0, {})


def unary_id(machine: Machine, n: int, symbol: str = "1") -> ID:
    """Starting configuration with ``n`` copies of ``symbol`` at cells 0..n-1.

    O(1) whatever ``n``: the tape is a read-only ``Tape`` over range(n),
    which a ``Runner`` reads in place from start to verdict, keeping only
    the cells it writes.
    """
    if n < 0:
        raise GodelsimError("n must be >= 0")
    return ID(machine.start_state, 0, Tape(n, symbol, {}))


class Halted(_Frozen):
    __slots__ = ("steps", "final_id")
    steps: int
    final_id: ID

    def __init__(self, steps: int, final_id: ID) -> None:
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "final_id", final_id)


class LoopDetected(_Frozen):
    __slots__ = ("first_repeat_step", "period")
    first_repeat_step: int
    period: int

    def __init__(self, first_repeat_step: int, period: int) -> None:
        object.__setattr__(self, "first_repeat_step", first_repeat_step)
        object.__setattr__(self, "period", period)
        if period < 1 or first_repeat_step < period:
            raise GodelsimError("need period >= 1 and first_repeat_step >= period")


class BudgetExceeded(_Frozen):
    __slots__ = ("budget",)
    budget: int

    def __init__(self, budget: int) -> None:
        object.__setattr__(self, "budget", budget)


RunOutcome = Halted | LoopDetected | BudgetExceeded


def step(machine: Machine, desc: ID) -> Optional[ID]:
    """Apply one transition; ``None`` marks a halted configuration."""
    if desc.state not in machine.states:
        raise MalformedIDError(f"state {desc.state!r} not in machine states")
    sym = desc.symbol_at(desc.head)
    if sym not in machine.alphabet:
        raise MalformedIDError(f"symbol {sym!r} not in machine alphabet")
    rule = machine.transitions.get((desc.state, sym))
    if rule is None:
        return None
    nstate, nsym, move = rule
    tape = dict(desc.tape.items())
    if nsym == BLANK:
        tape.pop(desc.head, None)
    else:
        tape[desc.head] = nsym
    head = desc.head + (1 if move is Move.RIGHT else -1)
    return ID(nstate, head, tape)


def canonicalize(desc: ID) -> ID:
    """Translate so the leftmost written cell (or the head, on a blank tape) is 0."""
    shift = min(desc.tape) if desc.tape else desc.head
    if shift == 0:
        return desc
    return ID(desc.state, desc.head - shift, {cell - shift: sym for cell, sym in desc.tape.items()})


def encode_id(desc: ID) -> bytes:
    """Stable injective byte key for a canonical configuration."""
    cells = tuple(sorted(desc.tape.items()))
    return repr((desc.state, desc.head, cells)).encode("utf-8")


# Karp–Rabin fingerprints of the tape relative to the head, base fixed so
# keys are the same on every run.  The modulus is the prime 2**60 - 93, so a
# fingerprint is at most two 30-bit digits of a CPython int (2**61 - 1 took
# three), and the base is a primitive root of it: its powers take all p - 1
# nonzero values, where under 2**61 - 1 they took only (p - 1)/6.
_FINGERPRINT_MODULUS = (1 << 60) - 93
_FINGERPRINT_BASE = 1_000_003
# A run bounded by at most _SHORT_RUN_STEPS steps keys by the prime
# 2**29 - 3 instead (the base is a primitive root of it too), so fp, each
# step's fp + (new - old) and each key fp + row are one 30-bit digit, which
# CPython adds, multiplies and reduces on fast paths.  Among n steps the
# expected false key hits are at most n**2 / 2p, each costing a replay: at
# most 1/64 for n = 2**12, but 454 hits and 28x the time on counter.tm at
# 10**6 steps, so a longer or unbounded run keeps the wide modulus.
_SHORT_RUN_STEPS = 1 << 12
_SHORT_RUN_MODULUS = (1 << 29) - 3


@functools.lru_cache(maxsize=None)
def _fingerprint_factors(mod: int) -> tuple[int, Optional[int], tuple[None, int, int]]:
    """(r, (r - 1)**-1, (None, r**-1, r)) mod a prime ``mod``; the second is None when r = 1.

    (r - 1)**-1 sums a run of equal cells in closed form.  The last tuple,
    indexed by a move (+1 right, -1 left), is the fingerprint's factor for
    that move: a move left raises every exponent cell - head by one, so it
    multiplies by r, and a move right divides by it.
    """
    base = _FINGERPRINT_BASE % mod
    return base, None if base == 1 else pow(base - 1, -1, mod), (None, pow(base, -1, mod), base)


def _start_fingerprint(
    n: int, symbol: str, writes: Mapping[int, str], head: int, codes: Mapping[str, int], mod: int
) -> int:
    """sum(codes[sym] * r**(cell - head)) mod ``mod`` over the tape ``Tape(n, symbol, writes)``.

    The base run comes in closed form, codes[symbol] * (r**n - 1) / (r - 1)
    (Karp & Rabin 1987), and each write as its change over the base cell
    under it, (codes[write] - codes[base]) * r**cell.
    """
    r, sum_inverse, _ = _fingerprint_factors(mod)
    base_code = codes[symbol] if n else 0
    fp = 0
    if base_code:
        fp = base_code * (n if sum_inverse is None else (pow(r, n, mod) - 1) * sum_inverse)
    for cell, sym in writes.items():
        fp += (codes[sym] - (base_code if 0 <= cell < n else 0)) * pow(r, cell, mod)
    return fp * pow(r, -head, mod) % mod


def _widened(machine: Machine, state: str, symbols: Iterable[str]) -> Machine:
    """``machine`` with ``state`` and ``symbols`` added, started in ``state``.

    The added state and symbols have no rule, so a run that reads one
    halts there, and ``Runner._stop`` raises.
    """
    return Machine(machine.states | {state}, machine.alphabet | set(symbols), machine.transitions, state)


# What ``Runner._advance``, ``Runner._steps`` and ``Runner._verdict`` give
# for a run that stops on a configuration no rule applies to, and for one
# whose step repeats an earlier configuration (its period kept on the
# runner).  The ``Halted`` the first stands for costs a decoded snapshot,
# and the ``LoopDetected`` of the second a checked record, so only
# callers that read them build them (``Runner._built``).
_HALTS = object()
_LOOPS = object()


class Runner:
    """One run of ``machine`` from ``start``, advanced in place.

    The run steps the machine's compiled table (see ``Machine``): it keeps
    the current state as its row offset and the tape as symbol codes, so a
    step is one dict read, one list index and, when the symbol changes,
    one dict write.  Strings are decoded only at the edges: ``state``,
    ``symbol_at``, ``snapshot`` and ``Halted``.  A start state or tape
    symbol the machine lacks gets a row or code of its own with no rule
    (in a table widened for this run), so reading it raises
    ``MalformedIDError`` at the step that reads it, as it would halt there.

    A run costs what it steps, not what its start tape holds.  The base
    run of the start's ``Tape`` (as ``unary_id`` gives, or a
    ``Halted.final_id``) is read in place for the whole run; its writes are
    copied into a dict of the run's own, which keeps every cell the run
    writes, a blank written as a blank.  A read that misses the dict falls
    back to the base run; a run with no base pays one ``is None`` test per
    step for this.  Set-up costs O(writes of the
    start) and a few attribute stores: the compiled table, the start's row
    and, under loop detection, the modulus, its move factors (one cached
    tuple) and the start's key.  A step costs O(1).  An immutable ``ID`` is
    built only on request, by decoding the writes; ``count`` reads the
    ones off the run instead, so a caller that wants only those (as
    ``run_for_ones`` and ``run_value`` do) builds no ``Halted``.

    A run is driven one way, by ``run(budget, on_step=None)`` and the
    functions built on it, and watched one way, by its ``on_step`` hook.
    Internally a halt or a loop is a sentinel, ``_HALTS`` or ``_LOOPS``
    (with the period in ``period``), and the ``Halted`` or
    ``LoopDetected`` it stands for is built only at the edge, where a
    caller reads it (``_built``): in ``run`` and ``run_for_ones``.  ``run``
    without a step hook takes its steps in one batched loop over local
    variables (``_steps``); ``_advance`` takes one step, for the dovetail
    scheduler, which interleaves runs and only counts a loop, and for
    ``run`` with a hook.

    With ``detect_loops`` each visited configuration is keyed by one int,
    ``fp + row``, where fp is the fingerprint
    sum(code(sym) * r**(cell - head)) mod p.  The key is not one-to-one in
    (fp, row): configurations in different states may share it, and the
    exact check below tells them apart as it does any other collision.  So
    a key costs one add, and a step updates fp as
    ``(fp + (new - old)) * factor % p``, where the write's change is a small
    int.  p is read when the runner is built: 2**60 - 93, so fp is at most
    two 30-bit digits, or, when the caller bounds the run by ``limit`` <=
    2**12 steps, 2**29 - 3, so fp and the key are one digit (``limit``
    picks the modulus and nothing else; see ``_SHORT_RUN_MODULUS``).  The
    start's fingerprint sums the base run in closed form.  Being relative
    to the head, the fingerprint follows a write or a one-cell move in
    O(1), and translates share a key, as they share a form under
    ``canonicalize``.  A key hit is only a candidate, decided exactly by
    ``_confirm``: it compares run keys (``_canonical_key``), which are
    equal exactly when the ``canonicalize`` forms are, so a collision costs
    time but never changes a verdict.  The earlier configuration's key
    comes straight from ``start`` when the hit is on step 0, as every
    loop back to the start is, and from a replay from ``start`` otherwise.
    A key costs O(w log w) for the w cells the configuration wrote, however
    long the base run is.  A hit on the key of a start with no base run
    and no non-blank cell needs no run key when the run holds no non-blank
    cell either: both fingerprints are then exactly 0, so both keys are
    rows, and equal keys are one row.
    """

    __slots__ = (
        "machine", "compiled", "table", "start", "row", "head", "tape",
        "base_len", "base_symbol", "base_code", "miss",
        "steps", "seen", "exact", "fp", "mod", "factors", "period",
    )

    def __init__(
        self, machine: Machine, start: ID, detect_loops: bool = True, limit: Optional[int] = None
    ):
        self.machine = self.compiled = compiled = machine
        self.start = start
        self.head = head = start.head
        self.steps = self.fp = 0
        tape = start.tape
        n, symbol, writes = tape.n, tape.symbol, tape.writes
        try:
            codes = compiled.codes
            row, base_code = compiled.rows[start.state], codes[symbol] if n else 0
            self.tape = {cell: codes[sym] for cell, sym in writes.items()} if writes else {}
        except KeyError:
            self.compiled = compiled = _widened(
                machine, start.state, [*writes.values(), symbol] if n else writes.values()
            )
            codes = compiled.codes
            row, base_code = compiled.rows[start.state], codes[symbol] if n else 0
            self.tape = {cell: codes[sym] for cell, sym in writes.items()}
        self.table, self.row = compiled.table, row
        self.base_len, self.base_symbol, self.base_code = n, symbol, base_code
        # What a read that misses the dict gives: None sends it on to the base run.
        self.miss = None if n else 0
        if not detect_loops:
            self.seen = None
            return
        # min(_FINGERPRINT_MODULUS, _SHORT_RUN_MODULUS): the short key never widens the modulus.
        mod = _FINGERPRINT_MODULUS
        if limit is not None and limit <= _SHORT_RUN_STEPS and mod > _SHORT_RUN_MODULUS:
            mod = _SHORT_RUN_MODULUS
        self.mod = mod
        self.factors = _fingerprint_factors(mod)[2]
        if n or writes:
            self.fp = _start_fingerprint(n, symbol, writes, head, codes, mod)
        self.seen = {self.fp + row: 0}
        # Key -> {canonical key of a configuration: step}, for keys hit by
        # configurations that proved different.
        self.exact: dict[int, dict[tuple, int]] = {}

    @property
    def state(self) -> str:
        """The current state."""
        compiled = self.compiled
        return compiled.state_names[self.row // len(compiled.symbol_names)]

    def snapshot(self) -> ID:
        """The current configuration as an immutable ``ID`` (the writes are decoded into a new dict)."""
        names = self.compiled.symbol_names
        writes = {cell: names[code] for cell, code in self.tape.items()}
        return ID(self.state, self.head, Tape(self.base_len, self.base_symbol, writes))

    def count(self, symbol: str = "1") -> int:
        """Cells holding ``symbol`` now, in O(writes): ``count_symbols(self.snapshot(), symbol)``."""
        code = self.compiled.codes.get(symbol)
        if not code:  # a blank cell is not held, and a symbol with no code is on no cell
            return 0
        n, tape = self.base_len, self.tape
        if self.base_code != code:
            return list(tape.values()).count(code)
        total = n
        for cell, held in tape.items():
            if 0 <= cell < n:
                total -= held != code
            else:
                total += held == code
        return total

    def _advance(self) -> Optional[object]:
        """Take one step: ``_LOOPS`` on a loop, ``_HALTS`` (changing nothing) on a halt, else ``None``."""
        tape, head = self.tape, self.head
        old = tape.get(head, self.miss)
        if old is None:
            old = self.base_code if 0 <= head < self.base_len else 0
        rule = self.table[self.row + old]
        if rule is None:
            return self._stop(old)
        self.row, new, move = rule
        if new != old:
            tape[head] = new
        self.head = head + move
        self.steps = steps = self.steps + 1
        seen = self.seen
        if seen is None:
            return None
        self.fp = fp = (self.fp + (new - old)) * self.factors[move] % self.mod
        key = fp + self.row
        first = seen.setdefault(key, steps)
        if first == steps:
            return None
        return self._confirm(key, first)

    def _steps(self, k: int) -> Optional[object]:
        """Take up to ``k`` steps: ``_LOOPS`` on a loop, ``_HALTS`` on a halt, else ``None``.

        A halt on the configuration reached after ``k`` steps is reported
        too, so ``_steps(0)`` is the halt probe.  ``_advance`` in one loop
        over local variables, written back to the run at an outcome, at a
        key hit (which ``_confirm`` decides against the run as it stands)
        and at the end.
        """
        table, tape, miss, seen = self.table, self.tape, self.miss, self.seen
        base_len, base_code = self.base_len, self.base_code
        factors, mod = (self.factors, self.mod) if seen is not None else (None, None)
        row, head, steps, fp = self.row, self.head, self.steps, self.fp
        end = steps + k
        while True:
            old = tape.get(head, miss)
            if old is None:
                old = base_code if 0 <= head < base_len else 0
            rule = table[row + old]
            if rule is None or steps >= end:
                break
            row, new, move = rule
            if new != old:
                tape[head] = new
            head += move
            steps += 1
            if seen is None:
                continue
            fp = (fp + (new - old)) * factors[move] % mod
            key = fp + row
            first = seen.setdefault(key, steps)
            if first != steps:
                self.row, self.head, self.steps, self.fp = row, head, steps, fp
                outcome = self._confirm(key, first)
                if outcome is not None:
                    return outcome
        self.row, self.head, self.steps, self.fp = row, head, steps, fp
        return self._stop(old) if rule is None else None

    def symbol_at(self, cell: int) -> str:
        """The symbol on ``cell`` now (a blank cell reads ``BLANK``), without changing the run."""
        code = self.tape.get(cell, self.miss)
        if code is None:
            code = self.base_code if 0 <= cell < self.base_len else 0
        return self.compiled.symbol_names[code]

    def run(
        self, budget: int, on_step: Optional[Callable[["Runner"], None]] = None
    ) -> RunOutcome:
        """Advance until an outcome, or for ``budget`` steps (see ``run_with_loop_detection``).

        ``on_step(self)`` is called at the start and after every step taken,
        the one that detects a loop included; a step changes at most the
        cell the head left.  Without it the steps are batched.
        """
        if on_step is None:
            return self._built(self._verdict(budget))
        if budget < 0:
            raise GodelsimError("budget must be >= 0")
        on_step(self)
        for _ in range(budget):
            outcome = self._advance()
            if outcome is _HALTS:
                return self._halt()
            on_step(self)
            if outcome is not None:
                return self._built(outcome)
        return self._built(self._steps(0)) or BudgetExceeded(budget)

    def _verdict(self, budget: int) -> BudgetExceeded | object:
        """``run(budget)`` without a step hook, with ``_HALTS`` and ``_LOOPS`` in place of its verdicts."""
        if budget < 0:
            raise GodelsimError("budget must be >= 0")
        return self._steps(budget) or BudgetExceeded(budget)

    def _stop(self, code: int) -> object:
        """``_HALTS``, for the run reading ``code`` where no rule applies.

        Raises ``MalformedIDError`` if the state or that symbol is foreign to
        the machine, which only a widened table (see ``__init__``) can hold.
        """
        compiled, machine = self.compiled, self.machine
        if compiled is not machine:
            state, sym = self.state, compiled.symbol_names[code]
            if state not in machine.states:
                raise MalformedIDError(f"state {state!r} not in machine states")
            if sym not in machine.alphabet:
                raise MalformedIDError(f"symbol {sym!r} not in machine alphabet")
        return _HALTS

    def _halt(self) -> Halted:
        """The run's ``Halted``, once ``_stop`` has let the halt stand."""
        return Halted(self.steps, self.snapshot())

    def _built(self, outcome: Optional[object]) -> Optional[RunOutcome]:
        """``outcome`` with ``_HALTS`` or ``_LOOPS`` built into the ``Halted`` or ``LoopDetected`` it stands for."""
        if outcome is _HALTS:
            return self._halt()
        if outcome is _LOOPS:
            return LoopDetected(self.steps, self.period)
        return outcome

    def _canonical_key(self, at_start: bool = False) -> tuple:
        """The current configuration (or, ``at_start``, the start) up to translation.

        The key is ``(row, head - shift, ((offset, length, code), ...))``
        over the maximal runs of equal non-blank codes, in cell order, where
        shift is the first cell of the leftmost run (the head, on a blank
        tape) and each offset is a run's first cell minus shift.  The cells
        of a tape and its maximal runs determine each other, so two keys of
        one run are equal exactly when the ``encode_id`` of the
        ``canonicalize`` forms of the two configurations are.

        The base run is one interval, [0, base_len), which the sorted
        writes split, so a key costs O(w log w) for w writes however long
        the base is.  The start's key codes its writes through this run's
        codes, so it compares with the keys of the run.
        """
        if at_start:
            start, compiled = self.start, self.compiled
            writes = start.tape.writes
            row, head = compiled.rows[start.state], start.head
            codes = compiled.codes
            cells = sorted([(cell, codes[sym]) for cell, sym in writes.items()]) if writes else []
        else:
            row, head, cells = self.row, self.head, sorted(self.tape.items())
        n, base_code = self.base_len, self.base_code
        if not n and not cells:
            return row, 0, ()
        # A blank written past the base and past every write closes the base run.
        cells.append((max(n, cells[-1][0] + 1) if cells else n, 0))
        runs: list[tuple[int, int, int]] = []
        # The run being built covers [begin, end) with ``code`` (none yet while
        # code is 0); ``pos`` is the first base cell that no write has passed.
        begin = end = code = pos = 0
        for cell, sym in cells:
            # The base cells from pos up to this write, then the write itself.
            for first, last, piece in ((pos, min(cell, n), base_code), (cell, cell + 1, sym)):
                if first >= last or not piece:
                    continue
                if piece == code and first == end:
                    end = last
                else:
                    if code:
                        runs.append((begin, end - begin, code))
                    begin, end, code = first, last, piece
            if cell >= 0:
                pos = min(cell + 1, n)
        if not code:
            return row, 0, ()
        runs.append((begin, end - begin, code))
        shift = runs[0][0]
        return row, head - shift, tuple([(offset - shift, length, sym) for offset, length, sym in runs])

    def _confirm(self, key: int, first: int) -> Optional[object]:
        """Decide a key hit exactly: ``_LOOPS``, with the period kept in ``period``, or ``None``.

        The hit is checked against every earlier configuration with this
        key.  On the first hit on a key, the earlier step is 0 when the key
        is the start's.  A start with no base run and no non-blank cell
        has the run key ``(row, 0, ())`` and fingerprint 0, so its key is
        its row.  When no cell the run holds has a non-blank code either,
        the run's fingerprint is exactly 0 and its key is its row too, so
        the hit has the start's row and matches the start, which needs no
        run key.  A run that holds a non-blank cell may hit that key from
        another row; the run keys decide it, as they decide any other hit.
        Any other first hit builds the key of the earlier configuration
        (the start's straight from ``start`` when the earlier step is 0,
        else by replaying a runner without loop detection from ``start`` to
        it) and compares it with the current one: one comparison decides
        the hit, and a table of exact keys is kept for this key only when
        the two differ, so that a later hit on it is checked against both.
        """
        exact = self.exact.get(key)
        if exact is None and not first and not self.base_len and not any(self.tape.values()):
            writes = self.start.tape.writes
            if not writes or all(sym == BLANK for sym in writes.values()):
                self.period = self.steps
                return _LOOPS
        current = self._canonical_key()
        if exact is None:
            if first:
                earlier = Runner(self.machine, self.start, detect_loops=False)
                earlier._steps(first)
                earlier_key = earlier._canonical_key()
            else:
                earlier_key = self._canonical_key(at_start=True)
            if earlier_key != current:
                self.exact[key] = {earlier_key: first, current: self.steps}
                return None
            prev = first
        else:
            prev = exact.setdefault(current, self.steps)
            if prev == self.steps:
                return None
        self.period = self.steps - prev
        return _LOOPS


def run_with_loop_detection(machine: Machine, start: ID, budget: int) -> RunOutcome:
    """Run ``machine`` from ``start``, self-terminating on a repeated configuration.

    Every visited configuration is recorded up to translation; the run
    reports ``LoopDetected`` at the first step whose configuration was
    seen before (period = distance back to the previous occurrence).
    ``Halted`` wins if a halting configuration appears first, and
    ``BudgetExceeded`` is returned after ``budget`` steps without either;
    repetition detection cannot see tape-growing divergence, which is why
    the budget backstop exists.  A caller that watches each step builds a
    ``Runner`` and passes its hook to ``Runner.run``, as ``gu run --trace``
    does.
    """
    return Runner(machine, start, limit=budget).run(budget)


def naive_run(machine: Machine, start: ID, budget: int) -> Halted | BudgetExceeded:
    """Plain simulation without any repetition check (loops run the budget out)."""
    return Runner(machine, start, detect_loops=False).run(budget)


def count_symbols(desc: ID, symbol: str = "1") -> int:
    """Number of tape cells holding ``symbol``, in O(writes) (``Tape.count``)."""
    return desc.tape.count(symbol)


def run_for_ones(machine: Machine, start: ID, budget: int) -> int | LoopDetected | BudgetExceeded:
    """Run under loop detection: the ones left on a halted tape, else the non-halting outcome.

    The ones are read off the runner (``Runner.count``), so a halt builds
    no ``Halted`` and no final ``ID``.
    """
    runner = Runner(machine, start, limit=budget)
    outcome = runner._verdict(budget)
    return runner.count() if outcome is _HALTS else runner._built(outcome)


_TWO_STATE_LOOPER = Machine.from_rules(
    [("p0", BLANK, "p1", BLANK, "R"), ("p1", BLANK, "p0", BLANK, "L")], "p0"
)


def two_state_looper() -> Machine:
    """A machine that ping-pongs between two states forever without writing.

    Its canonical configuration repeats at step 2 with period 2, so
    loop-detecting execution self-terminates almost immediately.  Every
    call returns the same (immutable) instance.
    """
    return _TWO_STATE_LOOPER


# Walks right over a run of ones, writing nothing, and halts on the first blank.
_UNARY_READER = Machine.from_rules([("r", "1", "r", "1", "R")], "r")
# The looper's blank start; a Runner never changes its start, so one serves every run.
_LOOPER_START = blank_id(_TWO_STATE_LOOPER)


def value_start(value: Optional[int]) -> tuple[Machine, ID]:
    """The run that realizes ``value``: (machine, start configuration).

    For a value v it is one shared reader on ``unary_id(reader, v)``, which
    halts after exactly v steps with the v ones it started on; for None,
    a divergence, it is the two-state looper on a blank tape, the same
    start on every call.
    """
    if value is None:
        return _TWO_STATE_LOOPER, _LOOPER_START
    if value < 0:
        raise GodelsimError("value must be >= 0")
    return _UNARY_READER, unary_id(_UNARY_READER, value)


def run_value(value: Optional[int]) -> int | LoopDetected:
    """Run ``value_start(value)``: ``value`` ones, or ``LoopDetected(2, 2)``.

    The budget follows from the value, so the run always reaches a verdict:
    the reader halts after exactly ``value`` steps, and the looper, run
    under loop detection by ``run_for_ones``, repeats its start at step 2.
    The reader runs without loop detection, at the cost of its steps
    alone, and its ones are read off the runner (``Runner.count``): no
    ``Halted`` and no final ``ID`` is built.  A reader that did not halt
    would raise.
    """
    machine, start = value_start(value)
    if value is None:
        return run_for_ones(machine, start, 2)
    # No reader configuration can repeat, even up to translation: the head
    # moves right every step over a tape that never changes, so its offset
    # from the leftmost 1 rises, and loop detection could only ever answer
    # "no repeat".
    runner = Runner(machine, start, detect_loops=False)
    if runner._verdict(value) is not _HALTS:
        raise AssertionError(f"the unary reader did not halt in {value} steps")
    return runner.count()


_HEADER_RE = re.compile(r"^(states|alphabet|start)\s*:\s*(.*)$")
_TOKEN_RE = re.compile(r"\S+")
_ARROW = "->"
_MOVES = {"L": Move.LEFT, "R": Move.RIGHT}


def _column(line: str, index: int) -> int:
    """The column (from 1) of token ``index`` of ``line``; tokens are what ``str.split()`` gives."""
    return [m.start() + 1 for m in _TOKEN_RE.finditer(line)][index]


def parse_machine_text(text: str) -> Machine:
    """Parse the line-oriented machine format.

    Header lines ``states:``, ``alphabet:`` and ``start:`` must precede the
    transition lines ``state symbol -> state symbol L|R``.  ``#`` starts a
    comment and the blank symbol is spelled ``_``.  A transition line is
    split with ``str.split``; the columns an error reports are found only
    when one is raised.
    """
    states: Optional[set[str]] = None
    alphabet: Optional[set[str]] = None
    start: Optional[str] = None
    transitions: dict[tuple[str, str], tuple[str, str, Move]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        stripped = line.strip()
        if not stripped:
            continue
        header = _HEADER_RE.match(stripped)
        if header is not None:
            name, rest = header.group(1), header.group(2).split()
            if name == "states":
                states = set(rest)
            elif name == "alphabet":
                alphabet = set(rest)
            else:
                if len(rest) != 1:
                    raise MachineParseError("start takes exactly one state", lineno)
                start = rest[0]
            continue
        if states is None or alphabet is None or start is None:
            raise MachineParseError(
                "transition before states:/alphabet:/start: headers", lineno
            )
        tokens = stripped.split()
        if len(tokens) != 6 or tokens[2] != _ARROW:
            raise MachineParseError(
                "expected 'state symbol -> state symbol L|R'", lineno, _column(line, 0)
            )
        state, symbol, _, nstate, nsymbol, move = tokens
        if state not in states:
            raise MachineParseError(f"unknown state {state!r}", lineno, _column(line, 0))
        if nstate not in states:
            raise MachineParseError(f"unknown state {nstate!r}", lineno, _column(line, 3))
        if symbol not in alphabet:
            raise MachineParseError(f"unknown symbol {symbol!r}", lineno, _column(line, 1))
        if nsymbol not in alphabet:
            raise MachineParseError(f"unknown symbol {nsymbol!r}", lineno, _column(line, 4))
        direction = _MOVES.get(move)
        if direction is None:
            raise MachineParseError("move must be L or R", lineno, _column(line, 5))
        key = (state, symbol)
        if key in transitions:
            raise MachineParseError(f"duplicate transition for {key!r}", lineno, _column(line, 0))
        transitions[key] = (nstate, nsymbol, direction)

    if states is None or alphabet is None or start is None:
        raise MachineParseError("missing states:/alphabet:/start: header", 1)
    if start not in states:
        raise MachineParseError(f"start state {start!r} not declared", 1)
    return Machine(frozenset(states), frozenset(alphabet | {BLANK}), transitions, start)


def load_machine_file(path: str | Path) -> Machine:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MachineParseError(f"not UTF-8 text: {exc.reason}", line) from exc
    return parse_machine_text(text)
