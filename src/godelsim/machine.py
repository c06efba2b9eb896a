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

from . import GodelsimError

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


@dataclass(frozen=True)
class Machine:
    """A deterministic Turing machine over string states and symbols.

    ``transitions`` maps (state, read symbol) to (next state, write
    symbol, move).  Determinism is structural: a dict admits one entry
    per key.  The blank symbol is always part of the alphabet.
    """

    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: Mapping[tuple[str, str], tuple[str, str, Move]]
    start_state: str
    # Fingerprint code of each symbol (see ``Runner``), compiled once per machine.
    codes: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if BLANK not in self.alphabet:
            raise GodelsimError("alphabet must contain the blank symbol")
        if self.start_state not in self.states:
            raise GodelsimError(f"start state {self.start_state!r} not in states")
        for (state, sym), (nstate, nsym, move) in self.transitions.items():
            if state not in self.states or nstate not in self.states:
                raise GodelsimError(f"transition ({state!r}, {sym!r}) uses unknown state")
            if sym not in self.alphabet or nsym not in self.alphabet:
                raise GodelsimError(f"transition ({state!r}, {sym!r}) uses unknown symbol")
            if not isinstance(move, Move):
                raise GodelsimError("move must be a Move")
        object.__setattr__(self, "codes", _symbol_codes(self.alphabet))

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
    """The non-blank cells of ``symbol`` on 0..n-1 overlaid by ``writes``, as a plain dict.

    Built with C-level dict operations; the result is ``writes`` itself
    when there is no base run and no blank among the writes, so callers
    must not mutate it.
    """
    if n:
        cells = dict.fromkeys(range(n), symbol)
        cells.update(writes)
    else:
        cells = writes
    if BLANK in writes.values():
        if cells is writes:
            cells = dict(writes)
        for cell in [cell for cell, sym in writes.items() if sym == BLANK]:
            del cells[cell]
    return cells


class Tape(Mapping[int, str]):
    """An immutable tape: ``symbol`` on cells 0..n-1, overlaid by ``writes``.

    ``writes`` overrides the base run cell by cell; a blank in it erases a
    base cell (and is a no-op elsewhere).  As a mapping the tape
    holds exactly its non-blank cells, like the plain dict tape of an
    ``ID``, so the two compare equal when their cells are equal.  Reading
    one cell or counting a symbol costs O(1) or O(writes); iterating
    builds the plain dict once, with C-level dict operations, and keeps it.
    The tape takes ownership of ``writes``: nobody may mutate it afterwards.
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
        total = n if in_base else 0
        for cell, sym in self.writes.items():
            total += (sym == symbol) - (in_base and 0 <= cell < n)
        return total


@dataclass(frozen=True)
class ID:
    """An instantaneous description: state, head position, finite-support tape.

    Cells absent from ``tape`` hold the blank symbol.  A plain mapping is
    copied on construction with its explicit blanks stripped, so equal
    configurations compare equal; a ``Tape`` is immutable and never shows
    a blank cell, so it is kept as it is.
    """

    state: str
    head: int
    tape: Mapping[int, str]

    def __post_init__(self) -> None:
        if type(self.tape) is not Tape:
            clean = {cell: sym for cell, sym in self.tape.items() if sym != BLANK}
            object.__setattr__(self, "tape", clean)

    def symbol_at(self, cell: int) -> str:
        return self.tape.get(cell, BLANK)


def blank_id(machine: Machine) -> ID:
    """The all-blank starting configuration of ``machine``."""
    return ID(machine.start_state, 0, {})


def unary_id(machine: Machine, n: int, symbol: str = "1") -> ID:
    """Starting configuration with ``n`` copies of ``symbol`` at cells 0..n-1.

    O(1) whatever ``n``: the tape is a read-only ``Tape`` over range(n),
    which a ``Runner`` reads in place instead of copying.
    """
    if n < 0:
        raise GodelsimError("n must be >= 0")
    return ID(machine.start_state, 0, Tape(n, symbol, {}))


@dataclass(frozen=True)
class Halted:
    steps: int
    final_id: ID


@dataclass(frozen=True)
class LoopDetected:
    first_repeat_step: int
    period: int

    def __post_init__(self) -> None:
        if self.period < 1 or self.first_repeat_step < self.period:
            raise GodelsimError("need period >= 1 and first_repeat_step >= period")


@dataclass(frozen=True)
class BudgetExceeded:
    budget: int


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
    tape = dict(desc.tape)
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


# Every step compares its move with this; on Python 3.11 the attribute
# lookup ``Move.RIGHT`` costs about ten times a module-global lookup.
_RIGHT = Move.RIGHT

# Karp–Rabin fingerprints of the tape relative to the head: modulus the
# Mersenne prime 2**61 - 1, base fixed so keys are the same on every run.
_FINGERPRINT_MODULUS = (1 << 61) - 1
_FINGERPRINT_BASE = 1_000_003


@functools.lru_cache(maxsize=None)
def _fingerprint_factors(mod: int) -> tuple[int, int, Optional[int]]:
    """(r, r**-1, (r - 1)**-1) mod a prime ``mod``; the last is None when r = 1.

    r and r**-1 are the fingerprint's factors for a move left and right;
    (r - 1)**-1 sums a run of equal cells in closed form.
    """
    base = _FINGERPRINT_BASE % mod
    return base, pow(base, -1, mod), None if base == 1 else pow(base - 1, -1, mod)


def _symbol_codes(symbols: Iterable[str]) -> dict[str, int]:
    """Blank = 0, the other symbols 1, 2, ... in sorted order."""
    ordered = sorted(set(symbols) - {BLANK})
    return {BLANK: 0, **{sym: code for code, sym in enumerate(ordered, 1)}}


def _start_fingerprint(
    n: int, symbol: str, writes: Mapping[int, str], head: int, codes: Mapping[str, int], mod: int
) -> int:
    """sum(codes[sym] * r**(cell - head)) mod ``mod`` over the tape ``Tape(n, symbol, writes)``.

    The base run comes in closed form, codes[symbol] * (r**n - 1) / (r - 1)
    (Karp & Rabin 1987), and the writes by Horner's rule from the rightmost,
    each as its change to the base cell under it.
    """
    if not n and not writes:
        return 0
    r, _, sum_inverse = _fingerprint_factors(mod)
    base_code = codes[symbol] if n else 0
    fp = 0
    if base_code:
        run_sum = n if sum_inverse is None else (pow(r, n, mod) - 1) * sum_inverse
        fp = base_code * run_sum % mod
    acc, above = 0, None
    for cell in sorted(writes, reverse=True):
        if above is not None:
            acc = acc * (r if above - cell == 1 else pow(r, above - cell, mod)) % mod
        acc += codes[writes[cell]] - (base_code if 0 <= cell < n else 0)
        above = cell
    if above is not None:
        fp += acc * pow(r, above, mod)
    return fp * pow(r, -head, mod) % mod


class Runner:
    """One run of ``machine`` from ``start``, advanced in place one step at a time.

    A run costs what it steps, not what its start tape holds.  A ``Tape``
    start (as ``unary_id`` gives, or a ``Halted.final_id``) is read in place
    as a read-only base run; the run keeps the cells it writes, and the
    base cells it has read, in a dict of its own, where a blank written
    stays as a blank.  Any other start mapping is copied into that dict.
    A read that misses the dict falls back to the base run, which is
    dropped once every base cell is in the dict; a run with no base pays
    one ``is None`` test per step for this.  So set-up
    costs O(writes of the start), a step O(1), and an immutable ``ID`` is
    built only on request: ``snapshot`` copies the dict, and ``Halted``
    wraps it without a copy, as no step changes a halted run.

    With ``detect_loops`` each visited configuration is keyed by its state
    and the fingerprint sum(code(sym) * r**(cell - head)) mod p, with symbol
    codes taken from the sorted alphabet (blank = 0), compiled once per
    machine; a start tape holding a foreign symbol gets a table of its own.
    The start's fingerprint sums the base run in closed form.  Being
    relative to the head, the fingerprint follows a write or a one-cell
    move in O(1), and translates share a key, as they share a form under
    ``canonicalize``.  A key hit is only a candidate: the earlier
    configuration is rebuilt by replaying from ``start`` and compared
    exactly after ``canonicalize``, so a collision costs time but never
    changes a verdict.
    """

    __slots__ = (
        "machine", "transitions", "start", "state", "head", "tape",
        "base_len", "base_symbol", "unread", "miss",
        "steps", "seen", "exact", "codes", "fp", "mod", "left", "right",
    )

    def __init__(self, machine: Machine, start: ID, detect_loops: bool = True):
        self.machine = machine
        self.transitions = machine.transitions
        self.start = start
        self.state = start.state
        self.head = start.head
        if type(start.tape) is Tape:
            n, self.base_symbol = start.tape.n, start.tape.symbol
            self.tape = dict(start.tape.writes)
        else:
            n, self.base_symbol = 0, BLANK
            self.tape = dict(start.tape)
        # Base cells not in the dict yet: once none is left, the run drops its base.
        self.unread = n - sum(1 for cell in self.tape if 0 <= cell < n) if n and self.tape else n
        self.base_len = n if self.unread else 0
        # What a read that misses the dict gives: None sends it on to the base run.
        self.miss = None if self.unread else BLANK
        self.steps = 0
        self.seen: Optional[dict[str, dict[int, int]]] = None
        if not detect_loops:
            return
        codes = machine.codes
        symbols = set(self.tape.values())
        if self.base_len:
            symbols.add(self.base_symbol)
        if not machine.alphabet.issuperset(symbols):
            # Foreign symbols of the start tape get codes too; reading one still raises.
            codes = _symbol_codes(machine.alphabet | symbols)
        self.codes = codes
        self.mod = mod = _FINGERPRINT_MODULUS
        # A move to the left raises every exponent cell - head by one, a move right lowers it.
        self.left, self.right, _ = _fingerprint_factors(mod)
        self.fp = _start_fingerprint(
            self.base_len, self.base_symbol, self.tape, self.head, codes, mod
        )
        self.seen = {self.state: {self.fp: 0}}
        # (state, fingerprint) -> {canonical key of a configuration: step}, for hit keys.
        self.exact: dict[tuple[str, int], dict[tuple, int]] = {}

    def snapshot(self) -> ID:
        """The current configuration as an immutable ``ID`` (the writes are copied)."""
        return ID(self.state, self.head, Tape(self.base_len, self.base_symbol, dict(self.tape)))

    def advance(self) -> Optional[Halted | LoopDetected]:
        """Take one step.

        Returns ``Halted`` (and changes nothing) when no rule applies,
        ``LoopDetected`` when the new configuration repeats an earlier one
        up to translation, and ``None`` otherwise.
        """
        tape, head = self.tape, self.head
        old = tape.get(head, self.miss)
        if old is None:
            if 0 <= head < self.base_len:
                # First read of a base cell: kept, so that the next read hits.
                old = tape[head] = self.base_symbol
                self.unread -= 1
                if not self.unread:
                    # Every base cell is in the dict now: the run drops its base.
                    self.base_len, self.miss = 0, BLANK
            else:
                old = BLANK
        rule = self.transitions.get((self.state, old))
        if rule is None:
            return self._halt(old)
        state, new, move = rule
        if new != old:
            tape[head] = new
        self.state = state
        self.steps += 1
        right = move is _RIGHT
        self.head = head + 1 if right else head - 1
        seen = self.seen
        if seen is None:
            return None
        fp = self.fp + self.codes[new] - self.codes[old]
        self.fp = fp = fp * (self.right if right else self.left) % self.mod
        by_fp = seen.get(state)
        if by_fp is None:
            by_fp = seen[state] = {}
        first = by_fp.setdefault(fp, self.steps)
        if first == self.steps:
            return None
        return self._confirm((state, fp), first)

    def symbol_at(self, cell: int) -> str:
        """The symbol on ``cell`` now (a blank cell reads ``BLANK``), without changing the run."""
        sym = self.tape.get(cell, self.miss)
        if sym is None:
            sym = self.base_symbol if 0 <= cell < self.base_len else BLANK
        return sym

    def halted(self) -> Optional[Halted]:
        """``Halted`` if no rule applies to the current configuration, else ``None``."""
        sym = self.symbol_at(self.head)
        if (self.state, sym) in self.transitions:
            return None
        return self._halt(sym)

    def run(
        self, budget: int, on_step: Optional[Callable[["Runner"], None]] = None
    ) -> RunOutcome:
        """Advance until an outcome, or for ``budget`` steps (see ``run_with_loop_detection``).

        ``on_step(self)`` is called at the start and after every step taken,
        the one that detects a loop included; a step changes at most the
        cell the head left.
        """
        if budget < 0:
            raise GodelsimError("budget must be >= 0")
        if on_step is not None:
            on_step(self)
        for _ in range(budget):
            outcome = self.advance()
            if isinstance(outcome, Halted):
                return outcome
            if on_step is not None:
                on_step(self)
            if outcome is not None:
                return outcome
        return self.halted() or BudgetExceeded(budget)

    def _halt(self, sym: str) -> Halted:
        """The run's ``Halted``; its ``final_id`` wraps the writes, which no step changes again."""
        if self.state not in self.machine.states:
            raise MalformedIDError(f"state {self.state!r} not in machine states")
        if sym not in self.machine.alphabet:
            raise MalformedIDError(f"symbol {sym!r} not in machine alphabet")
        tape = Tape(self.base_len, self.base_symbol, self.tape)
        return Halted(self.steps, ID(self.state, self.head, tape))

    def _canonical_key(self) -> tuple:
        """The current configuration up to translation, as a hashable tuple.

        It is the form ``canonicalize`` gives (the leftmost written cell, or
        the head on a blank tape, moved to 0) over the non-blank cells, so
        two keys are equal exactly when the ``encode_id`` of the canonical
        configurations are; no ``ID`` is built.
        """
        cells = _plain_cells(self.base_len, self.base_symbol, self.tape)
        shift = min(cells) if cells else self.head
        cells = tuple(sorted((cell - shift, sym) for cell, sym in cells.items()))
        return self.state, self.head - shift, cells

    def _confirm(self, key: tuple[str, int], first: int) -> Optional[LoopDetected]:
        """Decide a key hit exactly, against every earlier configuration with this key."""
        exact = self.exact.get(key)
        if exact is None:
            earlier = Runner(self.machine, self.start, detect_loops=False)
            for _ in range(first):
                earlier.advance()
            exact = self.exact[key] = {earlier._canonical_key(): first}
        prev = exact.setdefault(self._canonical_key(), self.steps)
        if prev == self.steps:
            return None
        return LoopDetected(self.steps, self.steps - prev)


def run_with_loop_detection(
    machine: Machine,
    start: ID,
    budget: int,
    on_visit: Optional[Callable[[int, ID], None]] = None,
) -> RunOutcome:
    """Run ``machine`` from ``start``, self-terminating on a repeated configuration.

    Every visited configuration is recorded up to translation; the run
    reports ``LoopDetected`` at the first step whose configuration was
    seen before (period = distance back to the previous occurrence).
    ``Halted`` wins if a halting configuration appears first, and
    ``BudgetExceeded`` is returned after ``budget`` steps without either;
    repetition detection cannot see tape-growing divergence, which is why
    the budget backstop exists.

    ``on_visit`` observes (step index, canonical configuration) for every
    configuration visited, the start included.
    """
    on_step = None
    if on_visit is not None:
        on_step = lambda run: on_visit(run.steps, canonicalize(run.snapshot()))
    return Runner(machine, start).run(budget, on_step)


def naive_run(machine: Machine, start: ID, budget: int) -> Halted | BudgetExceeded:
    """Plain simulation without any repetition check (loops run the budget out)."""
    return Runner(machine, start, detect_loops=False).run(budget)


def count_symbols(desc: ID, symbol: str = "1") -> int:
    """Number of tape cells holding ``symbol``: O(writes) on a ``Tape``."""
    if type(desc.tape) is Tape:
        return desc.tape.count(symbol)
    return sum(1 for sym in desc.tape.values() if sym == symbol)


def run_for_ones(machine: Machine, start: ID, budget: int) -> int | LoopDetected | BudgetExceeded:
    """Run under loop detection: the ones left on a halted tape, else the non-halting outcome."""
    outcome = run_with_loop_detection(machine, start, budget)
    if isinstance(outcome, Halted):
        return count_symbols(outcome.final_id)
    return outcome


_UNARY_ALPHABET = frozenset((BLANK, "1"))


def unary_writer(value: int) -> Machine:
    """A machine that writes ``value`` ones rightward from a blank tape, then halts.

    Built straight from its states w0..w<value>, with one validation pass.
    """
    if value < 0:
        raise GodelsimError("value must be >= 0")
    states = [f"w{j}" for j in range(value + 1)]
    transitions = {(state, BLANK): (after, "1", _RIGHT) for state, after in zip(states, states[1:])}
    alphabet = _UNARY_ALPHABET if value else frozenset((BLANK,))
    return Machine(frozenset(states), alphabet, transitions, "w0")


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


def value_machine(value: Optional[int]) -> Machine:
    """The machine that realizes ``value``: ``unary_writer(value)``, or the looper for None."""
    return _TWO_STATE_LOOPER if value is None else unary_writer(value)


def run_value(value: Optional[int]) -> int | LoopDetected:
    """Run ``value_machine(value)`` from a blank tape under loop detection.

    The budget follows from the value, so the run always reaches a verdict:
    a writer halts after exactly ``value`` steps with ``value`` ones, and the
    looper repeats its start at step 2 (``LoopDetected(2, 2)``).
    """
    machine = value_machine(value)
    return run_for_ones(machine, blank_id(machine), 2 if value is None else value)


_HEADER_RE = re.compile(r"^(states|alphabet|start)\s*:\s*(.*)$")
_ARROW = "->"


def parse_machine_text(text: str) -> Machine:
    """Parse the line-oriented machine format.

    Header lines ``states:``, ``alphabet:`` and ``start:`` must precede the
    transition lines ``state symbol -> state symbol L|R``.  ``#`` starts a
    comment and the blank symbol is spelled ``_``.
    """
    states: Optional[list[str]] = None
    alphabet: Optional[list[str]] = None
    start: Optional[str] = None
    transitions: dict[tuple[str, str], tuple[str, str, Move]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        header = _HEADER_RE.match(line.strip())
        if header is not None:
            name, rest = header.group(1), header.group(2).split()
            if name == "states":
                states = rest
            elif name == "alphabet":
                alphabet = rest
            else:
                if len(rest) != 1:
                    raise MachineParseError("start takes exactly one state", lineno)
                start = rest[0]
            continue
        if states is None or alphabet is None or start is None:
            raise MachineParseError(
                "transition before states:/alphabet:/start: headers", lineno
            )
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if len(tokens) != 6 or tokens[2][0] != _ARROW:
            raise MachineParseError(
                "expected 'state symbol -> state symbol L|R'", lineno, tokens[0][1]
            )
        (state, state_col), (symbol, symbol_col), _ = tokens[:3]
        (nstate, nstate_col), (nsymbol, nsymbol_col), (move, move_col) = tokens[3:]
        if state not in states:
            raise MachineParseError(f"unknown state {state!r}", lineno, state_col)
        if nstate not in states:
            raise MachineParseError(f"unknown state {nstate!r}", lineno, nstate_col)
        if symbol not in alphabet:
            raise MachineParseError(f"unknown symbol {symbol!r}", lineno, symbol_col)
        if nsymbol not in alphabet:
            raise MachineParseError(f"unknown symbol {nsymbol!r}", lineno, nsymbol_col)
        if move not in ("L", "R"):
            raise MachineParseError("move must be L or R", lineno, move_col)
        key = (state, symbol)
        if key in transitions:
            raise MachineParseError(f"duplicate transition for {key!r}", lineno, state_col)
        transitions[key] = (nstate, nsymbol, Move(move))

    if states is None or alphabet is None or start is None:
        raise MachineParseError("missing states:/alphabet:/start: header", 1)
    if BLANK not in alphabet:
        alphabet = [BLANK, *alphabet]
    if start not in states:
        raise MachineParseError(f"start state {start!r} not declared", 1)
    return Machine(frozenset(states), frozenset(alphabet), transitions, start)


def load_machine_file(path: str | Path) -> Machine:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MachineParseError(f"not UTF-8 text: {exc.reason}", line) from exc
    return parse_machine_text(text)
