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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional

BLANK = "_"


class Move(enum.Enum):
    LEFT = "L"
    RIGHT = "R"


class MachineError(Exception):
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

    def __post_init__(self) -> None:
        if BLANK not in self.alphabet:
            raise ValueError("alphabet must contain the blank symbol")
        if self.start_state not in self.states:
            raise ValueError(f"start state {self.start_state!r} not in states")
        for (state, sym), (nstate, nsym, move) in self.transitions.items():
            if state not in self.states or nstate not in self.states:
                raise ValueError(f"transition ({state!r}, {sym!r}) uses unknown state")
            if sym not in self.alphabet or nsym not in self.alphabet:
                raise ValueError(f"transition ({state!r}, {sym!r}) uses unknown symbol")
            if not isinstance(move, Move):
                raise ValueError("move must be a Move")

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
                raise ValueError(f"duplicate transition for {key!r}")
            transitions[key] = (nstate, write, Move(move))
            states.update((state, nstate))
            alphabet.update((read, write))
        return cls(frozenset(states), frozenset(alphabet), transitions, start_state)


@dataclass(frozen=True)
class ID:
    """An instantaneous description: state, head position, finite-support tape.

    Cells absent from ``tape`` hold the blank symbol; explicit blanks are
    stripped on construction so equal configurations compare equal.
    """

    state: str
    head: int
    tape: Mapping[int, str]

    def __post_init__(self) -> None:
        clean = {cell: sym for cell, sym in self.tape.items() if sym != BLANK}
        object.__setattr__(self, "tape", clean)

    def symbol_at(self, cell: int) -> str:
        return self.tape.get(cell, BLANK)


def blank_id(machine: Machine) -> ID:
    """The all-blank starting configuration of ``machine``."""
    return ID(machine.start_state, 0, {})


def unary_id(machine: Machine, n: int, symbol: str = "1") -> ID:
    """Starting configuration with ``n`` copies of ``symbol`` at cells 0..n-1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return ID(machine.start_state, 0, {cell: symbol for cell in range(n)})


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
            raise ValueError("need period >= 1 and first_repeat_step >= period")


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
def _fingerprint_factors(mod: int) -> tuple[int, int]:
    """(r, r**-1) mod ``mod``: the fingerprint's factors for a move left and right."""
    base = _FINGERPRINT_BASE % mod
    return base, pow(base, -1, mod)


def _tape_fingerprint(
    tape: Mapping[int, str], head: int, codes: Mapping[str, int], base: int, mod: int
) -> int:
    """sum(codes[sym] * base**(cell - head)) mod ``mod``, by Horner's rule from the rightmost cell."""
    fp, above = 0, None
    for cell in sorted(tape, reverse=True):
        if above is not None:
            fp = fp * (base if above - cell == 1 else pow(base, above - cell, mod)) % mod
        fp += codes[tape[cell]]
        above = cell
    return fp if above is None else fp * pow(base, above - head, mod) % mod


class Runner:
    """One run of ``machine`` from ``start``, advanced in place one step at a time.

    The tape is a dict mutated in place, so a step costs O(1); an
    immutable ``ID`` is built only on request (``snapshot``, ``Halted``).

    With ``detect_loops`` each visited configuration is keyed by its state
    and the fingerprint sum(code(sym) * r**(cell - head)) mod p, with symbol
    codes taken from the sorted alphabet (blank = 0).  Being relative to the
    head, the fingerprint follows a write or a one-cell move in O(1), and
    translates share a key, as they share a form under ``canonicalize``.
    A key hit is only a candidate: the earlier configuration is rebuilt by
    replaying from ``start`` and compared exactly after ``canonicalize``, so
    a collision costs time but never changes a verdict.
    """

    __slots__ = (
        "machine", "start", "state", "head", "tape", "steps",
        "seen", "exact", "codes", "fp", "mod", "left", "right",
    )

    def __init__(self, machine: Machine, start: ID, detect_loops: bool = True):
        self.machine = machine
        self.start = start
        self.state = start.state
        self.head = start.head
        self.tape = dict(start.tape)
        self.steps = 0
        self.seen: Optional[dict[str, dict[int, int]]] = None
        if not detect_loops:
            return
        # Foreign symbols of the start tape get codes too; reading one still raises.
        symbols = sorted((machine.alphabet | set(self.tape.values())) - {BLANK})
        self.codes = {BLANK: 0, **{sym: code for code, sym in enumerate(symbols, 1)}}
        self.mod = mod = _FINGERPRINT_MODULUS
        # A move to the left raises every exponent cell - head by one, a move right lowers it.
        self.left, self.right = _fingerprint_factors(mod)
        self.fp = _tape_fingerprint(self.tape, self.head, self.codes, self.left, mod)
        self.seen = {self.state: {self.fp: 0}}
        # (state, fingerprint) -> {canonical key of a configuration: step}, for hit keys.
        self.exact: dict[tuple[str, int], dict[tuple, int]] = {}

    def snapshot(self) -> ID:
        """The current configuration as an immutable ``ID``."""
        return ID(self.state, self.head, self.tape)

    def advance(self) -> Optional[Halted | LoopDetected]:
        """Take one step.

        Returns ``Halted`` (and changes nothing) when no rule applies,
        ``LoopDetected`` when the new configuration repeats an earlier one
        up to translation, and ``None`` otherwise.
        """
        tape, head = self.tape, self.head
        old = tape.get(head, BLANK)
        rule = self.machine.transitions.get((self.state, old))
        if rule is None:
            return self._halt(old)
        state, new, move = rule
        if new != old:
            if new == BLANK:
                del tape[head]
            else:
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

    def halted(self) -> Optional[Halted]:
        """``Halted`` if no rule applies to the current configuration, else ``None``."""
        sym = self.tape.get(self.head, BLANK)
        if (self.state, sym) in self.machine.transitions:
            return None
        return self._halt(sym)

    def run(
        self, budget: int, on_visit: Optional[Callable[[int, ID], None]] = None
    ) -> RunOutcome:
        """Advance until an outcome, or for ``budget`` steps (see ``run_with_loop_detection``)."""
        if budget < 0:
            raise ValueError("budget must be >= 0")
        if on_visit is not None:
            on_visit(self.steps, canonicalize(self.snapshot()))
        for _ in range(budget):
            outcome = self.advance()
            if isinstance(outcome, Halted):
                return outcome
            if on_visit is not None:
                on_visit(self.steps, canonicalize(self.snapshot()))
            if outcome is not None:
                return outcome
        return self.halted() or BudgetExceeded(budget)

    def _halt(self, sym: str) -> Halted:
        if self.state not in self.machine.states:
            raise MalformedIDError(f"state {self.state!r} not in machine states")
        if sym not in self.machine.alphabet:
            raise MalformedIDError(f"symbol {sym!r} not in machine alphabet")
        return Halted(self.steps, self.snapshot())

    def _canonical_key(self) -> tuple:
        """The current configuration up to translation, as a hashable tuple.

        It is the form ``canonicalize`` gives (the leftmost written cell, or
        the head on a blank tape, moved to 0), and the tape never holds a
        blank, so two keys are equal exactly when the ``encode_id`` of the
        canonical configurations are; no ``ID`` is built.
        """
        tape = self.tape
        shift = min(tape) if tape else self.head
        cells = tuple(sorted((cell - shift, sym) for cell, sym in tape.items()))
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
    return Runner(machine, start).run(budget, on_visit)


def naive_run(machine: Machine, start: ID, budget: int) -> Halted | BudgetExceeded:
    """Plain simulation without any repetition check (loops run the budget out)."""
    return Runner(machine, start, detect_loops=False).run(budget)


def count_symbols(desc: ID, symbol: str = "1") -> int:
    """Number of tape cells holding ``symbol``."""
    return sum(1 for sym in desc.tape.values() if sym == symbol)


def unary_writer(value: int) -> Machine:
    """A machine that writes ``value`` ones rightward from a blank tape, then halts."""
    if value < 0:
        raise ValueError("value must be >= 0")
    rules = [(f"w{j}", BLANK, f"w{j + 1}", "1", "R") for j in range(value)]
    return Machine.from_rules(rules, "w0", extra_states=(f"w{value}",))


def two_state_looper() -> Machine:
    """A machine that ping-pongs between two states forever without writing.

    Its canonical configuration repeats at step 2 with period 2, so
    loop-detecting execution self-terminates almost immediately.
    """
    rules = [("p0", BLANK, "p1", BLANK, "R"), ("p1", BLANK, "p0", BLANK, "L")]
    return Machine.from_rules(rules, "p0")


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
    return parse_machine_text(Path(path).read_text(encoding="utf-8"))
