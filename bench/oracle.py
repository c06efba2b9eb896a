"""Independent reference routes used to check every benchmark result.

Nothing here calls godelsim code.  Machines are read from their text as
transition tables, then stepped on a byte tape; configurations are
compared up to translation by slicing the written part of that tape.
The β checks use brute force, the least-zero check a direct scan, and the
scheduler check an independent sweep that only visits live runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

BLANK = "_"

Table = Mapping[tuple[str, str], tuple[str, str, int]]


class Mismatch(Exception):
    """A program result disagrees with the reference route."""


def writer_table(value: int) -> tuple[dict, str]:
    """A machine writing ``value`` ones rightward from a blank tape, then halting."""
    return {(f"w{j}", BLANK): (f"w{j + 1}", "1", 1) for j in range(value)}, "w0"


LOOPER_TABLE = ({("p0", BLANK): ("p1", BLANK, 1), ("p1", BLANK): ("p0", BLANK, -1)}, "p0")


class RefRun:
    """One machine run, stepped one transition per ``advance`` call.

    The tape is a bytearray of symbol codes (blank = 0).  With ``detect``
    set, the canonical key of every visited configuration is the state,
    the head offset from the leftmost written cell and the bytes from the
    leftmost to the rightmost written cell, which identifies a
    configuration up to translation.
    """

    def __init__(
        self,
        table: Table,
        state: str,
        tape: Mapping[int, str],
        head: int,
        budget: int,
        detect: bool = True,
        on_visit: Optional[Callable[[int, tuple], None]] = None,
    ):
        symbols = sorted({BLANK, *tape.values(), *(k[1] for k in table), *(v[1] for v in table.values())})
        symbols.remove(BLANK)
        self.names = [BLANK, *symbols]
        code = {sym: i for i, sym in enumerate(self.names)}
        self.delta = {(s, code[a]): (ns, code[b], mv) for (s, a), (ns, b, mv) in table.items()}
        cells = [c for c, sym in tape.items() if sym != BLANK]
        lo = min([head, *cells])
        hi = max([head, *cells])
        self.origin = 64 - lo
        self.tape = bytearray(hi - lo + 128)
        for c in cells:
            self.tape[self.origin + c] = code[tape[c]]
        self.pos = self.origin + head
        self.state = state
        self.budget = budget
        self.steps = 0
        self.written = len(cells)
        self.cell_steps = 0  # sum over steps of written cells: the cost model of a dict tape
        self.lo = self.hi = self.pos
        for c in cells:
            self.lo = min(self.lo, self.origin + c)
            self.hi = max(self.hi, self.origin + c)
        self.on_visit = on_visit
        self.seen: Optional[dict] = {self.key(): 0} if detect else None
        if on_visit is not None:
            on_visit(0, self.canonical())

    def key(self) -> tuple:
        raw = bytes(self.tape)
        body = raw.strip(b"\0")
        if not body:
            return (self.state, 0, b"")
        return (self.state, self.pos - (len(raw) - len(raw.lstrip(b"\0"))), body)

    def canonical(self) -> tuple:
        """(state, head, ((cell, symbol), ...)) shifted so the leftmost written cell is 0."""
        state, head, body = self.key()
        return (state, head, tuple((i, self.names[b]) for i, b in enumerate(body) if b))

    def config(self) -> tuple:
        """(state, head, ((cell, symbol), ...)) in the run's own coordinates."""
        cells = tuple(
            (i - self.origin, self.names[b]) for i, b in enumerate(self.tape) if b
        )
        return (self.state, self.pos - self.origin, cells)

    @property
    def span(self) -> int:
        """Cells from the leftmost to the rightmost cell the run has written or visited."""
        return self.hi - self.lo + 1

    def advance(self) -> Optional[tuple]:
        """One step; returns the outcome once the run has ended, else None."""
        rule = self.delta.get((self.state, self.tape[self.pos]))
        if rule is None:
            return ("halt", self.steps, self.config())
        if self.steps == self.budget:
            return ("budget", self.budget)
        nstate, write, move = rule
        old = self.tape[self.pos]
        if old and not write:
            self.written -= 1
        elif write and not old:
            self.written += 1
        self.tape[self.pos] = write
        self.pos += move
        self.state = nstate
        if self.pos < 0:
            grow = len(self.tape)
            self.tape[:0] = bytes(grow)
            self.pos += grow
            self.origin += grow
            self.lo += grow
            self.hi += grow
        elif self.pos >= len(self.tape):
            self.tape.extend(bytes(len(self.tape)))
        self.lo = min(self.lo, self.pos)
        self.hi = max(self.hi, self.pos)
        self.steps += 1
        self.cell_steps += self.written
        if self.on_visit is not None:
            self.on_visit(self.steps, self.canonical())
        if self.seen is not None:
            key = self.key()
            prev = self.seen.get(key)
            if prev is not None:
                return ("loop", self.steps, self.steps - prev)
            self.seen[key] = self.steps
        return None

    def finish(self) -> tuple:
        while True:
            outcome = self.advance()
            if outcome is not None:
                return outcome


@dataclass(frozen=True)
class MachineVerdict:
    """What the reference route says a loop-detected run and its plain confirmation return."""

    outcome: tuple
    naive: tuple
    span: int


def reference_run(table: Table, state: str, tape: Mapping[int, str], budget: int) -> MachineVerdict:
    """Loop-detected verdict, plain-stepping verdict and tape span of a run from head 0.

    A configuration that repeats up to translation repeats forever, so a
    looping run never halts under plain stepping and the plain verdict is
    the budget; otherwise plain stepping meets the same halt or budget.
    """
    run = RefRun(table, state, tape, 0, budget)
    outcome = run.finish()
    naive = ("budget", budget) if outcome[0] == "loop" else outcome
    return MachineVerdict(outcome, naive, run.span)


def parse_tm(text: str) -> tuple[dict, str]:
    """Transition table and start state of a machine file (headers, then 'q s -> q s L|R')."""
    table: dict = {}
    start = ""
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "start:":
            start = words[1]
        elif len(words) == 6 and words[2] == "->":
            table[(words[0], words[1])] = (words[3], words[4], 1 if words[5] == "R" else -1)
    return table, start


# --- least-zero search --------------------------------------------------------


def reference_total_mu(fn: Callable[..., int], diverging: Iterable[tuple], args: Sequence[int], budget: int) -> tuple:
    """(('defined', y) | ('vacuous', reason), machine steps) by scanning y upward.

    A halting trial writes its value in unary, one step per one; a
    diverging trial is caught when its two-state configuration repeats at
    step 2.
    """
    diverging = set(diverging)
    steps = 0
    for y in range(budget):
        point = (*args, y)
        if point in diverging:
            return ("vacuous", "loop-detected"), steps + 2
        value = fn(*point)
        steps += value
        if value == 0:
            return ("defined", y), steps
    return ("vacuous", "budget-exceeded"), steps


# --- dovetail -------------------------------------------------------------------


@dataclass(frozen=True)
class RefTask:
    """A search task as the reference sees it: trial -> (table, start, tape) or None."""

    task_id: int
    trial: Callable[[int], Optional[tuple[Table, str, Mapping[int, str]]]]
    accept: Callable[[tuple], bool]


def diagonal(task_count: int):
    d = 0
    while True:
        for task in range(min(d, task_count - 1) + 1):
            yield task, d - task
        d += 1


def reference_dovetail(tasks: Sequence[RefTask], sub_budget: int, global_budget: int) -> tuple:
    """(outcome, events) of the diagonal schedule, sweeping only live runs.

    A run that has ended never produces another event, so visiting the
    live ranks in rank order gives the same event sequence as sweeping
    every admitted rank.  Events are (global step, rank, task id, trial,
    result); the outcome is ('first-success', task id, trial, halt
    outcome), ('all-exhausted', statuses) or ('global-budget', budget).
    """
    pairs = diagonal(len(tasks))
    exhausted_at: list[Optional[int]] = [None] * len(tasks)
    tallies = [[0, 0, 0, 0] for _ in tasks]  # spawned, rejected, loops, sub-budget
    live: list[tuple[int, int, int, RefRun]] = []  # rank, task index, trial, run
    events: list[tuple] = []
    admitted = 0
    global_step = 0

    def statuses() -> tuple:
        return tuple(
            (task.task_id, *tallies[i], exhausted_at[i] is not None) for i, task in enumerate(tasks)
        )

    while True:
        if all(at is not None for at in exhausted_at) and not live:
            return ("all-exhausted", statuses()), events
        task_idx, trial = next(pairs)
        rank = admitted
        admitted += 1
        at = exhausted_at[task_idx]
        if at is None or trial < at:
            spec = tasks[task_idx].trial(trial)
            if spec is None:
                exhausted_at[task_idx] = trial if at is None else min(at, trial)
            else:
                table, state, tape = spec
                live.append((rank, task_idx, trial, RefRun(table, state, tape, 0, sub_budget)))
                tallies[task_idx][0] += 1
        survivors = []
        for entry in live:
            rank, task_idx, trial, run = entry
            if global_step == global_budget:
                return ("global-budget", global_budget), events
            global_step += 1
            outcome = run.advance()
            task = tasks[task_idx]
            if outcome is None:
                result = "advanced"
            elif outcome[0] == "halt":
                if task.accept(outcome):
                    events.append((global_step, rank, task.task_id, trial, "halted-accepted"))
                    return ("first-success", task.task_id, trial, outcome), events
                result = "halted-rejected"
                tallies[task_idx][1] += 1
            elif outcome[0] == "loop":
                result = "loop-detected"
                tallies[task_idx][2] += 1
            else:
                result = "sub-budget-exhausted"
                tallies[task_idx][3] += 1
            events.append((global_step, rank, task.task_id, trial, result))
            if outcome is None:
                survivors.append(entry)
        live = survivors


def ones(outcome: tuple) -> int:
    """Unary output of a reference halt outcome: the ones left on the tape."""
    return sum(1 for _, sym in outcome[2][2] if sym == "1")


# --- β codec ----------------------------------------------------------------------

GRID_LIMIT = 200


def _sieved_matches(seq: Sequence[int], bound: int) -> Iterator[tuple[int, int]]:
    """Matches in (c, b) order, scanning per c only the b with b = seq[0] mod 1 + c.

    That congruence holds for every match, so the scan skips none and
    needs no modular inverse.
    """
    for c in range(1, bound + 1):
        if seq[0] >= 1 + c:
            continue
        for b in range(seq[0], bound + 1, 1 + c):
            if all(b % (1 + (i + 1) * c) == v for i, v in enumerate(seq)):
                yield (b, c)


def reference_matches(seq: Sequence[int], bound: int) -> list[tuple[int, int]]:
    """All (b, c) with b <= bound, 1 <= c <= bound reproducing ``seq``, sorted by (c, b).

    Bounds up to GRID_LIMIT scan the full grid of pairs.
    """
    if bound > GRID_LIMIT:
        return list(_sieved_matches(seq, bound))
    return [
        (b, c)
        for c in range(1, bound + 1)
        for b in range(bound + 1)
        if all(b % (1 + (i + 1) * c) == v for i, v in enumerate(seq))
    ]


def check_pair_realizes(b: int, c: int, seq: Sequence[int]) -> None:
    for i, value in enumerate(seq):
        if b % (1 + (i + 1) * c) != value:
            raise Mismatch(f"pair ({b}, {c}) gives {b % (1 + (i + 1) * c)} at index {i}, want {value}")


def reference_prediction(seq: Sequence[int], bound: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    n = len(seq)
    for b, c in reference_matches(seq, bound):
        value = b % (1 + (n + 1) * c)
        counts[value] = counts.get(value, 0) + 1
    return counts


def reference_fit(seq: Sequence[int], bound: int) -> Optional[tuple[int, int]]:
    """Least (c, b) match within the bound."""
    return next(_sieved_matches(seq, bound), None)


# --- universe providers and horizon machines --------------------------------------


def reference_predicate(spec: str, pi_digits: str) -> Callable[[int], int]:
    if spec == "parity":
        return lambda n: n % 2
    if spec == "pi":
        return lambda n: int(pi_digits[n % len(pi_digits)])
    name, _, value = spec.partition("=")
    if name == "const":
        return lambda n: int(value)
    if name == "mod":
        return lambda n: n % int(value)
    raise ValueError(f"unknown predicate {spec!r}")


def reference_horizon(spec: str, horizon: int, n: int, pi_digits: str) -> tuple:
    """(value or ('loop', 2, 2), machine steps) of a horizon machine evaluated at n."""
    if n >= horizon:
        return ("loop", 2, 2), 2
    value = reference_predicate(spec, pi_digits)(n)
    return value, value


def reference_provider(spec: str, base_dir, pi_digits: str) -> Callable[[int], tuple]:
    """t -> (value or None past a horizon, machine steps) for a provider spec string."""
    kind, _, rest = spec.partition(":")
    name, *parts = rest.split(",")
    params = dict(part.split("=", 1) for part in parts)
    if kind == "horizon":
        k0 = int(params.get("k0", "1"))

        def horizon_value(t: int) -> tuple:
            if t >= k0:
                return None, 0
            return reference_horizon(name, k0, t, pi_digits)

        return horizon_value
    if name == "constant":
        return lambda t: (int(params["value"]), 0)
    if name == "counter":
        return lambda t: (int(params.get("start", "0")) + int(params.get("step", "1")) * t, 0)
    if name == "table":
        values = [int(v) for v in params["values"].split("|")]
        return lambda t: (values[t % len(values)], 0)
    if name == "affine":
        a, b, mod, start = (int(params[key]) for key in ("a", "b", "mod", "start"))
        orbit = [start % mod]

        def affine_value(t: int) -> tuple:
            while len(orbit) <= t:
                orbit.append((a * orbit[-1] + b) % mod)
            return orbit[t], 0

        return affine_value
    if name == "machine":
        with open(base_dir / params["file"], encoding="utf-8") as handle:
            table, state = parse_tm(handle.read())
        budget = int(params.get("budget", "10000"))

        def machine_value(t: int) -> tuple:
            outcome = RefRun(table, state, {cell: "1" for cell in range(t)}, 0, budget).finish()
            if outcome[0] != "halt":
                raise Mismatch(f"machine rule does not halt at t={t}: {outcome[:2]}")
            return ones(outcome), outcome[1]

        return machine_value
    raise ValueError(f"unknown provider spec {spec!r}")
