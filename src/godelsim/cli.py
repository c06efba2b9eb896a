"""Command-line front end: one subcommand per capability, records out.

Data records go to stdout as line-delimited JSON, each as soon as it
exists, or as CSV once the command ends (``--format`` or the ``GU_FORMAT``
environment variable); every invocation additionally writes exactly one
run-manifest record to stderr.  All output is
deterministic: identical arguments and files give byte-identical output.

A command writes its records through ``_Emitter.kind``: one writer per
record kind, compiled once, that takes the values positionally.  A JSONL
record then costs the text of its values, and a CSV row is spliced into
the header's columns without parsing the record again.  A kind names its
int columns, the keys whose values are exact ints as a rule (steps,
ranks, trials, heads, universe t and uniform values), and a record whose
values there are all ints splices them with ``%d``, looking up no type:
a ``gu dovetail`` event, four ints under a fixed ``result``, is one
``template % values``.  A reader that closes stdout early ends the
command with exit 1 and one manifest.

``main`` may be called any number of times in one process.  It builds the
parser on its first call (not at import) and reuses it; ``GU_FORMAT`` is
read at every call.  On 2 vCPUs under Python 3.11, building and using a
parser per call cost 1.8 ms a call and the shared one costs 0.07 ms, so
``gu beta eval 7,1 0`` in process went from 2.6 ms to 0.11 ms.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
import tempfile
from bisect import bisect_left
from collections import deque
from contextlib import ExitStack, closing
from importlib import resources
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Collection, Optional, Sequence

from . import GodelsimError, __version__, beta, collapse, corpus, dovetail, universe
from .machine import (
    BLANK,
    Halted,
    ID,
    LoopDetected,
    MachineParseError,
    MalformedIDError,
    Runner,
    count_symbols,
    load_machine_file,
    unary_id,
)

FORMATS = ("jsonl", "csv")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LOOP = 2
EXIT_BUDGET = 3


class CliError(GodelsimError):
    """A bad command line, or an input that no library call rejects by itself.

    ``inputs`` are the manifest's, for a command that fails once it has
    read them.
    """

    def __init__(self, message: str, inputs: Optional[dict] = None):
        super().__init__(message)
        self.inputs = {} if inputs is None else inputs


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``CliError``, so it takes the one error path of ``main``."""

    def error(self, message: str):
        raise CliError(message)


def natural(text: str) -> int:
    """Argument type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive(text: str) -> int:
    """Argument type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def output_format(text: str) -> str:
    """Argument type of ``--format``; argparse applies it to the ``GU_FORMAT`` default too."""
    if text not in FORMATS:
        choices = ", ".join(map(repr, FORMATS))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


# json.dumps(record, sort_keys=True) builds an encoder per call; this one is built once.
_encode = json.JSONEncoder(sort_keys=True).encode

# The JSON text of a value of each exact type; any other type takes ``_encode``.
_JSON_TEXT = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}

# The CSV spool holds one record a line: its kind id, then its fields, each after
# _SEP.  A field keeps _ESC, _SEP and newlines as _ESC and a digit, and the rows
# written from the spool turn them back.
_SEP, _ESC = "\x1f", "\x1b"
_PROTECT = str.maketrans({_ESC: _ESC + "0", _SEP: _ESC + "1", "\n": _ESC + "2"})
_UNPROTECT = functools.partial(re.compile(_ESC + "(.)", re.S).sub, lambda m: (_ESC + _SEP + "\n")[int(m[1])])


def _csv_str(text: str) -> str:
    """A string field as ``csv.writer`` writes it, protected for the spool."""
    # Six `in` tests scan at memchr speed; a regular expression class took 5 ns a character.
    if not ("," in text or '"' in text or "\n" in text or "\r" in text or _ESC in text or _SEP in text):
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1].translate(_PROTECT)


# The CSV text of a value after a JSON round trip, with None as an empty field;
# any other type takes ``_csv_str(str(value))``.
_CSV_TEXT = {
    int: int.__repr__,
    str: _csv_str,
    bool: bool.__repr__,
    type(None): lambda value: "",
}


# How many characters of spooled CSV lines ``_Emitter`` holds before it writes them to its file.
_SPOOL_BATCH = 1 << 16


class _Emitter:
    """Writes data records of JSON scalars, through one compiled writer per record kind.

    ``kind(*keys, ints=..., **fixed)`` compiles a kind once; its writer
    takes the values of ``keys`` positionally, and the ``fixed`` values are
    part of the kind.  JSONL writes each record at once, as ``json.dumps(record,
    sort_keys=True)`` would.  A CSV header is the sorted union of the keys
    of every record written, so CSV keeps each record in a temporary file
    (in memory up to 1 MB, then on disk) as its kind id and its fields,
    already CSV-escaped; ``finish`` writes the header, then each row through
    a splice into the columns built once per kind, parsing nothing.  The
    spooled lines go to the file in batches of ``_SPOOL_BATCH`` characters
    (and one line), each in one ``writelines``, so the file checks for its
    rollover to disk once a batch and not once a record, and at most one
    batch is held besides it.
    Records not yet written when a command fails are dropped.
    """

    def __init__(self, fmt: str, out) -> None:
        self.out = out
        self.spool = None
        if fmt == "csv":
            self.spool = tempfile.SpooledTemporaryFile(
                1 << 20, "w+", encoding="utf-8", newline="\n", errors="surrogatepass"
            )
            self.kinds: list[dict[str, str]] = []  # per kind id: column -> "%s" or fixed text
            self.used: list[int] = []  # the kind ids that wrote a record
            self.lines: list[str] = []  # spooled lines not yet in the file
            lines, append, writelines = self.lines, self.lines.append, self.spool.writelines
            held = 0  # characters in lines

            def spooled(line: str) -> None:
                nonlocal held
                append(line)
                held += len(line)
                if held >= _SPOOL_BATCH:
                    writelines(lines)
                    lines.clear()
                    held = 0

            self.spooled = spooled

    def kind(self, *keys: str, ints: Collection[str] = (), **fixed):
        """The writer of records with ``keys`` (in this order) and the ``fixed`` values.

        ``ints`` names the keys whose values are exact ints as a rule.  A
        record whose values there are all of type ``int`` takes them
        through ``%d`` with no lookup of their type; any other record, one
        with a bool, None or a str there included, takes every value
        through the type tables, so the text is the same either way.
        """
        if len({*keys, *fixed}) != len(keys) + len(fixed):
            raise ValueError(f"a record kind repeats a key: {keys} {sorted(fixed)}")
        if not set(ints) <= set(keys):
            raise ValueError(f"int columns {sorted(set(ints) - set(keys))} are not keys of the kind")
        order = sorted(range(len(keys)), key=keys.__getitem__)
        if self.spool is None:
            table, other = _JSON_TEXT, _encode
        else:
            table, other = _CSV_TEXT, lambda value: _csv_str(str(value))
        cells = dict.fromkeys(keys, "%s")
        for key, value in fixed.items():
            cells[key] = table.get(type(value), other)(value).replace("%", "%%")
        if self.spool is None:

            def render(cells: dict[str, str]) -> str:
                items = ", ".join(
                    encode_basestring_ascii(key).replace("%", "%%") + ": " + cells[key] for key in sorted(cells)
                )
                return "{" + items + "}\n"

            sink = self.out.write
        else:
            kid = len(self.kinds)
            self.kinds.append(cells)

            def render(cells: dict[str, str]) -> str:
                return str(kid) + "".join([_SEP + cells[keys[i]] for i in order]) + "\n"

            def sink(line: str) -> None:  # the first record of a kind puts its keys in the header
                nonlocal sink
                self.used.append(kid)
                sink = self.spooled
                sink(line)

        template = render(cells)
        text = table.get

        def write(*values) -> None:
            sink(template % tuple([text(type(values[i]), other)(values[i]) for i in order]))

        if not ints:
            return write
        spliced = render({**cells, **dict.fromkeys(ints, "%d")})
        # The values in template order, which is sorted key order; values that are already in it stay as they are.
        pick = tuple if order == sorted(order) else itemgetter(*order)
        if len(ints) == len(keys):

            def write_ints(*values) -> None:
                for value in values:
                    if type(value) is not int:
                        return write(*values)
                sink(spliced % pick(values))

            return write_ints
        checked = [keys.index(key) for key in ints]
        rest = [at for at, i in enumerate(order) if keys[i] not in ints]  # in template order

        def write_some_ints(*values) -> None:
            for i in checked:
                if type(values[i]) is not int:
                    return write(*values)
            out = list(pick(values))
            for at in rest:
                value = out[at]
                out[at] = text(type(value), other)(value)
            sink(spliced % tuple(out))

        return write_some_ints

    def finish(self) -> None:
        """Write what is still held: the CSV header and rows."""
        if self.spool is None:
            return
        columns = sorted({key for kid in self.used for key in self.kinds[kid]})
        csv.writer(self.out, lineterminator="\n").writerow(columns)
        # "%.0s" takes the kind id that starts a spooled line and writes nothing of it.
        splices = {
            str(kid): "%.0s" + ",".join([self.kinds[kid].get(col, "") for col in columns]) + "\n"
            for kid in self.used
        }
        write = self.out.write
        self.spool.writelines(self.lines)
        self.lines.clear()
        self.spool.seek(0)
        for line in self.spool:
            parts = line[:-1].split(_SEP)
            row = splices[parts[0]] % tuple(parts)
            if _ESC in row:
                row = _UNPROTECT(row)
            write(row if row != "\n" else '""\n')  # as csv.writer writes one empty field

    def close(self) -> None:
        if self.spool is not None:
            self.spool.close()


def _manifest(args: argparse.Namespace, inputs: dict, summary: str) -> None:
    record = {
        "record": "manifest",
        "subcommand": args.command if args.command != "beta" else f"beta {args.beta_command}",
        "inputs": _encode(inputs),
        "seed": args.seed,
        "tool_version": f"godelsim {__version__}",
        "outcome_summary": summary,
    }
    print(_encode(record), file=sys.stderr)


def _parse_naturals(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise CliError(f"bad sequence {text!r}: {exc}") from exc
    if not values or any(v < 0 for v in values):
        raise CliError(f"sequence must be non-empty naturals: {text!r}")
    return values


def _parse_tagged(text: str) -> beta.TaggedSequence:
    entries = []
    for part in [p for p in text.split(",") if p != ""]:
        if ":" not in part:
            raise CliError(f"bad tag:value entry {part!r}")
        tag, value = part.split(":", 1)
        try:
            entries.append((int(tag), int(value)))
        except ValueError as exc:
            raise CliError(f"bad tag:value entry {part!r}") from exc
    return beta.TaggedSequence.from_pairs(entries)


def _parse_input_spec(spec: str, machine) -> ID:
    try:
        if spec == "blank":
            return ID(machine.start_state, 0, {})
        if spec.startswith("unary:"):
            return unary_id(machine, int(spec.split(":", 1)[1]))
        if spec.startswith("cells:"):
            tape = {}
            for part in spec.split(":", 1)[1].split(","):
                if not part:
                    continue
                cell, _, symbol = part.partition("=")
                tape[int(cell)] = symbol
            return ID(machine.start_state, 0, tape)
    except ValueError as exc:
        raise CliError(f"bad input spec {spec!r}: {exc}") from exc
    raise CliError(f"bad input spec {spec!r} (use blank, unary:N, or cells:0=1,...)")


def _parse_range(text: str) -> range:
    """The integers of ``N`` or ``A..B``, both ends included; A > B is an error, not an empty range."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise CliError(f"bad range {text!r} (use N or A..B)") from exc
    if lo > hi:
        raise CliError(f"bad range {text!r} (A..B needs A <= B)")
    return range(lo, hi + 1)


class _TraceView:
    """A ``Runner.run`` step hook that emits one visit record per configuration.

    The record is the canonical configuration: cells and head shifted so
    the leftmost written cell (the head, on a blank tape) is 0.  The view
    keeps the sorted non-blank cells, their symbols and their "k:sym"
    tokens.  A step changes at most the cell the head left, so a visit
    updates one token, and renumbers them all only when the leftmost
    written cell changes.
    """

    def __init__(self, runner: Runner, emit: _Emitter) -> None:
        tape = runner.snapshot().tape
        self.cells = sorted(tape)
        self.syms = [tape[cell] for cell in self.cells]
        self._renumber()
        self.head = runner.head
        self.visit = emit.kind("head", "state", "step", "tape", ints=("head", "step"), record="visit")

    def _renumber(self) -> None:
        shift = self.cells[0] if self.cells else 0
        self.tokens = [f"{cell - shift}:{sym}" for cell, sym in zip(self.cells, self.syms)]

    def __call__(self, runner: Runner) -> None:
        cell, self.head = self.head, runner.head
        sym = runner.symbol_at(cell)
        cells = self.cells
        i = bisect_left(cells, cell)
        if i < len(cells) and cells[i] == cell:
            if sym == BLANK:
                del cells[i], self.syms[i], self.tokens[i]
                if not i:
                    self._renumber()
            elif sym != self.syms[i]:
                self.syms[i] = sym
                self.tokens[i] = f"{cell - cells[0]}:{sym}"
        elif sym != BLANK:
            cells.insert(i, cell)
            self.syms.insert(i, sym)
            if i:
                self.tokens.insert(i, f"{cell - cells[0]}:{sym}")
            else:
                self._renumber()
        shift = cells[0] if cells else runner.head
        self.visit(runner.head - shift, runner.state, runner.steps, " ".join(self.tokens))


def _resolve_config(name: str, stack: ExitStack) -> Path:
    # os.path.exists answers False, where Path.exists raises, for a name the OS rejects.
    if os.path.exists(name):
        return Path(name)
    shipped = resources.files("godelsim").joinpath("data/configs")
    if f"{name}.json" in {entry.name for entry in shipped.iterdir()}:
        return stack.enter_context(resources.as_file(shipped.joinpath(f"{name}.json")))
    raise CliError(f"no such config file or shipped config: {name}")


# --- subcommands -------------------------------------------------------------

# What a subcommand hands ``main``: exit status, manifest inputs, outcome summary.
_Result = tuple[int, dict, str]


def cmd_run(args: argparse.Namespace, emit: _Emitter) -> _Result:
    try:
        machine = load_machine_file(args.machine)
    except MachineParseError as exc:
        raise CliError(f"{args.machine}: {exc}") from exc
    except OSError as exc:
        raise CliError(f"cannot read {args.machine}: {exc}") from exc
    start = _parse_input_spec(args.input, machine)
    try:
        runner = Runner(machine, start, limit=args.budget)
        outcome = runner.run(args.budget, _TraceView(runner, emit) if args.trace else None)
    except MalformedIDError as exc:
        raise CliError(f"{args.input}: {exc}") from exc
    if isinstance(outcome, Halted):
        halted = emit.kind("steps", "ones", record="outcome", kind="halted")
        halted(outcome.steps, count_symbols(outcome.final_id))
        status, summary = EXIT_OK, f"halted steps={outcome.steps}"
    elif isinstance(outcome, LoopDetected):
        loop = emit.kind("first_repeat_step", "period", record="outcome", kind="loop-detected")
        loop(outcome.first_repeat_step, outcome.period)
        status = EXIT_LOOP
        summary = f"loop-detected step={outcome.first_repeat_step} period={outcome.period}"
    else:
        emit.kind("budget", record="outcome", kind="budget-exceeded")(outcome.budget)
        status, summary = EXIT_BUDGET, f"budget-exceeded budget={outcome.budget}"
    inputs = {
        "machine": os.path.abspath(args.machine),
        "input": args.input,
        "budget": args.budget,
        "trace": args.trace,
    }
    return status, inputs, summary


def cmd_beta(args: argparse.Namespace, emit: _Emitter) -> _Result:
    if args.beta_command == "encode":
        seq = _parse_naturals(args.sequence)
        pair = beta.beta_encode(seq)
        emit.kind("b", "c", record="pair")(pair.b, pair.c)
        inputs = {"sequence": seq}
        summary = f"b={pair.b} c={pair.c}"
    elif args.beta_command == "eval":
        try:
            b, c = (int(x) for x in args.pair.split(","))
            pair = beta.BetaPair(b, c)
        except ValueError as exc:
            raise CliError(f"bad pair {args.pair!r} (use b,c): {exc}") from exc
        value = beta.beta_eval(pair, args.index)
        emit.kind("i", "value", record="value")(args.index, value)
        inputs = {"pair": [b, c], "index": args.index}
        summary = f"value={value}"
    elif args.beta_command == "matches":
        seq = _parse_naturals(args.sequence)
        pairs = beta.enumerate_matches(seq, args.bound)
        write = emit.kind("b", "c", record="pair")
        for p in pairs:
            write(p.b, p.c)
        inputs = {"sequence": seq, "bound": args.bound}
        summary = f"{len(pairs)} matching pairs"
    elif args.beta_command == "predict":
        seq = _parse_naturals(args.sequence)
        dist = beta.next_value_distribution(seq, args.bound)
        frequencies = dist.frequencies()
        write = emit.kind("value", "count", "total", "frequency", record="prediction")
        for value, freq in frequencies.items():
            write(value, dist.counts[value], dist.total, str(freq))
        inputs = {"sequence": seq, "bound": args.bound}
        summary = f"{len(frequencies)} predicted values over {dist.total} pairs"
    else:
        first = _parse_tagged(args.first)
        second = _parse_tagged(args.second)
        merged = beta.superpose(first, second)
        write = emit.kind("tag", "value", record="entry")
        for t, v in merged.entries:
            write(t, v)
        inputs = {"first": args.first, "second": args.second}
        summary = f"{len(merged)} entries"
    return EXIT_OK, inputs, summary


def cmd_dovetail(args: argparse.Namespace, emit: _Emitter) -> _Result:
    tasks = []
    resolved = []
    for index, spec in enumerate(args.task):
        path, _, predicate = spec.rpartition("=")
        accept = dovetail.ACCEPT.get(predicate)
        if accept is None:
            raise CliError(f"task {spec!r} must end in =zero-of or =nonzero-of")
        try:
            machine = load_machine_file(path)
        except (MachineParseError, OSError) as exc:
            raise CliError(f"{path}: {exc}") from exc
        tasks.append(
            dovetail.SearchTask(
                index,
                lambda y, m=machine: dovetail.SubRun(m, unary_id(m, y)),
                accept,
            )
        )
        resolved.append({"machine": os.path.abspath(path), "accept": predicate})

    # One kind per result, compiled when the result first occurs, so an event
    # record is its four ints spliced into one template.
    keys = ("rank", "step", "task", "trial")
    writers = {}

    def observer(event: dovetail.SchedulerEvent) -> None:
        step, rank, task, trial, result = event
        write = writers.get(result)
        if write is None:
            write = writers[result] = emit.kind(*keys, ints=keys, record="event", result=result)
        write(rank, step, task, trial)

    outcome = dovetail.dovetail(tasks, args.sub_budget, args.global_budget, observer)
    if isinstance(outcome, dovetail.FirstSuccess):
        success = emit.kind("task", "trial", "steps", record="outcome", kind="first-success")
        success(outcome.task_id, outcome.trial, outcome.evidence.steps)
        summary = f"first-success task={outcome.task_id} trial={outcome.trial}"
    elif isinstance(outcome, dovetail.AllExhausted):
        emit.kind(record="outcome", kind="all-exhausted")()
        summary = "all-exhausted"
    else:
        emit.kind("budget", record="outcome", kind="global-budget-exceeded")(outcome.global_budget)
        summary = "global-budget-exceeded"
    inputs = {"tasks": resolved, "sub_budget": args.sub_budget, "global_budget": args.global_budget}
    return EXIT_OK, inputs, summary


def cmd_universe(args: argparse.Namespace, emit: _Emitter) -> _Result:
    """Write each particle's signature row at t = 0 .. steps-1, then one report.

    A plan is built once per particle: its row writer and, in signature
    order (sorted property numbers), each property's name, value function
    and a window of its last ``window`` values.  A row then costs its values
    plus one record: no ``Signature`` is built and no provider is looked up
    again.  A provider that fails is named by the loop that called it; with
    ``--steps 0`` the t=0 values are still evaluated the same way.  The
    report reads provider kinds only.
    """
    with ExitStack() as stack:
        config_path = _resolve_config(args.config, stack)
        setup = universe.load_universe_config(config_path)
    steps = args.steps if args.steps is not None else setup.steps
    window = args.window if args.window is not None else setup.window
    u = setup.universe
    names: dict[int, str] = {}  # property number -> column
    owners: dict[str, str] = {}  # column -> property name
    for k in sorted({k for p in u.particles for k in p.providers}):
        name = u.registry.name_of(k) or str(k)
        # property names must not clobber the fixed record columns
        column = f"prop_{name}" if name in ("record", "t", "particle") else name
        if column in owners:
            raise universe.ConfigError(
                f"{config_path}: properties {owners[column]!r} and {name!r} "
                f"both map to the column {column!r}"
            )
        names[k], owners[column] = column, name
    inputs = {"config": os.path.abspath(str(config_path)), "steps": steps, "window": window}
    series: dict[tuple[int, int], deque[Optional[int]]] = {}  # (particle, property) -> last values
    plans = []
    for particle in u.particles:
        order = sorted(particle.providers)
        cells = []
        for k in order:
            last = series[particle.id, k] = deque(maxlen=window)
            cells.append((owners[names[k]], universe.value_function(particle.providers[k]), last.append))
        # A uniform rule's values are ints; a horizon column also holds "horizon-exceeded".
        uniform = [names[k] for k in order if isinstance(particle.providers[k], universe.UniformProvider)]
        row = emit.kind("t", "particle", *[names[k] for k in order], ints=("t", "particle", *uniform),
                        record="signature")
        plans.append((particle.id, row, cells))
    try:
        for t in range(steps):
            for pid, row, cells in plans:
                out = []
                for name, value_at, keep in cells:
                    value = value_at(t)
                    keep(value)
                    out.append("horizon-exceeded" if value is None else value)
                row(t, pid, *out)
        if not steps:
            for pid, _, cells in plans:
                for name, value_at, _ in cells:
                    value_at(0)
    except universe.ProviderError as exc:  # pid and name are those of the call that raised
        raise CliError(f"{config_path}: provider for {name!r} of particle {pid!r}: {exc}", inputs) from exc
    report = universe.check_predictability_obstruction(u)
    kinds = {universe.Predictable: "predictable", universe.Random: "random",
             universe.Undetermined: "undetermined", type(None): "horizon-limited"}
    verdicts: dict[str, list[str]] = {kind: [] for kind in kinds.values()}
    for (pid, k), last in sorted(series.items()):
        # The last ``window`` values give the verdict of the whole series:
        # fewer than ``window`` values are the whole series (Undetermined), and
        # otherwise the verdict compares only the last ``window``.  A value is
        # None only at t >= the horizon, which a sim never moves, so a series
        # holds a None exactly when its last value is None.  Indexing a deque
        # is not O(1), so the verdict reads a list.
        if last:  # --steps 0 draws no verdict
            verdict = None if None in last else universe.classify_predictability(list(last), window)
            verdicts[kinds[type(verdict)]].append(f"{pid}.{names[k]}")
    fields = ("classification", "particles", "fundamental", "initial_materialized", "predictable",
              "random", "undetermined", "horizon_limited", "window")
    emit.kind(*fields, record="report")(
        report.classification.value,
        len(u.particles),
        " ".join(str(p) for p in report.fundamental_particles),
        " ".join(str(p.particle) for p in report.particles if p.initial_materialized),
        " ".join(verdicts["predictable"]),
        " ".join(verdicts["random"]),
        " ".join(verdicts["undetermined"]),
        " ".join(verdicts["horizon-limited"]),
        window,
    )
    return EXIT_OK, inputs, f"classification={report.classification.value}"


def cmd_collapse(args: argparse.Namespace, emit: _Emitter) -> _Result:
    hm = collapse.make_horizon_machine(args.pred, args.k)
    measured = collapse.measure(hm, args.measure) if args.measure is not None else hm
    write = emit.kind("n", "before", "after", record="eval")
    for n in _parse_range(args.eval):
        before = collapse.evaluate(hm, n)
        after = collapse.evaluate(measured, n)
        write(
            n,
            "loop" if isinstance(before, LoopDetected) else before,
            "loop" if isinstance(after, LoopDetected) else after,
        )
    horizons = emit.kind("before", "after", "history", record="horizons")
    horizons(hm.horizon, measured.horizon, " ".join(str(k) for k in measured.history))
    inputs = {"pred": args.pred, "k": args.k, "measure": args.measure, "eval": args.eval}
    return EXIT_OK, inputs, f"horizon {hm.horizon} -> {measured.horizon}"


def cmd_corpus(args: argparse.Namespace, emit: _Emitter) -> _Result:
    results = corpus.verify_corpus()
    write = emit.kind("machine", "expected", "observed", "passed", "detail", record="verify")
    for r in results:
        write(r.name, r.expected, r.observed, r.passed, r.detail)
    passed = sum(1 for r in results if r.passed)
    summary = emit.kind("passed", "failed", "total", record="summary")
    summary(passed, len(results) - passed, len(results))
    status = EXIT_OK if passed == len(results) else EXIT_ERROR
    return status, {"machines": len(results)}, f"{passed}/{len(results)} passed"


# --- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``gu`` parser, built on the first call and shared by every later one.

    Parsing leaves no state on it.  The ``--format`` default is not set here:
    ``main`` sets it from ``GU_FORMAT`` before each parse.
    """
    parser = _Parser(
        prog="gu", description="Loop-detected machines, sequence codecs, and universe checks."
    )
    parser.add_argument(
        "--format",
        type=output_format,
        metavar="{jsonl,csv}",
        help="output format for data records (default: GU_FORMAT or jsonl)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in the run manifest")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a machine file under loop detection")
    run.add_argument("machine")
    run.add_argument("--input", default="blank", help="blank | unary:N | cells:0=1,...")
    run.add_argument("--budget", type=natural, default=10_000)
    run.add_argument("--trace", action="store_true", help="emit every visited configuration")
    run.set_defaults(func=cmd_run)

    bcmd = commands.add_parser("beta", help="sequence codec: encode, eval, match, predict, merge")
    bsub = bcmd.add_subparsers(dest="beta_command", required=True)
    enc = bsub.add_parser("encode")
    enc.add_argument("sequence", help="comma-separated naturals, e.g. 3,1,4")
    ev = bsub.add_parser("eval")
    ev.add_argument("pair", help="b,c")
    ev.add_argument("index", type=natural)
    mat = bsub.add_parser("matches")
    mat.add_argument("sequence")
    mat.add_argument("--bound", type=positive, required=True)
    pre = bsub.add_parser("predict")
    pre.add_argument("sequence")
    pre.add_argument("--bound", type=positive, required=True)
    sup = bsub.add_parser("superpose")
    sup.add_argument("first", help="tag:value pairs, e.g. 0:1,2:3")
    sup.add_argument("second")
    bcmd.set_defaults(func=cmd_beta)

    dov = commands.add_parser("dovetail", help="interleave machine searches fairly")
    dov.add_argument("task", nargs="+", help="machine file and predicate, e.g. m.tm=zero-of")
    dov.add_argument("--sub-budget", type=positive, default=64)
    dov.add_argument("--global-budget", type=positive, default=10_000)
    dov.set_defaults(func=cmd_dovetail)

    uni = commands.add_parser("universe", help="simulate a configured universe")
    usub = uni.add_subparsers(dest="universe_command", required=True)
    sim = usub.add_parser("sim")
    sim.add_argument("--config", required=True, help="config file path or shipped config name")
    sim.add_argument("--steps", type=natural, default=None)
    sim.add_argument("--window", type=positive, default=None)
    sim.set_defaults(func=cmd_universe)

    col = commands.add_parser("collapse", help="horizon machine demonstration")
    csub = col.add_subparsers(dest="collapse_command", required=True)
    demo = csub.add_parser("demo")
    demo.add_argument("--pred", default="parity", help="parity | const=<v> | mod=<m> | pi")
    demo.add_argument("--k", type=int, required=True)
    demo.add_argument("--measure", type=natural, default=None)
    demo.add_argument("--eval", default="0..10", help="input range, e.g. 0..10")
    demo.set_defaults(func=cmd_collapse)

    cor = commands.add_parser("corpus", help="verify the shipped machine corpus")
    corsub = cor.add_subparsers(dest="corpus_command", required=True)
    ver = corsub.add_parser("verify")
    ver.set_defaults(func=cmd_corpus)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one ``gu`` command; any bad input gives one ``error:`` line, exit 1 and a manifest."""
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    args = argparse.Namespace(command=None, seed=None)  # the manifest's, if argv does not parse
    try:
        parser = build_parser()
        parser.set_defaults(format=os.environ.get("GU_FORMAT", "jsonl"))
        args = parser.parse_args(argv)
        # Exact integers such as the c of a long beta encoding exceed Python's default
        # limit on int <-> str conversion; lift it for this command only.
        if digit_limit is not None:
            sys.set_int_max_str_digits(0)
        with closing(_Emitter(args.format, sys.stdout)) as emit:
            status, inputs, summary = args.func(args, emit)
            emit.finish()
        sys.stdout.flush()  # a reader that left early shows here, not in the exit flush
        _manifest(args, inputs, summary)
        return status
    except GodelsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _manifest(args, exc.inputs if isinstance(exc, CliError) else {}, f"error: {exc}")
        return EXIT_ERROR
    except BrokenPipeError:
        # The reader of stdout closed it.  Point the process's fd 1 at the null
        # device, so that the exit flush of what is still buffered cannot fail
        # again (Python's signal docs, "Note on SIGPIPE"); an in-process caller's
        # stdout is its own.
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _manifest(args, {}, "error: stdout closed by its reader")
        return EXIT_ERROR
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
