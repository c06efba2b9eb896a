"""Command-line front end: one subcommand per capability, records out.

Data records go to stdout as line-delimited JSON, each as soon as it
exists, or as CSV once the command ends (``--format`` or the ``GU_FORMAT``
environment variable); every invocation additionally writes exactly one
run-manifest record to stderr.  All output is
deterministic: identical arguments and files give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from bisect import bisect_left
from contextlib import ExitStack, closing
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

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
    """A bad command line, or an input that no library call rejects by itself."""


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


class _Emitter:
    """Writes each data record (a dict of JSON scalars) as soon as it exists.

    JSONL writes the record at once.  A CSV header is the sorted union of
    the keys of every record, so CSV keeps its records in a temporary file
    (in memory up to 1 MB, then on disk) until ``finish`` writes the header
    and the rows; records not yet written when a command fails are dropped.
    """

    def __init__(self, fmt: str, out) -> None:
        self.out = out
        self.columns: Optional[set[str]] = None
        if fmt == "csv":
            self.columns = set()
            self.spool = tempfile.SpooledTemporaryFile(1 << 20, "w+", encoding="utf-8")

    def __call__(self, record: dict) -> None:
        line = _encode(record) + "\n"
        if self.columns is None:
            self.out.write(line)
        else:
            self.columns.update(record)
            self.spool.write(line)

    def finish(self) -> None:
        """Write what is still held: the CSV header and rows."""
        if self.columns is None:
            return
        columns = sorted(self.columns)
        writer = csv.writer(self.out, lineterminator="\n")
        writer.writerow(columns)
        self.spool.seek(0)
        for line in self.spool:
            record = json.loads(line)
            writer.writerow(["" if record.get(col) is None else record.get(col) for col in columns])

    def close(self) -> None:
        if self.columns is not None:
            self.spool.close()


def _manifest(args: argparse.Namespace, inputs: dict, summary: str) -> None:
    record = {
        "record": "manifest",
        "subcommand": args.command if args.command != "beta" else f"beta {args.beta_command}",
        "inputs": json.dumps(inputs, sort_keys=True),
        "seed": args.seed,
        "tool_version": f"godelsim {__version__}",
        "outcome_summary": summary,
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


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
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        n = int(text)
        return range(n, n + 1)
    except ValueError as exc:
        raise CliError(f"bad range {text!r} (use N or A..B)") from exc


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
        self.emit = emit

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
        self.emit(
            {
                "record": "visit",
                "step": runner.steps,
                "state": runner.state,
                "head": runner.head - shift,
                "tape": " ".join(self.tokens),
            }
        )


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
        runner = Runner(machine, start)
        outcome = runner.run(args.budget, _TraceView(runner, emit) if args.trace else None)
    except MalformedIDError as exc:
        raise CliError(f"{args.input}: {exc}") from exc
    if isinstance(outcome, Halted):
        emit(
            {
                "record": "outcome",
                "kind": "halted",
                "steps": outcome.steps,
                "ones": count_symbols(outcome.final_id),
            }
        )
        status, summary = EXIT_OK, f"halted steps={outcome.steps}"
    elif isinstance(outcome, LoopDetected):
        emit(
            {
                "record": "outcome",
                "kind": "loop-detected",
                "first_repeat_step": outcome.first_repeat_step,
                "period": outcome.period,
            }
        )
        status = EXIT_LOOP
        summary = f"loop-detected step={outcome.first_repeat_step} period={outcome.period}"
    else:
        emit({"record": "outcome", "kind": "budget-exceeded", "budget": outcome.budget})
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
        emit({"record": "pair", "b": pair.b, "c": pair.c})
        inputs = {"sequence": seq}
        summary = f"b={pair.b} c={pair.c}"
    elif args.beta_command == "eval":
        try:
            b, c = (int(x) for x in args.pair.split(","))
            pair = beta.BetaPair(b, c)
        except ValueError as exc:
            raise CliError(f"bad pair {args.pair!r} (use b,c): {exc}") from exc
        value = beta.beta_eval(pair, args.index)
        emit({"record": "value", "i": args.index, "value": value})
        inputs = {"pair": [b, c], "index": args.index}
        summary = f"value={value}"
    elif args.beta_command == "matches":
        seq = _parse_naturals(args.sequence)
        pairs = beta.enumerate_matches(seq, args.bound)
        for p in pairs:
            emit({"record": "pair", "b": p.b, "c": p.c})
        inputs = {"sequence": seq, "bound": args.bound}
        summary = f"{len(pairs)} matching pairs"
    elif args.beta_command == "predict":
        seq = _parse_naturals(args.sequence)
        dist = beta.next_value_distribution(seq, args.bound)
        frequencies = dist.frequencies()
        for value, freq in frequencies.items():
            emit(
                {
                    "record": "prediction",
                    "value": value,
                    "count": dist.counts[value],
                    "total": dist.total,
                    "frequency": str(freq),
                }
            )
        inputs = {"sequence": seq, "bound": args.bound}
        summary = f"{len(frequencies)} predicted values over {dist.total} pairs"
    else:
        first = _parse_tagged(args.first)
        second = _parse_tagged(args.second)
        merged = beta.superpose(first, second)
        for t, v in merged.entries:
            emit({"record": "entry", "tag": t, "value": v})
        inputs = {"first": args.first, "second": args.second}
        summary = f"{len(merged)} entries"
    return EXIT_OK, inputs, summary


def cmd_dovetail(args: argparse.Namespace, emit: _Emitter) -> _Result:
    tasks = []
    resolved = []
    for index, spec in enumerate(args.task):
        path, _, predicate = spec.partition("=")
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

    def observer(event: dovetail.SchedulerEvent) -> None:
        emit(
            {
                "record": "event",
                "step": event.global_step,
                "rank": event.rank,
                "task": event.task_id,
                "trial": event.trial,
                "result": event.result,
            }
        )

    outcome = dovetail.dovetail(tasks, args.sub_budget, args.global_budget, observer)
    if isinstance(outcome, dovetail.FirstSuccess):
        emit(
            {
                "record": "outcome",
                "kind": "first-success",
                "task": outcome.task_id,
                "trial": outcome.trial,
                "steps": outcome.evidence.steps,
            }
        )
        summary = f"first-success task={outcome.task_id} trial={outcome.trial}"
    elif isinstance(outcome, dovetail.AllExhausted):
        emit({"record": "outcome", "kind": "all-exhausted"})
        summary = "all-exhausted"
    else:
        emit(
            {"record": "outcome", "kind": "global-budget-exceeded", "budget": outcome.global_budget}
        )
        summary = "global-budget-exceeded"
    inputs = {"tasks": resolved, "sub_budget": args.sub_budget, "global_budget": args.global_budget}
    return EXIT_OK, inputs, summary


def cmd_universe(args: argparse.Namespace, emit: _Emitter) -> _Result:
    with ExitStack() as stack:
        config_path = _resolve_config(args.config, stack)
        setup = universe.load_universe_config(config_path)
    steps = args.steps if args.steps is not None else setup.steps
    window = args.window if args.window is not None else setup.window
    u = setup.universe
    names = {}
    for p in u.particles:
        for k in p.providers:
            name = u.registry.name_of(k) or str(k)
            # property names must not clobber the fixed record columns
            names[k] = f"prop_{name}" if name in ("record", "t", "particle") else name
    series: dict[tuple[int, int], list[Optional[int]]] = {}
    for t in range(steps):
        for particle in u.particles:
            sig = universe.signature_at(u, particle.id, t)
            record: dict = {"record": "signature", "t": t, "particle": particle.id}
            for k, value in sig.values.items():
                record[names[k]] = "horizon-exceeded" if value is None else value
                series.setdefault((particle.id, k), []).append(value)
            emit(record)
    report = universe.check_predictability_obstruction(u)
    verdicts: dict[str, list[str]] = {"predictable": [], "random": [], "undetermined": [], "horizon-limited": []}
    for (pid, k), values in sorted(series.items()):
        label = f"{pid}.{names[k]}"
        if any(v is None for v in values):
            verdicts["horizon-limited"].append(label)
            continue
        verdict = universe.classify_predictability([v for v in values if v is not None], window)
        if isinstance(verdict, universe.Predictable):
            verdicts["predictable"].append(label)
        elif isinstance(verdict, universe.Random):
            verdicts["random"].append(label)
        else:
            verdicts["undetermined"].append(label)
    emit(
        {
            "record": "report",
            "classification": report.classification.value,
            "particles": len(u.particles),
            "fundamental": " ".join(str(p) for p in report.fundamental_particles),
            "initial_materialized": " ".join(
                str(p.particle) for p in report.particles if p.initial_materialized
            ),
            "predictable": " ".join(verdicts["predictable"]),
            "random": " ".join(verdicts["random"]),
            "undetermined": " ".join(verdicts["undetermined"]),
            "horizon_limited": " ".join(verdicts["horizon-limited"]),
            "window": window,
        }
    )
    inputs = {"config": os.path.abspath(str(config_path)), "steps": steps, "window": window}
    return EXIT_OK, inputs, f"classification={report.classification.value}"


def cmd_collapse(args: argparse.Namespace, emit: _Emitter) -> _Result:
    hm = collapse.make_horizon_machine(args.pred, args.k)
    measured = collapse.measure(hm, args.measure) if args.measure is not None else hm
    for n in _parse_range(args.eval):
        before = collapse.evaluate(hm, n)
        after = collapse.evaluate(measured, n)
        emit(
            {
                "record": "eval",
                "n": n,
                "before": "loop" if isinstance(before, LoopDetected) else before,
                "after": "loop" if isinstance(after, LoopDetected) else after,
            }
        )
    emit(
        {
            "record": "horizons",
            "before": hm.horizon,
            "after": measured.horizon,
            "history": " ".join(str(k) for k in measured.history),
        }
    )
    inputs = {"pred": args.pred, "k": args.k, "measure": args.measure, "eval": args.eval}
    return EXIT_OK, inputs, f"horizon {hm.horizon} -> {measured.horizon}"


def cmd_corpus(args: argparse.Namespace, emit: _Emitter) -> _Result:
    results = corpus.verify_corpus()
    for r in results:
        emit(
            {
                "record": "verify",
                "machine": r.name,
                "expected": r.expected,
                "observed": r.observed,
                "passed": r.passed,
                "detail": r.detail,
            }
        )
    passed = sum(1 for r in results if r.passed)
    emit(
        {"record": "summary", "passed": passed, "failed": len(results) - passed, "total": len(results)}
    )
    status = EXIT_OK if passed == len(results) else EXIT_ERROR
    return status, {"machines": len(results)}, f"{passed}/{len(results)} passed"


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gu", description="Loop-detected machines, sequence codecs, and universe checks."
    )
    parser.add_argument(
        "--format",
        type=output_format,
        metavar="{jsonl,csv}",
        default=os.environ.get("GU_FORMAT", "jsonl"),
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
        args = build_parser().parse_args(argv)
        # Exact integers such as the c of a long beta encoding exceed Python's default
        # limit on int <-> str conversion; lift it for this command only.
        if digit_limit is not None:
            sys.set_int_max_str_digits(0)
        with closing(_Emitter(args.format, sys.stdout)) as emit:
            status, inputs, summary = args.func(args, emit)
            emit.finish()
        _manifest(args, inputs, summary)
        return status
    except GodelsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _manifest(args, {}, f"error: {exc}")
        return EXIT_ERROR
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
