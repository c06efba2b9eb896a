"""Seeded job lists for the three workloads, how each job drives godelsim, and its check.

A job is one call a user would make: a library call or one ``gu``
invocation through ``godelsim.cli.main``.  Every job reaches godelsim
through module attributes at call time, so the traced pass sees the
wrappers it installs.  Each job kind has an executor, which is all that
is timed, and a checker, which compares the result with a reference
route from ``oracle.py`` and returns the machine steps the result stands
for.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import oracle
from oracle import Mismatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "godelsim" / "data"
CORPUS_DIR = DATA / "corpus"
CONFIG_DIR = DATA / "configs"

def load_lib() -> types.SimpleNamespace:
    """Import godelsim from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import godelsim
    import godelsim.cli

    if Path(godelsim.__file__).resolve().parent != SRC / "godelsim":
        raise ImportError(f"godelsim was imported from {godelsim.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        machine=godelsim.machine,
        dovetail=godelsim.dovetail,
        beta=godelsim.beta,
        universe=godelsim.universe,
        collapse=godelsim.collapse,
        corpus=godelsim.corpus,
        cli=godelsim.cli,
    )


@dataclass(frozen=True)
class Job:
    kind: str
    name: str  # every input that defines the job, so equal names mean equal jobs
    params: dict = field(compare=False, repr=False)


@dataclass(frozen=True)
class Checked:
    steps: int  # machine steps the verified result stands for
    span: int = 0  # widest tape span among the job's plain machine runs


def execute(lib, job: Job) -> Any:
    return EXECUTE[job.kind](lib, job.params)


def check(lib, job: Job, result: Any) -> Checked:
    return CHECK[job.kind](lib, job.params, result)


# --- normal forms of library results ------------------------------------------


def id_tuple(desc) -> tuple:
    return (desc.state, desc.head, tuple(sorted(desc.tape.items())))


def norm_outcome(outcome) -> tuple:
    kind = type(outcome).__name__
    if kind == "Halted":
        return ("halt", outcome.steps, id_tuple(outcome.final_id))
    if kind == "LoopDetected":
        return ("loop", outcome.first_repeat_step, outcome.period)
    if kind == "BudgetExceeded":
        return ("budget", outcome.budget)
    raise Mismatch(f"unexpected run outcome {outcome!r}")


def norm_dovetail(outcome) -> tuple:
    kind = type(outcome).__name__
    if kind == "FirstSuccess":
        ones = sum(1 for sym in outcome.evidence.final_id.tape.values() if sym == "1")
        return ("first-success", outcome.task_id, outcome.trial, outcome.evidence.steps, ones)
    if kind == "AllExhausted":
        return (
            "all-exhausted",
            tuple(
                (s.task_id, s.trials_spawned, s.halted_rejected, s.loops_detected, s.sub_budget_exhausted, s.exhausted)
                for s in outcome.statuses
            ),
        )
    if kind == "GlobalBudgetExceeded":
        return ("global-budget", outcome.global_budget)
    raise Mismatch(f"unexpected dovetail outcome {outcome!r}")


def norm_ref_dovetail(outcome: tuple) -> tuple:
    if outcome[0] == "first-success":
        return ("first-success", outcome[1], outcome[2], outcome[3][1], oracle.ones(outcome[3]))
    return outcome


def expect(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {str(got)[:300]}, reference says {str(want)[:300]}")


# --- machine runs ---------------------------------------------------------------


def exec_run(lib, p):
    machine, start, budget = p["machine"], p["start"], p["budget"]
    return (
        lib.machine.run_with_loop_detection(machine, start, budget),
        lib.machine.naive_run(machine, start, budget),
    )


def check_run(lib, p, result) -> Checked:
    verdict = oracle.reference_run(p["table"], p["state"], p["tape"], p["budget"])
    expect(norm_outcome(result[0]), verdict.outcome, "loop-detected run")
    expect(norm_outcome(result[1]), verdict.naive, "naive_run confirmation")
    return Checked(verdict.outcome[1] + verdict.naive[1], verdict.span)


def run_cli(lib, argv) -> tuple[int, str]:
    """One in-process ``gu`` call: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejecting the arguments is an outcome of the call
            code = exc.code
    return code, out.getvalue()


def exec_gu(lib, p):
    return run_cli(lib, p["argv"])


def records_of(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def check_gu(lib, p, result) -> Checked:
    expect(run_cli(lib, p["argv"]), result, "stdout of a second identical gu call")
    return GU_CHECK[p["sub"]](lib, p, result[0], records_of(result[1]))


def check_gu_run(lib, p, code, records) -> Checked:
    visits: list[dict] = []

    def on_visit(step: int, canon: tuple) -> None:
        state, head, cells = canon
        tape = " ".join(f"{cell}:{sym}" for cell, sym in cells)
        visits.append({"record": "visit", "step": step, "state": state, "head": head, "tape": tape})

    run = oracle.RefRun(p["table"], p["state"], p["tape"], 0, p["budget"], on_visit=on_visit if p["trace"] else None)
    outcome = run.finish()
    if outcome[0] == "halt":
        last = {"record": "outcome", "kind": "halted", "steps": outcome[1], "ones": oracle.ones(outcome)}
        want_code = 0
    elif outcome[0] == "loop":
        last = {"record": "outcome", "kind": "loop-detected", "first_repeat_step": outcome[1], "period": outcome[2]}
        want_code = 2
    else:
        last = {"record": "outcome", "kind": "budget-exceeded", "budget": outcome[1]}
        want_code = 3
    expect(code, want_code, "gu run exit code")
    expect(records[-1:], [last], "gu run outcome record")
    expect(records[:-1], visits, "gu run visit records")
    return Checked(outcome[1], run.span)


def check_gu_dovetail(lib, p, code, records) -> Checked:
    outcome, events = oracle.reference_dovetail(p["ref_tasks"], p["sub_budget"], p["global_budget"])
    want = [
        {"record": "event", "step": s, "rank": r, "task": t, "trial": y, "result": res}
        for s, r, t, y, res in events
    ]
    if outcome[0] == "first-success":
        last = {"record": "outcome", "kind": "first-success", "task": outcome[1], "trial": outcome[2], "steps": outcome[3][1]}
    elif outcome[0] == "all-exhausted":
        last = {"record": "outcome", "kind": "all-exhausted"}
    else:
        last = {"record": "outcome", "kind": "global-budget-exceeded", "budget": outcome[1]}
    expect(code, 0, "gu dovetail exit code")
    expect(records, want + [last], "gu dovetail records")
    return Checked(len(events))


@functools.cache
def pi_digits() -> str:
    return "".join(ch for ch in (DATA / "pi_digits.txt").read_text(encoding="utf-8") if ch.isdigit())


def reserved(name: str) -> str:
    return f"prop_{name}" if name in ("record", "t", "particle") else name


def reference_rows(config: dict, base_dir: Path, steps: int) -> tuple[list[dict], int, str]:
    """Signature records, machine steps and classification of a universe config."""
    names = [str(n) for n in config.get("properties", [])] + [str(n) for n in config.get("values", [])]
    number = {}
    for name in names:
        number.setdefault(name, len(number) + 1)
    particles = []
    for entry in config.get("particles", []):
        providers = sorted(
            (number[prop], reserved(prop), spec, oracle.reference_provider(spec, base_dir, pi_digits()))
            for prop, spec in entry.get("providers", {}).items()
        )
        particles.append((int(entry["id"]), providers))
    rows, total = [], 0
    for t in range(steps):
        for pid, providers in particles:
            row: dict = {"record": "signature", "t": t, "particle": pid}
            for _, label, _, value_at in providers:
                value, used = value_at(t)
                row[label] = "horizon-exceeded" if value is None else value
                total += used
            rows.append(row)
    horizon = [any(spec.startswith("horizon:") for _, _, spec, _ in providers) for _, providers in particles]
    uniform = any(spec.startswith("uniform:") for _, providers in particles for _, _, spec, _ in providers)
    if not any(horizon):
        kind = "pre-destined"
    elif all(horizon) and not uniform:
        kind = "quantum"
    else:
        kind = "partially-pre-destined"
    return rows, total, kind


def check_gu_universe(lib, p, code, records) -> Checked:
    rows, steps, kind = reference_rows(p["config"], p["base_dir"], p["steps"])
    expect(code, 0, "gu universe sim exit code")
    expect(records[:-1], rows, "gu universe sim signature records")
    report = records[-1]
    expect((report["record"], report["classification"], report["particles"]), ("report", kind, len(p["config"]["particles"])), "gu universe sim report")
    return Checked(steps)


GU_CHECK: dict[str, Callable] = {"run": check_gu_run, "dovetail": check_gu_dovetail, "universe": check_gu_universe}


# --- corpus ------------------------------------------------------------------------


def corpus_expectation(item: dict) -> tuple[bool, oracle.MachineVerdict]:
    """Whether the manifest entry passes, and the verdict of its loop-detected run, by the reference route."""
    table, state = oracle.parse_tm((CORPUS_DIR / item["file"]).read_text(encoding="utf-8"))
    verdict = oracle.reference_run(table, state, {}, item["budget"])
    outcome, want = verdict.outcome, item["expected"]
    if want["kind"] == "halt":
        passed = outcome[0] == "halt" and (outcome[1], oracle.ones(outcome)) == (want["steps"], want["ones"])
    elif want["kind"] == "loop":
        passed = outcome == ("loop", want["first_repeat_step"], want["period"])
    else:
        plain = oracle.RefRun(table, state, {}, 0, 10 * item["budget"], detect=False).finish()
        passed = outcome[0] == "budget" and plain[0] != "halt"
    return passed, verdict


def manifest_items() -> list[dict]:
    return json.loads((CORPUS_DIR / "manifest.json").read_text(encoding="utf-8"))["machines"]


def exec_corpus(lib, p):
    if p["entry"] is None:
        return lib.corpus.verify_corpus()
    return [lib.corpus.verify_entry(p["entry"])]


def check_corpus(lib, p, result) -> Checked:
    items = manifest_items() if p["entry"] is None else [i for i in manifest_items() if i["file"] == p["file"]]
    want = [(item["file"], *corpus_expectation(item)) for item in items]
    expect([(r.name, r.passed) for r in result], [(name, passed) for name, passed, _ in want], "corpus verdicts")
    return Checked(sum(v.outcome[1] for _, _, v in want), max(v.span for _, _, v in want))


# --- dovetail and total_mu --------------------------------------------------------


def exec_dovetail(lib, p):
    tasks = p["tasks"](lib, p)
    return lib.dovetail.dovetail(tasks, p["sub_budget"], p["global_budget"])


def check_dovetail(lib, p, result) -> Checked:
    outcome, events = oracle.reference_dovetail(p["ref_tasks"], p["sub_budget"], p["global_budget"])
    expect(norm_dovetail(result), norm_ref_dovetail(outcome), "dovetail outcome")
    return Checked(len(events))


def absdiff(target: int, x: int, y: int) -> int:
    return abs(x + y - target)


def exec_total_mu(lib, p):
    g = lib.dovetail.MachineBackedFunction(functools.partial(absdiff, p["target"]), frozenset(p["diverging"]))
    return lib.dovetail.total_mu(g, (p["x"],), p["budget"])


def check_total_mu(lib, p, result) -> Checked:
    want, steps = oracle.reference_total_mu(
        functools.partial(absdiff, p["target"]), p["diverging"], (p["x"],), p["budget"]
    )
    got = ("defined", result.y) if type(result).__name__ == "Defined" else ("vacuous", result.reason.value)
    expect(got, want, "total_mu")
    return Checked(steps)


# --- β codec ----------------------------------------------------------------------


def exec_beta(lib, p):
    op, seq = p["op"], p["seq"]
    if op == "predict":
        return lib.beta.next_value_distribution(seq, p["bound"])
    if op == "matches":
        return lib.beta.enumerate_matches(seq, p["bound"])
    if op == "encode":
        return lib.beta.beta_encode(seq)
    return lib.beta.fit_characteristic_beta(seq, p["bound"])


def check_beta(lib, p, result) -> Checked:
    op, seq = p["op"], p["seq"]
    if op == "predict":
        counts = oracle.reference_prediction(seq, p["bound"])
        expect((result.bound, dict(result.counts), result.total), (p["bound"], counts, sum(counts.values())), "next_value_distribution")
    elif op == "matches":
        expect([(pair.b, pair.c) for pair in result], oracle.reference_matches(seq, p["bound"]), "enumerate_matches")
    elif op == "encode":
        if result.b < 0 or result.c < 1:
            raise Mismatch(f"beta_encode gave an invalid pair {result!r}")
        oracle.check_pair_realizes(result.b, result.c, seq)
    else:
        got = None if result is None else (result.b, result.c)
        expect(got, oracle.reference_fit(seq, p["bound"]), "fit_characteristic_beta")
    return Checked(0)


# --- universe and collapse ----------------------------------------------------------


def exec_predestination(lib, p):
    return lib.universe.check_predestination_sufficient(p["universe"], p["horizon"], p["bound"])


def check_predestination(lib, p, result) -> Checked:
    want, steps = [], 0
    config = p["config"]
    names = [str(n) for n in config.get("properties", [])]
    for entry in config["particles"]:
        for prop in sorted(entry["providers"], key=names.index):
            value_at = oracle.reference_provider(entry["providers"][prop], p["base_dir"], pi_digits())
            values = []
            for t in range(p["horizon"]):
                value, used = value_at(t)
                values.append(value)
                steps += used
            want.append((int(entry["id"]), prop, True, tuple(values), oracle.reference_fit(values, p["bound"])))
    got = [
        (e.particle, e.prop_name, e.uniform, e.values, None if e.pair is None else (e.pair.b, e.pair.c))
        for e in result.entries
    ]
    expect(got, want, "check_predestination_sufficient")
    return Checked(steps)


def exec_query(lib, p):
    setup = lib.universe.load_universe_config(p["path"])
    answers = [lib.universe.signature_query(setup.universe, i, t, k) for i, t, k in p["queries"]]
    return [a if isinstance(a, int) else a.value for a in answers]


def check_query(lib, p, result) -> Checked:
    config = json.loads(Path(p["path"]).read_text(encoding="utf-8"))
    names = [str(n) for n in config.get("properties", [])] + [str(n) for n in config.get("values", [])]
    by_number = {i + 1: name for i, name in enumerate(dict.fromkeys(names))}
    want, steps = [], 0
    for pid, t, k in p["queries"]:
        entry = next(e for e in config["particles"] if int(e["id"]) == pid)
        spec = entry["providers"].get(by_number.get(k, ""))
        if spec is None:
            want.append("vacuous")
            continue
        value, used = oracle.reference_provider(spec, p["base_dir"], pi_digits())(t)
        want.append("horizon-exceeded" if value is None else value)
        steps += used
    expect(result, want, "signature_query answers")
    return Checked(steps)


def norm_eval(value) -> Any:
    return value if isinstance(value, int) else ("loop", value.first_repeat_step, value.period)


def exec_collapse(lib, p):
    hm = lib.collapse.make_horizon_machine(p["pred"], p["k"])
    before = [norm_eval(lib.collapse.evaluate(hm, n)) for n in range(p["lo"], p["hi"])]
    measured = lib.collapse.measure(hm, p["measure"])
    after = [norm_eval(lib.collapse.evaluate(measured, n)) for n in range(p["lo"], p["hi"])]
    return before, measured.horizon, measured.history, after


def check_collapse(lib, p, result) -> Checked:
    k, m = p["k"], p["measure"]
    horizon = k if m < k else m + 1
    history = (k,) if m < k else (k, m + 1)
    steps = 0
    lists = []
    for h in (k, horizon):
        values = []
        for n in range(p["lo"], p["hi"]):
            value, used = oracle.reference_horizon(p["pred"], h, n, pi_digits())
            values.append(value)
            steps += used
        lists.append(values)
    expect(result, (lists[0], horizon, history, lists[1]), "horizon machine evaluate/measure")
    return Checked(steps)


# --- composite probe ----------------------------------------------------------------


def exec_probe(lib, p):
    return [execute(lib, job) for job in p["jobs"]]


def check_probe(lib, p, result) -> Checked:
    checks = [check(lib, job, r) for job, r in zip(p["jobs"], result)]
    return Checked(sum(c.steps for c in checks), max(c.span for c in checks))


EXECUTE: dict[str, Callable] = {
    "run": exec_run,
    "gu": exec_gu,
    "corpus": exec_corpus,
    "dovetail": exec_dovetail,
    "total_mu": exec_total_mu,
    "beta": exec_beta,
    "predestination": exec_predestination,
    "query": exec_query,
    "collapse": exec_collapse,
    "probe": exec_probe,
}
CHECK: dict[str, Callable] = {
    "run": check_run,
    "gu": check_gu,
    "corpus": check_corpus,
    "dovetail": check_dovetail,
    "total_mu": check_total_mu,
    "beta": check_beta,
    "predestination": check_predestination,
    "query": check_query,
    "collapse": check_collapse,
    "probe": check_probe,
}
