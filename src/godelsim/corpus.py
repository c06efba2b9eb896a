"""Shipped machine corpus: loading, expected outcomes, and verification.

The corpus is a directory of machine files plus a manifest recording what
each run from the blank tape must do: halt at an exact step count, repeat
a configuration at an exact step and period, or run the budget out
without repeating.  Verification checks the loop-detecting runner against
the manifest, then confirms each verdict by plain simulation: a halt by a
run of the budget, a loop by a replay to its reported step (a machine
that repeats a configuration never halts), and a spent budget by a run
of ``NAIVE_CONFIRM_FACTOR`` budgets that must not halt.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from typing import NamedTuple, Union

from .machine import (
    BudgetExceeded,
    Halted,
    LoopDetected,
    Machine,
    RunOutcome,
    Runner,
    blank_id,
    count_symbols,
    naive_run,
    parse_machine_text,
    run_with_loop_detection,
)

NAIVE_CONFIRM_FACTOR = 10


class ExpectHalt(NamedTuple):
    steps: int
    ones: int


class ExpectLoop(NamedTuple):
    first_repeat_step: int
    period: int


class ExpectDiverge(NamedTuple):
    pass


Expected = Union[ExpectHalt, ExpectLoop, ExpectDiverge]


class CorpusEntry(NamedTuple):
    name: str
    budget: int
    expected: Expected


class VerifyResult(NamedTuple):
    name: str
    expected: str
    observed: str
    passed: bool
    detail: str


@functools.cache
def _corpus_root():
    """The corpus directory, resolved once a process: ``gu corpus verify`` reads 14 files from it."""
    return resources.files("godelsim").joinpath("data/corpus")


def load_manifest() -> list[CorpusEntry]:
    data = json.loads(_corpus_root().joinpath("manifest.json").read_text("utf-8"))
    entries = []
    for item in data["machines"]:
        exp = item["expected"]
        if exp["kind"] == "halt":
            expected: Expected = ExpectHalt(exp["steps"], exp["ones"])
        elif exp["kind"] == "loop":
            expected = ExpectLoop(exp["first_repeat_step"], exp["period"])
        else:
            expected = ExpectDiverge()
        entries.append(CorpusEntry(item["file"], item["budget"], expected))
    return entries


def corpus_machine(name: str) -> Machine:
    return parse_machine_text(_corpus_root().joinpath(name).read_text("utf-8"))


def _confirm_loop(machine: Machine, verdict: LoopDetected) -> str:
    """Empty string when a replay repeats a configuration at the reported step and period, else a reason.

    The run keys compared are equal exactly when the configurations are up
    to translation; a halt on the reported step itself is a mismatch.
    """
    replay = Runner(machine, blank_id(machine), detect_loops=False)
    keys = []
    for target in (verdict.first_repeat_step - verdict.period, verdict.first_repeat_step):
        replay._steps(target - replay.steps)
        if replay.steps != target:
            return "halted before the reported repeat step"
        keys.append(replay._canonical_key())
    if keys[0] != keys[1]:
        return "configurations at the reported step and period do not match"
    return ""


def _mismatch(machine: Machine, entry: CorpusEntry, outcome: RunOutcome) -> str:
    """Empty string when ``outcome`` is the manifest's and plain simulation backs it, else why not."""
    expected = entry.expected
    if isinstance(expected, ExpectHalt):
        if not isinstance(outcome, Halted):
            return "did not halt"
        if outcome.steps != expected.steps:
            return f"halted after {outcome.steps} steps, manifest says {expected.steps}"
        ones = count_symbols(outcome.final_id)
        if ones != expected.ones:
            return f"final tape has {ones} ones, manifest says {expected.ones}"
        confirm = naive_run(machine, blank_id(machine), entry.budget)
        if not isinstance(confirm, Halted) or confirm.steps != outcome.steps:
            return "plain simulation disagrees on the halt"
        if confirm.final_id != outcome.final_id:
            return "plain simulation disagrees on the final tape"
        return ""
    if isinstance(expected, ExpectLoop):
        if not isinstance(outcome, LoopDetected):
            return "no loop detected"
        if (outcome.first_repeat_step, outcome.period) != (
            expected.first_repeat_step,
            expected.period,
        ):
            return "loop step/period differ from the manifest"
        return _confirm_loop(machine, outcome)
    if not isinstance(outcome, BudgetExceeded):
        return "expected the budget to run out"
    confirm = naive_run(machine, blank_id(machine), entry.budget * NAIVE_CONFIRM_FACTOR)
    if isinstance(confirm, Halted):
        return f"plain simulation halted after {confirm.steps} steps"
    return ""


def _short(outcome: RunOutcome) -> str:
    """The outcome as ``gu corpus verify`` reports a confirmed one."""
    if isinstance(outcome, Halted):
        return f"Halted(steps={outcome.steps})"
    if isinstance(outcome, LoopDetected):
        return f"LoopDetected(step={outcome.first_repeat_step}, period={outcome.period})"
    return f"BudgetExceeded({outcome.budget})"


def verify_entry(entry: CorpusEntry) -> VerifyResult:
    machine = corpus_machine(entry.name)
    outcome = run_with_loop_detection(machine, blank_id(machine), entry.budget)
    detail = _mismatch(machine, entry, outcome)
    observed = repr(outcome) if detail else _short(outcome)
    return VerifyResult(entry.name, repr(entry.expected), observed, not detail, detail)


def verify_corpus() -> list[VerifyResult]:
    """Check every corpus machine against the manifest; order follows the manifest."""
    return [verify_entry(entry) for entry in load_manifest()]
