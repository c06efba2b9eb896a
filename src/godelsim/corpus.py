"""Shipped machine corpus: loading, expected outcomes, and verification.

The corpus is a directory of machine files plus a manifest recording what
each run from the blank tape must do: halt at an exact step count, repeat
a configuration at an exact step and period, or run the budget out
without repeating.  Verification checks the loop-detecting runner against
the manifest and confirms every verdict by plain simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Union

from .machine import (
    BudgetExceeded,
    Halted,
    LoopDetected,
    Machine,
    Runner,
    blank_id,
    canonicalize,
    count_symbols,
    naive_run,
    parse_machine_text,
    run_with_loop_detection,
)

NAIVE_CONFIRM_FACTOR = 10


@dataclass(frozen=True)
class ExpectHalt:
    steps: int
    ones: int


@dataclass(frozen=True)
class ExpectLoop:
    first_repeat_step: int
    period: int


@dataclass(frozen=True)
class ExpectDiverge:
    pass


Expected = Union[ExpectHalt, ExpectLoop, ExpectDiverge]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    budget: int
    expected: Expected


@dataclass(frozen=True)
class VerifyResult:
    name: str
    expected: str
    observed: str
    passed: bool
    detail: str


def _corpus_root():
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


def _confirm_loop(machine: Machine, verdict: LoopDetected, budget: int) -> str:
    """Empty string when plain simulation backs the loop verdict, else a reason."""
    replay = Runner(machine, blank_id(machine), detect_loops=False)
    canon = []
    for target in (verdict.first_repeat_step - verdict.period, verdict.first_repeat_step):
        while replay.steps < target:
            if replay.advance() is not None:
                return "halted before the reported repeat step"
        canon.append(canonicalize(replay.snapshot()))
    if canon[0] != canon[1]:
        return "configurations at the reported step and period do not match"
    confirm = naive_run(machine, blank_id(machine), budget * NAIVE_CONFIRM_FACTOR)
    if isinstance(confirm, Halted):
        return f"plain simulation halted after {confirm.steps} steps"
    return ""


def verify_entry(entry: CorpusEntry) -> VerifyResult:
    machine = corpus_machine(entry.name)
    outcome = run_with_loop_detection(machine, blank_id(machine), entry.budget)
    expected_desc = repr(entry.expected)
    observed_desc = type(outcome).__name__

    if isinstance(entry.expected, ExpectHalt):
        if not isinstance(outcome, Halted):
            return VerifyResult(entry.name, expected_desc, repr(outcome), False, "did not halt")
        if outcome.steps != entry.expected.steps:
            return VerifyResult(
                entry.name, expected_desc, repr(outcome), False,
                f"halted after {outcome.steps} steps, manifest says {entry.expected.steps}",
            )
        ones = count_symbols(outcome.final_id)
        if ones != entry.expected.ones:
            return VerifyResult(
                entry.name, expected_desc, repr(outcome), False,
                f"final tape has {ones} ones, manifest says {entry.expected.ones}",
            )
        confirm = naive_run(machine, blank_id(machine), entry.budget)
        if not isinstance(confirm, Halted) or confirm.steps != outcome.steps:
            return VerifyResult(
                entry.name, expected_desc, repr(outcome), False,
                "plain simulation disagrees on the halt",
            )
        if confirm.final_id != outcome.final_id:
            return VerifyResult(
                entry.name, expected_desc, repr(outcome), False,
                "plain simulation disagrees on the final tape",
            )
        return VerifyResult(entry.name, expected_desc, f"Halted(steps={outcome.steps})", True, "")

    if isinstance(entry.expected, ExpectLoop):
        if not isinstance(outcome, LoopDetected):
            return VerifyResult(entry.name, expected_desc, repr(outcome), False, "no loop detected")
        if (outcome.first_repeat_step, outcome.period) != (
            entry.expected.first_repeat_step,
            entry.expected.period,
        ):
            return VerifyResult(
                entry.name, expected_desc, repr(outcome), False,
                "loop step/period differ from the manifest",
            )
        reason = _confirm_loop(machine, outcome, entry.budget)
        if reason:
            return VerifyResult(entry.name, expected_desc, repr(outcome), False, reason)
        return VerifyResult(
            entry.name, expected_desc,
            f"LoopDetected(step={outcome.first_repeat_step}, period={outcome.period})", True, "",
        )

    if not isinstance(outcome, BudgetExceeded):
        return VerifyResult(
            entry.name, expected_desc, repr(outcome), False,
            "expected the budget to run out",
        )
    confirm = naive_run(machine, blank_id(machine), entry.budget * NAIVE_CONFIRM_FACTOR)
    if isinstance(confirm, Halted):
        return VerifyResult(
            entry.name, expected_desc, repr(outcome), False,
            f"plain simulation halted after {confirm.steps} steps",
        )
    return VerifyResult(entry.name, expected_desc, f"BudgetExceeded({outcome.budget})", True, "")


def verify_corpus() -> list[VerifyResult]:
    """Check every corpus machine against the manifest; order follows the manifest."""
    return [verify_entry(entry) for entry in load_manifest()]
