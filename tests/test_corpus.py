"""The shipped corpus: manifest accuracy, loop soundness, and no false loops."""

import pytest

from godelsim.corpus import (
    CorpusEntry,
    ExpectDiverge,
    ExpectHalt,
    ExpectLoop,
    _confirm_loop,
    corpus_machine,
    load_manifest,
    verify_corpus,
    verify_entry,
)
from godelsim.machine import (
    Halted,
    LoopDetected,
    blank_id,
    canonicalize,
    count_symbols,
    run_with_loop_detection,
)

from helpers import naive_outcome, replay_ids


def test_manifest_has_at_least_twelve_machines():
    entries = load_manifest()
    assert len(entries) >= 12
    kinds = {type(entry.expected) for entry in entries}
    assert kinds == {ExpectHalt, ExpectLoop, ExpectDiverge}


def test_halting_entries_match_plain_simulation():
    for entry in load_manifest():
        if not isinstance(entry.expected, ExpectHalt):
            continue
        machine = corpus_machine(entry.name)
        kind, steps, final = naive_outcome(machine, blank_id(machine), entry.budget)
        assert kind == "halt", entry.name
        assert steps == entry.expected.steps, entry.name
        assert count_symbols(final) == entry.expected.ones, entry.name
        outcome = run_with_loop_detection(machine, blank_id(machine), entry.budget)
        assert outcome == Halted(steps, final), entry.name


def test_loop_entries_confirmed_by_replay():
    for entry in load_manifest():
        if not isinstance(entry.expected, ExpectLoop):
            continue
        machine = corpus_machine(entry.name)
        outcome = run_with_loop_detection(machine, blank_id(machine), entry.budget)
        assert outcome == LoopDetected(
            entry.expected.first_repeat_step, entry.expected.period
        ), entry.name
        ids = replay_ids(machine, entry.expected.first_repeat_step)
        assert len(ids) == entry.expected.first_repeat_step + 1, entry.name
        at = canonicalize(ids[-1])
        back = canonicalize(ids[-1 - entry.expected.period])
        assert at == back, entry.name
        kind, *_ = naive_outcome(machine, blank_id(machine), entry.budget * 10)
        assert kind == "running", entry.name


def test_diverging_entries_never_repeat_or_halt():
    for entry in load_manifest():
        if not isinstance(entry.expected, ExpectDiverge):
            continue
        machine = corpus_machine(entry.name)
        outcome = run_with_loop_detection(machine, blank_id(machine), entry.budget)
        assert outcome.budget == entry.budget, entry.name
        kind, *_ = naive_outcome(machine, blank_id(machine), entry.budget * 10)
        assert kind == "running", entry.name


def test_verify_corpus_all_green():
    results = verify_corpus()
    assert all(result.passed for result in results), [
        (r.name, r.detail) for r in results if not r.passed
    ]


@pytest.mark.parametrize(
    "name, budget, expected, observed, detail",
    [
        ("bb2.tm", 200, ExpectHalt(7, 4), "Halted(steps=6,", "halted after 6 steps, manifest says 7"),
        ("bb2.tm", 200, ExpectHalt(6, 5), "Halted(steps=6,", "final tape has 4 ones, manifest says 5"),
        ("pingpong.tm", 100, ExpectHalt(2, 0), "LoopDetected(first_repeat_step=2, period=2)", "did not halt"),
        ("grow_right.tm", 100, ExpectHalt(100, 100), "BudgetExceeded(budget=100)", "did not halt"),
        ("pingpong.tm", 100, ExpectLoop(4, 2), "LoopDetected(first_repeat_step=2, period=2)",
         "loop step/period differ from the manifest"),
        ("pingpong.tm", 100, ExpectLoop(2, 1), "LoopDetected(first_repeat_step=2, period=2)",
         "loop step/period differ from the manifest"),
        ("write3.tm", 200, ExpectLoop(3, 3), "Halted(steps=3,", "no loop detected"),
        ("bb2.tm", 200, ExpectDiverge(), "Halted(steps=6,", "expected the budget to run out"),
        ("zigzag.tm", 100, ExpectDiverge(), "LoopDetected(first_repeat_step=4, period=4)",
         "expected the budget to run out"),
        # bb4 halts at step 107: past a budget of 50, within ten times it.
        ("bb4.tm", 50, ExpectDiverge(), "BudgetExceeded(budget=50)", "plain simulation halted after 107 steps"),
    ],
    ids=[
        "halt-steps", "halt-ones", "halt-of-looper", "halt-of-grower", "loop-step", "loop-period",
        "loop-of-halter", "diverge-of-halter", "diverge-of-looper", "diverge-halts-later",
    ],
)
def test_verifier_rejects_a_tampered_entry(name, budget, expected, observed, detail):
    result = verify_entry(CorpusEntry(name, budget, expected))
    assert result.passed is False
    assert result.detail == detail
    assert result.expected == repr(expected)
    assert result.observed.startswith(observed)


def test_loop_confirmation_rejects_made_up_verdicts():
    write3 = corpus_machine("write3.tm")  # halts at step 3
    assert _confirm_loop(write3, LoopDetected(6, 2), 100) == "halted before the reported repeat step"
    pingpong = corpus_machine("pingpong.tm")  # repeats with period 2 only
    assert _confirm_loop(pingpong, LoopDetected(3, 1), 100) == (
        "configurations at the reported step and period do not match"
    )
    assert _confirm_loop(pingpong, LoopDetected(3, 2), 100) == ""
