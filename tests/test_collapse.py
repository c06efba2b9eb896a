"""Horizon machines: dichotomy, measurement, and agreement with the raw predicate."""

import pytest

from godelsim import collapse
from godelsim.collapse import (
    HorizonMachine,
    evaluate,
    make_horizon_machine,
    measure,
    resolve_predicate,
)
from godelsim.machine import LoopDetected


def test_smallest_horizon_halts_only_on_zero():
    hm = make_horizon_machine("const=3", 1)
    assert evaluate(hm, 0) == 3
    assert isinstance(evaluate(hm, 1), LoopDetected)


def test_parity_machine_outputs_then_loops():
    hm = make_horizon_machine("parity", 4)
    assert [evaluate(hm, n) for n in range(4)] == [0, 1, 0, 1]
    assert isinstance(evaluate(hm, 4), LoopDetected)


def test_loop_detected_on_every_input_past_horizon():
    hm = make_horizon_machine("parity", 3)
    for n in range(3, 9):
        outcome = evaluate(hm, n)
        assert isinstance(outcome, LoopDetected)
        assert outcome.first_repeat_step == 2 and outcome.period == 2


def test_agreement_with_direct_predicate_below_horizon():
    for spec in ("parity", "const=2", "mod=3", "pi"):
        pred = resolve_predicate(spec)
        hm = make_horizon_machine(spec, 20)
        for n in range(20):
            assert evaluate(hm, n) == pred(n)


def test_measure_below_horizon_is_identity():
    hm = make_horizon_machine("parity", 5)
    assert measure(hm, 2) is hm


def test_measure_jumps_to_least_covering_horizon():
    hm = make_horizon_machine("parity", 3)
    collapsed = measure(hm, 7)
    assert collapsed.horizon == 8
    assert evaluate(collapsed, 7) == 1
    assert collapsed.history == (3, 8)


def test_histories_increase_over_measure_sequences():
    hm = make_horizon_machine("mod=5", 1)
    for n in (0, 4, 2, 9, 9, 30):
        hm = measure(hm, n)
    assert hm.history == (1, 5, 10, 31)
    assert all(a < b for a, b in zip(hm.history, hm.history[1:]))


def test_values_below_old_horizon_survive_collapse():
    hm = make_horizon_machine("pi", 4)
    before = [evaluate(hm, n) for n in range(4)]
    collapsed = measure(hm, 12)
    assert [evaluate(collapsed, n) for n in range(4)] == before


def test_dichotomy_value_xor_loop():
    for k in (1, 5, 11):
        hm = make_horizon_machine("parity", k)
        for n in range(0, k + 10):
            outcome = evaluate(hm, n)
            assert isinstance(outcome, int) == (n < k)


def test_horizon_machine_validation():
    with pytest.raises(ValueError):
        make_horizon_machine("parity", 0)
    with pytest.raises(ValueError):
        HorizonMachine(lambda n: 0, "zero", 3, (3, 2))
    with pytest.raises(ValueError):
        resolve_predicate("nonsense")


def test_pi_predicate_starts_with_known_digits():
    pred = resolve_predicate("pi")
    assert [pred(n) for n in range(10)] == [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]


def test_pi_digits_are_read_once(monkeypatch):
    files, reads = collapse.resources.files, []
    monkeypatch.setattr(collapse.resources, "files", lambda package: reads.append(package) or files(package))
    collapse._pi_digits.cache_clear()
    preds = [resolve_predicate("pi") for _ in range(3)]
    assert reads == ["godelsim"]
    assert {tuple(pred(n) for n in range(10)) for pred in preds} == {(3, 1, 4, 1, 5, 9, 2, 6, 5, 3)}
