"""Machine semantics: stepping, canonical forms, keys, and loop-detected runs."""

import random
import tracemalloc
from dataclasses import replace

import pytest

import godelsim.machine
from godelsim import GodelsimError
from godelsim.corpus import corpus_machine, verify_corpus
from godelsim.machine import (
    BLANK,
    BudgetExceeded,
    Halted,
    ID,
    LoopDetected,
    Machine,
    MachineParseError,
    MalformedIDError,
    Move,
    Runner,
    Tape,
    blank_id,
    canonicalize,
    count_symbols,
    encode_id,
    load_machine_file,
    naive_run,
    parse_machine_text,
    run_value,
    run_with_loop_detection,
    step,
    two_state_looper,
    unary_id,
    unary_writer,
    value_machine,
)
from godelsim.dovetail import SearchTask, SubRun, dovetail, unary_output

from helpers import canonical_tuple, naive_outcome, random_id, random_machine


def test_step_empty_table_halts():
    machine = Machine.from_rules([], "q0")
    assert step(machine, ID("q0", 0, {})) is None
    assert step(machine, ID("q0", 7, {3: BLANK})) is None


def test_step_single_rule_on_blank_tape():
    machine = Machine.from_rules([("q0", BLANK, "q0", "1", "R")], "q0")
    assert step(machine, ID("q0", 0, {})) == ID("q0", 1, {0: "1"})


def test_step_trace_matches_hand_simulation():
    # Two working states; no rule for (q1, 1), so the machine halts there.
    machine = Machine.from_rules(
        [
            ("q0", BLANK, "q1", "1", "R"),
            ("q1", BLANK, "q0", "1", "R"),
            ("q0", "1", "q1", "1", "R"),
        ],
        "q0",
    )
    trace = [ID("q0", 0, {2: "1", 3: "1"})]
    for _ in range(3):
        trace.append(step(machine, trace[-1]))
    # Hand-simulated configurations, one per applied rule.
    assert trace[1] == ID("q1", 1, {0: "1", 2: "1", 3: "1"})
    assert trace[2] == ID("q0", 2, {0: "1", 1: "1", 2: "1", 3: "1"})
    assert trace[3] == ID("q1", 3, {0: "1", 1: "1", 2: "1", 3: "1"})
    assert step(machine, trace[3]) is None


def test_step_rejects_foreign_state_and_symbol():
    machine = Machine.from_rules([("q0", BLANK, "q0", "1", "R")], "q0")
    with pytest.raises(MalformedIDError):
        step(machine, ID("nope", 0, {}))
    with pytest.raises(MalformedIDError):
        step(machine, ID("q0", 0, {0: "x"}))


def test_explicit_blanks_are_stripped():
    assert ID("q0", 0, {0: BLANK, 1: "1"}).tape == {1: "1"}


def test_canonicalize_translates_leftmost_written_cell_to_zero():
    assert canonicalize(ID("q0", 5, {5: "1"})) == ID("q0", 0, {0: "1"})


def test_canonicalize_anchors_head_on_blank_tape():
    assert canonicalize(ID("q0", 17, {})) == ID("q0", 0, {})


def test_canonicalize_idempotent_on_random_configurations():
    rng = random.Random(7)
    for _ in range(100):
        desc = random_id(rng)
        once = canonicalize(desc)
        assert canonicalize(once) == once


def test_canonical_forms_equal_iff_translates():
    desc = ID("q0", 1, {0: "1", 2: "0"})
    shifted = ID("q0", 6, {5: "1", 7: "0"})
    other = ID("q0", 2, {0: "1", 2: "0"})
    assert canonicalize(desc) == canonicalize(shifted)
    assert canonicalize(desc) != canonicalize(other)


def test_encode_id_equal_and_distinct():
    a = canonicalize(ID("q0", 0, {0: "1"}))
    b = canonicalize(ID("q0", 0, {0: "1"}))
    c = canonicalize(ID("q1", 0, {0: "1"}))
    assert encode_id(a) == encode_id(b)
    assert encode_id(a) != encode_id(c)


def test_encode_id_injective_on_random_configurations():
    rng = random.Random(13)
    canon = {}
    while len(canon) < 1000:
        desc = canonicalize(random_id(rng))
        canon[canonical_tuple(desc)] = desc
    keys = {encode_id(desc) for desc in canon.values()}
    assert len(keys) == 1000


def test_run_immediate_halt():
    machine = Machine.from_rules([], "q0")
    outcome = run_with_loop_detection(machine, ID("q0", 3, {1: BLANK}), 10)
    assert outcome == Halted(0, ID("q0", 3, {}))


def test_run_detects_rightward_drift():
    machine = Machine.from_rules([("q0", BLANK, "q0", BLANK, "R")], "q0")
    outcome = run_with_loop_detection(machine, ID("q0", 0, {}), 10)
    assert outcome == LoopDetected(1, 1)


def test_run_budget_exceeded_on_growing_tape():
    machine = unary_writer(1000)  # far larger than the budget
    outcome = run_with_loop_detection(machine, ID(machine.start_state, 0, {}), 25)
    assert outcome == BudgetExceeded(25)


def test_run_halts_exactly_at_budget_boundary():
    machine = unary_writer(5)
    start = ID(machine.start_state, 0, {})
    assert run_with_loop_detection(machine, start, 5) == naive_run(machine, start, 5)
    assert isinstance(run_with_loop_detection(machine, start, 5), Halted)
    assert run_with_loop_detection(machine, start, 4) == BudgetExceeded(4)


def test_run_outcomes_are_deterministic():
    machine = two_state_looper()
    start = ID(machine.start_state, 0, {})
    first = run_with_loop_detection(machine, start, 50)
    second = run_with_loop_detection(machine, start, 50)
    assert first == second == LoopDetected(2, 2)


def test_translation_equivariance_on_random_pairs():
    rng = random.Random(29)
    for _ in range(200):
        machine = random_machine(rng)
        desc = random_id(rng)
        direct = step(machine, desc)
        via_canonical = step(machine, canonicalize(desc))
        if direct is None or via_canonical is None:
            assert direct is None and via_canonical is None
        else:
            assert canonicalize(direct) == canonicalize(via_canonical)


def test_visit_observer_sees_canonical_start():
    machine = unary_writer(2)
    visits = []
    run_with_loop_detection(
        machine, ID(machine.start_state, 0, {}), 10, lambda s, d: visits.append((s, d))
    )
    assert visits[0] == (0, ID("w0", 0, {}))
    assert len(visits) == 3  # start plus two writes


MACHINE_TEXT = """\
# toy machine
states: q0 q1
alphabet: _ 1
start: q0
q0 _ -> q1 1 R
q1 1 -> q0 1 L   # never fires from blank tape
"""


def test_parse_machine_text_roundtrip():
    machine = parse_machine_text(MACHINE_TEXT)
    assert machine.start_state == "q0"
    assert machine.states == frozenset({"q0", "q1"})
    assert machine.alphabet == frozenset({BLANK, "1"})
    assert machine.transitions[("q0", BLANK)] == ("q1", "1", Move.RIGHT)


def test_parse_error_reports_line_and_column():
    bad = "states: q0\nalphabet: _\nstart: q0\nq0 _ -> qX _ R\n"
    with pytest.raises(MachineParseError) as info:
        parse_machine_text(bad)
    assert info.value.line == 4
    assert info.value.column == 9


def test_parse_error_on_duplicate_transition():
    bad = "states: q0\nalphabet: _\nstart: q0\nq0 _ -> q0 _ R\nq0 _ -> q0 _ L\n"
    with pytest.raises(MachineParseError) as info:
        parse_machine_text(bad)
    assert info.value.line == 5


def test_parse_error_on_missing_headers():
    with pytest.raises(MachineParseError):
        parse_machine_text("q0 _ -> q0 _ R\n")


def test_machine_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "binary.tm"
    path.write_bytes(b"states: q0\nalphabet: _\n\xff\n")
    with pytest.raises(MachineParseError) as info:
        load_machine_file(path)
    assert info.value.line == 3


def test_load_machine_file(tmp_path):
    path = tmp_path / "toy.tm"
    path.write_text(MACHINE_TEXT, encoding="utf-8")
    machine = load_machine_file(path)
    outcome = run_with_loop_detection(machine, ID("q0", 0, {}), 10)
    assert outcome == Halted(1, ID("q1", 1, {0: "1"}))


def test_concurrent_runs_match_sequential_results():
    # Runs share no mutable state, so thread scheduling cannot change outcomes.
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(71)
    jobs = []
    for _ in range(40):
        machine = random_machine(rng)
        jobs.append((machine, random_id(rng), 60))
    sequential = [run_with_loop_detection(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda job: run_with_loop_detection(*job), jobs))
    assert concurrent == sequential


# --- the incremental runner against plain stepping ------------------------------


def brute_force_run(machine, start, budget):
    """Loop-detected outcome by plain stepping and a list of canonical tuples."""
    seen = [canonical_tuple(start)]
    current = start
    for done in range(budget):
        nxt = step(machine, current)
        if nxt is None:
            return Halted(done, current)
        key = canonical_tuple(nxt)
        if key in seen:
            return LoopDetected(done + 1, done + 1 - seen.index(key))
        seen.append(key)
        current = nxt
    if step(machine, current) is None:
        return Halted(budget, current)
    return BudgetExceeded(budget)


def random_runs(seed, machines=300, starts=4):
    """(machine, start, budget) triples: each random machine from several random starts."""
    rng = random.Random(seed)
    runs = []
    for _ in range(machines):
        machine = random_machine(rng)
        runs += [(machine, random_id(rng), rng.randint(0, 60)) for _ in range(starts)]
    return runs


def naive_as_outcome(machine, start, budget):
    result = naive_outcome(machine, start, budget)
    return Halted(result[1], result[2]) if result[0] == "halt" else BudgetExceeded(budget)


def test_runner_matches_brute_force_on_random_machines():
    verdicts = set()
    for machine, start, budget in random_runs(101):
        outcome = run_with_loop_detection(machine, start, budget)
        assert outcome == brute_force_run(machine, start, budget)
        assert naive_run(machine, start, budget) == naive_as_outcome(machine, start, budget)
        verdicts.add(type(outcome))
    assert verdicts == {Halted, LoopDetected, BudgetExceeded}


def test_run_step_hook_sees_each_configuration_and_reads_cells_in_place():
    rng = random.Random(113)
    runs = random_runs(113, 60)
    runs += [(m, unary_id(m, rng.randint(0, 9)), b) for m, _, b in runs[::4]]
    for machine, start, budget in runs:
        hooked = []

        def on_step(runner):
            desc = runner.snapshot()
            cells = range(runner.head - 6, runner.head + 7)
            assert [runner.symbol_at(c) for c in cells] == [desc.symbol_at(c) for c in cells]
            hooked.append(runner.steps)

        outcome = Runner(machine, start).run(budget, on_step)
        assert outcome == brute_force_run(machine, start, budget)
        last = {Halted: "steps", LoopDetected: "first_repeat_step", BudgetExceeded: "budget"}
        assert hooked == list(range(getattr(outcome, last[type(outcome)]) + 1))


def test_forced_fingerprint_collisions_leave_verdicts_unchanged(monkeypatch):
    runs = random_runs(103)
    before = [run_with_loop_detection(*run) for run in runs]
    corpus_before = verify_corpus()
    monkeypatch.setattr(godelsim.machine, "_FINGERPRINT_MODULUS", 3)
    assert [run_with_loop_detection(*run) for run in runs] == before
    assert verify_corpus() == corpus_before
    assert all(result.passed for result in corpus_before)
    # grow_right never repeats, yet with three fingerprint values almost every step is a hit.
    machine = corpus_machine("grow_right.tm")
    runner = Runner(machine, blank_id(machine))
    assert runner.run(50) == BudgetExceeded(50)
    assert len(runner.exact) >= 3


def test_runner_raises_only_when_a_foreign_symbol_is_read():
    rng = random.Random(107)
    raised = finished = 0
    for machine, start, budget in random_runs(109, 100):
        tape = dict(start.tape)
        tape[rng.randint(-5, 5)] = "x"
        start = ID(start.state, start.head, tape)
        try:
            expected = brute_force_run(machine, start, budget)
        except MalformedIDError:
            raised += 1
            for run in (run_with_loop_detection, naive_run):
                with pytest.raises(MalformedIDError):
                    run(machine, start, budget)
            continue
        finished += 1
        assert run_with_loop_detection(machine, start, budget) == expected
    assert raised and finished


def test_peak_memory_grows_linearly_with_the_budget():
    machine = corpus_machine("grow_right.tm")

    def peak(budget):
        tracemalloc.start()
        try:
            run_with_loop_detection(machine, blank_id(machine), budget)
            naive_run(machine, blank_id(machine), budget)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Linear growth gives a ratio near 2; a copy of the tape per step gives about 4.
    assert peak(2000) < 3 * peak(1000)


# --- unary base tapes against the same tape as a plain dict ---------------------


def plain_copy(desc):
    """The same configuration with its tape as a plain dict."""
    return ID(desc.state, desc.head, dict(desc.tape.items()))


def run_or_error(run, machine, start, budget):
    try:
        return run(machine, start, budget)
    except MalformedIDError as exc:
        return str(exc)


def assert_same_run(run, machine, start, budget):
    """``start`` (a ``Tape``) and its plain copy give the same outcome and final tape."""
    outcome = run_or_error(run, machine, start, budget)
    plain_outcome = run_or_error(run, machine, plain_copy(start), budget)
    assert outcome == plain_outcome
    if isinstance(outcome, Halted):
        final, plain_final = outcome.final_id, plain_outcome.final_id
        assert sorted(final.tape.items()) == sorted(plain_final.tape.items())
        assert repr(final) == repr(plain_final)
        for symbol in ("0", "1", "x", BLANK):
            assert count_symbols(final, symbol) == count_symbols(plain_final, symbol)
            cells = list(final.tape.values())
            assert count_symbols(final, symbol) == cells.count(symbol)
    return outcome


def unary_runs(seed, machines=300):
    """(machine, start, budget) from unary starts of 0-40 cells.

    Some starts have a foreign base symbol, some a head moved off cell 0.
    """
    rng = random.Random(seed)
    runs = []
    for _ in range(machines):
        machine = random_machine(rng)
        start = unary_id(machine, rng.randint(0, 40), rng.choice(("1", "1", "0", "x")))
        if rng.random() < 0.3:
            start = replace(start, head=rng.randint(-3, 43))
        runs.append((machine, start, rng.randint(0, 80)))
    return runs


def check_unary_runs(seed):
    kinds = set()
    for machine, start, budget in unary_runs(seed):
        outcome = assert_same_run(run_with_loop_detection, machine, start, budget)
        kinds.add(type(outcome))
        assert_same_run(naive_run, machine, start, budget)
        if isinstance(outcome, Halted):
            # The final tape, with its writes over the base run, starts a second run.
            second = random_machine(random.Random(budget))
            assert type(outcome.final_id.tape) is Tape
            kinds.add(type(assert_same_run(run_with_loop_detection, second, outcome.final_id, 60)))
            assert_same_run(naive_run, second, outcome.final_id, 60)
    assert {Halted, LoopDetected, BudgetExceeded, str} <= kinds


def test_unary_base_tape_runs_match_plain_dict_tapes():
    check_unary_runs(113)


def test_unary_base_tape_runs_match_plain_dict_tapes_under_forced_collisions(monkeypatch):
    monkeypatch.setattr(godelsim.machine, "_FINGERPRINT_MODULUS", 3)
    check_unary_runs(127)


def test_naive_run_from_unary_tapes_matches_plain_stepping():
    for machine, start, budget in unary_runs(131):
        try:
            expected = naive_as_outcome(machine, start, budget)
        except MalformedIDError:
            with pytest.raises(MalformedIDError):
                naive_run(machine, start, budget)
            continue
        assert naive_run(machine, start, budget) == expected


def test_base_cells_erased_and_rewritten():
    # Erase cell 1 of "111", step left past cell 0, then write 0 over the erased cell.
    machine = Machine.from_rules(
        [
            ("a", "1", "b", "1", "R"),
            ("b", "1", "c", BLANK, "L"),
            ("c", "1", "d", "1", "L"),
            ("d", BLANK, "e", BLANK, "R"),
            ("e", "1", "f", "1", "R"),
            ("f", BLANK, "g", "0", "R"),
        ],
        "a",
        extra_states=("g",),
        extra_symbols=("0",),
    )
    outcome = run_with_loop_detection(machine, unary_id(machine, 3), 20)
    assert outcome == Halted(6, ID("g", 2, {0: "1", 1: "0", 2: "1"}))
    assert repr(outcome.final_id) == "ID(state='g', head=2, tape={0: '1', 1: '0', 2: '1'})"
    assert count_symbols(outcome.final_id) == 2 and count_symbols(outcome.final_id, "0") == 1
    assert unary_id(machine, 4, BLANK).tape == {}


def test_trial_machines_are_built_as_before():
    for value in range(6):
        rules = [(f"w{j}", BLANK, f"w{j + 1}", "1", "R") for j in range(value)]
        assert unary_writer(value) == Machine.from_rules(rules, "w0", extra_states=(f"w{value}",))
    assert two_state_looper() is two_state_looper()


def dovetail_allocation(global_budget):
    """Bytes a grow_right zero-of dovetail allocates, summed over its scheduler events.

    Each event adds the tracemalloc peak above what was live when the
    previous event ended, so a trial whose set-up copies its unary start
    tape adds bytes in proportion to that tape, however soon it is freed.
    """
    machine = corpus_machine("grow_right.tm")
    task = SearchTask(
        0, lambda y: SubRun(machine, unary_id(machine, y)), lambda h: unary_output(h) == 0
    )
    total = live = 0

    def observer(event):
        nonlocal total, live
        total += tracemalloc.get_traced_memory()[1] - live
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        dovetail([task], 1_000_000, global_budget, observer)
    finally:
        tracemalloc.stop()
    return total


def test_dovetail_over_unary_trials_costs_linear_allocation():
    # Trial y starts from y ones and halts at step 0; a set-up in O(y)
    # makes the sum quadratic in the budget (a ratio near 16).
    assert dovetail_allocation(8000) < 5 * dovetail_allocation(2000)


def test_value_machine_realizes_a_value_or_a_divergence():
    assert value_machine(None) is two_state_looper()
    assert run_value(None) == LoopDetected(2, 2)
    # Each budget run_value gives is exact: one step less runs the machine out.
    looper = two_state_looper()
    assert run_with_loop_detection(looper, blank_id(looper), 1) == BudgetExceeded(1)
    for value in range(8):
        machine = value_machine(value)
        assert machine == unary_writer(value)
        assert run_value(value) == value
        if value:
            assert run_with_loop_detection(machine, blank_id(machine), value - 1) == BudgetExceeded(value - 1)
    with pytest.raises(GodelsimError, match="value must be >= 0"):
        run_value(-1)
