"""Machine semantics: stepping, canonical forms, keys, and loop-detected runs."""

import gc
import inspect
import io
import math
import random
import re
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import FrozenInstanceError, replace
from importlib import resources

import pytest

import godelsim.machine
from godelsim import GodelsimError, cli
from godelsim.collapse import evaluate, make_horizon_machine
from godelsim.corpus import corpus_machine, load_manifest, verify_corpus
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
    run_for_ones,
    run_value,
    run_with_loop_detection,
    step,
    two_state_looper,
    unary_id,
    value_start,
)
from godelsim.dovetail import (
    GlobalBudgetExceeded,
    MachineBackedFunction,
    SearchTask,
    SubRun,
    Vacuous,
    VacuousReason,
    dovetail,
    total_mu,
    unary_output,
)
from godelsim.universe import MachineRule, ProviderError

from helpers import canonical_tuple, naive_outcome, random_id, random_machine

# The real fingerprint modulus, 3, under which keys collide often, and the short runs' modulus.
MODULI = [
    pytest.param(godelsim.machine._FINGERPRINT_MODULUS, id="real"),
    pytest.param(3, id="mod3"),
    pytest.param(godelsim.machine._SHORT_RUN_MODULUS, id="short"),
]


def writer_machine(value):
    """A machine that writes ``value`` ones rightward from a blank tape, then halts."""
    rules = [(f"w{j}", BLANK, f"w{j + 1}", "1", "R") for j in range(value)]
    return Machine.from_rules(rules, "w0", extra_states=(f"w{value}",))


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
    # A plain mapping becomes the writes of a tape with no base run.
    desc = ID("a", 0, {2: "x", 0: BLANK, -1: "y"})
    assert type(desc.tape) is Tape and desc.tape.n == 0
    assert desc.tape == {2: "x", -1: "y"} and {2: "x", -1: "y"} == desc.tape
    assert desc == ID("a", 0, Tape(0, BLANK, {2: "x", -1: "y"}))
    assert repr(desc) == "ID(state='a', head=0, tape={-1: 'y', 2: 'x'})"


def test_an_id_from_a_mapping_reads_whole_without_copying_its_cells(monkeypatch):
    calls = 0
    plain_cells = godelsim.machine._plain_cells

    def counted(*args):
        nonlocal calls
        calls += 1
        return plain_cells(*args)

    monkeypatch.setattr(godelsim.machine, "_plain_cells", counted)
    tape = ID("a", 0, {2: "x", 0: BLANK, -1: "y"}).tape
    assert len(tape) == 2 and tape == {2: "x", -1: "y"} and sorted(tape.items()) == [(-1, "y"), (2, "x")]
    assert calls == 0
    # A tape over a base run builds its cells once.
    tape = value_start(3)[1].tape
    assert len(tape) == 3 and tape == {0: "1", 1: "1", 2: "1"} and calls == 1


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
    machine = writer_machine(1000)  # far larger than the budget
    outcome = run_with_loop_detection(machine, ID(machine.start_state, 0, {}), 25)
    assert outcome == BudgetExceeded(25)


def test_run_halts_exactly_at_budget_boundary():
    machine = writer_machine(5)
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


def reference_parse(text):
    """The machine, or the (line, column, message) of its error, with every token's column found by a regex."""
    states = alphabet = start = None
    transitions = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        header = re.match(r"^(states|alphabet|start)\s*:\s*(.*)$", line.strip())
        if not line.strip() or header:
            rest = header.group(2).split() if header else None
            if header and header.group(1) == "start":
                if len(rest) != 1:
                    return lineno, 1, "start takes exactly one state"
                start = rest[0]
            elif header:
                states, alphabet = (rest, alphabet) if header.group(1) == "states" else (states, rest)
            continue
        if states is None or alphabet is None or start is None:
            return lineno, 1, "transition before states:/alphabet:/start: headers"
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if len(tokens) != 6 or tokens[2][0] != "->":
            return lineno, tokens[0][1], "expected 'state symbol -> state symbol L|R'"
        for (token, column), names, what in zip(
            (tokens[0], tokens[3], tokens[1], tokens[4]), (states, states, alphabet, alphabet), "SSYY"
        ):
            if token not in names:
                return lineno, column, f"unknown {'state' if what == 'S' else 'symbol'} {token!r}"
        if tokens[5][0] not in ("L", "R"):
            return lineno, tokens[5][1], "move must be L or R"
        key = (tokens[0][0], tokens[1][0])
        if key in transitions:
            return lineno, tokens[0][1], f"duplicate transition for {key!r}"
        transitions[key] = (tokens[3][0], tokens[4][0], Move(tokens[5][0]))
    if states is None or alphabet is None or start is None:
        return 1, 1, "missing states:/alphabet:/start: header"
    if start not in states:
        return 1, 1, f"start state {start!r} not declared"
    return Machine(frozenset(states), frozenset({BLANK, *alphabet}), transitions, start)


def test_parse_matches_a_regex_tokenizer_on_random_texts():
    rng = random.Random(211)
    spaces = [" ", "  ", "\t", "\x1f", "\xa0", "\u3000"]
    words = ["a", "b", "q0", "_", "1", "x", "->", "L", "R", "l", "-", "#", "é"]
    kinds = set()
    for _ in range(3000):
        lines = []
        if rng.random() < 0.9:
            lines += [f"states: a b{rng.choice(['', ' q0'])}", "alphabet: _ 1", f"start: {rng.choice(['a', 'q0', 'a b'])}"]
            rng.shuffle(lines)
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.6:
                tokens = [rng.choice("ab"), rng.choice("_1"), "->", rng.choice("ab"), rng.choice("_1"), rng.choice("LR")]
                if rng.random() < 0.3:
                    tokens[rng.randrange(6)] = rng.choice(words)
            else:
                tokens = [rng.choice(words) for _ in range(rng.randint(0, 8))]
            line = rng.choice(["", *spaces]) + "".join(t + rng.choice(spaces) for t in tokens)
            lines.append(line + rng.choice(["", "", "# note", "#"]))
        text = "\n".join(lines)
        expected = reference_parse(text)
        try:
            got = parse_machine_text(text)
        except MachineParseError as exc:
            got = (exc.line, exc.column, str(exc).split(": ", 1)[1])
        assert got == expected, text
        kinds.add(expected[2].split()[0] if isinstance(expected, tuple) else "machine")
    assert len(kinds) == 8, kinds


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
    probes = set()
    for machine, start, budget in random_runs(109, 100):
        tape = dict(start.tape)
        tape[rng.randint(-5, 5)] = "x"
        start = ID(start.state, start.head, tape)
        # _steps(0) takes no step: it tells whether the start halts, and
        # raises if it halts on the foreign symbol.
        runner = Runner(machine, start)
        try:
            halts = step(machine, start) is None
        except MalformedIDError:
            with pytest.raises(MalformedIDError):
                runner._steps(0)
            probes.add("raised")
        else:
            assert runner._steps(0) is (godelsim.machine._HALTS if halts else None)
            probes.add(halts)
        assert runner.steps == 0
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
    assert probes == {True, False, "raised"}


def test_a_start_state_the_machine_lacks_raises_at_the_first_step():
    machine = Machine.from_rules([("a", BLANK, "a", "1", "R")], "a")
    start = ID("nope", 0, {})
    assert Runner(machine, start).state == "nope"
    task = SearchTask(0, lambda y: SubRun(machine, start), lambda h: True)
    attempts = [
        lambda: Runner(machine, start).run(0),
        lambda: Runner(machine, start).run(3),
        lambda: naive_run(machine, start, 3),
        lambda: dovetail([task], 10, 10),
    ]
    for attempt in attempts:
        with pytest.raises(MalformedIDError) as raised:
            attempt()
        assert str(raised.value) == "state 'nope' not in machine states"


def test_a_foreign_tape_symbol_gets_a_code_past_the_alphabet_with_no_rule():
    machine = Machine.from_rules([("a", "1", "a", "1", "R")], "a")
    for start in (ID("a", 0, {0: "x"}), ID("a", 0, Tape(3, "x", {})), ID("nope", 0, {0: "x"})):
        runner = Runner(machine, start)
        code = runner.tape.get(0, runner.base_code)
        assert runner.symbol_at(0) == "x" and code >= len(machine.symbol_names)
        assert runner.table[runner.row + code] is None
    runner = Runner(machine, ID("a", 0, {0: "x"}))
    with pytest.raises(MalformedIDError, match="symbol 'x' not in machine alphabet"):
        runner.run(5)
    assert machine.symbol_names == [BLANK, "1"]


def advance_loop(runner, budget):
    """``runner.run(budget)`` taken one ``_advance`` call a step, each outcome built as ``run`` builds it."""
    for _ in range(budget):
        outcome = runner._built(runner._advance())
        if outcome is not None:
            return outcome
    return runner._built(runner._steps(0)) or BudgetExceeded(budget)


def settle(runner, run, budget):
    """What ``run(runner, budget)`` returns (or the error it raises) and the run it leaves."""
    try:
        outcome = run(runner, budget)
    except MalformedIDError as exc:
        outcome = str(exc)
    after = runner.snapshot()
    return outcome, runner.steps, after, dict(after.tape.writes), runner.state


@pytest.mark.parametrize("modulus", MODULI)
def test_batched_run_matches_a_loop_of_single_steps(monkeypatch, modulus):
    monkeypatch.setattr(godelsim.machine, "_FINGERPRINT_MODULUS", modulus)
    kinds, resumed = set(), 0
    for machine, start, budget in unary_runs(139, 200):
        for begin in (start, plain_copy(start)):
            for detect in (True, False):
                batched = Runner(machine, begin, detect)
                result = settle(batched, Runner.run, budget)
                assert result == settle(Runner(machine, begin, detect), advance_loop, budget)
                kinds.add(type(result[0]))
                # A key hit that proved false in the middle of the batch, after which it went on.
                resumed += detect and bool(batched.exact) and not isinstance(result[0], LoopDetected)
    assert {Halted, LoopDetected, BudgetExceeded, str} <= kinds
    assert resumed if modulus == 3 else not resumed


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


def test_a_run_keeps_only_the_cells_it_writes():
    # Reading a base cell and writing back what it holds leaves no trace.
    machine = Machine.from_rules([("a", "1", "a", "1", "R")], "a")
    for run in (run_with_loop_detection, naive_run):
        outcome = run(machine, unary_id(machine, 50), 100)
        assert outcome.steps == 50
        assert outcome.final_id.tape.writes == {}
        assert count_symbols(outcome.final_id) == 50
    # Erasing every other cell keeps just those cells, blanks included.
    machine = Machine.from_rules([("a", "1", "b", BLANK, "R"), ("b", "1", "a", "1", "R")], "a")
    outcome = run_with_loop_detection(machine, unary_id(machine, 50), 100)
    assert outcome.final_id.tape.writes == dict.fromkeys(range(0, 50, 2), BLANK)
    assert count_symbols(outcome.final_id) == 25


@pytest.mark.parametrize("modulus", MODULI)
def test_start_fingerprint_matches_a_brute_force_sum(monkeypatch, modulus):
    # At modulus 3 the base r is 1, so the base run sums to codes[symbol] * n.
    monkeypatch.setattr(godelsim.machine, "_FINGERPRINT_MODULUS", modulus)
    machine = Machine.from_rules([], "a", extra_symbols=("0", "1", "x"))
    codes = machine.codes
    r = godelsim.machine._FINGERPRINT_BASE % modulus
    rng = random.Random(137)
    for _ in range(2000):
        n, symbol = rng.randint(0, 40), rng.choice(("1", "0", "x"))
        writes = {
            rng.randint(-10, 50): rng.choice(("1", "0", "x", BLANK))
            for _ in range(rng.choice((0, 0, 1, 3, 10)))
        }
        head = rng.randint(-60, 100)
        cells = {**dict.fromkeys(range(n), symbol), **writes}
        expected = sum(codes[sym] * pow(r, cell - head, modulus) for cell, sym in cells.items())
        expected %= modulus
        tape = Tape(n, symbol, dict(writes))
        fp = godelsim.machine._start_fingerprint(n, symbol, writes, head, codes, modulus)
        assert fp == expected
        assert Runner(machine, ID("a", head, tape)).fp == expected
        assert Runner(machine, ID("a", head, cells)).fp == expected


def is_prime(n):
    """Deterministic Miller–Rabin: the first 13 primes as bases decide every n below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_fingerprint_modulus_is_a_prime_below_2_60_with_a_primitive_root_base():
    p, r = godelsim.machine._FINGERPRINT_MODULUS, godelsim.machine._FINGERPRINT_BASE
    # Below 2**60 a fingerprint is at most two 30-bit digits of a CPython int.
    assert p < 1 << 60 and is_prime(p)
    factors = [2, 3, 31, 375983, 16486124939]
    assert math.prod(factors) == p - 1 and all(is_prime(q) for q in factors)
    # r has order p - 1: no power (p - 1)/q of it is 1.
    assert all(pow(r, (p - 1) // q, p) != 1 for q in factors)
    assert is_prime((1 << 61) - 1) and not is_prime((1 << 61) + 1) and not is_prime(1 << 59)


def test_short_run_modulus_is_a_prime_below_2_29_with_a_primitive_root_base():
    p, r = godelsim.machine._SHORT_RUN_MODULUS, godelsim.machine._FINGERPRINT_BASE
    assert p < 1 << 29 and is_prime(p)
    factors = [2, 2, 7, 73, 262657]
    assert math.prod(factors) == p - 1 and all(is_prime(q) for q in factors)
    # r has order p - 1: no power (p - 1)/q of it is 1.
    assert all(pow(r, (p - 1) // q, p) != 1 for q in factors)
    # fp < p, so a key fp + row stays one 30-bit digit on every corpus machine.
    rows = [max(corpus_machine(entry.name).rows.values()) for entry in load_manifest()]
    assert p + max(rows) < 1 << 30


def test_each_run_takes_the_key_its_bound_allows(monkeypatch):
    mods = []
    init = Runner.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.seen is not None:
            mods.append(self.mod)

    def mods_of(call):
        mods.clear()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            call()
        return set(mods)

    monkeypatch.setattr(Runner, "__init__", recording_init)
    counter, looper = corpus_machine("counter.tm"), two_state_looper()
    pingpong = str(resources.files("godelsim").joinpath("data/corpus/pingpong.tm"))
    tasks = [SearchTask(0, lambda y: SubRun(looper, blank_id(looper)) if y < 3 else None, lambda h: True)]
    short_runs = [
        lambda: run_with_loop_detection(counter, blank_id(counter), 4096),
        lambda: run_for_ones(counter, blank_id(counter), 100),
        lambda: cli.main(["run", pingpong, "--budget", "300"]),
        lambda: run_value(None),
        lambda: dovetail(tasks, 64, 10_000),
    ]
    long_runs = [
        lambda: run_with_loop_detection(counter, blank_id(counter), 4097),
        lambda: cli.main(["run", pingpong]),
        lambda: dovetail(tasks, 10**6, 10**6),
        lambda: Runner(counter, blank_id(counter)),
    ]
    short, wide = godelsim.machine._SHORT_RUN_MODULUS, godelsim.machine._FINGERPRINT_MODULUS
    assert [mods_of(run) for run in short_runs] == [{short}] * 5
    assert [mods_of(run) for run in long_runs] == [{wide}] * 4
    # A smaller modulus stands whatever the bound.
    monkeypatch.setattr(godelsim.machine, "_FINGERPRINT_MODULUS", 3)
    assert [mods_of(run) for run in short_runs + long_runs] == [{3}] * 9


def test_equal_keys_from_different_states_are_decided_exactly(monkeypatch):
    # The key fp + row is not one-to-one in (fp, row).  Under small moduli
    # configurations in different states share keys, the key of a blank start
    # in a state past the first row among them.
    key_of, confirm = Runner._canonical_key, Runner._confirm
    built = 0

    def counted_key(runner, at_start=False):
        nonlocal built
        built += 1
        return key_of(runner, at_start)

    hits = {}  # (blank start, hit on the start's key) -> first hits on a key from another state

    def checked(runner, key, first):
        nonlocal built
        earlier = naive_outcome(runner.machine, runner.start, first)[-1]
        if key in runner.exact or earlier.state == runner.state:
            return confirm(runner, key, first)
        built = 0
        outcome = confirm(runner, key, first)
        # Configurations in different states differ: the run keys refuse the hit, and the
        # blank-start shortcut, which builds none, does not take it.
        assert outcome is None and built == 2 and key in runner.exact
        blank = not runner.start.tape
        hits[blank, not first] = hits.get((blank, not first), 0) + 1
        return outcome

    monkeypatch.setattr(Runner, "_canonical_key", counted_key)
    monkeypatch.setattr(Runner, "_confirm", checked)
    rng = random.Random(191)
    for modulus in (5, 7, 101):
        monkeypatch.setattr(godelsim.machine, "_FINGERPRINT_MODULUS", modulus)
        for _ in range(150):
            machine = random_machine(rng)
            for start in (ID(rng.choice(("b", "c")), 0, {}), random_id(rng)):
                budget = rng.randint(0, 40)
                assert run_with_loop_detection(machine, start, budget) == brute_force_run(machine, start, budget)
    assert len(hits) == 4 and min(hits.values()) >= 10, hits


def decoded_rules(machine):
    """The rules of ``machine``'s compiled table, decoded back to strings."""
    width, states, symbols = len(machine.symbol_names), machine.state_names, machine.symbol_names
    rules = {}
    for index, rule in enumerate(machine.table):
        if rule is not None:
            nrow, ncode, move = rule
            rules[states[index // width], symbols[index % width]] = (
                states[nrow // width], symbols[ncode], Move.RIGHT if move == 1 else Move.LEFT
            )
    return rules


def test_compiled_tables_decode_to_the_rules():
    rng = random.Random(149)
    machines = [writer_machine(value) for value in range(8)] + [two_state_looper()]
    machines += [random_machine(rng) for _ in range(50)]
    for machine in machines:
        width = len(machine.alphabet)
        assert decoded_rules(machine) == machine.transitions
        assert machine.symbol_names[0] == BLANK and set(machine.symbol_names) == machine.alphabet
        assert set(machine.state_names) == machine.states
        assert machine.rows == {state: i * width for i, state in enumerate(machine.state_names)}
        assert machine.codes == {sym: code for code, sym in enumerate(machine.symbol_names)}
        assert len(machine.table) == len(machine.states) * width


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
    looper = two_state_looper()
    assert value_start(None) == (looper, blank_id(looper)) and value_start(None)[0] is looper
    assert run_value(None) == LoopDetected(2, 2)
    # Each budget run_value gives is exact: one step less runs the machine out.
    assert run_with_loop_detection(looper, blank_id(looper), 1) == BudgetExceeded(1)
    reader = Machine.from_rules([("r", "1", "r", "1", "R")], "r")
    for value in range(8):
        machine, start = value_start(value)
        assert (machine, start) == (reader, unary_id(reader, value))
        assert run_value(value) == value
        # The reader takes exactly the steps and leaves exactly the ones of a writer from blank.
        writer = writer_machine(value)
        halted = run_with_loop_detection(machine, start, value)
        assert halted.steps == naive_run(writer, blank_id(writer), value).steps == value
        assert count_symbols(halted.final_id) == value
        if value:
            assert run_with_loop_detection(machine, start, value - 1) == BudgetExceeded(value - 1)
    with pytest.raises(GodelsimError, match="value must be >= 0"):
        run_value(-1)


def test_a_divergence_runs_from_one_shared_start_in_two_steps():
    machine, start = value_start(None)
    assert value_start(None)[1] is start and start == blank_id(machine)
    for _ in range(3):
        assert run_value(None) == LoopDetected(2, 2) == run_for_ones(machine, start, 2)
    assert start.tape == {}  # no run writes to the start it shares
    # Past its horizon a horizon machine runs the looper, and so does a diverging trial.
    hm = make_horizon_machine("parity", 3)
    assert [evaluate(hm, n) for n in range(5)] == [0, 1, 0, LoopDetected(2, 2), LoopDetected(2, 2)]
    g = MachineBackedFunction(lambda x, y: x + y + 1, frozenset({(1, 2)}))
    assert total_mu(g, (1,), 5) == Vacuous(VacuousReason.LOOP_DETECTED)
    assert total_mu(g, (1,), 2) == Vacuous(VacuousReason.BUDGET_EXCEEDED)


def test_run_value_of_a_million_holds_no_memory():
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert run_value(10**6) == 10**6
        peak = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # A writer built for the value peaked at 132.7 MB at 200 000 and kept half of it.
    # What is left is the int ``before`` itself, allocated while tracing.
    assert peak < 100_000 and retained < 100, (peak, retained)


# --- run keys: the exact check at the cost of the writes --------------------------


def random_cells(rng, symbols, lo, hi):
    """About a third of the cells lo..hi, each holding a symbol drawn from ``symbols``."""
    return {cell: rng.choice(symbols) for cell in range(lo, hi + 1) if rng.random() < 0.35}


def configuration_pair(rng):
    """A start and a second configuration over the same base run, as the start's runner.

    The start is a ``Tape`` or a plain dict, with blanks written over the
    base, writes outside it, foreign symbols and sometimes a foreign state.
    The second is a shifted copy of the start, a copy with one cell
    changed, an empty tape or anything at all, written into the runner as
    a run would leave it: a write wherever it differs from the base run.
    """
    n = rng.choice((0, 0, rng.randint(1, 12)))
    writes = random_cells(rng, (BLANK, "0", "1", "x", "y"), -4, n + 4) if rng.random() < 0.8 else {}
    state = rng.choice(("a", "b", "nope"))
    head = rng.randint(-6, n + 6)
    if rng.random() < 0.3:
        start = ID(state, head, {cell: sym for cell, sym in writes.items() if sym != BLANK})
    else:
        start = ID(state, head, Tape(n, rng.choice(("1", "1", "0", "x")), writes))
    machine = Machine.from_rules([("a", "1", "b", "0", "R"), ("b", BLANK, "a", "1", "L")], "a")
    runner = Runner(machine, start)
    names = runner.compiled.symbol_names
    kind = rng.choice(("shift", "shift", "change", "empty", "any"))
    shift = rng.randint(-8, 8)
    state, head, cells = start.state, start.head + shift, {c + shift: s for c, s in start.tape.items()}
    if kind == "change":
        cells[rng.randint(min(cells, default=0) - 1, max(cells, default=0) + 1)] = rng.choice(names)
    elif kind == "empty":
        head, cells = rng.randint(-6, 6), {}
    elif kind == "any":
        head, cells = rng.randint(-6, n + 6), random_cells(rng, names, -4, n + 4)
    if rng.random() < 0.2:
        state = rng.choice(runner.compiled.state_names)
    codes, n, symbol = runner.compiled.codes, runner.base_len, runner.base_symbol
    runner.row, runner.head = runner.compiled.rows[state], head
    runner.tape = {cell: codes[cells.get(cell, BLANK)] for cell in range(n) if cells.get(cell) != symbol}
    runner.tape.update((cell, codes[sym]) for cell, sym in cells.items() if not 0 <= cell < n)
    return start, runner, kind


def test_run_keys_are_equal_exactly_when_encoded_canonical_forms_are():
    rng = random.Random(173)
    counts = {}
    for _ in range(6000):
        start, runner, kind = configuration_pair(rng)
        at_start = Runner(runner.machine, start)
        assert at_start._canonical_key() == at_start._canonical_key(at_start=True)
        same = runner._canonical_key() == runner._canonical_key(at_start=True)
        assert same == (encode_id(canonicalize(start)) == encode_id(canonicalize(runner.snapshot())))
        counts[kind, same] = counts.get((kind, same), 0) + 1
    # Each kind of pair gave both answers; shifted copies were mostly equal.
    assert len(counts) == 8 and min(counts.values()) >= 10
    assert counts["shift", True] > 1000


def test_a_hit_on_the_start_is_confirmed_without_a_replay(monkeypatch):
    built = 0
    init = Runner.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Runner, "__init__", counting_init)
    looper = two_state_looper()
    tasks = [
        SearchTask(i, lambda y, i=i: SubRun(looper, blank_id(looper)) if y < 5 + i else None, lambda h: True)
        for i in range(3)
    ]
    outcome = dovetail(tasks, 8, 1000)
    assert [status.loops_detected for status in outcome.statuses] == [5, 6, 7]
    assert built == 18
    built = 0
    assert run_value(None) == LoopDetected(2, 2) and built == 1


def test_a_reader_on_a_million_ones_confirms_in_constant_memory():
    reader = Machine.from_rules([("a", "1", "b", "1", "R"), ("b", "1", "a", "1", "L")], "a")
    tracemalloc.start()
    try:
        outcome = run_with_loop_detection(reader, unary_id(reader, 10**6), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Materializing the base run for the exact check peaked at 274 MB.
    assert outcome == LoopDetected(2, 2) and peak < 1_000_000


# --- the lean verdict path: ones and verdicts read off the runner --------------------


def first_event(machine, start, limit):
    """The first halt, loop or foreign read within ``limit`` steps, by plain stepping: (step, outcome).

    The outcome is the ones left on a halted tape, ``LoopDetected`` or the
    ``MalformedIDError`` text; None when ``limit`` steps pass without one.
    """
    seen = [canonical_tuple(start)]
    current = start
    for done in range(limit + 1):
        try:
            nxt = step(machine, current)
        except MalformedIDError as exc:
            return done, f"MalformedIDError: {exc}"
        if nxt is None:
            return done, sum(sym == "1" for sym in current.tape.values())
        if done == limit:
            break
        key = canonical_tuple(nxt)
        if key in seen:
            return done + 1, LoopDetected(done + 1, done + 1 - seen.index(key))
        seen.append(key)
        current = nxt
    return None


def expected_at(event, budget):
    """What a loop-detected run for ones gives at ``budget``, from its ``first_event``."""
    return event[1] if event is not None and event[0] <= budget else BudgetExceeded(budget)


def outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except (MalformedIDError, ProviderError) as exc:
        return f"{type(exc).__name__}: {exc}"


def lean_cases(seed, count):
    """(machine, start) from blank, unary and ``cells:`` starts, some with a foreign state or symbol."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        machine = random_machine(rng)
        kind = rng.choice(("blank", "unary", "cells"))
        if kind == "blank":
            start = blank_id(machine)
        elif kind == "unary":
            start = unary_id(machine, rng.randint(0, 12), rng.choice(("1", "1", "0", "x")))
        else:
            start = random_id(rng)
            if rng.random() < 0.3:
                start = ID(start.state, start.head, {**start.tape, rng.randint(-3, 3): "x"})
        if rng.random() < 0.1:
            start = replace(start, state="nope")
        cases.append((machine, start))
    return cases


@pytest.mark.parametrize("modulus", MODULI)
def test_lean_verdicts_match_plain_stepping(monkeypatch, modulus):
    monkeypatch.setattr(godelsim.machine, "_FINGERPRINT_MODULUS", modulus)
    kinds = set()
    for machine, start in lean_cases(151, 150):
        event = first_event(machine, start, 60)
        for budget in range(61):
            expected = expected_at(event, budget)
            assert outcome_or_error(run_for_ones, machine, start, budget) == expected
            kinds.add(type(expected))
        runner = Runner(machine, start)
        outcome_or_error(runner.run, 60)
        for symbol in ("0", "1", "x", BLANK):
            assert runner.count(symbol) == count_symbols(runner.snapshot(), symbol)
    assert kinds == {int, LoopDetected, BudgetExceeded, str}
    # A uniform machine rule on t ones, at every budget.
    rng = random.Random(157)
    for _ in range(40):
        machine = random_machine(rng)
        for t in range(8):
            event = first_event(machine, unary_id(machine, t), 60)
            for budget in range(0, 61, 4):
                expected = expected_at(event, budget)
                if isinstance(expected, LoopDetected):
                    expected = f"ProviderError: machine rule looped at t={t}; uniform rules must terminate"
                elif isinstance(expected, BudgetExceeded):
                    expected = f"ProviderError: machine rule ran out of budget at t={t}; uniform rules must terminate"
                assert outcome_or_error(MachineRule(machine, budget).value_at, t) == expected
    # Values, and horizon machines over them, against the run value_start gives.
    values = [None, *range(201)]
    for value in values:
        machine, start = value_start(value)
        expected = expected_at(first_event(machine, start, 2 if value is None else value), 10**9)
        assert expected == (LoopDetected(2, 2) if value is None else value)
        assert run_value(value) == expected
    hm = make_horizon_machine(lambda n: values[n + 1], 150)
    assert [evaluate(hm, n) for n in range(160)] == [*range(150), *[LoopDetected(2, 2)] * 10]


def test_short_runs_build_only_what_their_callers_read(monkeypatch):
    counts = dict.fromkeys(("Halted", "ID", "snapshot", "Runner"), 0)

    def counting(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(Halted, "__init__", "Halted")
    counting(ID, "__init__", "ID")
    counting(Runner, "snapshot", "snapshot")
    counting(Runner, "__init__", "Runner")
    # Each value builds its start and its runner, and reads the ones off the runner.
    assert [run_value(value) for value in range(30)] == list(range(30))
    assert counts == {"Halted": 0, "ID": 30, "snapshot": 0, "Runner": 30}
    reader = Machine.from_rules([("r", "1", "r", "1", "R")], "r")
    assert run_for_ones(reader, unary_id(reader, 7), 10) == 7
    assert counts == {"Halted": 0, "ID": 31, "snapshot": 0, "Runner": 31}

    # A looper dovetail: one runner per trial, and no generator per sweep.
    looper = two_state_looper()
    trials = []
    tasks = [
        SearchTask(i, lambda y: trials.append(y) or SubRun(looper, blank_id(looper)), lambda h: True)
        for i in range(2)
    ]
    # The frames of the generators that dovetail.py runs: a generator keeps one frame for its life.
    frames, dovetail_file = set(), dovetail.__code__.co_filename

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_flags & inspect.CO_GENERATOR and code.co_filename == dovetail_file:
            frames.add(frame)

    counts["Runner"] = 0
    sys.setprofile(profile)
    try:
        outcome = dovetail(tasks, 64, 1000)
    finally:
        sys.setprofile(None)
    assert outcome == GlobalBudgetExceeded(1000)
    # 1000 global steps are 500 trials of two steps each, in about as many
    # sweeps; the trial admitted in the last one is cut before its first step.
    assert counts["Runner"] == len(trials) == 501
    assert len(frames) == 1  # diagonal_pairs, resumed once a sweep


# --- loop verdicts built only where read, blank-start hits decided without keys ------


def blank_writes(rng):
    """Blanks written over a few cells, as a run that erased every cell it wrote leaves them."""
    return {cell: BLANK for cell in range(rng.randint(-4, 0), rng.randint(0, 5)) if rng.random() < 0.6}


def step_zero_starts(rng, machine):
    """Starts with no non-blank cell, plain-dict ``cells:`` starts, unary starts (one erased) and foreign symbols.

    Each random start also gives a start on its loop, if it has one: the
    configuration a period before the first repeat, as a plain dict, with a
    foreign symbol beyond the head's reach and as the writes of a ``Tape``.
    A run from it loops back to its start.
    """
    head = rng.randint(-3, 3)
    cells = random_id(rng).tape
    starts = [
        blank_id(machine),
        unary_id(machine, 0),
        ID("a", head, Tape(0, rng.choice(("1", "0", "x")), blank_writes(rng))),
        ID("a", head, Tape(0, BLANK, {})),
        ID("a", head, {head: rng.choice(("0", "1"))}),
        # Codes 1 + 2 and r = 1 mod 3: under modulus 3 this start keys like a blank tape.
        ID("a", head, {head: "0", head + 1: "1"}),
        unary_id(machine, rng.randint(1, 6)),
        ID("a", head, Tape(3, "1", {0: BLANK, 1: BLANK, 2: BLANK})),
        ID(rng.choice(("a", "b", "c")), head, cells),
        ID("a", head, {**cells, rng.randint(-3, 3): "x"}),
        ID("a", head, Tape(0, "1", {**blank_writes(rng), rng.randint(-3, 3): "x"})),
    ]
    for start in list(starts):
        outcome = outcome_or_error(brute_force_run, machine, start, 40)
        if isinstance(outcome, LoopDetected):
            on_loop = naive_outcome(machine, start, outcome.first_repeat_step - outcome.period)[1]
            far = on_loop.head + rng.choice((-1, 1)) * 60
            starts += [
                on_loop,
                ID(on_loop.state, on_loop.head, {**on_loop.tape, far: "x"}),
                ID(on_loop.state, on_loop.head, Tape(0, "1", {**blank_writes(rng), **on_loop.tape})),
            ]
    return starts


def naive_checked(outcome, machine, start, budget):
    """Assert that ``outcome`` is the verdict that plain stepping (``naive_outcome``) gives."""
    if isinstance(outcome, str):
        with pytest.raises(MalformedIDError) as raised:
            naive_outcome(machine, start, budget)
        assert f"MalformedIDError: {raised.value}" == outcome
        return
    assert outcome == brute_force_run(machine, start, budget)
    if isinstance(outcome, Halted):
        assert Halted(*naive_outcome(machine, start, outcome.steps)[1:]) == outcome
    elif isinstance(outcome, LoopDetected):
        later = naive_outcome(machine, start, outcome.first_repeat_step)
        earlier = naive_outcome(machine, start, outcome.first_repeat_step - outcome.period)
        assert later[0] == earlier[0] == "running"
        assert canonicalize(later[1]) == canonicalize(earlier[1])
    else:
        assert naive_outcome(machine, start, budget)[0] == "running"


@pytest.mark.parametrize("modulus", MODULI)
def test_step_zero_decisions_match_run_keys(monkeypatch, modulus):
    monkeypatch.setattr(godelsim.machine, "_FINGERPRINT_MODULUS", modulus)
    key_of, confirm = Runner._canonical_key, Runner._confirm
    built = 0

    def counted_key(runner, at_start=False):
        nonlocal built
        built += 1
        return key_of(runner, at_start)

    decisions = {}

    def checked(runner, key, first):
        nonlocal built
        if first or key in runner.exact:
            return confirm(runner, key, first)
        # The first hit on the start's key: decided as the run keys decide it.
        same = key_of(runner) == key_of(runner, at_start=True)
        built = 0
        outcome = confirm(runner, key, first)
        assert (outcome is godelsim.machine._LOOPS) == same
        blank = not runner.base_len and not any(runner.start.tape.values())
        # Only a start with no base run and no non-blank cell skips the keys, and only when the hit matches it.
        assert built == (0 if blank and same else 2)
        assert (key in runner.exact) == (not same)
        decisions[blank, same] = decisions.get((blank, same), 0) + 1
        return outcome

    monkeypatch.setattr(Runner, "_canonical_key", counted_key)
    monkeypatch.setattr(Runner, "_confirm", checked)
    rng = random.Random(181)
    kinds = set()
    for _ in range(250):
        machine = random_machine(rng)
        for start in step_zero_starts(rng, machine):
            budget = rng.randint(0, 40)
            outcome = outcome_or_error(run_with_loop_detection, machine, start, budget)
            naive_checked(outcome, machine, start, budget)
            kinds.add(type(outcome))
    assert kinds == {Halted, LoopDetected, BudgetExceeded, str}
    assert min(decisions.get((blank, True), 0) for blank in (True, False)) >= 10
    # Three fingerprint values make hits on the start's key that the tape check rejects.
    if modulus == 3:
        assert min(decisions.get((blank, False), 0) for blank in (True, False)) >= 100


def test_loop_verdicts_are_built_only_where_a_caller_reads_them(monkeypatch):
    built = []
    init = LoopDetected.__init__

    def recorded_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    keys = 0
    key_of = Runner._canonical_key

    def counted_key(runner, at_start=False):
        nonlocal keys
        keys += 1
        return key_of(runner, at_start)

    monkeypatch.setattr(LoopDetected, "__init__", recorded_init)
    monkeypatch.setattr(Runner, "_canonical_key", counted_key)
    # A looper dovetail counts each loop and builds no verdict and no run key.
    looper = two_state_looper()
    tasks = [SearchTask(i, lambda y: SubRun(looper, blank_id(looper)), lambda h: True) for i in range(2)]
    outcome = dovetail(tasks, 64, 1000)
    assert outcome == GlobalBudgetExceeded(1000)
    assert built == [] and keys == 0
    # The callers that return or read a loop build one LoopDetected(2, 2) each.
    g = MachineBackedFunction(lambda x, y: x + y + 1, frozenset({(0, 0)}))
    calls = [
        (lambda: run_value(None), LoopDetected(2, 2)),
        (lambda: evaluate(make_horizon_machine(lambda n: n, 3), 5), LoopDetected(2, 2)),
        (lambda: total_mu(g, (0,), 5), Vacuous(VacuousReason.LOOP_DETECTED)),
    ]
    for call, expected in calls:
        built.clear()
        assert call() == expected
        assert len(built) == 1
        verdict, fresh = built[0], LoopDetected(2, 2)
        assert verdict == fresh and hash(verdict) == hash(fresh) and repr(verdict) == repr(fresh)
        with pytest.raises(FrozenInstanceError):
            verdict.period = 3
    assert keys == 0
    with pytest.raises(GodelsimError):
        LoopDetected(1, 2)
