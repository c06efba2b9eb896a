"""Diagonal scheduling, machine-backed evaluation, and total least-zero search."""

import random
import tracemalloc
from collections import Counter

import pytest

from godelsim.dovetail import (
    ACCEPT,
    AllExhausted,
    Defined,
    FirstSuccess,
    GlobalBudgetExceeded,
    MachineBackedFunction,
    SchedulerEvent,
    SearchTask,
    SubRun,
    Vacuous,
    VacuousReason,
    diagonal_pairs,
    dovetail,
    make_t1,
    make_t2,
    total_mu,
    unary_output,
)
from godelsim.machine import (
    LoopDetected,
    Machine,
    blank_id,
    run_with_loop_detection,
    two_state_looper,
    unary_id,
)

from helpers import (
    brute_least_zero,
    random_id,
    random_machine,
    rank_to_pair,
    reference_dovetail,
)
from test_machine import writer_machine


def fn_task(task_id, fn):
    """Task whose trial y runs a writer machine for fn(y); accepts on zero output."""
    backing = MachineBackedFunction(fn)
    return SearchTask(
        task_id,
        lambda y: backing.subrun(y),
        lambda halted: unary_output(halted) == 0,
    )


def looper_task(task_id, trials=None):
    """Task whose sub-runs all loop; never accepted.  ``trials`` bounds the trial count."""
    machine = two_state_looper()

    def generator(y):
        if trials is not None and y >= trials:
            return None
        return SubRun(machine, blank_id(machine))

    return SearchTask(task_id, generator, lambda halted: True)


def test_diagonal_enumeration_prefix():
    pairs = diagonal_pairs(3)
    got = [next(pairs) for _ in range(9)]
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1)]
    assert [rank_to_pair(r, 3) for r in range(9)] == got


def test_immediate_winner_beats_looper():
    tasks = [fn_task(0, lambda y: 0), looper_task(1)]
    outcome = dovetail(tasks, 16, 1000)
    assert isinstance(outcome, FirstSuccess)
    assert (outcome.task_id, outcome.trial) == (0, 0)
    assert outcome.evidence.steps == 0


def test_winner_matches_reference_scheduler_trace():
    def make_tasks():
        return [
            fn_task(0, lambda y: 0 if y == 3 else 1),
            fn_task(1, lambda y: 0 if y == 1 else 1),
        ]

    events = []
    outcome = dovetail(
        make_tasks(), 16, 1000,
        observer=lambda e: events.append((e.global_step, e.rank, e.task_id, e.trial, e.result)),
    )
    ref_events, ref_outcome = reference_dovetail(make_tasks(), 16, 1000)
    assert events == ref_events
    assert isinstance(outcome, FirstSuccess)
    assert ref_outcome == ("first-success", outcome.task_id, outcome.trial, outcome.evidence.steps)


def test_a_scheduler_event_is_a_named_tuple_of_its_fields():
    events = []
    dovetail([looper_task(0)], 8, 2, observer=events.append)
    assert events == [(1, 0, 0, 0, "advanced"), (2, 0, 0, 0, "loop-detected")]
    first = events[0]
    assert first == SchedulerEvent(1, 0, 0, 0, "advanced") and first.result == "advanced"
    assert repr(first) == "SchedulerEvent(global_step=1, rank=0, task_id=0, trial=0, result='advanced')"
    assert hash(first) == hash((1, 0, 0, 0, "advanced"))
    with pytest.raises(AttributeError):
        first.rank = 5


def test_all_exhausted_when_every_trial_loops():
    tasks = [looper_task(0, trials=3), looper_task(1, trials=2)]
    outcome = dovetail(tasks, 8, 1000)
    assert isinstance(outcome, AllExhausted)
    by_id = {s.task_id: s for s in outcome.statuses}
    assert by_id[0].trials_spawned == 3
    assert by_id[1].trials_spawned == 2
    assert by_id[0].loops_detected == 3
    assert by_id[1].loops_detected == 2
    assert all(s.exhausted for s in outcome.statuses)


def test_global_budget_exceeded_on_endless_loopers():
    outcome = dovetail([looper_task(0), looper_task(1)], 8, 100)
    assert outcome == GlobalBudgetExceeded(100)


def test_dovetail_is_deterministic():
    def run_once():
        events = []
        outcome = dovetail(
            [looper_task(0), fn_task(1, lambda y: 0 if y == 4 else 2)], 8, 500,
            observer=lambda e: events.append(e),
        )
        return events, outcome

    first_events, first = run_once()
    second_events, second = run_once()
    assert first_events == second_events
    assert first == second
    assert repr(first) == repr(second)


def test_dovetail_rejects_duplicate_ids_and_empty():
    with pytest.raises(ValueError):
        dovetail([], 4, 4)
    with pytest.raises(ValueError):
        dovetail([looper_task(0), looper_task(0)], 4, 4)


def test_machine_backed_evaluate_values_and_loops():
    g = MachineBackedFunction(lambda x, y: x + y, diverging=frozenset({(1, 1)}))
    assert g.evaluate(2, 3) == 5
    assert g.evaluate(0, 0) == 0
    looped = g.evaluate(1, 1)
    assert not isinstance(looped, int)


def test_machine_backed_value_subrun_and_evaluate_agree():
    rng = random.Random(71)
    for _ in range(200):
        table = {(x, y): rng.randint(0, 6) for x in range(4) for y in range(4)}
        diverging = frozenset(point for point in table if rng.random() < 0.25)
        g = MachineBackedFunction(lambda x, y, t=table: t[x, y], diverging)
        point = (rng.randrange(4), rng.randrange(4))
        sub = g.subrun(*point)
        if point in diverging:
            assert g.value(*point) is None
            assert sub.machine is two_state_looper()
            assert sub.input == blank_id(sub.machine)
            assert g.evaluate(*point) == LoopDetected(2, 2)
        else:
            assert g.value(*point) == table[point] == g.evaluate(*point)
            assert sub.machine == Machine.from_rules([("r", "1", "r", "1", "R")], "r")
            assert sub.input == unary_id(sub.machine, table[point])


def test_total_mu_calls_fn_once_per_trial():
    calls = []
    g = MachineBackedFunction(lambda y: calls.append(y) or 3 - y)
    assert total_mu(g, (), 10) == Defined(3)
    assert calls == [0, 1, 2, 3]


def test_t1_t2_accept_with_the_shared_tests():
    g = MachineBackedFunction(lambda y: y)
    assert make_t1(g, ()).accept is ACCEPT["zero-of"]
    assert make_t2(g, ()).accept is ACCEPT["nonzero-of"]
    halted = [run_with_loop_detection(sub.machine, sub.input, 2) for sub in map(g.subrun, range(3))]
    assert [ACCEPT["zero-of"](h) for h in halted] == [True, False, False]
    assert [ACCEPT["nonzero-of"](h) for h in halted] == [False, True, True]


def test_total_mu_arithmetic_example():
    g = MachineBackedFunction(lambda x, y: abs(x + y - 5))
    assert total_mu(g, (2,), 50) == Defined(3)


def test_total_mu_vacuous_on_loop():
    g = MachineBackedFunction(lambda y: 1, diverging=frozenset({(0,)}))
    assert total_mu(g, (), 50) == Vacuous(VacuousReason.LOOP_DETECTED)


def test_total_mu_vacuous_when_zero_free():
    g = MachineBackedFunction(lambda y: y + 1)
    assert total_mu(g, (), 20) == Vacuous(VacuousReason.BUDGET_EXCEEDED)


def test_total_mu_agrees_with_brute_force_on_random_tables():
    rng = random.Random(59)
    for _ in range(50):
        table = [rng.randint(0, 3) for _ in range(51)]
        fn = lambda y, t=tuple(table): t[y] if y < len(t) else 1
        g = MachineBackedFunction(fn)
        expected = brute_least_zero(fn, (), 50)
        got = total_mu(g, (), 51)
        if expected is None:
            assert got == Vacuous(VacuousReason.BUDGET_EXCEEDED)
        else:
            assert got == Defined(expected)


def test_t1_t2_constant_functions():
    zero = MachineBackedFunction(lambda x, y: 0)
    one = MachineBackedFunction(lambda x, y: 1)
    args = (7,)

    outcome = dovetail([make_t1(zero, args), make_t2(zero, args)], 8, 200)
    assert isinstance(outcome, FirstSuccess)
    assert (outcome.task_id, outcome.trial) == (0, 0)

    outcome = dovetail([make_t1(one, args), make_t2(one, args)], 8, 200)
    assert isinstance(outcome, FirstSuccess)
    assert (outcome.task_id, outcome.trial) == (1, 0)


def test_t1_t2_parity_reaches_zero_trial_first():
    parity = MachineBackedFunction(lambda x, y: y % 2)
    args = (0,)
    outcome = dovetail([make_t1(parity, args), make_t2(parity, args)], 8, 200)
    # parity(0) = 0, so the zero-accepting task wins at trial 0.
    assert isinstance(outcome, FirstSuccess)
    assert (outcome.task_id, outcome.trial) == (0, 0)


# --- live-rank scheduler against the reference engine ---------------------------


def writer_task(task_id, values, accept, trials=None, diverging=frozenset()):
    """Trial y writes values[y % len(values)] in unary, or loops if y is in ``diverging``."""
    backing = MachineBackedFunction(
        lambda y: values[y % len(values)], frozenset((y,) for y in diverging)
    )

    def generator(y):
        if trials is not None and y >= trials:
            return None
        return backing.subrun(y)

    return SearchTask(task_id, generator, accept)


def random_machine_task(task_id, seed, trials=None):
    """Trial y runs a random 3-state machine from a random start; accepts nothing."""

    def generator(y):
        if trials is not None and y >= trials:
            return None
        rng = random.Random(seed * 1000 + y)
        return SubRun(random_machine(rng), random_id(rng))

    return SearchTask(task_id, generator, lambda halted: False)


ACCEPTS = {
    "zero": lambda halted: unary_output(halted) == 0,
    "nonzero": lambda halted: unary_output(halted) != 0,
    "never": lambda halted: False,
}


def random_task_mix(rng):
    """2-4 tasks with distinct, non-contiguous ids; finite ones may have 0 trials."""
    ids = rng.sample(range(10, 60), rng.randint(2, 4))
    tasks = []
    for task_id in ids:
        trials = rng.choice((None, 0, 1, 2, 3, 5, 8))
        kind = rng.choice(("looper", "writer", "writer", "random"))
        if kind == "looper":
            tasks.append(looper_task(task_id, trials))
        elif kind == "writer":
            values = [rng.randint(0, 7) for _ in range(rng.randint(1, 6))]
            diverging = frozenset(y for y in range(8) if rng.random() < 0.15)
            accept = ACCEPTS[rng.choice(("zero", "nonzero", "never", "never"))]
            tasks.append(writer_task(task_id, values, accept, trials, diverging))
        else:
            tasks.append(random_machine_task(task_id, rng.randrange(10**6), trials))
    return tasks


def traced_dovetail(tasks, sub_budget, global_budget):
    events = []
    outcome = dovetail(
        tasks, sub_budget, global_budget,
        observer=lambda e: events.append((e.global_step, e.rank, e.task_id, e.trial, e.result)),
    )
    return events, outcome


def describe(outcome):
    """The outcome in ``reference_dovetail``'s terms."""
    if isinstance(outcome, FirstSuccess):
        return ("first-success", outcome.task_id, outcome.trial, outcome.evidence.steps)
    if isinstance(outcome, AllExhausted):
        return ("all-exhausted",)
    return ("global-budget-exceeded",)


def statuses_from_events(tasks, events):
    """Per-task tallies re-derived from a reference trace that ended all-exhausted.

    Every spawned run steps in the sweep that admits it, so the trials
    spawned are exactly the distinct trials the trace names.
    """
    out = []
    for task in tasks:
        mine = [e for e in events if e[2] == task.task_id]
        counts = Counter(e[4] for e in mine)
        out.append(
            (
                task.task_id,
                len({e[3] for e in mine}),
                counts["halted-rejected"],
                counts["loop-detected"],
                counts["sub-budget-exhausted"],
                True,
            )
        )
    return out


def test_differential_against_reference_at_every_global_budget():
    rng = random.Random(4_2003)
    endings = set()
    results = set()
    for _ in range(30):
        tasks = random_task_mix(rng)
        sub_budget = rng.randint(1, 6)
        for global_budget in range(1, 82):
            events, outcome = traced_dovetail(tasks, sub_budget, global_budget)
            ref_events, ref_outcome = reference_dovetail(tasks, sub_budget, global_budget)
            assert events == ref_events
            assert describe(outcome) == ref_outcome
            results.update(e[4] for e in events)
            if isinstance(outcome, GlobalBudgetExceeded):
                assert outcome.global_budget == global_budget
            elif isinstance(outcome, AllExhausted):
                got = [
                    (s.task_id, s.trials_spawned, s.halted_rejected, s.loops_detected,
                     s.sub_budget_exhausted, s.exhausted)
                    for s in outcome.statuses
                ]
                assert got == statuses_from_events(tasks, ref_events)
            if ref_outcome != ("global-budget-exceeded",):
                break  # every larger budget ends the same way
        endings.add(ref_outcome[0])
    # The mixes reach every ending and every kind of event.
    assert endings == {"first-success", "all-exhausted", "global-budget-exceeded"}
    assert results == {
        "advanced", "halted-accepted", "halted-rejected", "loop-detected", "sub-budget-exhausted",
    }


def recording_tasks(tasks, log):
    """Wrap each generator so its calls are logged; a call after ``None`` fails."""

    def recorded(task):
        ended = []

        def generator(y):
            assert not ended, f"task {task.task_id} asked for trial {y} after trial {ended[0]} ended it"
            log.append((task.task_id, y))
            sub = task.generator(y)
            if sub is None:
                ended.append(y)
            return sub

        return SearchTask(task.task_id, generator, task.accept)

    return [recorded(task) for task in tasks]


def writer_tasks(tasks, g, args):
    """``tasks`` over ``g`` at ``args`` with each value's trial run as a writer from a blank tape."""

    def generator(y):
        value = g.value(*args, y)
        machine = two_state_looper() if value is None else writer_machine(value)
        return SubRun(machine, blank_id(machine))

    return [SearchTask(task.task_id, generator, task.accept) for task in tasks]


def test_reader_trials_match_writer_trials_from_a_blank_tape():
    rng = random.Random(4_2015)
    results = set()
    for _ in range(300):
        table = [rng.choice((0, 0, 1, 2, 3, 5, 8, 13)) for _ in range(rng.randint(1, 10))]
        diverging = frozenset((x, y) for x in range(2) for y in range(30) if rng.random() < 0.2)
        g = MachineBackedFunction(lambda x, y, t=table: t[(x + y) % len(t)], diverging)
        args = (rng.randrange(2),)
        tasks = rng.choice(([make_t1(g, args)], [make_t2(g, args)], [make_t1(g, args), make_t2(g, args)]))
        sub_budget, global_budget = rng.randint(1, 10), rng.randint(1, 200)
        events, outcome = traced_dovetail(tasks, sub_budget, global_budget)
        ref_events, ref_outcome = reference_dovetail(writer_tasks(tasks, g, args), sub_budget, global_budget)
        assert events == ref_events
        assert describe(outcome) == ref_outcome
        results.update(e[4] for e in events)
    # Sub-budgets cut some trials, loopers diverge, and halts are both accepted and rejected.
    assert results == {
        "advanced", "halted-accepted", "halted-rejected", "loop-detected", "sub-budget-exhausted",
    }


def test_generator_calls_match_reference_at_every_global_budget():
    def make_tasks():
        return [
            looper_task(0, trials=3),
            looper_task(1, trials=0),
            writer_task(2, [3, 1, 4, 1, 5], ACCEPTS["never"], trials=6, diverging=frozenset({2})),
            looper_task(3),
        ]

    for global_budget in range(1, 70):
        got, want = [], []
        dovetail(recording_tasks(make_tasks(), got), 4, global_budget)
        reference_dovetail(recording_tasks(make_tasks(), want), 4, global_budget)
        assert got == want, global_budget
    # By the last budget every finite task has been asked for its ending trial.
    assert {(0, 3), (1, 0), (2, 6)} <= set(got)


def test_memory_stays_flat_as_the_global_budget_grows():
    tasks = [looper_task(0), looper_task(1), looper_task(2)]
    dovetail(tasks, 64, 100)  # warm caches before measuring
    peaks = []
    for global_budget in (2_000, 8_000):
        tracemalloc.start()
        try:
            assert dovetail(tasks, 64, global_budget) == GlobalBudgetExceeded(global_budget)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] < 1.5, peaks
