"""Fair interleaving of machine-backed searches and a total least-zero operator.

Each search task generates one loop-detected machine run per trial index.
The scheduler sweeps the Cantor diagonal enumeration of (task, trial)
pairs, advancing every live run one tape step per visit, so every trial
of every task makes progress.  Least-zero search built on top of this is
total: a run that would classically diverge either self-terminates via
loop detection or is cut off by an explicit budget, and both map to a
distinguished vacuous result instead of a sentinel value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

from . import GodelsimError
from .machine import (
    BudgetExceeded,
    Halted,
    ID,
    LoopDetected,
    Machine,
    Runner,
    blank_id,
    count_symbols,
    run_value,
    value_machine,
)


@dataclass(frozen=True)
class SubRun:
    """One machine execution: the machine plus the configuration it starts from."""

    machine: Machine
    input: ID


SubRunGenerator = Callable[[int], Optional[SubRun]]
AcceptPredicate = Callable[[Halted], bool]


@dataclass(frozen=True)
class SearchTask:
    """A stream of sub-runs indexed by trial, with an acceptance test on halts.

    ``generator(y)`` yields the sub-run for trial ``y``, or ``None`` once the
    task has no trial at ``y`` or beyond (a finite task).  ``accept`` examines
    a ``Halted`` outcome and decides whether that trial wins the search.
    """

    task_id: int
    generator: SubRunGenerator
    accept: AcceptPredicate


@dataclass(frozen=True)
class TaskStatus:
    task_id: int
    trials_spawned: int
    halted_rejected: int
    loops_detected: int
    sub_budget_exhausted: int
    exhausted: bool


@dataclass(frozen=True)
class FirstSuccess:
    task_id: int
    trial: int
    evidence: Halted


@dataclass(frozen=True)
class AllExhausted:
    statuses: tuple[TaskStatus, ...]


@dataclass(frozen=True)
class GlobalBudgetExceeded:
    global_budget: int


DovetailOutcome = FirstSuccess | AllExhausted | GlobalBudgetExceeded


@dataclass(frozen=True)
class SchedulerEvent:
    """One scheduler decision: which pair was advanced and what came of it."""

    global_step: int
    rank: int
    task_id: int
    trial: int
    result: str  # advanced | halted-accepted | halted-rejected | loop-detected | sub-budget-exhausted


def diagonal_pairs(task_count: int) -> Iterator[tuple[int, int]]:
    """Cantor enumeration of (task index, trial index), task index < task_count."""
    if task_count < 1:
        raise GodelsimError("task_count must be >= 1")
    diagonal = 0
    while True:
        for task in range(min(diagonal, task_count - 1) + 1):
            yield task, diagonal - task
        diagonal += 1


class _TaskState:
    def __init__(self, task: SearchTask):
        self.task = task
        self.trials_spawned = 0
        self.halted_rejected = 0
        self.loops_detected = 0
        self.sub_budget_exhausted = 0
        self.exhausted_at: Optional[int] = None

    def status(self) -> TaskStatus:
        return TaskStatus(
            self.task.task_id,
            self.trials_spawned,
            self.halted_rejected,
            self.loops_detected,
            self.sub_budget_exhausted,
            self.exhausted_at is not None,
        )


_LiveRun = tuple[int, int, _TaskState, Runner]


def dovetail(
    tasks: Sequence[SearchTask],
    sub_budget: int,
    global_budget: int,
    observer: Optional[Callable[[SchedulerEvent], None]] = None,
) -> DovetailOutcome:
    """Interleave every trial of every task until one is accepted.

    The scheduler keeps the runs still live in rank order.  Each sweep
    steps every one of them once, then admits the next pair of the
    diagonal enumeration: its generator is called only once the earlier
    runs have stepped, and its run, if any, steps at the end of the same
    sweep.  A run that halts, loops or spends its sub-budget leaves the
    list and never emits another event, so a sweep costs O(live runs + 1)
    and memory stays O(live runs), however many ranks have been admitted.
    The first accepted halt in schedule order wins.  If every task reports
    itself exhausted and all spawned runs have died unaccepted, the
    per-task tallies are returned; otherwise the global step budget bounds
    the total work.  The whole procedure is a single sequential loop, so
    results are reproducible bit for bit.
    """
    if not tasks:
        raise GodelsimError("tasks must be non-empty")
    if sub_budget < 1 or global_budget < 1:
        raise GodelsimError("budgets must be >= 1")
    if len({task.task_id for task in tasks}) != len(tasks):
        raise GodelsimError("task ids must be unique")

    states = [_TaskState(task) for task in tasks]
    exhausted = 0  # tasks whose generator has returned None
    # (rank, trial, task state, runner) of every live run, in rank order.
    live: list[_LiveRun] = []
    global_step = 0

    def admit(rank: int, state: _TaskState, trial: int) -> Iterator[_LiveRun]:
        """Yield the run of a newly admitted pair, if its task still has trials.

        Being a generator, its body runs only when the sweep reaches it,
        after every earlier live run has stepped, so a sweep cut short by
        the global budget never calls the task's generator.
        """
        nonlocal exhausted
        # Cantor order hands each task its trials in increasing order, so
        # once a task has no trial at some index it has none at any later rank.
        if state.exhausted_at is not None:
            return
        sub = state.task.generator(trial)
        if sub is None:
            state.exhausted_at = trial
            exhausted += 1
            return
        state.trials_spawned += 1
        yield rank, trial, state, Runner(sub.machine, sub.input)

    ranks = enumerate(diagonal_pairs(len(tasks)))
    while True:
        if exhausted == len(states) and not live:
            return AllExhausted(tuple(state.status() for state in states))
        new_rank, (task_idx, new_trial) = next(ranks)
        survivors = []
        for entry in chain(live, admit(new_rank, states[task_idx], new_trial)):
            rank, trial, state, run = entry
            if global_step == global_budget:
                return GlobalBudgetExceeded(global_budget)
            global_step += 1
            if run.steps == sub_budget:
                outcome = run.halted() or BudgetExceeded(sub_budget)
            else:
                outcome = run.advance()
            if outcome is None:
                result = "advanced"
                survivors.append(entry)
            elif isinstance(outcome, Halted):
                if state.task.accept(outcome):
                    result = "halted-accepted"
                else:
                    result = "halted-rejected"
                    state.halted_rejected += 1
            elif isinstance(outcome, LoopDetected):
                result = "loop-detected"
                state.loops_detected += 1
            else:
                result = "sub-budget-exhausted"
                state.sub_budget_exhausted += 1
            if observer is not None:
                observer(
                    SchedulerEvent(global_step, rank, state.task.task_id, trial, result)
                )
            if result == "halted-accepted":
                assert isinstance(outcome, Halted)
                return FirstSuccess(state.task.task_id, trial, outcome)
        live = survivors


class VacuousReason(enum.Enum):
    LOOP_DETECTED = "loop-detected"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class Defined:
    y: int


@dataclass(frozen=True)
class Vacuous:
    reason: VacuousReason


TotalMuResult = Defined | Vacuous


@dataclass(frozen=True)
class MachineBackedFunction:
    """A total function on naturals realized point by point as machine runs.

    The run for an argument tuple is ``machine.value_machine`` of its value:
    it writes the value of ``fn`` in unary and halts, or, for a tuple listed
    in ``diverging``, never halts but is caught by loop detection at step 2.
    """

    fn: Callable[..., int]
    diverging: frozenset[tuple[int, ...]] = frozenset()

    def value(self, *args: int) -> Optional[int]:
        """``fn(*args)``, or None for a diverging tuple."""
        return None if args in self.diverging else self.fn(*args)

    def subrun(self, *args: int) -> SubRun:
        machine = value_machine(self.value(*args))
        return SubRun(machine, blank_id(machine))

    def evaluate(self, *args: int) -> int | LoopDetected:
        """Run the tuple's machine: the ones it leaves, or ``LoopDetected`` if it diverges."""
        return run_value(self.value(*args))


def unary_output(outcome: Halted) -> int:
    """Decode a halted run's result: the count of ones left on the tape."""
    return count_symbols(outcome.final_id)


def total_mu(g: MachineBackedFunction, args: Sequence[int], budget: int) -> TotalMuResult:
    """Total least-zero search: least y with g(args, y) = 0, else a vacuous result.

    Trials run in increasing y, each as a machine run (``g.evaluate``).  A
    loop-detected evaluation before any zero yields Vacuous(LOOP_DETECTED);
    ``budget`` trial indices without a zero yield Vacuous(BUDGET_EXCEEDED).
    Every run reaches a verdict, so the search always returns.
    """
    if budget < 0:
        raise GodelsimError("budget must be >= 0")
    for y in range(budget):
        result = g.evaluate(*args, y)
        if isinstance(result, LoopDetected):
            return Vacuous(VacuousReason.LOOP_DETECTED)
        if result == 0:
            return Defined(y)
    return Vacuous(VacuousReason.BUDGET_EXCEEDED)


# The two acceptance tests on a halted trial, under the names ``gu dovetail`` takes.
ACCEPT: dict[str, AcceptPredicate] = {
    "zero-of": lambda halted: unary_output(halted) == 0,
    "nonzero-of": lambda halted: unary_output(halted) != 0,
}


def make_t1(g: MachineBackedFunction, args: Sequence[int], task_id: int = 0) -> SearchTask:
    """Search task accepting exactly the trials where g evaluates to 0."""
    fixed = tuple(args)
    return SearchTask(task_id, lambda y: g.subrun(*fixed, y), ACCEPT["zero-of"])


def make_t2(g: MachineBackedFunction, args: Sequence[int], task_id: int = 1) -> SearchTask:
    """Search task accepting exactly the trials where g evaluates to nonzero."""
    fixed = tuple(args)
    return SearchTask(task_id, lambda y: g.subrun(*fixed, y), ACCEPT["nonzero-of"])
