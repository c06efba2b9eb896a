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
from typing import Callable, Iterator, Optional, Sequence

from .machine import (
    BudgetExceeded,
    Halted,
    ID,
    LoopDetected,
    Machine,
    Runner,
    blank_id,
    count_symbols,
    run_with_loop_detection,
    two_state_looper,
    unary_writer,
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
        raise ValueError("task_count must be >= 1")
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


def dovetail(
    tasks: Sequence[SearchTask],
    sub_budget: int,
    global_budget: int,
    observer: Optional[Callable[[SchedulerEvent], None]] = None,
) -> DovetailOutcome:
    """Interleave every trial of every task until one is accepted.

    The scheduler repeatedly sweeps a growing prefix of the diagonal
    enumeration, giving each live pair one step per sweep and admitting
    one new pair per sweep.  The first accepted halt in schedule order
    wins.  If every task reports itself exhausted and all spawned runs
    have died unaccepted, the per-task tallies are returned; otherwise
    the global step budget bounds the total work.  The whole procedure
    is a single sequential loop, so results are reproducible bit for bit.
    """
    if not tasks:
        raise ValueError("tasks must be non-empty")
    if sub_budget < 1 or global_budget < 1:
        raise ValueError("budgets must be >= 1")
    if len({task.task_id for task in tasks}) != len(tasks):
        raise ValueError("task ids must be unique")

    states = [_TaskState(task) for task in tasks]
    ranks = diagonal_pairs(len(tasks))
    pair_of_rank: list[tuple[int, int]] = []
    runs: dict[int, Optional[Runner]] = {}
    global_step = 0

    def all_dead() -> bool:
        return all(state.exhausted_at is not None for state in states) and not any(
            run is not None for run in runs.values()
        )

    admitted = 0
    while True:
        if all_dead():
            return AllExhausted(tuple(state.status() for state in states))
        pair_of_rank.append(next(ranks))
        admitted += 1
        for rank in range(admitted):
            task_idx, trial = pair_of_rank[rank]
            state = states[task_idx]
            if rank not in runs:
                if state.exhausted_at is not None and trial >= state.exhausted_at:
                    runs[rank] = None
                    continue
                sub = state.task.generator(trial)
                if sub is None:
                    state.exhausted_at = (
                        trial
                        if state.exhausted_at is None
                        else min(state.exhausted_at, trial)
                    )
                    runs[rank] = None
                    continue
                runs[rank] = Runner(sub.machine, sub.input)
                state.trials_spawned += 1
            live = runs[rank]
            if live is None:
                continue
            if global_step == global_budget:
                return GlobalBudgetExceeded(global_budget)
            global_step += 1
            if live.steps == sub_budget:
                outcome = live.halted() or BudgetExceeded(sub_budget)
            else:
                outcome = live.advance()
            result = "advanced"
            if isinstance(outcome, Halted):
                if state.task.accept(outcome):
                    result = "halted-accepted"
                else:
                    result = "halted-rejected"
                    state.halted_rejected += 1
            elif isinstance(outcome, LoopDetected):
                result = "loop-detected"
                state.loops_detected += 1
            elif isinstance(outcome, BudgetExceeded):
                result = "sub-budget-exhausted"
                state.sub_budget_exhausted += 1
            if observer is not None:
                observer(
                    SchedulerEvent(global_step, rank, state.task.task_id, trial, result)
                )
            if result == "halted-accepted":
                assert isinstance(outcome, Halted)
                return FirstSuccess(state.task.task_id, trial, outcome)
            if outcome is not None:
                runs[rank] = None


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

    The run for an argument tuple writes the function value in unary and
    halts; tuples listed in ``diverging`` get a run that never halts but
    self-terminates under loop detection instead.  ``slack`` pads the step
    budget past the exact number of writes a halting run needs.
    """

    fn: Callable[..., int]
    diverging: frozenset[tuple[int, ...]] = frozenset()
    slack: int = 4

    def subrun(self, *args: int) -> SubRun:
        if tuple(args) in self.diverging:
            machine = two_state_looper()
        else:
            machine = unary_writer(self.fn(*args))
        return SubRun(machine, blank_id(machine))

    def evaluate(self, *args: int) -> int | LoopDetected | BudgetExceeded:
        if tuple(args) in self.diverging:
            budget = self.slack
        else:
            budget = self.fn(*args) + self.slack
        sub = self.subrun(*args)
        outcome = run_with_loop_detection(sub.machine, sub.input, budget)
        if isinstance(outcome, Halted):
            return count_symbols(outcome.final_id)
        return outcome


def unary_output(outcome: Halted) -> int:
    """Decode a halted run's result: the count of ones left on the tape."""
    return count_symbols(outcome.final_id)


def total_mu(g: MachineBackedFunction, args: Sequence[int], budget: int) -> TotalMuResult:
    """Total least-zero search: least y with g(args, y) = 0, else a vacuous result.

    Trials run in increasing y.  A loop-detected evaluation before any zero
    yields Vacuous(LOOP_DETECTED); exhausting ``budget`` trial indices (or a
    sub-run's own step budget) yields Vacuous(BUDGET_EXCEEDED).  Always
    returns.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    for y in range(budget):
        result = g.evaluate(*args, y)
        if isinstance(result, LoopDetected):
            return Vacuous(VacuousReason.LOOP_DETECTED)
        if isinstance(result, BudgetExceeded):
            return Vacuous(VacuousReason.BUDGET_EXCEEDED)
        if result == 0:
            return Defined(y)
    return Vacuous(VacuousReason.BUDGET_EXCEEDED)


def make_t1(g: MachineBackedFunction, args: Sequence[int], task_id: int = 0) -> SearchTask:
    """Search task accepting exactly the trials where g evaluates to 0."""
    fixed = tuple(args)
    return SearchTask(
        task_id,
        lambda y: g.subrun(*fixed, y),
        lambda halted: unary_output(halted) == 0,
    )


def make_t2(g: MachineBackedFunction, args: Sequence[int], task_id: int = 1) -> SearchTask:
    """Search task accepting exactly the trials where g evaluates to nonzero."""
    fixed = tuple(args)
    return SearchTask(
        task_id,
        lambda y: g.subrun(*fixed, y),
        lambda halted: unary_output(halted) != 0,
    )
