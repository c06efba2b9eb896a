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
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import GodelsimError, _Frozen
from .machine import (
    _HALTS,
    _LOOPS,
    Halted,
    ID,
    LoopDetected,
    Machine,
    Runner,
    count_symbols,
    run_value,
    value_start,
)


class SubRun(NamedTuple):
    """One machine execution: the machine plus the configuration it starts from."""

    machine: Machine
    input: ID


SubRunGenerator = Callable[[int], Optional[SubRun]]
AcceptPredicate = Callable[[Halted], bool]


class SearchTask(NamedTuple):
    """A stream of sub-runs indexed by trial, with an acceptance test on halts.

    ``generator(y)`` yields the sub-run for trial ``y``, or ``None`` once the
    task has no trial at ``y`` or beyond (a finite task).  ``accept`` examines
    a ``Halted`` outcome and decides whether that trial wins the search.
    """

    task_id: int
    generator: SubRunGenerator
    accept: AcceptPredicate


class TaskStatus(NamedTuple):
    task_id: int
    trials_spawned: int
    halted_rejected: int
    loops_detected: int
    sub_budget_exhausted: int
    exhausted: bool


class FirstSuccess(_Frozen):
    __slots__ = ("task_id", "trial", "evidence")
    task_id: int
    trial: int
    evidence: Halted

    def __init__(self, task_id: int, trial: int, evidence: Halted) -> None:
        object.__setattr__(self, "task_id", task_id)
        object.__setattr__(self, "trial", trial)
        object.__setattr__(self, "evidence", evidence)


class AllExhausted(_Frozen):
    __slots__ = ("statuses",)
    statuses: tuple[TaskStatus, ...]

    def __init__(self, statuses: tuple[TaskStatus, ...]) -> None:
        object.__setattr__(self, "statuses", statuses)


class GlobalBudgetExceeded(_Frozen):
    __slots__ = ("global_budget",)
    global_budget: int

    def __init__(self, global_budget: int) -> None:
        object.__setattr__(self, "global_budget", global_budget)


DovetailOutcome = FirstSuccess | AllExhausted | GlobalBudgetExceeded


class SchedulerEvent(NamedTuple):
    """One scheduler decision: which pair was advanced and what came of it.

    A named tuple: as cheap to build as a tuple, and equal to the plain
    tuple of its fields.
    """

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
        # Unpacked once: every trial reads them, and a named-tuple field reads slower than an attribute.
        self.task_id, self.generator, self.accept = task
        self.trials_spawned = 0
        self.halted_rejected = 0
        self.loops_detected = 0
        self.sub_budget_exhausted = 0
        self.exhausted = False

    def status(self) -> TaskStatus:
        return TaskStatus(
            self.task_id,
            self.trials_spawned,
            self.halted_rejected,
            self.loops_detected,
            self.sub_budget_exhausted,
            self.exhausted,
        )


_LiveRun = tuple[int, int, _TaskState, Optional[Runner]]

# What a visit gives in place of a step for a run that has taken its
# sub-budget and does not halt.
_SPENT = object()


def dovetail(
    tasks: Sequence[SearchTask],
    sub_budget: int,
    global_budget: int,
    observer: Optional[Callable[[SchedulerEvent], None]] = None,
) -> DovetailOutcome:
    """Interleave every trial of every task until one is accepted.

    The scheduler keeps the runs still live in rank order.  Each sweep
    steps every one of them once, then admits the next pair of the
    diagonal enumeration: the pair joins the end of the list with no run
    yet, so its generator is called only once the earlier runs have
    stepped (and never in a sweep the global budget cuts before it), and
    its run, if any, steps at the end of the same sweep.  A run that halts,
    loops or spends its sub-budget leaves the list and never emits another
    event, so a sweep costs O(live runs + 1) and memory stays O(live runs),
    however many ranks have been admitted.  Admission builds one tuple and
    one ``Runner``.  Each visit takes the runner's internal step
    (``Runner._advance``), which reports a halt or a loop by a sentinel:
    a loop is counted by identity and no ``LoopDetected`` is built, and a
    ``Halted`` is built only for the acceptance test.  A trial that loops
    back to a blank start at step 2, as most trials of a looper task do,
    is decided there by a look at the cells the run holds, with no run
    key, so a short trial costs about its steps.
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
    ranks = enumerate(diagonal_pairs(len(tasks)))
    # No run takes more steps than this, which picks its key width (``Runner``).
    limit = min(sub_budget, global_budget)
    while True:
        if exhausted == len(states) and not live:
            return AllExhausted(tuple(state.status() for state in states))
        new_rank, (task_idx, new_trial) = next(ranks)
        # The pair admitted this sweep goes last, with no runner yet: its
        # generator is called only when the sweep reaches it, after every
        # earlier live run has stepped, so a sweep cut short by the global
        # budget never calls it.
        live.append((new_rank, new_trial, states[task_idx], None))
        survivors = []
        for entry in live:
            rank, trial, state, run = entry
            if run is None:
                # Cantor order hands each task its trials in increasing order, so
                # once a task has no trial at some index it has none at any later rank.
                if state.exhausted:
                    break
                sub = state.generator(trial)
                if sub is None:
                    state.exhausted = True
                    exhausted += 1
                    break
                state.trials_spawned += 1
                run = Runner(sub.machine, sub.input, True, limit)
                entry = rank, trial, state, run
            if global_step == global_budget:
                return GlobalBudgetExceeded(global_budget)
            global_step += 1
            outcome = run._advance() if run.steps != sub_budget else run._steps(0) or _SPENT
            if outcome is None:
                result = "advanced"
                survivors.append(entry)
            elif outcome is _LOOPS:
                result = "loop-detected"
                state.loops_detected += 1
            elif outcome is _HALTS:
                halted = run._halt()
                if state.accept(halted):
                    result = "halted-accepted"
                else:
                    result = "halted-rejected"
                    state.halted_rejected += 1
            else:
                result = "sub-budget-exhausted"
                state.sub_budget_exhausted += 1
            if observer is not None:
                observer(SchedulerEvent(global_step, rank, state.task_id, trial, result))
            if result == "halted-accepted":
                return FirstSuccess(state.task_id, trial, halted)
        live = survivors


class VacuousReason(enum.Enum):
    LOOP_DETECTED = "loop-detected"
    BUDGET_EXCEEDED = "budget-exceeded"


class Defined(_Frozen):
    __slots__ = ("y",)
    y: int

    def __init__(self, y: int) -> None:
        object.__setattr__(self, "y", y)


class Vacuous(_Frozen):
    __slots__ = ("reason",)
    reason: VacuousReason

    def __init__(self, reason: VacuousReason) -> None:
        object.__setattr__(self, "reason", reason)


TotalMuResult = Defined | Vacuous


class MachineBackedFunction(NamedTuple):
    """A total function on naturals realized point by point as machine runs.

    The run for an argument tuple is ``machine.value_start`` of its value:
    the shared unary reader on the value of ``fn`` in ones, which halts
    after exactly that many steps and leaves them, or, for a tuple listed
    in ``diverging``, the looper, which never halts.  ``evaluate`` runs it
    through ``machine.run_value``: the reader plainly, at the cost of its
    steps, and the looper under loop detection, which catches it at step 2.
    """

    fn: Callable[..., int]
    diverging: frozenset[tuple[int, ...]] = frozenset()

    def value(self, *args: int) -> Optional[int]:
        """``fn(*args)``, or None for a diverging tuple."""
        return None if args in self.diverging else self.fn(*args)

    def subrun(self, *args: int) -> SubRun:
        return SubRun(*value_start(self.value(*args)))

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
