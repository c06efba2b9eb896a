"""The package's records: field-only ones are named tuples, verdicts share one slotted base.

Three classes stay frozen dataclasses; every other record is one of the two.
"""

import copy
import dataclasses
import pickle

import pytest

from godelsim import GodelsimError, _Frozen, beta, cli, collapse, corpus, dovetail, machine, universe
from godelsim.beta import BetaPair, TaggedSequence
from godelsim.collapse import HorizonMachine
from godelsim.corpus import CorpusEntry, ExpectDiverge, ExpectHalt, ExpectLoop, VerifyResult
from godelsim.dovetail import (
    AllExhausted,
    Defined,
    FirstSuccess,
    GlobalBudgetExceeded,
    MachineBackedFunction,
    SearchTask,
    SubRun,
    TaskStatus,
    Vacuous,
    VacuousReason,
)
from godelsim.machine import BudgetExceeded, Halted, LoopDetected
from godelsim.universe import (
    AffineRule,
    ConstantRule,
    CounterRule,
    FitEntry,
    HorizonProvider,
    MachineRule,
    ObstructionReport,
    Particle,
    ParticleReport,
    PredestinationReport,
    Predictable,
    Random,
    Registry,
    Signature,
    SimSetup,
    TableRule,
    Undetermined,
    UniformProvider,
    Universe,
    UniverseClass,
)

# A record checks none of its field types, so a str stands in for a machine or a
# start configuration, whose reprs depend on the hash seed or an address.
HM = HorizonMachine(abs, "abs", 2, (1, 2))
HM_TEXT = "HorizonMachine(predicate=<built-in function abs>, spec='abs', horizon=2, history=(1, 2))"
REGISTRY = Registry()
RECORDS = [
    (BetaPair(3, 1), "BetaPair(b=3, c=1)"),
    (HM, HM_TEXT),
    (ExpectHalt(6, 4), "ExpectHalt(steps=6, ones=4)"),
    (ExpectLoop(4, 2), "ExpectLoop(first_repeat_step=4, period=2)"),
    (ExpectDiverge(), "ExpectDiverge()"),
    (CorpusEntry("a.tm", 10, ExpectDiverge()), "CorpusEntry(name='a.tm', budget=10, expected=ExpectDiverge())"),
    (
        VerifyResult("a.tm", "ExpectDiverge()", "BudgetExceeded(10)", True, ""),
        "VerifyResult(name='a.tm', expected='ExpectDiverge()', observed='BudgetExceeded(10)', passed=True, detail='')",
    ),
    (SubRun("reader", "start"), "SubRun(machine='reader', input='start')"),
    (SearchTask(0, len, bool), "SearchTask(task_id=0, generator=<built-in function len>, accept=<class 'bool'>)"),
    (
        TaskStatus(1, 3, 0, 3, 0, True),
        "TaskStatus(task_id=1, trials_spawned=3, halted_rejected=0, loops_detected=3, sub_budget_exhausted=0, "
        "exhausted=True)",
    ),
    (MachineBackedFunction(abs), "MachineBackedFunction(fn=<built-in function abs>, diverging=frozenset())"),
    (ConstantRule(7), "ConstantRule(value=7)"),
    (CounterRule(), "CounterRule(start=0, step=1)"),
    (AffineRule(3, 1, 7, 2), "AffineRule(a=3, b=1, modulus=7, start=2)"),
    (TableRule((1, 2)), "TableRule(values=(1, 2))"),
    (MachineRule("m.tm"), "MachineRule(machine='m.tm', budget=10000)"),
    (UniformProvider(ConstantRule(7)), "UniformProvider(rule=ConstantRule(value=7))"),
    (HorizonProvider(HM), f"HorizonProvider(machine={HM_TEXT})"),
    (Signature(1, 0, {1: 7}), "Signature(particle=1, interaction=0, values={1: 7})"),
    (Particle(1, {1: "p"}), "Particle(id=1, providers={1: 'p'})"),
    (Universe(REGISTRY, ()), f"Universe(registry={REGISTRY!r}, particles=(), clock=0)"),
    (
        FitEntry(1, 1, "p", True, (0, 1), BetaPair(3, 1), True),
        "FitEntry(particle=1, prop=1, prop_name='p', uniform=True, values=(0, 1), pair=BetaPair(b=3, c=1), "
        "found=True)",
    ),
    (PredestinationReport(2, 9, True, ()), "PredestinationReport(horizon=2, bound=9, all_uniform=True, entries=())"),
    (
        ParticleReport(1, True, False, True),
        "ParticleReport(particle=1, initial_materialized=True, has_horizon=False, fundamental=True)",
    ),
    (
        ObstructionReport(UniverseClass.QUANTUM, ()),
        "ObstructionReport(classification=<UniverseClass.QUANTUM: 'quantum'>, particles=())",
    ),
    (
        SimSetup(Universe(REGISTRY, ()), 5, 3),
        f"SimSetup(universe=Universe(registry={REGISTRY!r}, particles=(), clock=0), steps=5, window=3)",
    ),
]

MODULES = (beta, cli, collapse, corpus, dovetail, machine, universe)

# The records kept as frozen dataclasses: ``Machine`` has computed fields, and
# tests ``dataclasses.replace`` an ``ID`` and the bench a ``NextValueDistribution``.
# The verdicts and ``TaggedSequence`` are ``_Frozen`` records (see VERDICTS).
KEPT_DATACLASSES = {"machine.Machine", "machine.ID", "beta.NextValueDistribution"}

# The ``_Frozen`` records, each with its repr, which is that of the frozen
# dataclass each once was.  A str stands in for a configuration, as above.
HALTED = Halted(6, "final")
STATUS = TaskStatus(1, 3, 0, 3, 0, True)
STATUS_TEXT = (
    "TaskStatus(task_id=1, trials_spawned=3, halted_rejected=0, loops_detected=3, sub_budget_exhausted=0, "
    "exhausted=True)"
)
VERDICTS = [
    (HALTED, "Halted(steps=6, final_id='final')"),
    (LoopDetected(4, 2), "LoopDetected(first_repeat_step=4, period=2)"),
    (BudgetExceeded(5), "BudgetExceeded(budget=5)"),
    (FirstSuccess(1, 3, HALTED), "FirstSuccess(task_id=1, trial=3, evidence=Halted(steps=6, final_id='final'))"),
    (AllExhausted((STATUS,)), f"AllExhausted(statuses=({STATUS_TEXT},))"),
    (GlobalBudgetExceeded(5), "GlobalBudgetExceeded(global_budget=5)"),
    (Defined(5), "Defined(y=5)"),
    (Vacuous(VacuousReason.BUDGET_EXCEEDED), "Vacuous(reason=<VacuousReason.BUDGET_EXCEEDED: 'budget-exceeded'>)"),
    (Predictable(7, 2), "Predictable(stable_value=7, stabilized_at=2)"),
    (Random((3, 4)), "Random(witness=(3, 4))"),
    (Undetermined(5), "Undetermined(window=5)"),
    (TaggedSequence(((0, 3), (2, 1))), "TaggedSequence(entries=((0, 3), (2, 1)))"),
]


# ``copy.replace`` (Python 3.13 on) calls a record's ``__replace__``, as this does before it.
replace = getattr(copy, "replace", lambda record, **changes: type(record).__replace__(record, **changes))


def holds_a_dict(value):
    return isinstance(value, dict) or isinstance(value, tuple) and any(map(holds_a_dict, value))


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS])
def test_a_field_only_record_is_a_named_tuple_of_its_fields(record, text):
    assert repr(record) == text
    fields = tuple(record)
    twin = type(record)._make(fields)
    assert record == fields and twin == record and len(record) == len(record._fields)
    if holds_a_dict(fields):  # as a frozen dataclass holding a dict, it does not hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        marker = object()
        changed = record._replace(**{name: marker})
        assert type(changed) is type(record) and getattr(changed, name) is marker
        assert changed._replace(**{name: getattr(record, name)}) == record


def test_the_records_list_every_named_tuple_of_the_package():
    records = {type(record) for record, _ in RECORDS} | {dovetail.SchedulerEvent}
    named = {
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__ and hasattr(value, "_fields")
        and not value.__name__.startswith("_")
    }
    assert named == records


def test_only_the_kept_records_are_dataclasses():
    found = {
        f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        for module in MODULES
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
    }
    assert found == KEPT_DATACLASSES


def test_kept_verdicts_stay_distinct_across_types():
    assert BudgetExceeded(5) != GlobalBudgetExceeded(5)
    assert Defined(5) != Undetermined(5)


def test_the_verdicts_list_every_frozen_record_of_the_package():
    assert {type(record) for record, _ in VERDICTS} == set(_Frozen.__subclasses__())


def matched_fields(record):
    """The fields a ``match`` statement binds, by position, from ``record``."""
    kind = type(record)
    match len(kind.__match_args__), record:
        case 1, kind(a):
            return (a,)
        case 2, kind(a, b):
            return (a, b)
        case 3, kind(a, b, c):
            return (a, b, c)


def twin_of(kind, fields):
    """A ``kind`` holding ``fields``, built without its checks."""
    twin = object.__new__(kind)
    for name, value in zip(kind.__match_args__, fields):
        object.__setattr__(twin, name, value)
    return twin


@pytest.mark.parametrize("record, text", VERDICTS, ids=[type(record).__name__ for record, _ in VERDICTS])
def test_a_verdict_is_a_frozen_record_of_its_fields(record, text):
    kind, names = type(record), type(record).__match_args__
    fields = tuple(getattr(record, name) for name in names)
    assert repr(record) == text
    twin = kind(*fields)
    assert twin == record and not twin != record and hash(twin) == hash(record)
    assert record != fields and fields != record
    for other, _ in VERDICTS:
        if type(other) is not kind and len(type(other).__match_args__) == len(names):
            assert twin_of(type(other), fields) != record and record != twin_of(type(other), fields)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert kind(**dict(zip(names, fields))) == record
    with pytest.raises(TypeError):
        kind(*fields[:-1])
    with pytest.raises(TypeError):
        kind(*fields, extra=None)
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is kind and copied == record
    assert matched_fields(record) == fields
    assert not isinstance(record, tuple) and not hasattr(record, "__dict__")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BetaPair(-1, 2), "b must be >= 0"),
        (lambda: BetaPair(b=1, c=0), "c must be >= 1"),
        (lambda: HorizonMachine(abs, "abs", 0, (0,)), "horizon must be >= 1"),
        (lambda: HorizonMachine(abs, "abs", 3, (3, 3)), "strictly increasing"),
        (lambda: HorizonMachine(abs, "abs", 3, (4, 3)), "strictly increasing"),
        (lambda: HorizonMachine(abs, "abs", 3, ()), "must end at the current horizon"),
        (lambda: LoopDetected(1, 2), "first_repeat_step >= period"),
        (lambda: LoopDetected(2, 0), "period >= 1"),
        (lambda: replace(LoopDetected(4, 2), period=0), "period >= 1"),
        (lambda: TaggedSequence(((2, 1), (1, 1))), "strictly increasing"),
        (lambda: TaggedSequence(((0, -1),)), "must be naturals"),
    ],
    ids=[
        "b-negative",
        "c-zero",
        "horizon-zero",
        "history-flat",
        "history-falls",
        "history-empty",
        "loop-before-period",
        "loop-period-zero",
        "loop-replaced",
        "tags-fall",
        "value-negative",
    ],
)
def test_public_construction_still_checks_its_fields(make, message):
    with pytest.raises(GodelsimError, match=message):
        make()
