"""Loop-detecting machine runs, sequence codecs, and deterministic-universe checks."""

from dataclasses import FrozenInstanceError
from operator import attrgetter

__version__ = "0.1.0"


class GodelsimError(ValueError):
    """Base class of every error the library raises for a bad argument or input.

    Defined before the submodules are imported, since each of them derives
    its own errors from it.  A ``ValueError``, so callers that catch that
    keep working.
    """


class _Frozen:
    """Base of the verdicts and ``TaggedSequence``: immutable, printed, compared and hashed by their fields.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` through ``object.__setattr__``, then checks them if it
    must.  A record equals only a record of its own class with equal
    fields, never a tuple, so ``BudgetExceeded(5)`` and
    ``GlobalBudgetExceeded(5)`` differ.  Unlike a frozen dataclass, a
    subclass runs no generated code when it is made.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = cls.__slots__
        # Its fields as one value (a tuple from two fields on), for __eq__ and __hash__.
        cls._key = attrgetter(*cls.__slots__)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __replace__(self, **changes: object) -> "_Frozen":
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))


from . import beta, collapse, corpus, dovetail, machine, universe  # noqa: F401
from .beta import (
    BetaPair,
    NextValueDistribution,
    TaggedSequence,
    beta_encode,
    beta_eval,
    enumerate_matches,
    fit_characteristic_beta,
    next_value_distribution,
    superpose,
)
from .collapse import HorizonMachine, make_horizon_machine
from .dovetail import MachineBackedFunction, SearchTask, SubRun, make_t1, make_t2, total_mu
from .machine import (
    BLANK,
    BudgetExceeded,
    Halted,
    ID,
    LoopDetected,
    Machine,
    Move,
    RunOutcome,
    canonicalize,
    encode_id,
    load_machine_file,
    naive_run,
    parse_machine_text,
    run_with_loop_detection,
    step,
)
from .universe import (
    Particle,
    Registry,
    Signature,
    Universe,
    check_predestination_sufficient,
    check_predictability_obstruction,
    classify_predictability,
    godelian_point,
    history,
    load_universe_config,
    signature_query,
    step_universe,
)
