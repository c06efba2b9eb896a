"""Loop-detecting machine runs, sequence codecs, and deterministic-universe checks."""

__version__ = "0.1.0"


class GodelsimError(ValueError):
    """Base class of every error the library raises for a bad argument or input.

    Defined before the submodules are imported, since each of them derives
    its own errors from it.  A ``ValueError``, so callers that catch that
    keep working.
    """


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
