"""Horizon machines: per-input computable up to a horizon, looping at and past it.

A horizon machine wraps a total predicate.  Inputs below the current
horizon run a machine that writes the predicate value and halts; inputs
at or past the horizon run a two-state ping-pong whose configuration
repeats within two steps, so loop-detecting execution self-terminates
promptly instead of hanging.  Measuring an out-of-reach input replaces
the machine by one with the least horizon that covers it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Union

from . import GodelsimError
from .machine import LoopDetected, run_value

Predicate = Callable[[int], int]


def _pi_digits() -> str:
    text = resources.files("godelsim").joinpath("data/pi_digits.txt").read_text("utf-8")
    return "".join(ch for ch in text if ch.isdigit())


def _spec_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise GodelsimError(str(exc)) from exc


def resolve_predicate(spec: str) -> Predicate:
    """Look up a total predicate from the built-in menu.

    Menu: ``parity``, ``const=<v>``, ``mod=<m>``, ``pi`` (decimal digits of
    pi from the shipped table, cycled so the predicate stays total).
    """
    if spec == "parity":
        return lambda n: n % 2
    if spec == "pi":
        digits = _pi_digits()
        return lambda n: int(digits[n % len(digits)])
    if spec.startswith("const="):
        value = _spec_int(spec.split("=", 1)[1])
        if value < 0:
            raise GodelsimError("const predicate value must be >= 0")
        return lambda n: value
    if spec.startswith("mod="):
        modulus = _spec_int(spec.split("=", 1)[1])
        if modulus < 1:
            raise GodelsimError("mod predicate needs modulus >= 1")
        return lambda n: n % modulus
    raise GodelsimError(f"unknown predicate spec {spec!r}")


@dataclass(frozen=True)
class HorizonMachine:
    """A predicate evaluator that only terminates below its current horizon."""

    predicate: Predicate
    spec: str
    horizon: int
    history: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise GodelsimError("horizon must be >= 1")
        if not self.history or self.history[-1] != self.horizon:
            raise GodelsimError("history must end at the current horizon")
        if any(a >= b for a, b in zip(self.history, self.history[1:])):
            raise GodelsimError("history must be strictly increasing")


def make_horizon_machine(pred: Union[str, Predicate], k: int) -> HorizonMachine:
    """Build a horizon machine computing ``pred(n)`` for n < k and looping beyond.

    ``pred`` is either a menu spec string or a total callable.
    """
    if isinstance(pred, str):
        return HorizonMachine(resolve_predicate(pred), pred, k, (k,))
    return HorizonMachine(pred, getattr(pred, "__name__", "<callable>"), k, (k,))


def evaluate(hm: HorizonMachine, n: int) -> int | LoopDetected:
    """Run the machine for input ``n``: a value below the horizon, a loop at or past it."""
    if n < 0:
        raise GodelsimError("n must be >= 0")
    return run_value(hm.predicate(n) if n < hm.horizon else None)


def measure(hm: HorizonMachine, n: int) -> HorizonMachine:
    """Collapse onto the least horizon that makes ``n`` evaluable.

    Inputs already below the horizon leave the machine untouched; otherwise
    the horizon jumps to n + 1 and the old horizon stays on record.
    """
    if n < 0:
        raise GodelsimError("n must be >= 0")
    if n < hm.horizon:
        return hm
    return replace(hm, horizon=n + 1, history=hm.history + (n + 1,))
