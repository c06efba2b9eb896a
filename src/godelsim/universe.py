"""Particles, numbered properties, signatures, and world-line condition checks.

Property and value names share one registry: a string is numbered by the
order of its first registration, and number 0 is reserved so "not a
property" has a designated answer.  Each particle carries one value provider per
property: either a uniform rule that answers every interaction index by
a terminating computation, or a horizon machine that only answers below
its current horizon.  Queries never diverge; they return a value, the
vacuous marker, or the horizon marker.  Values are naturals (Godel numbers).

A JSON config is checked in one pass against two tables, ``_FIELDS`` for its
keys and ``_RULES`` for its provider specs, and every error names the file.
"""

from __future__ import annotations

import enum
import json
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from . import GodelsimError, _Frozen, collapse
from .beta import BetaPair, fit_characteristic_beta
from .collapse import HorizonMachine
from .machine import (
    BudgetExceeded,
    Machine,
    MachineParseError,
    MalformedIDError,
    load_machine_file,
    run_for_ones,
    unary_id,
)


class UnknownParticleError(GodelsimError):
    """Queried particle id does not exist in the universe."""


class ProviderError(GodelsimError):
    """A uniform provider failed to produce a value."""


class ConfigError(GodelsimError):
    """A universe configuration file is malformed."""


class QueryMiss(enum.Enum):
    """Non-value answers of a signature query; both are total, neither diverges."""

    VACUOUS = "vacuous"
    HORIZON_EXCEEDED = "horizon-exceeded"


VACUOUS = QueryMiss.VACUOUS
HORIZON_EXCEEDED = QueryMiss.HORIZON_EXCEEDED

QueryResult = Union[int, QueryMiss]


class Registry:
    """Bijective name <-> number table; numbers follow first-registration order."""

    def __init__(self) -> None:
        self._forward: dict[str, int] = {}
        self._backward: dict[int, str] = {}

    def register(self, name: str) -> int:
        """Number for ``name``, assigning the next ordinal on first sight."""
        if not name:
            raise GodelsimError("name must be non-empty")
        existing = self._forward.get(name)
        if existing is not None:
            return existing
        number = len(self._forward) + 1
        self._forward[name] = number
        self._backward[number] = name
        return number

    def number_of(self, name: str) -> Optional[int]:
        return self._forward.get(name)

    def name_of(self, number: int) -> Optional[str]:
        return self._backward.get(number)

    def numbers(self) -> tuple[int, ...]:
        return tuple(sorted(self._backward))

    def __len__(self) -> int:
        return len(self._forward)

    def __contains__(self, number: int) -> bool:
        return number in self._backward


# --- value rules -----------------------------------------------------------


class ConstantRule(NamedTuple):
    value: int

    def value_at(self, t: int) -> int:
        return self.value


class CounterRule(NamedTuple):
    start: int = 0
    step: int = 1

    def value_at(self, t: int) -> int:
        return self.start + self.step * t


class AffineRule(NamedTuple):
    """m(t+1) = (a * m(t) + b) mod modulus, iterated from ``start``."""

    a: int
    b: int
    modulus: int
    start: int

    def value_at(self, t: int) -> int:
        """m(t) in O(log t): the map x -> a*x + b is composed with itself by squaring."""
        # (scale, shift) is the map applied 2^k times, for k = 0, 1, 2, ...
        scale, shift, modulus, value = self
        value %= modulus
        while t > 0:
            if t & 1:
                value = (scale * value + shift) % modulus
            scale, shift = scale * scale % modulus, (scale * shift + shift) % modulus
            t >>= 1
        return value


class TableRule(NamedTuple):
    """Cyclic lookup table, so the rule stays total on all interaction indices."""

    values: tuple[int, ...]

    def value_at(self, t: int) -> int:
        if not self.values:
            raise ProviderError("table rule needs at least one value")
        return self.values[t % len(self.values)]


class MachineRule(NamedTuple):
    """Value at t = unary output of a machine run on t ones under loop detection."""

    machine: Machine
    budget: int = 10_000

    def value_at(self, t: int) -> int:
        try:
            result = run_for_ones(self.machine, unary_id(self.machine, t), self.budget)
        except MalformedIDError as exc:  # t ones, and the machine has no symbol 1
            raise ProviderError(f"machine rule cannot read its input at t={t}: {exc}") from exc
        if isinstance(result, int):
            return result
        kind = "looped" if not isinstance(result, BudgetExceeded) else "ran out of budget"
        raise ProviderError(f"machine rule {kind} at t={t}; uniform rules must terminate")


Rule = Union[ConstantRule, CounterRule, AffineRule, TableRule, MachineRule]


class UniformProvider(NamedTuple):
    rule: Rule


class HorizonProvider(NamedTuple):
    machine: HorizonMachine


Provider = Union[UniformProvider, HorizonProvider]


def value_function(provider: Provider) -> Callable[[int], Optional[int]]:
    """The function ``t -> value`` of ``provider``, chosen once.

    A uniform rule answers through its own ``value_at``.  A horizon machine
    answers None at and past its horizon, a horizon-exceeded entry, and below
    it the value its run leaves.  This is the one place that tells the two
    kinds apart for a value: ``provider_value``, so every signature and
    query, and each row of ``gu universe sim`` go through it.
    """
    if isinstance(provider, UniformProvider):
        return provider.rule.value_at
    machine = provider.machine
    horizon = machine.horizon

    def horizon_value(t: int) -> Optional[int]:
        return collapse.evaluate(machine, t) if t < horizon else None

    return horizon_value


def provider_value(provider: Provider, t: int) -> Optional[int]:
    """Value at interaction ``t``, through ``value_function``; None marks a horizon-exceeded entry."""
    return value_function(provider)(t)


# --- particles and universes ------------------------------------------------


class Signature(NamedTuple):
    """One particle's property -> value assignment at one interaction.

    ``values`` covers the properties the particle provides; an entry of
    None flags a horizon-exceeded value rather than failing the row.
    """

    particle: int
    interaction: int
    values: Mapping[int, Optional[int]]


class Particle(NamedTuple):
    id: int
    providers: Mapping[int, Provider]


def particle_signature(particle: Particle, t: int) -> Signature:
    values = {k: provider_value(particle.providers[k], t) for k in sorted(particle.providers)}
    return Signature(particle.id, t, values)


class Universe(NamedTuple):
    registry: Registry
    particles: tuple[Particle, ...]
    clock: int = 0

    def particle(self, i: int) -> Particle:
        for particle in self.particles:
            if particle.id == i:
                return particle
        raise UnknownParticleError(f"no particle with id {i}")


def signature_query(u: Universe, i: int, t: int, k: int) -> QueryResult:
    """Answer p(i, t, k, ?) totally: a value, VACUOUS, or HORIZON_EXCEEDED.

    Unregistered property numbers (0 included) answer VACUOUS, as do
    registered properties the particle carries no provider for.
    """
    if t < 0:
        raise GodelsimError("t must be >= 0")
    particle = u.particle(i)
    if k not in u.registry:
        return VACUOUS
    provider = particle.providers.get(k)
    if provider is None:
        return VACUOUS
    value = provider_value(provider, t)
    return HORIZON_EXCEEDED if value is None else value


def signature_at(u: Universe, i: int, t: int) -> Signature:
    if t < 0:
        raise GodelsimError("t must be >= 0")
    return particle_signature(u.particle(i), t)


def step_universe(u: Universe) -> Universe:
    """Advance every particle's interaction counter and materialize the new row."""
    advanced = u._replace(clock=u.clock + 1)
    for particle in advanced.particles:
        particle_signature(particle, advanced.clock)
    return advanced


def history(u: Universe, i: int, t: int) -> list[Signature]:
    """Signatures at interactions 0 .. t-1, oldest first; empty when t = 0."""
    if t < 0:
        raise GodelsimError("t must be >= 0")
    particle = u.particle(i)
    return [particle_signature(particle, s) for s in range(t)]


def godelian_point(u: Universe, i: int, t: int, props: Sequence[int]) -> list[QueryResult]:
    """Coordinate vector of the particle at ``t`` along the requested property axes."""
    return [signature_query(u, i, t, k) for k in props]


def measure(u: Universe, i: int, k: int, t: int) -> Universe:
    """Collapse the horizon provider at (particle, property) so ``t`` is evaluable."""
    particle = u.particle(i)
    provider = particle.providers.get(k)
    if not isinstance(provider, HorizonProvider):
        raise ProviderError(f"property {k} of particle {i} is not horizon-backed")
    collapsed = HorizonProvider(collapse.measure(provider.machine, t))
    providers = dict(particle.providers)
    providers[k] = collapsed
    particles = tuple(
        Particle(p.id, providers) if p.id == i else p for p in u.particles
    )
    return u._replace(particles=particles)


# --- predictability --------------------------------------------------------


class Predictable(_Frozen):
    __slots__ = ("stable_value", "stabilized_at")
    stable_value: int
    stabilized_at: int

    def __init__(self, stable_value: int, stabilized_at: int) -> None:
        object.__setattr__(self, "stable_value", stable_value)
        object.__setattr__(self, "stabilized_at", stabilized_at)


class Random(_Frozen):
    __slots__ = ("witness",)
    witness: tuple[int, int]

    def __init__(self, witness: tuple[int, int]) -> None:
        object.__setattr__(self, "witness", witness)


class Undetermined(_Frozen):
    __slots__ = ("window",)
    window: int

    def __init__(self, window: int) -> None:
        object.__setattr__(self, "window", window)


PredictabilityVerdict = Union[Predictable, Random, Undetermined]


def classify_predictability(values: Sequence[int], window: int) -> PredictabilityVerdict:
    """Eventually-constant test over an observation window.

    Integer sequences converge exactly when they are eventually constant,
    so the verdict is Predictable when the last ``window`` observations
    agree (stabilized_at = start of the final constant run), Random when
    two observations inside that window differ, and Undetermined only
    when fewer than ``window`` observations exist.
    """
    if window < 1:
        raise GodelsimError("window must be >= 1")
    if len(values) == 0:
        raise GodelsimError("values must be non-empty")
    if len(values) < window:
        return Undetermined(window)
    start = len(values) - window
    for idx in range(start, len(values) - 1):
        if values[idx] != values[idx + 1]:
            return Random((idx, idx + 1))
    stable = values[-1]
    first = len(values) - 1
    while first > 0 and values[first - 1] == stable:
        first -= 1
    return Predictable(stable, first)


# --- condition checks -------------------------------------------------------


class FitEntry(NamedTuple):
    particle: int
    prop: int
    prop_name: str
    uniform: bool
    values: tuple[int, ...]
    pair: Optional[BetaPair]
    found: bool


class PredestinationReport(NamedTuple):
    horizon: int
    bound: int
    all_uniform: bool
    entries: tuple[FitEntry, ...]

    @property
    def all_found(self) -> bool:
        return self.all_uniform and all(entry.found for entry in self.entries)


def check_predestination_sufficient(u: Universe, horizon: int, bound: int) -> PredestinationReport:
    """Fit one characteristic pair per (particle, property) over a simulated prefix.

    Each uniform provider is simulated for ``horizon`` interactions and the
    least pair within ``bound`` reproducing the value sequence is searched
    for.  Non-uniform providers make the check meaningless and are flagged,
    not fitted.  A pair missing inside the bound is a bound failure, not a
    refutation.
    """
    if horizon < 1:
        raise GodelsimError("horizon must be >= 1")
    entries: list[FitEntry] = []
    for particle in u.particles:
        for k in sorted(particle.providers):
            provider = particle.providers[k]
            name = u.registry.name_of(k) or str(k)
            if not isinstance(provider, UniformProvider):
                entries.append(FitEntry(particle.id, k, name, False, (), None, False))
                continue
            values = tuple(provider.rule.value_at(t) for t in range(horizon))
            pair = fit_characteristic_beta(values, bound)
            entries.append(
                FitEntry(particle.id, k, name, True, values, pair, pair is not None)
            )
    all_uniform = all(entry.uniform for entry in entries)
    return PredestinationReport(horizon, bound, all_uniform, tuple(entries))


class UniverseClass(enum.Enum):
    PRE_DESTINED = "pre-destined"
    PARTIALLY_PRE_DESTINED = "partially-pre-destined"
    QUANTUM = "quantum"


class ParticleReport(NamedTuple):
    particle: int
    initial_materialized: bool
    has_horizon: bool
    fundamental: bool


class ObstructionReport(NamedTuple):
    classification: UniverseClass
    particles: tuple[ParticleReport, ...]

    @property
    def fundamental_particles(self) -> tuple[int, ...]:
        return tuple(p.particle for p in self.particles if p.fundamental)


def check_predictability_obstruction(u: Universe) -> ObstructionReport:
    """Report initial-signature knowability and horizon obstructions per particle.

    Only provider kinds are read; no provider runs, so a rule that fails is
    not found here.  A uniform value is never None and a horizon value at
    t=0 is None only at horizon 0, so the initial signature is materialized
    when every horizon is above 0.  The universe is pre-destined when no
    particle is horizon-backed, quantum when every particle is
    horizon-backed only, and partially pre-destined otherwise.  Particles
    whose providers are all uniform are the fundamental ones; a quantum
    universe has none.
    """
    reports = []
    for particle in u.particles:
        horizons = [p.machine.horizon for p in particle.providers.values() if isinstance(p, HorizonProvider)]
        reports.append(ParticleReport(particle.id, all(h > 0 for h in horizons), bool(horizons), not horizons))
    any_uniform = any(
        isinstance(p, UniformProvider)
        for particle in u.particles
        for p in particle.providers.values()
    )
    if not any(r.has_horizon for r in reports):
        classification = UniverseClass.PRE_DESTINED
    elif all(r.has_horizon for r in reports) and not any_uniform:
        classification = UniverseClass.QUANTUM
    else:
        classification = UniverseClass.PARTIALLY_PRE_DESTINED
    return ObstructionReport(classification, tuple(reports))


# --- configuration files ----------------------------------------------------


class SimSetup(NamedTuple):
    universe: Universe
    steps: int
    window: int


# Each uniform rule: its class, then its parameters in the order the class takes
# them, as name: (type, default, least).  A parameter with no default is required,
# and least bounds every integer it holds (None: any integer).  Values are
# naturals, so constant, counter and table values are >= 0; affine values are
# residues mod >= 1 and machine values are counts of ones, so a, b and the affine
# start may be any integer.  A tuple is read as v0|v1|..., a Machine from a file
# named relative to the config.
_RULES = {
    "constant": (ConstantRule, {"value": (int, None, 0)}),
    "counter": (CounterRule, {"start": (int, 0, 0), "step": (int, 1, 0)}),
    "affine": (AffineRule, {"a": (int, None, None), "b": (int, None, None), "mod": (int, None, 1),
                            "start": (int, None, None)}),
    "table": (TableRule, {"values": (tuple, None, 0)}),
    "machine": (MachineRule, {"file": (Machine, None, None), "budget": (int, 10_000, 0)}),
}
# A horizon spec names its predicate, then k0; the horizon machine itself refuses k0 < 1.
_HORIZON = (collapse.make_horizon_machine, {"k0": (int, 1, None)})


def parse_provider_spec(spec: str, base_dir: Optional[Path] = None) -> Provider:
    """Parse ``uniform:<rule>,k=v,...`` or ``horizon:<predicate>,k0=<n>``."""
    kind, _, rest = spec.partition(":")
    name, *parts = rest.split(",")
    if kind == "horizon":
        (make, params), args = _HORIZON, [name]
    elif kind != "uniform":
        raise ConfigError(f"unknown provider kind {kind!r} in {spec!r}")
    elif name in _RULES:
        (make, params), args = _RULES[name], []
    else:
        raise ConfigError(f"unknown uniform rule {name!r} in {spec!r}")
    given: dict[str, str] = {}
    for part in filter(None, parts):
        key, eq, text = part.partition("=")
        if not eq:
            raise ConfigError(f"bad parameter {part!r} in provider spec {spec!r}")
        if key in given or key not in params:
            raise ConfigError(f"{'repeated' if key in given else 'unknown'} parameter {key!r} in {spec!r}")
        given[key] = text
    for key, (form, default, least) in params.items():
        text = given.get(key)
        if text is None:
            if default is None:
                raise ConfigError(f"missing parameter {key!r} in {spec!r}")
            args.append(default)
        elif form is Machine:
            try:
                args.append(load_machine_file((base_dir or Path()) / text))
            except (OSError, MachineParseError) as exc:
                raise ConfigError(f"machine file in {spec!r}: {exc}") from exc
        else:
            try:
                value = tuple(map(int, text.split("|"))) if form is tuple else int(text)
            except ValueError as exc:
                raise ConfigError(f"bad number in {spec!r}: {exc}") from exc
            if least is not None and (min(value) if form is tuple else value) < least:
                raise ConfigError(f"{name} rule needs {key} >= {least} in {spec!r}")
            args.append(value)
    try:
        made = make(*args)
    except GodelsimError as exc:  # a horizon machine's predicate or k0
        raise ConfigError(f"{exc} in {spec!r}") from exc
    return HorizonProvider(made) if kind == "horizon" else UniformProvider(made)


# Each JSON level of a config: the keys it may hold, as key: (JSON type, default,
# least).  An absent key takes its default, and least bounds an integer (None: any).
_FIELDS = {
    "top": {"properties": (list, [], None), "values": (list, [], None), "particles": (list, [], None),
            "steps": (int, 5, 0), "window": (int, 3, 1)},
    "particle": {"id": (int, None, None), "providers": (dict, {}, None), "initial": (dict, {}, None)},
}
_JSON_NAMES = {int: "an integer", list: "a list", dict: "an object"}


def _fields(path: Path, data: dict, level: str, where: str = "") -> list:
    """The values of ``data`` for the keys of ``level``, in table order, each checked."""
    fields = _FIELDS[level]
    unknown = data.keys() - fields.keys()
    if unknown:
        raise ConfigError(f"{path}: unknown key {min(unknown)!r}{where}")
    values = []
    for key, (kind, default, least) in fields.items():
        value = data.get(key, default)
        if type(value) is not kind:  # JSON true is no integer, nor 2.0
            raise ConfigError(f"{path}: expected {_JSON_NAMES[kind]} {key}{where}, got {value!r}")
        if least is not None and value < least:
            raise ConfigError(f"{path}: expected {key}{where} >= {least}, got {value}")
        values.append(value)
    return values


def load_universe_config(path: str | Path) -> SimSetup:
    """Load a JSON universe description: registry entries, particles, horizon."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"{path}: {exc}") from exc
    if type(data) is not dict:
        raise ConfigError(f"{path}: top level must be an object")
    properties, values, entries, steps, window = _fields(path, data, "top")
    base_dir = path.parent
    registry = Registry()
    for key, names in (("properties", properties), ("values", values)):
        for name in names:
            # A lone surrogate such as "\ud800" has no UTF-8 form, so no column could name it.
            if type(name) is not str or not name or (
                not name.isascii() and name.encode("utf-8", "ignore").decode() != name
            ):
                raise ConfigError(f"{path}: {key} entry {name!r} must be a non-empty UTF-8 string")
            registry.register(name)
    numbers = {name: registry.number_of(name) for name in properties}
    particles = []
    for entry in entries:
        if type(entry) is not dict:
            raise ConfigError(f"{path}: particles entry {entry!r} must be an object")
        where = f" of particle {entry.get('id')!r}"
        pid, specs, initial = _fields(path, entry, "particle", where)
        providers: dict[int, Provider] = {}
        for name, spec in specs.items():
            if name not in numbers:
                raise ConfigError(f"{path}: provider for {name!r}{where} names no entry of properties")
            if type(spec) is not str:
                raise ConfigError(f"{path}: provider for {name!r}{where} must be a string, got {spec!r}")
            try:
                providers[numbers[name]] = parse_provider_spec(spec, base_dir)
            except GodelsimError as exc:
                raise ConfigError(f"{path}: provider for {name!r}{where}: {exc}") from exc
        for name, declared in initial.items():
            number = numbers.get(name)
            if number not in providers:
                raise ConfigError(f"{path}: initial value for unprovided property {name!r}{where}")
            try:
                actual = provider_value(providers[number], 0)
            except ProviderError as exc:
                raise ConfigError(f"{path}: initial value for {name!r}{where}: {exc}") from exc
            if type(declared) is not int or declared != actual:
                raise ConfigError(f"{path}: initial value for {name!r}{where} must be the provider "
                                  f"value {actual} at t=0, got {declared!r}")
        particles.append(Particle(pid, providers))
    if len({p.id for p in particles}) != len(particles):
        raise ConfigError(f"{path}: duplicate particle ids")
    return SimSetup(Universe(registry, tuple(particles)), steps, window)
