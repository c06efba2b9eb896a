"""Particles, numbered properties, signatures, and world-line condition checks.

Property and value names share one registry: a string is numbered by the
order of its first registration, and number 0 is reserved so "not a
property" has a designated answer.  Each particle carries one value provider per
property: either a uniform rule that answers every interaction index by
a terminating computation, or a horizon machine that only answers below
its current horizon.  Queries never diverge; they return a value, the
vacuous marker, or the horizon marker.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from . import GodelsimError, collapse
from .beta import BetaPair, fit_characteristic_beta
from .collapse import HorizonMachine
from .machine import (
    BudgetExceeded,
    Machine,
    MachineParseError,
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


@dataclass(frozen=True)
class ConstantRule:
    value: int

    def value_at(self, t: int) -> int:
        return self.value


@dataclass(frozen=True)
class CounterRule:
    start: int = 0
    step: int = 1

    def value_at(self, t: int) -> int:
        return self.start + self.step * t


@dataclass(frozen=True)
class AffineRule:
    """m(t+1) = (a * m(t) + b) mod modulus, iterated from ``start``."""

    a: int
    b: int
    modulus: int
    start: int

    def value_at(self, t: int) -> int:
        """m(t) in O(log t): the map x -> a*x + b is composed with itself by squaring."""
        value = self.start % self.modulus
        # (scale, shift) is the map applied 2^k times, for k = 0, 1, 2, ...
        scale, shift = self.a, self.b
        while t > 0:
            if t & 1:
                value = (scale * value + shift) % self.modulus
            scale, shift = scale * scale % self.modulus, (scale * shift + shift) % self.modulus
            t >>= 1
        return value


@dataclass(frozen=True)
class TableRule:
    """Cyclic lookup table, so the rule stays total on all interaction indices."""

    values: tuple[int, ...]

    def value_at(self, t: int) -> int:
        if not self.values:
            raise ProviderError("table rule needs at least one value")
        return self.values[t % len(self.values)]


@dataclass(frozen=True)
class MachineRule:
    """Value at t = unary output of a machine run on t ones under loop detection."""

    machine: Machine
    budget: int = 10_000

    def value_at(self, t: int) -> int:
        result = run_for_ones(self.machine, unary_id(self.machine, t), self.budget)
        if isinstance(result, int):
            return result
        kind = "looped" if not isinstance(result, BudgetExceeded) else "ran out of budget"
        raise ProviderError(f"machine rule {kind} at t={t}; uniform rules must terminate")


Rule = Union[ConstantRule, CounterRule, AffineRule, TableRule, MachineRule]


@dataclass(frozen=True)
class UniformProvider:
    rule: Rule


@dataclass(frozen=True)
class HorizonProvider:
    machine: HorizonMachine


Provider = Union[UniformProvider, HorizonProvider]


def provider_value(provider: Provider, t: int) -> Optional[int]:
    """Value at interaction ``t``; None marks a horizon-exceeded entry."""
    if isinstance(provider, UniformProvider):
        return provider.rule.value_at(t)
    if t >= provider.machine.horizon:
        return None
    value = collapse.evaluate(provider.machine, t)
    assert isinstance(value, int)
    return value


# --- particles and universes ------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """One particle's property -> value assignment at one interaction.

    ``values`` covers the properties the particle provides; an entry of
    None flags a horizon-exceeded value rather than failing the row.
    """

    particle: int
    interaction: int
    values: Mapping[int, Optional[int]]


@dataclass(frozen=True)
class Particle:
    id: int
    providers: Mapping[int, Provider]

    @property
    def initial_signature(self) -> Signature:
        return particle_signature(self, 0)


def particle_signature(particle: Particle, t: int) -> Signature:
    values = {k: provider_value(particle.providers[k], t) for k in sorted(particle.providers)}
    return Signature(particle.id, t, values)


@dataclass(frozen=True)
class Universe:
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
    advanced = replace(u, clock=u.clock + 1)
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
    return replace(u, particles=particles)


# --- predictability --------------------------------------------------------


@dataclass(frozen=True)
class Predictable:
    stable_value: int
    stabilized_at: int


@dataclass(frozen=True)
class Random:
    witness: tuple[int, int]


@dataclass(frozen=True)
class Undetermined:
    window: int


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


@dataclass(frozen=True)
class FitEntry:
    particle: int
    prop: int
    prop_name: str
    uniform: bool
    values: tuple[int, ...]
    pair: Optional[BetaPair]
    found: bool


@dataclass(frozen=True)
class PredestinationReport:
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


@dataclass(frozen=True)
class ParticleReport:
    particle: int
    initial_materialized: bool
    has_horizon: bool
    fundamental: bool


@dataclass(frozen=True)
class ObstructionReport:
    classification: UniverseClass
    particles: tuple[ParticleReport, ...]

    @property
    def fundamental_particles(self) -> tuple[int, ...]:
        return tuple(p.particle for p in self.particles if p.fundamental)


def check_predictability_obstruction(u: Universe) -> ObstructionReport:
    """Report initial-signature knowability and horizon obstructions per particle.

    The universe is pre-destined when no particle is horizon-backed,
    quantum when every particle is horizon-backed only, and partially
    pre-destined otherwise.  Particles whose providers are all uniform
    are the fundamental ones; a quantum universe has none.
    """
    reports = []
    for particle in u.particles:
        initial = particle.initial_signature
        materialized = all(value is not None for value in initial.values.values())
        kinds = [isinstance(p, HorizonProvider) for p in particle.providers.values()]
        has_horizon = any(kinds)
        fundamental = not has_horizon
        reports.append(ParticleReport(particle.id, materialized, has_horizon, fundamental))
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


@dataclass(frozen=True)
class SimSetup:
    universe: Universe
    steps: int
    window: int


def _parse_params(parts: list[str], spec: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise ConfigError(f"bad parameter {part!r} in provider spec {spec!r}")
        key, value = part.split("=", 1)
        params[key] = value
    return params


def parse_provider_spec(spec: str, base_dir: Optional[Path] = None) -> Provider:
    """Parse ``uniform:<rule>,k=v,...`` or ``horizon:<predicate>,k0=<n>``."""
    kind, _, rest = spec.partition(":")
    parts = [p for p in rest.split(",") if p]
    if kind == "horizon":
        if not parts:
            raise ConfigError(f"horizon spec needs a predicate: {spec!r}")
        params = _parse_params(parts[1:], spec)
        try:
            k0 = int(params.pop("k0", "1"))
        except ValueError as exc:
            raise ConfigError(f"bad k0 in {spec!r}: {exc}") from exc
        if params:
            raise ConfigError(f"unknown horizon parameters {sorted(params)} in {spec!r}")
        try:
            return HorizonProvider(collapse.make_horizon_machine(parts[0], k0))
        except ValueError as exc:
            raise ConfigError(f"{exc} in {spec!r}") from exc
    if kind != "uniform":
        raise ConfigError(f"unknown provider kind {kind!r} in {spec!r}")
    if not parts:
        raise ConfigError(f"uniform spec needs a rule: {spec!r}")
    rule_name, params = parts[0], _parse_params(parts[1:], spec)
    try:
        if rule_name == "constant":
            rule: Rule = ConstantRule(int(params.pop("value")))
        elif rule_name == "counter":
            rule = CounterRule(int(params.pop("start", "0")), int(params.pop("step", "1")))
        elif rule_name == "affine":
            rule = AffineRule(
                int(params.pop("a")),
                int(params.pop("b")),
                int(params.pop("mod")),
                int(params.pop("start")),
            )
            if rule.modulus < 1:
                raise ConfigError(f"affine rule needs mod >= 1 in {spec!r}")
        elif rule_name == "table":
            rule = TableRule(tuple(int(v) for v in params.pop("values").split("|")))
        elif rule_name == "machine":
            path = Path(params.pop("file"))
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            rule = MachineRule(load_machine_file(path), int(params.pop("budget", "10000")))
            if rule.budget < 0:
                raise ConfigError(f"machine rule needs budget >= 0 in {spec!r}")
        else:
            raise ConfigError(f"unknown uniform rule {rule_name!r} in {spec!r}")
    except KeyError as exc:
        raise ConfigError(f"missing parameter {exc.args[0]!r} in {spec!r}") from exc
    except (OSError, MachineParseError) as exc:
        raise ConfigError(f"machine file in {spec!r}: {exc}") from exc
    except GodelsimError:
        raise  # already says what is wrong; the next clause is for int() failures
    except ValueError as exc:
        raise ConfigError(f"bad number in {spec!r}: {exc}") from exc
    if params:
        raise ConfigError(f"unknown parameters {sorted(params)} in {spec!r}")
    return UniformProvider(rule)


def _is_int(value) -> bool:
    """Whether a JSON value is an integer: not a float, a string or a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _config_int(path: Path, what: str, value) -> int:
    if not _is_int(value):
        raise ConfigError(f"{path}: {what} must be an integer, got {value!r}")
    return value


_JSON_KINDS = {list: "a list", dict: "an object"}
_TOP_KEYS = {"properties", "values", "particles", "steps", "window"}
_PARTICLE_KEYS = {"id", "providers", "initial"}


def _known_keys(path: Path, data: dict, known: set[str], where: str = "") -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}{where}")


def _config_field(path: Path, data: dict, key: str, kind: type, where: str = ""):
    """``data[key]``, empty when absent; a JSON list or object, as ``kind`` says."""
    value = data.get(key, kind())
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: {key}{where} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def load_universe_config(path: str | Path) -> SimSetup:
    """Load a JSON universe description: registry entries, particles, horizon."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _known_keys(path, data, _TOP_KEYS)
    registry = Registry()
    for key in ("properties", "values"):
        for name in _config_field(path, data, key, list):
            if not isinstance(name, str):
                raise ConfigError(f"{path}: {key} entry {name!r} must be a string")
            registry.register(name)
    particles = []
    for entry in _config_field(path, data, "particles", list):
        pid = entry.get("id") if isinstance(entry, dict) else None
        if not _is_int(pid):
            raise ConfigError(f"{path}: particle entry needs an integer id")
        where = f" of particle {pid}"
        _known_keys(path, entry, _PARTICLE_KEYS, where)
        providers: dict[int, Provider] = {}
        for prop_name, spec in _config_field(path, entry, "providers", dict, where).items():
            number = registry.number_of(prop_name)
            if number is None:
                raise ConfigError(f"{path}: provider for unregistered property {prop_name!r}")
            if not isinstance(spec, str):
                raise ConfigError(
                    f"{path}: provider for {prop_name!r}{where} must be a string, got {spec!r}"
                )
            try:
                providers[number] = parse_provider_spec(spec, path.parent)
            except GodelsimError as exc:
                raise ConfigError(f"{path}: provider for {prop_name!r}{where}: {exc}") from exc
        for prop_name, declared in _config_field(path, entry, "initial", dict, where).items():
            number = registry.number_of(prop_name)
            if number is None or number not in providers:
                raise ConfigError(f"{path}: initial value for unprovided property {prop_name!r}")
            actual = provider_value(providers[number], 0)
            if actual != _config_int(path, f"initial value for {prop_name!r}", declared):
                raise ConfigError(
                    f"{path}: initial value {declared} for {prop_name!r} does not match "
                    f"the provider value {actual} at t=0"
                )
        particles.append(Particle(pid, providers))
    ids = [p.id for p in particles]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{path}: duplicate particle ids")
    steps = _config_int(path, "steps", data.get("steps", 5))
    window = _config_int(path, "window", data.get("window", 3))
    if steps < 0 or window < 1:
        raise ConfigError(f"{path}: steps must be >= 0 and window >= 1")
    return SimSetup(Universe(registry, tuple(particles)), steps, window)
