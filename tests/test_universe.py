"""Registry numbering, signature queries, world-line checks, and config loading."""

import itertools
import json
import random

import pytest

from godelsim.beta import beta_eval
from godelsim.universe import (
    AffineRule,
    ConfigError,
    ConstantRule,
    CounterRule,
    HORIZON_EXCEEDED,
    HorizonProvider,
    Particle,
    Predictable,
    ProviderError,
    Random,
    Registry,
    TableRule,
    Undetermined,
    UniformProvider,
    Universe,
    UniverseClass,
    UnknownParticleError,
    VACUOUS,
    check_predestination_sufficient,
    check_predictability_obstruction,
    classify_predictability,
    godelian_point,
    history,
    load_universe_config,
    measure,
    parse_provider_spec,
    signature_at,
    signature_query,
    step_universe,
    value_function,
)
from godelsim import collapse

from helpers import oracle_classify


def build_universe(providers_by_particle, names=("alpha", "beta", "gamma")):
    registry = Registry()
    numbers = {name: registry.register(name) for name in names}
    particles = tuple(
        Particle(pid, {numbers[name]: provider for name, provider in providers.items()})
        for pid, providers in providers_by_particle.items()
    )
    return Universe(registry, particles), numbers


def test_register_is_idempotent():
    registry = Registry()
    assert registry.register("mass") == registry.register("mass") == 1


def test_register_numbers_by_first_registration():
    registry = Registry()
    assert registry.register("mass") == 1
    assert registry.register("spin") == 2


def test_register_bijection_on_many_names():
    registry = Registry()
    numbers = [registry.register(f"prop{i}") for i in range(100)]
    assert len(set(numbers)) == 100
    assert all(registry.name_of(n) == f"prop{i}" for i, n in enumerate(numbers))
    assert all(registry.number_of(f"prop{i}") == n for i, n in enumerate(numbers))


def test_query_unregistered_property_is_vacuous():
    u, numbers = build_universe({1: {"alpha": UniformProvider(ConstantRule(5))}})
    assert signature_query(u, 1, 0, 0) is VACUOUS
    assert signature_query(u, 1, 3, 999) is VACUOUS


def test_query_registered_but_unprovided_property_is_vacuous():
    u, numbers = build_universe({1: {"alpha": UniformProvider(ConstantRule(5))}})
    assert signature_query(u, 1, 2, numbers["beta"]) is VACUOUS


def test_query_constant_provider_everywhere():
    u, numbers = build_universe({1: {"alpha": UniformProvider(ConstantRule(5))}})
    assert all(signature_query(u, 1, t, numbers["alpha"]) == 5 for t in range(10))


def test_query_unknown_particle():
    u, _ = build_universe({1: {"alpha": UniformProvider(ConstantRule(5))}})
    with pytest.raises(UnknownParticleError):
        signature_query(u, 9, 0, 1)


def test_horizon_provider_query_and_measure():
    hm = collapse.make_horizon_machine("parity", 3)
    u, numbers = build_universe({1: {"alpha": HorizonProvider(hm)}})
    k = numbers["alpha"]
    assert signature_query(u, 1, 7, k) is HORIZON_EXCEEDED
    collapsed = measure(u, 1, k, 10)
    assert signature_query(collapsed, 1, 7, k) == 1
    assert signature_query(u, 1, 7, k) is HORIZON_EXCEEDED  # original untouched


def test_step_universe_counts_interactions():
    u, numbers = build_universe({1: {"alpha": UniformProvider(CounterRule(0, 1))}})
    for _ in range(3):
        u = step_universe(u)
    assert u.clock == 3
    assert signature_query(u, 1, u.clock, numbers["alpha"]) == 3


def test_empty_universe_steps_to_empty_universe():
    u = Universe(Registry(), ())
    assert step_universe(u).particles == ()
    assert step_universe(u).clock == 1


def test_two_particles_evolve_componentwise():
    rules = {"alpha": UniformProvider(CounterRule(2, 3)), "beta": UniformProvider(ConstantRule(1))}
    pair, numbers = build_universe({1: dict(rules), 2: {"alpha": UniformProvider(AffineRule(2, 1, 7, 3))}})
    solo1, _ = build_universe({1: dict(rules)})
    solo2, _ = build_universe({2: {"alpha": UniformProvider(AffineRule(2, 1, 7, 3))}})
    for t in range(6):
        assert signature_at(pair, 1, t) == signature_at(solo1, 1, t)
        assert signature_at(pair, 2, t) == signature_at(solo2, 2, t)


def test_history_lengths_and_prefix_law():
    u, numbers = build_universe({1: {"alpha": UniformProvider(CounterRule())}})
    assert history(u, 1, 0) == []
    assert history(u, 1, 1) == [signature_at(u, 1, 0)]
    for t in range(20):
        assert len(history(u, 1, t)) == t
    later = step_universe(step_universe(u))
    assert history(u, 1, 5) == history(later, 1, 5)


def test_godelian_point_projection():
    u, numbers = build_universe(
        {1: {"alpha": UniformProvider(ConstantRule(4)), "beta": UniformProvider(CounterRule())}}
    )
    assert godelian_point(u, 1, 3, []) == []
    assert godelian_point(u, 1, 3, [numbers["alpha"]]) == [4]
    rng = random.Random(3)
    props = [numbers["alpha"], numbers["beta"], 99]
    for _ in range(10):
        t = rng.randint(0, 8)
        point = godelian_point(u, 1, t, props)
        assert point == [signature_query(u, 1, t, k) for k in props]


def test_classify_constant_sequence():
    assert classify_predictability([5, 5, 5, 5], 3) == Predictable(5, 0)


def test_classify_alternating_sequence():
    verdict = classify_predictability([0, 1, 0, 1, 0, 1], 3)
    assert isinstance(verdict, Random)
    i, j = verdict.witness
    assert 3 <= i < j <= 5


def test_classify_stabilizing_sequence():
    assert classify_predictability([7, 7, 3, 3, 3, 3, 3], 4) == Predictable(3, 2)


def test_classify_short_sequence_undetermined():
    assert classify_predictability([1, 2], 3) == Undetermined(3)


def test_classifier_agrees_with_oracle_exhaustively():
    for window in (1, 2, 5, 6):
        for length in range(1, 7):
            for values in itertools.product((0, 1, 2), repeat=length):
                verdict = classify_predictability(list(values), window)
                expected = oracle_classify(values, window)
                if expected[0] == "undetermined":
                    assert verdict == Undetermined(window)
                elif expected[0] == "predictable":
                    assert verdict == Predictable(expected[1], expected[2])
                else:
                    assert verdict == Random((expected[1], expected[2]))


def test_predestination_check_on_constant_universe():
    u, _ = build_universe(
        {
            1: {"alpha": UniformProvider(ConstantRule(3)), "beta": UniformProvider(ConstantRule(0))},
            2: {"alpha": UniformProvider(ConstantRule(7))},
        }
    )
    report = check_predestination_sufficient(u, 6, 10_000)
    assert report.all_uniform and report.all_found
    for entry in report.entries:
        assert entry.pair is not None
        assert [beta_eval(entry.pair, i) for i in range(len(entry.values))] == list(entry.values)


def test_predestination_check_reports_bound_failure():
    u, _ = build_universe({1: {"alpha": UniformProvider(ConstantRule(9))}})
    report = check_predestination_sufficient(u, 2, 1)
    assert report.all_uniform and not report.all_found


def test_predestination_check_flags_non_uniform():
    hm = collapse.make_horizon_machine("parity", 5)
    u, _ = build_universe({1: {"alpha": HorizonProvider(hm)}})
    report = check_predestination_sufficient(u, 3, 100)
    assert not report.all_uniform and not report.all_found


def test_obstruction_all_uniform_is_predestined():
    u, _ = build_universe({1: {"alpha": UniformProvider(ConstantRule(1))}})
    report = check_predictability_obstruction(u)
    assert report.classification is UniverseClass.PRE_DESTINED
    assert report.fundamental_particles == (1,)
    assert all(p.initial_materialized for p in report.particles)


def test_obstruction_all_horizon_is_quantum_without_fundamentals():
    hm = collapse.make_horizon_machine("parity", 2)
    u, _ = build_universe(
        {1: {"alpha": HorizonProvider(hm)}, 2: {"beta": HorizonProvider(hm)}}
    )
    report = check_predictability_obstruction(u)
    assert report.classification is UniverseClass.QUANTUM
    assert report.fundamental_particles == ()


def test_obstruction_mixed_is_partially_predestined():
    hm = collapse.make_horizon_machine("parity", 2)
    u, _ = build_universe(
        {1: {"alpha": UniformProvider(ConstantRule(2))}, 2: {"beta": HorizonProvider(hm)}}
    )
    report = check_predictability_obstruction(u)
    assert report.classification is UniverseClass.PARTIALLY_PRE_DESTINED


def test_table_rule_cycles_and_affine_rule_iterates():
    table = TableRule((4, 9))
    assert [table.value_at(t) for t in range(5)] == [4, 9, 4, 9, 4]
    affine = AffineRule(2, 1, 5, 1)
    assert [affine.value_at(t) for t in range(4)] == [1, 3, 2, 0]


def test_affine_rule_agrees_with_iteration_from_start():
    rng = random.Random(61)
    rules = [AffineRule(a, b, 1, 7) for a in (0, 1, 5) for b in (0, 3)]
    rules += [AffineRule(a, rng.randint(-40, 40), rng.choice([2, 9, 97, -13]), rng.randint(-50, 50)) for a in (0, 1, -1)]
    for _ in range(30):
        modulus = rng.choice([rng.randint(2, 50), rng.randint(51, 10**9), -rng.randint(1, 50)])
        rules.append(AffineRule(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), modulus, rng.randint(-10**6, 10**6)))
    for rule in rules:
        value = rule.start % rule.modulus
        for t in range(3001):
            assert rule.value_at(t) == value, (rule, t)
            value = (rule.a * value + rule.b) % rule.modulus
        assert rule.value_at(-2) == rule.start % rule.modulus
    with pytest.raises(ZeroDivisionError):
        AffineRule(2, 1, 0, 3).value_at(5)


def test_parse_provider_specs():
    assert parse_provider_spec("uniform:constant,value=5") == UniformProvider(ConstantRule(5))
    assert parse_provider_spec("uniform:counter,start=2,step=3") == UniformProvider(CounterRule(2, 3))
    horizon = parse_provider_spec("horizon:parity,k0=3")
    assert isinstance(horizon, HorizonProvider)
    assert horizon.machine.horizon == 3
    with pytest.raises(ConfigError):
        parse_provider_spec("uniform:nonsense")
    with pytest.raises(ConfigError):
        parse_provider_spec("uniform:constant")
    with pytest.raises(ConfigError):
        parse_provider_spec("magic:beans")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("uniform:affine,a=1,b=0,mod=0,start=0", "affine rule needs mod >= 1 in {spec!r}"),
        ("uniform:bogus", "unknown uniform rule 'bogus' in {spec!r}"),
        ("uniform:machine,file=bad.tm",
         "machine file in {spec!r}: line 1, column 1: transition before states:/alphabet:/start: headers"),
        ("uniform:constant,value=x", "bad number in {spec!r}: invalid literal for int() with base 10: 'x'"),
        ("horizon:const=x", "invalid literal for int() with base 10: 'x' in {spec!r}"),
        ("horizon:parity,k0=0", "horizon must be >= 1 in {spec!r}"),
    ],
    ids=[
        "affine-mod-zero", "unknown-rule", "machine-parse-error", "bad-number", "horizon-const",
        "horizon-k0-zero",
    ],
)
def test_provider_spec_errors_keep_their_own_text(tmp_path, spec, message):
    # Every library error is a ValueError, so an `except ValueError` meant for int()
    # must not catch them and relabel them "bad number".
    (tmp_path / "bad.tm").write_text("q0 _ -> q0 _ R\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_provider_spec(spec, tmp_path)
    assert str(info.value) == message.format(spec=spec)


def test_load_universe_config(tmp_path):
    config = tmp_path / "world.json"
    config.write_text(
        '{"properties": ["x"], "particles": [{"id": 1, "providers": {"x": "uniform:counter"}}], "steps": 4}',
        encoding="utf-8",
    )
    setup = load_universe_config(config)
    assert setup.steps == 4
    assert signature_query(setup.universe, 1, 2, 1) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"particles": [{"id": 1, "providers": {"x": "uniform:counter"}}]}', "utf-8")
    with pytest.raises(ConfigError):
        load_universe_config(bad)


def test_config_initial_values_are_cross_checked(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        '{"properties": ["x"], "particles": [{"id": 1, '
        '"providers": {"x": "uniform:counter,start=4"}, "initial": {"x": 4}}]}',
        encoding="utf-8",
    )
    assert signature_query(load_universe_config(good).universe, 1, 0, 1) == 4
    wrong = tmp_path / "wrong.json"
    wrong.write_text(
        '{"properties": ["x"], "particles": [{"id": 1, '
        '"providers": {"x": "uniform:counter,start=4"}, "initial": {"x": 9}}]}',
        encoding="utf-8",
    )
    with pytest.raises(ConfigError):
        load_universe_config(wrong)


def test_config_value_names_share_the_registry(tmp_path):
    config = tmp_path / "named.json"
    config.write_text(
        '{"properties": ["x"], "values": ["up", "down"], '
        '"particles": [{"id": 1, "providers": {"x": "uniform:constant,value=2"}}]}',
        encoding="utf-8",
    )
    setup = load_universe_config(config)
    registry = setup.universe.registry
    assert registry.number_of("x") == 1
    assert registry.number_of("up") == 2 and registry.number_of("down") == 3
    # the constant value 2 is the number of the registered string "up"
    assert signature_query(setup.universe, 1, 0, 1) == registry.number_of("up")
    # a value name is no property, so it takes no provider
    stray = tmp_path / "stray.json"
    stray.write_text(
        '{"properties": ["x"], "values": ["red"], '
        '"particles": [{"id": 1, "providers": {"red": "uniform:constant,value=1"}}]}',
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as info:
        load_universe_config(stray)
    assert str(info.value) == f"{stray}: provider for 'red' of particle 1 names no entry of properties"


def test_repeated_queries_return_identical_results():
    hm = collapse.make_horizon_machine("parity", 3)
    u, numbers = build_universe(
        {1: {"alpha": UniformProvider(AffineRule(3, 2, 11, 1)), "beta": HorizonProvider(hm)}}
    )
    for t in (0, 2, 5):
        for k in (numbers["alpha"], numbers["beta"], 0, 42):
            results = {signature_query(u, 1, t, k) for _ in range(3)}
            assert len(results) == 1


def test_value_function_tells_uniform_rules_from_horizon_machines():
    rule = AffineRule(3, 2, 11, 1)
    assert value_function(UniformProvider(rule)) == rule.value_at
    pi = value_function(HorizonProvider(collapse.make_horizon_machine("pi", 4)))
    assert [pi(t) for t in range(7)] == [3, 1, 4, 1, None, None, None]


# On t ones: "append" leaves t + 1 ones, "loop" halts on t = 0 and loops from
# t = 1 on, "grow" halts on t = 0 and writes ones forever from t = 1 on, and
# "nox", with no symbol 1, halts on t = 0 and cannot read its input from t = 1 on.
RULE_MACHINES = {
    "append": "states: A H\nalphabet: _ 1\nstart: A\nA 1 -> A 1 R\nA _ -> H 1 R\n",
    "loop": "states: A B\nalphabet: _ 1\nstart: A\nA 1 -> B 1 L\nB _ -> A _ R\n",
    "grow": "states: A B\nalphabet: _ 1\nstart: A\nA 1 -> B 1 R\nB 1 -> B 1 R\nB _ -> B 1 R\n",
    "nox": "states: A B\nalphabet: _ x\nstart: A\nA _ -> B x R\n",
}


def test_machine_rule_answers_with_the_ones_its_run_leaves(tmp_path):
    for name, text in RULE_MACHINES.items():
        (tmp_path / f"{name}.tm").write_text(text, encoding="utf-8")
    providers = {name: f"uniform:machine,file={name}.tm,budget=40" for name in RULE_MACHINES}
    config = tmp_path / "machines.json"
    config.write_text(
        json.dumps(
            {
                "properties": list(RULE_MACHINES),
                "particles": [
                    {"id": 1, "providers": providers, "initial": {"append": 1, "loop": 0, "grow": 0, "nox": 0}}
                ],
            }
        ),
        encoding="utf-8",
    )
    u = load_universe_config(config).universe
    append, loop, grow, nox = (u.registry.number_of(name) for name in RULE_MACHINES)
    assert [signature_query(u, 1, t, append) for t in range(12)] == list(range(1, 13))
    with pytest.raises(ProviderError) as info:
        signature_query(u, 1, 1, loop)
    assert str(info.value) == "machine rule looped at t=1; uniform rules must terminate"
    with pytest.raises(ProviderError) as info:
        signature_query(u, 1, 3, grow)
    assert str(info.value) == "machine rule ran out of budget at t=3; uniform rules must terminate"
    with pytest.raises(ProviderError) as info:
        signature_query(u, 1, 1, nox)
    assert str(info.value) == "machine rule cannot read its input at t=1: symbol '1' not in machine alphabet"
