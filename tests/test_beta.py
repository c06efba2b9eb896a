"""Sequence codec: evaluation, CRT encoding, bounded matching, prediction, merging."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godelsim.beta import (
    BetaPair,
    EmptyMatchSetError,
    TagCollisionError,
    TaggedSequence,
    beta_encode,
    beta_eval,
    enumerate_matches,
    fit_characteristic_beta,
    next_value_distribution,
    superpose,
)

from helpers import brute_least_crt, brute_matches

sequences = st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6)


def test_eval_zero_pair():
    assert beta_eval(BetaPair(0, 1), 0) == 0


def test_eval_small_remainder():
    assert beta_eval(BetaPair(7, 1), 0) == 1  # modulus 2


def test_encode_single_zero():
    assert beta_encode([0]) == BetaPair(0, 1)


def test_encode_pi_prefix_against_brute_force_crt():
    pair = beta_encode([3, 1, 4])
    assert pair.c == math.factorial(4)  # max(n+1, max value) = 4
    moduli = [1 + (i + 1) * 24 for i in range(3)]
    assert moduli == [25, 49, 73]
    assert pair.b == brute_least_crt([3, 1, 4], moduli)
    assert [beta_eval(pair, i) for i in range(3)] == [3, 1, 4]


@settings(max_examples=200, deadline=None)
@given(sequences)
def test_roundtrip(seq):
    pair = beta_encode(seq)
    assert [beta_eval(pair, i) for i in range(len(seq))] == seq


def test_encode_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        beta_encode([])
    with pytest.raises(ValueError):
        beta_encode([1, -1])


def test_matches_single_zero_bound_two():
    assert enumerate_matches([0], 2) == [BetaPair(0, 1), BetaPair(2, 1), BetaPair(0, 2)]


def test_matches_empty_when_value_out_of_range():
    # With b <= 1 no remainder can reach 2.
    assert enumerate_matches([2], 1) == []


def test_matches_equal_brute_force_on_random_sequences():
    rng = random.Random(41)
    for _ in range(25):
        seq = [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
        bound = rng.randint(1, 60)
        got = [(p.b, p.c) for p in enumerate_matches(seq, bound)]
        assert got == brute_matches(seq, bound)


def test_match_set_shrinks_under_extension():
    rng = random.Random(43)
    for _ in range(30):
        seq = [rng.randint(0, 5) for _ in range(rng.randint(1, 4))]
        extra = rng.randint(0, 5)
        bound = rng.randint(1, 50)
        wider = set(enumerate_matches(seq, bound))
        narrower = set(enumerate_matches(seq + [extra], bound))
        assert narrower <= wider


def test_prediction_tally_for_single_zero():
    # Matching pairs at bound 2 are (0,1), (2,1), (0,2); their values at i=1
    # are 0 mod 3, 2 mod 3 and 0 mod 5.
    dist = next_value_distribution([0], 2)
    assert dist.counts == {0: 2, 2: 1}
    assert dist.total == 3
    assert dist.frequency(0) == Fraction(2, 3)


def test_prediction_includes_own_encoding():
    seq = [1, 0]
    pair = beta_encode(seq)
    bound = max(pair.b, pair.c)
    dist = next_value_distribution(seq, bound)
    assert dist.counts.get(beta_eval(pair, 2), 0) >= 1


def test_prediction_counts_monotone_under_extension():
    # Pairs matching s ++ [m] are exactly the pairs matching s that predict m,
    # so every extension's match count is bounded by the base match count.
    seq = [0, 1]
    bound = 40
    base = next_value_distribution(seq, bound)
    base_total = len(enumerate_matches(seq, bound))
    for extra in range(0, 10):
        extended = enumerate_matches(seq + [extra], bound)
        assert len(extended) == base.counts.get(extra, 0)
        assert len(extended) <= base_total


def test_prediction_frequencies_sum_to_one():
    dist = next_value_distribution([0, 1], 30)
    assert sum(dist.frequencies().values(), Fraction(0)) == 1


def test_prediction_raises_on_empty_match_set():
    with pytest.raises(EmptyMatchSetError):
        next_value_distribution([5], 2)


def test_fit_returns_least_pair():
    assert fit_characteristic_beta([0], 2) == BetaPair(0, 1)


def test_fit_found_when_encoding_is_within_bound():
    seq = [2, 0]
    pair = beta_encode(seq)
    bound = max(pair.b, pair.c)
    fitted = fit_characteristic_beta(seq, bound)
    assert fitted is not None
    assert [beta_eval(fitted, i) for i in range(len(seq))] == seq


def test_fit_absent_when_out_of_range():
    assert fit_characteristic_beta([9], 1) is None


def test_fit_agrees_with_head_of_match_list():
    rng = random.Random(47)
    for _ in range(20):
        seq = [rng.randint(0, 5) for _ in range(rng.randint(1, 3))]
        bound = rng.randint(1, 40)
        matches = enumerate_matches(seq, bound)
        assert fit_characteristic_beta(seq, bound) == (matches[0] if matches else None)


def test_superpose_identity_merge():
    a = TaggedSequence.from_pairs([(0, 5)])
    b = TaggedSequence.from_pairs([])
    assert superpose(a, b).entries == ((0, 5),)


def test_superpose_three_way_interleave():
    a = TaggedSequence.from_pairs([(0, 1), (2, 3)])
    b = TaggedSequence.from_pairs([(1, 7)])
    assert superpose(a, b).entries == ((0, 1), (1, 7), (2, 3))


def test_superpose_rejects_tag_collision():
    a = TaggedSequence.from_pairs([(0, 1)])
    b = TaggedSequence.from_pairs([(0, 2)])
    with pytest.raises(TagCollisionError):
        superpose(a, b)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 40), st.integers(0, 9), max_size=12), st.data())
def test_superpose_length_adds_on_disjoint_tags(tagged, data):
    tags = sorted(tagged)
    split = data.draw(st.integers(0, len(tags)))
    chosen = set(data.draw(st.permutations(tags))[:split])
    a = TaggedSequence.from_pairs(sorted((t, tagged[t]) for t in chosen))
    b = TaggedSequence.from_pairs(sorted((t, tagged[t]) for t in tags if t not in chosen))
    merged = superpose(a, b)
    assert len(merged) == len(a) + len(b)
    assert list(merged.tags) == tags


def test_tagged_sequence_requires_increasing_tags():
    with pytest.raises(ValueError):
        TaggedSequence.from_pairs([(3, 1), (1, 2)])


def test_fit_agrees_with_brute_force_at_larger_bounds():
    # The per-c congruence solver is the only fast path fit relies on;
    # check it against the raw grid at bounds past the unit-test range.
    rng = random.Random(53)
    for _ in range(10):
        seq = [rng.randint(0, 9) for _ in range(rng.randint(1, 6))]
        bound = rng.randint(200, 400)
        brute = brute_matches(seq, bound)
        fitted = fit_characteristic_beta(seq, bound)
        if brute:
            least_b, least_c = min(brute, key=lambda bc: (bc[1], bc[0]))
            assert fitted == BetaPair(least_b, least_c)
        else:
            assert fitted is None


# --- the congruence sieve behind matches, fit and predict --------------------


def check_against_brute_force(seq, bound):
    """All three queries agree with the raw (b, c) grid of ``brute_matches``."""
    brute = brute_matches(seq, bound)
    assert [(p.b, p.c) for p in enumerate_matches(seq, bound)] == brute
    fitted = fit_characteristic_beta(seq, bound)
    if not brute:
        assert fitted is None
        with pytest.raises(EmptyMatchSetError):
            next_value_distribution(seq, bound)
        return
    least_b, least_c = min(brute, key=lambda bc: (bc[1], bc[0]))
    assert fitted == BetaPair(least_b, least_c)
    dist = next_value_distribution(seq, bound)
    tally = Counter(b % (1 + (len(seq) + 1) * c) for b, c in brute)
    assert dist.counts == dict(tally)
    assert dist.total == len(brute)
    assert dist.bound == bound


def test_sieve_agrees_with_brute_force_on_random_sequences():
    rng = random.Random(59)
    for _ in range(60):
        seq = [rng.randint(0, 15) for _ in range(rng.randint(1, 6))]
        check_against_brute_force(seq, rng.randint(1, 300))


@pytest.mark.parametrize("c", [1, 2, 3, 5, 8])
def test_sieve_at_values_one_below_their_moduli(c):
    # seq[i] = (i+1)*c is the largest value modulus 1 + (i+1)*c allows, so
    # c is the least candidate; one less than that c can never match.
    for length in (1, 2, 3):
        seq = [(i + 1) * c for i in range(length)]
        for bound in (c, 2 * c, 60, 250):
            check_against_brute_force(seq, bound)


@pytest.mark.parametrize("length", [1, 2, 3, 5])
def test_sieve_on_constant_sequences(length):
    for value in (0, 1, 4, 11):
        for bound in (1, 12, 97, 200):
            check_against_brute_force([value] * length, bound)


@pytest.mark.parametrize("seq, bound", [([5], 2), ([0, 0, 1], 10), ([1, 0, 0], 20), ([0, 3, 2], 20), ([9, 9], 8)])
def test_sieve_without_any_match(seq, bound):
    assert brute_matches(seq, bound) == []
    check_against_brute_force(seq, bound)


def test_match_whose_b_equals_the_bound_is_kept():
    # (b, c) always matches its own values at bound b.  Where b is below the
    # lcm of its moduli it is the least realizing residue for c, so the last
    # CRT merge lands exactly on the bound.
    for c in (1, 2, 3):
        for b in range(c, 200):
            seq = [b % (1 + (i + 1) * c) for i in range(4)]
            assert BetaPair(b, c) in enumerate_matches(seq, b)
            assert fit_characteristic_beta(seq, b) is not None
            assert next_value_distribution(seq, b).total >= 1


@pytest.mark.parametrize("query", [enumerate_matches, fit_characteristic_beta, next_value_distribution])
def test_sieve_validation_errors_are_unchanged(query):
    cases = [
        ([], 5, "sequence must be non-empty"),
        ([], 0, "sequence must be non-empty"),
        ([1, -1], 5, "sequence values must be naturals"),
        ([-1], 0, "sequence values must be naturals"),
        ([0], 0, "bound must be >= 1"),
        ([3, 1], -4, "bound must be >= 1"),
    ]
    for seq, bound, message in cases:
        with pytest.raises(ValueError, match=message):
            query(seq, bound)


@pytest.mark.parametrize("value", [0, 2, 7, 150])
def test_single_value_prediction_total_at_bench_scale(value):
    # Pairs realizing [v] are b = v + k(c+1) for every c >= max(1, v).
    bound = 10_009
    expected = sum((bound - value) // (c + 1) + 1 for c in range(max(1, value), bound + 1))
    assert next_value_distribution([value], bound).total == expected


def test_prediction_memory_at_bench_scale():
    # Tallying straight over each c's progression keeps no pair objects:
    # under 1 MB here, against 12 MB when every BetaPair is built first.
    tracemalloc.start()
    try:
        dist = next_value_distribution([2], 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.total == 88_633
    assert peak < 4_000_000


def test_encode_moduli_are_pairwise_coprime():
    rng = random.Random(83)
    for n in range(1, 41):
        seq = [rng.randint(0, 45) for _ in range(n)]
        pair = beta_encode(seq)
        moduli = [1 + (i + 1) * pair.c for i in range(n)]
        assert all(math.gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[i + 1 :])
        assert [beta_eval(pair, i) for i in range(n)] == seq


def test_encode_rejects_moduli_that_share_a_factor(monkeypatch):
    # With c = 1 the moduli are 2, 3, 4: the third shares 2 with the first.
    monkeypatch.setattr(math, "factorial", lambda n: 1)
    with pytest.raises(AssertionError, match="moduli are not pairwise coprime"):
        beta_encode([0, 0, 0])


# --- product-tree encoding and the sieve's stop, against their references ----


def sequential_encode(seq):
    """The CRT merge one congruence at a time into a running product."""
    c = math.factorial(max(len(seq), max(seq)))
    b, modulus = 0, 1
    for i, value in enumerate(seq):
        m = 1 + (i + 1) * c
        b += modulus * (((value - b) * pow(modulus % m, -1, m)) % m)
        modulus *= m
    return BetaPair(b % modulus, c)


def test_encode_equals_the_sequential_merge_on_random_sequences():
    rng = random.Random(89)
    cases = [[0], [70], [0] * 70, [1] * 70, [69] * 33]
    for _ in range(200):
        n = rng.randint(1, 70)
        top = rng.choice([1, 9, 70, 150])
        cases.append([rng.randint(0, top) for _ in range(n)])
    for seq in cases:
        assert beta_encode(seq) == sequential_encode(seq), seq


def every_c_matches(seq, bound):
    """(c, b) grid of matches: for every c up to the bound, a generic CRT merge."""
    pairs = []
    for c in range(1, bound + 1):
        moduli = [1 + (i + 1) * c for i in range(len(seq))]
        if any(value >= m for value, m in zip(seq, moduli)):
            continue
        b, modulus = 0, 1
        for value, m in zip(seq, moduli):
            g = math.gcd(modulus, m)
            if (value - b) % g:
                break
            b += modulus * ((value - b) // g * pow(modulus // g, -1, m // g) % (m // g))
            modulus *= m // g
        else:
            pairs += [(c, x) for x in range(b % modulus, bound + 1, modulus)]
    return pairs


def test_sieve_stop_equals_a_test_of_every_c():
    rng = random.Random(97)
    # Below c = |v1 - v0| the least b of the first two values wraps and may fall
    # again: [0, 50] drops c = 25..48 at bound 100 and keeps c = 49 (b = 50).
    cases = [([5, 9], 3000), ([9, 5], 3000), ([7, 7], 3000), ([7, 3], 1), ([40, 2], 25),
             ([0, 50], 100), ([2, 90, 1], 400), ([3000, 3001], 2999), ([12, 0, 12], 3000),
             ([0, 0], 2), ([1], 3000)]
    for _ in range(60):
        v0 = rng.choice([rng.randint(0, 5), rng.randint(0, 60)])
        v1 = rng.choice([v0, v0 + rng.randint(1, 60), max(0, v0 - rng.randint(1, 60))])
        seq = [v0, v1] + [rng.randint(0, 30) for _ in range(rng.randint(0, 2))]
        cases.append((seq, rng.choice([1, 2, 3, rng.randint(4, 400), rng.randint(400, 3000)])))
    for seq, bound in cases:
        expected = every_c_matches(seq, bound)
        assert [(p.c, p.b) for p in enumerate_matches(seq, bound)] == expected, (seq, bound)
        tally = Counter(b % (1 + (len(seq) + 1) * c) for c, b in expected)
        if not tally:
            with pytest.raises(EmptyMatchSetError):
                next_value_distribution(seq, bound)
            continue
        dist = next_value_distribution(seq, bound)
        assert (dist.counts, dist.total) == (dict(tally), len(expected)), (seq, bound)
