"""Godel beta-function codec for finite sequences of naturals.

beta((b, c), i) is the remainder of b modulo 1 + (i+1)*c.  Any finite
sequence is realized by some pair via the Chinese Remainder Theorem, and
bounded enumeration of all realizing pairs supports a frequency reading
of "what comes next".
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import GodelsimError, _Frozen


# Predicted values wait in a list of about this many before they are tallied.
_TALLY_BUFFER = 1 << 16


class EmptyMatchSetError(GodelsimError):
    """No pair within the bound reproduces the sequence; no frequencies exist."""


class TagCollisionError(GodelsimError):
    """Two tagged sequences share an interaction tag and cannot be merged."""


class _BetaFields(NamedTuple):
    b: int
    c: int


class BetaPair(_BetaFields):
    """A pair with b >= 0 and c >= 1; the sieve builds its pairs, valid by construction, unchecked."""

    __slots__ = ()

    def __new__(cls, b: int, c: int) -> BetaPair:
        if b < 0:
            raise GodelsimError("b must be >= 0")
        if c < 1:
            raise GodelsimError("c must be >= 1")
        return tuple.__new__(cls, (b, c))


class TaggedSequence(_Frozen):
    """Property values tagged with strictly increasing interaction indices."""

    __slots__ = ("entries",)
    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "entries", entries)
        tags = [tag for tag, _ in entries]
        if any(tag < 0 for tag in tags) or any(value < 0 for _, value in entries):
            raise GodelsimError("tags and values must be naturals")
        if any(a >= b for a, b in zip(tags, tags[1:])):
            raise GodelsimError("tags must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "TaggedSequence":
        return cls(tuple((int(tag), int(value)) for tag, value in pairs))

    @property
    def tags(self) -> tuple[int, ...]:
        return tuple(tag for tag, _ in self.entries)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(value for _, value in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class NextValueDistribution:
    """Tally of predicted next values over all pairs matching a sequence."""

    bound: int
    counts: dict[int, int]
    total: int

    def frequency(self, value: int) -> Fraction:
        return Fraction(self.counts.get(value, 0), self.total)

    def frequencies(self) -> dict[int, Fraction]:
        return {value: Fraction(n, self.total) for value, n in sorted(self.counts.items())}


def _check_sequence(seq: Sequence[int]) -> None:
    if len(seq) == 0:
        raise GodelsimError("sequence must be non-empty")
    if any(v < 0 for v in seq):
        raise GodelsimError("sequence values must be naturals")


def beta_eval(pair: BetaPair, i: int) -> int:
    """Value of the pair's sequence at index ``i``: b mod (1 + (i+1)*c)."""
    if i < 0:
        raise GodelsimError("index must be >= 0")
    return pair.b % (1 + (i + 1) * pair.c)


def beta_encode(seq: Sequence[int]) -> BetaPair:
    """Constructively determine a pair realizing ``seq`` at indices 0..n.

    c is the factorial of max(n+1, max value), so n! divides c, and that
    makes the moduli m_i = 1 + (i+1)*c pairwise coprime: a prime dividing
    m_i and m_j divides their distance (j-i)*c but not c (each modulus is
    1 mod c), so it divides j-i <= n and hence n!, which divides c: no such
    prime exists.  That one check, ``c % n! == 0``, guards the construction.
    b is the least CRT solution.

    Modulo m_i, c = -1/(i+1), so the product of the other moduli is
    (-1)^(n-i) i!(n-i)!/(i+1)^n and its inverse has the closed form
    a_i = (-1)^(n-i+1) (i+1)^(n+1) (c // n!) C(n, i): no modular inverse.
    The leaves (v_i a_i mod m_i, m_i) merge up a product tree as
    (N_L M_R + N_R M_L, M_L M_R); the root's N is below (n+1) M, so its
    residue mod M is cheap.  The cost is that of the tree's products, which
    Python multiplies with Karatsuba, not the quadratic cost of merging one
    congruence at a time into a running product.
    """
    _check_sequence(seq)
    n = len(seq) - 1
    c = math.factorial(max(n + 1, max(seq)))
    factorial_n = 1
    for k in range(2, n + 1):
        factorial_n *= k
    quotient, rest = divmod(c, factorial_n)
    if rest:
        raise AssertionError("moduli are not pairwise coprime")
    level = []
    sign_binomial = -1 if n % 2 == 0 else 1  # (-1)^(n-i+1) C(n, i)
    for i, value in enumerate(seq):
        m = 1 + (i + 1) * c
        a = pow(i + 1, n + 1, m) * quotient * sign_binomial % m
        level.append((value * a % m, m))
        sign_binomial = -sign_binomial * (n - i) // (i + 1)
    while len(level) > 1:
        merged = [
            (left_n * right_m + right_n * left_m, left_m * right_m)
            for (left_n, left_m), (right_n, right_m) in zip(level[::2], level[1::2])
        ]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    residue, modulus = level[0]
    return BetaPair(residue % modulus, c)


def _realizations(seq: Sequence[int], bound: int) -> Iterator[tuple[int, int, int]]:
    """Yield (c, least b, step) for each c <= bound that some b <= bound realizes.

    In increasing c.  The realizing b within the bound are exactly
    ``range(b, bound + 1, step)``: step is the modulus of the merged
    congruences, or a number past the bound once only b itself is left.

    The sieve is exact because a CRT merge never lowers the least residue
    (the new one is the old plus a nonnegative multiple of the old
    modulus), so a c is dropped at the first merge whose residue passes
    the bound.  The first two congruences merge in closed form, one cheap
    test per c; only the c that survive it reach gcd and pow.  Once
    2c+1 > |2(v1-v0)| that closed form stops wrapping and never decreases
    as c grows, so the sieve ends at the first such c it drops.
    """
    _check_sequence(seq)
    if bound < 1:
        raise GodelsimError("bound must be >= 1")
    # No c below this matches: each value must be less than its modulus 1 + (i+1)*c.
    first = max(1, *(-(-value // (i + 1)) for i, value in enumerate(seq)))
    v0 = seq[0]
    if len(seq) == 1:
        for c in range(first, bound + 1):
            yield c, v0, c + 1
        return
    # b = v0 (mod c+1) and b = v1 (mod 2c+1): the moduli are coprime and
    # 2(c+1) = 1 (mod 2c+1), so the least b is v0 + (c+1)*(2(v1-v0) mod 2c+1).
    # From c = |v1-v0| on, 2c+1 > |2(v1-v0)|, so the remainder is 2(v1-v0)
    # itself, or 2c+1 plus it when negative: in both cases b grows with c.
    twice_gap = 2 * (seq[1] - v0)
    settled = abs(seq[1] - v0)
    for c in range(first, bound + 1):
        residue = v0 + (c + 1) * (twice_gap % (2 * c + 1))
        if residue > bound:
            if c >= settled:
                return
            continue
        modulus = (c + 1) * (2 * c + 1)
        for i in range(2, len(seq)):
            if modulus > bound:
                # At most one b <= bound is left: test it directly.
                if all(residue % (1 + (j + 1) * c) == seq[j] for j in range(i, len(seq))):
                    yield c, residue, modulus
                break
            d = 1 + (i + 1) * c
            g = math.gcd(modulus, d)
            if (seq[i] - residue) % g:
                break
            step = d // g
            residue += modulus * (((seq[i] - residue) // g * pow(modulus // g, -1, step)) % step)
            modulus *= step
            if residue > bound:
                break
        else:
            yield c, residue, modulus


def enumerate_matches(seq: Sequence[int], bound: int) -> list[BetaPair]:
    """All pairs with b <= bound, 1 <= c <= bound whose beta values reproduce ``seq``.

    Exhaustive within the bound; sorted lexicographically by (c, b).  The
    cost is one closed-form test per c for the first two values, up to the
    c where the sieve stops, CRT merges only for the c they leave (each of
    which has a pair matching those two values), and one ``BetaPair`` per
    match.
    """
    new = tuple.__new__
    return [
        new(BetaPair, (b, c))
        for c, least, step in _realizations(seq, bound)
        for b in range(least, bound + 1, step)
    ]


def fit_characteristic_beta(seq: Sequence[int], bound: int) -> Optional[BetaPair]:
    """Lexicographically least (c, b) match within the bound, if any.

    Stops at the first c whose least realizing b is within the bound, so it
    costs at most what ``enumerate_matches`` spends before its first pair.
    """
    for c, b, _ in _realizations(seq, bound):
        return BetaPair(b, c)
    return None


def next_value_distribution(seq: Sequence[int], bound: int) -> NextValueDistribution:
    """Tally what each matching pair predicts at the index after the sequence.

    Counts b mod (1 + (n+1)*c), n = len(seq), straight over each c's
    progression of realizing b, building no pair objects: the cost is the
    number of matches plus the sieve of ``enumerate_matches``.  One plain
    loop appends the predicted values to a list that is flushed into the
    tally every 2**16 of them, so memory is the tally plus that buffer.
    """
    factor = len(seq) + 1
    counts: Counter[int] = Counter()
    pending: list[int] = []
    append = pending.append
    for c, least, step in _realizations(seq, bound):
        modulus = 1 + factor * c
        if least + step > bound:  # a single b, as for most c
            append(least % modulus)
        else:
            for b in range(least, bound + 1, step):
                append(b % modulus)
        if len(pending) >= _TALLY_BUFFER:
            counts.update(pending)
            pending.clear()
    counts.update(pending)
    if not counts:
        raise EmptyMatchSetError(f"no pair within bound {bound} matches {list(seq)}")
    return NextValueDistribution(bound, dict(counts), sum(counts.values()))


def superpose(first: TaggedSequence, second: TaggedSequence) -> TaggedSequence:
    """Chronological merge of two tagged sequences with disjoint tags."""
    overlap = set(first.tags) & set(second.tags)
    if overlap:
        raise TagCollisionError(f"tags occur in both sequences: {sorted(overlap)}")
    merged = sorted(first.entries + second.entries)
    return TaggedSequence(tuple(merged))
