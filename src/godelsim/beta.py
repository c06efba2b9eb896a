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
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from . import GodelsimError


class EmptyMatchSetError(GodelsimError):
    """No pair within the bound reproduces the sequence; no frequencies exist."""


class TagCollisionError(GodelsimError):
    """Two tagged sequences share an interaction tag and cannot be merged."""


@dataclass(frozen=True)
class BetaPair:
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.b < 0:
            raise GodelsimError("b must be >= 0")
        if self.c < 1:
            raise GodelsimError("c must be >= 1")


@dataclass(frozen=True)
class TaggedSequence:
    """Property values tagged with strictly increasing interaction indices."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        tags = [tag for tag, _ in self.entries]
        if any(tag < 0 for tag in tags) or any(value < 0 for _, value in self.entries):
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

    c is the factorial of max(n+1, max value), which makes the moduli
    1 + (i+1)*c pairwise coprime; b is the least CRT solution.  Each merge
    checks this on the way: the product of the earlier moduli has an inverse
    modulo the next one exactly when the next is coprime with each of them.
    """
    _check_sequence(seq)
    n = len(seq) - 1
    c = math.factorial(max(n + 1, max(seq)))
    b, modulus = 0, 1
    for i, value in enumerate(seq):
        m = 1 + (i + 1) * c
        # CRT merge of b = value (mod m) into the running solution.
        try:
            inv = pow(modulus % m, -1, m)
        except ValueError:
            raise AssertionError("moduli are not pairwise coprime") from None
        b = b + modulus * (((value - b) * inv) % m)
        modulus *= m
    return BetaPair(b % modulus, c)


def _realizations(seq: Sequence[int], bound: int) -> Iterator[tuple[int, int, int]]:
    """Yield (c, least b, step) for each c <= bound that some b <= bound realizes.

    In increasing c.  The realizing b within the bound are exactly
    ``range(b, bound + 1, step)``: step is the modulus of the merged
    congruences, or a number past the bound once only b itself is left.

    The sieve is exact because a CRT merge never lowers the least residue
    (the new one is the old plus a nonnegative multiple of the old
    modulus), so a c is dropped at the first merge whose residue passes
    the bound.  The first two congruences merge in closed form, one cheap
    test per c; only the c that survive it reach gcd and pow.
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
    twice_gap = 2 * (seq[1] - v0)
    survivors = (
        (c, b)
        for c in range(first, bound + 1)
        if (b := v0 + (c + 1) * (twice_gap % (2 * c + 1))) <= bound
    )
    for c, residue in survivors:
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
    cost is one closed-form test per c for the first two values, CRT merges
    only for the c they leave (each of which has a pair matching those two
    values), and one ``BetaPair`` per match.
    """
    return [
        BetaPair(b, c)
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
    number of matches plus the sieve of ``enumerate_matches``, and memory
    is the tally alone.
    """
    factor = len(seq) + 1
    counts = Counter(
        chain.from_iterable(
            map((1 + factor * c).__rmod__, range(least, bound + 1, step))
            for c, least, step in _realizations(seq, bound)
        )
    )
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
