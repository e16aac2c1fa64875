"""Exact arbitrary-precision counting primitives.

Every count in this package is an exact Python int; log10 views are derived
from the exact value and never feed back into the arithmetic (the headline
quantities run to hundreds of digits, far past float precision).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .board import KIND_INDEX, NON_KING_KINDS, START_COUNTS, PieceKind


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); 0 when k is out of range."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def exact_log10(n: int) -> float:
    """log10 of an exact positive integer (works beyond float range)."""
    if n <= 0:
        raise ValueError(f"log10 needs a positive integer, got {n}")
    return math.log10(n)


class KindMultiset(NamedTuple("_Counts", [("counts", tuple[int, ...])])):
    """Multiset of non-king piece kinds, stored as a count vector indexed
    like NON_KING_KINDS. Immutable and hashable so it can key caches.
    `__new__` rejects a bad vector. `hidden_pools` checks its counts itself
    and builds its pools with `tuple.__new__`; the NamedTuple `_make` and
    `_replace` skip the check too, and nothing in the package calls them."""

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...]) -> KindMultiset:
        if len(counts) != len(NON_KING_KINDS) or min(counts) < 0:
            raise ValueError(f"bad kind counts {counts!r}")
        return tuple.__new__(cls, (counts,))

    @classmethod
    def from_kinds(cls, kinds) -> KindMultiset:
        counts = [0] * len(NON_KING_KINDS)
        for kind in kinds:
            counts[KIND_INDEX[kind]] += 1
        return cls(tuple(counts))

    def total(self) -> int:
        return sum(self.counts)

    def items(self) -> list[tuple[PieceKind, int]]:
        return [(k, c) for k, c in zip(NON_KING_KINDS, self.counts) if c > 0]

    def expand(self) -> list[PieceKind]:
        """All members, one entry per piece."""
        return [k for k, c in zip(NON_KING_KINDS, self.counts) for _ in range(c)]

    def __str__(self) -> str:
        inner = ",".join(f"{k.letter}:{c}" for k, c in self.items())
        return "{" + inner + "}"


#: One side's full complement of non-king pieces.
START_POOL = KindMultiset(START_COUNTS)


@lru_cache(maxsize=None)
def multiset_arrangements(pool: KindMultiset, k: int) -> int:
    """Number of distinct ordered assignments of k identities drawn from
    `pool` to k labeled slots.

    Computed by dynamic programming over kinds: appending j copies of a kind
    to an arrangement of `used` slots can interleave in C(used + j, j) ways.
    Equals the multinomial k! / prod(counts!) when k == pool.total().
    Cached on (pool, k), the package's one count cache; a call with k out
    of range raises every time, since the cache keeps no exceptions.
    """
    if k < 0 or k > pool.total():
        raise ValueError(f"need 0 <= k <= |pool|, got k={k} |pool|={pool.total()}")
    ways = [1] + [0] * k
    for c in pool.counts:
        if c == 0:
            continue
        nxt = [0] * (k + 1)
        for used, w in enumerate(ways):
            if w:
                for j in range(min(c, k - used) + 1):
                    nxt[used + j] += w * binomial(used + j, j)
        ways = nxt
    return ways[k]
