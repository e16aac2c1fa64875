"""Exact arbitrary-precision counting primitives.

Every count in this package is an exact Python int; log10 views are derived
from the exact value and never feed back into the arithmetic (the headline
quantities run to hundreds of digits, far past float precision).
"""

from __future__ import annotations

import math
from functools import lru_cache


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


@lru_cache(maxsize=None)
def multiset_arrangements(pool: tuple[int, ...], k: int) -> int:
    """Number of distinct ordered assignments of k identities drawn from
    `pool` to k labeled slots.  `pool` is a multiset of kinds, as a count
    vector indexed like `board.NON_KING_KINDS`.

    Computed by dynamic programming over kinds: appending j copies of a kind
    to an arrangement of `used` slots can interleave in C(used + j, j) ways.
    Equals the multinomial k! / prod(counts!) when k == sum(pool).
    Cached on (pool, k), the package's one count cache; a call with a
    negative count or k out of range raises every time, since the cache
    keeps no exceptions.
    """
    if any(c < 0 for c in pool):
        raise ValueError(f"negative kind count in {pool!r}")
    total = sum(pool)
    if k < 0 or k > total:
        raise ValueError(f"need 0 <= k <= |pool|, got k={k} |pool|={total}")
    ways = [1] + [0] * k
    for c in pool:
        if c == 0:
            continue
        nxt = [0] * (k + 1)
        for used, w in enumerate(ways):
            if w:
                for j in range(min(c, k - used) + 1):
                    nxt[used + j] += w * binomial(used + j, j)
        ways = nxt
    return ways[k]
