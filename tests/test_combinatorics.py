"""Exact counting primitives, checked against literal enumeration."""

from __future__ import annotations

import math
from itertools import permutations

import pytest

from conftest import kind_counts
from jieqi import binomial, exact_log10, multiset_arrangements
from jieqi.board import KIND_INDEX, NON_KING_KINDS, START_COUNTS, PieceKind


class TestBinomial:
    def test_spec_values(self) -> None:
        assert binomial(15, 2) == 105
        assert binomial(10, 5) == 252

    def test_out_of_range_is_zero(self) -> None:
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self) -> None:
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_symmetry(self) -> None:
        for n in range(41):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n, n - k)

    def test_pascal_identity(self) -> None:
        for n in range(1, 40):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestExactLog10:
    def test_beyond_float_range(self) -> None:
        assert exact_log10(10 ** 400) == pytest.approx(400.0)

    def test_non_positive_rejected(self) -> None:
        with pytest.raises(ValueError):
            exact_log10(0)


def test_start_counts() -> None:
    assert len(START_COUNTS) == len(NON_KING_KINDS)
    assert sum(START_COUNTS) == 15
    assert START_COUNTS[KIND_INDEX[PieceKind.PAWN]] == 5
    assert START_COUNTS[KIND_INDEX[PieceKind.ROOK]] == 2


def _pool(*counts: int) -> tuple[int, ...]:
    return counts + (0,) * (len(NON_KING_KINDS) - len(counts))


class TestMultisetArrangements:
    def test_full_pool_is_multinomial(self) -> None:
        multinomial = math.factorial(15) // (math.factorial(2) ** 5 * math.factorial(5))
        assert multiset_arrangements(START_COUNTS, 15) == multinomial == 340540200

    def test_k_zero(self) -> None:
        assert multiset_arrangements(START_COUNTS, 0) == 1
        assert multiset_arrangements((0,) * 6, 0) == 1

    def test_rook_two_pawns(self) -> None:
        pool = kind_counts([PieceKind.ROOK, PieceKind.PAWN, PieceKind.PAWN])
        # {RP, PR, PP}
        assert multiset_arrangements(pool, 2) == 3

    def test_all_distinct_equals_perm(self) -> None:
        for n in range(1, 7):
            pool = _pool(*([1] * n))
            for k in range(n + 1):
                assert multiset_arrangements(pool, k) == math.perm(n, k)

    def test_k_above_pool_rejected(self) -> None:
        with pytest.raises(ValueError):
            multiset_arrangements(_pool(1, 1), 3)

    def test_negative_count_rejected(self) -> None:
        # A negative count would otherwise read as an empty kind.
        with pytest.raises(ValueError, match="negative"):
            multiset_arrangements((0, 0, 0, -1, 0, 2), 1)

    def test_exhaustive_against_slot_enumeration(self) -> None:
        """Every pool over <= 4 kinds with <= 8 members, every slot count:
        the DP equals the count of distinct explicit slot assignments.

        Pools are enumerated up to kind relabeling (sorted count vectors);
        arrangements depend only on the counts, which relabeling permutes.
        """
        seen: set[tuple[int, ...]] = set()
        for a in range(9):
            for b in range(9 - a):
                for c in range(9 - a - b):
                    for d in range(9 - a - b - c):
                        counts = tuple(sorted((a, b, c, d), reverse=True))
                        if counts in seen:
                            continue
                        seen.add(counts)
                        pool = _pool(*counts)
                        members = [kind for kind, count in zip(NON_KING_KINDS, pool)
                                   for _ in range(count)]
                        for k in range(sum(counts) + 1):
                            explicit = len(set(permutations(members, k)))
                            assert multiset_arrangements(pool, k) == explicit, (
                                counts, k
                            )

    def test_relabeling_invariance(self) -> None:
        assert multiset_arrangements(_pool(3, 1), 2) == \
            multiset_arrangements(_pool(0, 1, 0, 3), 2)
