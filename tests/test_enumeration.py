"""Counting the game's information sets: closed form vs exhaustive tuple
enumeration on miniature boards, vs a term-by-term reference sum up to
and past the full scale, plus the full-scale result."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from jieqi import (
    CountParams,
    STANDARD_PARAMS,
    Side,
    apply_move,
    count_information_sets,
    exact_log10,
    game_seed,
    initial_state,
    legal_moves,
    observe,
)
from jieqi.board import DARK_CELL, DARK_HOME, NON_KING_CELLS
from bruteforce import count_information_sets_bruteforce
from reference_count import reference_count

# Full-scale result, frozen once from this implementation after the
# miniature oracle equivalence below validated the closed form.
STANDARD_COUNT = 4373285114719514492638345214925498875619178863319808565600
STANDARD_COUNT_ALWAYS_SPLIT = (
    4563520876218609320665632604057839965336252549366193261000
)


class TestCountParams:
    def test_standard(self) -> None:
        assert STANDARD_PARAMS == CountParams(15, 88, 15)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            CountParams(2, 6, 3)   # more dark squares than pieces
        with pytest.raises(ValueError):
            CountParams(4, 6, 2)   # board smaller than both sides' pieces
        with pytest.raises(ValueError):
            CountParams(-1, 6, 0)


class TestClosedForm:
    def test_empty_game_counts_one(self) -> None:
        assert count_information_sets(CountParams(0, 88, 0)) == 1
        assert count_information_sets(CountParams(0, 4, 0)) == 1

    def test_standard_magnitude(self) -> None:
        value = count_information_sets()
        assert 56 <= exact_log10(value) <= 58
        assert value == STANDARD_COUNT

    def test_alternative_reading_reported_separately(self) -> None:
        value = count_information_sets(split_offboard_when_all_bright=True)
        assert value == STANDARD_COUNT_ALWAYS_SPLIT
        assert value > STANDARD_COUNT
        assert 56 <= exact_log10(value) <= 58

    def test_reproducible(self) -> None:
        assert count_information_sets() == count_information_sets()

    def test_miniature_values(self) -> None:
        assert count_information_sets(CountParams(1, 4, 1)) == 30
        assert count_information_sets(CountParams(2, 6, 2)) == 2752
        assert count_information_sets(
            CountParams(2, 6, 2), split_offboard_when_all_bright=True
        ) == 3536


class TestBruteForceEquivalence:
    def test_all_miniatures(self) -> None:
        """Closed form == explicit tuple enumeration for every parameter
        combination with pieces_per_side <= 2, board_squares <= 6, under
        both branch readings."""
        for n in range(3):
            for s in range(2 * n, 7):
                for d in range(n + 1):
                    params = CountParams(n, s, d)
                    for always in (False, True):
                        closed = count_information_sets(params, always)
                        brute = count_information_sets_bruteforce(params, always)
                        assert closed == brute, (n, s, d, always)

    def test_spec_example_cases(self) -> None:
        for params in (CountParams(0, 4, 0), CountParams(1, 4, 1), CountParams(2, 6, 2)):
            assert count_information_sets(params) == \
                count_information_sets_bruteforce(params)

    def test_bounds_enforced(self) -> None:
        with pytest.raises(ValueError):
            count_information_sets_bruteforce(CountParams(4, 10, 2))
        with pytest.raises(ValueError):
            count_information_sets_bruteforce(CountParams(3, 11, 3))


class TestReferenceSum:
    def test_grid_up_to_full_scale(self) -> None:
        """Closed form == the term-by-term reference sum, under both
        readings, for every n <= 15 with the smallest boards, the full
        board and no, half or all home squares face-down-eligible.  The
        grid includes the standard game, (15, 88, 15), and goes past it to
        n = 20 and 24 on the smallest board, where the product's slots
        reach 16 bytes against the standard game's 10."""
        cases = {CountParams(n, s, d)
                 for n in range(16)
                 for s in (2 * n, 2 * n + 1, 88)
                 for d in (0, n // 2, n)}
        cases |= {CountParams(n, 2 * n, d) for n in (20, 24) for d in (0, n // 2, n)}
        for params in cases:
            for always in (False, True):
                assert count_information_sets(params, always) == \
                    reference_count(params, always), (params, always)


class TestCountModel:
    def test_reached_observations_lie_in_the_sum(self) -> None:
        """Every observation of 200 seeded random games, seen by Red (the
        count's viewpoint), maps to a term of count_information_sets: per
        side, i of the n pieces on the board with j <= min(i, d) of them
        face-down on that side's home squares, and k <= n - i of Red's
        off-board pieces taken face-down."""
        n, s, d = (STANDARD_PARAMS.pieces_per_side, STANDARD_PARAMS.board_squares,
                   STANDARD_PARAMS.dark_squares_per_side)
        reached = set()
        for game in range(200):
            seed = game_seed(0, game)
            state = initial_state(seed)
            rng = random.Random(seed)
            while True:
                obs = observe(state, Side.RED)
                cells = Counter(obs.view)
                indices = []
                for side in Side:
                    dark = cells[DARK_CELL[side]]
                    on = dark + sum(cells[code] for code in NON_KING_CELLS[side])
                    assert 0 <= on <= n and 0 <= dark <= min(on, d)
                    dark_squares = {sq for sq, c in enumerate(obs.view)
                                    if c == DARK_CELL[side]}
                    assert dark_squares <= set(DARK_HOME[side])
                    indices += [on, dark]
                r_on, r_dark, b_on, b_dark = indices
                r_off_dark = obs.own_dark_lost_count
                assert 0 <= r_off_dark <= n - r_on
                assert n - r_on == r_off_dark + sum(obs.own_revealed_captured_by_opp)
                assert n - b_on == (sum(obs.opp_revealed_captured)
                                    + sum(obs.opp_dark_captured_by_viewer))
                # P(s - t, a - t) > 0: the face-up pieces fit on the squares
                # the t face-down ones leave
                assert r_on + b_on <= s
                reached.add((r_on, r_dark, b_on, b_dark, r_off_dark))
                if state.status.over:
                    break
                moves = legal_moves(state)
                state, _ = apply_move(state, moves[rng.randrange(len(moves))])
        # the games reach far more than the opening term
        assert len(reached) > 1000


class TestMonotonicity:
    def test_in_board_squares_and_pieces(self) -> None:
        grid = {
            (n, s): count_information_sets(CountParams(n, s, n))
            for n in (0, 1, 2)
            for s in (4, 5, 6)
        }
        for n in (0, 1, 2):
            assert grid[(n, 4)] <= grid[(n, 5)] <= grid[(n, 6)]
        for s in (4, 5, 6):
            assert grid[(0, s)] <= grid[(1, s)] <= grid[(2, s)]
