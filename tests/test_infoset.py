"""Information-set sizes: closed form vs brute-force enumeration, pool
bookkeeping, and the knowledge-asymmetry properties."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import build_state, without
from jieqi import (
    HiddenPools,
    KindMultiset,
    PieceKind,
    Rules,
    START_POOL,
    Side,
    apply_move,
    hidden_pools,
    infoset_size,
    infoset_size_bruteforce,
    initial_state,
    legal_moves,
    mover_infoset_size,
    multiset_arrangements,
    observe,
)
from jieqi.board import DARK_CELL, DARK_CODE, NUM_SQUARES
from jieqi.engine import make_state, side_squares


def _mirror(state):
    """Color-swap a state: flip the board vertically, negate cells, swap
    capture lists and the side to move."""
    flipped = [0] * NUM_SQUARES
    for sq, cell in enumerate(state.board):
        r, f = divmod(sq, 9)
        flipped[(9 - r) * 9 + f] = -cell
    flipped = tuple(flipped)
    hidden = tuple(state.hidden[(9 - sq // 9) * 9 + sq % 9] for sq in range(NUM_SQUARES))
    return make_state(flipped, side_squares(flipped), hidden, state.side_to_move.opponent,
                      state.ply_count, state.plies_since_capture, state.captures[::-1],
                      state.rules)


def _late_game_states(max_dark: int, want: int, seed0: int = 0):
    """Yield states from random play whose total dark count is small."""
    produced = 0
    seed = seed0
    while produced < want:
        seed += 1
        state = initial_state(seed)
        rng = random.Random(seed * 7919)
        while not state.status.over:
            dark = sum(1 for c in state.board if abs(c) == DARK_CODE)
            if dark <= max_dark:
                yield state
                produced += 1
                break
            moves = legal_moves(state)
            state, _ = apply_move(state, moves[rng.randrange(len(moves))])


class TestHiddenPools:
    def test_initial_pools(self) -> None:
        pools = hidden_pools(observe(initial_state(0), Side.RED))
        assert pools == HiddenPools(START_POOL, 15, START_POOL, 15)

    def test_own_reveals_leave_pool(self) -> None:
        state = build_state(
            red={"e0": "K", "a0": "R", "i0": "R", "b2": "C",
                 "a3": "dark:P", "c3": "dark:P"},
            black={"e8": "K", "a9": "dark:r", "i9": "dark:h"},
        )
        # build_state put every other red piece in black's capture list
        # (revealed face), so the viewer's pool is exactly the dark kinds
        pools = hidden_pools(observe(state, Side.RED))
        assert pools.own_slots == 2
        assert pools.own_pool == KindMultiset.from_kinds([PieceKind.PAWN] * 2)
        assert pools.opp_slots == 2

    def test_dark_loss_stays_in_own_pool(self) -> None:
        state = initial_state(2)
        # find the red cannon-role jump capture b2xb9 (captures a dark piece)
        from conftest import mv
        nxt, outcome = apply_move(state, mv("b2b9"))
        assert outcome.captured.was_dark
        black_pools = hidden_pools(observe(nxt, Side.BLACK))
        # Black lost a dark piece: 14 on board, 15 candidate kinds
        assert black_pools.own_slots == 14
        assert black_pools.own_pool.total() == 15
        # Red saw the captured kind: Black's unknowns, from Red's side, are
        # the full pool minus exactly that kind
        red_pools = hidden_pools(observe(nxt, Side.RED))
        assert red_pools.opp_slots == 14
        assert red_pools.opp_pool == without(START_POOL, outcome.captured.kind)
        # Red revealed its own b2 piece by moving it
        assert red_pools.own_pool.total() == 14

    @pytest.mark.parametrize("edit", [
        # more Guards lost face up than the side has: a negative own count
        dict(own_revealed_captured_by_opp=KindMultiset((3, 0, 0, 0, 0, 0))),
        # a dark loss with every own piece still on the board: a total 15
        # against 16 face-down squares, and no count negative
        dict(own_dark_lost_count=1),
        dict(opp_revealed_captured=KindMultiset((3, 0, 0, 0, 0, 0))),
        # a Guard taken face up while all 15 opponent pieces stay face
        # down: a total 14 against 15 squares, and no count negative
        dict(opp_revealed_captured=KindMultiset((1, 0, 0, 0, 0, 0))),
    ], ids=["own-negative", "own-total", "opponent-negative", "opponent-total"])
    def test_corrupt_observation_rejected(self, edit) -> None:
        obs = observe(initial_state(0), Side.RED)
        with pytest.raises(ValueError, match="corrupt"):
            hidden_pools(obs._replace(**edit))


class TestInfosetSize:
    def test_initial_value_is_multinomial_squared(self) -> None:
        multinomial = math.factorial(15) // (math.factorial(2) ** 5 * math.factorial(5))
        size = infoset_size(observe(initial_state(0), Side.RED))
        assert size == multinomial ** 2 == 115967627816040000
        assert math.log10(size) == pytest.approx(17.0643, abs=5e-5)

    def test_viewer_reveals_shrink_own_factor(self) -> None:
        # viewer revealed both Rooks and one Cannon, nothing captured
        state = build_state(
            red={"e0": "K", "a4": "R", "i4": "R", "b4": "C",
                 **{n: f"dark:{k}" for n, k in [
                     ("a0", "C"), ("b0", "H"), ("c0", "M"), ("d0", "G"),
                     ("f0", "G"), ("g0", "M"), ("h0", "H"), ("i0", "P"),
                     ("b2", "P"), ("h2", "P"), ("a3", "P"), ("c3", "P"),
                 ]}},
            black={"e9": "K", **{n: f"dark:{k}" for n, k in [
                ("a9", "r"), ("b9", "h"), ("c9", "m"), ("d9", "g"),
                ("f9", "g"), ("g9", "m"), ("h9", "h"), ("i9", "r"),
                ("b7", "c"), ("h7", "c"), ("a6", "p"), ("c6", "p"),
                ("e6", "p"), ("g6", "p"), ("i6", "p"),
            ]}},
        )
        obs = observe(state, Side.RED)
        # remaining pool {C:1,H:2,G:2,M:2,P:5} over 12 slots
        own = math.factorial(12) // (
            math.factorial(2) ** 3 * math.factorial(5)
        )
        assert own == 498960
        assert infoset_size(obs) == own * 340540200

    def test_perfect_information_is_one(self) -> None:
        state = build_state(red={"e0": "K", "e4": "R"}, black={"e8": "K", "a6": "p"})
        assert infoset_size(observe(state, Side.RED)) == 1
        assert infoset_size(observe(state, Side.BLACK)) == 1

    def test_size_one_iff_no_choice(self) -> None:
        # two identical dark pawns: only one distinct assignment
        state = build_state(
            red={"e0": "K", "a3": "dark:P", "c3": "dark:P"},
            black={"e8": "K"},
        )
        assert infoset_size(observe(state, Side.RED)) == 1
        # a rook/pawn mix gives more than one
        state2 = build_state(
            red={"e0": "K", "a0": "dark:R", "a3": "dark:P"},
            black={"e8": "K"},
        )
        assert infoset_size(observe(state2, Side.RED)) > 1


class TestBruteForceOracle:
    def test_tiny_cases(self) -> None:
        state = build_state(
            red={"e0": "K", "a3": "dark:P", "c3": "dark:P"},
            black={"e8": "K"},
        )
        assert infoset_size_bruteforce(observe(state, Side.RED)) == 1
        state2 = build_state(
            red={"e0": "K", "a0": "dark:R", "a3": "dark:P", "c3": "dark:P"},
            black={"e8": "K"},
        )
        # {R,P,P} over 3 slots: 3 distinct orderings
        assert infoset_size_bruteforce(observe(state2, Side.RED)) == 3

    def test_slot_bound_enforced(self) -> None:
        with pytest.raises(ValueError, match="8"):
            infoset_size_bruteforce(observe(initial_state(0), Side.RED))

    def test_matches_closed_form_on_late_game_observations(self) -> None:
        checked = 0
        for state in _late_game_states(max_dark=8, want=120):
            for viewer in (Side.RED, Side.BLACK):
                obs = observe(state, viewer)
                assert infoset_size(obs) == infoset_size_bruteforce(obs)
            checked += 1
        assert checked == 120


    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 60), classic=st.booleans())
    def test_matches_closed_form_on_reachable_states(
        self, seed: int, extra: int, classic: bool
    ) -> None:
        # The state `extra` plies after random play first leaves at most 8
        # squares face-down (the oracle's limit; dark squares never come
        # back), or the last such state if the game ends first.
        state = initial_state(seed, Rules(classic_dark_roles=classic))
        rng = random.Random(seed)
        late = []
        while True:
            if sum(c in DARK_CELL for c in state.board) <= 8:
                late.append(state)
            if len(late) > extra or state.status.over:
                break
            moves = legal_moves(state)
            state, _ = apply_move(state, moves[rng.randrange(len(moves))])
        assume(late)
        state = late[-1]
        for viewer in (Side.RED, Side.BLACK):
            obs = observe(state, viewer)
            assert infoset_size(obs) == infoset_size_bruteforce(obs)


class TestProperties:
    def test_mirror_symmetry(self) -> None:
        for seed in (1, 5, 9):
            state = initial_state(seed)
            rng = random.Random(seed)
            for _ in range(50):
                if state.status.over:
                    break
                moves = legal_moves(state)
                state, _ = apply_move(state, moves[rng.randrange(len(moves))])
            mirrored = _mirror(state)
            for viewer in (Side.RED, Side.BLACK):
                assert infoset_size(observe(state, viewer)) == \
                    infoset_size(observe(mirrored, viewer.opponent))

    def test_reveal_monotonicity(self) -> None:
        # moving one kind from the pool to revealed (one fewer slot) never
        # grows the arrangement count
        rng = random.Random(3)
        for _ in range(200):
            counts = tuple(rng.randrange(0, 4) for _ in range(6))
            pool = KindMultiset(counts)
            if pool.total() == 0:
                continue
            k = rng.randrange(1, pool.total() + 1)
            base = multiset_arrangements(pool, k)
            for kind, _count in pool.items():
                smaller = multiset_arrangements(without(pool, kind), k - 1)
                assert smaller <= base

    def test_reveal_shrinks_real_states(self) -> None:
        state = initial_state(6)
        rng = random.Random(6)
        prev = mover_infoset_size(state)
        for _ in range(40):
            if state.status.over:
                break
            moves = legal_moves(state)
            state, outcome = apply_move(state, moves[rng.randrange(len(moves))])
            size = infoset_size(observe(state, state.side_to_move.opponent))
            # the mover's own information set never grows from its move
            assert size <= prev
            prev = mover_infoset_size(state) if not state.status.over else prev

    def test_pools_match_arbiter_truth(self) -> None:
        # Independent of hidden_pools' derivation: read the true kinds of
        # the face-down pieces straight from the arbiter's assignment.
        for seed in range(15):
            state = initial_state(seed)
            rng = random.Random(seed + 1000)
            while True:
                for viewer in (Side.RED, Side.BLACK):
                    own_sq = [sq for sq, c in enumerate(state.board)
                              if c == DARK_CELL[viewer]]
                    opp_sq = [sq for sq, c in enumerate(state.board)
                              if c == DARK_CELL[viewer.opponent]]
                    own_lost = [
                        k for k, dark in state.captures[viewer.opponent] if dark
                    ]
                    pools = hidden_pools(observe(state, viewer))
                    assert pools.own_pool == KindMultiset.from_kinds(
                        [state.hidden[sq] for sq in own_sq] + own_lost
                    )
                    assert pools.opp_pool == KindMultiset.from_kinds(
                        state.hidden[sq] for sq in opp_sq
                    )
                    assert pools.own_slots == len(own_sq)
                    assert pools.opp_slots == len(opp_sq)
                if state.status.over:
                    break
                moves = legal_moves(state)
                state, _ = apply_move(state, moves[rng.randrange(len(moves))])

    def test_quiet_move_keeps_both_pools(self) -> None:
        # The invariant the self-play loop relies on to reuse each side's
        # size: a move that reveals nothing and captures no face-down piece
        # -- a quiet move or a face-up capture -- changes no pool.
        kept = face_up_captures = 0
        for seed in range(15):
            state = initial_state(seed)
            rng = random.Random(seed + 2000)
            while not state.status.over:
                moves = legal_moves(state)
                after, outcome = apply_move(state, moves[rng.randrange(len(moves))])
                captured = outcome.captured
                if outcome.revealed is None and not (captured and captured.was_dark):
                    kept += 1
                    face_up_captures += captured is not None
                    for viewer in (Side.RED, Side.BLACK):
                        assert hidden_pools(observe(after, viewer)) == \
                            hidden_pools(observe(state, viewer))
                state = after
        assert kept > face_up_captures > 0
