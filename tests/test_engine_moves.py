"""Move generation: positional roles, per-kind movement, and agreement with
an independently written naive generator."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_state, mv, parse_square, random_state
from naive_rules import naive_legal_moves
from jieqi import (
    IllegalMoveError,
    Move,
    PieceKind,
    Rules,
    Side,
    WinReason,
    apply_move,
    decode_state,
    encode_state,
    initial_state,
    legal_moves,
    square,
)
from jieqi.board import (
    DARK_CELL,
    DARK_HOME,
    KING_CELL,
    NON_KING_CELLS,
    NUM_SQUARES,
    ROLE_OF_SQUARE,
    in_palace,
)
from jieqi.engine import ONGOING, GameState, _gen_all, make_state, perft_counts, side_squares


def _dests(state, from_name: str) -> set[str]:
    frm = parse_square(from_name)
    from jieqi.board import square_name
    return {square_name(m.to_sq) for m in legal_moves(state) if m.from_sq == frm}


class TestRoleOfSquare:
    def test_layout(self) -> None:
        assert ROLE_OF_SQUARE[parse_square("b2")] is PieceKind.CANNON
        assert ROLE_OF_SQUARE[parse_square("a3")] is PieceKind.PAWN
        assert ROLE_OF_SQUARE[parse_square("e4")] is None
        assert ROLE_OF_SQUARE[parse_square("e0")] is PieceKind.KING
        assert ROLE_OF_SQUARE[parse_square("e9")] is PieceKind.KING
        assert ROLE_OF_SQUARE[parse_square("c9")] is PieceKind.MINISTER
        assert ROLE_OF_SQUARE[parse_square("h7")] is PieceKind.CANNON
        assert ROLE_OF_SQUARE[parse_square("i6")] is PieceKind.PAWN

    @pytest.mark.parametrize("file, rank", [(-1, 0), (9, 0), (0, -1), (0, 10)])
    def test_square_off_board_rejected(self, file: int, rank: int) -> None:
        with pytest.raises(ValueError, match="off board"):
            square(file, rank)

    def test_thirty_two_initial_squares(self) -> None:
        named = [sq for sq in range(90) if ROLE_OF_SQUARE[sq] is not None]
        assert len(named) == 32


class TestInitialPosition:
    def test_forty_six_moves(self) -> None:
        for seed in (0, 1, 42):
            assert len(legal_moves(initial_state(seed))) == 46

    def test_per_role_breakdown(self) -> None:
        state = initial_state(0)
        # counts enumerated by hand from the starting layout
        expected = {
            "a0": 2, "i0": 2,          # rook role: two slides up the file
            "b0": 2, "h0": 2,          # horse role: two forward jumps
            "c0": 2, "g0": 2,          # minister role: both forward jumps
            "d0": 2, "f0": 2,          # guard role: both forward diagonals
            "e0": 1,                   # king: e1 only
            "b2": 12, "h2": 12,        # cannon role: 11 slides + 1 screen capture
            "a3": 1, "c3": 1, "e3": 1, "g3": 1, "i3": 1,   # pawn role
        }
        for name, count in expected.items():
            assert len(_dests(state, name)) == count, name

    def test_cannon_jump_captures_present(self) -> None:
        moves = legal_moves(initial_state(3))
        assert mv("b2b9") in moves
        assert mv("h2h9") in moves

    def test_move_list_is_deterministic(self) -> None:
        a = legal_moves(initial_state(5))
        b = legal_moves(initial_state(5))
        assert a == b

    def test_returns_a_tuple(self) -> None:
        # The state carries its moves, so the result must not be editable.
        state = initial_state(5)
        assert isinstance(legal_moves(state), tuple)
        assert legal_moves(state) is state.moves

    def test_each_side_shuffles_its_own_full_pool(self) -> None:
        from jieqi import KindMultiset, START_POOL
        from jieqi.board import DARK_HOME
        for seed in (0, 17):
            state = initial_state(seed)
            for side in (Side.RED, Side.BLACK):
                kinds = KindMultiset.from_kinds(
                    state.hidden[sq] for sq in DARK_HOME[side]
                )
                assert kinds == START_POOL


class TestKing:
    def test_confined_to_palace(self) -> None:
        state = build_state(red={"e0": "K"}, black={"e8": "K", "e6": "P"})
        assert _dests(state, "e0") == {"d0", "f0", "e1"}
        state = build_state(red={"f2": "K"}, black={"e8": "K", "e6": "P"})
        # f3 would leave the palace
        assert _dests(state, "f2") == {"e2", "f1"}

    def test_cannot_capture_own(self) -> None:
        state = build_state(red={"e0": "K", "e1": "P"}, black={"e8": "K", "e6": "P"})
        assert _dests(state, "e0") == {"d0", "f0"}

    def test_flying_general_capture_on_open_file(self) -> None:
        state = build_state(red={"e0": "K"}, black={"e9": "K"})
        assert "e9" in _dests(state, "e0")
        black_view = build_state(red={"e0": "K"}, black={"e9": "K"},
                                 to_move=Side.BLACK)
        assert "e0" in _dests(black_view, "e9")

    def test_no_flying_when_blocked(self) -> None:
        for blocker in ({"e4": "dark:P"}, {"e4": "R"}):
            state = build_state(red={"e0": "K", **blocker}, black={"e9": "K"})
            assert "e9" not in _dests(state, "e0")

    def test_no_flying_on_different_files(self) -> None:
        state = build_state(red={"e0": "K"}, black={"d9": "K"})
        assert _dests(state, "e0") == {"d0", "f0", "e1"}


class TestGuard:
    def test_diagonal_step_anywhere(self) -> None:
        state = build_state(red={"e0": "K", "e4": "G"}, black={"e8": "K"})
        assert _dests(state, "e4") == {"d3", "f3", "d5", "f5"}

    def test_may_cross_river(self) -> None:
        state = build_state(red={"e0": "K", "d4": "G"}, black={"e8": "K"})
        assert {"c5", "e5"} <= _dests(state, "d4")

    def test_classic_dark_guard_confined_to_palace(self) -> None:
        classic = Rules(classic_dark_roles=True)
        state = build_state(red={"e0": "K", "d0": "dark:H"}, black={"e8": "K"},
                            rules=classic)
        # guard-role square d0: only e1 stays inside the palace
        assert _dests(state, "d0") == {"e1"}
        relaxed = build_state(red={"e0": "K", "d0": "dark:H"}, black={"e8": "K"})
        assert _dests(relaxed, "d0") == {"c1", "e1"}

    def test_classic_flag_leaves_revealed_guard_relaxed(self) -> None:
        classic = Rules(classic_dark_roles=True)
        state = build_state(red={"e0": "K", "e4": "G"}, black={"e8": "K"},
                            rules=classic)
        assert _dests(state, "e4") == {"d3", "f3", "d5", "f5"}


class TestMinister:
    def test_two_diagonal_steps(self) -> None:
        state = build_state(red={"e0": "K", "e4": "M"}, black={"e8": "K"})
        assert _dests(state, "e4") == {"c2", "g2", "c6", "g6"}

    def test_blocked_midpoint(self) -> None:
        state = build_state(red={"e0": "K", "e4": "M", "d5": "P"},
                            black={"e8": "K"})
        assert _dests(state, "e4") == {"c2", "g2", "g6"}

    def test_may_cross_river(self) -> None:
        state = build_state(red={"e0": "K", "d4": "M"}, black={"e8": "K"})
        assert {"b6", "f6"} <= _dests(state, "d4")


class TestRook:
    def test_slides_until_blocked(self) -> None:
        state = build_state(
            red={"e0": "K", "e4": "R", "e6": "P"},
            black={"e8": "K", "c4": "P"},
        )
        dests = _dests(state, "e4")
        assert dests == {"e5", "e1", "e2", "e3", "f4", "g4", "h4", "i4", "d4", "c4"}

    def test_captures_dark_and_revealed(self) -> None:
        state = build_state(
            red={"e0": "K", "a4": "R"},
            black={"e8": "K", "a6": "dark:P", "c4": "r"},
        )
        dests = _dests(state, "a4")
        assert "a6" in dests and "c4" in dests
        assert "a7" not in dests  # stops at the dark capture


class TestCannon:
    def test_slides_without_screen(self) -> None:
        state = build_state(red={"e0": "K", "e4": "C"}, black={"e8": "K"})
        dests = _dests(state, "e4")
        assert {"e5", "e6", "e7", "e1", "a4", "i4"} <= dests
        assert "e8" not in dests  # adjacent-file enemy needs a screen

    def test_captures_only_over_one_screen(self) -> None:
        state = build_state(
            red={"e0": "K", "b2": "C", "b4": "P"},
            black={"e8": "K", "b7": "c", "b9": "h"},
        )
        dests = _dests(state, "b2")
        assert "b7" in dests           # screen b4, capture first piece beyond
        assert "b9" not in dests       # two pieces between
        assert "b4" not in dests       # own piece
        assert "b3" in dests and "b5" not in dests

    def test_screen_color_is_irrelevant(self) -> None:
        state = build_state(
            red={"e0": "K", "b2": "C"},
            black={"e8": "K", "b5": "p", "b8": "r"},
        )
        assert "b8" in _dests(state, "b2")

    def test_cannot_capture_adjacent_without_screen(self) -> None:
        state = build_state(red={"e0": "K", "b2": "C"}, black={"e8": "K", "b3": "p"})
        assert "b3" not in _dests(state, "b2")


class TestHorse:
    def test_leg_blocking(self) -> None:
        free = build_state(red={"e0": "K", "e4": "H"}, black={"e8": "K"})
        assert _dests(free, "e4") == {"d6", "f6", "d2", "f2", "c3", "c5", "g3", "g5"}
        blocked = build_state(red={"e0": "K", "e4": "H", "e5": "P"},
                              black={"e8": "K", "d4": "p"})
        dests = _dests(blocked, "e4")
        assert "d6" not in dests and "f6" not in dests   # leg e5
        assert "c3" not in dests and "c5" not in dests   # leg d4
        assert {"d2", "f2", "g3", "g5"} <= dests


class TestPawn:
    def test_forward_only_on_own_half(self) -> None:
        state = build_state(red={"e0": "K", "c3": "P"}, black={"e8": "K"})
        assert _dests(state, "c3") == {"c4"}

    def test_sideways_after_crossing(self) -> None:
        state = build_state(red={"e0": "K", "c5": "P"}, black={"e8": "K"})
        assert _dests(state, "c5") == {"c6", "b5", "d5"}

    def test_never_backward(self) -> None:
        state = build_state(red={"e0": "K", "c9": "P"}, black={"e8": "K"})
        assert _dests(state, "c9") == {"b9", "d9"}

    def test_black_pawn_mirrors(self) -> None:
        state = build_state(red={"e0": "K"}, black={"e8": "K", "c4": "p"},
                            to_move=Side.BLACK)
        assert _dests(state, "c4") == {"c3", "b4", "d4"}


class TestDarkRoleMovement:
    def test_dark_piece_moves_by_square_role_not_true_kind(self) -> None:
        # a true Pawn on the cannon square moves like a cannon
        state = build_state(
            red={"e0": "K", "b2": "dark:P"},
            black={"e8": "K", "b5": "p", "b8": "r"},
        )
        dests = _dests(state, "b2")
        assert "b8" in dests           # cannon-role screen capture
        assert "b3" in dests and "b4" in dests

    def test_same_observation_same_moves(self) -> None:
        # two hidden assignments with identical boards generate identical moves
        a = build_state(red={"e0": "K", "b2": "dark:P", "a3": "dark:C"},
                        black={"e8": "K"})
        b = build_state(red={"e0": "K", "b2": "dark:C", "a3": "dark:P"},
                        black={"e8": "K"})
        assert legal_moves(a) == legal_moves(b)


def _fully_blocked():
    # Red to move: King boxed by own pieces that are themselves immobile
    # (horse legs and minister midpoints blocked by enemy pieces).
    return build_state(
        red={"e0": "K", "d0": "H", "f0": "H", "e1": "M"},
        black={
            "e8": "K", "c0": "p", "d1": "p", "g0": "p", "f1": "p",
            "d2": "p", "f2": "r",
        },
    )


class TestFullyBlockedSide:
    def test_zero_moves(self) -> None:
        blocked = _fully_blocked()
        assert blocked.moves == ()
        assert blocked.status.reason is WinReason.OPPONENT_STALEMATED
        assert blocked.status.winner is Side.BLACK


class TestAgainstNaiveGenerator:
    def test_initial_positions(self) -> None:
        for seed in range(5):
            state = initial_state(seed)
            assert set(legal_moves(state)) == naive_legal_moves(state)

    def test_random_midgame_positions(self) -> None:
        rng = random.Random(2024)
        checked = 0
        for trial in range(200):
            state = random_state(seed=trial, plies=rng.randrange(1, 140))
            if state.status.over:
                continue
            got = set(legal_moves(state))
            assert got == naive_legal_moves(state), trial
            assert len(got) == len(legal_moves(state)), "duplicate moves generated"
            checked += 1
        assert checked > 100

    def test_classic_dark_roles_positions(self) -> None:
        rules = Rules(classic_dark_roles=True)
        for trial in range(30):
            state = random_state(seed=trial, plies=11, rules=rules)
            if state.status.over:
                continue
            assert set(legal_moves(state)) == naive_legal_moves(state), trial


@pytest.mark.parametrize("classic", [False, True], ids=["relaxed", "classic"])
@pytest.mark.parametrize("seed, plies", [(0, 0), (3, 20), (11, 50)],
                         ids=["initial", "ply-20", "ply-50"])
def test_perft_depth_two_equals_naive(seed: int, plies: int, classic: bool) -> None:
    # Depth 2 counts every successor's moves, so this checks the generator
    # on each successor and not only at the root.
    state = random_state(seed, plies, Rules(classic_dark_roles=classic))
    assert not state.status.over
    successors = [apply_move(state, move)[0] for move in state.moves]
    assert perft_counts(state, 2) == [
        len(naive_legal_moves(state)),
        sum(0 if succ.status.over else len(naive_legal_moves(succ)) for succ in successors),
    ]


def test_perft_depth_three_equals_naive_from_the_start() -> None:
    # Every node above depth 3 (1 + 46 + 2,106 of them) has the naive move
    # set, so depth 3's 92,073 paths are the naive generator's count too.
    # About 6 s on one core.
    level, wrong = [initial_state(0)], []
    for _ in range(3):
        live = [state for state in level if not state.status.over]
        wrong += [encode_state(state) for state in live
                  if set(state.moves) != naive_legal_moves(state)]
        level = [apply_move(state, move)[0] for state in live for move in state.moves]
    assert wrong == []
    assert len(level) == 92073


def test_perft_depth_four_from_the_start() -> None:
    # Depth 4 takes about 1.5 s on one core.
    assert perft_counts(initial_state(0), 4) == [46, 2106, 92073, 3713761]


def test_perft_depth_below_one_rejected() -> None:
    with pytest.raises(ValueError, match="max_depth"):
        perft_counts(initial_state(0), 0)


def _stalemated(state) -> bool:
    return state.status.reason is WinReason.OPPONENT_STALEMATED


_reachable = dict(
    seed=st.integers(0, 2**32 - 1),
    plies=st.integers(0, 160),
    classic=st.booleans(),
)


class TestGeneratorOracle:
    """Properties of the generator against the naive one, on states reached
    by seeded random play.  The generator reads each piece's moves from a
    plan looked up by (cell code, square) in a table built at import; the
    naive one works each move out from file and rank arithmetic."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(**_reachable)
    def test_legal_moves_equal_naive(self, seed: int, plies: int, classic: bool) -> None:
        state = random_state(seed, plies, Rules(classic_dark_roles=classic))
        if state.status.over:
            return
        moves = legal_moves(state)
        assert len(set(moves)) == len(moves), "duplicate moves generated"
        assert set(moves) == naive_legal_moves(state)

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(**_reachable)
    def test_stalemate_exactly_when_naive_is_empty(
        self, seed: int, plies: int, classic: bool
    ) -> None:
        state = random_state(seed, plies, Rules(classic_dark_roles=classic))
        assert _stalemated(state) == (
            not state.status.over and not naive_legal_moves(state)
        )

    def test_stalemate_of_fully_blocked_side(self) -> None:
        state = _fully_blocked()
        assert naive_legal_moves(state) == set()
        assert _stalemated(state)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(**_reachable)
    def test_apply_accepts_a_fresh_equal_move(
        self, seed: int, plies: int, classic: bool
    ) -> None:
        state = random_state(seed, plies, Rules(classic_dark_roles=classic))
        if state.status.over:
            return
        for move in legal_moves(state):
            fresh = Move(move.from_sq, move.to_sq)
            assert fresh is not move
            assert apply_move(state, fresh) == apply_move(state, move)

    @pytest.mark.parametrize("move", [Move(0, 89), Move(0, 90)],
                             ids=["no-piece-makes-it", "off-board"])
    def test_apply_rejects_unmakeable_pairs(self, move: Move) -> None:
        state = initial_state(0)
        assert state.board[0] > 0  # a Red piece stands on a0
        with pytest.raises(IllegalMoveError):
            apply_move(state, move)


class TestCarriedSquares:
    """Each state carries its sides' occupied squares, which `apply_move`
    updates instead of scanning the board, and its status and legal moves:
    after every move of seeded random play all three must equal a fresh
    derivation by `make_state`, and survive a state-text round trip."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), classic=st.booleans())
    def test_apply_move_keeps_squares_equal_to_a_scan(self, seed: int, classic: bool) -> None:
        rules = Rules(classic_dark_roles=classic)
        state = initial_state(seed, rules)
        rng = random.Random(seed)
        while True:
            assert state == make_state(state.board, side_squares(state.board), state.hidden,
                                       state.side_to_move, state.ply_count,
                                       state.plies_since_capture, state.captures,
                                       state.rules), state.ply_count
            assert decode_state(encode_state(state), rules) == state
            if state.status.over:
                break
            moves = legal_moves(state)
            state, _ = apply_move(state, moves[rng.randrange(len(moves))])


def _standing_pieces(side: Side) -> list[tuple[int, int]]:
    """(cell, square) for every cell code of `side` on every square where
    it can stand: face-down cells on the side's home squares, the King in
    its own palace, revealed pieces anywhere."""
    found = [(DARK_CELL[side], sq) for sq in DARK_HOME[side]]
    found += [(KING_CELL[side], sq) for sq in range(NUM_SQUARES) if in_palace(sq, side)]
    found += [(cell, sq) for cell in NON_KING_CELLS[side] for sq in range(NUM_SQUARES)]
    return found


def _with_blockers(side: Side, cell: int, sq: int, blockers: int, rng: random.Random,
                   rules: Rules) -> GameState:
    """`cell` on `sq`, both Kings somewhere in their palaces, and up to
    `blockers` other pieces of either side: revealed anywhere, or
    face-down on their own home squares.  Play never reaches some of these
    boards (a King can be missing), so the state is built here, Ongoing,
    with the moves the generator gives."""
    board = [0] * NUM_SQUARES
    board[sq] = cell
    for king_side in Side:
        king = rng.choice([k for k in range(NUM_SQUARES) if in_palace(k, king_side)])
        if board[king] == 0 and cell != KING_CELL[king_side]:
            board[king] = KING_CELL[king_side]
    for _ in range(blockers):
        at, owner = rng.randrange(NUM_SQUARES), rng.choice(list(Side))
        if board[at] == 0:
            dark = at in DARK_HOME[owner] and rng.random() < 0.5
            board[at] = DARK_CELL[owner] if dark else rng.choice(NON_KING_CELLS[owner])
    board = tuple(board)
    squares = side_squares(board)
    return GameState(board=board, squares=squares, hidden=(None,) * NUM_SQUARES,
                     side_to_move=side, ply_count=0, plies_since_capture=0,
                     captures=((), ()), status=ONGOING,
                     moves=_gen_all(board, squares[side], side, rules), rules=rules)


class TestEveryPlan:
    """The generator's table has a plan for every (cell code, square) pair,
    and random play reaches only some of them: check each pair where a
    piece can stand against the naive generator, on seeded blocker
    layouts from an empty board to a crowded one."""

    @pytest.mark.parametrize("classic", [False, True], ids=["relaxed", "classic"])
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.name.lower())
    def test_legal_moves_equal_naive(self, side: Side, classic: bool) -> None:
        rules = Rules(classic_dark_roles=classic)
        rng = random.Random(f"{side.name}-{classic}")
        flying = 0
        for cell, sq in _standing_pieces(side):
            for blockers in (0, 6, 20):
                state = _with_blockers(side, cell, sq, blockers, rng, rules)
                moves = legal_moves(state)
                naive = naive_legal_moves(state)
                assert len(set(moves)) == len(moves), (cell, sq, state.board)
                assert set(moves) == naive, (cell, sq, state.board)
                board = state.board
                flying += any(board[m.from_sq] == KING_CELL[side]
                              and board[m.to_sq] == KING_CELL[side.opponent] for m in naive)
        assert flying > 0   # the flying-general capture was exercised


#: SHA-256 of every legal-move list, in generation order, over every ply of
#: 12 seeded random games under each rule variant.  Seeded self-play picks
#: a move by its index in this list, so the order is part of the output.
MOVE_ORDER_SHA256 = {
    False: "813e83988480a11fd8777194e2229aa23b769050422ca08c25788384acbd3454",
    True: "c3041193486ecd9d085cb1e7a7b71f1fa7d7184d98ec97d4a0eb8388c9fad88f",
}


@pytest.mark.parametrize("classic", [False, True], ids=["relaxed", "classic"])
def test_move_order_is_pinned(classic: bool) -> None:
    digest = hashlib.sha256()
    for seed in range(12):
        state = initial_state(seed, Rules(classic_dark_roles=classic))
        rng = random.Random(seed)
        while not state.status.over:
            moves = legal_moves(state)
            digest.update(" ".join(m.text() for m in moves).encode() + b"\n")
            state, _ = apply_move(state, moves[rng.randrange(len(moves))])
    assert digest.hexdigest() == MOVE_ORDER_SHA256[classic]


#: SHA-256 of the legal-move list, in generation order, of every (cell,
#: square) pair where a piece can stand, each alone with the two Kings on
#: the board `_with_blockers` builds, under each rule variant.  Random play
#: reaches only some plans, so this pins the order of the rest.
EVERY_PLAN_ORDER_SHA256 = {
    False: "fc45b7961a331c74a7cdca07b8c66035bd8919fc7a6515b4f48ff1ffa058139e",
    True: "4dc4371602ab394489215f6f5b4f364af150469fd03975a22eed8f2d10859a84",
}


@pytest.mark.parametrize("classic", [False, True], ids=["relaxed", "classic"])
def test_every_plan_order_is_pinned(classic: bool) -> None:
    rules = Rules(classic_dark_roles=classic)
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for side in Side:
        for cell, sq in _standing_pieces(side):
            moves = legal_moves(_with_blockers(side, cell, sq, 0, rng, rules))
            digest.update(" ".join(m.text() for m in moves).encode() + b"\n")
    assert digest.hexdigest() == EVERY_PLAN_ORDER_SHA256[classic]
