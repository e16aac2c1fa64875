"""Applying moves: reveals, captures, knowledge asymmetry, termination,
determinism and conservation invariants."""

from __future__ import annotations

import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import build_state, kind_counts, mv, parse_square, random_state, with_hidden
from jieqi import (
    IllegalMoveError,
    PieceKind,
    Rules,
    Side,
    WinReason,
    apply_move,
    hidden_pools,
    initial_state,
    legal_moves,
    observe,
)
from jieqi.board import (
    DARK_CODE,
    DARK_HOME,
    KING_CELL,
    START_COUNTS,
    in_palace,
    make_cell,
    square_name,
)
from jieqi.engine import TerminalStatus, perft_counts


def swap_hidden(state, sq_name: str, kind: PieceKind):
    """Rearrange a state's hidden assignment so `sq_name` holds `kind`."""
    sq = parse_square(sq_name)
    hidden = list(state.hidden)
    donor = next(
        s for s, k in enumerate(hidden)
        if k is kind and (state.board[s] > 0) == (state.board[sq] > 0)
    )
    hidden[donor], hidden[sq] = hidden[sq], hidden[donor]
    return with_hidden(state, hidden)


def board_kinds(state, side: Side) -> list[PieceKind]:
    """All non-king kinds of `side` on the board (revealed + hidden)."""
    kinds = []
    red = side is Side.RED
    for sq, cell in enumerate(state.board):
        if cell == 0 or (cell > 0) is not red:
            continue
        kind = state.hidden[sq] if abs(cell) == DARK_CODE else PieceKind(abs(cell) - 1)
        if kind is not PieceKind.KING:
            kinds.append(kind)
    return kinds


class TestApplyMove:
    def test_dark_cannon_role_jump_reveals_pawn(self) -> None:
        state = swap_hidden(initial_state(0), "b2", PieceKind.PAWN)
        nxt, outcome = apply_move(state, mv("b2b9"))
        assert outcome.revealed is PieceKind.PAWN
        assert nxt.board[parse_square("b9")] == make_cell(Side.RED, PieceKind.PAWN)
        # the captured black piece was face-down: Red saw it, Black did not
        assert nxt.captures == ((outcome.captured,), ())
        assert outcome.captured.was_dark
        red_view = observe(nxt, Side.RED)
        assert sum(red_view.opp_dark_captured_by_viewer) == 1
        black_view = observe(nxt, Side.BLACK)
        assert black_view.own_dark_lost_count == 1
        assert sum(black_view.own_revealed_captured_by_opp) == 0

    def test_revealed_piece_stays_revealed(self) -> None:
        state = build_state(red={"e0": "K", "e4": "R"}, black={"e8": "K", "a6": "p"})
        nxt, outcome = apply_move(state, mv("e4f4"))
        assert outcome.revealed is None
        assert outcome.captured is None
        assert nxt.board[parse_square("f4")] == make_cell(Side.RED, PieceKind.ROOK)

    def test_counters_and_side(self) -> None:
        state = initial_state(1)
        nxt, _ = apply_move(state, mv("a3a4"))
        assert nxt.ply_count == 1
        assert nxt.plies_since_capture == 1
        assert nxt.side_to_move is Side.BLACK
        # capture resets the no-capture counter
        cap = swap_hidden(initial_state(0), "b2", PieceKind.CANNON)
        nxt, outcome = apply_move(cap, mv("b2b9"))
        assert outcome.captured is not None
        assert nxt.plies_since_capture == 0

    def test_apply_is_pure(self) -> None:
        state = initial_state(9)
        before = hash(state)
        apply_move(state, mv("a3a4"))
        assert hash(state) == before
        assert state == initial_state(9)

    def test_illegal_moves_rejected(self) -> None:
        state = initial_state(0)
        with pytest.raises(IllegalMoveError):
            apply_move(state, mv("a3a5"))       # pawn two steps
        with pytest.raises(IllegalMoveError):
            apply_move(state, mv("e4e5"))       # empty origin
        with pytest.raises(IllegalMoveError):
            apply_move(state, mv("a6a5"))       # opponent's piece
        for pair in ((0, 89), (0, 90)):         # plain tuples, one off the board
            with pytest.raises(IllegalMoveError, match="illegal move"):
                apply_move(state, pair)

    def test_terminal_state_rejects_moves(self) -> None:
        state = build_state(red={"e0": "K", "d4": "R"}, black={"d8": "K"})
        final, _ = apply_move(state, mv("d4d8"))   # rook takes the King
        assert final.status.over
        with pytest.raises(IllegalMoveError):
            apply_move(final, mv("d8d7"))
        with pytest.raises(ValueError):
            legal_moves(final)


class TestTermination:
    def test_initial_state_is_ongoing(self) -> None:
        status = initial_state(0).status
        assert not status.over
        assert status.label() == "ongoing"

    def test_king_capture_wins(self) -> None:
        state = build_state(red={"e0": "K", "e4": "R"}, black={"d8": "K", "e6": "p"})
        # rook up the open file... e6 black pawn blocks; capture it, then take king
        nxt, outcome = apply_move(state, mv("e4e6"))
        assert outcome.captured.kind is PieceKind.PAWN
        assert not nxt.status.over
        nxt, _ = apply_move(nxt, mv("d8e8"))
        final, outcome = apply_move(nxt, mv("e6e8"))
        assert outcome.captured.kind is PieceKind.KING
        assert final.status.over
        assert final.status.winner is Side.RED
        assert final.status.reason is WinReason.KING_CAPTURED
        assert final.status.label() == "win_red_king_captured"

    def test_meet_marshals_exposure_then_flying_capture(self) -> None:
        # Red's rook sits between the kings; moving it away exposes Red's
        # King to the flying general.
        state = build_state(red={"e0": "K", "e4": "R"}, black={"e9": "K", "a6": "p"})
        exposed, outcome = apply_move(state, mv("e4d4"))
        assert not exposed.status.over          # exposure itself does not end it
        black_moves = legal_moves(exposed)
        fly = mv("e9e0")
        assert fly in black_moves
        final, outcome = apply_move(exposed, fly)
        assert final.status.over
        assert final.status.winner is Side.BLACK
        assert final.status.reason is WinReason.MEET_MARSHALS
        assert final.status.label() == "win_black_meet_marshals"
        assert outcome.captured.kind is PieceKind.KING
        # the flyer now stands on the captured King's square
        assert final.board[parse_square("e0")] == make_cell(Side.BLACK, PieceKind.KING)

    def test_ordinary_king_capture_is_not_marshals(self) -> None:
        state = build_state(red={"e0": "K", "e4": "R"}, black={"e8": "K"})
        final, _ = apply_move(state, mv("e4e8"))
        assert final.status.reason is WinReason.KING_CAPTURED

    def test_draw_after_capture_free_window(self) -> None:
        state = build_state(
            red={"e0": "K", "a0": "R"}, black={"e8": "K", "i9": "r"},
            plies_since_capture=39, ply_count=100,
        )
        final, _ = apply_move(state, mv("a0a1"))
        assert final.status.label() == "draw"
        # a capture on the 40th ply avoids the draw
        cap_state = build_state(
            red={"e0": "K", "a0": "R", "a5": "P"},
            black={"e8": "K", "a6": "p", "i9": "r"},
            plies_since_capture=39, ply_count=100,
        )
        alive, outcome = apply_move(cap_state, mv("a5a6"))
        assert outcome.captured is not None
        assert not alive.status.over
        assert alive.plies_since_capture == 0

    def test_custom_draw_window(self) -> None:
        state = build_state(
            red={"e0": "K", "a0": "R"}, black={"e8": "K", "i9": "r"},
            plies_since_capture=9, rules=Rules(draw_plies=10),
        )
        final, _ = apply_move(state, mv("a0a1"))
        assert final.status.label() == "draw"

    def test_draw_window_below_one_rejected(self) -> None:
        for draw_plies in (0, -1):
            with pytest.raises(ValueError, match="draw_plies"):
                Rules(draw_plies=draw_plies)

    def test_stalemate_loses(self) -> None:
        # Black makes a quiet move leaving Red with no legal reply.
        state = build_state(
            red={"e0": "K", "d0": "H", "f0": "H", "e1": "M"},
            black={
                "e8": "K", "c0": "p", "d1": "p", "g0": "p", "f1": "p",
                "d2": "p", "f3": "r",
            },
            to_move=Side.BLACK,
        )
        final, outcome = apply_move(state, mv("f3f2"))
        assert final.status.over
        assert final.status.winner is Side.BLACK
        assert final.status.reason is WinReason.OPPONENT_STALEMATED

    def test_draw_outranks_stalemate(self) -> None:
        # Red to move has no legal move: a stalemate loss, unless the
        # no-capture draw has already ended the game.
        for plies_since_capture, label in ((39, "win_black_opponent_stalemated"),
                                           (40, "draw")):
            blocked = build_state(
                red={"e0": "K", "d0": "H", "f0": "H", "e1": "M"},
                black={
                    "e8": "K", "c0": "p", "d1": "p", "g0": "p", "f1": "p",
                    "d2": "p", "f2": "r",
                },
                plies_since_capture=plies_since_capture,
            )
            assert blocked.status.label() == label
            assert blocked.moves == ()

    def test_king_capture_outranks_draw(self) -> None:
        # The 40th capture-free ply would be a draw, but a move that takes
        # the King is a capture: it wins, and restarts the counter.
        state = build_state(red={"e0": "K", "e4": "R"}, black={"e8": "K", "i9": "r"},
                            plies_since_capture=39, ply_count=100)
        final, outcome = apply_move(state, mv("e4e8"))
        assert outcome.captured.kind is PieceKind.KING
        assert final.status.label() == "win_red_king_captured"
        assert final.plies_since_capture == 0
        assert final.moves == ()


def _board_scan_status(state) -> TerminalStatus | None:
    """The King-capture rule read from the board alone: a missing King cell
    is a win for the other side, by meet-the-marshals when the winner's
    King stands in the loser's palace; None while both Kings stand."""
    missing = [side for side in Side if KING_CELL[side] not in state.board]
    if not missing:
        return None
    (loser,) = missing
    winner = loser.opponent
    reason = (WinReason.MEET_MARSHALS
              if in_palace(state.board.index(KING_CELL[winner]), loser)
              else WinReason.KING_CAPTURED)
    return TerminalStatus.win(winner, reason)


class TestKingCaptureOracle:
    """`make_state` reads a King capture from the capture that made it; on
    every state of seeded random play, that must agree with a board scan."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(seed=st.integers(0, 2**32 - 1), plies=st.integers(0, 300),
           classic=st.booleans())
    def test_status_equals_board_scan(self, seed: int, plies: int, classic: bool) -> None:
        state = initial_state(seed, Rules(classic_dark_roles=classic))
        rng = random.Random(seed)
        for _ in range(plies + 1):
            scanned = _board_scan_status(state)
            if scanned is None:
                assert state.status.reason not in (WinReason.KING_CAPTURED,
                                                   WinReason.MEET_MARSHALS)
            else:
                assert state.status == scanned
            if state.status.over:
                break
            state, _ = apply_move(state, rng.choice(state.moves))


class TestObservation:
    def test_initial_observation(self) -> None:
        state = initial_state(11)
        obs = observe(state, Side.RED)
        darks = sum(1 for c in obs.view if abs(c) == DARK_CODE)
        kings = sum(1 for c in obs.view if abs(c) == 1)
        assert darks == 30 and kings == 2
        assert obs.own_dark_lost_count == 0
        assert obs.own_revealed_captured_by_opp == (0,) * 6
        assert obs.opp_revealed_captured == (0,) * 6
        assert obs.opp_dark_captured_by_viewer == (0,) * 6
        # Only what sizing reads: the size depends on nothing else.
        assert obs._fields == ("viewer", "view", "own_revealed_captured_by_opp",
                               "own_dark_lost_count", "opp_revealed_captured",
                               "opp_dark_captured_by_viewer")

    def test_view_never_leaks_hidden_kinds(self) -> None:
        state = initial_state(1)
        obs = observe(state, Side.BLACK)
        assert obs.view == state.board
        # nothing is revealed initially except the Kings
        assert all(abs(c) in (0, 1, DARK_CODE) for c in obs.view)

    def test_equal_observations_equal_move_sets(self) -> None:
        a = swap_hidden(initial_state(5), "b2", PieceKind.PAWN)
        b = swap_hidden(initial_state(5), "b2", PieceKind.HORSE)
        assert a.hidden != b.hidden
        assert observe(a, Side.RED) == observe(b, Side.RED)
        assert legal_moves(a) == legal_moves(b)

    def test_revealed_capture_is_public(self) -> None:
        # build_state pre-fills the capture lists with the off-board
        # material, so assert the capture's delta on each bucket
        state = build_state(red={"e0": "K", "a4": "R"},
                            black={"e8": "K", "a6": "r", "i9": "h"})
        red_before = observe(state, Side.RED)
        black_before = observe(state, Side.BLACK)
        nxt, _ = apply_move(state, mv("a4a6"))
        red_view = observe(nxt, Side.RED)
        black_view = observe(nxt, Side.BLACK)
        one_rook = kind_counts([PieceKind.ROOK])
        assert tuple(a - b for a, b in zip(red_view.opp_revealed_captured,
                                           red_before.opp_revealed_captured)) == one_rook
        assert red_view.opp_dark_captured_by_viewer == \
            red_before.opp_dark_captured_by_viewer
        assert tuple(a - b for a, b in zip(black_view.own_revealed_captured_by_opp,
                                           black_before.own_revealed_captured_by_opp)) == one_rook
        assert black_view.own_dark_lost_count == black_before.own_dark_lost_count


class TestDeterminismAndConservation:
    def test_initial_state_deterministic(self) -> None:
        assert initial_state(42) == initial_state(42)
        assert initial_state(42) != initial_state(43)

    def test_replay_reproduces_states(self) -> None:
        rng = random.Random(77)
        state = initial_state(77)
        moves_played = []
        for _ in range(60):
            if state.status.over:
                break
            moves = legal_moves(state)
            m = moves[rng.randrange(len(moves))]
            moves_played.append(m)
            state, _ = apply_move(state, m)
        replayed = initial_state(77)
        for m in moves_played:
            replayed, _ = apply_move(replayed, m)
        assert replayed == state

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), plies=st.integers(0, 120))
    def test_successors_of_distinct_moves_are_distinct_states(self, seed: int,
                                                              plies: int) -> None:
        # States are hashable values, and no two legal moves lead to the
        # same one: the successors form a set with one member per move.
        state = random_state(seed, plies)
        assume(not state.status.over)
        moves = legal_moves(state)
        assert len({apply_move(state, m)[0] for m in moves}) == len(moves)

    def test_piece_conservation_and_dark_immobility(self) -> None:
        for seed in range(12):
            state = initial_state(seed)
            rng = random.Random(seed)
            for _ in range(180):
                if state.status.over:
                    break
                moves = legal_moves(state)
                state, _ = apply_move(state, moves[rng.randrange(len(moves))])
                for side in (Side.RED, Side.BLACK):
                    captured = [
                        k for k, _ in state.captures[side.opponent]
                        if k is not PieceKind.KING
                    ]
                    total = board_kinds(state, side) + captured
                    assert kind_counts(total) == START_COUNTS, f"seed {seed}"
                for sq, cell in enumerate(state.board):
                    if abs(cell) == DARK_CODE:
                        side = Side.RED if cell > 0 else Side.BLACK
                        assert sq in DARK_HOME[side], square_name(sq)


class TestKnuthEstimator:
    """Knuth (1975): the product of the branching factors met on a uniform
    random playout of depth d, or 0 if the game ends first, has the number
    of depth-d move paths as its expected value.  `perft_counts` gives that
    number exactly, so the sampler's branching record and the exact tree
    count must agree within sampling error."""

    PLAYOUTS = 10_000
    Z_BOUND = 4.0

    @pytest.mark.parametrize("seed, plies", [(0, 0), (3, 20), (5, 40)],
                             ids=["start", "ply-20", "ply-40"])
    def test_mean_playout_product_matches_perft(self, seed: int, plies: int) -> None:
        start = random_state(seed, plies)
        assert not start.status.over
        depths = (2, 3)
        exact = perft_counts(start, depths[-1])
        rng = random.Random(f"knuth-{seed}-{plies}")
        sums = {d: [0, 0] for d in depths}     # Σ product, Σ product²
        for _ in range(self.PLAYOUTS):
            state, product = start, 1
            for d in range(1, depths[-1] + 1):
                if state.status.over:
                    product = 0
                else:
                    moves = legal_moves(state)
                    product *= len(moves)
                    if d < depths[-1]:
                        state, _ = apply_move(state, moves[rng.randrange(len(moves))])
                if d in sums:
                    sums[d][0] += product
                    sums[d][1] += product * product
        n = self.PLAYOUTS
        for d, (total, squares) in sums.items():
            mean = total / n
            se = math.sqrt((squares - n * mean * mean) / (n - 1) / n)
            z = (mean - exact[d - 1]) / se
            assert abs(z) < self.Z_BOUND, (d, mean, se, exact[d - 1])


def _records() -> dict[str, object]:
    """One of each per-ply record, built afresh from a fixed seed."""
    state = random_state(7, 30)
    assert not state.status.over
    obs = observe(state, state.side_to_move)
    return {
        "GameState": state,
        "MoveOutcome": apply_move(state, state.moves[0])[1],
        "Observation": obs,
        "HiddenPools": hidden_pools(obs),
    }


class TestRecordValues:
    """The per-ply records are immutable, hashable values."""

    FIELD = {"GameState": "board", "MoveOutcome": "revealed", "Observation": "viewer",
             "HiddenPools": "own_pool"}

    @pytest.mark.parametrize("name", list(FIELD))
    def test_field_assignment_raises(self, name: str) -> None:
        record, field = _records()[name], self.FIELD[name]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    @pytest.mark.parametrize("name", list(FIELD))
    def test_equal_values_hash_equal(self, name: str) -> None:
        a, b = _records()[name], _records()[name]
        assert a is not b
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("name", list(FIELD))
    def test_pickle_round_trip(self, name: str) -> None:
        record = _records()[name]
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record and hash(copy) == hash(record)
