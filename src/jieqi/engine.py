"""Ground-truth rules engine for dark Chinese chess (JieQi).

Game summary: standard Chinese-chess material on the 9x10 board, but every
piece except the two Kings starts face-down on a uniformly shuffled initial
square of its own side.  A face-down piece moves by the *role* of the square
it sits on (the Chinese-chess kind that starts there) and is flipped face-up
by its first move.  Revealed pieces move by their true kind, with the JieQi
relaxation that Guards and Ministers may roam the whole board.  Capturing a
face-down piece shows its identity to the capturer only; the owner learns
just that a piece was lost.

Rule decisions baked into this engine:

  * Red moves first.
  * Meet the marshals is resolved by the flying-general capture: a move
    that leaves the two Kings facing on an open file is legal, but it hands
    the opponent a King-takes-King capture along that file, so the player
    who exposes the file loses to it.  King-takes-King is the only way the
    facing configuration ends a game, and it is reported as the
    meet-the-marshals result.
  * A side with no legal moves loses.
  * The no-capture draw counter resets only on captures; reveals do not
    reset it.
  * A revealed Pawn's river status is judged from its current square.

All state is immutable; `apply_move` returns a fresh state.  Randomness
enters only through the explicit seed of `initial_state`, which fixes every
hidden identity up front.  `game_status` is the one termination rule: both
`apply_move` and the state-text decoder derive a state's status through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, unique
from typing import Iterable, NamedTuple

from .board import (
    BLACK_KING_START,
    CELL_KIND,
    CELL_SIGN,
    DARK_CELL,
    DARK_HOME,
    FILES,
    KIND_INDEX,
    KING_CELL,
    NON_KING_KINDS,
    NUM_SQUARES,
    OPPONENT,
    RANKS,
    RED_KING_START,
    ROLE_OF_SQUARE,
    PieceKind,
    Side,
    in_palace,
    make_cell,
    square_name,
)
from .combinatorics import START_POOL, KindMultiset


class IllegalMoveError(ValueError):
    """Raised when a move is not legal in the given state."""


class MissingHiddenInfoError(ValueError):
    """Raised when a move reveals or captures a face-down piece whose
    identity the state does not carry (a state decoded without its hidden
    section)."""


@dataclass(frozen=True)
class Rules:
    """Tunable rule knobs.

    draw_plies: the game is drawn when this many plies pass without a
        capture.
    classic_dark_roles: confine face-down guard-role pieces to their own
        palace (the classic movement), instead of the relaxed
        anywhere-on-board diagonal step. Revealed pieces are unaffected.
    """

    draw_plies: int = 40
    classic_dark_roles: bool = False

    def __post_init__(self) -> None:
        if self.draw_plies < 1:
            raise ValueError(f"draw_plies must be >= 1, got {self.draw_plies}")

    def flags(self) -> dict[str, bool]:
        return {"classic_dark_roles": self.classic_dark_roles}


STANDARD_RULES = Rules()


class Move(NamedTuple):
    from_sq: int
    to_sq: int

    def text(self) -> str:
        return square_name(self.from_sq) + square_name(self.to_sq)


@unique
class WinReason(Enum):
    KING_CAPTURED = "king_captured"
    MEET_MARSHALS = "meet_marshals"
    OPPONENT_STALEMATED = "opponent_stalemated"


@dataclass(frozen=True)
class TerminalStatus:
    over: bool = False
    winner: Side | None = None
    reason: WinReason | None = None

    @classmethod
    def win(cls, side: Side, reason: WinReason) -> TerminalStatus:
        return cls(True, side, reason)

    def label(self) -> str:
        """Stable snake_case tag used in CSV/JSON output."""
        if not self.over:
            return "ongoing"
        if self.winner is None:
            return "draw"
        return f"win_{self.winner.name.lower()}_{self.reason.value}"


ONGOING = TerminalStatus()
DRAW = TerminalStatus(over=True)


class Capture(NamedTuple):
    """One entry of a side's capture list."""

    kind: PieceKind
    was_dark: bool          # face of the piece at the moment it was taken


@dataclass(frozen=True)
class MoveOutcome:
    """What a move did: the kind it revealed, and the entry it appended to
    the mover's capture list (the victim is always the mover's opponent)."""

    revealed: PieceKind | None
    captured: Capture | None


@dataclass(frozen=True)
class GameState:
    """Arbiter state: public board plus the hidden identity assignment.

    `board` holds only player-visible cell codes (see jieqi.board).  It is
    the one record of where the Kings stand: a captured King's cell is gone
    from it.  The true kinds of face-down pieces live in `hidden`, keyed by
    square.  A dark square absent from `hidden` has an *undetermined*
    identity: such states arise only from decoding a state text without its
    hidden section, and support observation-level operations only.
    """

    board: tuple[int, ...]
    hidden: dict[int, PieceKind]
    side_to_move: Side
    ply_count: int
    plies_since_capture: int
    captured_by_red: tuple[Capture, ...]
    captured_by_black: tuple[Capture, ...]
    status: TerminalStatus
    rules: Rules

    def captures_by(self, side: Side) -> tuple[Capture, ...]:
        return self.captured_by_red if side is Side.RED else self.captured_by_black

    def is_arbiter_complete(self) -> bool:
        """True when every face-down piece has a determined identity."""
        return all(
            sq in self.hidden
            for sq, cell in enumerate(self.board)
            if cell in DARK_CELL
        )


@dataclass(frozen=True)
class Observation:
    """Everything one player can see.

    The board view is identical for both players (nobody knows the identity
    of any face-down piece, one's own included); the asymmetry is in the
    capture knowledge:

      * own_revealed_captured_by_opp / opp_revealed_captured are public --
        those pieces were face-up when taken.
      * own_dark_lost_count: the viewer only knows how many of its
        face-down pieces were taken, not what they were.
      * opp_dark_captured_by_viewer: the viewer saw each face-down piece it
        captured, so it knows those kinds privately.

    Captured Kings are visible on the board view (by absence) and are not
    part of the kind multisets.
    """

    viewer: Side
    view: tuple[int, ...]
    own_revealed_captured_by_opp: KindMultiset
    own_dark_lost_count: int
    opp_revealed_captured: KindMultiset
    opp_dark_captured_by_viewer: KindMultiset
    side_to_move: Side
    plies_since_capture: int


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def initial_state(seed: int, rules: Rules = STANDARD_RULES) -> GameState:
    """Shuffled starting position: Kings face-up on e0/e9, each side's 15
    other pieces assigned uniformly at random (from `seed`) to that side's
    15 remaining initial squares, face-down."""
    rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)
    board = [0] * NUM_SQUARES
    hidden: dict[int, PieceKind] = {}
    board[RED_KING_START], board[BLACK_KING_START] = KING_CELL
    for side in Side:
        kinds = START_POOL.expand()
        rng.shuffle(kinds)
        for sq, kind in zip(DARK_HOME[side], kinds):
            board[sq] = DARK_CELL[side]
            hidden[sq] = kind
    return GameState(
        board=tuple(board),
        hidden=hidden,
        side_to_move=Side.RED,
        ply_count=0,
        plies_since_capture=0,
        captured_by_red=(),
        captured_by_black=(),
        status=ONGOING,
        rules=rules,
    )


# ---------------------------------------------------------------------------
# move generation
# ---------------------------------------------------------------------------

# Plan tags: how `_gen_piece` reads a plan's targets.
_STEP, _LEG, _ROOK, _CANNON, _KING = range(5)

# Movement as (file, rank) offsets.  Their order is the order in which a
# piece's moves are generated, which seeded self-play depends on.
_ORTHOGONAL = ((0, 1), (1, 0), (0, -1), (-1, 0))     # N, E, S, W
_DIAGONAL = ((1, 1), (1, -1), (-1, -1), (-1, 1))     # NE, SE, SW, NW
_SIDEWAYS = ((1, 0), (-1, 0))
# (leg, destination) pairs: the move is blocked while the leg is occupied.
_HORSE_LEGS = (
    ((0, 1), (1, 2)), ((0, 1), (-1, 2)), ((1, 0), (2, 1)), ((1, 0), (2, -1)),
    ((0, -1), (1, -2)), ((0, -1), (-1, -2)), ((-1, 0), (-2, 1)), ((-1, 0), (-2, -1)),
)
# Ministers jump two diagonal steps over an empty midpoint; the river does
# not block them (JieQi relaxation).
_MINISTER_LEGS = tuple(((df, dr), (2 * df, 2 * dr)) for df, dr in _DIAGONAL)


def _plan_table() -> tuple[dict[int, tuple[tuple, ...]], ...]:
    """`_PLANS[classic_dark_roles][cell][sq]` is the (tag, targets) plan of
    cell code `cell` on `sq`, built from the offsets above, in their order.
    step: (dest, move) pairs; leg: (leg, dest, move) triples; rook, cannon:
    the four orthogonal rays of (dest, move) pairs; King: (its steps, the
    file ray ahead, the enemy King's cell).  The King and the classic dark
    Guard keep only their own palace; Guards otherwise step diagonally
    anywhere (JieQi relaxation); a Pawn steps forward, and sideways too
    once across the river.  A face-down cell moves by its square's role.
    To keep the table small, each (dest, move) pair is one object (2,550 in
    all) and plans are shared wherever pieces move alike.
    """
    squares = range(NUM_SQUARES)
    interned: list[tuple[int, Move] | None] = [None] * (NUM_SQUARES * NUM_SQUARES)

    def shift(sq: int, df: int, dr: int) -> int | None:
        f, r = sq % FILES + df, sq // FILES + dr
        return r * FILES + f if 0 <= f < FILES and 0 <= r < RANKS else None

    def target(sq: int, d: int) -> tuple[int, Move]:
        i = sq * NUM_SQUARES + d
        if interned[i] is None:
            interned[i] = (d, Move(sq, d))
        return interned[i]

    def steps(sq: int, deltas: Iterable[tuple[int, int]], palace: Side | None = None) -> tuple:
        # With `palace`, the piece stands and lands only in that side's palace.
        if palace is not None and not in_palace(sq, palace):
            return (_STEP, ())
        dests = [d for df, dr in deltas if (d := shift(sq, df, dr)) is not None
                 and (palace is None or in_palace(d, palace))]
        return (_STEP, tuple([target(sq, d) for d in dests]))

    def legs(sq: int, pairs: tuple) -> tuple:
        # A destination on the board has its leg on the board too.
        return (_LEG, tuple([(shift(sq, *leg), d, target(sq, d)[1])
                             for leg, (df, dr) in pairs
                             if (d := shift(sq, df, dr)) is not None]))

    def ray(sq: int, df: int, dr: int) -> tuple[tuple[int, Move], ...]:
        out = []
        d = shift(sq, df, dr)
        while d is not None:
            out.append(target(sq, d))
            d = shift(d, df, dr)
        return tuple(out)

    rays = [{delta: ray(sq, *delta) for delta in _ORTHOGONAL} for sq in squares]
    four_rays = [tuple(by_delta.values()) for by_delta in rays]
    side_free = {
        PieceKind.ROOK: tuple([(_ROOK, four_rays[sq]) for sq in squares]),
        PieceKind.CANNON: tuple([(_CANNON, four_rays[sq]) for sq in squares]),
        PieceKind.HORSE: tuple([legs(sq, _HORSE_LEGS) for sq in squares]),
        PieceKind.MINISTER: tuple([legs(sq, _MINISTER_LEGS) for sq in squares]),
        PieceKind.GUARD: tuple([steps(sq, _DIAGONAL) for sq in squares]),
    }
    relaxed, classic = {}, {}
    for side in Side:
        forward = 1 if side is Side.RED else -1
        own_half = range(5) if side is Side.RED else range(5, RANKS)
        kings = [(_KING, (steps(sq, _ORTHOGONAL, side)[1], rays[sq][0, forward],
                          KING_CELL[side.opponent])) for sq in squares]
        pawns = [steps(sq, ((0, forward),) + (() if sq // FILES in own_half else _SIDEWAYS))
                 for sq in squares]
        by_kind = {**side_free, PieceKind.PAWN: tuple(pawns), PieceKind.KING: tuple(kings)}
        relaxed.update({make_cell(side, kind): plans for kind, plans in by_kind.items()})
        palace_guards = tuple([steps(sq, _DIAGONAL, side) for sq in squares])
        palace = {**by_kind, PieceKind.GUARD: palace_guards}
        for rows, plans in ((relaxed, by_kind), (classic, palace)):
            rows[DARK_CELL[side]] = tuple([(_STEP, ()) if role is None else plans[role][sq]
                                           for sq, role in enumerate(ROLE_OF_SQUARE)])
    return relaxed, {**relaxed, **classic}


_PLANS = _plan_table()


def legal_moves(state: GameState) -> list[Move]:
    """All legal moves for the side to move.

    Face-down pieces move by their square's role, revealed pieces by their
    true kind; the result therefore depends only on observation-visible
    data.  Moves that expose the Kings to each other are included -- they
    lose to the opponent's flying-general capture, which is itself listed
    here whenever the Kings stand exposed.
    """
    if state.status.over:
        raise ValueError("game is over; no legal moves")
    return _gen_all(state.board, state.side_to_move, state.rules)


def _gen_all(
    board: tuple[int, ...], side: Side, rules: Rules, first: bool = False
) -> list[Move]:
    """The side's moves in board order; with `first`, only those of the
    first piece that has any (the stalemate probe)."""
    moves: list[Move] = []
    sign = CELL_SIGN[side]
    plans = _PLANS[rules.classic_dark_roles]
    for sq, cell in enumerate(board):
        if cell * sign > 0:
            _gen_piece(board, sign, plans[cell][sq], moves)
            if first and moves:
                break
    return moves


def _gen_piece(board: tuple[int, ...], sign: int, plan: tuple, out: list[Move]) -> None:
    """Append a piece's moves.  `sign` is +1 for Red and -1 for Black, so a
    square `d` is open to the piece when `board[d] * sign <= 0`."""
    tag, targets = plan
    if tag == _STEP:
        for d, m in targets:
            if board[d] * sign <= 0:
                out.append(m)
    elif tag == _LEG:
        for leg, d, m in targets:
            if board[leg] == 0 and board[d] * sign <= 0:
                out.append(m)
    elif tag == _ROOK:
        for ray in targets:
            for d, m in ray:
                c = board[d]
                if c:
                    if c * sign < 0:
                        out.append(m)
                    break
                out.append(m)
    elif tag == _CANNON:
        for ray in targets:
            squares = iter(ray)
            for d, m in squares:    # slides up to the screen
                if board[d]:
                    break
                out.append(m)
            for d, m in squares:    # the first piece beyond it
                c = board[d]
                if c:
                    if c * sign < 0:
                        out.append(m)
                    break
    else:  # King
        steps, ahead, enemy_king = targets
        for d, m in steps:
            if board[d] * sign <= 0:
                out.append(m)
        for d, m in ahead:      # flying general: take an exposed enemy King
            c = board[d]
            if c:
                if c == enemy_king:
                    out.append(m)
                break


# ---------------------------------------------------------------------------
# applying moves
# ---------------------------------------------------------------------------

_RED_KING, _BLACK_KING = KING_CELL


def game_status(
    board: tuple[int, ...],
    side_to_move: Side,
    plies_since_capture: int,
    rules: Rules,
) -> TerminalStatus:
    """The termination rule, checked in order: King captured (a King's cell
    is missing from the board), no-capture draw, side to move stalemated.

    A King can reach the enemy palace only by the flying-general capture,
    so a winner whose King stands in the loser's palace won by
    meet-the-marshals; any other King capture is a plain one.
    """
    if _RED_KING not in board or _BLACK_KING not in board:
        winner = Side.BLACK if _RED_KING not in board else Side.RED
        king = KING_CELL[winner]
        if king in board and in_palace(board.index(king), winner.opponent):
            return TerminalStatus.win(winner, WinReason.MEET_MARSHALS)
        return TerminalStatus.win(winner, WinReason.KING_CAPTURED)
    if plies_since_capture >= rules.draw_plies:
        return DRAW
    if not _gen_all(board, side_to_move, rules, first=True):
        return TerminalStatus.win(side_to_move.opponent, WinReason.OPPONENT_STALEMATED)
    return ONGOING


def apply_move(state: GameState, move: Move) -> tuple[GameState, MoveOutcome]:
    """Play `move` and return (successor, outcome).

    A face-down mover is revealed; a captured piece goes to the mover's
    capture list with the face it had.  The successor's status comes from
    `game_status`.

    A move that reveals or captures a face-down piece whose identity the
    state does not carry raises MissingHiddenInfoError.
    """
    if state.status.over:
        raise IllegalMoveError("game is over")
    from_sq, to_sq = move
    if not (0 <= from_sq < NUM_SQUARES and 0 <= to_sq < NUM_SQUARES):
        raise IllegalMoveError(f"square off board in {move}")
    mover = state.side_to_move
    rules = state.rules
    board = state.board
    from_cell = board[from_sq]
    sign = CELL_SIGN[mover]
    if from_cell * sign <= 0:
        raise IllegalMoveError(
            f"{move.text()}: no {mover.name} piece on {square_name(from_sq)}"
        )
    candidates: list[Move] = []
    _gen_piece(board, sign, _PLANS[rules.classic_dark_roles][from_cell][from_sq], candidates)
    if move not in candidates:
        raise IllegalMoveError(f"illegal move {move.text()}")

    to_cell = board[to_sq]
    board = list(board)
    hidden = dict(state.hidden)
    revealed: PieceKind | None = None
    if from_cell in DARK_CELL:
        revealed = hidden.pop(from_sq, None)
        if revealed is None:
            raise _missing_identity(mover, from_sq)
        board[to_sq] = make_cell(mover, revealed)
    else:
        board[to_sq] = from_cell
    board[from_sq] = 0

    next_side = OPPONENT[mover]
    captured: Capture | None = None
    captured_by_red = state.captured_by_red
    captured_by_black = state.captured_by_black
    if to_cell:
        cap_kind = CELL_KIND[to_cell]
        cap_dark = cap_kind is None
        if cap_dark:
            cap_kind = hidden.pop(to_sq, None)
            if cap_kind is None:
                raise _missing_identity(next_side, to_sq)
        captured = Capture(cap_kind, cap_dark)
        if sign > 0:
            captured_by_red += (captured,)
        else:
            captured_by_black += (captured,)
        plies_since_capture = 0
    else:
        plies_since_capture = state.plies_since_capture + 1

    board = tuple(board)
    new_state = GameState(
        board=board,
        hidden=hidden,
        side_to_move=next_side,
        ply_count=state.ply_count + 1,
        plies_since_capture=plies_since_capture,
        captured_by_red=captured_by_red,
        captured_by_black=captured_by_black,
        status=game_status(board, next_side, plies_since_capture, rules),
        rules=rules,
    )
    return new_state, MoveOutcome(revealed, captured)


def _missing_identity(side: Side, sq: int) -> MissingHiddenInfoError:
    return MissingHiddenInfoError(
        f"move needs the identity of the face-down {side.name} piece on "
        f"{square_name(sq)}, which the state does not carry"
    )


# ---------------------------------------------------------------------------
# observation projection
# ---------------------------------------------------------------------------

def _capture_counts(entries: tuple[Capture, ...]) -> tuple[list[int], list[int]]:
    """Kind counts of a capture list's (revealed, dark) entries.  Kings are
    never face-down, so a captured King is skipped as revealed."""
    king = PieceKind.KING
    revealed = [0] * len(NON_KING_KINDS)
    dark = [0] * len(NON_KING_KINDS)
    for kind, was_dark in entries:
        if kind is not king:
            (dark if was_dark else revealed)[KIND_INDEX[kind]] += 1
    return revealed, dark


def observe(state: GameState, viewer: Side) -> Observation:
    """Project the arbiter state to what `viewer` knows."""
    by_side = (state.captured_by_red, state.captured_by_black)
    own_revealed_lost, own_dark_lost = _capture_counts(by_side[OPPONENT[viewer]])
    opp_revealed_taken, opp_dark_taken = _capture_counts(by_side[viewer])
    return Observation(
        viewer=viewer,
        view=state.board,
        own_revealed_captured_by_opp=KindMultiset(tuple(own_revealed_lost)),
        own_dark_lost_count=sum(own_dark_lost),
        opp_revealed_captured=KindMultiset(tuple(opp_revealed_taken)),
        opp_dark_captured_by_viewer=KindMultiset(tuple(opp_dark_taken)),
        side_to_move=state.side_to_move,
        plies_since_capture=state.plies_since_capture,
    )


# ---------------------------------------------------------------------------
# perft
# ---------------------------------------------------------------------------

def perft_counts(state: GameState, max_depth: int) -> list[int]:
    """Number of distinct move sequences of each length 1..max_depth from
    `state`, with reveals resolved by the state's hidden assignment.
    Sequences ending in a terminal position are counted at their length and
    not extended."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    counts = [0] * (max_depth + 1)

    def walk(s: GameState, depth: int) -> None:
        moves = _gen_all(s.board, s.side_to_move, s.rules)
        counts[depth + 1] += len(moves)
        if depth + 1 < max_depth:
            for m in moves:
                nxt, _ = apply_move(s, m)
                if not nxt.status.over:
                    walk(nxt, depth + 1)

    if not state.status.over:
        walk(state, 0)
    return counts[1:]
