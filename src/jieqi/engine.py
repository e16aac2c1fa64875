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

States are immutable, hashable values: `hidden` is indexed by square,
with `None` where no face-down identity is carried, and `captures` by the
capturing side.  `apply_move` returns a fresh state.  Randomness enters
only through the explicit seed of `initial_state`, which fixes every hidden
identity up front.  A state carries its status and the side to move's
legal moves, generated once when the state is made.  `make_state` is the
one place that builds a state, and so the one termination rule and the
one move generation: `initial_state`, the state-text decoder and
`apply_move` all call it.  It requires a state that play can reach: play
stops at the first King capture, so `make_state` reads a King capture from
the capture that ended the game.  The decoder checks the Kings before it
calls it and, after it, rejects a captured King this rule does not read,
and a King outside its own palace in any ending but meet-the-marshals.
"""

from __future__ import annotations

import random
from bisect import insort
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
    START_COUNTS,
    PieceKind,
    Side,
    in_palace,
    make_cell,
    square_name,
)


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


class MoveOutcome(NamedTuple):
    """What a move did: the kind it revealed, and the entry it appended to
    the mover's capture list (the victim is always the mover's opponent)."""

    revealed: PieceKind | None
    captured: Capture | None


class GameState(NamedTuple):
    """Arbiter state: public board plus the hidden identity assignment.
    Every field is immutable, so equal states hash equal.  It is a
    NamedTuple, so it also compares equal to a plain tuple of its fields.

    `board` holds only player-visible cell codes (see jieqi.board).  It is
    the one record of where the Kings stand: a captured King's cell is gone
    from it.  `hidden[sq]` is the true kind of the face-down piece on `sq`,
    and `None` on every other square.  A face-down square whose entry is
    `None` has an *undetermined* identity: such states arise only from
    decoding a state text without its hidden section, and support
    observation-level operations only.

    `squares[side]` lists the squares of `side`'s pieces on `board`, King
    included, in ascending (board) order, so the move generator visits a
    side's pieces without scanning the board.  It is always
    `side_squares(board)`: `initial_state` and the state-text decoder
    derive it, and `apply_move` keeps it up to date.  `captures[side]`
    lists the pieces `side` took, in capture order, each with the face it
    had when taken.

    `status` and `moves` are what `make_state` derives from the rest:
    `moves` holds the side to move's legal moves in generation order, and
    is empty once the game is over.
    """

    board: tuple[int, ...]
    squares: tuple[tuple[int, ...], tuple[int, ...]]
    hidden: tuple[PieceKind | None, ...]
    side_to_move: Side
    ply_count: int
    plies_since_capture: int
    captures: tuple[tuple[Capture, ...], tuple[Capture, ...]]
    status: TerminalStatus
    moves: tuple[Move, ...]
    rules: Rules

    def is_arbiter_complete(self) -> bool:
        """True when every face-down piece has a determined identity."""
        return all(kind is not None for kind, cell in zip(self.hidden, self.board)
                   if cell in DARK_CELL)


class Observation(NamedTuple):
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

    Each of the three capture fields is a kind count vector indexed like
    NON_KING_KINDS.  Captured Kings are visible on the board view (by
    absence) and are not part of the counts.
    """

    viewer: Side
    view: tuple[int, ...]
    own_revealed_captured_by_opp: tuple[int, ...]
    own_dark_lost_count: int
    opp_revealed_captured: tuple[int, ...]
    opp_dark_captured_by_viewer: tuple[int, ...]


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

_KING_KIND = PieceKind.KING
_new = tuple.__new__


def initial_state(seed: int, rules: Rules = STANDARD_RULES) -> GameState:
    """Shuffled starting position: Kings face-up on e0/e9, each side's 15
    other pieces assigned uniformly at random (from `seed`) to that side's
    15 remaining initial squares, face-down."""
    rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)
    board = [0] * NUM_SQUARES
    hidden: list[PieceKind | None] = [None] * NUM_SQUARES
    board[RED_KING_START], board[BLACK_KING_START] = KING_CELL
    start_kinds = [kind for kind, count in zip(NON_KING_KINDS, START_COUNTS)
                   for _ in range(count)]
    for side in Side:
        kinds = start_kinds[:]
        rng.shuffle(kinds)
        for sq, kind in zip(DARK_HOME[side], kinds):
            board[sq] = DARK_CELL[side]
            hidden[sq] = kind
    board = tuple(board)
    return make_state(board, side_squares(board), tuple(hidden), Side.RED, 0, 0,
                      ((), ()), rules)


def make_state(
    board: tuple[int, ...],
    squares: tuple[tuple[int, ...], tuple[int, ...]],
    hidden: tuple[PieceKind | None, ...],
    side_to_move: Side,
    ply_count: int,
    plies_since_capture: int,
    captures: tuple[tuple[Capture, ...], tuple[Capture, ...]],
    rules: Rules,
) -> GameState:
    """The state with these fields, its `status` and `moves` derived from
    them, which must be reachable in play (`decode_state` first checks that
    at most one King is captured).  `squares` must be `side_squares(board)`.

    The termination rule, checked in order: King captured, no-capture draw,
    side to move stalemated (it has no legal move).  Play stops at the
    first King capture, and that capture restarts the counter and hands the
    move to the loser; so a King is captured exactly when the counter is 0
    and the last entry of the previous mover's capture list is a King.  A
    King can reach the enemy palace only by the flying-general capture, so
    a winner whose King stands in the loser's palace won by
    meet-the-marshals; any other King capture is a plain one.
    """
    moves: tuple[Move, ...] = ()
    winner = OPPONENT[side_to_move]
    if not plies_since_capture and captures[winner] and captures[winner][-1].kind is _KING_KIND:
        reason = (WinReason.MEET_MARSHALS
                  if in_palace(board.index(KING_CELL[winner]), side_to_move)
                  else WinReason.KING_CAPTURED)
        status = TerminalStatus.win(winner, reason)
    elif plies_since_capture >= rules.draw_plies:
        status = DRAW
    else:
        moves = _gen_all(board, squares[side_to_move], side_to_move, rules)
        status = (ONGOING if moves
                  else TerminalStatus.win(side_to_move.opponent, WinReason.OPPONENT_STALEMATED))
    # tuple.__new__ skips the generated __new__'s argument handling.
    return _new(GameState, (board, squares, hidden, side_to_move, ply_count,
                            plies_since_capture, captures, status, moves, rules))


def side_squares(board: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each side's occupied squares on `board`, ascending, indexed by Side."""
    red: list[int] = []
    black: list[int] = []
    for sq, cell in enumerate(board):
        if cell > 0:
            red.append(sq)
        elif cell:
            black.append(sq)
    return tuple(red), tuple(black)


# ---------------------------------------------------------------------------
# move generation
# ---------------------------------------------------------------------------

# Plan tags: how `_gen_all` reads a plan's targets.
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
    Plans are shared wherever pieces move alike.
    """
    squares = range(NUM_SQUARES)

    def shift(sq: int, df: int, dr: int) -> int | None:
        f, r = sq % FILES + df, sq // FILES + dr
        return r * FILES + f if 0 <= f < FILES and 0 <= r < RANKS else None

    def steps(sq: int, deltas: Iterable[tuple[int, int]], palace: Side | None = None) -> tuple:
        # With `palace`, the piece stands and lands only in that side's palace.
        if palace is not None and not in_palace(sq, palace):
            return (_STEP, ())
        dests = [d for df, dr in deltas if (d := shift(sq, df, dr)) is not None
                 and (palace is None or in_palace(d, palace))]
        return (_STEP, tuple([(d, Move(sq, d)) for d in dests]))

    def legs(sq: int, pairs: tuple) -> tuple:
        # A destination on the board has its leg on the board too.
        return (_LEG, tuple([(shift(sq, *leg), d, Move(sq, d))
                             for leg, (df, dr) in pairs
                             if (d := shift(sq, df, dr)) is not None]))

    def ray(sq: int, df: int, dr: int) -> tuple[tuple[int, Move], ...]:
        out = []
        d = shift(sq, df, dr)
        while d is not None:
            out.append((d, Move(sq, d)))
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


def legal_moves(state: GameState) -> tuple[Move, ...]:
    """All legal moves for the side to move, in generation order.

    Face-down pieces move by their square's role, revealed pieces by their
    true kind; the result therefore depends only on observation-visible
    data.  Moves that expose the Kings to each other are included -- they
    lose to the opponent's flying-general capture, which is itself listed
    here whenever the Kings stand exposed.  The state carries the list.
    """
    if state.status.over:
        raise ValueError("game is over; no legal moves")
    return state.moves


def _gen_all(
    board: tuple[int, ...], squares: tuple[int, ...], side: Side, rules: Rules,
) -> tuple[Move, ...]:
    """The moves of `side`, whose pieces stand on `squares`, in board order.
    With `sign` +1 for Red, -1 for Black, `d` is open when `board[d] * sign <= 0`."""
    moves: list[Move] = []
    add = moves.append
    sign = CELL_SIGN[side]
    plans = _PLANS[rules.classic_dark_roles]
    for sq in squares:
        tag, targets = plans[board[sq]][sq]
        if tag == _STEP:
            for d, m in targets:
                if board[d] * sign <= 0:
                    add(m)
        elif tag == _LEG:
            for leg, d, m in targets:
                if board[leg] == 0 and board[d] * sign <= 0:
                    add(m)
        elif tag == _ROOK:
            for ray in targets:
                for d, m in ray:
                    c = board[d]
                    if c:
                        if c * sign < 0:
                            add(m)
                        break
                    add(m)
        elif tag == _CANNON:
            for ray in targets:
                path = iter(ray)
                for d, m in path:       # slides up to the screen
                    if board[d]:
                        break
                    add(m)
                for d, m in path:       # the first piece beyond it
                    c = board[d]
                    if c:
                        if c * sign < 0:
                            add(m)
                        break
        else:  # King
            steps, ahead, enemy_king = targets
            for d, m in steps:
                if board[d] * sign <= 0:
                    add(m)
            for d, m in ahead:      # flying general: take an exposed enemy King
                c = board[d]
                if c:
                    if c == enemy_king:
                        add(m)
                    break
    return tuple(moves)


# ---------------------------------------------------------------------------
# applying moves
# ---------------------------------------------------------------------------

def apply_move(state: GameState, move: Move) -> tuple[GameState, MoveOutcome]:
    """Play `move` and return (successor, outcome).

    A face-down mover is revealed; a captured piece goes to the mover's
    capture list with the face it had.  The successor is built by
    `make_state`, from the occupied squares updated here in place of a
    board scan.  A move outside `state.moves`, given as a `Move` or as a
    plain (from, to) pair, raises IllegalMoveError.

    A move that reveals or captures a face-down piece whose identity the
    state does not carry raises MissingHiddenInfoError.
    """
    if move not in state.moves:
        raise IllegalMoveError("game is over" if state.status.over
                               else f"illegal move {Move(*move).text()}")
    from_sq, to_sq = move
    mover = state.side_to_move
    rules = state.rules
    board = state.board
    from_cell = board[from_sq]
    to_cell = board[to_sq]
    board = list(board)
    hidden = state.hidden
    revealed: PieceKind | None = None
    if from_cell in DARK_CELL:
        revealed = hidden[from_sq]
        if revealed is None:
            raise _missing_identity(mover, from_sq)
        board[to_sq] = make_cell(mover, revealed)
    else:
        board[to_sq] = from_cell
    board[from_sq] = 0

    next_side = OPPONENT[mover]
    own = list(state.squares[mover])
    own.remove(from_sq)
    insort(own, to_sq)
    theirs = state.squares[next_side]
    captured: Capture | None = None
    captures = state.captures
    if to_cell:
        cap_kind = CELL_KIND[to_cell]
        cap_dark = cap_kind is None
        if cap_dark:
            cap_kind = hidden[to_sq]
            if cap_kind is None:
                raise _missing_identity(next_side, to_sq)
        captured = Capture(cap_kind, cap_dark)
        theirs = list(theirs)
        theirs.remove(to_sq)
        theirs = tuple(theirs)
        captures = list(captures)
        captures[mover] += (captured,)
        captures = tuple(captures)
        plies_since_capture = 0
    else:
        plies_since_capture = state.plies_since_capture + 1
    if revealed is not None or (captured is not None and captured.was_dark):
        # Any other move leaves every identity in place: share the tuple.
        hidden = list(hidden)
        hidden[from_sq] = hidden[to_sq] = None
        hidden = tuple(hidden)

    # `mover` is an IntEnum, so Black (1) is truthy and Red (0) is not.
    squares = (theirs, tuple(own)) if mover else (tuple(own), theirs)
    new_state = make_state(tuple(board), squares, hidden, next_side, state.ply_count + 1,
                           plies_since_capture, captures, rules)
    return new_state, _new(MoveOutcome, (revealed, captured))


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
    revealed = [0] * len(NON_KING_KINDS)
    dark = [0] * len(NON_KING_KINDS)
    for kind, was_dark in entries:
        if kind is not _KING_KIND:
            (dark if was_dark else revealed)[KIND_INDEX[kind]] += 1
    return revealed, dark


def observe(state: GameState, viewer: Side) -> Observation:
    """Project the arbiter state to what `viewer` knows."""
    own_revealed_lost, own_dark_lost = _capture_counts(state.captures[OPPONENT[viewer]])
    opp_revealed_taken, opp_dark_taken = _capture_counts(state.captures[viewer])
    # Positional, in field order: built from keywords, it costs about twice
    # as much.
    return Observation(viewer, state.board, tuple(own_revealed_lost), sum(own_dark_lost),
                       tuple(opp_revealed_taken), tuple(opp_dark_taken))


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
        # A terminal state has no moves, so it ends its sequences.
        counts[depth + 1] += len(s.moves)
        if depth + 1 < max_depth:
            for m in s.moves:
                walk(apply_move(s, m)[0], depth + 1)

    walk(state, 0)
    return counts[1:]
