"""Shared test helpers: direct state construction and random-state pools."""

from __future__ import annotations

import random

from jieqi import (
    GameState,
    KindMultiset,
    Move,
    PieceKind,
    Rules,
    STANDARD_RULES,
    START_POOL,
    Side,
    apply_move,
    initial_state,
    legal_moves,
    square_name,
)
from jieqi.board import DARK_CELL, NUM_SQUARES, make_cell
from jieqi.engine import Capture, make_state, side_squares

#: The shuffled-start position with the hidden section omitted.
INITIAL_JFEN = (
    "xxxxkxxxx/9/1x5x1/x1x1x1x1x/9/9/X1X1X1X1X/1X5X1/9/XXXXKXXXX r 0 0 - - -"
)

#: The square of each square name.
_SQUARE_OF_NAME = {square_name(sq): sq for sq in range(NUM_SQUARES)}


def parse_square(name: str) -> int:
    return _SQUARE_OF_NAME[name]


#: The kind of each kind letter; `build_state` looks its letters up uppercased.
_KIND_OF_LETTER = {kind.letter: kind for kind in PieceKind}


def build_state(
    red: dict[str, str] | None = None,
    black: dict[str, str] | None = None,
    to_move: Side = Side.RED,
    plies_since_capture: int = 0,
    ply_count: int | None = None,
    rules: Rules = STANDARD_RULES,
) -> GameState:
    """Construct an arbitrary position directly, with the status and moves
    that `make_state` derives, as play would.

    `red` / `black` map square names to piece letters ('K','G','M','R','H',
    'C','P') for revealed pieces, or 'dark:<letter>' for a face-down piece
    with that true kind.  Both Kings must be placed: a King capture ends
    the game, so only `apply_move` makes one.  Other pieces missing from
    the board are auto-completed into the opposing capture list (revealed
    face) so piece conservation holds and the state encodes/decodes
    cleanly.  `ply_count` defaults to
    the smallest count `decode_state` accepts with those captures, side to
    move and `plies_since_capture`.
    """
    board = [0] * NUM_SQUARES
    hidden: list[PieceKind | None] = [None] * NUM_SQUARES
    on_board = {Side.RED: [], Side.BLACK: []}
    for side, pieces in ((Side.RED, red or {}), (Side.BLACK, black or {})):
        for name, entry in pieces.items():
            sq = parse_square(name)
            assert board[sq] == 0, f"square {name} used twice"
            if entry.startswith("dark:"):
                kind = _KIND_OF_LETTER[entry[5:].upper()]
                board[sq] = DARK_CELL[side]
                hidden[sq] = kind
            else:
                kind = _KIND_OF_LETTER[entry.upper()]
                board[sq] = make_cell(side, kind)
            on_board[side].append(kind)

    def missing(side: Side) -> tuple:
        pool = START_POOL
        entries = []
        assert PieceKind.KING in on_board[side], f"place the {side.name} King"
        for kind in on_board[side]:
            if kind is not PieceKind.KING:
                pool = without(pool, kind)
        entries.extend(Capture(kind, False) for kind in pool.expand())
        return tuple(entries)

    captures = (missing(Side.BLACK), missing(Side.RED))
    if ply_count is None:
        # Equal to the no-capture counter before any capture, above it
        # after one; odd exactly when Black is to move.
        ply_count = plies_since_capture
        if any(captures):
            ply_count += 1
        if ply_count % 2 != to_move:
            ply_count += 1
    board = tuple(board)
    return make_state(board, side_squares(board), tuple(hidden), to_move, ply_count,
                      plies_since_capture, captures, rules)


def with_hidden(state: GameState, hidden) -> GameState:
    """`state` with the hidden assignment `hidden`, and the status and
    moves `make_state` derives for it.  `GameState._replace` would keep
    the old `moves`, so a check that the moves do not depend on `hidden`
    would compare a tuple with itself."""
    return make_state(state.board, state.squares, tuple(hidden), state.side_to_move,
                      state.ply_count, state.plies_since_capture, state.captures,
                      state.rules)


def without(pool: KindMultiset, kind: PieceKind) -> KindMultiset:
    """`pool` less one `kind` (ValueError if it holds none)."""
    kinds = pool.expand()
    kinds.remove(kind)
    return KindMultiset.from_kinds(kinds)


def random_state(seed: int, plies: int, rules: Rules = STANDARD_RULES) -> GameState:
    """A state reached by `plies` uniform-random moves (fewer if the game
    ends first)."""
    state = initial_state(seed, rules)
    rng = random.Random(seed ^ 0xC0FFEE)
    for _ in range(plies):
        if state.status.over:
            break
        moves = legal_moves(state)
        state, _ = apply_move(state, moves[rng.randrange(len(moves))])
    return state


def mv(text: str) -> Move:
    return Move(parse_square(text[:2]), parse_square(text[2:]))
