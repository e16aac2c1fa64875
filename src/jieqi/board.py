"""Board geometry, piece kinds and precomputed movement tables.

Coordinate convention used throughout the package:

    square index = rank * 9 + file
    file 0..8, printed as letters a..i (a = file 0)
    rank 0..9, rank 0 is Red's back rank, rank 9 is Black's back rank
    Red's half is ranks 0-4, Black's half is ranks 5-9 (the river lies
    between ranks 4 and 5)
    palaces are files 3-5 x ranks 0-2 (Red) and files 3-5 x ranks 7-9 (Black)

Board cells are encoded as small ints:

    0            empty
    +v / -v      Red / Black piece
    |v| in 1..7  revealed piece of kind PieceKind(|v| - 1)
    |v| == 8     face-down (dark) piece; its true kind is *not* part of
                 the cell value, so anything computed from cells alone is
                 automatically free of hidden information

This module owns that code and the kind letters.  Other modules read cells
through CELL_KIND and the per-side DARK_CELL, KING_CELL and NON_KING_CELLS
tables, make revealed cells with make_cell, and spell kinds with
PieceKind.letter.
"""

from __future__ import annotations

from enum import IntEnum, unique

FILES = 9
RANKS = 10
NUM_SQUARES = FILES * RANKS

FILE_LETTERS = "abcdefghi"

# Cell magnitude marking a face-down piece (kinds occupy 1..7).
DARK_CODE = 8

# Kind letters, indexed by PieceKind value.
_KIND_LETTERS = "KGMRHCP"


@unique
class Side(IntEnum):
    RED = 0
    BLACK = 1

    @property
    def opponent(self) -> Side:
        return OPPONENT[self]

    @property
    def letter(self) -> str:
        return "rb"[self.value]

    @classmethod
    def from_letter(cls, letter: str) -> Side:
        try:
            return {"r": cls.RED, "b": cls.BLACK}[letter]
        except KeyError:
            raise ValueError(f"unknown side letter {letter!r}") from None


#: Each side's opponent, indexed by Side: cheaper than the property per ply.
OPPONENT = (Side.BLACK, Side.RED)


@unique
class PieceKind(IntEnum):
    KING = 0
    GUARD = 1
    MINISTER = 2
    ROOK = 3
    HORSE = 4
    CANNON = 5
    PAWN = 6

    @property
    def letter(self) -> str:
        return _KIND_LETTERS[self.value]

    @classmethod
    def from_letter(cls, letter: str) -> PieceKind:
        # One letter exactly: str.find also matches "" and prefixes ("KG").
        idx = _KIND_LETTERS.find(letter.upper()) if len(letter) == 1 else -1
        if idx < 0:
            raise ValueError(f"unknown piece letter {letter!r}")
        return cls(idx)


# Kinds that can be face-down, in the order used for multiset count vectors.
NON_KING_KINDS = (
    PieceKind.GUARD,
    PieceKind.MINISTER,
    PieceKind.ROOK,
    PieceKind.HORSE,
    PieceKind.CANNON,
    PieceKind.PAWN,
)

#: Position of each non-king kind in NON_KING_KINDS, and so in every count
#: vector.
KIND_INDEX = {kind: i for i, kind in enumerate(NON_KING_KINDS)}

# Per-side initial count of each non-king kind, indexed like NON_KING_KINDS.
START_COUNTS = (2, 2, 2, 2, 2, 5)


def square(file: int, rank: int) -> int:
    if not (0 <= file < FILES and 0 <= rank < RANKS):
        raise ValueError(f"square off board: file={file} rank={rank}")
    return rank * FILES + file


def square_rank(sq: int) -> int:
    return sq // FILES


def square_name(sq: int) -> str:
    return FILE_LETTERS[sq % FILES] + str(sq // FILES)


def parse_square(text: str) -> int:
    if len(text) != 2 or text[0] not in FILE_LETTERS or text[1] not in "0123456789":
        raise ValueError(f"bad square name {text!r}")
    return square(FILE_LETTERS.index(text[0]), int(text[1]))


# --- cell code ---------------------------------------------------------------

def make_cell(side: Side, kind: PieceKind) -> int:
    v = kind.value + 1
    return v if side is Side.RED else -v


#: Kind of every non-empty cell code; None for a face-down piece.
CELL_KIND: dict[int, PieceKind | None] = {
    **{make_cell(side, kind): kind for side in Side for kind in PieceKind},
    DARK_CODE: None,
    -DARK_CODE: None,
}

# Per-side cell codes, indexed by Side; a side's cells have sign CELL_SIGN.
CELL_SIGN = (1, -1)
DARK_CELL = (DARK_CODE, -DARK_CODE)
KING_CELL = tuple(make_cell(side, PieceKind.KING) for side in Side)
#: Revealed non-king codes in NON_KING_KINDS order.
NON_KING_CELLS = tuple(
    tuple(make_cell(side, kind) for kind in NON_KING_KINDS) for side in Side
)


# --- initial layout and positional roles -----------------------------------

_RED_BACK = {
    0: PieceKind.ROOK, 1: PieceKind.HORSE, 2: PieceKind.MINISTER,
    3: PieceKind.GUARD, 4: PieceKind.KING, 5: PieceKind.GUARD,
    6: PieceKind.MINISTER, 7: PieceKind.HORSE, 8: PieceKind.ROOK,
}

def _role(sq: int) -> PieceKind | None:
    f, r = sq % FILES, sq // FILES
    if r in (0, 9):
        return _RED_BACK[f]
    if r in (2, 7) and f in (1, 7):
        return PieceKind.CANNON
    if r in (3, 6) and f in (0, 2, 4, 6, 8):
        return PieceKind.PAWN
    return None


#: Chinese-chess starting kind for each of the 32 initial squares, None
#: elsewhere.  A face-down piece moves by the role of the square it sits on.
ROLE_OF_SQUARE: tuple[PieceKind | None, ...] = tuple(
    _role(sq) for sq in range(NUM_SQUARES)
)

RED_KING_START = square(4, 0)
BLACK_KING_START = square(4, 9)

#: The 15 initial non-king squares of each side; these are the only squares
#: a face-down piece can ever occupy (dark pieces never move).
RED_DARK_HOME: tuple[int, ...] = tuple(
    sq for sq in range(NUM_SQUARES)
    if ROLE_OF_SQUARE[sq] is not None and square_rank(sq) <= 4
    and sq != RED_KING_START
)
BLACK_DARK_HOME: tuple[int, ...] = tuple(
    sq for sq in range(NUM_SQUARES)
    if ROLE_OF_SQUARE[sq] is not None and square_rank(sq) >= 5
    and sq != BLACK_KING_START
)

DARK_HOME = {Side.RED: RED_DARK_HOME, Side.BLACK: BLACK_DARK_HOME}


def in_palace(sq: int, side: Side) -> bool:
    f, r = sq % FILES, sq // FILES
    if not 3 <= f <= 5:
        return False
    return r <= 2 if side is Side.RED else r >= 7


# --- precomputed movement tables --------------------------------------------
#
# All tables are indexed by square.  Directions are enumerated in a fixed
# order (N, E, S, W and NE, SE, SW, NW) so generated move lists are
# deterministic.

_ORTH = ((0, 1), (1, 0), (0, -1), (-1, 0))
_DIAG = ((1, 1), (1, -1), (-1, -1), (-1, 1))


def _shift(sq: int, df: int, dr: int) -> int | None:
    f, r = sq % FILES + df, sq // FILES + dr
    if 0 <= f < FILES and 0 <= r < RANKS:
        return r * FILES + f
    return None


def _king_steps(side: Side) -> tuple[tuple[int, ...], ...]:
    table = []
    for sq in range(NUM_SQUARES):
        if not in_palace(sq, side):
            table.append(())
            continue
        dests = [d for df, dr in _ORTH
                 if (d := _shift(sq, df, dr)) is not None and in_palace(d, side)]
        table.append(tuple(dests))
    return tuple(table)


KING_STEPS = {Side.RED: _king_steps(Side.RED), Side.BLACK: _king_steps(Side.BLACK)}

# Guards may step diagonally anywhere on the board (JieQi relaxation).
GUARD_STEPS: tuple[tuple[int, ...], ...] = tuple(
    tuple(d for df, dr in _DIAG if (d := _shift(sq, df, dr)) is not None)
    for sq in range(NUM_SQUARES)
)

# Classic guard movement (palace-confined), used for face-down guard-role
# pieces when the classic_dark_roles rules flag is set.
GUARD_STEPS_CLASSIC = {
    side: tuple(
        tuple(d for df, dr in _DIAG
              if (d := _shift(sq, df, dr)) is not None and in_palace(d, side))
        if in_palace(sq, side) else ()
        for sq in range(NUM_SQUARES)
    )
    for side in (Side.RED, Side.BLACK)
}

# Ministers jump two diagonal steps with an empty midpoint; the river does
# not block them (JieQi relaxation).  Entries are (midpoint, destination).
MINISTER_JUMPS: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(
        (m, d)
        for df, dr in _DIAG
        if (d := _shift(sq, 2 * df, 2 * dr)) is not None
        and (m := _shift(sq, df, dr)) is not None
    )
    for sq in range(NUM_SQUARES)
)

# Horse moves as (blocking leg, destination) pairs.
HORSE_MOVES: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(
        (leg, d)
        for lf, lr, df, dr in (
            (0, 1, 1, 2), (0, 1, -1, 2), (1, 0, 2, 1), (1, 0, 2, -1),
            (0, -1, 1, -2), (0, -1, -1, -2), (-1, 0, -2, 1), (-1, 0, -2, -1),
        )
        if (d := _shift(sq, df, dr)) is not None
        and (leg := _shift(sq, lf, lr)) is not None
    )
    for sq in range(NUM_SQUARES)
)

# Rays of squares running outward from each square, one tuple per direction,
# shared by rook slides and cannon slides/jumps.
RAYS: tuple[tuple[tuple[int, ...], ...], ...] = tuple(
    tuple(
        tuple(
            (sq // FILES + k * dr) * FILES + (sq % FILES + k * df)
            for k in range(1, 10)
            if 0 <= sq % FILES + k * df < FILES and 0 <= sq // FILES + k * dr < RANKS
        )
        for df, dr in _ORTH
    )
    for sq in range(NUM_SQUARES)
)


def _pawn_steps(side: Side) -> tuple[tuple[int, ...], ...]:
    forward = 1 if side is Side.RED else -1
    table = []
    for sq in range(NUM_SQUARES):
        dests = []
        if (d := _shift(sq, 0, forward)) is not None:
            dests.append(d)
        crossed = (sq // FILES >= 5) if side is Side.RED else (sq // FILES <= 4)
        if crossed:
            for df in (1, -1):
                if (d := _shift(sq, df, 0)) is not None:
                    dests.append(d)
        table.append(tuple(dests))
    return tuple(table)


# Pawn steps by current square: forward always, sideways once across the
# river, never backward.
PAWN_STEPS = {Side.RED: _pawn_steps(Side.RED), Side.BLACK: _pawn_steps(Side.BLACK)}
