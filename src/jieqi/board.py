"""Board geometry, piece kinds, cell codes and positional roles.

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


def square_name(sq: int) -> str:
    return FILE_LETTERS[sq % FILES] + str(sq // FILES)


def parse_square(text: str) -> int:
    if len(text) != 2 or text[0] not in FILE_LETTERS or text[1] not in "0123456789":
        raise ValueError(f"bad square name {text!r}")
    return square(FILE_LETTERS.index(text[0]), int(text[1]))


# --- cell code ---------------------------------------------------------------

def make_cell(side: Side, kind: PieceKind) -> int:
    # Plain int arithmetic on the IntEnum values: Red is 0, Black 1.
    v = kind + 1
    return -v if side else v


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

#: The 15 initial non-king squares of each side, indexed by Side; these are
#: the only squares a face-down piece can ever occupy (dark pieces never
#: move).
DARK_HOME: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        sq for sq in range(NUM_SQUARES)
        if ROLE_OF_SQUARE[sq] not in (None, PieceKind.KING)
        and (sq // FILES <= 4) == (side is Side.RED)
    )
    for side in Side
)


def in_palace(sq: int, side: Side) -> bool:
    f, r = sq % FILES, sq // FILES
    if not 3 <= f <= 5:
        return False
    return r <= 2 if side is Side.RED else r >= 7
