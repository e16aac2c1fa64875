"""A second, deliberately naive move generator used only as a test oracle.

Written independently of the engine's generator, which looks up a plan per
(cell code, square) in a table built at import and walks its precomputed
targets.  This one builds no tables: it scans every (from, to) square pair
of the mover's pieces and decides reachability with file/rank arithmetic.
Slow but simple enough to audit line by line against the rules.
"""

from __future__ import annotations

from jieqi import GameState, Move, PieceKind, Side
from jieqi.board import ROLE_OF_SQUARE


def _fr(sq: int) -> tuple[int, int]:
    return sq % 9, sq // 9


def _pieces_between_on_line(board, frm: int, to: int) -> int | None:
    """Count occupied squares strictly between two squares sharing a file
    or rank; None if they do not share one."""
    f1, r1 = _fr(frm)
    f2, r2 = _fr(to)
    if f1 != f2 and r1 != r2:
        return None
    count = 0
    if f1 == f2:
        lo, hi = sorted((r1, r2))
        for r in range(lo + 1, hi):
            if board[r * 9 + f1] != 0:
                count += 1
    else:
        lo, hi = sorted((f1, f2))
        for f in range(lo + 1, hi):
            if board[r1 * 9 + f] != 0:
                count += 1
    return count


def _in_palace(f: int, r: int, side: Side) -> bool:
    return 3 <= f <= 5 and (r <= 2 if side is Side.RED else r >= 7)


def _reachable(state: GameState, frm: int, to: int) -> bool:
    board = state.board
    cell = board[frm]
    side = state.side_to_move
    if cell == 0 or (cell > 0) != (side is Side.RED):
        return False
    target = board[to]
    if target != 0 and (target > 0) == (cell > 0):
        return False

    if abs(cell) == 8:
        kind = ROLE_OF_SQUARE[frm]
    else:
        kind = PieceKind(abs(cell) - 1)
    f1, r1 = _fr(frm)
    f2, r2 = _fr(to)
    df, dr = f2 - f1, r2 - r1

    if kind is PieceKind.KING:
        if _in_palace(f2, r2, side) and abs(df) + abs(dr) == 1:
            return True
        # flying-general capture of the exposed enemy King
        enemy_king_cell = -1 if side is Side.RED else 1
        return (
            target == enemy_king_cell
            and f1 == f2
            and _pieces_between_on_line(board, frm, to) == 0
        )
    if kind is PieceKind.GUARD:
        if abs(df) == 1 and abs(dr) == 1:
            if state.rules.classic_dark_roles and abs(cell) == 8:
                return _in_palace(f1, r1, side) and _in_palace(f2, r2, side)
            return True
        return False
    if kind is PieceKind.MINISTER:
        return (
            abs(df) == 2 and abs(dr) == 2
            and board[(r1 + dr // 2) * 9 + (f1 + df // 2)] == 0
        )
    if kind is PieceKind.ROOK:
        return _pieces_between_on_line(board, frm, to) == 0
    if kind is PieceKind.CANNON:
        between = _pieces_between_on_line(board, frm, to)
        if between is None:
            return False
        return between == 0 if target == 0 else between == 1
    if kind is PieceKind.HORSE:
        if sorted((abs(df), abs(dr))) != [1, 2]:
            return False
        if abs(df) == 2:
            leg = r1 * 9 + (f1 + df // 2)
        else:
            leg = (r1 + dr // 2) * 9 + f1
        return board[leg] == 0
    # PAWN
    forward = 1 if side is Side.RED else -1
    if df == 0 and dr == forward:
        return True
    crossed = r1 >= 5 if side is Side.RED else r1 <= 4
    return crossed and dr == 0 and abs(df) == 1


def naive_legal_moves(state: GameState) -> set[Move]:
    mover = 1 if state.side_to_move is Side.RED else -1
    return {
        Move(frm, to)
        for frm in range(90)
        if state.board[frm] * mover > 0
        for to in range(90)
        if frm != to and _reachable(state, frm, to)
    }
