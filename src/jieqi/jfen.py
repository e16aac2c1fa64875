"""JFEN: single-line text serialization of a game state.

Layout, space-separated:

    <board> <side> <plies-since-capture> <ply-count> <cap-red> <cap-black> <hidden>

board     ten rank fields from rank 9 down to rank 0, joined by '/'.
          Within a rank (file a..i): digits 1-9 run-length-encode empty
          squares; K G M R H C P are revealed Red pieces, lowercase for
          Black; 'X' is a face-down Red piece, 'x' face-down Black.
side      'r' or 'b', the side to move.
counters  plies-since-capture and ply-count in ASCII decimal, with no
          leading zero ('0' itself is written as is).
cap-red   pieces captured by Red (so Black kinds, lowercase), in capture
          order, each letter carrying a '*' suffix if the piece was
          face-down when taken; '-' when empty.  cap-black likewise with
          uppercase Red kinds.
hidden    the true identities of all face-down pieces: comma-separated
          square=KIND entries (kind letter cased by side), listed in board
          order (rank 9 down to 0, file a to i), covering every dark square
          exactly once; or '-' when omitted.  A state decoded without its
          hidden section supports observation-level operations only.

Terminal status is not encoded; decoding re-derives it from the board and
counters with `engine.game_status`, the same rule `apply_move` applies, so
a decoded state carries the status play assigned it.  Piece conservation is
checked through `infoset.hidden_pools`, the one derivation of a side's
unaccounted pool (starting material minus revealed minus captured pieces).

Encoding is canonical and bit-exact: a given state always encodes to the
same single-line string, and decode(encode(state)) round-trips exactly.
"""

from __future__ import annotations

from dataclasses import replace

from .board import (
    DARK_CELL,
    DARK_HOME,
    FILES,
    KING_CELL,
    NUM_SQUARES,
    RANKS,
    PieceKind,
    Side,
    in_palace,
    make_cell,
    parse_square,
    square_name,
)
from .combinatorics import KindMultiset
from .engine import (
    ONGOING,
    Capture,
    GameState,
    Rules,
    STANDARD_RULES,
    game_status,
    observe,
)
from .infoset import hidden_pools


class JfenError(ValueError):
    """Malformed state text; the message names the offending field."""


def _cased(letter: str, side: Side) -> str:
    return letter if side is Side.RED else letter.lower()


#: Board letter of every non-empty cell code, and its inverse.
_CELL_LETTER = {
    **{make_cell(side, kind): _cased(kind.letter, side) for side in Side for kind in PieceKind},
    **{DARK_CELL[side]: _cased("X", side) for side in Side},
}
_LETTER_CELL = {letter: cell for cell, letter in _CELL_LETTER.items()}


def _captures_field(entries: tuple[Capture, ...], owner: Side) -> str:
    if not entries:
        return "-"
    out = []
    for kind, was_dark in entries:
        letter = _cased(kind.letter, owner)
        out.append(letter + "*" if was_dark else letter)
    return "".join(out)


def encode_state(state: GameState, include_hidden: bool = True) -> str:
    """Render a state as canonical JFEN text."""
    ranks = []
    for r in range(RANKS - 1, -1, -1):
        row = []
        run = 0
        for f in range(FILES):
            cell = state.board[r * FILES + f]
            if cell == 0:
                run += 1
            else:
                if run:
                    row.append(str(run))
                    run = 0
                row.append(_CELL_LETTER[cell])
        if run:
            row.append(str(run))
        ranks.append("".join(row))

    if include_hidden:
        entries = []
        for r in range(RANKS - 1, -1, -1):
            for f in range(FILES):
                sq = r * FILES + f
                if state.board[sq] not in DARK_CELL:
                    continue
                kind = state.hidden.get(sq)
                if kind is None:
                    raise ValueError(
                        f"cannot encode hidden section: identity of {square_name(sq)} "
                        "is undetermined"
                    )
                side = Side.RED if state.board[sq] > 0 else Side.BLACK
                entries.append(f"{square_name(sq)}={_cased(kind.letter, side)}")
        hidden_field = ",".join(entries) if entries else "-"
    else:
        hidden_field = "-"

    return " ".join(
        (
            "/".join(ranks),
            state.side_to_move.letter,
            str(state.plies_since_capture),
            str(state.ply_count),
            _captures_field(state.captured_by_red, Side.BLACK),
            _captures_field(state.captured_by_black, Side.RED),
            hidden_field,
        )
    )


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _parse_board(field: str) -> list[int]:
    rank_fields = field.split("/")
    if len(rank_fields) != RANKS:
        raise JfenError(f"board: expected {RANKS} rank fields, got {len(rank_fields)}")
    board = [0] * NUM_SQUARES
    for i, text in enumerate(rank_fields):
        r = RANKS - 1 - i
        f = 0
        prev_digit = False
        for ch in text:
            if ch in "0123456789":
                if prev_digit:
                    raise JfenError(f"board rank {r}: consecutive digits in {text!r}")
                if ch == "0":
                    raise JfenError(f"board rank {r}: bad run length 0")
                f += int(ch)
                prev_digit = True
                continue
            prev_digit = False
            if f >= FILES:
                raise JfenError(f"board rank {r}: width exceeds {FILES}")
            cell = _LETTER_CELL.get(ch)
            if cell is None:
                raise JfenError(f"board rank {r}: bad piece letter {ch!r}")
            board[r * FILES + f] = cell
            f += 1
        if f != FILES:
            raise JfenError(f"board rank {r}: width {f}, expected {FILES}")
    return board


def _parse_captures(field: str, field_name: str, owner: Side) -> tuple[Capture, ...]:
    if field == "-":
        return ()
    entries = []
    i = 0
    while i < len(field):
        ch = field[i]
        expected_case = ch.isupper() if owner is Side.RED else ch.islower()
        if not ch.isalpha() or not expected_case:
            raise JfenError(f"{field_name}: bad capture letter {ch!r}")
        try:
            kind = PieceKind.from_letter(ch)
        except ValueError as exc:
            raise JfenError(f"{field_name}: {exc}") from None
        was_dark = i + 1 < len(field) and field[i + 1] == "*"
        if was_dark and kind is PieceKind.KING:
            raise JfenError(f"{field_name}: a King cannot be captured face-down")
        entries.append(Capture(kind, was_dark))
        i += 2 if was_dark else 1
    return tuple(entries)


def _parse_hidden(field: str, board: list[int]) -> dict[int, PieceKind]:
    dark_squares = {sq for sq in range(NUM_SQUARES) if board[sq] in DARK_CELL}
    if field == "-":
        return {}
    hidden: dict[int, PieceKind] = {}
    for entry in field.split(","):
        name, sep, letter = entry.partition("=")
        if not sep or len(letter) != 1:
            raise JfenError(f"hidden: bad entry {entry!r}")
        try:
            sq = parse_square(name)
        except ValueError as exc:
            raise JfenError(f"hidden: {exc}") from None
        if sq not in dark_squares:
            raise JfenError(f"hidden: {name} is not a face-down square")
        if sq in hidden:
            raise JfenError(f"hidden: duplicate entry for {name}")
        if (board[sq] > 0) is not letter.isupper():
            raise JfenError(f"hidden: case of {entry!r} does not match the piece's side")
        try:
            kind = PieceKind.from_letter(letter)
        except ValueError as exc:
            raise JfenError(f"hidden: {exc}") from None
        if kind is PieceKind.KING:
            raise JfenError("hidden: a King cannot be face-down")
        hidden[sq] = kind
    missing = dark_squares - hidden.keys()
    if missing:
        names = ", ".join(sorted(square_name(sq) for sq in missing))
        raise JfenError(f"hidden: missing entries for {names}")
    return hidden


def _check_material(state: GameState, side: Side, has_hidden: bool) -> None:
    """Piece conservation for `side`: its face-down pieces stand on its
    starting squares, its King is on the board or captured exactly once,
    and its unaccounted pool fills its face-down squares (and equals the
    hidden assignment when present)."""
    king, dark = KING_CELL[side], DARK_CELL[side]
    kings_on_board = 0
    dark_squares = []
    for sq, cell in enumerate(state.board):
        if cell == dark:
            if sq not in DARK_HOME[side]:
                raise JfenError(
                    f"board: face-down {side.name} piece on {square_name(sq)} is "
                    "outside its side's starting squares"
                )
            dark_squares.append(sq)
        elif cell == king:
            kings_on_board += 1
            # A King sits in its own palace, or in the enemy palace right
            # after a flying-general capture.
            if not (in_palace(sq, side) or in_palace(sq, side.opponent)):
                raise JfenError(
                    f"board: {side.name} King on {square_name(sq)} is outside both palaces"
                )

    captured_kings = sum(1 for k, _ in state.captures_by(side.opponent)
                         if k is PieceKind.KING)
    if kings_on_board + captured_kings != 1:
        raise JfenError(f"board: {side.name} must have exactly one King on board or captured")

    try:
        pool = hidden_pools(observe(state, side.opponent)).opp_pool
    except ValueError as exc:
        raise JfenError(f"board: material as {side.opponent.name} sees it: {exc}") from None
    if has_hidden:
        assigned = KindMultiset.from_kinds(state.hidden[sq] for sq in dark_squares)
        if assigned != pool:
            raise JfenError(
                f"hidden: {side.name} assignment {assigned} does not match the "
                f"unaccounted pool {pool}"
            )


def _parse_counter(field: str) -> int:
    # ASCII digits only: str.isdigit() alone admits "²", which int()
    # rejects, and other scripts' digits, which int() reads.
    if not (field.isascii() and field.isdigit()):
        raise JfenError("counters must be non-negative decimals")
    if len(field) > 1 and field[0] == "0":
        # Canonical text only, so that decode -> encode round-trips.
        raise JfenError(f"counter {field!r} has a leading zero")
    try:
        return int(field)
    except ValueError:  # past int()'s limit on digits
        raise JfenError(f"counter of {len(field)} digits is too long") from None


def decode_state(text: str, rules: Rules = STANDARD_RULES) -> GameState:
    """Parse JFEN text into a GameState, validating the grammar and piece
    conservation. Raises JfenError naming the bad field on malformed input."""
    fields = text.strip().split(" ")
    if len(fields) != 7 or any(not f for f in fields):
        raise JfenError(f"expected 7 space-separated fields, got {len(fields)}")
    board_f, side_f, psc_f, plyc_f, capr_f, capb_f, hidden_f = fields

    board = _parse_board(board_f)
    try:
        side_to_move = Side.from_letter(side_f)
    except ValueError as exc:
        raise JfenError(f"side to move: {exc}") from None
    plies_since_capture = _parse_counter(psc_f)
    ply_count = _parse_counter(plyc_f)
    if plies_since_capture > rules.draw_plies:
        raise JfenError(
            f"plies-since-capture {plies_since_capture} exceeds the draw limit {rules.draw_plies}"
        )
    if plies_since_capture > ply_count:
        # Both counters start at 0 and a ply adds at most 1 to each.
        raise JfenError(
            f"plies-since-capture {plies_since_capture} exceeds the ply count {ply_count}"
        )

    captured_by_red = _parse_captures(capr_f, "captured-by-red", Side.BLACK)
    captured_by_black = _parse_captures(capb_f, "captured-by-black", Side.RED)
    hidden = _parse_hidden(hidden_f, board)

    state = GameState(
        board=tuple(board),
        hidden=hidden,
        side_to_move=side_to_move,
        ply_count=ply_count,
        plies_since_capture=plies_since_capture,
        captured_by_red=captured_by_red,
        captured_by_black=captured_by_black,
        status=ONGOING,
        rules=rules,
    )
    for side in (Side.RED, Side.BLACK):
        _check_material(state, side, hidden_f != "-")
    if not any(king in state.board for king in KING_CELL):
        # Play stops at the first King capture.
        raise JfenError("board: at most one King can be captured")
    return replace(state, status=game_status(
        state.board, side_to_move, plies_since_capture, rules
    ))


#: The shuffled-start position with the hidden section omitted.
INITIAL_JFEN = (
    "xxxxkxxxx/9/1x5x1/x1x1x1x1x/9/9/X1X1X1X1X/1X5X1/9/XXXXKXXXX r 0 0 - - -"
)
