"""JFEN: single-line text serialization of a game state.

Layout, space-separated:

    <board> <side> <plies-since-capture> <ply-count> <cap-red> <cap-black> <hidden>

board     ten rank fields from rank 9 down to rank 0, joined by '/'.
          Within a rank (file a..i): digits 1-9 run-length-encode empty
          squares; K G M R H C P are revealed Red pieces, lowercase for
          Black; 'X' is a face-down Red piece, 'x' face-down Black.
side      'r' or 'b', the side to move.
counters  plies-since-capture and ply-count in ASCII decimal, with no
          leading zero ('0' itself is written as is).  They must agree with
          play: Black is to move exactly at odd ply counts, the first
          equals the second until a capture and is below it after one, and
          each capture ends a run of at most the draw limit's plies.
cap-red   pieces captured by Red (so Black kinds, lowercase), in capture
          order, each letter carrying a '*' suffix if the piece was
          face-down when taken; '-' when empty.  cap-black likewise with
          uppercase Red kinds.
hidden    the true identities of all face-down pieces: comma-separated
          square=KIND entries (kind letter cased by side), listed in board
          order (rank 9 down to 0, file a to i), covering every dark square
          exactly once; or '-' when omitted.  A state decoded without its
          hidden section supports observation-level operations only.

One table, `_CELL_LETTER`, spells the letters of the text: the board's,
and the kind letters of the capture lists and the hidden section, which
are the face-up board letters of the piece's side.  The encoder writes
through it and the decoder reads through tables derived from it, so the
decoder accepts exactly the letters the encoder writes; side letters are
read back through `Side.letter` the same way.

Terminal status and legal moves are not encoded; decoding builds the state
with `engine.make_state`, the builder `apply_move` uses too, so a decoded
state carries the status and moves play gave it.  So the decoder checks
everything it can before it calls `make_state`, in this order: each
field's grammar, where the board lists its face-down squares once, in
board order, rejects any off its side's starting squares, and the hidden
section's entry i must name that list's square i; the Kings, each on the
board or captured, and not both captured; then the counters against the
draw limit, the captures and the side to move.  How the game ended is
`make_state`'s rule, so after it the decoder rejects a captured King whose
status is not a King win, and a King outside its palace whose status is
not meet-the-marshals.  Piece conservation is checked after
`make_state`, through `infoset.hidden_pools`, the one derivation of a
side's unaccounted pool (starting material minus revealed minus captured
pieces).

Encoding is canonical and bit-exact: a given state always encodes to the
same single-line string, and decode(encode(state)) round-trips exactly.
"""

from __future__ import annotations

from .board import (
    DARK_CELL,
    DARK_HOME,
    FILES,
    KING_CELL,
    NUM_SQUARES,
    OPPONENT,
    RANKS,
    PieceKind,
    Side,
    in_palace,
    make_cell,
    square_name,
)
from .combinatorics import KindMultiset
from .engine import (
    Capture,
    GameState,
    Rules,
    STANDARD_RULES,
    WinReason,
    make_state,
    observe,
    side_squares,
)
from .infoset import hidden_pools


class JfenError(ValueError):
    """Malformed state text; the message names the offending field."""


#: Board letter of every non-empty cell code, and its inverse.  Red's
#: letters are uppercase and Black's lowercase.
_CELL_LETTER = {
    **{make_cell(side, kind): (kind.letter, kind.letter.lower())[side]
       for side in Side for kind in PieceKind},
    **{DARK_CELL[side]: "Xx"[side] for side in Side},
}
_LETTER_CELL = {letter: cell for cell, letter in _CELL_LETTER.items()}
#: Each side's face-up kind of each of its letters, indexed by Side: the
#: letters of the capture lists and the hidden section.
_LETTER_KIND = tuple({_CELL_LETTER[make_cell(side, kind)]: kind for kind in PieceKind}
                     for side in Side)
_LETTER_SIDE = {side.letter: side for side in Side}


def _captures_field(entries: tuple[Capture, ...], owner: Side) -> str:
    if not entries:
        return "-"
    out = []
    for kind, was_dark in entries:
        letter = _CELL_LETTER[make_cell(owner, kind)]
        out.append(letter + "*" if was_dark else letter)
    return "".join(out)


def encode_state(state: GameState, include_hidden: bool = True) -> str:
    """Render a state as canonical JFEN text."""
    ranks = []
    entries = []    # the hidden section, in board order
    for r in range(RANKS - 1, -1, -1):
        row = []
        run = 0
        for f in range(FILES):
            sq = r * FILES + f
            cell = state.board[sq]
            if cell == 0:
                run += 1
                continue
            if run:
                row.append(str(run))
                run = 0
            row.append(_CELL_LETTER[cell])
            if include_hidden and cell in DARK_CELL:
                kind = state.hidden[sq]
                if kind is None:
                    raise ValueError(f"cannot encode hidden section: identity of "
                                     f"{square_name(sq)} is undetermined")
                side = Side.RED if cell > 0 else Side.BLACK
                entries.append(f"{square_name(sq)}={_CELL_LETTER[make_cell(side, kind)]}")
        if run:
            row.append(str(run))
        ranks.append("".join(row))

    return " ".join(
        (
            "/".join(ranks),
            state.side_to_move.letter,
            str(state.plies_since_capture),
            str(state.ply_count),
            _captures_field(state.captures[Side.RED], Side.BLACK),
            _captures_field(state.captures[Side.BLACK], Side.RED),
            ",".join(entries) or "-",
        )
    )


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _parse_board(field: str) -> tuple[list[int], list[int]]:
    """The board's cells, and its face-down squares in board order."""
    rank_fields = field.split("/")
    if len(rank_fields) != RANKS:
        raise JfenError(f"board: expected {RANKS} rank fields, got {len(rank_fields)}")
    board = [0] * NUM_SQUARES
    dark = []
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
            sq = r * FILES + f
            board[sq] = cell
            if cell in DARK_CELL:
                dark.append(sq)
            f += 1
        if f != FILES:
            raise JfenError(f"board rank {r}: width {f}, expected {FILES}")
    for sq in dark:
        side = Side.RED if board[sq] > 0 else Side.BLACK
        if sq not in DARK_HOME[side]:
            raise JfenError(f"board: face-down {side.name} piece on {square_name(sq)} is "
                            "outside its side's starting squares")
    return board, dark


def _parse_captures(field: str, field_name: str, owner: Side) -> tuple[Capture, ...]:
    if field == "-":
        return ()
    kinds = _LETTER_KIND[owner]
    entries = []
    i = 0
    while i < len(field):
        kind = kinds.get(field[i])
        if kind is None:
            raise JfenError(f"{field_name}: bad capture letter {field[i]!r} "
                            f"for a {owner.name} piece")
        was_dark = field.startswith("*", i + 1)
        if was_dark and kind is PieceKind.KING:
            raise JfenError(f"{field_name}: a King cannot be captured face-down")
        entries.append(Capture(kind, was_dark))
        i += 2 if was_dark else 1
    return tuple(entries)


def _parse_hidden(field: str, board: list[int],
                  dark: list[int]) -> tuple[PieceKind | None, ...]:
    """The kind on each face-down square, read as `encode_state` writes
    it: entry i names `dark[i]`, the i-th face-down square in board order,
    so the text lists every face-down square once, in order."""
    hidden: list[PieceKind | None] = [None] * NUM_SQUARES
    if field == "-":
        return tuple(hidden)
    entries = field.split(",")
    for sq, entry in zip(dark, entries):
        name, _, letter = entry.partition("=")
        if name != square_name(sq):
            raise JfenError(f"hidden: entry {entry!r} is not for {square_name(sq)}, "
                            "the next face-down square in board order")
        side = Side.RED if board[sq] > 0 else Side.BLACK
        kind = _LETTER_KIND[side].get(letter)
        if kind is None:
            raise JfenError(f"hidden: bad letter in {entry!r} for a {side.name} piece")
        if kind is PieceKind.KING:
            raise JfenError("hidden: a King cannot be face-down")
        hidden[sq] = kind
    if len(entries) < len(dark):
        raise JfenError(f"hidden: missing entry for {square_name(dark[len(entries)])}, "
                        "the next face-down square in board order")
    if len(entries) > len(dark):
        raise JfenError(f"hidden: entry {entries[len(dark)]!r} is past the last "
                        "face-down square")
    return tuple(hidden)


#: The one capture entry a King makes: a King is never face-down.
_KING_TAKEN = Capture(PieceKind.KING, False)


def _check_kings(board: list[int],
                 captures: tuple[tuple[Capture, ...], tuple[Capture, ...]]) -> Side | None:
    """Each King is on the board or captured, exactly once, and play stops
    at the first King capture, so not both are captured.  Returns the side
    whose King is captured, or None; whether that capture ended the game,
    and so where a King may stand, is `make_state`'s rule to read."""
    loser = None
    for side in (Side.RED, Side.BLACK):
        on_board = board.count(KING_CELL[side])
        if on_board + captures[OPPONENT[side]].count(_KING_TAKEN) != 1:
            raise JfenError(f"board: {side.name} must have exactly one King on board or captured")
        if not on_board:
            if loser is not None:
                raise JfenError("board: both Kings are captured, but play stops at the first")
            loser = side
    return loser


def _check_material(state: GameState, side: Side, dark: list[int], has_hidden: bool) -> None:
    """Piece conservation for `side`: its unaccounted pool fills its
    face-down squares (and equals the hidden assignment when present)."""
    try:
        pool = hidden_pools(observe(state, side.opponent)).opp_pool
    except ValueError as exc:
        raise JfenError(f"board: material as {side.opponent.name} sees it: {exc}") from None
    if has_hidden:
        cell = DARK_CELL[side]
        assigned = KindMultiset.from_kinds(state.hidden[sq] for sq in dark
                                           if state.board[sq] == cell)
        if assigned != pool:
            raise JfenError(
                f"hidden: {side.name} assignment {assigned} does not match the "
                f"unaccounted pool {pool}"
            )


def _check_counters(side_to_move: Side, psc: int, plies: int,
                    captures: tuple[tuple[Capture, ...], tuple[Capture, ...]],
                    rules: Rules) -> None:
    """The counters agree with play: a game ends at the draw limit, Red
    moves first and nobody passes, and the no-capture counter restarts at
    each capture, so it counts every ply of a game without captures and
    fewer plies of any other; and each capture ends a run of at most
    `draw_plies` plies, so the ply count is at most those runs plus it."""
    if psc > rules.draw_plies:
        raise JfenError(f"plies-since-capture {psc} exceeds the draw limit {rules.draw_plies}")
    if any(captures):
        if psc >= plies:
            raise JfenError(f"plies-since-capture {psc} must be below the ply count "
                            f"{plies} once a piece has been captured")
    elif psc != plies:
        raise JfenError(f"plies-since-capture {psc} must equal the ply count {plies} "
                        "while nothing has been captured")
    if side_to_move is not (Side.BLACK if plies % 2 else Side.RED):
        raise JfenError(f"side to move: {side_to_move.name} cannot move at ply "
                        f"{plies}; Red moves at even plies and Black at odd ones")
    if plies > sum(map(len, captures)) * rules.draw_plies + psc:
        raise JfenError(f"ply-count {plies} is more than these captures allow: each "
                        f"capture ends a run of at most {rules.draw_plies} plies")


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


#: Each field's name, in the text's order.
_FIELD_NAMES = ("board", "side to move", "plies-since-capture", "ply-count",
                "captured-by-red", "captured-by-black", "hidden")


def decode_state(text: str, rules: Rules = STANDARD_RULES) -> GameState:
    """Parse JFEN text into a GameState, validating the grammar and piece
    conservation. Raises JfenError naming the bad field on malformed input."""
    fields = text.strip().split(" ")
    if len(fields) != 7:
        raise JfenError(f"expected 7 space-separated fields, got {len(fields)}")
    if "" in fields:
        i = fields.index("")
        raise JfenError(f"expected 7 space-separated fields, but field {i + 1} "
                        f"({_FIELD_NAMES[i]}) is empty")
    board_f, side_f, psc_f, plyc_f, capr_f, capb_f, hidden_f = fields

    board, dark = _parse_board(board_f)
    side_to_move = _LETTER_SIDE.get(side_f)
    if side_to_move is None:
        raise JfenError(f"side to move: bad side letter {side_f!r}")
    plies_since_capture = _parse_counter(psc_f)
    ply_count = _parse_counter(plyc_f)
    captures = (_parse_captures(capr_f, "captured-by-red", Side.BLACK),
                _parse_captures(capb_f, "captured-by-black", Side.RED))
    hidden = _parse_hidden(hidden_f, board, dark)
    loser = _check_kings(board, captures)
    _check_counters(side_to_move, plies_since_capture, ply_count, captures, rules)

    board = tuple(board)
    state = make_state(board, side_squares(board), hidden, side_to_move, ply_count,
                       plies_since_capture, captures, rules)
    reason = state.status.reason
    if loser is not None and reason not in (WinReason.KING_CAPTURED, WinReason.MEET_MARSHALS):
        raise JfenError(f"captured-by-{loser.opponent.name.lower()}: the {loser.name} King "
                        "must be the last capture, plies-since-capture must be 0 after "
                        f"it, and the side to move must be {loser.name}")
    for side in (Side.RED, Side.BLACK):
        if side is not loser and reason is not WinReason.MEET_MARSHALS:
            sq = board.index(KING_CELL[side])
            if not in_palace(sq, side):
                raise JfenError(f"board: {side.name} King on {square_name(sq)} is outside its "
                                "palace, which it leaves only by a flying-general capture")
    for side in (Side.RED, Side.BLACK):
        _check_material(state, side, dark, hidden_f != "-")
    return state
