"""State text round-trips, canonical form and malformed-input rejection."""

from __future__ import annotations

import contextlib
import io
import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import INITIAL_JFEN, build_state, mv, random_state
from jieqi import (
    JfenError,
    MissingHiddenInfoError,
    Rules,
    Side,
    WinReason,
    apply_move,
    decode_state,
    encode_state,
    infoset_size,
    initial_state,
    jfen,
    legal_moves,
    observe,
)
from jieqi.cli import run_cli


class TestEncode:
    def test_initial_without_hidden(self) -> None:
        state = initial_state(123)
        assert encode_state(state, include_hidden=False) == INITIAL_JFEN

    def test_initial_with_hidden_lists_all_thirty(self) -> None:
        state = initial_state(0)
        text = encode_state(state)
        hidden_field = text.split(" ")[6]
        entries = hidden_field.split(",")
        assert len(entries) == 30
        # canonical order: rank 9 down to 0, file a..i
        assert entries[0].startswith("a9=")
        assert entries[-1].startswith("i0=")
        # black entries lowercase, red uppercase
        assert all(e[-1].islower() for e in entries[:15])
        assert all(e[-1].isupper() for e in entries[15:])

    def test_encoding_is_canonical(self) -> None:
        state = random_state(5, 40)
        assert encode_state(state) == encode_state(state)
        assert "\n" not in encode_state(state)

    def test_hidden_requires_identities(self) -> None:
        state = decode_state(INITIAL_JFEN)
        with pytest.raises(ValueError):
            encode_state(state, include_hidden=True)


class TestRoundTrip:
    def test_thousand_random_midgame_states(self) -> None:
        rng = random.Random(99)
        checked = 0
        seed = 0
        while checked < 1000:
            state = random_state(seed, rng.randrange(1, 100))
            seed += 1
            if state.status.over:
                continue
            assert decode_state(encode_state(state)) == state, seed
            checked += 1

    def test_terminal_states_round_trip(self) -> None:
        # king capture, flying-general, draw and stalemate endings all
        # reconstruct their status from the position
        seen: set[str] = set()
        for seed in range(400):
            state = random_state(seed, 1400)
            if not state.status.over:
                continue
            assert decode_state(encode_state(state)) == state, seed
            seen.add(state.status.label())
            if len(seen) >= 5:
                break
        assert any("king_captured" in s for s in seen)
        assert any("meet_marshals" in s for s in seen)
        assert "draw" in seen

    def test_custom_rules_round_trip(self) -> None:
        rules = Rules(draw_plies=20, classic_dark_roles=True)
        state = random_state(7, 30, rules)
        text = encode_state(state)
        assert decode_state(text, rules) == state

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), plies=st.integers(0, 160),
           classic=st.booleans())
    def test_reachable_states_round_trip(self, seed: int, plies: int, classic: bool) -> None:
        rules = Rules(classic_dark_roles=classic)
        state = random_state(seed, plies, rules)
        decoded = decode_state(encode_state(state, include_hidden=True), rules)
        assert decoded == state
        assert hash(decoded) == hash(state)


class TestDecodeWithoutHidden:
    def test_observation_level_operations_work(self) -> None:
        state = decode_state(INITIAL_JFEN)
        assert not state.is_arbiter_complete()
        assert len(legal_moves(state)) == 46
        obs = observe(state, Side.RED)
        assert infoset_size(obs) == 340540200 ** 2

    def test_apply_needs_identities(self) -> None:
        state = decode_state(INITIAL_JFEN)
        with pytest.raises(MissingHiddenInfoError):
            apply_move(state, mv("a3a4"))
        # moving toward an empty square with a revealed piece is still fine
        partial = decode_state(
            encode_state(build_state(red={"e0": "K", "e4": "R", "a4": "R"},
                                     black={"e8": "K", "a6": "dark:P"}),
                         include_hidden=False)
        )
        nxt, _ = apply_move(partial, mv("e4d4"))
        assert nxt.ply_count == partial.ply_count + 1
        # capturing a face-down piece needs the victim's identity
        with pytest.raises(MissingHiddenInfoError, match="a6"):
            apply_move(partial, mv("a4a6"))

    def test_midgame_hidden_less_matches_full(self) -> None:
        state = random_state(31, 60)
        if state.status.over:
            state = random_state(31, 30)
        bare = decode_state(encode_state(state, include_hidden=False))
        assert bare.board == state.board
        assert bare.hidden == (None,) * len(bare.board)
        assert legal_moves(bare) == legal_moves(state)
        assert observe(bare, Side.BLACK) == observe(state, Side.BLACK)


class TestStatusDerivation:
    def test_flying_general_ending_detected(self) -> None:
        state = build_state(red={"e0": "K", "e4": "R"}, black={"e9": "K", "a6": "p"})
        exposed, _ = apply_move(state, mv("e4d4"))
        final, _ = apply_move(exposed, mv("e9e0"))
        decoded = decode_state(encode_state(final))
        assert decoded.status.reason is WinReason.MEET_MARSHALS
        assert decoded.status.winner is Side.BLACK

    def test_plain_king_capture_detected(self) -> None:
        state = build_state(red={"e0": "K", "d4": "R"}, black={"d8": "K"})
        final, _ = apply_move(state, mv("d4d8"))
        decoded = decode_state(encode_state(final))
        assert decoded.status.reason is WinReason.KING_CAPTURED
        assert decoded.status.winner is Side.RED

    def test_draw_detected(self) -> None:
        state = build_state(red={"e0": "K", "a0": "R"},
                            black={"e8": "K", "i9": "r"},
                            plies_since_capture=39)
        final, _ = apply_move(state, mv("a0a1"))
        assert decode_state(encode_state(final)).status.label() == "draw"

    def test_stalemate_detected(self) -> None:
        blocked = build_state(
            red={"e0": "K", "d0": "H", "f0": "H", "e1": "M"},
            black={
                "e8": "K", "c0": "p", "d1": "p", "g0": "p", "f1": "p",
                "d2": "p", "f2": "r",
            },
        )
        assert blocked.moves == ()
        assert blocked.status.reason is WinReason.OPPONENT_STALEMATED
        assert blocked.status.winner is Side.BLACK
        decoded = decode_state(encode_state(blocked))
        assert decoded.status.reason is WinReason.OPPONENT_STALEMATED
        assert decoded.status.winner is Side.BLACK


class TestMalformedInputs:
    def test_rank_width_error_names_rank(self) -> None:
        bad = INITIAL_JFEN.replace("1x5x1", "1x4x1", 1)
        with pytest.raises(JfenError, match="rank 7"):
            decode_state(bad)

    def test_field_count(self) -> None:
        with pytest.raises(JfenError, match="7"):
            decode_state(INITIAL_JFEN + " extra")
        with pytest.raises(JfenError):
            decode_state(INITIAL_JFEN.rsplit(" ", 1)[0])

    def test_bad_piece_letter(self) -> None:
        with pytest.raises(JfenError, match="letter"):
            decode_state(INITIAL_JFEN.replace("k", "q", 1))

    def test_bad_side(self) -> None:
        with pytest.raises(JfenError, match="side"):
            decode_state(INITIAL_JFEN.replace(" r ", " w ", 1))

    def test_consecutive_digits(self) -> None:
        bad = INITIAL_JFEN.replace("/9/", "/54/", 1)
        with pytest.raises(JfenError, match="consecutive"):
            decode_state(bad)

    def test_dark_piece_off_home_squares(self) -> None:
        bad = INITIAL_JFEN.replace("xxxxkxxxx/9/", "xxxxkxxx1/x8/", 1)
        with pytest.raises(JfenError, match="starting squares"):
            decode_state(bad)

    def test_dark_piece_off_home_squares_rejected_before_building(
        self, monkeypatch: pytest.MonkeyPatch,
    ) -> None:
        def make_state(*args: object) -> None:
            pytest.fail("make_state ran on a board the decoder should reject")

        monkeypatch.setattr(jfen, "make_state", make_state)
        bad = INITIAL_JFEN.replace("xxxxkxxxx/9/", "xxxxkxxx1/x8/", 1)
        with pytest.raises(JfenError, match="starting squares"):
            decode_state(bad)

    def test_counter_out_of_range(self) -> None:
        with pytest.raises(JfenError, match="draw limit"):
            decode_state(INITIAL_JFEN.replace(" r 0 0 ", " r 41 50 ", 1))

    @pytest.mark.parametrize("counters", [" r 40 0 ", " r 5 0 ", " r 8 7 "],
                             ids=["draw-at-ply-0", "ongoing", "one-over"])
    def test_more_plies_since_capture_than_plies(self, counters: str) -> None:
        with pytest.raises(JfenError, match="ply count"):
            decode_state(INITIAL_JFEN.replace(" r 0 0 ", counters, 1))

    @pytest.mark.parametrize("counters", [" r 007 0 ", " r 00 0 ", " r 0 01 "],
                             ids=["plies-since-capture", "zero-zero", "ply-count"])
    def test_counter_leading_zero(self, counters: str) -> None:
        with pytest.raises(JfenError, match="leading zero"):
            decode_state(INITIAL_JFEN.replace(" r 0 0 ", counters, 1))

    def test_counters_round_trip(self) -> None:
        # the start, and a text whose no-capture counter restarted at a capture
        midgame = _reachable_text(5, 40, include_hidden=False)
        assert midgame.split(" ")[2:6] == ["3", "40", "p", "R*C"]
        for text in (INITIAL_JFEN, midgame, midgame.replace(" r 3 40 ", " r 7 80 ", 1)):
            assert encode_state(decode_state(text), include_hidden=False) == text

    @pytest.mark.parametrize("plies", [128, 1000000000000])
    def test_more_plies_than_the_captures_allow(self, plies: int) -> None:
        # Each of the 3 captures ends a run of at most 40 plies, and 7 plies
        # followed the last: ply 127 is the latest this text is reached.
        midgame = _reachable_text(5, 40, include_hidden=False)
        with pytest.raises(JfenError, match="^ply-count"):
            decode_state(midgame.replace(" r 3 40 ", f" r 7 {plies} ", 1))
        assert decode_state(midgame.replace(" r 3 40 ", " b 7 127 ", 1)).ply_count == 127

    @pytest.mark.parametrize("counters", [" b 0 0 ", " r 1 1 ", " b 2 2 "],
                             ids=["black-at-ply-0", "red-at-ply-1", "black-at-ply-2"])
    def test_side_to_move_disagrees_with_ply_count(self, counters: str) -> None:
        with pytest.raises(JfenError, match="side to move"):
            decode_state(INITIAL_JFEN.replace(" r 0 0 ", counters, 1))

    @pytest.mark.parametrize("counters", [" r 0 1 ", " r 3 7 ", " r 0 2 ", " b 2 5 "],
                             ids=["0-of-1", "3-of-7", "0-of-2", "2-of-5"])
    def test_no_capture_counter_below_plies_without_captures(self, counters: str) -> None:
        with pytest.raises(JfenError, match="nothing has been captured"):
            decode_state(INITIAL_JFEN.replace(" r 0 0 ", counters, 1))

    @pytest.mark.parametrize("counters", [" r 40 40 ", " r 0 0 "], ids=["40-of-40", "0-of-0"])
    def test_no_capture_counter_at_plies_after_a_capture(self, counters: str) -> None:
        midgame = _reachable_text(5, 40, include_hidden=False)
        with pytest.raises(JfenError, match="once a piece has been captured"):
            decode_state(midgame.replace(" r 3 40 ", counters, 1))

    def test_both_kings_captured(self) -> None:
        # Play stops at the first King capture, so no game reaches this.
        text = ("xxxx1xxxx/9/1x5x1/x1x1x1x1x/9/9/X1X1X1X1X/1X5X1/9/XXXX1XXXX"
                " r 0 0 k K -")
        with pytest.raises(JfenError, match="King"):
            decode_state(text)

    #: Seed 4 of `random_state`: Red takes the Black King on ply 179.
    KING_TAKEN = ("1m2H4/2m2p2P/9/1gp3p2/9/9/4P3p/6M2/3MC4/4K4"
                  " b 0 179 hhrcgp*rck HRRCGGPPP -")

    def test_king_capture_text_is_reached_in_play(self) -> None:
        assert _reachable_text(4, 179, include_hidden=False) == self.KING_TAKEN
        assert decode_state(self.KING_TAKEN).status.label() == "win_red_king_captured"

    @pytest.mark.parametrize("edit, match", [
        ((" hhrcgp*rck ", " hhrcgp*rkc "), "last capture"),
        ((" b 0 179 ", " b 2 179 "), "must be 0"),
        ((" b 0 179 ", " r 0 180 "), "side to move"),
    ], ids=["king-not-last", "counter-not-0", "winner-to-move"])
    def test_king_capture_out_of_play(self, edit: tuple[str, str], match: str) -> None:
        # Play stops at the King capture, right after it: that capture is
        # the last, the counter restarts and the loser is to move.
        with pytest.raises(JfenError, match=match):
            decode_state(self.KING_TAKEN.replace(*edit, 1))

    @pytest.mark.parametrize("seed, label", [
        (7, "win_black_king_captured"),
        (3, "win_red_meet_marshals"),
        (36, "win_black_meet_marshals"),
    ])
    def test_king_capture_out_of_play_on_other_endings(self, seed: int, label: str) -> None:
        # The edits above, on `random_state` endings of the other three kinds.
        state = random_state(seed, 1400)
        text = encode_state(state, include_hidden=False)
        assert state.status.label() == decode_state(text).status.label() == label
        fields = text.split(" ")
        taken = fields[4 if label.startswith("win_red") else 5]  # the winner's, King last
        other_side = "b" if fields[1] == "r" else "r"
        for edit, match in [
            ((f" {taken} ", f" {taken[-1]}{taken[:-1]} "), "last capture"),
            ((f" {fields[1]} 0 {fields[3]} ", f" {fields[1]} 2 {fields[3]} "), "must be 0"),
            ((f" {fields[1]} 0 {fields[3]} ", f" {other_side} 0 {int(fields[3]) + 1} "),
             "side to move"),
        ]:
            with pytest.raises(JfenError, match=match):
                decode_state(text.replace(*edit, 1))

    #: Red's King on e8, in Black's palace, in a game still going on.
    KING_IN_ENEMY_PALACE = "3k5/4K4/9/9/9/9/9/9/9/R8 r 0 2 ggmmrrhhccppppp GGMMRHHCCPPPPP -"

    @pytest.mark.parametrize("text, where", [
        (KING_IN_ENEMY_PALACE, "RED King on e8"),
        (KING_IN_ENEMY_PALACE.replace("3k5/4K4/9/9/9/9/", "3k5/9/9/9/9/4K4/", 1),
         "RED King on e4"),
        ("9/9/9/9/9/9/9/9/4k4/3K4R b 0 3 ggmmrrhhccppppp GGMMRHHCCPPPP -",
         "BLACK King on e1"),
    ], ids=["red-in-black-palace", "red-outside-both-palaces", "black-in-red-palace"])
    def test_king_outside_its_palace(self, capsys, text: str, where: str) -> None:
        # A King leaves its palace only by the flying-general capture, and
        # that capture ends the game as meet-the-marshals.
        with pytest.raises(JfenError, match=f"{where} is outside its palace"):
            decode_state(text)
        assert run_cli(["infoset-size", "--state", text]) == 2
        assert where in capsys.readouterr().err

    def test_conservation_violations(self) -> None:
        # a second red King
        with pytest.raises(JfenError, match="King"):
            decode_state(INITIAL_JFEN.replace("XXXXKXXXX", "XXXXKXXXK", 1))
        # 31 face-down pieces for 30 slots of material
        with pytest.raises(JfenError):
            decode_state(INITIAL_JFEN.replace("/9/X1X1X1X1X/", "/4X4/X1X1X1X1X/", 1))

    @pytest.mark.parametrize("old,new", [
        ("/9/", "/²/"),                 # str.isdigit() but not int()
        ("1x5x1", "1x٥x1"),             # another script's 5
        (" r 0 0 ", " r ² 0 "),
        (" r 0 0 ", " r 0 ٣ "),
        (" r 0 0 ", " r 0 " + "1" * 5000 + " "),  # past int()'s digit limit
    ], ids=["rank-superscript", "rank-arabic-indic", "counter-superscript",
            "counter-arabic-indic", "counter-5000-digits"])
    def test_ascii_digits_only(self, old: str, new: str) -> None:
        with pytest.raises(JfenError, match="letter|counter"):
            decode_state(INITIAL_JFEN.replace(old, new, 1))

    def test_hidden_square_needs_ascii_rank(self) -> None:
        text = encode_state(initial_state(0))
        assert "a9=" in text
        with pytest.raises(JfenError, match="square"):
            decode_state(text.replace("a9=", "a٩=", 1))

    def test_capture_field_case(self) -> None:
        # captured-by-red holds Black pieces: lowercase required
        with pytest.raises(JfenError, match="captured-by-red"):
            decode_state(INITIAL_JFEN.replace(" - - -", " R - -", 1))

    #: Index of each field in the text.
    FIELDS = {"side": 1, "captured-by-red": 4, "captured-by-black": 5, "hidden": 6}

    @pytest.mark.parametrize("field, value, match", [
        # a9 holds a face-down Black piece and i0 a face-down Red one.
        ("hidden", "a9=R", "hidden"),
        ("hidden", "i0=p", "hidden"),
        ("hidden", "i0=K", "hidden"),
        ("hidden", "a9=k", "King"),
        ("hidden", "a9=X", "hidden"),
        ("hidden", "i0=X", "hidden"),
        ("hidden", "a9=x", "hidden"),
        ("hidden", "a9=PP", "hidden"),
        ("hidden", "a9=pp", "hidden"),
        ("hidden", "a9=", "hidden"),
        ("hidden", "a9=KG", "hidden"),
        ("hidden", "a9=gm", "hidden"),
        ("hidden", "a9=k*", "hidden"),
        # captured-by-red holds Black letters, captured-by-black Red ones.
        ("captured-by-red", "X", "captured-by-red"),
        ("captured-by-red", "x", "captured-by-red"),
        ("captured-by-red", "k*", "captured-by-red"),
        ("captured-by-black", "K*", "captured-by-black"),
        ("captured-by-red", "*p", "captured-by-red"),
        ("captured-by-black", "*", "captured-by-black"),
        ("captured-by-black", "Rp", "captured-by-black"),
        ("captured-by-red", "KG", "captured-by-red"),
        ("captured-by-black", "gm", "captured-by-black"),
        ("captured-by-red", "", "fields"),
        ("captured-by-black", "", r"field 6 \(captured-by-black\) is empty"),
        ("side", "R", "side"),
        ("side", "rb", "side"),
        ("side", "", "fields"),
        ("side", "KG", "side"),
        ("side", "gm", "side"),
        ("side", "X", "side"),
        ("side", "k*", "side"),
    ])
    def test_bad_letter(self, field: str, value: str, match: str) -> None:
        fields = INITIAL_JFEN.split(" ")
        fields[self.FIELDS[field]] = value
        with pytest.raises(JfenError, match=match):
            decode_state(" ".join(fields))

    def test_hidden_mismatches(self) -> None:
        state = initial_state(0)
        text = encode_state(state)
        head, hidden = text.rsplit(" ", 1)
        # kind multiset inconsistent with the pool
        entries = hidden.split(",")
        pawn_entry = next(e for e in entries if e.endswith("=P"))
        swapped = hidden.replace(pawn_entry, pawn_entry[:-1] + "R", 1)
        with pytest.raises(JfenError, match="match"):
            decode_state(head + " " + swapped)

    @pytest.mark.parametrize("edit, match", [
        (lambda e: [e[1], e[0], *e[2:]], r"^hidden: entry 'b9=\w' is not for a9, "),
        (lambda e: ["e4" + e[0][2:], *e[1:]], r"^hidden: entry 'e4=\w' is not for a9, "),
        (lambda e: e[:-1], r"^hidden: missing entry for i0, the next face-down square"),
        (lambda e: [*e, e[0]], r"^hidden: entry 'a9=\w' is past the last face-down square"),
        (lambda e: [*e, ""], r"^hidden: entry '' is past the last face-down square"),
    ], ids=["swapped", "unknown-square", "last-dropped", "first-repeated", "trailing-comma"])
    def test_hidden_entry_names_its_square(self, edit, match: str) -> None:
        # Entry i names the i-th face-down square in board order: a9 first, i0 last.
        head, hidden = encode_state(initial_state(0)).rsplit(" ", 1)
        with pytest.raises(JfenError, match=match):
            decode_state(head + " " + ",".join(edit(hidden.split(","))))

    def test_exit_style_message_has_position(self) -> None:
        try:
            decode_state("xxxxkxxxx r 0 0 - - -")
        except JfenError as exc:
            assert "rank" in str(exc) or "board" in str(exc)
        else:
            pytest.fail("expected JfenError")


#: Characters a mutation writes: the JFEN alphabet plus a few foreign ones;
#: the empty string deletes the character instead.
_MUTATION_CHARS = list("0123456789/ -*=,KGMRHCPXkgmrhcpxabi") + ["", "q", "\t", "²", "٣"]


@lru_cache(maxsize=None)
def _reachable_text(seed: int, plies: int, include_hidden: bool) -> str:
    return encode_state(random_state(seed, plies), include_hidden=include_hidden)


class TestMutatedText:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 7),
        plies=st.sampled_from([0, 10, 40, 120]),
        include_hidden=st.booleans(),
        swap=st.none() | st.tuples(st.integers(0, 100), st.integers(0, 100)),
        edits=st.lists(
            st.tuples(st.integers(0, 10_000), st.sampled_from(_MUTATION_CHARS)),
            max_size=2,
        ),
    )
    # Two hidden entries out of board order, and nothing else changed.
    @example(seed=0, plies=0, include_hidden=True, swap=(0, 1), edits=[])
    def test_only_jfen_errors_and_clean_exit_codes(
        self, seed: int, plies: int, include_hidden: bool,
        swap: tuple[int, int] | None, edits: list[tuple[int, str]],
    ) -> None:
        text = _reachable_text(seed, plies, include_hidden)
        head, hidden = text.rsplit(" ", 1)
        if swap is not None and hidden != "-":
            entries = hidden.split(",")
            i, j = (k % len(entries) for k in swap)
            entries[i], entries[j] = entries[j], entries[i]
            text = head + " " + ",".join(entries)
        for pos, ch in edits:
            i = pos % len(text)
            text = text[:i] + ch + text[i + 1:]
        try:
            state = decode_state(text)
        except JfenError:
            pass
        else:
            # Encoding is canonical, so only the canonical text decodes.
            with_hidden = not text.strip().endswith(" -")
            assert encode_state(state, include_hidden=with_hidden) == text.strip()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(["infoset-size", "--state", text])
        assert code in (0, 2)
