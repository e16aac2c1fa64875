"""Random self-play measurement: determinism, aggregation arithmetic and
byte-stable output files."""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import os
import random
import statistics
import time
from collections import Counter
from fractions import Fraction

import pytest

import jieqi.simulator
from jieqi import (
    Rules,
    WinReason,
    apply_move,
    estimate_gtc_log10,
    exact_log10,
    game_seed,
    initial_state,
    legal_moves,
    mover_infoset_size,
    play_random_game,
    run_simulation,
)
from jieqi.simulator import (
    _GOLDEN,
    _splitmix64,
    write_games_csv,
    write_series_csv,
    write_summary_json,
)
from jieqi.board import DARK_CELL
from jieqi.engine import STANDARD_RULES, perft_counts


@pytest.fixture(scope="module")
def run250():
    return run_simulation(games=250, master_seed=11, workers=1)


class TestEstimateGtc:
    def test_paper_row(self) -> None:
        assert estimate_gtc_log10(35, 133) == pytest.approx(205.36, abs=0.01)

    def test_trivial(self) -> None:
        assert estimate_gtc_log10(10, 3) == pytest.approx(3.0, abs=1e-12)

    def test_text_value(self) -> None:
        assert estimate_gtc_log10(34, 133) == pytest.approx(203.69, abs=0.01)

    def test_domain_errors(self) -> None:
        with pytest.raises(ValueError):
            estimate_gtc_log10(1.0, 100)
        with pytest.raises(ValueError):
            estimate_gtc_log10(35, 0)


class TestGameSeeds:
    def test_fixed_split(self) -> None:
        assert game_seed(0, 0) == game_seed(0, 0)
        assert game_seed(0, 0) != game_seed(0, 1)
        assert game_seed(1, 0) != game_seed(0, 0)
        assert all(0 <= game_seed(7, i) < 2 ** 64 for i in range(100))


class TestPlayRandomGame:
    def test_deterministic(self) -> None:
        a = play_random_game(12345)
        b = play_random_game(12345)
        assert a == b

    def test_first_ply_measurements(self) -> None:
        rec = play_random_game(7)
        assert rec.branching_per_ply[0] == 46
        assert rec.log10_infoset_per_ply[0] == pytest.approx(17.0643, abs=5e-4)

    def test_record_shape(self) -> None:
        for seed in range(5):
            rec = play_random_game(seed)
            assert rec.plies >= 1
            assert len(rec.branching_per_ply) == rec.plies
            assert len(rec.log10_infoset_per_ply) == rec.plies
            assert all(b >= 1 for b in rec.branching_per_ply)
            assert all(x >= 0.0 for x in rec.log10_infoset_per_ply)
            assert rec.result.over
            assert rec.plies < 1500

    def test_result_reasons_in_rule_set(self) -> None:
        reasons = set()
        for seed in range(40):
            rec = play_random_game(seed)
            if rec.result.winner is not None:
                reasons.add(rec.result.reason)
            else:
                reasons.add("draw")
        allowed = {"draw", WinReason.KING_CAPTURED, WinReason.MEET_MARSHALS,
                   WinReason.OPPONENT_STALEMATED}
        assert reasons <= allowed
        assert len(reasons) >= 3


def _fresh_infoset_series(seed: int, rules: Rules) -> tuple[list[float], int]:
    """The game play_random_game plays from `seed`, with the mover's
    information-set size computed afresh on every ply."""
    state = initial_state(seed, rules)
    move_rng = random.Random(_splitmix64(seed ^ _GOLDEN))
    log10s: list[float] = []
    total = 0
    while not state.status.over:
        moves = legal_moves(state)
        size = mover_infoset_size(state)
        log10s.append(exact_log10(size))
        total += size
        state, _ = apply_move(state, moves[move_rng.randrange(len(moves))])
    return log10s, total


class TestInfosetReuse:
    @pytest.mark.parametrize(
        "rules", [STANDARD_RULES, Rules(draw_plies=12, classic_dark_roles=True)],
        ids=["standard", "draw12-classic"],
    )
    def test_equals_fresh_size_every_ply(self, rules) -> None:
        for i in range(30):
            seed = game_seed(21, i)
            rec = play_random_game(seed, rules)
            log10s, total = _fresh_infoset_series(seed, rules)
            assert rec.log10_infoset_per_ply == log10s, seed
            assert rec.infoset_total == total, seed


def _fix_identity(state, sq: int):
    """Yield (probability, state) for each kind the piece on `sq` can be
    under the campaign's uniform deal, given everything play has fixed: a
    face-down piece is kind k with probability count_k / n over the n
    face-down pieces of its side, and a face-up or empty square yields
    `state` itself.  A fixed kind is swapped in from a square of the same
    side that holds it, so every other identity stays exchangeable."""
    cell = state.board[sq]
    if cell not in DARK_CELL:
        yield Fraction(1), state
        return
    same = [s for s, c in enumerate(state.board) if c == cell]
    for kind, count in Counter(state.hidden[s] for s in same).items():
        t = next(s for s in same if state.hidden[s] is kind)
        hidden = list(state.hidden)
        hidden[sq], hidden[t] = kind, hidden[sq]
        yield Fraction(count, len(same)), state._replace(hidden=tuple(hidden))


def _exact_ply_means(plies: int) -> tuple[list[Fraction], list[float]]:
    """The exact expectations of the branching factor and of the mover's
    log10 information-set size at plies 1 to `plies` of a campaign game:
    every move has weight 1/|moves|, and every reveal or face-down capture
    is a chance node over the piece's kind."""
    branching = [Fraction(0)] * plies
    log10_size = [0.0] * plies

    def walk(state, p: Fraction, ply: int) -> None:
        moves = state.moves
        assert moves, "no game ends this early"
        branching[ply] += p * len(moves)
        log10_size[ply] += float(p) * exact_log10(mover_infoset_size(state))
        if ply + 1 < plies:
            for move in moves:
                for q, revealed in _fix_identity(state, move.from_sq):
                    for r, fixed in _fix_identity(revealed, move.to_sq):
                        walk(apply_move(fixed, move)[0], p * q * r / len(moves), ply + 1)

    walk(initial_state(0), Fraction(1), 0)
    return branching, log10_size


class TestExactShallowPlies:
    """The campaign's per-ply records past ply 1 against exact values."""

    Z_BOUND = 4.0

    def test_means_match_exact_expectations(self, run250) -> None:
        _, _, records = run250
        branching, log10_size = _exact_ply_means(3)
        # Black's move count at ply 2 depends only on which squares Red's
        # first move leaves occupied, so its mean is perft's depth-2 count
        # over Red's 46 moves.
        nodes = perft_counts(initial_state(0), 2)
        assert branching[:2] == [46, Fraction(nodes[1], nodes[0])] == [46, Fraction(1053, 23)]
        assert log10_size[1] == pytest.approx(16.33806, abs=5e-6)
        for ply in (1, 2):
            for name, exact in (("branching_per_ply", float(branching[ply])),
                                ("log10_infoset_per_ply", log10_size[ply])):
                values = [getattr(rec, name)[ply] for rec in records]
                se = statistics.stdev(values) / math.sqrt(len(values))
                z = (statistics.fmean(values) - exact) / se
                assert abs(z) <= self.Z_BOUND, (ply + 1, name, exact, z)


class _CountedProcess(multiprocessing.Process):
    """A child process that records itself in `started` when it starts."""

    started: list[multiprocessing.Process] = []

    def start(self) -> None:
        self.started.append(self)
        super().start()


def _count_children(monkeypatch, cpus: int) -> list[multiprocessing.Process]:
    """Pin the usable CPU count to `cpus` and have run_simulation start
    children that record themselves; return that record."""
    started: list[multiprocessing.Process] = []
    monkeypatch.setattr(_CountedProcess, "started", started)
    monkeypatch.setattr(jieqi.simulator, "Process", _CountedProcess)
    monkeypatch.setattr(jieqi.simulator, "usable_cpus", lambda: cpus)
    return started


def _fork_children(monkeypatch, cpus: int = 2) -> None:
    """Have run_simulation use up to `cpus` workers and fork its children,
    so that they inherit this process's patches under any default start
    method."""
    fork = multiprocessing.get_context("fork")
    for name in ("Lock", "Pipe", "Process"):
        monkeypatch.setattr(jieqi.simulator, name, getattr(fork, name))
    monkeypatch.setattr(jieqi.simulator, "usable_cpus", lambda: cpus)


def _fail_in(monkeypatch, where: str, fail) -> None:
    """Make play_random_game call `fail()` on every game played in the caller
    or in a forked child, as `where` says.  When a child is to fail, the
    caller plays slowly, so that the child surely takes a game."""
    caller = os.getpid()
    play = jieqi.simulator.play_random_game

    def play_or_fail(seed, rules=STANDARD_RULES, game_index=0):
        in_caller = os.getpid() == caller
        if in_caller == (where == "caller"):
            fail()
        if in_caller:
            time.sleep(0.02)
        return play(seed, rules, game_index)

    _fork_children(monkeypatch)
    monkeypatch.setattr(jieqi.simulator, "play_random_game", play_or_fail)


def _raise_game_failed() -> None:
    raise ValueError("game failed")


class _NeedsTwoArgs(Exception):
    """Pickles, but cannot be rebuilt from its pickle."""

    def __init__(self, a: str, b: str) -> None:
        super().__init__(f"{a} {b}")


class _HoldsLambda(Exception):
    """Cannot be pickled."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.hook = lambda: None


def _raise_needs_two_args() -> None:
    raise _NeedsTwoArgs("game", "failed")


def _raise_holds_lambda() -> None:
    raise _HoldsLambda("game failed")


_needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="a patch of this process reaches a child only through fork")


class TestRunSimulation:
    def test_pool_no_larger_than_games(self, monkeypatch) -> None:
        started = _count_children(monkeypatch, cpus=8)
        _, _, records = run_simulation(games=2, master_seed=3, workers=8)
        assert len(started) == 1        # 2 workers: the caller and one child
        assert [r.game_index for r in records] == [0, 1]
        # one game needs one worker: the caller plays it, no child starts
        run_simulation(games=1, master_seed=3, workers=4)
        assert len(started) == 1

    def test_pool_no_larger_than_cpus(self, monkeypatch) -> None:
        started = _count_children(monkeypatch, cpus=3)
        _, _, records = run_simulation(games=4, master_seed=3, workers=5000)
        assert len(started) == 2        # 3 workers: the caller and two children
        assert [r.game_index for r in records] == [0, 1, 2, 3]
        # one usable CPU: the caller plays every game, no child starts
        monkeypatch.setattr(jieqi.simulator, "usable_cpus", lambda: 1)
        run_simulation(games=4, master_seed=3, workers=5000)
        assert len(started) == 2

    @pytest.mark.parametrize("cpus", [3, 4])
    def test_uneven_shares_cannot_change_results(self, monkeypatch, cpus: int) -> None:
        serial = run_simulation(games=7, master_seed=5, workers=1)
        started = _count_children(monkeypatch, cpus=cpus)
        assert run_simulation(games=7, master_seed=5, workers=cpus) == serial
        assert len(started) == cpus - 1

    def test_no_child_outlives_a_run(self, monkeypatch) -> None:
        started = _count_children(monkeypatch, cpus=2)
        run_simulation(games=4, master_seed=3, workers=2)
        assert len(started) == 1
        assert multiprocessing.active_children() == []

    # At 2 workers the caller plays the even games and the child the odd.
    # When the caller's first game fails, the child goes on to the other
    # 199 games, more records than its pipe buffers, so it must be stopped,
    # not waited for.
    @_needs_fork
    @pytest.mark.parametrize("where, games", [("caller", 200), ("child", 6)],
                             ids=["caller", "child"])
    def test_exception_raised_in_caller(self, monkeypatch, where: str, games: int) -> None:
        _fail_in(monkeypatch, where, _raise_game_failed)
        with pytest.raises(ValueError, match="game failed"):
            run_simulation(games=games, master_seed=3, workers=2)
        assert multiprocessing.active_children() == []

    @_needs_fork
    def test_child_traceback_chained(self, monkeypatch) -> None:
        _fail_in(monkeypatch, "child", _raise_game_failed)
        with pytest.raises(ValueError) as raised:
            run_simulation(games=6, master_seed=3, workers=2)
        cause = raised.value.__cause__
        assert isinstance(cause, jieqi.simulator.ChildTraceback)
        assert "_raise_game_failed" in str(cause)
        assert "ValueError: game failed" in str(cause)

    @_needs_fork
    @pytest.mark.parametrize("fail", [_raise_needs_two_args, _raise_holds_lambda],
                             ids=["unpickle-fails", "pickle-fails"])
    def test_exception_that_cannot_be_sent(self, monkeypatch, fail) -> None:
        _fail_in(monkeypatch, "child", fail)
        with pytest.raises(RuntimeError, match="cannot be sent back") as raised:
            run_simulation(games=6, master_seed=3, workers=2)
        assert "game failed" in str(raised.value.__cause__)
        assert multiprocessing.active_children() == []

    @_needs_fork
    def test_free_process_takes_the_next_game(self, monkeypatch) -> None:
        caller = os.getpid()
        played_here: list[int] = []
        play = jieqi.simulator.play_random_game

        def slow_in_caller(seed, rules=STANDARD_RULES, game_index=0):
            if os.getpid() == caller:
                played_here.append(game_index)
                time.sleep(0.05)
            return play(seed, rules, game_index)

        _fork_children(monkeypatch)
        monkeypatch.setattr(jieqi.simulator, "play_random_game", slow_in_caller)
        _, _, records = run_simulation(games=20, master_seed=3, workers=2)
        assert [r.game_index for r in records] == list(range(20))
        # a static split would leave ten games to the slow caller
        assert len(played_here) <= 5

    @_needs_fork
    def test_every_game_taken_once_under_contention(self, monkeypatch) -> None:
        # Near-free games keep four processes on two cores claiming back to
        # back: a lost counter update would hand out an index twice.
        stub = dataclasses.replace(play_random_game(7), plies=1, branching_per_ply=[46],
                                   log10_infoset_per_ply=[17.0], infoset_total=10 ** 17)
        _fork_children(monkeypatch, cpus=4)
        monkeypatch.setattr(jieqi.simulator, "play_random_game",
                            lambda seed, rules, game_index: dataclasses.replace(
                                stub, game_index=game_index))
        _, _, records = run_simulation(games=20000, master_seed=3, workers=4)
        assert [r.game_index for r in records] == list(range(20000))

    @_needs_fork
    def test_child_exit_without_sending_raises(self, monkeypatch) -> None:
        _fail_in(monkeypatch, "child", lambda: os._exit(1))
        with pytest.raises(RuntimeError, match="without sending"):
            run_simulation(games=6, master_seed=3, workers=2)
        assert multiprocessing.active_children() == []

    def test_worker_count_cannot_change_results(self) -> None:
        s1, r1, g1 = run_simulation(games=100, master_seed=3, workers=1)
        s2, r2, g2 = run_simulation(games=100, master_seed=3, workers=2)
        assert s1 == s2
        assert r1 == r2
        assert g1 == g2

    def test_series_checkpoints(self, run250) -> None:
        _, series, _ = run250
        assert [row.games_completed for row in series] == [100, 200, 250]

    def test_final_row_agrees_with_summary(self, run250) -> None:
        summary, series, _ = run250
        last = series[-1]
        assert last.games_completed == summary.games
        assert last.cum_avg_branching == summary.mean_branching
        assert last.cum_avg_length == summary.mean_length_plies
        assert last.cum_avg_log10_infoset == summary.mean_log10_infoset
        assert last.cum_log10_gtc == summary.log10_gtc

    def test_short_run_single_row(self) -> None:
        _, series, _ = run_simulation(games=30, master_seed=5, workers=1)
        assert [row.games_completed for row in series] == [30]

    def test_internal_consistency(self, run250) -> None:
        summary, _, _ = run250
        expected = summary.mean_length_plies * math.log10(summary.mean_branching)
        assert summary.log10_gtc == pytest.approx(expected, rel=1e-10)

    def test_pooled_means(self, run250) -> None:
        summary, _, records = run250
        plies = sum(r.plies for r in records)
        assert summary.mean_length_plies == plies / 250
        assert summary.mean_branching == \
            sum(sum(r.branching_per_ply) for r in records) / plies
        exact_mean_log = sum(sum(r.log10_infoset_per_ply) for r in records) / plies
        assert summary.mean_log10_infoset == pytest.approx(exact_mean_log, rel=1e-12)

    def test_breakdown_sums_to_games(self, run250) -> None:
        summary, _, _ = run250
        assert sum(summary.result_breakdown.values()) == 250

    def test_games_indexed_in_order(self, run250) -> None:
        _, _, records = run250
        assert [r.game_index for r in records] == list(range(250))
        assert all(r.seed == game_seed(11, r.game_index) for r in records)

    def test_bad_arguments(self) -> None:
        with pytest.raises(ValueError):
            run_simulation(0, 0, 1)
        with pytest.raises(ValueError):
            run_simulation(10, 0, 0)


class TestOutputFiles:
    def test_games_csv_layout(self, run250, tmp_path) -> None:
        _, _, records = run250
        path = tmp_path / "games.csv"
        write_games_csv(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == \
            "game_index,seed,plies,result,mean_branching,mean_log10_infoset"
        assert len(lines) == 251
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[3].startswith(("win_", "draw"))

    def test_series_csv_layout(self, run250, tmp_path) -> None:
        _, series, _ = run250
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        lines = path.read_text().splitlines()
        assert lines[0] == ("games_completed,cum_avg_branching,cum_avg_length,"
                            "cum_avg_log10_infoset,cum_log10_gtc")
        assert len(lines) == 4

    def test_summary_json_keys(self, run250, tmp_path) -> None:
        summary, _, _ = run250
        path = tmp_path / "summary.json"
        write_summary_json(path, summary, master_seed=11, rules=STANDARD_RULES)
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "games", "mean_branching", "mean_length_plies",
            "mean_log10_infoset", "log10_mean_infoset", "log10_gtc",
            "result_breakdown", "master_seed", "draw_plies", "rules_flags",
        }
        assert payload["games"] == 250
        assert payload["master_seed"] == 11
        assert payload["draw_plies"] == 40
        assert payload["rules_flags"] == {"classic_dark_roles": False}

    def test_rewrites_are_byte_identical(self, run250, tmp_path) -> None:
        summary, series, records = run250
        for name, writer, arg in (
            ("games.csv", write_games_csv, records),
            ("series.csv", write_series_csv, series),
        ):
            a, b = tmp_path / ("a_" + name), tmp_path / ("b_" + name)
            writer(a, arg)
            writer(b, arg)
            assert a.read_bytes() == b.read_bytes()

    def test_csv_reals_use_six_significant_digits(self, run250, tmp_path) -> None:
        _, series, _ = run250
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        row = path.read_text().splitlines()[1].split(",")
        for cell in row[1:]:
            digits = cell.replace(".", "").replace("-", "").lstrip("0")
            assert len(digits) <= 6, cell
