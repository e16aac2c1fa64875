"""Uniform-random self-play measurement of branching factor, game length,
per-ply information-set size and the derived game-tree-complexity bound.

Determinism contract: each game's seed is derived from (master seed, game
index) by a fixed splitmix64 step, every game is a pure function of its
seed, and aggregation folds the games in index order -- so results are
byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import random
from dataclasses import asdict, dataclass
from multiprocessing import Lock, Pipe, Process, RawValue
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .combinatorics import exact_log10
from .engine import (
    Rules,
    STANDARD_RULES,
    TerminalStatus,
    apply_move,
    initial_state,
    legal_moves,
)
from .infoset import mover_infoset_size

# The first Pipe() imports this module, so a run without children never does.
if TYPE_CHECKING:
    from multiprocessing.connection import Connection

MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

#: series.csv checkpoint spacing, in games.
CHECKPOINT_EVERY = 100


def _splitmix64(x: int) -> int:
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def game_seed(master_seed: int, game_index: int) -> int:
    """Seed of the game_index-th game: the game_index-th output of a
    splitmix64 stream started at master_seed."""
    return _splitmix64(master_seed + (game_index + 1) * _GOLDEN)


@dataclass(frozen=True)
class GameRecord:
    """One finished random game and its per-ply measurements."""

    game_index: int
    seed: int
    plies: int
    result: TerminalStatus
    branching_per_ply: list[int]
    log10_infoset_per_ply: list[float]
    infoset_total: int      # exact sum of per-ply sizes, for the exact mean

    @property
    def mean_branching(self) -> float:
        return sum(self.branching_per_ply) / self.plies

    @property
    def mean_log10_infoset(self) -> float:
        return _sum_in_order(self.log10_infoset_per_ply) / self.plies


def _sum_in_order(values: list[float]) -> float:
    """Left-to-right float sum.  `sum()` rounds differently from Python 3.12
    on (compensated summation), which would move the output bytes with the
    interpreter."""
    total = 0.0
    for x in values:
        total += x
    return total


class SeriesRow(NamedTuple):
    """Cumulative statistics after `games_completed` games; run_simulation
    samples them every CHECKPOINT_EVERY games (plus a final row), tracing
    how the estimates converge as games accumulate."""

    games_completed: int
    cum_avg_branching: float
    cum_avg_length: float
    cum_avg_log10_infoset: float
    cum_log10_gtc: float


@dataclass(frozen=True)
class SimulationSummary:
    games: int
    mean_branching: float
    mean_length_plies: float
    mean_log10_infoset: float        # mean of per-ply log10 sizes
    log10_mean_infoset: float        # log10 of the exact mean per-ply size
    log10_gtc: float
    result_breakdown: dict[str, int]


def estimate_gtc_log10(branching: float, length_plies: float) -> float:
    """log10 of the branching^length game-tree-complexity lower bound."""
    if branching <= 1:
        raise ValueError(f"branching factor must exceed 1, got {branching}")
    if length_plies <= 0:
        raise ValueError(f"game length must be positive, got {length_plies}")
    return length_plies * math.log10(branching)


def play_random_game(
    seed: int,
    rules: Rules = STANDARD_RULES,
    game_index: int = 0,
) -> GameRecord:
    """Play one game choosing uniformly among the legal moves each ply.

    Per ply (one move by one player) the mover's legal-move count and the
    log10 of the mover's exact information-set size are recorded before the
    move is chosen; the terminal position itself records nothing.

    Each side's size is computed on its first ply and again only on its
    first ply after a move that revealed a piece or captured a face-down
    one; in between it is reused, since any other move -- a quiet one or a
    face-up capture -- leaves both sides' hidden pools unchanged (see the
    jieqi.infoset docstring).
    """
    state = initial_state(seed, rules)
    move_rng = random.Random(_splitmix64(seed ^ _GOLDEN))
    branching: list[int] = []
    log10s: list[float] = []
    infoset_total = 0
    # (size, log10 size) per side, indexed by Side.  Reveals and face-down
    # captures are the only moves that change a hidden pool (see the
    # jieqi.infoset docstring), so they alone clear both entries.
    sized: list[tuple[int, float] | None] = [None, None]
    while not state.status.over:
        moves = legal_moves(state)
        entry = sized[state.side_to_move]
        if entry is None:
            size = mover_infoset_size(state)
            entry = sized[state.side_to_move] = (size, exact_log10(size))
        branching.append(len(moves))
        log10s.append(entry[1])
        infoset_total += entry[0]
        state, outcome = apply_move(state, move_rng.choice(moves))
        captured = outcome.captured
        if outcome.revealed is not None or (captured is not None and captured.was_dark):
            sized = [None, None]
    return GameRecord(
        game_index=game_index,
        seed=seed,
        plies=state.ply_count,
        result=state.status,
        branching_per_ply=branching,
        log10_infoset_per_ply=log10s,
        infoset_total=infoset_total,
    )


def usable_cpus() -> int:
    """The CPUs this process may run on, which can be fewer than the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _SharedCounter:
    """The next game index, shared under a lock by the caller and its
    children, so each process takes a game whenever it is free."""

    def __init__(self) -> None:
        self.lock = Lock()
        self.value = RawValue("q", 0)

    def __call__(self) -> int:
        with self.lock:
            index = self.value.value
            self.value.value = index + 1
        return index


def _play_claimed(next_game: Callable[[], int], games: int, master_seed: int,
                  rules: Rules) -> list[GameRecord]:
    """Play the games whose indices `next_game` hands out, until it passes
    the last one."""
    records = []
    index = next_game()
    while index < games:
        records.append(play_random_game(game_seed(master_seed, index), rules,
                                        game_index=index))
        index = next_game()
    return records


def _send_share(sender: Connection, next_game: _SharedCounter, games: int,
                master_seed: int, rules: Rules) -> None:
    """A child process's body: play games and send back their records, or
    the exception that stopped it with its formatted traceback."""
    try:
        sender.send(_play_claimed(next_game, games, master_seed, rules))
    except Exception as exc:
        import traceback    # only a failing child pays for the import
        trace = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError("a self-play child process raised an exception "
                               "that cannot be sent back; its traceback follows")
        sender.send((exc, trace))


class ChildTraceback(Exception):
    """The traceback, formatted in the child, of an exception a self-play
    child process sent back; chained as the cause of the re-raised one."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _receive_share(receiver: Connection) -> list[GameRecord]:
    try:
        result = receiver.recv()
    except EOFError:
        raise RuntimeError("a self-play child process exited without sending "
                           "its games") from None
    if isinstance(result, tuple):
        exc, trace = result
        raise exc from ChildTraceback(trace)
    return result


def run_simulation(
    games: int,
    master_seed: int = 0,
    workers: int = 1,
    rules: Rules = STANDARD_RULES,
) -> tuple[SimulationSummary, list[SeriesRow], list[GameRecord]]:
    """Play `games` independent random games and aggregate.

    The branching factor is pooled over all plies of all games; game length
    is the per-game mean; the information-set statistic is reported both as
    the mean of per-ply log10 sizes and as the log10 of the exact
    arithmetic-mean size.  Returns (summary, series rows, game records).

    `workers` only distributes the games, capped at the games and the usable
    CPUs; it cannot change any output.  The caller plays games itself and
    starts one child process per other worker, so `workers` N starts N - 1
    children and one worker starts none.  Every process takes the next
    unplayed game index from one shared counter whenever it is free, so a
    process on a slower core plays fewer games; each child sends its records
    back over its own pipe.  A child's exception is raised again here, with
    the child's traceback as its cause, and no child outlives the call.
    """
    if games < 1:
        raise ValueError("games must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, games, usable_cpus())
    # Alone, the caller counts without a lock: the lock and the shared value
    # would cost a one-worker run ~10 ms of imports.
    next_game = _SharedCounter() if workers > 1 else itertools.count().__next__
    children: list[tuple[Process, Connection]] = []
    try:
        for _ in range(workers - 1):
            receiver, sender = Pipe(duplex=False)
            child = Process(target=_send_share,
                            args=(sender, next_game, games, master_seed, rules))
            child.start()
            children.append((child, receiver))
            sender.close()
        played = [_play_claimed(next_game, games, master_seed, rules)]
        played += [_receive_share(receiver) for _, receiver in children]
    except BaseException:
        # A child still sending would block its exit: stop it.
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()
    records = sorted(itertools.chain(*played), key=attrgetter("game_index"))

    rows: list[SeriesRow] = []
    total_plies = 0
    total_branching = 0
    total_log10 = 0.0
    total_size = 0
    breakdown: dict[str, int] = {}
    for done, rec in enumerate(records, start=1):
        total_plies += rec.plies
        total_branching += sum(rec.branching_per_ply)
        total_log10 += _sum_in_order(rec.log10_infoset_per_ply)
        total_size += rec.infoset_total
        label = rec.result.label()
        breakdown[label] = breakdown.get(label, 0) + 1
        if done % CHECKPOINT_EVERY == 0 or done == games:
            b = total_branching / total_plies
            rows.append(SeriesRow(
                games_completed=done,
                cum_avg_branching=b,
                cum_avg_length=total_plies / done,
                cum_avg_log10_infoset=total_log10 / total_plies,
                cum_log10_gtc=estimate_gtc_log10(b, total_plies / done),
            ))

    final = rows[-1]    # every game done: the headline is the last row
    summary = SimulationSummary(
        games=games,
        mean_branching=final.cum_avg_branching,
        mean_length_plies=final.cum_avg_length,
        mean_log10_infoset=final.cum_avg_log10_infoset,
        log10_mean_infoset=exact_log10(total_size) - math.log10(total_plies),
        log10_gtc=final.cum_log10_gtc,
        result_breakdown=dict(sorted(breakdown.items())),
    )
    return summary, rows, records


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def format_stat(x: float) -> str:
    """Fixed 6-significant-digit rendering of a measured figure, used in
    all CSV output and in the figures the CLI prints."""
    return format(x, ".6g")


def write_games_csv(path: Path, records: list[GameRecord]) -> None:
    lines = ["game_index,seed,plies,result,mean_branching,mean_log10_infoset"]
    for rec in records:
        lines.append(
            f"{rec.game_index},{rec.seed},{rec.plies},{rec.result.label()},"
            f"{format_stat(rec.mean_branching)},{format_stat(rec.mean_log10_infoset)}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_series_csv(path: Path, series: list[SeriesRow]) -> None:
    lines = [
        "games_completed,cum_avg_branching,cum_avg_length,"
        "cum_avg_log10_infoset,cum_log10_gtc"
    ]
    for row in series:
        lines.append(
            f"{row.games_completed},{format_stat(row.cum_avg_branching)},"
            f"{format_stat(row.cum_avg_length)},{format_stat(row.cum_avg_log10_infoset)},"
            f"{format_stat(row.cum_log10_gtc)}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_summary_json(
    path: Path,
    summary: SimulationSummary,
    master_seed: int,
    rules: Rules,
) -> None:
    payload = {
        **asdict(summary),
        "master_seed": master_seed,
        "draw_plies": rules.draw_plies,
        "rules_flags": {"classic_dark_roles": rules.classic_dark_roles},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
