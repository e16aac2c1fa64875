"""The benchmark's operations, written only against the public functions of
the jieqi modules.

Every operation takes a `Layers` object: the public functions, either bare
(tracing off) or wrapped in spans by a Tracer (tracing on), so the traced and
untraced runs execute the same code.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import random
import time
from pathlib import Path

import jieqi
import jieqi.combinatorics as combinatorics
import jieqi.engine as engine
import jieqi.enumeration as enumeration
import jieqi.infoset as infoset
import jieqi.jfen as jfen
import jieqi.simulator as simulator
from jieqi.cli import run_cli

#: Games per `simulate` call, in the self-play workloads and in the gate.
GAMES_PER_CALL = 8
#: Depth of each perft call in the perft workload.
PERFT_DEPTH = 2
#: The splitmix64 increment the simulator seeds with (see `move_rng_seed`).
GOLDEN = 0x9E3779B97F4A7C15
OUTPUT_FILES = ("games.csv", "series.csv", "summary.json")


def check_source(root: Path) -> None:
    """Refuse to measure a jieqi that is not the checkout's own."""
    here = Path(jieqi.__file__).resolve()
    if root.resolve() / "src" not in here.parents:
        raise SystemExit(f"jieqi imported from {here}, not from {root}/src")


class Layers:
    """The public calls the benchmark makes, named by module.function."""

    def __init__(self, tracer) -> None:
        w = tracer.wrap
        self.tracer = tracer
        self.initial_state = w("engine.initial_state", engine.initial_state)
        self.legal_moves = w("engine.legal_moves", engine.legal_moves, size=len)
        self.apply_move = w("engine.apply_move", engine.apply_move)
        self.observe = w("engine.observe", engine.observe)
        self.perft_counts = w("engine.perft_counts", engine.perft_counts)
        self.mover_infoset_size = w("infoset.mover_infoset_size",
                                    infoset.mover_infoset_size)
        self.infoset_size = w("infoset.infoset_size", infoset.infoset_size)
        self.exact_log10 = w("combinatorics.exact_log10", combinatorics.exact_log10)
        self.decode_state = w("jfen.decode_state", jfen.decode_state)
        self.encode_state = w("jfen.encode_state", jfen.encode_state,
                              size=lambda text: len(text.encode()))
        self.count_information_sets = w("enumeration.count_information_sets",
                                        enumeration.count_information_sets)
        self.run_simulation = w("simulator.run_simulation", simulator.run_simulation)
        self.run_simulation_parallel = w("simulator.run_simulation.parallel",
                                         simulator.run_simulation)
        self.write_games_csv = w("simulator.write_games_csv", simulator.write_games_csv)
        self.write_series_csv = w("simulator.write_series_csv",
                                  simulator.write_series_csv)
        self.write_summary_json = w("simulator.write_summary_json",
                                    simulator.write_summary_json)
        self.run_cli = w("cli.run_cli", run_cli)
        # Calls between layers have no call site here: the games inside
        # run_simulation, and infoset's calls into combinatorics.
        tracer.patch(simulator, "play_random_game", "simulator.play_random_game")
        tracer.patch(infoset, "multiset_arrangements",
                     "combinatorics.multiset_arrangements")


def quiet_cli(layers: Layers, argv: list[str]) -> int:
    """run_cli with its report lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return layers.run_cli(argv)


def simulate_argv(games: int, master: int, workers: int, out_dir: Path) -> list[str]:
    return ["simulate", "--games", str(games), "--seed", str(master),
            "--workers", str(workers), "--out-dir", str(out_dir)]


def read_outputs(out_dir: Path) -> tuple[bytes, ...]:
    return tuple((out_dir / name).read_bytes() for name in OUTPUT_FILES)


def plies_in(games_csv: bytes) -> int:
    """Total plies of a games.csv (third column)."""
    rows = games_csv.decode().splitlines()[1:]
    return sum(int(row.split(",")[2]) for row in rows)


# ---------------------------------------------------------------------------
# self-play
# ---------------------------------------------------------------------------

def move_rng_seed(seed: int) -> int:
    """Seed of play_random_game's move generator for game seed `seed`.

    The simulator seeds it with splitmix64(seed ^ GOLDEN); game_seed(m, 0)
    is splitmix64(m + GOLDEN), so the public game_seed yields the same value.
    """
    return simulator.game_seed((seed ^ GOLDEN) - GOLDEN, 0)


def play_game(layers: Layers, seed: int, game_index: int, on_ply=None):
    """One uniform-random game driven through public calls only.

    Mirrors play_random_game; callers check that the records are equal, so
    this loop cannot drift from the program it stands in for.  `on_ply(state,
    size)` sees every ply's state and mover information-set size.
    """
    state = layers.initial_state(seed, engine.STANDARD_RULES)
    move_rng = random.Random(move_rng_seed(seed))
    branching: list[int] = []
    log10s: list[float] = []
    total = 0
    while not state.status.over:
        moves = layers.legal_moves(state)
        size = layers.mover_infoset_size(state)
        if on_ply is not None:
            on_ply(state, size)
        branching.append(len(moves))
        log10s.append(layers.exact_log10(size))
        total += size
        state, _ = layers.apply_move(state, moves[move_rng.randrange(len(moves))])
    return simulator.GameRecord(
        game_index=game_index,
        seed=seed,
        plies=state.ply_count,
        result=state.status,
        branching_per_ply=branching,
        log10_infoset_per_ply=log10s,
        infoset_total=total,
    )


def selfplay_batch(layers: Layers, games: int, master: int, out_dir: Path,
                   expected: tuple[bytes, ...], workers: int = 1) -> tuple[int, int]:
    """The traced form of one `simulate` call: the games through public
    calls, then run_simulation, whose records (play_random_game's) must equal
    the loop's, and the three writers, whose files must equal `expected`.

    With workers > 1, run_simulation also runs at that worker count and must
    give the same records.  Returns (checks, failures).
    """
    tracer = layers.tracer
    seeds = [simulator.game_seed(master, i) for i in range(games)]
    loop_records = [play_game(layers, s, i) for i, s in enumerate(seeds)]
    start = time.perf_counter()
    summary, series, records = layers.run_simulation(games, master, 1)
    serial_s = time.perf_counter() - start
    checks, failures = 1, int(records != loop_records)

    out_dir.mkdir(parents=True, exist_ok=True)

    def write_outputs():
        layers.write_games_csv(out_dir / "games.csv", records)
        layers.write_series_csv(out_dir / "series.csv", series)
        layers.write_summary_json(out_dir / "summary.json", summary, master,
                                  engine.STANDARD_RULES)

    tracer.region("simulator.write_outputs", write_outputs)
    checks += 1
    failures += read_outputs(out_dir) != expected

    tasks = [(i, s, engine.STANDARD_RULES) for i, s in enumerate(seeds)]
    tracer.note("simulator.records_pickled_bytes",
                len(pickle.dumps(tasks)) + len(pickle.dumps(records)))
    if workers > 1:
        start = time.perf_counter()
        _, _, par_records = layers.run_simulation_parallel(games, master, workers)
        tracer.note("simulator.parallel_overhead_s",
                    time.perf_counter() - start - serial_s / workers)
        checks += 1
        failures += par_records != records
    return checks, failures


# ---------------------------------------------------------------------------
# perft
# ---------------------------------------------------------------------------

def public_perft(layers: Layers, state, depth: int) -> list[int]:
    """perft_counts through legal_moves and apply_move: the reference the
    timed perft_counts calls are checked against, and the traced form."""
    counts = [0] * depth

    def walk(s, d: int) -> None:
        moves = layers.legal_moves(s)
        counts[d] += len(moves)
        if d + 1 < depth:
            for m in moves:
                nxt, _ = layers.apply_move(s, m)
                if not nxt.status.over:
                    walk(nxt, d + 1)

    if not state.status.over:
        walk(state, 0)
    return counts


# ---------------------------------------------------------------------------
# state queries
# ---------------------------------------------------------------------------

def query(layers: Layers, text: str) -> tuple[int, int, bool]:
    """Decode a state text, size both players' information sets and check
    that re-encoding gives the same text back."""
    state = layers.decode_state(text)
    mover = state.side_to_move
    own = layers.infoset_size(layers.observe(state, mover))
    other = layers.infoset_size(layers.observe(state, mover.opponent))
    return own, other, layers.encode_state(state) == text


def count_both(layers: Layers) -> tuple[tuple[int, int], float, float]:
    """count_information_sets under both readings of the off-board split, in
    the order and from the empty binomial cache a one-shot `jieqi
    count-infosets` has: (the two counts, seconds of each reading)."""
    clear = getattr(combinatorics.binomial, "cache_clear", None)
    if clear is not None:
        clear()
    start = time.perf_counter()
    primary = layers.count_information_sets()
    middle = time.perf_counter()
    variant = layers.count_information_sets(split_offboard_when_all_bright=True)
    return (primary, variant), middle - start, time.perf_counter() - middle


def binomial_hit_ratio() -> float:
    """Cache hits over calls of binomial since count_both emptied it (0
    without a cache)."""
    info = getattr(combinatorics.binomial, "cache_info", None)
    if info is None:
        return 0.0
    stats = info()
    calls = stats.hits + stats.misses
    return stats.hits / calls if calls else 0.0


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def sample_states(layers: Layers, rng: random.Random, games: int, every: int):
    """States of `games` seeded random games, every `every`-th ply from ply 0
    (shuffled starts included), non-terminal only, with the mover's
    information-set size at that ply."""
    samples = []
    for _ in range(games):
        state = layers.initial_state(rng.getrandbits(64), engine.STANDARD_RULES)
        while not state.status.over:
            if state.ply_count % every == 0:
                samples.append((state, layers.mover_infoset_size(state)))
            moves = layers.legal_moves(state)
            state, _ = layers.apply_move(state, moves[rng.randrange(len(moves))])
    return samples
