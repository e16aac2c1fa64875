"""Correctness gate: pinned outputs that every benchmark run checks.

Whatever the workload, a run first replays the pins in `pins.json`:

  * the SHA-256 of games.csv, series.csv and summary.json written by
    `jieqi simulate --games 8 --seed 0`;
  * the same games through public calls and through run_simulation (that
    is, play_random_game) at one and at N workers: equal records; and the
    three writers: byte-identical files;
  * on every ply of one game, mover_infoset_size equal to
    infoset_size(observe()) and the state text round-tripping;
  * perft counts of pinned state texts, by perft_counts and by a walk
    through legal_moves/apply_move;
  * both count_information_sets integers, from a cold binomial cache.

Each check is one attempted operation; each mismatch or exception is one
failure.  Run this file to print the pins the current code produces:

    PYTHONPATH=src python3 perfbench/gate.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from pathlib import Path

import jieqi.simulator as simulator

import ops
from tracer import NullTracer

PINS_PATH = Path(__file__).with_name("pins.json")


def sha256s(outputs: tuple[bytes, ...]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in zip(ops.OUTPUT_FILES, outputs)}


class Gate:
    """Runs the checks and keeps the tally."""

    def __init__(self, layers: ops.Layers, work_dir: Path, workers: int) -> None:
        self.layers = layers
        self.work_dir = work_dir
        self.workers = workers
        self.pins = json.loads(PINS_PATH.read_text())
        self.checks = 0
        self.failed: list[str] = []
        self.hit_ratio = 0.0

    def check(self, name: str, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failed.append(name)

    @property
    def expected_counts(self) -> tuple[int, int]:
        return self.pins["information_sets"], self.pins["always_split_offboard"]

    def run(self) -> None:
        for name, step in (("simulate", self.simulate), ("plies", self.plies),
                           ("perft", self.perft), ("count", self.count)):
            try:
                step()
            except Exception as exc:  # a crash is a failed check, not a crash of the run
                traceback.print_exc(file=sys.stderr)
                self.check(f"{name}: {type(exc).__name__}: {exc}", False)

    def simulate(self) -> None:
        pins = self.pins
        layers = self.layers
        self.check("gate games", pins["games"] == ops.GAMES_PER_CALL)
        cli_dir = self.work_dir / "gate-cli"
        code = ops.quiet_cli(layers, ops.simulate_argv(
            ops.GAMES_PER_CALL, pins["master_seed"], 1, cli_dir))
        self.check("simulate exit code", code == 0)
        outputs = ops.read_outputs(cli_dir)
        for name, digest in sha256s(outputs).items():
            self.check(f"sha256 {name}", digest == pins["sha256"][name])
        checks, failures = ops.selfplay_batch(
            layers, ops.GAMES_PER_CALL, pins["master_seed"], self.work_dir / "gate-batch",
            outputs, self.workers)
        self.checks += checks
        self.failed += ["selfplay batch"] * failures

    def plies(self) -> None:
        layers = self.layers
        seed = simulator.game_seed(self.pins["master_seed"], 0)

        def on_ply(state, size):
            obs_size = layers.infoset_size(layers.observe(state, state.side_to_move))
            self.check(f"infoset ply {state.ply_count}", size == obs_size)
            text = layers.encode_state(state)
            self.check(f"jfen ply {state.ply_count}",
                       layers.encode_state(layers.decode_state(text)) == text)

        ops.play_game(layers, seed, 0, on_ply)

    def perft(self) -> None:
        layers = self.layers
        for pin in self.pins["perft"]:
            state = layers.decode_state(pin["state"])
            self.check("perft_counts", layers.perft_counts(state, pin["depth"]) == pin["counts"])
            self.check("public perft",
                       ops.public_perft(layers, state, pin["depth"]) == pin["counts"])

    def count(self) -> None:
        counts, _, _ = ops.count_both(self.layers)
        self.hit_ratio = ops.binomial_hit_ratio()
        self.check("count_information_sets", counts == self.expected_counts)


def record_pins() -> dict:
    """The pins as the current code produces them."""
    layers = ops.Layers(NullTracer())
    out_dir = Path(".perfbench_work", "pins")
    code = ops.quiet_cli(layers, ops.simulate_argv(ops.GAMES_PER_CALL, 0, 1, out_dir))
    if code != 0:
        raise SystemExit(f"simulate exited with {code}")
    digests = sha256s(ops.read_outputs(out_dir))
    states = [layers.initial_state(0, simulator.STANDARD_RULES)]
    states += [s for s, _ in ops.sample_states(layers, random.Random(0), 1, 40)][1:3]
    perft = []
    for state, depth in zip(states, (3, 2, 2)):
        perft.append({"state": layers.encode_state(state), "depth": depth,
                      "counts": layers.perft_counts(state, depth)})
    (primary, variant), _, _ = ops.count_both(layers)
    return {"games": ops.GAMES_PER_CALL, "master_seed": 0, "sha256": digests,
            "perft": perft, "information_sets": primary,
            "always_split_offboard": variant}


if __name__ == "__main__":
    json.dump(record_pins(), sys.stdout, indent=2)
    print()
