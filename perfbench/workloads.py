"""The four workloads.  Each turns the seed into inputs before timing starts
and cycles over them in passes; an op is one call on one input.

A workload gives: `prepare` (inputs and the reference each output must
equal), `run` (the timed call), `collect`/`ok` (the untimed check), `work`
(units of work of an input), `latency_ms`, `traced` (the op through public
calls, for the traced run) and `first_call` (for setup_s).
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

import jieqi.engine as engine

import ops

#: Distinct `simulate` calls (master seeds) a self-play run cycles through.
SELFPLAY_BATCHES = 8
#: Seeded games sampled for the perft positions and the analysis corpus.
PERFT_GAMES, PERFT_EVERY = 40, 8
ANALYSIS_GAMES, ANALYSIS_EVERY = 16, 7


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Workload:
    unit = "ops"
    warmup_calls = 0

    def __init__(self, seed: int, workers: int, work_dir: Path) -> None:
        self.seed = seed
        self.workers = workers
        self.work_dir = work_dir
        self.cpus = sorted(os.sched_getaffinity(0))

    def next_pass(self, i: int) -> None:
        """A one-worker workload runs each pass on the next CPU of the
        process's own set, so every input's repeats are taken on every core
        (other tenants slow the cores unevenly; see README.md)."""
        if self.workers == 1 and len(self.cpus) > 1:
            cpu = self.cpus[(i // self.size()) % len(self.cpus)]
            os.sched_setaffinity(0, {cpu})

    def all_cpus(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def collect(self, i: int, output):
        return output

    def work(self, i: int) -> int:
        return 1

    def latency_ms(self, i: int, seconds: float) -> float:
        return 1e3 * seconds


class SelfPlay(Workload):
    """`jieqi simulate` via run_cli at a fixed game count, cycling over a few
    master seeds; an op is one call, its work the plies it plays."""

    unit = "plies"

    def __init__(self, seed: int, workers: int, work_dir: Path) -> None:
        super().__init__(seed, workers, work_dir)
        rng = random.Random(seed)
        self.masters = [rng.getrandbits(32) for _ in range(SELFPLAY_BATCHES)]
        self.reference: list[tuple[bytes, ...]] = []
        self.plies: list[int] = []
        self.serial_s: list[float] = []
        # Serial calls are warmed by prepare(); the first pools of a process
        # run slow, so parallel calls get one untimed pass of their own.
        self.warmup_calls = len(self.masters) if workers > 1 else 0

    def prepare(self, layers: ops.Layers) -> None:
        """Serial outputs of every batch: the reference each timed call must
        reproduce byte for byte, whatever its worker count."""
        for k, master in enumerate(self.masters):
            out = self.work_dir / f"ref{k}"
            start = time.perf_counter()
            code = ops.quiet_cli(layers, ops.simulate_argv(
                ops.GAMES_PER_CALL, master, 1, out))
            self.serial_s.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"simulate exited with {code}")
            self.reference.append(ops.read_outputs(out))
            self.plies.append(ops.plies_in(self.reference[-1][0]))

    def size(self) -> int:
        return len(self.masters)

    def run(self, layers: ops.Layers, i: int):
        k = i % len(self.masters)
        return ops.quiet_cli(layers, ops.simulate_argv(
            ops.GAMES_PER_CALL, self.masters[k], self.workers, self.work_dir / f"run{k}"))

    def collect(self, i: int, code):
        return code, ops.read_outputs(self.work_dir / f"run{i % len(self.masters)}")

    def ok(self, i: int, output) -> bool:
        return output == (0, self.reference[i % len(self.masters)])

    def work(self, i: int) -> int:
        return self.plies[i % len(self.masters)]

    def latency_ms(self, i: int, seconds: float) -> float:
        """Per ply, so that game lengths drawn by the seed do not move it."""
        return 1e3 * seconds / self.work(i)

    def traced(self, layers: ops.Layers, i: int) -> tuple[int, int]:
        k = i % len(self.masters)
        return ops.selfplay_batch(layers, ops.GAMES_PER_CALL, self.masters[k],
                                  self.work_dir / f"trace{k}", self.reference[k], self.workers)

    @staticmethod
    def first_call(layers: ops.Layers, work_dir: Path, workers: int) -> None:
        ops.quiet_cli(layers, ops.simulate_argv(workers, 1, workers, work_dir))


class Perft(Workload):
    """perft_counts at a fixed depth over positions from seeded play; an op
    is one position, its work the nodes (move paths) counted."""

    unit = "nodes"

    def prepare(self, layers: ops.Layers) -> None:
        samples = ops.sample_states(layers, random.Random(self.seed),
                                    PERFT_GAMES, PERFT_EVERY)
        self.positions = [state for state, _ in samples]
        self.reference = [ops.public_perft(layers, s, ops.PERFT_DEPTH)
                          for s in self.positions]

    def size(self) -> int:
        return len(self.positions)

    def run(self, layers: ops.Layers, i: int):
        return layers.perft_counts(self.positions[i % len(self.positions)], ops.PERFT_DEPTH)

    def ok(self, i: int, output) -> bool:
        return output == self.reference[i % len(self.positions)]

    def work(self, i: int) -> int:
        return sum(self.reference[i % len(self.positions)])

    def traced(self, layers: ops.Layers, i: int) -> tuple[int, int]:
        counts = ops.public_perft(layers, self.positions[i % len(self.positions)],
                                  ops.PERFT_DEPTH)
        return 1, int(not self.ok(i, counts))

    @staticmethod
    def first_call(layers: ops.Layers, work_dir: Path, workers: int) -> None:
        layers.perft_counts(layers.initial_state(1, engine.STANDARD_RULES), ops.PERFT_DEPTH)


class Analysis(Workload):
    """State queries over a corpus of state texts from seeded games; an op
    is one query (decode, both information sets, re-encode)."""

    unit = "queries"

    def prepare(self, layers: ops.Layers) -> None:
        samples = ops.sample_states(layers, random.Random(self.seed),
                                    ANALYSIS_GAMES, ANALYSIS_EVERY)
        self.texts = [layers.encode_state(s) for s, _ in samples]
        # The mover's size comes from mover_infoset_size during play; the
        # other viewer has no independent reference, so the first pass fixes
        # it and every later query must agree.
        self.reference = [(size, ops.query(layers, text)[1], True)
                          for text, (_, size) in zip(self.texts, samples)]

    def size(self) -> int:
        return len(self.texts)

    def run(self, layers: ops.Layers, i: int):
        return ops.query(layers, self.texts[i % len(self.texts)])

    def ok(self, i: int, output) -> bool:
        return output == self.reference[i % len(self.texts)]

    def traced(self, layers: ops.Layers, i: int) -> tuple[int, int]:
        return 1, int(not self.ok(i, self.run(layers, i)))

    @staticmethod
    def first_call(layers: ops.Layers, work_dir: Path, workers: int) -> None:
        ops.query(layers, layers.encode_state(layers.initial_state(1, engine.STANDARD_RULES)))


WORKLOADS = {
    "selfplay": (SelfPlay, 1),
    "selfplay-parallel": (SelfPlay, None),   # None: nproc workers
    "perft": (Perft, 1),
    "analysis": (Analysis, 1),
}


def make(name: str, seed: int, work_dir: Path) -> Workload:
    cls, workers = WORKLOADS[name]
    return cls(seed, workers or nproc(), work_dir)
