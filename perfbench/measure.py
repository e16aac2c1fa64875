"""One workload in a fresh interpreter: the gate, the seeded inputs, then
either the timed loop (--trace 0) or the traced loop (--trace 1).

Prints one JSON object: attempted, failed, metrics, and report lines.
run.py starts this file; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import ops
import workloads
from gate import Gate
from tracer import NullTracer, Tracer

#: Seconds of the timed loop between two cold count_information_sets samples.
COUNT_EVERY_S = 1.0


class Tally:
    """Operations attempted and failed; the first traceback goes to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reported = False

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def crash(self) -> None:
        self.add(1, 1)
        if not self.reported:
            traceback.print_exc(file=sys.stderr)
            self.reported = True


def timed_count(layers: ops.Layers, tally: Tally, expected: tuple[int, int]) -> list:
    """One cold count_both: [(seconds of each reading)], or [] if it raised.
    A full collection first, so that no collection of the workload's heap
    lands inside it."""
    gc.collect()
    try:
        counts, primary_s, variant_s = ops.count_both(layers)
    except Exception:
        tally.crash()
        return []
    tally.add(1, int(counts != expected))
    return [(primary_s, variant_s)]


def timed_loop(workload, layers: ops.Layers, seconds: float, tally: Tally,
               expected_counts: tuple[int, int]):
    """Closed loop from one client: call after call until `seconds` pass.
    Only the program call is timed; outputs are checked afterwards.

    Every COUNT_EVERY_S the loop also times one cold count_both, so that its
    samples, like each input's calls, are spread over the whole run.
    Returns the (input index, seconds) samples and the count times.
    """
    samples: list[tuple[int, float]] = []
    count_s: list[float] = []
    outputs = []
    start_loop = time.perf_counter()
    deadline = start_loop + seconds
    next_count = start_loop
    i = 0
    while (now := time.perf_counter()) < deadline:
        if i % workload.size() == 0:
            workload.next_pass(i)
        if now >= next_count:
            next_count = now + COUNT_EVERY_S
            count_s += timed_count(layers, tally, expected_counts)
        start = time.perf_counter()
        try:
            result = workload.run(layers, i)
        except Exception:
            tally.crash()
        else:
            samples.append((i, time.perf_counter() - start))
            outputs.append((i, workload.collect(i, result)))
        i += 1
    for j, output in outputs:
        tally.add(1, int(not workload.ok(j, output)))
    return samples, count_s


def best_seconds(workload, samples) -> dict[int, float]:
    """Fastest call per input.  The loop cycles over the inputs, so each
    input's repeats are spread over the whole run; its fastest one is the
    call least slowed by other tenants of the host (see README.md)."""
    best: dict[int, float] = {}
    for i, seconds in samples:
        k = i % workload.size()
        best[k] = min(seconds, best.get(k, seconds))
    return best


def rate(workload, best: dict[int, float]) -> float:
    """Work per second of one pass made of each input's fastest call."""
    return sum(workload.work(k) for k in best) / sum(best.values())


def traced_loop(workload, plain: ops.Layers, traced: ops.Layers, seconds: float,
                tally: Tally) -> tuple[list, list]:
    """The traced operation, alternately without and with spans, so both
    see the same moments of the host; returns the two sample lists."""
    samples: tuple[list, list] = ([], [])
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        if i % workload.size() == 0:
            workload.next_pass(i)
        for layers, out in zip((plain, traced), samples):
            traced.tracer.op = i + 1
            start = time.perf_counter()
            try:
                with layers.tracer:
                    checks, failures = workload.traced(layers, i)
            except Exception:
                tally.crash()
            else:
                out.append((i, time.perf_counter() - start))
                tally.add(checks, failures)
        i += 1
    return samples


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (pool
    workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def untraced_metrics(workload, samples, count_s, report: list[str]) -> dict:
    best = best_seconds(workload, samples)
    latencies = [workload.latency_ms(k, seconds) for k, seconds in best.items()]
    throughput = rate(workload, best)
    per = "ply" if isinstance(workload, workloads.SelfPlay) else "call"
    report.append(f"{workload.unit}_per_s = {throughput:.1f} 1/s")
    report.append(f"samples: {len(samples)} calls over {len(best)} inputs, each input's "
                  f"fastest call kept; latency per {per}; {len(count_s)} cold counts, "
                  "fastest kept")
    if isinstance(workload, workloads.SelfPlay) and workload.workers > 1:
        serial = statistics.median(1e3 * s / p for s, p in zip(workload.serial_s, workload.plies))
        parallel = statistics.median(latencies)
        report.append(f"scaling efficiency 1->{workload.workers} workers = "
                      f"{serial / (workload.workers * parallel):.3f} "
                      f"(serial {serial:.4f} ms/ply from one call per input, "
                      f"parallel {parallel:.4f} ms/ply)")
    return {
        "throughput_per_s": (throughput, "1/s"),
        "op_ms_p50": (percentile(latencies, 50), "ms"),
        "op_ms_p90": (percentile(latencies, 90), "ms"),
        # Each reading's fastest sample: a reading is shorter than the host's
        # slow spells more often than the pair is.
        "count_infosets_s": (min(p for p, _ in count_s) + min(v for _, v in count_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_call(totals: dict, name: str, scale: float, key: str = "total_ns") -> float:
    t = totals.get(name)
    return t[key] / t["calls"] / scale if t else 0.0


def median_note(tracer: Tracer, name: str) -> float:
    values = tracer.notes.get(name)
    return statistics.median(values) if values else 0.0


def traced_metrics(tracer: Tracer, gate: Gate, overhead: float, traced_ops: int) -> dict:
    totals = tracer.layer_totals()
    us, ms, sec = 1e3, 1e6, 1e9

    def loop_calls(name: str) -> int:
        """Calls made by the workload's traced ops (op ids from 1; the gate
        is op 0)."""
        return sum(1 for span in tracer.spans if span[0] == name and span[4] > 0)

    def size_per_call(name: str) -> float:
        calls = totals.get(name, {}).get("calls", 0)
        return tracer.sizes.get(name, 0) / calls if calls else 0.0

    return {
        "engine.legal_moves.us_per_call": (per_call(totals, "engine.legal_moves", us), "us"),
        "engine.legal_moves.moves_per_call": (size_per_call("engine.legal_moves"), "count"),
        "engine.apply_move.us_per_call": (per_call(totals, "engine.apply_move", us), "us"),
        "engine.apply_move.calls": (loop_calls("engine.apply_move") / traced_ops, "count"),
        "engine.observe.us_per_call": (per_call(totals, "engine.observe", us), "us"),
        "infoset.mover_infoset_size.us_per_call":
            (per_call(totals, "infoset.mover_infoset_size", us), "us"),
        "infoset.mover_infoset_size.self_us_per_call":
            (per_call(totals, "infoset.mover_infoset_size", us, "self_ns"), "us"),
        "infoset.infoset_size.us_per_call": (per_call(totals, "infoset.infoset_size", us), "us"),
        "infoset.infoset_size.self_us_per_call":
            (per_call(totals, "infoset.infoset_size", us, "self_ns"), "us"),
        "combinatorics.multiset_arrangements.us_per_call":
            (per_call(totals, "combinatorics.multiset_arrangements", us), "us"),
        "combinatorics.exact_log10.us_per_call":
            (per_call(totals, "combinatorics.exact_log10", us), "us"),
        "combinatorics.binomial.hit_ratio": (gate.hit_ratio, "ratio"),
        "jfen.decode_state.us_per_call": (per_call(totals, "jfen.decode_state", us), "us"),
        "jfen.encode_state.us_per_call": (per_call(totals, "jfen.encode_state", us), "us"),
        "jfen.bytes_per_state": (size_per_call("jfen.encode_state"), "bytes"),
        "enumeration.count_information_sets.ms_per_call":
            (per_call(totals, "enumeration.count_information_sets", ms), "ms"),
        "simulator.play_random_game.ms_per_game":
            (per_call(totals, "simulator.play_random_game", ms), "ms"),
        "simulator.fold_s": (per_call(totals, "simulator.run_simulation", sec, "self_ns"), "s"),
        "simulator.write_outputs_s": (per_call(totals, "simulator.write_outputs", sec), "s"),
        "simulator.records_pickled_bytes":
            (median_note(tracer, "simulator.records_pickled_bytes"), "bytes"),
        "simulator.parallel_overhead_s":
            (median_note(tracer, "simulator.parallel_overhead_s"), "s"),
        "tracing.overhead_share": (overhead, "ratio"),
    }


def self_time_table(tracer: Tracer) -> list[str]:
    totals = tracer.layer_totals()
    lines = ["self time by layer (calls, self s, total s):"]
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(f"  {name:45s} {t['calls']:9d} {t['self_ns'] / 1e9:9.4f} "
                     f"{t['total_ns'] / 1e9:9.4f}")
    return lines


def measure(args) -> dict:
    root = Path.cwd()
    ops.check_source(root)
    work_dir = Path(args.work_dir)
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    tracer = Tracer() if args.trace else NullTracer()
    plain = ops.Layers(NullTracer())
    layers = ops.Layers(tracer) if args.trace else plain
    tally = Tally()
    report: list[str] = []
    try:
        gate = Gate(layers, work_dir, workloads.nproc())
        with tracer:
            gate.run()
        tally.add(gate.checks, len(gate.failed))
        for name in gate.failed[:10]:
            report.append(f"gate check failed: {name}")

        workload = workloads.make(args.workload, args.seed, work_dir)
        workload.prepare(plain)
        for i in range(workload.warmup_calls):
            workload.run(plain, i)
        report.append(f"inputs: {workload.size()} distinct, seed {args.seed}")
        if args.trace:
            off, on = traced_loop(workload, plain, layers, args.seconds, tally)
            workload.all_cpus()
            if not off or not on:
                raise SystemExit("no traced operation completed")
            untraced = rate(workload, best_seconds(workload, off))
            traced = rate(workload, best_seconds(workload, on))
            overhead = 1 - traced / untraced
            report.append(f"traced loop: {traced:.1f} {workload.unit}/s traced, "
                          f"{untraced:.1f} untraced, overhead share {overhead:.4f}")
            report += self_time_table(tracer)
            metrics = traced_metrics(tracer, gate, overhead, len(on))
            trace_path = root / ".perfbench_work" / f"trace-{args.workload}-seed{args.seed}.csv"
            tracer.write(trace_path)
            report.append(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(root)}")
        else:
            samples, count_s = timed_loop(workload, plain, args.seconds, tally,
                                          gate.expected_counts)
            workload.all_cpus()
            if not samples or not count_s:
                raise SystemExit("no operation completed")
            metrics = untraced_metrics(workload, samples, count_s, report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "report": report}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()
