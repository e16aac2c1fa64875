"""jieqi benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the directory holding src/jieqi).
Each workload runs in a fresh interpreter (measure.py), so module caches and
import-time tables start cold and workload order cannot move a number.  With
--trace 0, set-up time comes from more fresh interpreters (setup_probe.py),
half started before the measuring process and half after.
Report lines go to stdout; the last line is one JSON object: correct,
attempted, failed and metrics (the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1).  The environment is printed and saved
with every result under .perfbench_work/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The workloads workloads.py defines (run.py itself does not import jieqi).
WORKLOADS = ("selfplay", "selfplay-parallel", "perft", "analysis")
#: Moments at which setup_s is sampled, half before the measuring process
#: and half after it.  At each, one fresh interpreter runs on each core and
#: the faster counts, since other tenants slow the cores unevenly (see
#: README.md); the median over the moments is reported.
SETUP_MOMENTS = 6
MEASURE_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 10


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], root: Path, timeout: float) -> str:
    """Run a benchmark process to completion and return its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=root, env=child_env(root),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{argv[0]} did not finish within {timeout} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"{argv[0]} exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.stdout.strip().splitlines()[-1]


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "jieqi").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_rev(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(root),
        "src_sha256": source_digest(root),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def setup_seconds(workload: str, moments: int, root: Path, work_dir: Path) -> list[float]:
    argv = [str(HERE / "setup_probe.py"), workload, str(work_dir / f"setup-{workload}")]
    cpus = sorted(os.sched_getaffinity(0))
    return [min(float(run_child([*argv, str(cpu)], root, PROBE_TIMEOUT_S)) for cpu in cpus)
            for _ in range(moments)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "jieqi" / "__init__.py").is_file():
        fail(f"no src/jieqi under {root}: run from the root of a jieqi checkout")
    work_dir = root / ".perfbench_work"
    work_dir.mkdir(exist_ok=True)
    env = environment(root)
    started = time.time()

    half = 0 if args.trace else SETUP_MOMENTS // 2
    setup = setup_seconds(args.workload, half, root, work_dir)
    line = run_child([str(HERE / "measure.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--work-dir", str(work_dir / f"run-{args.workload}-{os.getpid()}")],
                     root, MEASURE_TIMEOUT_S)
    setup += setup_seconds(args.workload, half, root, work_dir)
    measured = json.loads(line)
    metrics = measured["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    attempted, failed = measured["attempted"], measured["failed"]
    report = [f"environment: {json.dumps(env, sort_keys=True)}",
              f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}", *measured["report"]]
    if setup:
        report.append(f"setup samples = {len(setup)} moments, the faster of one fresh "
                      "interpreter per core at each")
    report += [f"metric {name} = {m['value']!r} {m['unit']}" for name, m in sorted(metrics.items())]
    report.append(f"error_rate = {failed / attempted if attempted else 1.0!r} "
                  f"({failed} failed of {attempted} attempted)")
    print("\n".join(report))

    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"environment": env, "started_unix": started, "args": vars(args),
              "result": result, "report": report}
    (work_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
